"""Command-line front end: verification suites and experiments.

Exit codes: 0 on success, 1 when a verification check fails, 2 on
configuration errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .experiments import (
    OPERATORS,
    ConvergenceConfig,
    ShishkinConfig,
    _fmt,
    run_convergence,
    run_shishkin,
    verification_suite,
    write_csv,
    write_json,
)

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that reads a negative number in exponent form, such as -1e-3, as a value.

    argparse on Python 3.10 and 3.11 takes only -1 and -0.5 for negative
    numbers, and anything else after a dash for an option flag.  Its
    subparsers are of this class too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="macrospline", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run all identity and reproduction suites")
    p_verify.add_argument("--out", default=None, help="optional JSON report path")
    p_verify.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")

    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--sigma", choices=("toward_corner", "left", "down"))
    common.add_argument("--out", default=None, help="output path (suffix chosen by --format)")
    common.add_argument(
        "--format", dest="fmt", choices=("csv", "json", "both"), default="csv", help="csv without --out prints the rows; json and both need --out"
    )

    p_conv = sub.add_parser("converge", parents=[common], argument_default=argparse.SUPPRESS, help="uniform-mesh convergence study")
    p_conv.add_argument("--operator", choices=OPERATORS)
    p_conv.add_argument("--field")
    p_conv.add_argument("--levels", type=int)
    p_conv.add_argument("--base-n", type=int)

    p_shi = sub.add_parser("shishkin", parents=[common], argument_default=argparse.SUPPRESS, help="layer-adapted composite study")
    p_shi.add_argument("--N", dest="N_list", metavar="N", type=int, nargs="+")
    p_shi.add_argument("--eps", dest="eps_list", metavar="EPS", type=float, nargs="+")
    p_shi.add_argument("--lambda0", type=float)
    p_shi.add_argument("--cstar", dest="c_star", metavar="CSTAR", type=float)
    p_shi.add_argument("--smooth", dest="smooth_variant", choices=("default", "bounded_third", "eps_growth"))
    p_shi.add_argument("--smooth-amplitude", type=float)
    p_shi.add_argument("--edge-amplitude", type=float)
    return parser


def _emit(table, out, fmt):
    if out is None:
        for row in table.rows:
            print(",".join(_fmt(v) for v in row))
        return
    if fmt in ("csv", "both"):
        write_csv(table, out if out.endswith(".csv") or fmt == "csv" else out + ".csv")
    if fmt in ("json", "both"):
        write_json(table, out if out.endswith(".json") and fmt == "json" else out + ".json")


def cmd_verify(args) -> int:
    results = verification_suite()
    failures = [r for r in results if not r.passed]
    if args.fmt == "json" or args.out:
        payload = {
            "schema": "macrospline-verify/1",
            "passed": not failures,
            "checks": [r.as_dict() for r in results],
        }
        text = json.dumps(payload, indent=1)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        if args.fmt == "json":
            print(text)
    if args.fmt == "text":
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"[{status}] {r.name}: {r.value:.3e} (tol {r.tolerance:.1e})")
        print(f"{len(results) - len(failures)}/{len(results)} checks passed")
    return 1 if failures else 0


def _config(config_class, args):
    """The config of the study options given (lists become tuples); one left out takes its field's default."""
    options = {k: v for k, v in vars(args).items() if k not in ("command", "out", "fmt")}
    return config_class(**{k: tuple(v) if isinstance(v, list) else v for k, v in options.items()})


def cmd_converge(args) -> int:
    _emit(run_convergence(_config(ConvergenceConfig, args)), args.out, args.fmt)
    return 0


def cmd_shishkin(args) -> int:
    _emit(run_shishkin(_config(ShishkinConfig, args)), args.out, args.fmt)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    commands = {"verify": cmd_verify, "converge": cmd_converge, "shishkin": cmd_shishkin}
    try:
        if args.command != "verify" and args.fmt != "csv" and args.out is None:
            raise ValueError(f"--format {args.fmt} writes files: give --out")
        return commands[args.command](args)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
