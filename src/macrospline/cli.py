"""Command-line front end: verification suites and experiments.

Exit codes: 0 on success, 1 when a verification check fails, 2 on
configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import (
    ExperimentConfig,
    run_convergence,
    run_shishkin,
    verification_suite,
    write_csv,
    write_json,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="macrospline", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run all identity and reproduction suites")
    p_verify.add_argument("--out", default=None, help="optional JSON report path")
    p_verify.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--sigma", default="toward_corner", choices=("toward_corner", "left", "down"))
    common.add_argument("--out", default=None, help="output path (suffix chosen by --format)")
    common.add_argument("--format", dest="fmt", choices=("csv", "json", "both"), default="csv")

    p_conv = sub.add_parser("converge", parents=[common], help="uniform-mesh convergence study")
    p_conv.add_argument("--operator", default="full", choices=("full", "reduced", "quasi", "bfs", "nodal", "aniso_y"))
    p_conv.add_argument("--field", default="sin_sin")
    p_conv.add_argument("--levels", type=int, default=4)
    p_conv.add_argument("--base-n", type=int, default=2)

    p_shi = sub.add_parser("shishkin", parents=[common], help="layer-adapted composite study")
    p_shi.add_argument("--N", type=int, nargs="+", default=[8, 16, 32, 64])
    p_shi.add_argument("--eps", type=float, nargs="+", default=[1e-4, 1e-6, 1e-8])
    p_shi.add_argument("--lambda0", type=float, default=3.0)
    p_shi.add_argument("--cstar", type=float, default=1.0)
    p_shi.add_argument("--smooth", default="bounded_third", choices=("default", "bounded_third", "eps_growth"))
    p_shi.add_argument("--smooth-amplitude", type=float, default=1.0)
    p_shi.add_argument("--edge-amplitude", type=float, default=1.0)
    return parser


def _emit(table, out, fmt):
    if out is None:
        for row in table.rows:
            print(",".join("" if v is None else (f"{v:.17g}" if isinstance(v, float) else str(v)) for v in row))
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


def cmd_converge(args) -> int:
    config = ExperimentConfig(
        operator=args.operator,
        field=args.field,
        levels=args.levels,
        base_n=args.base_n,
        sigma=args.sigma,
    )
    config.validate()
    table = run_convergence(config)
    _emit(table, args.out, args.fmt)
    return 0


def cmd_shishkin(args) -> int:
    config = ExperimentConfig(
        mesh_family="shishkin",
        N_list=tuple(args.N),
        eps_list=tuple(args.eps),
        lambda0=args.lambda0,
        c_star=args.cstar,
        sigma=args.sigma,
        smooth_variant=args.smooth,
        smooth_amplitude=args.smooth_amplitude,
        edge_amplitude=args.edge_amplitude,
    )
    config.validate()
    table = run_shishkin(config)
    _emit(table, args.out, args.fmt)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "converge":
            return cmd_converge(args)
        if args.command == "shishkin":
            return cmd_shishkin(args)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
