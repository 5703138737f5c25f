import itertools
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import macrospline
from macrospline import cli
from macrospline.cli import build_parser, main
from macrospline.fields import ScalarField, get_field
from macrospline.experiments import (
    ELEMENTS_PER_CELL,
    ELEMENTS_PER_MACRO,
    MAX_ELEMENTS,
    ConvergenceConfig,
    ShishkinConfig,
    _apply_mesh_operator,
    ls_slope,
    observed_orders,
    run_convergence,
    verification_suite,
    write_csv,
    write_json,
)


def test_observed_orders_synthetic():
    orders = observed_orders([1.0, 1.0 / 8.0, 1.0 / 64.0], [1.0, 0.5, 0.25])
    assert orders[0] is None
    assert orders[1] == pytest.approx(3.0, abs=1e-14)
    assert orders[2] == pytest.approx(3.0, abs=1e-14)
    assert ls_slope([1.0, 1.0 / 8.0, 1.0 / 64.0], [1.0, 0.5, 0.25]) == pytest.approx(3.0, abs=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        ConvergenceConfig(operator="nope")
    with pytest.raises(ValueError):
        ConvergenceConfig(levels=2)
    with pytest.raises(ValueError):
        ShishkinConfig(N_list=(12,))
    # names are checked when the config is made, with the messages the run would give
    bad = [
        ("unknown sigma strategy 'bogus'", lambda: ShishkinConfig(sigma="bogus")),
        ("custom strategy requires an explicit node -> SigmaEdge map", lambda: ShishkinConfig(sigma="custom")),
        ("smooth must be 'default', 'bounded_third' or 'eps_growth'", lambda: ShishkinConfig(smooth_variant="bogus")),
        ("unknown field 'nonexistent'", lambda: ConvergenceConfig(field="nonexistent")),
        ("unknown sigma strategy 'bogus'", lambda: ConvergenceConfig(operator="quasi", sigma="bogus")),
        ("custom strategy requires an explicit node -> SigmaEdge map", lambda: ConvergenceConfig(operator="quasi", sigma="custom")),
        ("sigma applies to the quasi operator only, not to full", lambda: ConvergenceConfig(sigma="left")),
    ]
    for message, make in bad:
        with pytest.raises(ValueError, match=re.escape(message)):
            make()
    assert ConvergenceConfig().sigma is None and ConvergenceConfig(operator="quasi", sigma="left").sigma == "left"


def test_csv_has_17_significant_digits(tmp_path):
    cfg = ConvergenceConfig(operator="nodal", field="sin_sin", levels=3)
    table = run_convergence(cfg)
    path = tmp_path / "rates.csv"
    write_csv(table, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("n,h,L2")
    value = lines[1].split(",")[2]
    assert len(value.replace(".", "").replace("-", "").lstrip("0").replace("e", "").split()) == 1
    assert float(value) > 0


def test_cli_verify_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--format", "json", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "macrospline-verify/1"
    assert payload["passed"] is True
    assert all(c["passed"] for c in payload["checks"])


def test_verify_report_schema_matches_golden():
    import pathlib

    golden = json.loads((pathlib.Path(__file__).parent / "data" / "verify_check_names.json").read_text())
    results = verification_suite()
    assert [r.name for r in results] == golden["check_names"]
    sample = results[0].as_dict()
    assert set(sample) == {"name", "value", "tolerance", "passed"}


def test_cli_verify_detects_broken_dual_weight(monkeypatch):
    import macrospline.oracles as oracles_mod

    original = oracles_mod.eval_dual_weight

    def flipped(weight, x):
        return -original(weight, x)

    monkeypatch.setattr(oracles_mod, "eval_dual_weight", flipped)
    code = main(["verify", "--format", "json"])
    assert code == 1


def test_cli_converge_runs(tmp_path, capsys):
    out = tmp_path / "rates"
    code = main(
        ["converge", "--operator", "nodal", "--levels", "3", "--field", "sin_sin", "--out", str(out), "--format", "both"]
    )
    assert code == 0
    csv_text = (tmp_path / "rates.csv").read_text()
    assert csv_text.count("\n") == 4  # header + 3 levels
    payload = json.loads((tmp_path / "rates.json").read_text())
    assert payload["schema"] == "macrospline-rates/1"
    assert payload["ls_order_L2"] > 2.5


def test_cli_shishkin_runs(tmp_path):
    out = tmp_path / "shishkin.csv"
    code = main(
        ["shishkin", "--N", "8", "16", "--eps", "1e-6", "--out", str(out), "--format", "csv"]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("eps,N,L2")
    assert len(lines) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["converge", "--operator", "bfs", "--levels", "5"],
        ["shishkin", "--N", "8", "16", "--eps", "1e-6"],
    ],
)
def test_csv_does_not_depend_on_blas_threads(tmp_path, argv):
    # The element quadrature runs through BLAS; its thread count must not change a byte.
    src = os.path.dirname(os.path.dirname(os.path.abspath(macrospline.__file__)))
    texts = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        cmd = [sys.executable, "-m", "macrospline.cli", *argv, "--out", str(out), "--format", "csv"]
        subprocess.run(cmd, env=env, check=True, capture_output=True)
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    assert texts[0].count(b"\n") > 2


def test_cli_bad_config_exit_code():
    assert main(["shishkin", "--N", "12"]) == 2
    assert main(["converge", "--operator", "wrong"]) == 2
    # --sigma belongs to the quasi operator
    for operator in ("full", "reduced", "bfs", "nodal", "aniso_y"):
        assert main(["converge", "--operator", operator, "--levels", "3", "--sigma", "left"]) == 2


def test_verification_suite_all_pass():
    results = verification_suite()
    failed = [r.name for r in results if not r.passed]
    assert not failed, failed


def test_a_nan_after_a_finite_term_fails_the_verification_battery(monkeypatch):
    from macrospline import experiments, oracles
    from macrospline.interpolation import PiecewisePoly2D

    # the second of three reproduction macros, the last order of each C1 line
    # and every trace inequality trial after the first compute NaN
    monkeypatch.setattr(experiments, "_reproduction_error", lambda p, f, macro, error=experiments._reproduction_error: np.nan if macro[3] == 1e-3 else error(p, f, macro))
    evaluate = PiecewisePoly2D.evaluate

    def nan_from_the_right(self, x, y, ax=0, ay=0, side=("-", "-")):
        return np.full(np.shape(x), np.nan) if side == ("+", "-") and (ax, ay) == (0, 1) else evaluate(self, x, y, ax, ay, side)

    monkeypatch.setattr(PiecewisePoly2D, "evaluate", nan_from_the_right)
    trials, check = itertools.count(1), oracles.check_trace_inequality
    monkeypatch.setattr(oracles, "check_trace_inequality", lambda f, macro: (np.nan, 0.0) if next(trials) > 1 else check(f, macro))
    results = {r.name: r for r in verification_suite()}
    nan = {"reproduction_full_q2", "c1_continuity_full", "c1_continuity_quasi", "trace_inequality_violation"}
    for name in nan:
        assert math.isnan(results[name].value) and not results[name].passed, name
    assert all(r.passed for name, r in results.items() if name not in nan)


def test_cli_options_belong_to_their_subcommand(tmp_path, capsys):
    # --field is a converge option, --lambda0 and --cstar are shishkin options
    assert main(["shishkin", "--N", "8", "--eps", "1e-6", "--field", "nonexistent"]) == 2
    assert main(["shishkin", "--N", "8", "--eps", "1e-6", "--field", "sin_sin"]) == 2
    assert main(["converge", "--levels", "3", "--lambda0", "2"]) == 2
    assert main(["converge", "--levels", "3", "--cstar", "2"]) == 2
    assert capsys.readouterr().err.count("unrecognized arguments") == 4
    assert main(["converge", "--levels", "3", "--field", "nonexistent"]) == 2

    def rows(argv, name):
        assert main(argv + ["--out", str(tmp_path / f"{name}.csv"), "--format", "csv"]) == 0
        return (tmp_path / f"{name}.csv").read_text()

    shishkin = ["shishkin", "--N", "8", "--eps", "1e-6"]
    default = rows(shishkin, "default")
    assert rows(shishkin + ["--lambda0", "4"], "lambda0") != default
    assert rows(shishkin + ["--cstar", "2"], "cstar") != default
    converge = ["converge", "--operator", "nodal", "--levels", "3"]
    assert rows(converge + ["--field", "exp_xy"], "exp_xy") != rows(converge, "sin_sin")


def test_element_budget():
    # the largest benchmark meshes: converge at 7 levels and one Shishkin point at N=256
    assert ConvergenceConfig(operator="full", levels=7).finest_elements() == 65536
    assert ShishkinConfig(N_list=(8, 256)).finest_elements() == 65536
    assert 16 * 65536 <= MAX_ELEMENTS
    with pytest.raises(ValueError, match="budget"):
        ConvergenceConfig(levels=12)
    with pytest.raises(ValueError, match="budget"):
        ShishkinConfig(N_list=(8, 4096))
    ConvergenceConfig(operator="bfs", levels=10)  # 1024^2 elements, exactly the budget
    with pytest.raises(ValueError, match="budget"):
        ConvergenceConfig(operator="full", levels=10)
    with pytest.raises(ValueError):
        ConvergenceConfig(base_n=0)
    with pytest.raises(ValueError):
        ShishkinConfig(N_list=(0,))


def test_shishkin_config_counts_shishkin_elements():
    # an N x N Shishkin mesh has N^2 elements: N=2048 is four times the budget, N=1024 exactly it
    with pytest.raises(ValueError, match="budget"):
        ShishkinConfig(N_list=(2048,))
    assert ShishkinConfig(N_list=(1024,)).finest_elements() == MAX_ELEMENTS


@pytest.mark.parametrize("operator", sorted(ELEMENTS_PER_CELL))
def test_elements_per_cell_matches_operator(operator):
    # 3 x 2 macros, so a swapped (ex, ey) shows
    poly = _apply_mesh_operator(operator, get_field("sin_sin"), np.linspace(0.0, 1.0, 4), np.linspace(0.0, 1.0, 3), "left")
    ex, ey = ELEMENTS_PER_MACRO[operator]
    assert poly.coef.shape[:2] == (2 * ey, 3 * ex)
    assert ELEMENTS_PER_CELL[operator] == ex * ey


def test_cli_rejects_runs_over_the_element_budget(capsys):
    assert main(["converge", "--levels", "12"]) == 2
    assert main(["shishkin", "--N", "4096", "--eps", "1e-6"]) == 2
    assert capsys.readouterr().err.count("budget") == 2


def test_cli_rejects_non_finite_field_values(monkeypatch, capsys):
    import macrospline.experiments as experiments_mod

    base = get_field("sin_sin")

    def nan_at_origin(x, y, ax, ay):
        v = np.array(np.broadcast_to(base(x, y, ax, ay), np.broadcast(x, y).shape))
        v[np.broadcast_to((x == 0.0) & (y == 0.0), v.shape)] = np.nan
        return v

    monkeypatch.setattr(experiments_mod, "get_field", lambda name: ScalarField(name, nan_at_origin))
    assert main(["converge", "--levels", "3"]) == 2
    assert "not finite" in capsys.readouterr().err


def test_cli_rejects_repeated_values(capsys):
    assert main(["shishkin", "--N", "8", "8", "--eps", "1e-4"]) == 2
    assert main(["shishkin", "--N", "8", "--eps", "1e-4", "1e-4"]) == 2
    assert capsys.readouterr().err.count("must not repeat") == 2


def test_cli_rejects_eps_before_building_a_mesh(monkeypatch, capsys):
    import macrospline.experiments as experiments_mod

    built = []
    monkeypatch.setattr(experiments_mod, "build_shishkin", lambda *args: built.append(args))
    for eps in ("2", "1", "0", "-0.5", "nan"):
        assert main(["shishkin", "--N", "256", "--eps", "1e-6", eps]) == 2
    assert built == []
    assert capsys.readouterr().err.count("epsilon must lie in (0, 1)") == 5


def test_cli_rejects_eps_too_small_for_the_fine_step_before_building_a_mesh(monkeypatch, capsys):
    import macrospline.experiments as experiments_mod

    built = []
    monkeypatch.setattr(experiments_mod, "build_shishkin", lambda *args: built.append(args))
    assert main(["shishkin", "--N", "256", "--eps", "1e-6", "1e-40"]) == 2
    assert built == []
    assert "epsilon is too small for a fine step of at least 2^-52" in capsys.readouterr().err


def test_cli_rejects_non_finite_shishkin_parameters_before_building_a_mesh(monkeypatch, capsys):
    import macrospline.experiments as experiments_mod

    built = []
    monkeypatch.setattr(experiments_mod, "build_shishkin", lambda *args: built.append(args))
    for option, name in (("--lambda0", "lambda0"), ("--cstar", "c_star"), ("--smooth-amplitude", "smooth_amplitude"), ("--edge-amplitude", "edge_amplitude")):
        for value in ("nan", "inf"):
            assert main(["shishkin", "--N", "8", "--eps", "1e-4", option, value]) == 2
            assert f"{name} must be finite" in capsys.readouterr().err
    assert built == []


def test_cli_import_leaves_the_oracles_out():
    src = os.path.dirname(os.path.dirname(os.path.abspath(macrospline.__file__)))
    code = "import sys, macrospline.cli; print('macrospline.oracles' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), check=True, capture_output=True, text=True)
    assert result.stdout.strip() == "False"


def test_cli_study_defaults_come_from_the_configs():
    parser = build_parser()
    for command in ("converge", "shishkin"):
        assert vars(parser.parse_args([command])) == {"command": command, "out": None, "fmt": "csv"}


@pytest.mark.parametrize(
    "argv",
    [
        ["converge", "--operator", "quasi", "--levels", "3"],
        ["shishkin", "--N", "8", "16", "--eps", "1e-4", "1e-6"],
    ],
)
def test_cli_stdout_rows_match_the_csv(tmp_path, capsys, argv):
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "rates.csv"
    assert main(argv + ["--out", str(out)]) == 0
    data_rows = out.read_text().splitlines(keepends=True)[1:]
    assert data_rows and printed == "".join(data_rows)


@pytest.mark.parametrize("command", ["converge", "shishkin"])
@pytest.mark.parametrize("fmt", ["json", "both"])
def test_cli_file_formats_without_out_exit_2_before_any_study(monkeypatch, capsys, command, fmt):
    def never(config):
        raise AssertionError("the study ran")

    monkeypatch.setattr(cli, "run_convergence", never)
    monkeypatch.setattr(cli, "run_shishkin", never)
    assert main([command, "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--out" in captured.err and f"--format {fmt}" in captured.err


def test_cli_reads_negative_amplitudes_in_exponent_form(tmp_path, capsys):
    # argparse on Python 3.10/3.11 took "-1e-3" for an option flag
    args = build_parser().parse_args(["shishkin", "--N", "8", "--eps", "1e-4", "--edge-amplitude", "-1e-3", "--smooth-amplitude", "-1e1"])
    assert args.edge_amplitude == -1e-3 and args.smooth_amplitude == -10.0
    base = ["shishkin", "--N", "8", "--eps", "1e-4", "--format", "csv"]
    spaced = tmp_path / "spaced.csv"
    joined = tmp_path / "joined.csv"
    assert main(base + ["--edge-amplitude", "-1e-3", "--smooth-amplitude", "-1e1", "--out", str(spaced)]) == 0
    assert main(base + ["--edge-amplitude=-1e-3", "--smooth-amplitude=-1e1", "--out", str(joined)]) == 0
    assert spaced.read_text() == joined.read_text()
    for value in ("-1E+1", "-.5e0", "-2.", "-3"):
        assert build_parser().parse_args(base + ["--smooth-amplitude", value]).smooth_amplitude == float(value)


def test_cli_still_rejects_bad_values_after_a_dash(capsys):
    # a negative eps now reaches the config check instead of the parser
    assert main(["shishkin", "--N", "8", "--eps", "-1e-4"]) == 2
    assert "epsilon must lie in (0, 1)" in capsys.readouterr().err
    for value in ("-x", "-1e", "-e3", "--1e-3"):
        assert main(["shishkin", "--N", "8", "--eps", "1e-4", "--edge-amplitude", value]) == 2
        assert "argument --edge-amplitude: expected one argument" in capsys.readouterr().err
    assert main(["shishkin", "--N", "8", "--eps", "1e-4", "--edge-amplitude"]) == 2
    assert "expected one argument" in capsys.readouterr().err
