"""Output checks behind ``error_rate``.

One operation is one grid point (a Shishkin CSV row), one operator level
(a converge CSV row), one verify check, one fitted-order set (the
``ls_order_*`` values of one eps or one operator) or, in a traced run,
one byte-identity comparison.  A row fails if any column differs from
the reference rows recorded at the seed commit (``reference.json``):

- ``eps``, ``N``, ``n`` and ``h`` must match exactly;
- ``jump2_II`` and ``jump2_IV`` are zero up to roundoff, so they are held
  to the absolute 1e-10 gate of the acceptance tests, not compared;
- every other column must agree within ``RTOL`` relative.

``RTOL`` admits roundoff from a reordered but equivalent computation:
random relative perturbations of 1e-15 in every field value move the
reference quantities by at most 1.3e-9 (shishkin_sweep), 2.4e-8
(shishkin_n256, ``jump2_III``) and 7.9e-9 (converge, ``bfs`` L2), so
``RTOL`` leaves a factor of 400 over that; an error in the method moves
them by far more.  Fitted orders must match within ``ORDER_ATOL``.
"""

from __future__ import annotations

import csv
import json
import math
import os

import workloads

RTOL = 1e-5
ROUNDOFF_GATE = 1e-10
ROUNDOFF = ("jump2_II", "jump2_IV")
EXACT = ("eps", "N", "n", "h")
ORDER_ATOL = 1e-6
# Fitted-order floors the acceptance tests require.
ORDER_FLOORS = {
    "converge_full": {"ls_order_L2": 2.9, "ls_order_H1": 1.9, "ls_order_H2": 0.9},
    "converge_quasi": {"ls_order_L2": 2.9, "ls_order_H1": 1.9, "ls_order_H2": 0.9},
    "converge_bfs": {"ls_order_L2": 3.9, "ls_order_H1": 2.9, "ls_order_H2": 1.9},
}
SWEEP_ORDER_FLOORS = {"ls_order_L2": 1.8, "ls_order_jump2_I": 2.5}

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def _number(text):
    return None if text == "" else float(text)


def read_table(stem) -> dict:
    """Columns, rows and fitted orders of one CLI output pair (stem.csv, stem.json)."""
    with open(stem + ".csv", newline="") as fh:
        lines = list(csv.reader(fh))
    with open(stem + ".json") as fh:
        meta = json.load(fh)
    if "orders_by_eps" in meta:
        orders = {eps: {k: v for k, v in o.items() if k.startswith("ls_order_")} for eps, o in meta["orders_by_eps"].items()}
    else:
        orders = {"": {k: v for k, v in meta.items() if k.startswith("ls_order_")}}
    return {"columns": lines[0], "rows": [[_number(v) for v in row] for row in lines[1:]], "orders": orders}


def read_outputs(workload, out_dir) -> dict:
    if workload == "verify":
        with open(os.path.join(out_dir, workloads.VERIFY_REPORT)) as fh:
            return {"checks": json.load(fh)["checks"]}
    return {os.path.basename(stem): read_table(stem) for _, stem in workloads.cli_invocations(workload, out_dir)}


def _same(column, got, want) -> bool:
    if column in ROUNDOFF:
        return got is not None and abs(got) <= ROUNDOFF_GATE
    if got is None or want is None:
        return got is None and want is None
    if column in EXACT:
        return got == want
    return math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0)


def _same_order(got, want) -> bool:
    if math.isnan(want):  # a fit over fewer than two levels
        return got is not None and math.isnan(got)
    return got is not None and abs(got - want) <= ORDER_ATOL


def check_table(name, got, want, floors) -> list:
    """Problems found, one entry per failed operation."""
    problems = []
    if got["columns"] != want["columns"] or len(got["rows"]) != len(want["rows"]):
        return [f"{name}: columns or row count differ from the reference"] * (len(want["rows"]) + len(want["orders"]))
    for k, (row, ref) in enumerate(zip(got["rows"], want["rows"])):
        bad = [c for c, g, w in zip(want["columns"], row, ref) if not _same(c, g, w)]
        if bad:
            problems.append(f"{name} row {k}: {', '.join(bad)} off the reference")
    for key, ref in want["orders"].items():
        orders = got["orders"].get(key, {})
        bad = [o for o, w in ref.items() if not _same_order(orders.get(o), w)]
        bad += [o for o, floor in floors.items() if not orders.get(o, -math.inf) >= floor]
        if bad:
            problems.append(f"{name} orders {key or 'fit'}: {', '.join(sorted(set(bad)))} do not hold")
    return problems


def expected_operations(workload, reference) -> int:
    ref = reference[workload]
    if workload == "verify":
        return len(ref["check_names"])
    return sum(len(t["rows"]) + len(t["orders"]) for t in ref.values())


def check_job(workload, out_dir, reference) -> tuple:
    """``(attempted, problems)`` for one job's outputs; one problem per failed operation."""
    ref = reference[workload]
    try:
        outputs = read_outputs(workload, out_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        n = expected_operations(workload, reference)
        return n, [f"{workload}: outputs unreadable ({exc})"] * n
    if workload == "verify":
        checks = {c["name"]: c for c in outputs["checks"]}
        names = list(dict.fromkeys(ref["check_names"] + list(checks)))
        problems = []
        for name in names:
            c = checks.get(name)
            if c is None or not (c["passed"] and c["value"] <= c["tolerance"]):
                problems.append(f"verify check {name}: {'missing' if c is None else 'failed'}")
        return len(names), problems
    problems = []
    for name, want in ref.items():
        floors = SWEEP_ORDER_FLOORS if workload == "shishkin_sweep" else ORDER_FLOORS.get(name, {})
        problems += check_table(name, outputs[name], want, floors)
    return expected_operations(workload, reference), problems


def output_files(workload, out_dir) -> list:
    """The files whose bytes must not depend on tracing."""
    if workload == "verify":
        return [os.path.join(out_dir, workloads.VERIFY_REPORT)]
    return [stem + ".csv" for _, stem in workloads.cli_invocations(workload, out_dir)]


def byte_identical(workload, plain_dir, traced_dir) -> bool:
    try:
        for a, b in zip(output_files(workload, plain_dir), output_files(workload, traced_dir)):
            with open(a, "rb") as fa, open(b, "rb") as fb:
                if fa.read() != fb.read():
                    return False
    except OSError:
        return False
    return True


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)
