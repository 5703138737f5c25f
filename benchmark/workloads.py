"""The four benchmark workloads, each shaped like a CLI job users run.

A job is what one CLI invocation (or, for ``converge_operators``, one
invocation per operator) computes and writes.  Every job runs in one
process with the default ``threads=1``.  Only ``verify`` takes the
benchmark seed, and only as ``verification_suite(rng_seed=seed)``; the
other three workloads are fixed by definition and ignore it.
"""

from __future__ import annotations

import os

OPERATORS = ("full", "reduced", "quasi", "bfs", "nodal", "aniso_y")

# The acceptance study of the paper: layer field with a bounded-third-
# derivative smooth part, small edge layers, sigma edges toward the corner.
SHISHKIN_FIELD = (
    "--smooth", "bounded_third",
    "--smooth-amplitude", "10",
    "--edge-amplitude", "0.05",
    "--sigma", "toward_corner",
)

WORKLOADS = {
    "shishkin_sweep": {
        "deterministic": True,
        "why": "the headline (eps, N) study: 12 meshes of at most 4,096 elements, dominated by per-call overhead",
    },
    "shishkin_n256": {
        "deterministic": True,
        "why": "one Shishkin point at N=256: 65,536 elements and 131,584 edges, a working set beyond the L2 cache",
    },
    "converge_operators": {
        "deterministic": True,
        "why": "all six uniform-mesh operators at 7 levels; never touches the composite, jumps or piecewise evaluation",
    },
    "verify": {
        "deterministic": False,
        "why": "the verification battery: many tiny calls, the only workload for oracles and most of spline_core",
    },
}


def cli_invocations(workload: str, out_dir: str) -> list:
    """``(argv, output stem)`` of each CLI call one job makes, in order.

    ``verify`` calls the library instead (the CLI fixes its seed), so it
    has none.
    """
    if workload == "shishkin_sweep":
        stem = os.path.join(out_dir, "shishkin")
        grid = ["--N", "8", "16", "32", "64", "--eps", "1e-4", "1e-6", "1e-8"]
        return [(["shishkin", *grid, *SHISHKIN_FIELD, "--out", stem, "--format", "both"], stem)]
    if workload == "shishkin_n256":
        stem = os.path.join(out_dir, "shishkin")
        grid = ["--N", "256", "--eps", "1e-6"]
        return [(["shishkin", *grid, *SHISHKIN_FIELD, "--out", stem, "--format", "both"], stem)]
    if workload == "converge_operators":
        calls = []
        for op in OPERATORS:
            stem = os.path.join(out_dir, f"converge_{op}")
            argv = ["converge", "--operator", op, "--field", "sin_sin", "--levels", "7", "--base-n", "2"]
            calls.append((argv + ["--out", stem, "--format", "both"], stem))
        return calls
    if workload == "verify":
        return []
    raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")


VERIFY_REPORT = "verify.json"
