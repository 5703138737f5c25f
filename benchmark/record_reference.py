"""Record the reference outputs the benchmark checks against.

    python3 benchmark/record_reference.py

Run from the root of a checkout whose outputs are known to be right (the
shipped ``reference.json`` comes from the package's initial commit).  It
runs one untraced job per workload and writes ``benchmark/reference.json``:
the CSV rows and fitted orders of the three deterministic workloads and
the check names of ``verify``.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import checks
import run
import workloads


def main() -> int:
    out = os.path.join(run.ROOT, ".bench_out", "reference")
    shutil.rmtree(out, ignore_errors=True)
    reference = {}
    for workload in workloads.WORKLOADS:
        job_dir = os.path.join(out, workload)
        run.spawn(workload, 0, job_dir, "plain")
        outputs = checks.read_outputs(workload, job_dir)
        if workload == "verify":
            reference[workload] = {"check_names": [c["name"] for c in outputs["checks"]]}
        else:
            reference[workload] = outputs
        print(f"recorded {workload}", file=sys.stderr)
    with open(checks.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
