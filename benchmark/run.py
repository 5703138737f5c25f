"""Benchmark of macrospline on four CLI-shaped workloads.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
``src``.  Every job runs in a fresh interpreter (``job.py``), as one CLI
invocation would, and its outputs are checked against the reference
rows.  With ``--trace 0`` the run first starts eight set-up-only
interpreters, then runs jobs until the next one would end after
``--seconds``, and reports the end-to-end metrics: the median job wall
time and the median set-up time over every interpreter, both scaled to
the reference speed of the host that ``job.SpeedProbe`` samples while
they run, and the median peak memory of the jobs.  With ``--trace 1`` it
runs pairs of one untraced and one traced job instead, checks that
their CSV output is byte-identical and reports the per-layer metrics
(medians over the traced jobs) with the tracing overhead.  Metric names
and units come from ``BENCHMARK.json``.  The last line of standard
output is one JSON object; everything, with provenance and the raw
times, also goes to ``.bench_out/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import checks
import tracer
import workloads

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 8
JOB_TIMEOUT_S = 170


class JobFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.realpath(os.path.join(ROOT, "src"))
    # one process, one thread: no BLAS pool competing for the two cores
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(workload, seed, out_dir, mode, probe=False) -> dict:
    """Run ``job.py`` once; its report plus ``setup_s`` (and ``setup_ref_s`` when probed)."""
    cmd = [sys.executable, os.path.join(HERE, "job.py"), "--workload", workload, "--seed", str(seed), "--out", out_dir, "--mode", mode]
    if probe:
        cmd.append("--probe")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise JobFailed(f"{mode} job of {workload} ran over {JOB_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise JobFailed(f"{mode} job of {workload} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - start
    if probe:
        report["setup_ref_s"] = (report["setup_s"] - report["setup_probe_s"]) * report["setup_speed"]
    return report


def git_commit():
    """HEAD of the checkout, read without git; None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cache_sizes() -> dict:
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fl, open(os.path.join(index, "size")) as fs:
                level, size = fl.read().strip(), fs.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            sizes[f"l{level}_cache"] = size
    return sizes


def provenance(workload, seed, versions, loadavg) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "macrospline": versions["macrospline"],
        "machine": platform.machine(),
        **cache_sizes(),
        "loadavg_at_start": list(loadavg),
        "git_commit": git_commit(),
        "seed": seed,
        "seed_changes_inputs": not workloads.WORKLOADS[workload]["deterministic"],
    }


def measure_loop(deadline, step):
    """Call ``step`` until the next call, at the median length so far, would end after ``deadline``."""
    lengths = []
    while not lengths or time.monotonic() + statistics.median(lengths) <= deadline:
        start = time.monotonic()
        step(len(lengths))
        lengths.append(time.monotonic() - start)


def run_plain(workload, seed, seconds, out, reference, result):
    deadline = time.monotonic() + seconds
    setups = [spawn(workload, seed, os.path.join(out, "setup"), "setup", probe=True) for _ in range(SETUP_SAMPLES)]
    jobs = []

    def step(k):
        job_dir = os.path.join(out, f"job{k}")
        job = spawn(workload, seed, job_dir, "plain", probe=True)
        setups.append(job)
        jobs.append(job)
        record_checks(result, *checks.check_job(workload, job_dir, reference))

    measure_loop(deadline, step)
    result["samples"] = {
        "wall_s": [j["wall_ref_s"] for j in jobs],
        "raw_wall_s": [j["wall_s"] for j in jobs],
        "job_speed": [j["job_speed"] for j in jobs],
        "setup_s": [j["setup_ref_s"] for j in setups],
        "raw_setup_s": [j["setup_s"] for j in setups],
        "setup_speed": [j["setup_speed"] for j in setups],
        "peak_rss_mib": [(j["maxrss_kib"] - j["probe_kib"]) / 1024.0 for j in jobs],
    }
    # Times at the probe's reference speed: a shared host's speed switches
    # between a fast and a slower state for seconds to minutes at a time,
    # which moved even the fastest raw job of a run by 0.14 to 0.37 of its median
    # from run to run (see README.md).
    return {name: statistics.median(result["samples"][name]) for name in ("wall_s", "setup_s", "peak_rss_mib")}


def run_traced(workload, seed, seconds, out, reference, result):
    plain_walls, traced_walls, layers = [], [], []

    def step(k):
        pair = os.path.join(out, f"pair{k}")
        plain_dir, traced_dir = os.path.join(pair, "plain"), os.path.join(pair, "traced")
        plain = spawn(workload, seed, plain_dir, "plain")
        traced = spawn(workload, seed, traced_dir, "traced")
        plain_walls.append(plain["wall_s"])
        traced_walls.append(traced["wall_s"])
        for job_dir in (plain_dir, traced_dir):
            record_checks(result, *checks.check_job(workload, job_dir, reference))
        same = checks.byte_identical(workload, plain_dir, traced_dir)
        record_checks(result, 1, [] if same else [f"pair{k}: output differs between traced and untraced runs"])
        with open(os.path.join(traced_dir, "trace.json")) as fh:
            trace = json.load(fh)
        result.setdefault("unpatched", trace["missing"])
        layers.append(tracer.summarize(trace["spans"]))

    measure_loop(time.monotonic() + seconds, step)
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    plain, traced = statistics.median(plain_walls), statistics.median(traced_walls)
    metrics["trace.wall_s"] = traced
    metrics["trace.untraced_wall_s"] = plain
    metrics["trace.overhead_s"] = traced - plain
    metrics["trace.overhead_pct"] = 100.0 * (traced - plain) / plain
    result["samples"] = {"untraced_wall_s": plain_walls, "traced_wall_s": traced_walls}
    return metrics


def record_checks(result, attempted, problems):
    result["attempted"] += attempted
    result["failed"] += len(problems)
    result["problems"].extend(problems)


def run_workload(workload, seed, seconds, trace, spec, reference) -> dict:
    """Measure one workload; the result with its metrics, checks and provenance."""
    loadavg = os.getloadavg()
    out = os.path.join(ROOT, ".bench_out", workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    result = {"workload": workload, "trace": trace, "attempted": 0, "failed": 0, "problems": []}
    # compiles bytecode and warms the file cache; not measured
    versions = spawn(workload, seed, os.path.join(out, "setup"), "setup")
    values = (run_traced if trace else run_plain)(workload, seed, seconds, out, reference, result)
    result["provenance"] = provenance(workload, seed, versions, loadavg)
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    if trace:
        result["all_layer_metrics"] = values
    with open(os.path.join(out, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def report(result, prefix=""):
    print(f"{prefix}provenance: " + json.dumps(result["provenance"]))
    for problem in result["problems"]:
        print(f"{prefix}FAILED {problem}")
    for name, m in result["metrics"].items():
        print(f"{prefix}{name} = {m['value']:.6g} {m['unit']}")
    samples = result["samples"]
    if "raw_wall_s" in samples:
        raw = ", ".join(f"{name[4:]} {statistics.median(samples[name]):.6g} s" for name in ("raw_wall_s", "raw_setup_s"))
        speed = ", ".join(f"{statistics.median(samples[name]):.3f}" for name in ("job_speed", "setup_speed"))
        print(f"{prefix}raw medians: {raw}; host speed (job, set-up): {speed}")
    rate = result["failed"] / result["attempted"]
    print(f"{prefix}error_rate = {rate:.6g} ({result['failed']} of {result['attempted']} checks failed)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like Ctrl-C, so subprocess.run kills and reaps the running job
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "macrospline", "__init__.py")):
        print("benchmark: no src/macrospline here; run from the root of a macrospline checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    reference = checks.load_reference()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for workload in names:
            results.append(run_workload(workload, args.seed, args.seconds, args.trace, spec, reference))
    except JobFailed as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        report(results[0])
        metrics = results[0]["metrics"]
    else:
        for result in results:
            report(result, prefix=f"[{result['workload']}] ")
        metrics = {f"{r['workload']}/{name}": m for r in results for name, m in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    summary = {"correct": failed == 0, "attempted": sum(r["attempted"] for r in results), "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
