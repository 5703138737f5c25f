"""One benchmark job in a fresh interpreter: set up, run once, report.

    python3 benchmark/job.py --workload W --seed S --out DIR --mode setup|plain|traced

``src`` of the checkout must be on PYTHONPATH.  Set-up ends once
``macrospline`` and ``macrospline.cli`` are imported and the job's CLI
arguments are parsed and validated by the CLI's own parser.  ``setup``
stops there; ``plain`` then runs the job once with tracing off, and
``traced`` once with the tracer installed, writing the trace to
``DIR/trace.json``.  The last line of standard output is one JSON object
with the monotonic clock reading at the end of set-up, the job's wall
time and this process's peak resident memory.

With ``--probe`` the process also samples its own speed while it sets up
(from the import of numpy on) and runs (``SpeedProbe``) and reports both
times scaled to the probe's reference speed as well.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time

import workloads

PROBE_ELEMENTS = 1 << 19  # float64: 4 MiB, larger than one core's L2
PROBE_GATHERS = 4096
PROBE_REPEATS = 40
PROBE_REF_S = 3.5e-4
PROBE_INTERVAL_S = 0.025


class SpeedProbe:
    """How fast this process runs, sampled while it works.

    A shared host runs the same code up to 1.4 times slower for seconds
    to minutes at a time, and code that misses the caches slows most.
    Every ``PROBE_INTERVAL_S`` of wall time a SIGALRM handler times a
    fixed random gather from a 4 MiB table, which takes about
    ``PROBE_REF_S`` on a quiet host.  Over an interval, the mean of
    ``PROBE_REF_S / duration`` is the host's speed relative to that
    reference, and the interval's length without the probes' own time,
    times that speed, is the time the work would take at the reference
    speed.  Of the probes tried, a gather tracked the jobs' slowdown
    best (a pure-Python loop slowed less than the jobs did).  The probe
    touches no state of the job, so outputs do not change; the job must
    keep to one thread, or the probe would count the job's own threads
    as a slow host.  Its table adds ``nbytes`` to the peak memory.
    """

    def __init__(self):
        import numpy as np

        start = time.monotonic()
        self.table = np.arange(PROBE_ELEMENTS, dtype=np.float64)
        self.index = np.arange(PROBE_GATHERS, dtype=np.int64) * 2654435761 % PROBE_ELEMENTS
        self.nbytes = self.table.nbytes + self.index.nbytes
        self.build_s = time.monotonic() - start
        self.samples = []  # (monotonic start, duration)
        self._inside = False

    def sample(self, *_):
        if self._inside:
            return
        self._inside = True
        start = time.monotonic()
        total = 0.0
        for _ in range(PROBE_REPEATS):
            total += self.table[self.index].sum()
        self.samples.append((start, time.monotonic() - start))
        self._inside = False

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def over(self, first, begin, end):
        """Probe time inside ``[begin, end)``, and the mean speed and count of the samples from number ``first`` on."""
        samples = self.samples[first:]
        busy = sum(d for s, d in samples if begin <= s < end)
        return busy, sum(PROBE_REF_S / d for _, d in samples) / len(samples), len(samples)


def run_job(workload, seed, out_dir, cli, experiments):
    """What the CLI does for this workload, writing its outputs into ``out_dir``."""
    if workload == "verify":
        results = experiments.verification_suite(rng_seed=seed)
        payload = {
            "schema": "macrospline-verify/1",
            "passed": all(r.passed for r in results),
            "checks": [r.as_dict() for r in results],
        }
        with open(os.path.join(out_dir, workloads.VERIFY_REPORT), "w") as fh:
            fh.write(json.dumps(payload, indent=1))
        return
    for argv, _ in workloads.cli_invocations(workload, out_dir):
        code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"macrospline {' '.join(argv)} exited with {code}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "plain", "traced"))
    parser.add_argument("--probe", action="store_true", help="sample this process's speed (SpeedProbe)")
    args = parser.parse_args()
    probe = None
    if args.probe:
        probe = SpeedProbe()
        probe.sample()
        probe.start()

    import macrospline
    import macrospline.cli as cli
    from macrospline import experiments

    src = os.path.realpath(os.path.join(os.path.dirname(macrospline.__file__), os.pardir))
    if os.environ.get("PYTHONPATH", "").split(os.pathsep)[0] != src:
        raise SystemExit(f"imported macrospline from {src}, not from the checkout")
    cli_parser = cli.build_parser()
    for argv, _ in workloads.cli_invocations(args.workload, args.out):
        cli_parser.parse_args(argv)
    if probe is not None:
        probe.sample()
    ready = time.monotonic()

    report = {"ready": ready, "macrospline": getattr(macrospline, "__version__", None), "numpy": sys.modules["numpy"].__version__}
    if probe is not None:
        busy, speed, count = probe.over(0, 0.0, ready)
        report.update(setup_probe_s=probe.build_s + busy, setup_speed=speed, setup_probes=count, probe_kib=probe.nbytes / 1024)
    if args.mode != "setup":
        os.makedirs(args.out, exist_ok=True)
        tracer = None
        if args.mode == "traced":
            import tracer as tracing

            tracer = tracing.Tracer(f"{args.workload}/{args.seed}/{os.path.basename(os.path.dirname(args.out))}")
            tracing.install(tracer)
        job = (args.workload, args.seed, args.out, cli, experiments)
        if probe is not None:
            first = len(probe.samples)
            probe.sample()
        start = time.monotonic()
        try:
            if tracer is None:
                run_job(*job)
            else:
                tracer.run("job", run_job, job, {})
        finally:
            end = time.monotonic()
            wall = end - start
            if tracer is not None:
                tracer.uninstall()
        if probe is not None:
            probe.stop()
            probe.sample()
            busy, speed, count = probe.over(first, start, end)
            report.update(job_probe_s=busy, job_speed=speed, job_probes=count, wall_ref_s=(wall - busy) * speed)
        if tracer is not None:
            with open(os.path.join(args.out, "trace.json"), "w") as fh:
                json.dump(tracer.to_json(), fh)
        report["wall_s"] = wall
        report["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    elif probe is not None:
        probe.stop()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
