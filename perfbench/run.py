"""Benchmark for frameforms: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload cartan --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports frameforms from its
`src/`.  One process, no threads: a closed loop with one caller runs a
fixed, seeded list of jobs back to back, in whole rounds, until
--seconds have passed (and at least MIN_JOBS jobs ran).  Every output
is checked; the clock is stopped while that happens.

--trace 0 prints the end-to-end metrics: jobs_per_s, job_p50_ms,
job_p75_ms, setup_s and peak_rss_mb.  --trace 1 runs one round plain
and one round with every layer wrapped (perfbench/tracing.py) and
prints the per-layer metrics of the wrapped round.  Times are scaled
to a reference host speed (perfbench/hostclock.py).  Details go to
perfbench/out/.  The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

from checkers import CheckError  # noqa: E402
from hostclock import Meter  # noqa: E402
from jobs import WORKLOADS, make_jobs  # noqa: E402
from tracing import Tracer  # noqa: E402

SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 3  # setup_s is the median of this many set-ups
MIN_JOBS = 45  # so at least ten timed jobs lie beyond the 75th percentile
PAUSE_S = 0.05  # a check longer than this gets a fresh calibration after it


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program():
    """A fresh import of frameforms from this checkout's src/."""
    for name in [n for n in sys.modules if n == "frameforms" or n.startswith("frameforms.")]:
        del sys.modules[name]
    ff = importlib.import_module("frameforms")
    if Path(ff.__file__).resolve().parent != SRC / "frameforms":
        raise RuntimeError(f"frameforms was imported from {ff.__file__}, not from {SRC}")
    return ff, importlib.import_module("frameforms.cli")


class Verifier:
    """Full check of each job's first output, fingerprint match for the rest."""

    def __init__(self):
        self.fingerprints = {}

    def __call__(self, job, out):
        fp = job.fingerprint(out)
        if job.name not in self.fingerprints:
            job.check(out)
            self.fingerprints[job.name] = fp
        elif fp != self.fingerprints[job.name]:
            raise CheckError(f"{job.name}: output differs from its checked first output")


def setup(workload, seed, verify):
    """Import, inputs, the ideal file and one warm-up job of every kind.

    Returns the jobs and the scaled set-up seconds.
    """
    meter = Meter()
    (ff, cli), _, total = meter.measure(_import_program)
    jobs, _, scaled = meter.measure(lambda: make_jobs(workload, ff, cli, random.Random(f"{workload}:{seed}"), OUT))
    total += scaled
    seen = set()
    for job in jobs:
        if job.kind in seen:
            continue
        seen.add(job.kind)
        out, _, scaled = meter.measure(job.run)
        total += scaled
        verify(job, out)
        meter.resume()
    return jobs, total


def run_round(jobs, verify, meter, tracer=None):
    """One pass over the job list; returns [(job name, scaled seconds)].

    With a tracer, the layers are traced while each job runs, and a
    calibration follows every check so that counts repeat exactly.
    """
    done = []
    for job in jobs:
        out, raw, scaled = meter.measure(job.run if tracer is None else tracer.around(job.run))
        done.append((job.name, scaled))
        if tracer is not None:
            tracer.close_job(job.name, scaled / raw if raw else 1.0)
        t0 = time.perf_counter()
        verify(job, out)
        if tracer is not None or time.perf_counter() - t0 > PAUSE_S:
            meter.resume()
    return done


def timed_phase(jobs, verify, seconds):
    """Whole rounds until `seconds` have passed and MIN_JOBS jobs ran."""
    meter = Meter()
    times = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(times) < MIN_JOBS:
        times.extend(run_round(jobs, verify, meter))
    return times


def traced_phase(jobs, verify):
    """One plain round, then one round with every layer wrapped."""
    plain = run_round(jobs, verify, Meter())
    tracer = Tracer()
    tracer.install()
    try:
        gc.collect()
        traced = run_round(jobs, verify, Meter(), tracer)
    finally:
        tracer.uninstall()
    return plain, traced, tracer


def main(argv=None):
    args = _parse_args(argv)
    try:
        return _run(args)
    except CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


def _run(args):
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if not (SRC / "frameforms" / "__init__.py").is_file():
        print(f"no frameforms source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    verify = Verifier()
    tag = f"{args.workload}-seed{args.seed}"

    if args.trace:
        jobs, _ = setup(args.workload, args.seed, verify)
        plain, traced, tracer = traced_phase(jobs, verify)
        plain_s = sum(s for _, s in plain)
        traced_s = sum(s for _, s in traced)
        result_metrics = tracer.metrics()
        detail = {
            "workload": args.workload, "seed": args.seed,
            "plain_round_s": plain_s, "traced_round_s": traced_s,
            "tracing_overhead": traced_s / plain_s - 1.0,
            "metrics": result_metrics, "per_job": tracer.per_job,
        }
        (OUT / f"trace-{tag}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
        print(f"tracing overhead {detail['tracing_overhead']:.1%} "
              f"({traced_s:.3f} s traced vs {plain_s:.3f} s plain, reference seconds)", file=sys.stderr)
        attempted = len(plain) + len(traced)
    else:
        setups = []
        for _ in range(SETUP_REPEATS):
            jobs, setup_s = setup(args.workload, args.seed, verify)
            setups.append(setup_s)
        gc.collect()
        times = timed_phase(jobs, verify, args.seconds)
        ms = [s * 1000.0 for _, s in times]
        _, p50, p75 = statistics.quantiles(ms, n=4, method="inclusive")
        result_metrics = {
            "jobs_per_s": {"value": len(ms) / (sum(ms) / 1000.0), "unit": "1/s"},
            "job_p50_ms": {"value": p50, "unit": "ms"},
            "job_p75_ms": {"value": p75, "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
        detail = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "jobs": [job.name for job in jobs], "rounds": len(times) // len(jobs),
            "setups_s": setups, "job_seconds": times, "metrics": result_metrics,
        }
        (OUT / f"run-{tag}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
        attempted = len(times)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
