"""Time-to-verdict benchmark for clusterlab.

Usage, from the root of a checkout:

    python3 bench/run.py --workload mutation-walks --seed 1 --seconds 15 --trace 0

One process runs one workload as a closed loop with one client: each job
starts when the previous one has returned, with no threads. Each workload's
seeded job list takes about PASS_SECONDS at nominal speed (below),
and a run makes ceil(--seconds / PASS_SECONDS) whole passes over it: a fixed
count, however fast the host is at the time, keeps the per-job median run
(below) comparable between runs. Each run of a job starts from program
inputs built afresh just before it and not timed, so no run is helped by
what an earlier one left on its inputs. A job's time runs from its call into
the program to its result; the benchmark's own checks run between jobs and
are not timed. The first time a job runs, its verdict is
checked against an independent reference; on later passes it must repeat
exactly. The digest printed at the end covers the first pass's verdicts.

Times are reported at nominal host speed. On a shared host the speed of a
CPU drifts by a quarter or more over minutes, so the run pins itself to the
fastest allowed CPU and, after every CAL_EVERY_NS of job time, times a fixed
pure-Python loop that does not touch clusterlab. Each job's time is scaled by
NOMINAL_CAL_S over the loop's latest time: the reported milliseconds are what
the job takes when the loop takes NOMINAL_CAL_S. The scale cancels between
commits; the raw and scaled totals are both printed. Speed still flickers
within a second, so a job's time is the median of its runs in the passes;
jobs_per_s, job_p50_ms and job_p90_ms are taken over those times.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
an outside-in trace (see tracing.py) with the tracing overhead. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter, perf_counter_ns

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
PASS_SECONDS = 4
WARMUP_JOBS = 3
NOMINAL_CAL_S = 0.0013  # the calibration loop on an uncontended CPU of the baseline machine
CAL_EVERY_NS = 20_000_000


def load_program():
    """Import clusterlab from this checkout's source tree, never from
    anywhere else on the path."""
    package = SRC / "clusterlab" / "__init__.py"
    if not package.is_file():
        sys.exit(f"bench: no clusterlab source at {package}")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import clusterlab

    if Path(clusterlab.__file__).resolve() != package.resolve():
        sys.exit(f"bench: imported clusterlab from {clusterlab.__file__}")


def _loop() -> float:
    t0 = perf_counter()
    s = 0
    for i in range(20_000):
        s += i * i % 7
    return perf_counter() - t0


def calibrate() -> float:
    """Seconds the fixed loop takes now, best of two."""
    return min(_loop(), _loop())


def pin_to_fastest_cpu() -> tuple[int, dict]:
    """Run on the allowed CPU where the calibration loop runs fastest. On a
    shared host the CPUs can differ in speed by half, and a process that
    migrates between them mixes both speeds into its timings. The benchmark
    has one thread, so pinning changes nothing else."""
    speeds = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        speeds[cpu] = min(calibrate() for _ in range(3))
    best = min(speeds, key=speeds.get)
    os.sched_setaffinity(0, {best})
    return best, speeds


class Runner:
    """Runs jobs one after another and records scaled times, failures and
    the first verdict of each job."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times_ms: dict[str, list[float]] = {}
        self.raw_ns = 0
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.first: dict[str, str] = {}
        self.first_pass: list[tuple[str, str]] = []
        self.scale = NOMINAL_CAL_S / calibrate()
        self._since_calibration = 0

    def run(self, job) -> float:
        """Build the job's inputs afresh, untimed, so that no run sees what
        an earlier run left on them; run the job; return its scaled time in
        ms."""
        tracer = self.tracer
        error = None
        elapsed = 0
        try:
            inputs = job.make()
            if tracer is not None:
                tracer.job, tracer.active = job.key, True
            t0 = perf_counter_ns()
            try:
                result = job.run(inputs)
            finally:
                elapsed = perf_counter_ns() - t0
                if tracer is not None:
                    tracer.active = False
        except Exception as exc:  # any unexpected raise is a failed job
            error = exc
        scaled = elapsed * self.scale / 1e6
        self.attempted += 1
        self.times_ms.setdefault(job.key, []).append(scaled)
        self.raw_ns += elapsed
        self._since_calibration += elapsed
        if self._since_calibration > CAL_EVERY_NS:
            self.scale = NOMINAL_CAL_S / calibrate()
            self._since_calibration = 0
        try:
            if error is not None:
                raise error
            text = job.verdict(result)
            seen = self.first.get(job.key)
            if seen is None:
                self.first_pass.append((job.key, text))
                job.check(text)
                self.first[job.key] = text
            elif seen != text:
                raise AssertionError("verdict differs from the first pass")
        except Exception as exc:  # the reference disagrees, or the verdict is malformed
            self.failures.append((job.key, f"{type(exc).__name__}: {exc}"))
        return scaled

    def run_pass(self, jobs) -> float:
        return sum(self.run(job) for job in jobs)

    def digest(self) -> str:
        h = hashlib.sha256()
        for key, text in self.first_pass:
            h.update(f"{key}\0{text}\0".encode())
        return h.hexdigest()


def set_up(setup, seed: int, workdir: Path):
    """Make the seeded job list and write its input files, then warm up by
    running the first jobs in key order. Repeated; returns the last job list
    and every scaled set-up time in seconds."""
    times = []
    jobs = inputs = None
    for _ in range(SETUP_REPEATS):
        if inputs is not None:  # files left to pile up slow the later writes
            shutil.rmtree(inputs)
        inputs = Path(tempfile.mkdtemp(dir=workdir))
        before = calibrate()
        t0 = perf_counter()
        jobs = setup(random.Random(seed), str(inputs))
        for job in sorted(jobs, key=lambda j: j.key)[:WARMUP_JOBS]:
            job.run(job.make())
        elapsed = perf_counter() - t0
        # scaled by the host's speed averaged over both ends of the set-up
        times.append(elapsed * 2 * NOMINAL_CAL_S / (before + calibrate()))
    return jobs, times


def pass_count(seconds: float) -> int:
    return max(1, math.ceil(seconds / PASS_SECONDS))


def measure(jobs, seconds: float):
    runner = Runner()
    passes = pass_count(seconds)
    for _ in range(passes):
        runner.run_pass(jobs)
    ms = sorted(statistics.median(times) for times in runner.times_ms.values())
    metrics = {
        "jobs_per_s": (1000 * len(ms) / sum(ms), "1/s"),
        "job_p50_ms": (statistics.median(ms), "ms"),
        "job_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
        "ok_ratio": (1 - len(runner.failures) / runner.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return runner, passes, metrics


def traced(jobs, seconds: float, spans_path: Path):
    """Alternate untraced and traced passes, half the passes of an untraced
    run each. Counts and spans come from the first traced pass; self times
    are medians over traced passes, scaled to nominal speed like job times."""
    from tracing import PER_LAYER, Tracer

    tracer = Tracer()
    runner = Runner()
    plain, timed, per_pass = [], [], []
    for _ in range(max(1, pass_count(seconds) // 2)):
        runner.tracer = None
        plain.append(runner.run_pass(jobs))
        runner.tracer = tracer
        tracer.reset()
        tracer.keep_spans = not per_pass
        raw_before = runner.raw_ns
        tracer.install()
        try:
            timed.append(runner.run_pass(jobs))
        finally:
            tracer.uninstall()
        if not per_pass:
            tracer.write_spans(spans_path)
        scale = timed[-1] * 1e6 / (runner.raw_ns - raw_before)
        metrics = tracer.metrics()
        for name in metrics:
            if name.endswith(".self_s"):
                metrics[name] *= scale
        per_pass.append(metrics)
    metrics = dict(per_pass[0])
    for name in metrics:
        if name.endswith(".self_s"):
            metrics[name] = statistics.median(p[name] for p in per_pass)
    metrics["trace.overhead_pct"] = 100 * (statistics.median(timed) / statistics.median(plain) - 1)
    units = {name: unit for name, unit, _ in PER_LAYER}
    return runner, len(timed), {name: (metrics[name], units[name]) for name, _, _ in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    cpu, speeds = pin_to_fastest_cpu()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=out_dir, prefix=f"{args.workload}-"))
    try:
        jobs, setup_times = set_up(WORKLOADS[args.workload], args.seed, workdir)
        # The job list stays alive for the whole run; frozen, the collector
        # no longer rescans it, and only the program's own objects cost it.
        gc.collect()
        gc.freeze()
        if args.trace:
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            runner, passes, metrics = traced(jobs, args.seconds, spans)
        else:
            runner, passes, metrics = measure(jobs, args.seconds)
            metrics = {"setup_s": (statistics.median(setup_times), "s"), **metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(runner.failures)
    loops = ", ".join(f"cpu {c} {1000 * s:.2f} ms" for c, s in speeds.items())
    print(f"pinned to cpu {cpu}; calibration loop: {loops}; nominal {1000 * NOMINAL_CAL_S:.2f} ms")
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs a pass, {passes} passes, "
          f"{runner.attempted} jobs, {failed} failed (fail_ratio {failed / runner.attempted:.4f})")
    scaled_s = sum(map(sum, runner.times_ms.values())) / 1e3
    print(f"  job time {runner.raw_ns / 1e9:.3f} s raw, {scaled_s:.3f} s at nominal speed")
    if not args.trace:
        p90 = metrics["job_p90_ms"][0]
        beyond = sum(statistics.median(t) > p90 for t in runner.times_ms.values())
        print(f"  job_p90_ms from {len(runner.times_ms)} samples (one per job, the median of its "
              f"{passes} runs), {beyond} beyond it")
    for name, (value, unit) in metrics.items():
        print(f"  {name:30s} {value:14.6f} {unit}")
    print(f"  verdict digest {runner.digest()}")
    for key, message in runner.failures[:10]:
        print(f"  FAILED {key}: {message}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
