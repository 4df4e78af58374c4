"""Runs a workload's jobs through kslide.cli.main, checks them against their
pins and reports the metrics; run.py is the entry point."""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple, Optional

from kslide import cli

import layers
import reference
import workloads
from spans import Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 15
# Prints the set-up time and the mean time of the reference loop around it.
SETUP_CODE = """\
import sys, time
sys.path[:0] = sys.argv[1:3]
import reference
gauge = [reference.seconds() for _ in range(3)]
start = time.perf_counter()
import kslide.cli
kslide.cli.build_parser()
elapsed = time.perf_counter() - start
gauge += [reference.seconds() for _ in range(3)]
print(elapsed, sum(gauge) / len(gauge))
"""


class JobResult(NamedTuple):
    seconds: float
    error: Optional[str]  # repr of the exception the job raised
    wrong: bool  # completed, but exit code or output differs from the pins
    stdout_bytes: int

    @property
    def failed(self) -> bool:
        return self.wrong or self.error is not None


def _file_sha256(path: str) -> Optional[str]:
    try:
        with open(path, "rb") as fh:
            return workloads.sha256(fh.read())
    except FileNotFoundError:
        return None


def run_job(main, job: workloads.Job, workdir: str) -> JobResult:
    out = os.path.join(workdir, "trace.out")
    stdout_path = os.path.join(workdir, "stdout.txt")
    if os.path.exists(out):
        os.remove(out)
    argv = [out if arg == workloads.OUT else arg for arg in job.argv]
    error = code = None
    # Each job stands for one kslide process, which would free everything at
    # exit; collecting here keeps one job's garbage (the checker's memo is a
    # reference cycle) out of the next job's time and memory.
    gc.collect()
    with open(stdout_path, "w", encoding="utf-8") as fh:
        with contextlib.redirect_stdout(fh), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                code = main(argv)
            except Exception as exc:  # counted as a failed job; the run goes on
                # Keep only the repr: the traceback would pin the failed
                # search's frames, and their memory, across passes.
                error = repr(exc)
            seconds = time.perf_counter() - start
    with open(stdout_path, "rb") as fh:
        stdout = fh.read()
    wrong = error is None and (
        code != job.exit_code
        or workloads.sha256(stdout) != job.stdout_sha256
        or (job.trace_sha256 is not None and _file_sha256(out) != job.trace_sha256)
    )
    return JobResult(seconds, error, wrong, len(stdout))


def nominal_seconds(wall_s: float, reference_s: float) -> float:
    """wall_s at the host's nominal speed, given the mean time of the
    reference loop (reference.py) timed beside it."""
    return wall_s * reference.NOMINAL_S / reference_s


def measure_setup(src: str) -> list[float]:
    """Set-up times of fresh interpreters, at the host's nominal speed."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, src, BENCH_DIR],
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(nominal_seconds(*map(float, done.stdout.split())))
    return samples


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def build_jobs(workload: str, seed: int, workdir: str) -> tuple[tuple, dict]:
    """(jobs, facts about the inputs for the report)."""
    if workload == "lincheck":
        return workloads.lincheck_inputs(seed, workdir)
    return workloads.FIXED[workload], {}


def traced_pass(jobs, workdir: str):
    """One pass with spans around every layer; (results, span summary,
    per-layer metrics)."""
    with Tracer() as tracer:
        layers.install(tracer)
        traced_main = tracer.wrap("cli.main", cli.main)
        results = []
        for job in jobs:
            result = run_job(traced_main, job, workdir)
            tracer.counts["cli.stdout_bytes"] += result.stdout_bytes
            tracer.counts["lincheck.ops"] += job.ops
            results.append(result)
    summary = tracer.summary()
    return results, summary, layers.layer_metrics(summary, tracer.counts)


def tally(passes: list[list[JobResult]]) -> tuple[int, int, int]:
    """(jobs attempted, jobs failed, jobs whose output was wrong)."""
    results = [r for results in passes for r in results]
    return len(results), sum(r.failed for r in results), sum(r.wrong for r in results)


def report_failures(passes: list[list[JobResult]], jobs) -> None:
    """One stderr line per job that failed in any pass."""
    for i, job in enumerate(jobs):
        result = next((p[i] for p in passes if p[i].failed), None)
        if result is not None:
            why = result.error[:200] if result.error else "output differs from its pins"
            print(f"job {' '.join(job.argv)} failed: {why}", file=sys.stderr)


def run(workload: str, seed: int, seconds: float, trace: bool, src: str) -> int:
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as workdir:
        setup = measure_setup(src)
        jobs, facts = build_jobs(workload, seed, workdir)
        untraced: list[list[JobResult]] = []
        gauges: list[float] = []  # mean reference loop time beside each pass
        started = time.perf_counter()
        while not untraced or time.perf_counter() - started < seconds:
            results, gauge = [], []
            for job in jobs:
                gauge.append(reference.seconds())
                results.append(run_job(cli.main, job, workdir))
            untraced.append(results)
            gauges.append(statistics.fmean(gauge))
        peak_mem_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        if trace:
            traced, span_summary, per_layer = traced_pass(jobs, workdir)
    passes = untraced + [traced] if trace else untraced

    pass_seconds = [sum(r.seconds for r in results) for results in untraced]
    wall_s = statistics.median(pass_seconds)
    verdict_s = statistics.median(map(nominal_seconds, pass_seconds, gauges))
    setup_s = statistics.median(setup)
    attempted, failed, wrong = tally(passes)
    history_p50 = history_p90 = 0.0
    print(
        f"# workload {workload} seed {seed} python {platform.python_version()} "
        f"nproc {os.cpu_count()} passes {len(untraced)}{' + 1 traced' if trace else ''}"
    )
    for key, value in facts.items():
        print(f"# input {key} {value}")
    report_failures(passes, jobs)
    print(f"verdict_s {verdict_s:.4f} s (median of {len(pass_seconds)} passes at nominal "
          f"host speed; wall time {wall_s:.4f} s, reference loop "
          f"{statistics.median(gauges) * 1e3:.3f} ms against {reference.NOMINAL_S * 1e3:.3f} ms)")
    print(f"setup_s {setup_s:.4f} s (median of {len(setup)} fresh interpreters at nominal "
          "host speed)")
    print(f"peak_mem_mb {peak_mem_mb:.1f} MB (peak RSS after the timed passes)")
    print(f"failed_share {failed / attempted:.4f} "
          f"({failed} of {attempted} jobs, {wrong} wrong outputs)")
    if workload == "lincheck":
        # A failed check counts as slower than any that finished.
        latencies = [
            math.inf if r.failed else r.seconds * 1e3 for results in untraced for r in results
        ]
        history_p50 = percentile(latencies, 0.5)
        history_p90 = percentile(latencies, 0.9)
        print(f"history_p50_ms {history_p50:.3f} ms, history_p90_ms {history_p90:.3f} ms "
              f"({len(latencies)} checks)")

    if trace:
        for name in sorted(span_summary.calls, key=span_summary.self_ns.get, reverse=True):
            print(f"# span {name} calls {span_summary.calls[name]} "
                  f"total_s {span_summary.total_ns[name] / 1e9:.4f} "
                  f"self_s {span_summary.self_ns[name] / 1e9:.4f}")
        metrics = dict(per_layer)
        metrics["trace_overhead_s"] = (sum(r.seconds for r in traced) - wall_s, "s")
        metrics["lincheck.overlap"] = (facts.get("overlap", 0.0), "ratio")
        metrics["history_p50_ms"] = (history_p50, "ms")
        metrics["history_p90_ms"] = (history_p90, "ms")
        for name, (value, unit) in metrics.items():
            print(f"{name} {value} {unit}")
    else:
        metrics = {
            "verdict_s": (verdict_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_mem_mb": (peak_mem_mb, "MB"),
        }
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0
