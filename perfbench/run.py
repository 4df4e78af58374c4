"""Benchmark for kslide: time to a verdict, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0

Each job is one kslide command run in this process through
kslide.cli.main(argv). Its stdout goes to a file and is checked, with its
exit code and any trace file it writes, against the job's pins
(workloads.py). A job fails on a wrong exit code, on output that differs
from its pin, or on an exception; failures are counted and the run goes on.
Everything runs single-threaded in one process.

Workloads (every job short, so that a run times many passes):
  verify    verify --k 4 --n 4, then verify --k 3 --n 3 --crashes: the clean
            capacity claim; sim, register and consensus do the work.
  evict     verify --k 3 --n 4 --output FILE: the same sim layer in the
            failing regime; the cli re-runs every violating schedule and the
            trace layer serializes 1,944 records.
  valence   valence --k 3 --n 4, then the crash-aware k=2 n=3 graph exported
            as JSON: the explorer, sim.apply_exec and register.from_state.
  lincheck  106 histories generated from the seed (histories.py), each
            checked with lincheck file --path. Four of them have 1,000 ops
            and exceed the checker's recursion depth; they count as failed.

End-to-end metrics, untraced (--trace 0):
  verdict_s    median over passes of the wall time of one pass over the
               jobs, scaled to the host's nominal speed by the reference
               loop timed before each job (reference.py); the readable
               line also gives the plain wall time
  setup_s      median over fresh interpreters of the time to import
               kslide.cli and build its parser, scaled the same way
  peak_mem_mb  peak resident set size of this process after the timed
               passes (tracemalloc would slow the passes six- to ninefold)

With --trace 1 the run makes untraced passes, then one traced pass, and
reports the per-layer metrics of layers.py plus trace_overhead_s (traced
pass minus the median wall time of an untraced pass), lincheck.overlap and the per-history check
latency percentiles. Readable lines come first on stdout; the last line is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
WORKLOADS = ("verify", "evict", "valence", "lincheck")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The benchmark measures the kslide sources of the checkout it sits in.
    if not os.path.isfile(os.path.join(SRC, "kslide", "cli.py")):
        print(f"error: no kslide sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import harness

    if not os.path.abspath(harness.cli.__file__).startswith(SRC + os.sep):
        print(f"error: kslide imported from {harness.cli.__file__}", file=sys.stderr)
        return 2
    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace), SRC)


if __name__ == "__main__":
    sys.exit(main())
