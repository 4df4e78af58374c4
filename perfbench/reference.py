"""A fixed loop of pure-Python work that gauges how fast the host runs now.

The benchmark's host is shared, and its speed swings by half within seconds
as other work on it comes and goes. The harness times this loop beside
every job and reports times scaled to the host's nominal speed
(harness.nominal_seconds). The loop does the kind of work kslide does
(calls, tuples, a dict, a sort) but uses nothing from kslide, so a change
to kslide never changes it.
"""

from __future__ import annotations

import time

STEPS = 10_000
# The loop's time on the reference host, a 2-vCPU Intel Xeon with Python
# 3.11.7, when nothing else runs on its core.
NOMINAL_S = 0.0024


def seconds() -> float:
    """Wall time of one run of the loop."""
    start = time.perf_counter()
    counts: dict = {}
    state = (0, 1, 2)
    for i in range(STEPS):
        state = (state[1], state[2], (state[0] + i) % 11)
        counts[state] = counts.get(state, 0) + len(state)
    sorted(counts.items())
    return time.perf_counter() - start
