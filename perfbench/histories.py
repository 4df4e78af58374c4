"""Seeded concurrent histories of one sliding-window register.

Each logical process runs its operations one at a time, and every operation
takes three separately scheduled steps: invoke, effect and respond. One RNG
picks which process moves next, so operations of different processes
overlap, and the same seed always yields the same histories. Effects are
applied to a plain list of written values rather than to kslide.register, so
the program under test never produces its own expected answers.

Two semantics are modelled: "register" keeps the last k values, as a correct
sliding-window register does, and "window-short" keeps one value too few.
Every register history is linearizable by construction (the effect order is
a witness); every window-short history used by the benchmark carries a read
that is provably stale (see stale_read), so it is not.

Real threads (kslide lincheck stress) are not used: under the interpreter
lock their operations hardly overlap, and their interleavings differ from
run to run.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, NamedTuple, Optional

REGISTER = "register"
WINDOW_SHORT = "window-short"


class Event(NamedTuple):
    """One invoke or respond boundary. An empty window slot is None."""

    kind: str  # "invoke" or "respond"
    pid: int
    op: str  # "read" or "write"
    timestamp: int
    value: Optional[int] = None
    result: Optional[tuple] = None


def generate(
    rng: random.Random,
    width: int,
    ops: int,
    k: int,
    semantics: str,
    values: Iterator[int],
) -> list[Event]:
    """A complete history of `ops` operations by `width` processes.

    Reads and writes are equally likely. Written values are drawn from
    `values`, one counter shared by every history of a workload, so no value
    is ever written twice.
    """
    if width < 1 or ops < 1 or k < 1:
        raise ValueError("width, ops and k must be positive")
    keep = {REGISTER: k, WINDOW_SHORT: k - 1}[semantics]
    written: list[int] = []
    events: list[Event] = []
    # pid -> [op, value, result, effect applied]
    in_flight: dict[int, list] = {}
    issued = 0
    pids = range(1, width + 1)
    while issued < ops or in_flight:
        if issued < ops:
            pid = rng.choice(pids)
        else:
            pid = rng.choice(sorted(in_flight))
        cur = in_flight.get(pid)
        if cur is None:
            if rng.random() < 0.5:
                cur = ["write", next(values), None, False]
            else:
                cur = ["read", None, None, False]
            in_flight[pid] = cur
            issued += 1
            events.append(Event("invoke", pid, cur[0], len(events), value=cur[1]))
        elif not cur[3]:
            if cur[0] == "write":
                written.append(cur[1])
            else:
                tail = tuple(written[-keep:]) if keep else ()
                cur[2] = (None,) * (k - len(tail)) + tail
            cur[3] = True
        else:
            del in_flight[pid]
            events.append(Event("respond", pid, cur[0], len(events), result=cur[2]))
    return events


def overlap(events: list[Event]) -> tuple[int, int]:
    """(operations with a concurrent peer, operations). Two operations are
    concurrent when one is invoked while the other is still open."""
    open_ops: set[int] = set()
    overlapping: set[int] = set()
    started = 0
    current: dict[int, int] = {}
    for ev in events:
        if ev.kind == "invoke":
            op_id = started
            started += 1
            if open_ops:
                overlapping.add(op_id)
                overlapping.update(open_ops)
            open_ops.add(op_id)
            current[ev.pid] = op_id
        else:
            open_ops.discard(current.pop(ev.pid))
    return len(overlapping), started


def stale_read(events: list[Event], k: int) -> bool:
    """True when some read returned an empty slot although at least k writes
    had responded before it was invoked. Every linearization must place
    those writes before the read, so such a history is not linearizable."""
    completed_writes = 0
    # pid -> writes completed when that process invoked its open read
    open_reads: dict[int, int] = {}
    for ev in events:
        if ev.op == "write":
            if ev.kind == "respond":
                completed_writes += 1
        elif ev.kind == "invoke":
            open_reads[ev.pid] = completed_writes
        elif open_reads.pop(ev.pid) >= k and None in ev.result:
            return True
    return False


class HistorySpec(NamedTuple):
    width: int
    ops: int
    k: int
    semantics: str


# Every (width, length, k) cell with width * length <= MAX_WIDTH_X_OPS appears
# COPIES times, so the mix of shapes is the same for every seed and only the
# interleavings and op choices vary. Search cost climbs steeply with width,
# so wide histories are kept shorter; otherwise the few widest, longest
# histories would set most of a pass's time and its spread across seeds.
WIDTHS = range(2, 9)
LENGTHS = (100, 200, 300, 400)
KS = (2, 3)
MAX_WIDTH_X_OPS = 1200
COPIES = 3
# Two-process histories long enough to exceed the checker's recursion depth.
DEEP = HistorySpec(2, 1000, 2, REGISTER)
DEEP_COUNT = 4


def workload_specs() -> list[HistorySpec]:
    """The lincheck workload's history shapes; one in five is window-short."""
    cells = [
        (w, n, k)
        for w, n, k in itertools.product(WIDTHS, LENGTHS, KS)
        if w * n <= MAX_WIDTH_X_OPS
    ]
    specs = [
        HistorySpec(w, n, k, WINDOW_SHORT if i % 5 == 4 else REGISTER)
        for i, (w, n, k) in enumerate(cells * COPIES)
    ]
    return specs + [DEEP] * DEEP_COUNT


def workload_histories(seed: int) -> Iterator[tuple[HistorySpec, list[Event]]]:
    """The lincheck workload's histories for one seed, under one RNG."""
    rng = random.Random(seed)
    values = itertools.count(1)
    for spec in workload_specs():
        events = generate(rng, spec.width, spec.ops, spec.k, spec.semantics, values)
        if spec.semantics == WINDOW_SHORT and not stale_read(events, spec.k):
            raise RuntimeError(f"window-short history without a stale read: {spec}")
        yield spec, events
