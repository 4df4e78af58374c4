"""Linearizability checking of concurrent register histories.

A history is a timestamped list of invocation and response events collected
from real threads. The checker searches for a total order of the completed
operations that respects real-time precedence and replays correctly against
the sequential sliding-register semantics. A threaded stress driver that
produces such histories lives here as well.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional

from .register import BOTTOM, LockedSlidingRegister, Value, Window, empty_window, slide


class MalformedHistoryError(ValueError):
    """The event list is structurally broken, independent of linearizability."""


class Event(NamedTuple):
    """One invocation or response boundary.

    kind is "invoke" or "respond"; op is "write" or "read". A write invoke
    carries the written value; a read respond carries the returned window.
    timestamp is a global monotonic order index, not wall-clock time.
    """

    kind: str
    pid: int
    op: str
    timestamp: int
    value: Value = None
    result: Optional[Window] = None


@dataclass
class History:
    k: int
    events: List[Event] = field(default_factory=list)

    def validate(self) -> None:
        """Raise MalformedHistoryError unless events form per-process
        alternating invoke/respond pairs with strictly increasing timestamps.
        Pending invocations at the end of the history are allowed."""
        self.operations()

    def operations(self) -> "list[OpRecord]":
        """Pair events into operation records, ordered by invocation time,
        validating them on the way (see validate)."""
        ops: list[OpRecord] = []
        open_ops: dict[int, int] = {}  # pid -> index of its open operation
        last_ts = None
        for kind, pid, op, ts, value, result in self.events:
            if kind not in ("invoke", "respond"):
                raise MalformedHistoryError(f"unknown event kind {kind!r}")
            if op not in ("write", "read"):
                raise MalformedHistoryError(f"unknown operation {op!r}")
            if last_ts is not None and ts <= last_ts:
                raise MalformedHistoryError(
                    f"timestamps must increase strictly, got {ts} after {last_ts}"
                )
            last_ts = ts
            if kind == "invoke":
                if pid in open_ops:
                    raise MalformedHistoryError(
                        f"process {pid} invoked while an operation is open"
                    )
                if op == "write" and (value is None or value is BOTTOM):
                    raise MalformedHistoryError("write invocation needs a real value")
                open_ops[pid] = len(ops)
                ops.append(OpRecord(pid, op, value, None, ts, None))
            else:
                i = open_ops.pop(pid, None)
                if i is None or ops[i].op != op:
                    raise MalformedHistoryError(
                        f"response without matching invocation for process {pid}"
                    )
                if op == "read" and not isinstance(result, tuple):
                    raise MalformedHistoryError("read response needs a window tuple")
                started = ops[i]
                ops[i] = OpRecord(pid, op, started.value, result, started.invoked, ts)
        return ops


class OpRecord(NamedTuple):
    pid: int
    op: str
    value: Value
    result: Optional[Window]
    invoked: int
    responded: Optional[int]

    @property
    def pending(self) -> bool:
        return self.responded is None


def check_linearizable(history: History) -> Optional[List[OpRecord]]:
    """Witness linearization of a history, or None if there is none.

    Depth-first search over linearization orders (Wing and Gong), run on an
    explicit stack so history length is not bounded by the recursion limit.
    An operation becomes a candidate once every completed operation that
    responded before it was invoked has been placed. Writes replay
    unconditionally; a read is kept only when the sequential register would
    return exactly the recorded window. Visited (placed-set, window) pairs
    are memoized; the window determines the register state because the
    placed-set fixes how many writes happened.

    Completed operations must all be placed. Pending writes at the end of
    the history may or may not have taken effect, so both branches are
    explored; pending reads returned nothing and constrain nothing, so they
    are dropped.

    Placed-sets and predecessor sets are int bitmasks over the operations
    in invocation order. Predecessor sets only grow along that order, so a
    node's candidate scan starts at its lowest unplaced operation and ends
    at the first one still waiting on a predecessor.

    Dead reads are pruned. A completed read whose newest slot is v fits
    only while v is the newest write. When every written value, pending
    writes included, is distinct, v never becomes newest again once a
    write lands on it, so no write is placed while an unplaced read still
    expects the current newest value. A newest slot of BOTTOM means no write
    yet, which holds even when values repeat. The cut subtrees hold no
    linearization and the scan order is unchanged, so the witness is the
    one the unpruned search finds.
    """
    ops = history.operations()
    usable = [o for o in ops if not o.pending or o.op == "write"]
    written = [o.value for o in usable if o.op == "write"]
    expect: dict = {}  # newest slot -> bitmask of the reads that return it
    try:
        distinct = len(set(written)) == len(written)
        for i, o in enumerate(usable):
            if o.op == "read" and o.result and (distinct or o.result[-1] is BOTTOM):
                expect[o.result[-1]] = expect.get(o.result[-1], 0) | 1 << i
    except TypeError:  # an unhashable value: search without pruning
        expect = {}
    n = len(usable)
    done = sorted((o.responded, i) for i, o in enumerate(usable) if not o.pending)
    must = sum(1 << i for _, i in done)
    preds = []
    mask = j = 0
    for o in usable:
        while j < len(done) and done[j][0] < o.invoked:
            mask |= 1 << done[j][1]
            j += 1
        preds.append(mask)

    start = empty_window(history.k)
    if not must:
        return []
    seen = {(0, start)}
    order: list[OpRecord] = []
    # One frame per placed prefix: [placed, window, next index to try].
    stack = [[0, start, 0]]
    while stack:
        frame = stack[-1]
        placed, window, resume = frame
        unplaced = ~placed
        stranding = expect.get(window[-1], 0) & unplaced  # reads a write would kill
        for i in range(resume, n):
            bit = 1 << i
            if placed & bit:
                continue
            if preds[i] & unplaced:
                break
            op = usable[i]
            if op.op == "write":
                if stranding:
                    continue
                after = slide(window, op.value)
            elif window == op.result:
                after = window
            else:
                continue
            now = placed | bit
            if (now, after) in seen:
                continue
            order.append(op)
            if not must & ~now:
                return order
            seen.add((now, after))
            frame[2] = i + 1
            lowest_unplaced = ((now + 1) & ~now).bit_length() - 1
            stack.append([now, after, lowest_unplaced])
            break
        if stack[-1] is frame:  # no child left: backtrack
            stack.pop()
            if order:
                order.pop()
    return None


class _TickCounter:
    """Global monotonic order index shared by the stress threads. The lock
    guards only the increment, never the register operation being timed."""

    def __init__(self) -> None:
        self._n = 0
        self._lock = threading.Lock()

    def tick(self) -> int:
        with self._lock:
            n = self._n
            self._n += 1
            return n


def stress(
    threads: int,
    ops_per_thread: int,
    k: int,
    seed: int = 0,
    register_factory: Callable[[int], object] = LockedSlidingRegister,
) -> History:
    """Drive one shared register from real threads and record the history.

    Each thread runs a seeded half-read half-write operation mix, so the
    per-thread sequences are reproducible even though the interleaving is up
    to the operating system scheduler. Operation i of process pid writes
    i * threads + pid, so written values are distinct across the whole run
    for any operation count, which keeps windows unambiguous for the checker.
    """
    if threads < 2:
        raise ValueError("stress needs at least 2 threads")
    if ops_per_thread < 1:
        raise ValueError("each thread must run at least one operation")
    reg = register_factory(k)
    clock = _TickCounter()
    per_thread: dict[int, list[Event]] = {pid: [] for pid in range(1, threads + 1)}

    def worker(pid: int) -> None:
        rng = random.Random(seed * 1_000_003 + pid)
        out = per_thread[pid]
        for i in range(ops_per_thread):
            if rng.random() < 0.5:
                out.append(Event("invoke", pid, "read", clock.tick()))
                window = reg.read()
                out.append(Event("respond", pid, "read", clock.tick(), result=window))
            else:
                value = i * threads + pid
                out.append(Event("invoke", pid, "write", clock.tick(), value=value))
                reg.write(value)
                out.append(Event("respond", pid, "write", clock.tick()))

    workers = [
        threading.Thread(target=worker, args=(pid,)) for pid in per_thread
    ]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    events = sorted(
        (ev for evs in per_thread.values() for ev in evs), key=lambda e: e.timestamp
    )
    history = History(k, events)
    history.validate()
    return history
