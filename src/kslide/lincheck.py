"""Linearizability checking of concurrent register histories.

A history is a timestamped list of invocation and response events. The
checker searches for a total order of the completed operations that
respects real-time precedence and replays correctly against the sequential
sliding-register semantics. A seeded stress driver that produces such
histories, by interleaving the invoke, effect and respond steps of several
processes on one register object, lives here as well.
"""

from __future__ import annotations

import random
from typing import Callable, List, NamedTuple, Optional

from .register import BOTTOM, SlidingRegister, Value, Window, empty_window, slide


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


class History(NamedTuple):
    k: int
    events: List[Event]

    def validate(self) -> None:
        """Raise MalformedHistoryError unless events form per-process
        alternating invoke/respond pairs with strictly increasing timestamps,
        hashable written values and hashable read windows of exactly k
        slots. Pending invocations at the end of the history are allowed."""
        self.operations()

    def operations(self) -> "list[OpRecord]":
        """Pair events into operation records, ordered by invocation time,
        validating them on the way (see validate)."""
        ops: list = []  # OpRecord per operation, None while it is open
        open_ops: dict = {}  # pid -> (index, op, value, invoked) of its open operation
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
                if op == "write" and not _hashable(value):
                    raise MalformedHistoryError(f"written value {value!r} is not hashable")
                open_ops[pid] = (len(ops), op, value, ts)
                ops.append(None)
            else:
                started = open_ops.pop(pid, None)
                if started is None or started[1] != op:
                    raise MalformedHistoryError(
                        f"response without matching invocation for process {pid}"
                    )
                if op == "read" and not isinstance(result, tuple):
                    raise MalformedHistoryError("read response needs a window tuple")
                if op == "read" and not _hashable(result):
                    raise MalformedHistoryError(f"read window {result!r} is not hashable")
                if op == "read" and len(result) != self.k:
                    raise MalformedHistoryError(
                        f"read window {result!r} has {len(result)} slots, expected {self.k}"
                    )
                i, _, invoked_value, invoked = started
                ops[i] = OpRecord(pid, op, invoked_value, result, invoked, ts)
        for pid, (i, op, value, invoked) in open_ops.items():
            ops[i] = OpRecord(pid, op, value, None, invoked, None)
        return ops


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


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
    distinct = len(set(written)) == len(written)
    expect: dict = {}  # newest slot -> bitmask of the reads that return it
    for i, o in enumerate(usable):
        if o.op == "read" and o.result and (distinct or o.result[-1] is BOTTOM):
            expect[o.result[-1]] = expect.get(o.result[-1], 0) | 1 << i
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


def stress(
    threads: int,
    ops_per_thread: int,
    k: int,
    seed: int = 0,
    register_factory: Callable[[int], object] = SlidingRegister,
) -> History:
    """History of seeded interleaved processes driving one shared register.

    Every operation takes three separately scheduled steps: invoke, effect
    (one read() or write() call on the register under test) and respond.
    One RNG seeded with seed picks which live process moves next, so
    operations of different processes overlap, and the same arguments give
    the same history. Each process draws its half-read half-write mix from
    its own RNG. Operation i of process pid writes i * threads + pid, so
    written values are distinct for any operation count, which keeps
    windows unambiguous for the checker.
    """
    if threads < 2:
        raise ValueError("stress needs at least 2 threads")
    if ops_per_thread < 1:
        raise ValueError("each thread must run at least one operation")
    reg = register_factory(k)
    pick = random.Random(seed)
    mixes = {pid: random.Random(seed * 1_000_003 + pid) for pid in range(1, threads + 1)}
    steps = dict.fromkeys(mixes, 0)  # steps each process has taken
    opened: dict[int, Event] = {}  # pid -> its open operation, with a read's window
    live = list(mixes)
    events: list[Event] = []
    while live:
        pid = pick.choice(live)
        i, phase = divmod(steps[pid], 3)
        steps[pid] += 1
        if phase == 0:
            op = "write" if mixes[pid].random() >= 0.5 else "read"
            value = i * threads + pid if op == "write" else None
            opened[pid] = Event("invoke", pid, op, len(events), value)
            events.append(opened[pid])
        elif phase == 1:
            if opened[pid].op == "read":
                opened[pid] = opened[pid]._replace(result=reg.read())
            else:
                reg.write(opened[pid].value)
        else:
            ev = opened.pop(pid)
            events.append(Event("respond", pid, ev.op, len(events), result=ev.result))
            if i == ops_per_thread - 1:
                live.remove(pid)
    history = History(k, events)
    history.validate()
    return history
