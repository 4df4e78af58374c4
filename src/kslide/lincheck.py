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
        """Raise MalformedHistoryError unless events form per-process invoke and
        respond pairs with strictly increasing timestamps, hashable written
        values and hashable read windows of k slots; pending invokes are fine."""
        _table(self)

    def operations(self) -> "list[OpRecord]":
        """Pair events into operation records, ordered by invocation time,
        validating them on the way (see validate)."""
        return _table(self)[0]


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


def _table(history: History) -> tuple:
    """(ops, preds, done) from one validating pass over the events (see
    History.validate): OpRecords in invocation order, and as bitmasks over
    them, the operations that responded before each invoke and all that did.
    Timestamps increase strictly, so preds[i] is the mask of responses seen."""
    ops: list = []  # OpRecord per operation, None while it is open
    preds: list = []
    done = 0
    open_ops: dict = {}  # pid -> (index, op, value, invoked) of its open operation
    last_ts = None
    for kind, pid, op, ts, value, result in history.events:
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
                raise MalformedHistoryError(f"process {pid} invoked while an operation is open")
            if op == "write" and (value is None or value is BOTTOM):
                raise MalformedHistoryError("write invocation needs a real value")
            if op == "write" and not _hashable(value):
                raise MalformedHistoryError(f"written value {value!r} is not hashable")
            open_ops[pid] = (len(ops), op, value, ts)
            ops.append(None)
            preds.append(done)
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
            if op == "read" and len(result) != history.k:
                raise MalformedHistoryError(
                    f"read window {result!r} has {len(result)} slots, expected {history.k}"
                )
            i, _, invoked_value, invoked = started
            ops[i] = tuple.__new__(OpRecord, (pid, op, invoked_value, result, invoked, ts))
            done |= 1 << i
    for pid, (i, op, value, invoked) in open_ops.items():
        ops[i] = tuple.__new__(OpRecord, (pid, op, value, None, invoked, None))
    return ops, preds, done


def check_linearizable(history: History) -> Optional[List[OpRecord]]:
    """Witness linearization of a history, or None if there is none.

    Depth-first search over linearization orders (Wing and Gong), on an
    explicit stack, so history length is not bounded by the recursion limit. An
    operation becomes a candidate once every completed operation that responded
    before it was invoked has been placed. Writes replay unconditionally; a
    read is kept only when the sequential register would return exactly the
    recorded window. Visited (placed-set, window) pairs are memoized; the
    placed-set fixes the write count, so the window fixes the state.

    One validating pass over the events (_table) builds the table, with no
    sort: the operations in invocation order, and for each the operations that
    had responded when it was invoked. Placed-sets and these predecessor sets
    are int bitmasks over that order. Predecessor sets only grow along it, so a
    node's candidate scan starts at its lowest unplaced operation and ends at
    the first one still waiting on a predecessor. Completed operations must all
    be placed. Pending writes may or may not have taken effect, so both
    branches are explored; pending reads constrain nothing, so they start out
    placed and never enter a witness.

    Dead reads are pruned. A completed read whose newest slot is v fits only
    while v is the newest write. With distinct written values (pending writes
    included), v never becomes newest again once a write lands on it, so no
    write is placed while an unplaced read still expects the newest value. A
    newest slot of BOTTOM means no write yet, even when values repeat. The cut
    subtrees hold no linearization and the scan order is unchanged, so the
    witness is the one the unpruned search finds.
    """
    ops, preds, must = _table(history)
    root, written = 0, []  # root: the pending reads, placed from the start
    expect: dict = {}  # newest slot -> bitmask of the reads that return it
    for i, (_, op, value, result, _, _) in enumerate(ops):
        if op == "write":
            written.append(value)
        elif result is None:
            root |= 1 << i
        elif result:
            expect[result[-1]] = expect.get(result[-1], 0) | 1 << i
    if len(set(written)) != len(written):  # a value can be newest twice: keep only BOTTOM
        expect = {BOTTOM: expect[BOTTOM]} if BOTTOM in expect else {}
    start = empty_window(history.k)
    if not must:
        return []
    seen = {(root, start)}
    order: list[OpRecord] = []
    # One frame per placed prefix: [placed, window, next index to try].
    stack = [[root, start, 0]]
    while stack:
        frame = stack[-1]
        placed, window, resume = frame
        unplaced = ~placed
        stranding = expect.get(window[-1], 0) & unplaced  # reads a write would kill
        for i in range(resume, len(ops)):
            bit = 1 << i
            if placed & bit:
                continue
            if preds[i] & unplaced:
                break
            _, op, value, result, _, _ = record = ops[i]
            if op == "write":
                if stranding:
                    continue
                after = slide(window, value)
            elif window == result:
                after = window
            else:
                continue
            now = placed | bit
            if (now, after) in seen:
                continue
            order.append(record)
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
