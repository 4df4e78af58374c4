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
    responded: Optional[int]  # None while the operation is pending


def _table(history: History) -> tuple:
    """(ops, cnt, resp) from one validating pass over the events: OpRecords in
    invocation order, the number of responses seen before each invoke, and the
    completed operations' indices in response order, so operation j responded
    before i was invoked iff j is in resp[:cnt[i]]. Raises MalformedHistoryError
    unless events form per-process invoke and respond pairs (invokes may pend)
    with strictly increasing timestamps, hashable written values and hashable
    read windows of k slots."""
    ops: list = []  # OpRecord per operation, None while it is open
    cnt: list = []
    resp: list = []
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
            cnt.append(len(resp))
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
            resp.append(i)
    for pid, (i, op, value, invoked) in open_ops.items():
        ops[i] = tuple.__new__(OpRecord, (pid, op, value, None, invoked, None))
    return ops, cnt, resp


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
    sort: the operations in invocation order, for each the count of responses
    seen before its invoke, and the completed operations in response order.
    A node holds its frontier f (the lowest unplaced operation), its placed-set
    as a bitmask relative to f, and g, the number of leading responders in
    response order that are placed. Operation i waits on a predecessor iff
    cnt[i] > g, and every completed operation is placed iff g counts them all.
    Counts only grow along the invocation order, so a node's candidate scan
    starts at f and ends at the first waiting operation. The mask spans only
    operations invoked before the one at f responded, so it grows with the
    history only behind a pending write that never takes effect. Pending
    writes may or may not have taken effect, so both branches are explored;
    pending reads constrain nothing, so the frontier passes them as if placed
    and they never enter a witness.

    Dead reads are pruned. A completed read whose newest slot is v fits only
    while v is the newest write. With distinct written values (pending writes
    included), v never becomes newest again once a write lands on it, so no
    write is placed while an unplaced read still expects the newest value. A
    node counts those reads: all are unplaced when v is written, and every
    read placed before the next write is one of them. A newest slot of BOTTOM
    means no write yet, even when values repeat. The cut subtrees hold no
    linearization and the scan order is unchanged, so the witness is the one
    the unpruned search finds.
    """
    ops, cnt, resp = _table(history)
    if not resp:
        return []
    written, need, pending_reads = [], {}, set()  # need: newest slot -> reads returning it
    for i, (_, op, value, result, _, _) in enumerate(ops):
        if op == "write":
            written.append(value)
        elif result:
            need[result[-1]] = need.get(result[-1], 0) + 1
        else:
            pending_reads.add(i)  # the frontier passes these as if placed
    if len(set(written)) != len(written):  # a value can be newest twice: keep only BOTTOM
        need = {BOTTOM: need[BOTTOM]} if BOTTOM in need else {}
    n, last, start = len(ops), len(resp), empty_window(history.k)
    resp.append(n)  # sentinel: never placed
    f = next(i for i in range(n) if i not in pending_reads)
    seen = {(f, 0, start)}
    order: list[OpRecord] = []
    # One frame per placed prefix: [f, placed mask from f, window, next index to
    # try, g, completed reads of the newest value still unplaced].
    stack = [[f, 0, start, f, 0, need.get(BOTTOM, 0)]]
    while stack:
        frame = stack[-1]
        f, placed, window, resume, g, left = frame
        for i in range(resume, n):
            bit = 1 << i - f
            if placed & bit:
                continue
            if cnt[i] > g:
                break
            _, op, value, result, _, _ = record = ops[i]
            if op == "write":
                if left:  # a write would kill an unplaced read
                    continue
                after, count = slide(window, value), need.get(value, 0)
            elif window == result:  # a pending read's None never matches
                after, count = window, left and left - 1  # 0 stays 0 when values repeat
            else:
                continue
            now, lead, front = placed | bit, g, f
            if resp[g] == i:
                lead += 1
                while resp[lead] < f or now >> resp[lead] - f & 1:
                    lead += 1
                if lead == last:
                    order.append(record)
                    return order
            while now & 1 or front in pending_reads:  # move the frontier past placed operations
                now >>= 1
                front += 1
            key = (front, now, after)
            if key in seen:
                continue
            order.append(record)
            seen.add(key)
            frame[3] = i + 1
            stack.append([front, now, after, front, lead, count])
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
    windows unambiguous for the checker. The history is not validated here:
    check_linearizable validates it before searching.
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
    return History(k, events)
