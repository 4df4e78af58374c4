import hashlib
import itertools
import random
import sys
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kslide.lincheck import (
    Event,
    History,
    MalformedHistoryError,
    OpRecord,
    _table,
    check_linearizable,
    stress,
)
from kslide.register import BOTTOM, SlidingRegister, WindowShortRegister
from histories import overlap
from oracles import FullSequenceRegister, _pair_events, brute_force_linearizable, padded_last_k


def ev(kind, pid, op, ts, value=None, result=None):
    return Event(kind, pid, op, ts, value=value, result=result)


def completed_write(pid, value, t0, t1):
    return [ev("invoke", pid, "write", t0, value=value), ev("respond", pid, "write", t1)]


def completed_read(pid, window, t0, t1):
    return [ev("invoke", pid, "read", t0), ev("respond", pid, "read", t1, result=window)]


# ---------------------------------------------------------------- structure


def test_validate_accepts_a_clean_history():
    events = completed_write(1, 5, 0, 1) + completed_read(2, (5,), 2, 3)
    _table(History(1, events))


def test_validate_allows_pending_tail():
    events = completed_write(1, 5, 0, 1) + [ev("invoke", 2, "write", 2, value=6)]
    _table(History(1, events))


BROKEN_HISTORIES = [
    # respond with no invocation
    ([ev("respond", 1, "write", 0)], "response without matching invocation for process 1"),
    # double invoke without response
    (
        [ev("invoke", 1, "write", 0, value=1), ev("invoke", 1, "read", 1)],
        "process 1 invoked while an operation is open",
    ),
    # response kind mismatch
    (
        [ev("invoke", 1, "write", 0, value=1), ev("respond", 1, "read", 1, result=(1,))],
        "response without matching invocation for process 1",
    ),
    # timestamps must increase strictly
    (
        [ev("invoke", 1, "write", 1, value=1), ev("respond", 1, "write", 1)],
        "timestamps must increase strictly, got 1 after 1",
    ),
    # write invocation without a value
    ([ev("invoke", 1, "write", 0)], "write invocation needs a real value"),
    # write invocation of the reserved marker
    ([ev("invoke", 1, "write", 0, value=BOTTOM)], "write invocation needs a real value"),
    # read response without a window
    (
        [ev("invoke", 1, "read", 0), ev("respond", 1, "read", 1)],
        "read response needs a window tuple",
    ),
    # unknown event kind
    ([Event("begin", 1, "write", 0, value=1)], "unknown event kind 'begin'"),
    # unknown operation
    ([Event("invoke", 1, "swap", 0, value=1)], "unknown operation 'swap'"),
]


@pytest.mark.parametrize(
    "events,message",
    BROKEN_HISTORIES,
    ids=[f"events{i}" for i in range(len(BROKEN_HISTORIES))],
)
def test_validate_rejects_broken_histories(events, message):
    # the checker validates in its own pass and must raise the same error
    for check in (_table, check_linearizable):
        with pytest.raises(MalformedHistoryError) as raised:
            check(History(1, events))
        assert str(raised.value) == message


def test_operations_pairs_events():
    events = sorted(
        completed_write(1, 5, 0, 3)
        + completed_read(2, (BOTTOM,), 1, 2)
        + [ev("invoke", 3, "write", 4, value=7)],
        key=lambda e: e.timestamp,
    )
    ops = _table(History(1, events))[0]
    assert [(o.pid, o.op, o.responded is None) for o in ops] == [
        (1, "write", False),
        (2, "read", False),
        (3, "write", True),
    ]
    assert ops[1].result == (BOTTOM,)


def test_pending_operations_keep_their_invocation_slot():
    # p1's write and p3's read never respond; records stay in invocation order
    events = [
        ev("invoke", 1, "write", 0, value=7),
        ev("invoke", 2, "write", 1, value=5),
        ev("invoke", 3, "read", 2),
        ev("respond", 2, "write", 3),
        ev("invoke", 2, "read", 4),
        ev("respond", 2, "read", 5, result=(5,)),
    ]
    assert _table(History(1, events))[0] == [
        OpRecord(1, "write", 7, None, 0, None),
        OpRecord(2, "write", 5, None, 1, 3),
        OpRecord(3, "read", None, None, 2, None),
        OpRecord(2, "read", None, (5,), 4, 5),
    ]


# ---------------------------------------------------------------- checking


def test_sequential_history_is_linearizable():
    events = completed_write(1, 5, 0, 1) + completed_read(1, (5,), 2, 3)
    witness = check_linearizable(History(1, events))
    assert witness is not None
    assert [(o.pid, o.op) for o in witness] == [(1, "write"), (1, "read")]


def test_overlapping_read_can_land_after_the_write():
    events = [
        ev("invoke", 1, "write", 0, value=1),
        ev("invoke", 2, "read", 1),
        ev("respond", 2, "read", 2, result=(1,)),
        ev("respond", 1, "write", 3),
    ]
    assert check_linearizable(History(1, events)) is not None


def test_read_of_a_never_written_value_fails():
    events = completed_write(1, 1, 0, 1) + completed_read(2, (2,), 2, 3)
    assert check_linearizable(History(1, events)) is None


def test_real_time_order_is_respected():
    # the write finished before the read started, so the read must see it
    events = completed_write(1, 1, 0, 1) + completed_read(2, (BOTTOM,), 2, 3)
    assert check_linearizable(History(1, events)) is None


def test_window_short_behavior_is_rejected():
    # two completed writes, then a read missing the oldest slot
    events = (
        completed_write(1, 1, 0, 1)
        + completed_write(1, 2, 2, 3)
        + completed_read(2, (BOTTOM, 2), 4, 5)
    )
    assert check_linearizable(History(2, events)) is None
    good = completed_write(1, 1, 0, 1) + completed_write(1, 2, 2, 3) + completed_read(
        2, (1, 2), 4, 5
    )
    assert check_linearizable(History(2, good)) is not None


def test_pending_write_may_take_effect():
    events = [
        ev("invoke", 1, "write", 0, value=5),  # never responds
        *completed_read(2, (BOTTOM, 5), 1, 2),
    ]
    assert check_linearizable(History(2, events)) is not None


def test_pending_write_may_also_never_happen():
    events = [
        ev("invoke", 1, "write", 0, value=5),
        *completed_read(2, (BOTTOM, BOTTOM), 1, 2),
    ]
    assert check_linearizable(History(2, events)) is not None


def test_pending_read_never_blocks():
    events = completed_write(1, 5, 0, 1) + [ev("invoke", 2, "read", 2)]
    witness = check_linearizable(History(1, events))
    assert witness is not None
    assert all(o.responded is not None or o.op == "write" for o in witness)


def test_memo_tells_windows_apart_by_their_oldest_slot():
    # Three overlapping writes took effect as 2, 1, 3. The search first
    # places them as 1, 2, 3 and reaches the same placed-set with window
    # (2, 3); only the order ending in window (1, 3) explains the read.
    events = [
        ev("invoke", 1, "write", 0, value=1),
        ev("invoke", 2, "write", 1, value=2),
        ev("invoke", 3, "write", 2, value=3),
        ev("respond", 1, "write", 3),
        ev("respond", 2, "write", 4),
        ev("respond", 3, "write", 5),
        *completed_read(1, (1, 3), 6, 7),
    ]
    witness = check_linearizable(History(2, events))
    assert [o.value for o in witness[:3]] == [2, 1, 3]


def test_witness_replays_against_the_sequential_register():
    history = stress(4, 5, 2, seed=11)
    witness = check_linearizable(history)
    assert witness is not None
    reg = SlidingRegister(2)
    for op in witness:
        if op.op == "write":
            reg.write(op.value)
        else:
            assert reg.read() == op.result


def test_malformed_history_raises_not_returns():
    with pytest.raises(MalformedHistoryError):
        check_linearizable(History(1, [ev("respond", 1, "write", 0)]))


def random_history(pick, number, fresh=False, halting=False):
    """(k, events) of at most 7 operations by up to 3 processes.

    Each operation takes three separately chosen steps: invoke, an effect on
    a plain list of written values, and respond. The run may stop before
    every step is taken, which leaves pending operations at the tails, and
    a completed read may report a corrupted window. Written values are all
    distinct when fresh is set; otherwise they come from a small pool, so
    they can repeat. With halting, one drawn process stops for good in the
    middle of an operation once it has taken a drawn number of steps, and
    the others carry on, which leaves that operation pending mid-history.
    pick(options) and number(lo, hi) make every choice."""
    k = number(1, 3)
    size = number(1, 7)
    todo = {}
    for _ in range(size):
        todo.setdefault(number(1, 3), []).append(pick(("read", "write")))
    steps = 3 * size - number(0, 3)  # cut short: pending tails
    halter, halt_after = (number(1, 3), number(1, 6)) if halting else (None, None)
    fresh_values = itertools.count(1)
    written, events, phase, carried = [], [], {}, {}
    clock = taken = 0
    for _ in range(steps):
        if not todo:
            break
        pid = pick(sorted(todo))
        op = todo[pid][0]
        step = phase.get(pid, 0)
        if step == 0:
            if op == "read":
                carried[pid] = None
            else:
                carried[pid] = next(fresh_values) if fresh else number(1, 4)
            events.append(ev("invoke", pid, op, clock, value=carried[pid]))
            clock += 1
        elif step == 1:
            if op == "write":
                written.append(carried[pid])
            else:
                carried[pid] = padded_last_k(written, k)
        else:
            result = None
            if op == "read":
                result = carried[pid]
                if number(0, 3) == 0:
                    result = tuple(pick((BOTTOM, 1, 2, 3, 4)) for _ in range(k))
            events.append(ev("respond", pid, op, clock, result=result))
            clock += 1
            todo[pid].pop(0)
            if not todo[pid]:
                del todo[pid]
        phase[pid] = (step + 1) % 3
        if pid == halter:
            taken += 1
            if taken >= halt_after and phase[pid]:
                del todo[pid]  # stops inside its open operation
    return k, events


@st.composite
def small_histories(draw, fresh=False, halting=False):
    return random_history(
        lambda options: draw(st.sampled_from(options)),
        lambda lo, hi: draw(st.integers(lo, hi)),
        fresh,
        halting,
    )


def seeded_histories(count, seed, halting=False):
    """count random_history cases from one seed, every other one with
    fresh written values."""
    rng = random.Random(seed)
    return [
        random_history(rng.choice, rng.randint, fresh=i % 2 == 0, halting=halting)
        for i in range(count)
    ]


def assert_witness(history, witness):
    """The witness replays on the oracle register, places every completed
    operation once, and keeps real-time order."""
    reg = FullSequenceRegister(history.k)
    for op in witness:
        if op.op == "write":
            reg.write(op.value)
        else:
            assert reg.read() == op.result
    placed = Counter(witness)
    assert all(placed[o] == 1 for o in _table(history)[0] if o.responded is not None)
    latest_invoked = -1
    for op in witness:
        assert op.responded is None or op.responded > latest_invoked
        latest_invoked = max(latest_invoked, op.invoked)


@settings(deadline=None, max_examples=300)
@given(small_histories())
def test_checker_agrees_with_brute_force_oracle(case):
    k, events = case
    witness = check_linearizable(History(k, events))
    assert (witness is not None) == brute_force_linearizable(k, events)


@settings(deadline=None, max_examples=300)
@given(small_histories())
def test_every_witness_replays_on_the_oracle_register(case):
    history = History(*case)
    witness = check_linearizable(history)
    if witness is not None:
        assert_witness(history, witness)


@settings(deadline=None, max_examples=300)
@given(small_histories(fresh=True))
def test_fresh_value_histories_agree_with_the_oracle(case):
    # every written value is distinct, so the checker prunes dead reads
    k, events = case
    history = History(k, events)
    witness = check_linearizable(history)
    assert (witness is not None) == brute_force_linearizable(k, events)
    if witness is not None:
        assert_witness(history, witness)


@settings(deadline=None, max_examples=300)
@given(st.one_of(small_histories(), small_histories(halting=True)), st.data())
def test_table_counts_are_real_time_order(case, data):
    # The pass reads response counts and the response order off the event
    # order; by definition, j precedes i iff j responded before i was invoked.
    history = History(*case)
    ops, cnt, resp = _table(history)
    assert [(o.op, o.value, o.result, o.invoked, o.responded) for o in ops] == [
        tuple(o) for o in _pair_events(history.events)
    ]
    done = [j for j, o in enumerate(ops) if o.responded is not None]
    assert cnt == [sum(ops[j].responded < o.invoked for j in done) for o in ops]
    assert resp == sorted(done, key=lambda j: ops[j].responded)
    # The search takes i to wait iff cnt[i] > g, where g counts the leading
    # responders in resp that are placed.
    for _ in range(3):
        placed = data.draw(st.sets(st.integers(0, len(ops))))
        g = 0
        while g < len(resp) and resp[g] in placed:
            g += 1
        for i, o in enumerate(ops):
            waits = any(ops[j].responded < o.invoked for j in done if j not in placed)
            assert (cnt[i] > g) == waits


def test_rewritten_value_keeps_a_history_linearizable():
    # The read of (1,) fits only after the second write of 1. Pruning the
    # write of 2 because a read still expects 1 would reject the history.
    events = (
        completed_write(1, 1, 0, 1)
        + completed_write(1, 2, 2, 3)
        + completed_write(1, 1, 4, 5)
        + completed_read(2, (1,), 6, 7)
    )
    witness = check_linearizable(History(1, events))
    assert [o.value for o in witness] == [1, 2, 1, None]


def test_read_of_nothing_goes_before_every_write():
    # values repeat, and still no write can land before a read of BOTTOM
    events = [
        ev("invoke", 1, "write", 0, value=1),
        ev("invoke", 2, "write", 1, value=1),
        ev("invoke", 3, "read", 2),
        ev("respond", 3, "read", 3, result=(BOTTOM, BOTTOM)),
        ev("respond", 1, "write", 4),
        ev("respond", 2, "write", 5),
    ]
    witness = check_linearizable(History(2, events))
    assert [(o.pid, o.op) for o in witness] == [(3, "read"), (1, "write"), (2, "write")]


def test_unhashable_value_that_is_never_placed_does_not_crash():
    # a history file can hold a list as a written value; even when the
    # pending write is never needed, the history is malformed, not a crash
    events = completed_read(1, (BOTTOM,), 0, 1) + [ev("invoke", 2, "write", 2, value=[1])]
    with pytest.raises(MalformedHistoryError, match=r"written value \[1\] is not hashable"):
        check_linearizable(History(1, events))


def test_unhashable_read_window_is_malformed():
    events = completed_read(1, (BOTTOM, [1]), 0, 1)
    with pytest.raises(MalformedHistoryError, match="read window .* is not hashable"):
        _table(History(2, events))


@pytest.mark.parametrize(
    "window", [(5,), (BOTTOM, BOTTOM, 5)], ids=["too-short", "too-long"]
)
def test_read_window_of_another_length_is_malformed(window):
    events = completed_write(1, 5, 0, 1) + completed_read(2, window, 2, 3)
    with pytest.raises(MalformedHistoryError) as raised:
        check_linearizable(History(2, events))
    assert str(raised.value) == (
        f"read window {window!r} has {len(window)} slots, expected 2"
    )


def witness_digest(cases):
    """(verdict counts, sha256 over every witness or None) of (k, events) cases."""
    digest = hashlib.sha256()
    verdicts = Counter()
    for k, events in cases:
        witness = check_linearizable(History(k, events))
        verdicts[witness is not None] += 1
        key = None if witness is None else [(o.pid, o.op, o.value, o.invoked) for o in witness]
        digest.update(repr(key).encode())
    return verdicts, digest.hexdigest()


def test_witnesses_are_pinned():
    # Every witness, or None, over a seeded set of small histories with
    # repeated and with fresh values: a search change that prunes or
    # reorders must still return exactly these.
    verdicts, digest = witness_digest(seeded_histories(3000, seed=5))
    assert verdicts == {True: 2157, False: 843}
    assert digest == "b222a7b6b33fb593cbf88ac2ec7a3e478c75288e28e0ae987b6cc3c78788f1e3"


def pending_mid_history(events):
    """Whether an operation that never responds was invoked before another
    operation's response."""
    opened = {}
    for e in events:
        if e.kind == "invoke":
            opened[e.pid] = e.timestamp
        else:
            del opened[e.pid]
    last_response = max((e.timestamp for e in events if e.kind == "respond"), default=-1)
    return any(invoked < last_response for invoked in opened.values())


def test_mid_history_pending_witnesses_are_pinned():
    # As test_witnesses_are_pinned, over histories where one process stops
    # inside an operation while the others carry on, so pending operations
    # sit in the middle of the history and not only at its tail.
    cases = seeded_histories(3000, seed=7, halting=True)
    assert sum(pending_mid_history(events) for _, events in cases) == 1288
    verdicts, digest = witness_digest(cases)
    assert verdicts == {True: 2242, False: 758}
    assert digest == "4d857b6748fe8c85cbbba78a48513361ff2d7988772e9dfeb4a6dfdefc10bb0c"


def test_long_history_witnesses_are_pinned():
    # As test_witnesses_are_pinned, over one 16,000-operation stress history
    # and its cuts to 2/3 and 1/2 of its events, which leave operations
    # pending: the frontier and the response order are exercised at scale.
    events = stress(4, 4000, 3, seed=1).events
    cases = [(3, events[:cut]) for cut in (len(events), len(events) * 2 // 3, len(events) // 2)]
    verdicts, digest = witness_digest(cases)
    assert verdicts == {True: 3}
    assert digest == "f507a0903271d68462081fc6294c9b37108af17db1db2e12ba2ac72b7c5d858a"


def check_peak_bytes(ops):
    """tracemalloc peak of check_linearizable on a stress history of ops operations."""
    history = stress(4, ops // 4, 3, seed=1)
    tracemalloc.start()
    try:
        assert check_linearizable(history) is not None
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_checker_memory_grows_linearly():
    # Memory linear in the history grows about fourfold here; state as wide
    # as the history would grow it up to sixteenfold.
    assert check_peak_bytes(8000) < 6 * check_peak_bytes(2000)


def two_process_history(rounds, k, last_read=None):
    """Each round, p1 writes the round number while p2 reads; the read
    overlaps the write, seeing it in even rounds and missing it in odd
    ones. last_read, if given, replaces the final read's window."""
    events = []
    for i in range(1, rounds + 1):
        newest = i if i % 2 == 0 else i - 1
        window = padded_last_k(list(range(max(1, newest - k + 1), newest + 1)), k)
        if i == rounds and last_read is not None:
            window = last_read
        t = 4 * i
        events += [
            ev("invoke", 1, "write", t, value=i),
            ev("invoke", 2, "read", t + 1),
            ev("respond", 2, "read", t + 2, result=window),
            ev("respond", 1, "write", t + 3),
        ]
    return History(k, events)


def test_deep_history_is_checked_fast_without_recursion():
    history = two_process_history(1500, 2)
    assert len(history.events) // 2 > sys.getrecursionlimit()
    started = time.perf_counter()
    witness = check_linearizable(history)
    elapsed = time.perf_counter() - started
    assert witness is not None and len(witness) == 3000
    assert_witness(history, witness)
    assert elapsed < 1.0


def test_dead_reads_are_pruned():
    # Twelve concurrent writes, then twelve concurrent reads, read j returning
    # the window of write j; the one linearization alternates write j, read j.
    # A write placed while a read still expects the newest value kills that
    # read, and without the prune the search explores every subtree below
    # such a write: about 15 s here, against 0.1 ms with it.
    m = 12
    events = [ev("invoke", p, "write", p - 1, value=p) for p in range(1, m + 1)]
    events += [ev("invoke", m + p, "read", m + p - 1) for p in range(1, m + 1)]
    events += [ev("respond", p, "write", 2 * m + p - 1) for p in range(1, m + 1)]
    events += [ev("respond", m + p, "read", 3 * m + p - 1, result=(p,)) for p in range(1, m + 1)]
    history = History(1, events)
    started = time.perf_counter()
    witness = check_linearizable(history)
    elapsed = time.perf_counter() - started
    assert [(op.op, op.value if op.op == "write" else op.result) for op in witness] == [
        step for p in range(1, m + 1) for step in (("write", p), ("read", (p,)))
    ]
    assert_witness(history, witness)
    assert elapsed < 0.5


def writers_then_two_reads(w, first, second):
    """Writers 1..w each write their pid, all concurrently; then process
    w + 1 reads twice in sequence with k=1, seeing first, then second, as
    the newest value."""
    events = [ev("invoke", p, "write", p - 1, value=p) for p in range(1, w + 1)]
    events += [ev("respond", p, "write", w + p - 1) for p in range(1, w + 1)]
    events += completed_read(w + 1, (first,), 2 * w, 2 * w + 1)
    events += completed_read(w + 1, (second,), 2 * w + 2, 2 * w + 3)
    return History(1, events)


@pytest.mark.parametrize("w", [4, 8, 10])
def test_reads_after_concurrent_writers_agree_on_the_newest(w):
    # Every write precedes both reads, so the reads cannot see different
    # newest values. The search refutes this only after trying exponentially
    # many sets of placed writes (ROADMAP prototype 3).
    assert check_linearizable(writers_then_two_reads(w, 1, 2)) is None
    history = writers_then_two_reads(w, 1, 1)
    witness = check_linearizable(history)
    assert witness is not None and len(witness) == w + 2
    assert_witness(history, witness)


def test_pending_read_invoked_first_does_not_slow_the_search():
    # A read that is invoked before everything else and never answered
    # constrains nothing; the search must not keep stopping at it.
    history = two_process_history(3000, 2)
    stalled = History(2, [ev("invoke", 3, "read", 0)] + history.events)
    started = time.perf_counter()
    witness = check_linearizable(stalled)
    elapsed = time.perf_counter() - started
    assert witness == check_linearizable(history)
    assert len(witness) == 6000
    assert elapsed < 1.0


def test_pending_read_mid_history_does_not_slow_the_search():
    # As above, with the unanswered read invoked after the first round: the
    # frontier must pass it, or every later placed-set would span the history.
    history = two_process_history(3000, 2)
    events = history.events[:4] + [ev("invoke", 3, "read", 0)] + history.events[4:]
    stalled = History(2, [e._replace(timestamp=t) for t, e in enumerate(events)])
    started = time.perf_counter()
    witness = check_linearizable(stalled)
    elapsed = time.perf_counter() - started
    plain = check_linearizable(history)
    assert [(o.pid, o.op, o.value) for o in witness] == [(o.pid, o.op, o.value) for o in plain]
    assert elapsed < 1.0


def test_deep_history_with_a_bad_last_read_is_rejected():
    # 1500 is even, so the last read should see (1499, 1500)
    history = two_process_history(1500, 2, last_read=(1498, 1500))
    assert check_linearizable(history) is None


# ---------------------------------------------------------------- stress


def test_stress_produces_a_full_history():
    history = stress(3, 4, 2, seed=0)
    assert len(history.events) == 3 * 4 * 2
    assert {e.pid for e in history.events} == {1, 2, 3}
    stamps = [e.timestamp for e in history.events]
    assert stamps == sorted(stamps)
    assert len(set(stamps)) == len(stamps)
    _table(history)


def test_stress_op_mixes_are_seeded():
    def mixes(history):
        per_pid = {}
        for e in history.events:
            if e.kind == "invoke":
                per_pid.setdefault(e.pid, []).append((e.op, e.value))
        return per_pid

    a = mixes(stress(3, 6, 2, seed=9))
    b = mixes(stress(3, 6, 2, seed=9))
    assert a == b
    assert mixes(stress(3, 6, 2, seed=10)) != a


# sha256 of repr(sorted({pid: [(op, value), ...]}.items())) over the invoke
# events, taken when stress still ran one OS thread per process: the
# scheduler must keep every process's operation mix and written values.
PINNED_MIXES = {
    (2, 5, 0): "9bd39c01a0ed1a80b1d19fcec6a403d357524f6c145aebc1d48975097619419c",
    (4, 5, 11): "a1c2b365cdc1ed200112000c557a45912e2c3e975637cd249ed6f0fa7bffdeab",
    (3, 6, 9): "04676d4ae57d50f3564a0dff8532f1d9a9772e3fe88be8339cd7681c556b7cf7",
    (4, 300, 7): "4e8b69fd480f747929833e223aa4ee1f0f746037a8bab8b7a117f9c63e6beb8d",
    (8, 50, 123): "1887649e83b43815719dd52eaf889c2e5b6d25b86f12e060ebea6b69ad0946a0",
}


def mix_digest(history):
    per_pid = {}
    for e in history.events:
        if e.kind == "invoke":
            per_pid.setdefault(e.pid, []).append((e.op, e.value))
    return hashlib.sha256(repr(sorted(per_pid.items())).encode()).hexdigest()


@pytest.mark.parametrize("threads, ops, seed", sorted(PINNED_MIXES))
def test_stress_op_mixes_are_pinned(threads, ops, seed):
    history = stress(threads, ops, 2, seed=seed)
    assert mix_digest(history) == PINNED_MIXES[threads, ops, seed]


def test_stress_histories_overlap():
    # an operation overlaps when another is open while it is invoked
    overlapping = [overlap(stress(4, 5, 2, seed=seed).events)[0] for seed in range(100)]
    assert sum(1 for n in overlapping if n) >= 95


def test_stress_written_values_are_distinct_past_1000_ops():
    # with seed 2, p1's op 1000 and p2's op 0 are both writes, which used
    # to collide on the value 2000
    history = stress(2, 1001, 2, seed=2)
    written = [e.value for e in history.events if e.kind == "invoke" and e.op == "write"]
    assert len(written) == len(set(written))


def test_stress_rejects_tiny_setups():
    with pytest.raises(ValueError):
        stress(1, 5, 2)
    with pytest.raises(ValueError):
        stress(2, 0, 2)


@settings(deadline=None, max_examples=10)
@given(st.integers(0, 999))
def test_correct_register_histories_are_linearizable(seed):
    history = stress(3, 4, 2, seed=seed)
    assert check_linearizable(history) is not None


def test_mutant_register_is_caught():
    rejected = 0
    for seed in range(20):
        history = stress(4, 5, 2, seed=seed, register_factory=WindowShortRegister)
        if check_linearizable(history) is None:
            rejected += 1
    assert rejected >= 1
