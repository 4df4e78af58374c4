import hashlib
import itertools
import random
import sys
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kslide.lincheck import (
    Event,
    History,
    MalformedHistoryError,
    check_linearizable,
    stress,
)
from kslide.register import BOTTOM, LockedSlidingRegister, SlidingRegister, WindowShortRegister
from oracles import FullSequenceRegister, brute_force_linearizable, padded_last_k


def ev(kind, pid, op, ts, value=None, result=None):
    return Event(kind, pid, op, ts, value=value, result=result)


def completed_write(pid, value, t0, t1):
    return [ev("invoke", pid, "write", t0, value=value), ev("respond", pid, "write", t1)]


def completed_read(pid, window, t0, t1):
    return [ev("invoke", pid, "read", t0), ev("respond", pid, "read", t1, result=window)]


# ---------------------------------------------------------------- structure


def test_validate_accepts_a_clean_history():
    events = completed_write(1, 5, 0, 1) + completed_read(2, (5,), 2, 3)
    History(1, events).validate()


def test_validate_allows_pending_tail():
    events = completed_write(1, 5, 0, 1) + [ev("invoke", 2, "write", 2, value=6)]
    History(1, events).validate()


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
    with pytest.raises(MalformedHistoryError) as raised:
        History(1, events).validate()
    assert str(raised.value) == message


def test_operations_pairs_events():
    events = sorted(
        completed_write(1, 5, 0, 3)
        + completed_read(2, (BOTTOM,), 1, 2)
        + [ev("invoke", 3, "write", 4, value=7)],
        key=lambda e: e.timestamp,
    )
    ops = History(1, events).operations()
    assert [(o.pid, o.op, o.pending) for o in ops] == [
        (1, "write", False),
        (2, "read", False),
        (3, "write", True),
    ]
    assert ops[1].result == (BOTTOM,)


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
    assert all(not o.pending or o.op == "write" for o in witness)


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


def random_history(pick, number, fresh=False):
    """(k, events) of at most 7 operations by up to 3 processes.

    Each operation takes three separately chosen steps: invoke, an effect on
    a plain list of written values, and respond. The run may stop before
    every step is taken, which leaves pending operations at the tails, and
    a completed read may report a corrupted window. Written values are all
    distinct when fresh is set; otherwise they come from a small pool, so
    they can repeat. pick(options) and number(lo, hi) make every choice."""
    k = number(1, 3)
    size = number(1, 7)
    todo = {}
    for _ in range(size):
        todo.setdefault(number(1, 3), []).append(pick(("read", "write")))
    steps = 3 * size - number(0, 3)  # cut short: pending tails
    fresh_values = itertools.count(1)
    written, events, phase, carried = [], [], {}, {}
    clock = 0
    for _ in range(steps):
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
    return k, events


@st.composite
def small_histories(draw, fresh=False):
    return random_history(
        lambda options: draw(st.sampled_from(options)),
        lambda lo, hi: draw(st.integers(lo, hi)),
        fresh,
    )


def seeded_histories(count, seed):
    """count random_history cases from one seed, every other one with
    fresh written values."""
    rng = random.Random(seed)
    return [random_history(rng.choice, rng.randint, fresh=i % 2 == 0) for i in range(count)]


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
    assert all(placed[o] == 1 for o in history.operations() if not o.pending)
    latest_invoked = -1
    for op in witness:
        assert op.pending or op.responded > latest_invoked
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
    # a history file can hold a list as a written value; the pending write
    # is never needed, so the distinct-values check must not raise on it
    events = completed_read(1, (BOTTOM,), 0, 1) + [ev("invoke", 2, "write", 2, value=[1])]
    witness = check_linearizable(History(1, events))
    assert [(o.pid, o.op) for o in witness] == [(1, "read")]


def test_witnesses_are_pinned():
    # Every witness, or None, over a seeded set of small histories with
    # repeated and with fresh values: a search change that prunes or
    # reorders must still return exactly these.
    digest = hashlib.sha256()
    verdicts = Counter()
    for k, events in seeded_histories(3000, seed=5):
        witness = check_linearizable(History(k, events))
        verdicts[witness is not None] += 1
        key = None if witness is None else [(o.pid, o.op, o.value, o.invoked) for o in witness]
        digest.update(repr(key).encode())
    assert verdicts == {True: 2157, False: 843}
    assert digest.hexdigest() == "b222a7b6b33fb593cbf88ac2ec7a3e478c75288e28e0ae987b6cc3c78788f1e3"


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
    history.validate()


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


def test_stress_accepts_a_register_factory():
    history = stress(2, 3, 3, seed=1, register_factory=LockedSlidingRegister)
    assert history.k == 3
