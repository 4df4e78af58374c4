import functools
import itertools
import re
from typing import NamedTuple

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kslide.consensus import check_outcome
from kslide.register import BOTTOM, first_non_bottom, slide
from kslide.sim import (
    Configuration,
    Crash,
    Exec,
    Protocol,
    ReadOp,
    ScheduleError,
    WriteOp,
    apply_crash,
    apply_exec,
    consensus_protocol,
    default_inputs,
    enumerate_schedules,
    eviction_schedule,
    find_violation,
    format_schedule,
    format_step,
    initial_config,
    list_violations,
    parse_schedule,
    parse_step,
    pending_op,
    run_schedule,
    verify_all,
)
from kslide.valence import Explorer, census
from oracles import crash_free_count, replay_consensus, schedule_order, with_crash_count

PROTO = consensus_protocol()


def sched(*names):
    return parse_schedule(names)


# ---------------------------------------------------------------- steps


def test_step_formatting_round_trip():
    assert format_step(Exec(1)) == "E1"
    assert format_step(Crash(12)) == "C12"
    assert parse_step("E3") == Exec(3)
    assert parse_step(" C2 ") == Crash(2)


def test_steps_compare_by_type():
    # schedules and step sets rely on an Exec and a Crash of one pid differing
    assert Exec(1) != Crash(1)
    assert not Exec(1) == Crash(1)
    assert len({Exec(1), Crash(1)}) == 2
    assert Exec(1) != (1,)
    assert [repr(Exec(1)), repr(Crash(2)), repr(WriteOp(0, 5)), repr(ReadOp(0))] == [
        "Exec(pid=1)", "Crash(pid=2)", "WriteOp(reg=0, value=5)", "ReadOp(reg=0)",
    ]
    schedules = list(enumerate_schedules(3, with_crashes=True))
    assert len(set(schedules)) == len(schedules)


# non-ASCII digits are digits to str.isdigit, and "²" is not one to int()
@pytest.mark.parametrize("bad", ["", "E", "X1", "E0", "E-1", "1", "EE1", "E²", "E١", "C٣"])
def test_bad_step_strings(bad):
    with pytest.raises(ValueError, match="^steps look like 'E1' or 'C2', got "):
        parse_step(bad)


@given(st.lists(st.tuples(st.sampled_from("EC"), st.integers(1, 9)), max_size=8))
def test_schedule_round_trip(pairs):
    names = [f"{kind}{pid}" for kind, pid in pairs]
    assert format_schedule(parse_schedule(names)) == names


# ---------------------------------------------------------------- running


def test_both_processes_decide_first_value_when_window_fits():
    end = run_schedule(PROTO, default_inputs(2), 2, sched("E1", "E1", "E2", "E2"))
    assert end.decided == ((1, 0), (2, 0))
    assert end.crashed == ()


def test_k1_back_to_back_runs_disagree():
    end = run_schedule(PROTO, default_inputs(2), 1, sched("E1", "E1", "E2", "E2"))
    assert end.decided == ((1, 0), (2, 1))


def test_crash_removes_a_process():
    end = run_schedule(PROTO, default_inputs(2), 2, sched("E1", "C1", "E2", "E2"))
    assert end.decided == ((2, 0),)
    assert end.crashed == (1,)


def test_incomplete_schedule_leaves_processes_undecided():
    end = run_schedule(PROTO, default_inputs(2), 2, sched("E1", "E2"))
    assert end.decided == ()
    assert end.registers[0] == (0, 1)
    end = run_schedule(PROTO, default_inputs(2), 3, sched("E1", "E2"))
    assert end.registers[0] == (BOTTOM, 0, 1)


def test_step_after_completion_is_malformed():
    with pytest.raises(ScheduleError):
        run_schedule(PROTO, default_inputs(1), 1, sched("E1", "E1", "E1"))


def test_step_after_crash_is_malformed():
    with pytest.raises(ScheduleError):
        run_schedule(PROTO, default_inputs(2), 2, sched("C1", "E1"))


def test_double_crash_is_malformed():
    with pytest.raises(ScheduleError):
        run_schedule(PROTO, default_inputs(2), 2, sched("C1", "C1"))


def test_unknown_pid_is_malformed():
    with pytest.raises(ScheduleError):
        run_schedule(PROTO, default_inputs(2), 2, sched("E3"))


def test_non_step_is_rejected():
    # a bare (1,) equals no Exec or Crash, so it is neither step kind
    with pytest.raises(TypeError, match=r"^not a schedule step: \(1,\)$"):
        run_schedule(PROTO, {1: 0, 2: 1}, 2, [(1,)])


def test_inputs_must_be_dense():
    with pytest.raises(ValueError):
        run_schedule(PROTO, {1: 0, 3: 1}, 2, sched("E1"))
    with pytest.raises(ValueError):
        run_schedule(PROTO, {}, 2, ())


@pytest.mark.parametrize("k", [0, -1, True])
def test_bad_window_size_is_rejected(k):
    inputs = default_inputs(2)
    with pytest.raises(ValueError):
        initial_config(PROTO, inputs, k)
    with pytest.raises(ValueError):
        run_schedule(PROTO, inputs, k, ())
    with pytest.raises(ValueError):
        verify_all(PROTO, k, 2)
    with pytest.raises(ValueError):
        Explorer(PROTO, inputs, k).reachable_decisions()


# ------------------------------------------------------- pure stepping path


@functools.cache
def _crash_schedules(n):
    return list(enumerate_schedules(n, 2, with_crashes=True))


@given(st.integers(1, 3), st.integers(1, 3), st.data())
@settings(max_examples=60)
def test_run_schedule_agrees_with_pure_stepping(n, k, data):
    # a complete schedule or any prefix of one
    schedule = data.draw(st.sampled_from(_crash_schedules(n)))
    schedule = schedule[: data.draw(st.integers(0, len(schedule)))]
    end = run_schedule(PROTO, default_inputs(n), k, schedule)
    cfg = initial_config(PROTO, default_inputs(n), k)
    for step in schedule:
        if isinstance(step, Exec):
            cfg = apply_exec(PROTO, default_inputs(n), cfg, step.pid)
        else:
            cfg = apply_crash(PROTO, cfg, step.pid)
    assert cfg == end


def test_a_read_step_keeps_the_registers_tuple():
    # apply_exec rebuilds the registers only when op.apply returns a new window
    inputs = default_inputs(2)
    written = apply_exec(PROTO, inputs, initial_config(PROTO, inputs, 2), 1)
    read = apply_exec(PROTO, inputs, written, 1)
    assert read.registers is written.registers
    assert read.locals[0] == (None, (BOTTOM, 0))


def test_pending_op_reflects_protocol_position():
    inputs = default_inputs(2)
    cfg = initial_config(PROTO, inputs, 2)
    first = pending_op(PROTO, inputs, cfg, 1)
    assert first is not None and first.value == 0
    cfg = apply_exec(PROTO, inputs, cfg, 1)
    cfg = apply_exec(PROTO, inputs, cfg, 1)
    assert pending_op(PROTO, inputs, cfg, 1) is None
    cfg = apply_crash(PROTO, cfg, 2)
    assert pending_op(PROTO, inputs, cfg, 2) is None


@pytest.mark.parametrize("pid", [0, 3])
@pytest.mark.parametrize(
    "call",
    [
        lambda cfg, pid: apply_exec(PROTO, default_inputs(2), cfg, pid),
        lambda cfg, pid: pending_op(PROTO, default_inputs(2), cfg, pid),
        lambda cfg, pid: apply_crash(PROTO, cfg, pid),
    ],
    ids=["apply_exec", "pending_op", "apply_crash"],
)
def test_out_of_range_pid_is_a_schedule_error(call, pid):
    cfg = initial_config(PROTO, default_inputs(2), 2)
    with pytest.raises(ScheduleError, match="unknown process id"):
        call(cfg, pid)


def _writes(reg, value):
    """A one-step protocol whose only operation is WriteOp(reg, value)."""
    return Protocol(1, 1, lambda pid, p, r: WriteOp(reg, value), lambda *a: None)


def _after(*names):
    return run_schedule(PROTO, default_inputs(2), 2, sched(*names))


@pytest.mark.parametrize(
    "proto,cfg,pid,error,message",
    [
        # a crashed set naming a pid out of range is still an unknown pid
        (PROTO, Configuration(((), ()), ((BOTTOM,) * 2,), (3,), ()), 3,
         ScheduleError, "unknown process id 3"),
        (PROTO, _after("E1", "C1"), 1,
         ScheduleError, "process 1 crashed and cannot take steps"),
        (PROTO, _after("E1", "E1"), 1, ScheduleError, "process 1 already finished"),
        # liveness is checked before the protocol names an operation
        (_writes(5, BOTTOM), _after("C1"), 1,
         ScheduleError, "process 1 crashed and cannot take steps"),
        (_writes(5, BOTTOM), _after(), 1, ValueError, "protocol named unknown register 5"),
        (_writes(0, BOTTOM), _after(), 1,
         ValueError, "BOTTOM marks missing values and cannot be written"),
    ],
    ids=["unknown-pid", "crashed", "finished", "crashed-before-op", "unknown-register",
         "bottom-write"],
)
def test_step_errors_in_precedence_order(proto, cfg, pid, error, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        apply_exec(proto, default_inputs(2), cfg, pid)
    assert type(info.value) is error


@pytest.mark.parametrize(
    "cfg,pid,message",
    [
        (Configuration(((), ()), ((BOTTOM,) * 2,), (3,), ()), 3, "unknown process id 3"),
        (_after("E1", "C1"), 1, "process 1 crashed twice"),
        # a process that has decided has finished, so it cannot crash
        (_after("E1", "E1"), 1, "process 1 already finished"),
    ],
    ids=["unknown-pid", "crashed-twice", "finished"],
)
def test_crash_errors_in_precedence_order(cfg, pid, message):
    with pytest.raises(ScheduleError, match=f"^{re.escape(message)}$"):
        apply_crash(PROTO, cfg, pid)


# Proposals that compare (and hash) equal but are distinct objects of
# distinct types; a step must write and decide each process's own object.
EQUAL_PROPOSALS = [
    {1: True, 2: 1, 3: 1.0},
    {1: 1.0, 2: True, 3: 1},
    {1: 1, 2: 1.0, 3: True},
    {1: True, 2: 0, 3: 1.0},
    {1: 0.0, 2: False, 3: 1},
]


def _same_objects(got, want):
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


def test_equal_proposals_keep_their_own_objects():
    # one protocol object across every proposal vector, as the CLI uses it
    for inputs in EQUAL_PROPOSALS:
        own = [inputs[pid] for pid in (1, 2, 3)]
        end = run_schedule(PROTO, inputs, 3, sched("E1", "E2", "E3"))
        assert _same_objects(end.registers[0], own)
        end = run_schedule(PROTO, inputs, 1, sched("E1", "E1", "E2", "E2", "E3", "E3"))
        assert _same_objects([value for _, value in end.decided], own)


def test_equal_proposals_keep_their_own_objects_in_violations():
    for inputs in EQUAL_PROPOSALS:
        own = [inputs[pid] for pid in (1, 2, 3)]
        report = verify_all(PROTO, 1, 3, inputs, with_crashes=True)
        if len(set(own)) > 1:
            assert report.violations
        for s, _, decided, _ in report.violations:
            _, want, _ = replay_consensus(1, own, s)
            assert [pid for pid, _ in decided] == sorted(want)
            assert _same_objects([v for _, v in decided], [want[p] for p, _ in decided])


def test_equal_proposals_keep_their_own_objects_in_decision_sets():
    for inputs in EQUAL_PROPOSALS:
        explorer = Explorer(PROTO, inputs, 3)
        for pid in (1, 2, 3):
            # pid writes and reads alone first, so everyone decides its object
            solo = run_schedule(PROTO, inputs, 3, (Exec(pid), Exec(pid)))
            (value,) = explorer.reachable_decisions(solo)
            assert value is inputs[pid]


def _valid_schedule(n, picks):
    """A valid schedule from raw picks: pick i names process i % n + 1, with
    an Exec step when i % (2 * n) < n and a Crash step otherwise. Picks
    naming a crashed or finished process are skipped."""
    taken = [0] * n
    crashed = set()
    steps = []
    for i in picks:
        pid = i % n + 1
        if pid in crashed or taken[pid - 1] == 2:
            continue
        if i % (2 * n) < n:
            steps.append(Exec(pid))
            taken[pid - 1] += 1
        else:
            steps.append(Crash(pid))
            crashed.add(pid)
    return tuple(steps)


@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.lists(st.sampled_from([0, 1, 2, True, 1.0]), min_size=4, max_size=4),
    st.lists(st.integers(0, 7), max_size=12),
)
@settings(max_examples=200, deadline=None)
def test_run_schedule_matches_independent_replay(n, k, proposals, picks):
    proposals = proposals[:n]
    schedule = _valid_schedule(n, picks)
    end = run_schedule(PROTO, dict(enumerate(proposals, 1)), k, schedule)
    window, decisions, crashed = replay_consensus(k, proposals, schedule)
    assert _same_objects(end.registers[0], window)
    assert end.decided == tuple(sorted(decisions.items()))
    assert all(value is decisions[pid] for pid, value in end.decided)
    assert end.crashed == tuple(sorted(crashed))


# ---------------------------------------------------------------- counting


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 6), (3, 90)])
def test_crash_free_counts(n, expected):
    schedules = list(enumerate_schedules(n))
    assert len(schedules) == expected
    assert len(set(schedules)) == expected
    for s in schedules:
        for pid in range(1, n + 1):
            assert sum(1 for step in s if step == Exec(pid)) == 2


def test_enumeration_starts_lexicographically():
    first = next(iter(enumerate_schedules(3)))
    assert format_schedule(first) == ["E1", "E1", "E2", "E2", "E3", "E3"]


@given(st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_counts_match_factorial_oracle(n, ops):
    assert sum(1 for _ in enumerate_schedules(n, ops)) == crash_free_count(n, ops)
    assert sum(1 for _ in enumerate_schedules(n, ops, with_crashes=True)) == (
        with_crash_count(n, ops)
    )


@pytest.mark.parametrize("crashes", [False, True])
@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumeration_order_matches_oracle(n, m, crashes):
    assert list(enumerate_schedules(n, m, crashes)) == schedule_order(n, m, crashes)


def test_crash_enumeration_shape():
    seen = set()
    for s in enumerate_schedules(2, 2, with_crashes=True):
        assert s not in seen
        seen.add(s)
        for pid in (1, 2):
            crashes = [i for i, step in enumerate(s) if step == Crash(pid)]
            execs = [i for i, step in enumerate(s) if step == Exec(pid)]
            assert len(crashes) <= 1
            if crashes:
                assert len(execs) < 2
                assert all(i < crashes[0] for i in execs)
            else:
                assert len(execs) == 2
    assert len(seen) == 38  # 3 variants per process interleaved


def test_every_enumerated_schedule_runs_clean():
    # 1, 38 and 1,158 schedules: every process either crashes or decides
    for n in (1, 2, 3):
        for s in _crash_schedules(n):
            end = run_schedule(PROTO, default_inputs(n), 2, s)
            decided = dict(end.decided)
            assert decided.keys().isdisjoint(end.crashed)
            assert decided.keys() | set(end.crashed) == set(range(1, n + 1))


@given(st.integers(1, 4), st.data())
@settings(max_examples=60)
def test_random_schedules_always_run_clean(n, data):
    # a random complete schedule: each process takes its 2 steps or crashes first
    remaining = dict.fromkeys(range(1, n + 1), 2)
    schedule = []
    while remaining:
        pid = data.draw(st.sampled_from(sorted(remaining)))
        if data.draw(st.booleans()):
            schedule.append(Crash(pid))
            remaining[pid] = 0
        else:
            schedule.append(Exec(pid))
            remaining[pid] -= 1
        if remaining[pid] == 0:
            del remaining[pid]
    end = run_schedule(PROTO, default_inputs(n), 2, schedule)
    for pid in range(1, n + 1):
        if pid not in end.crashed:
            assert pid in dict(end.decided)


@pytest.mark.parametrize("n, m", [(0, 2), (-1, 2), (2, -1), (2, -3), (0, 0)])
def test_schedule_makers_reject_bad_counts(n, m):
    with pytest.raises(ValueError, match=f"got {n} and {m}$"):
        list(enumerate_schedules(n, m))
    # zero steps each stays legal: the one empty schedule
    assert list(enumerate_schedules(2, 0)) == [()]


# ---------------------------------------------------------------- verify


def test_verify_within_capacity_has_no_violations():
    report = verify_all(PROTO, 2, 2, with_crashes=True)
    assert not report.violations
    assert report.schedules_checked == 38


def test_verify_k1_two_processes_finds_the_disagreements():
    report = verify_all(PROTO, 1, 2)
    bad = {tuple(format_schedule(s)) for s, *_ in report.violations}
    assert bad == {("E1", "E1", "E2", "E2"), ("E2", "E2", "E1", "E1")}
    for _, prop, decided, crashed in report.violations:
        assert not prop.agreement
        assert len(set(dict(decided).values())) == 2 and crashed == ()


def test_listing_renders_each_distinct_outcome_once():
    # the benchmark's evict job: 1,944 violations reach 552 (orbit, renaming)
    # terminal states, but only 216 distinct (decided, crashed, renaming)
    # triples, and a render reads nothing else; distinct renamings still
    # give equal outcomes, 84 in all, which cli's render memo folds
    calls = []
    schedules, count, listing = list_violations(PROTO, 3, 4)
    found = list(listing(lambda *outcome: calls.append(outcome) or outcome))
    assert (schedules, count, len(found), len(calls)) == (2520, 1944, 1944, 216)
    assert len(set(calls)) == 84


@pytest.mark.parametrize("crashes", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2])
def test_verify_violations_follow_oracle_order(k, n, crashes):
    inputs = default_inputs(n)
    schedules = schedule_order(n, 2, crashes)
    violating = []
    for s in schedules:
        end = run_schedule(PROTO, inputs, k, s)
        if not check_outcome(inputs, dict(end.decided), end.crashed).ok:
            violating.append(s)
    report = verify_all(PROTO, k, n, with_crashes=crashes)
    assert report.schedules_checked == len(schedules)
    assert [s for s, *_ in report.violations] == violating


def test_protocol_of_no_steps_lists_the_empty_schedule():
    # the walk's text for the one schedule is "", which is no step at all
    idle = Protocol(1, 0, None, None)
    report = verify_all(idle, 1, 2)
    assert report.schedules_checked == 1
    assert report.violations == (((), check_outcome({1: 0, 2: 1}, {}, ()), (), ()),)


def test_deep_protocol_is_walked_without_recursion():
    def next_op(pid, proposal, results):
        return ReadOp(0)

    def decide(pid, proposal, results):
        return proposal

    deep = Protocol(1, 1200, next_op, decide)
    report = verify_all(deep, 1, 1)
    assert report.schedules_checked == 1 and not report.violations
    assert list(find_violation(deep, 1, 1)) == []
    assert list(enumerate_schedules(1, 1200)) == [(Exec(1),) * 1200]


def _shared_register_zero():
    """Each process writes its own register, then reads register 0 and
    decides its oldest value. Process 1 alone reads what it wrote, so the
    protocol has no pid symmetry, and it declares none."""

    def next_op(pid, proposal, results):
        return ReadOp(0) if results else WriteOp(pid - 1, proposal)

    def decide(pid, proposal, results):
        return first_non_bottom(results[-1])

    return Protocol(4, 2, next_op, decide)


UNDECLARED = _shared_register_zero()


def _read_twice():
    """Write the proposal, read twice, decide the oldest value of the last
    read: a symmetric protocol of three steps per process."""

    def next_op(pid, proposal, results):
        return ReadOp(0) if results else WriteOp(0, proposal)

    def decide(pid, proposal, results):
        return first_non_bottom(results[-1])

    return Protocol(1, 3, next_op, decide, symmetric=True)


READ_TWICE = _read_twice()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_schedule_counts_match_the_closed_form(n):
    # crash-free (n*m)!/(m!)^n; with crashes, the sum over crash variants of
    # the multinomial of their lengths. n = 6 with crashes (780,827,760
    # schedules) takes seconds and is left out.
    assert verify_all(PROTO, n, n).schedules_checked == crash_free_count(n, 2)
    if n <= 5:
        report = verify_all(PROTO, n, n, with_crashes=True)
        assert report.schedules_checked == with_crash_count(n, 2)
    if n <= 3:
        for k in (1, n):
            for crashes, count in ((False, crash_free_count), (True, with_crash_count)):
                report = verify_all(READ_TWICE, k, n, with_crashes=crashes)
                assert report.schedules_checked == count(n, 3)


def replayed_verify(inputs, k, n, crashes, protocol=PROTO):
    """verify_all's answer, replaying every schedule from the start."""
    violations = []
    count = 0
    for s in enumerate_schedules(n, protocol.steps_per_process, crashes):
        end = run_schedule(protocol, inputs, k, s)
        report = check_outcome(inputs, dict(end.decided), end.crashed)
        count += 1
        if not report.ok:
            violations.append((s, report, end.decided, end.crashed))
    return count, tuple(violations)


def replayed_violations(inputs, k, n, max_results, protocol=PROTO):
    """find_violation's answer, replaying every schedule from the start."""
    first = [eviction_schedule(k)] if n == k + 1 else []
    rest = [s for s in enumerate_schedules(n, 2) if s not in first]
    found = []
    for s in first + rest:
        end = run_schedule(protocol, inputs, k, s)
        if not check_outcome(inputs, dict(end.decided), end.crashed).agreement:
            found.append((s, end.decided, end.crashed))
    return found if max_results is None else found[:max_results]


@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.booleans(),
    st.lists(st.integers(0, 2), min_size=4, max_size=4),
    st.sampled_from([None, 1, 3]),
    st.sampled_from([PROTO, UNDECLARED]),
)
@example(4, 3, False, [0, 1, 0, 2], None, PROTO)
@example(2, 1, False, [0, 1, 0, 0], None, PROTO)
# equal proposals of distinct types, which no pid renaming may swap
@example(3, 1, True, [True, 1, 1.0, 0], None, PROTO)
@example(3, 2, True, [1.0, True, 1, 0], 3, PROTO)
@example(3, 1, True, [True, 0, 1.0, 0], None, PROTO)
@example(3, 2, False, [0.0, False, 1, 0], None, PROTO)
@example(3, 1, True, [True, 1, 1.0, 0], None, UNDECLARED)
# an undeclared protocol gets the trivial group
@example(4, 2, False, [0, 1, 2, 0], None, UNDECLARED)
@settings(max_examples=40, deadline=None)
def test_shared_prefix_checks_match_per_schedule_replay(
    n, k, crashes, proposals, max_results, protocol
):
    # n = 4 with crashes is 65,304 schedules, several seconds per example
    assume(n < 4 or not crashes)
    inputs = {pid: proposals[pid - 1] for pid in range(1, n + 1)}
    report = verify_all(protocol, k, n, inputs, with_crashes=crashes)
    want = replayed_verify(inputs, k, n, crashes, protocol)
    # repr tells 1, 1.0 and True apart, which == does not
    assert (report.schedules_checked, report.violations) == want
    assert repr(report.violations) == repr(want[1])
    # islice with a stop of None takes every hit
    found = list(itertools.islice(find_violation(protocol, k, n, inputs), max_results))
    assert found == replayed_violations(inputs, k, n, max_results, protocol)


class SwapOp(NamedTuple):
    """An operation no kslide module names: write value to register reg and
    return the window the write replaced."""

    reg: int
    value: object

    def apply(self, window):
        return slide(window, self.value), window


def _swap_consensus():
    """One swap per process: decide the newest value of the window the swap
    replaced, or the own proposal if that slot is BOTTOM. At k=1 this is
    consensus for two processes: the third swapper sees the second's value."""

    def next_op(pid, proposal, results):
        return SwapOp(0, proposal)

    def decide(pid, proposal, results):
        newest = results[-1][-1]
        return proposal if newest is BOTTOM else newest

    return Protocol(1, 1, next_op, decide)


SWAP = _swap_consensus()


@pytest.mark.parametrize("crashes", [False, True])
@pytest.mark.parametrize("n, holds", [(2, True), (3, False)])
def test_the_step_applies_an_operation_sim_does_not_know(n, holds, crashes):
    inputs = default_inputs(n)
    report = verify_all(SWAP, 1, n, inputs, with_crashes=crashes)
    assert (not report.violations) is holds
    assert (report.schedules_checked, report.violations) == replayed_verify(
        inputs, 1, n, crashes, SWAP
    )
    explorer = Explorer(SWAP, inputs, 1, crash_aware=crashes)
    vmap = explorer.valence_map()
    c = census(SWAP, inputs, 1, crash_aware=crashes)
    assert (repr(c.root), c.nodes, c.bivalent, c.monovalent, c.critical) == (
        repr(vmap.valences[0]),
        len(vmap.nodes),
        sum(v.bivalent for v in vmap.valences),
        sum(v.monovalent for v in vmap.valences),
        len(explorer.find_critical()),
    )


# ---------------------------------------------------------------- violation


def test_eviction_schedule_shape():
    assert format_schedule(eviction_schedule(1)) == ["E1", "E1", "E2", "E2"]
    assert format_schedule(eviction_schedule(2)) == ["E1", "E1", "E2", "E3", "E2"]
    for k in (0, -1):
        with pytest.raises(ValueError, match="window size of at least 1"):
            eviction_schedule(k)


def test_find_violation_k2_leads_with_the_eviction_run():
    found = list(itertools.islice(find_violation(PROTO, 2, 3), 1))
    assert [format_schedule(s) for s, _, _ in found] == [["E1", "E1", "E2", "E3", "E2"]]
    assert found[0][1:] == (((1, 0), (2, 1)), ())
    end = run_schedule(PROTO, default_inputs(3), 2, found[0][0])
    assert end.decided == ((1, 0), (2, 1))


def test_find_violation_k1_is_exhaustive():
    found = list(find_violation(PROTO, 1, 2))
    assert [format_schedule(s) for s, _, _ in found] == [
        ["E1", "E1", "E2", "E2"],
        ["E2", "E2", "E1", "E1"],
    ]


def test_find_violation_within_capacity_is_empty():
    assert list(find_violation(PROTO, 3, 3)) == []


def test_find_violation_yields_the_eviction_run_before_walking():
    # the eviction run at k=6 is 9 steps, one next_op call each; a walk
    # step before the first hit would call next_op again, and fails at once
    # rather than walk the 681,080,400 schedules of n=7
    calls = []

    def next_op(pid, proposal, results):
        calls.append(pid)
        assert len(calls) <= 9, "find_violation stepped past the eviction run"
        return PROTO.next_op(pid, proposal, results)

    counted = PROTO._replace(next_op=next_op)
    found = find_violation(counted, 6, 7)
    assert calls == []
    assert next(found)[0] == eviction_schedule(6)
    assert calls == [1, 1, 2, 3, 4, 5, 6, 7, 2]


def test_find_violation_walks_lazily_past_its_first_hit():
    # after the eviction run, each hit costs only the walk's tree edges up
    # to it: 14 next_op calls down the first complete schedule, then 3 more
    # for the next one. A search that took its later hits from an orbit
    # graph of all 681,080,400 schedules would build that graph first
    calls = []

    def next_op(pid, proposal, results):
        calls.append(pid)
        return PROTO.next_op(pid, proposal, results)

    found = find_violation(PROTO._replace(next_op=next_op), 6, 7)
    counts = []
    for _ in range(3):
        next(found)
        counts.append(len(calls))
    assert counts == [9, 23, 26]


@pytest.mark.parametrize(
    "check, k, n, inputs",
    [
        (verify_all, 3, 3, {1: 0, 2: 1}),
        (verify_all, 1, 2, {1: 0, 2: 1, 3: 2}),
        (verify_all, 1, 3, {1: 0, 2: 1}),
        (find_violation, 1, 3, {1: 0, 2: 1}),
        (find_violation, 2, 2, {1: 0, 2: 1, 3: 2}),
    ],
)
def test_inputs_must_hold_one_proposal_per_process(check, k, n, inputs):
    # n counts the processes, so inputs must hold exactly n proposals
    # list: find_violation is a generator and checks them on the first next()
    with pytest.raises(ValueError, match=f"{len(inputs)} proposals given for {n} processes"):
        list(check(PROTO, k, n, inputs=inputs))
