import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kslide.consensus import check_outcome
from kslide.lincheck import Event, check_linearizable
from kslide.register import BOTTOM
from kslide.sim import (
    Crash,
    Exec,
    ScheduleError,
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
    parse_schedule,
    parse_step,
    pending_op,
    random_schedule,
    run_schedule,
    verify_all,
)
from kslide.valence import Explorer, check_commutation
from oracles import crash_free_count, with_crash_count

PROTO = consensus_protocol()


def sched(*names):
    return parse_schedule(names)


# ---------------------------------------------------------------- steps


def test_step_formatting_round_trip():
    assert format_step(Exec(1)) == "E1"
    assert format_step(Crash(12)) == "C12"
    assert parse_step("E3") == Exec(3)
    assert parse_step(" C2 ") == Crash(2)


@pytest.mark.parametrize("bad", ["", "E", "X1", "E0", "E-1", "1", "EE1"])
def test_bad_step_strings(bad):
    with pytest.raises(ValueError):
        parse_step(bad)


@given(st.lists(st.tuples(st.sampled_from("EC"), st.integers(1, 9)), max_size=8))
def test_schedule_round_trip(pairs):
    names = [f"{kind}{pid}" for kind, pid in pairs]
    assert format_schedule(parse_schedule(names)) == names


# ---------------------------------------------------------------- running


def test_both_processes_decide_first_value_when_window_fits():
    out = run_schedule(PROTO, default_inputs(2), 2, sched("E1", "E1", "E2", "E2"))
    assert out.decisions == {1: 0, 2: 0}
    assert out.crashed == frozenset()


def test_k1_back_to_back_runs_disagree():
    out = run_schedule(PROTO, default_inputs(2), 1, sched("E1", "E1", "E2", "E2"))
    assert out.decisions == {1: 0, 2: 1}


def test_crash_removes_a_process():
    out = run_schedule(PROTO, default_inputs(2), 2, sched("E1", "C1", "E2", "E2"))
    assert out.decisions == {2: 0}
    assert out.crashed == frozenset({1})


def test_incomplete_schedule_leaves_processes_undecided():
    out = run_schedule(PROTO, default_inputs(2), 2, sched("E1", "E2"))
    assert out.decisions == {}
    assert out.final_config.registers[0] == (0, 1)
    out = run_schedule(PROTO, default_inputs(2), 3, sched("E1", "E2"))
    assert out.final_config.registers[0] == (BOTTOM, 0, 1)


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


def test_inputs_must_be_dense():
    with pytest.raises(ValueError):
        run_schedule(PROTO, {1: 0, 3: 1}, 2, sched("E1"))
    with pytest.raises(ValueError):
        run_schedule(PROTO, {}, 2, ())


def test_recorded_history_is_linearizable():
    out = run_schedule(
        PROTO, default_inputs(2), 2, sched("E1", "E2", "E1", "E2"), record_history=True
    )
    history = out.history
    assert history is not None
    assert len(history.events) == 8
    assert check_linearizable(history) is not None


def test_recorded_history_events_are_pinned():
    out = run_schedule(
        PROTO, default_inputs(2), 2, sched("E1", "E2", "C1", "E2"), record_history=True
    )
    assert out.history.events == [
        Event("invoke", 1, "write", 0, value=0),
        Event("respond", 1, "write", 1),
        Event("invoke", 2, "write", 2, value=1),
        Event("respond", 2, "write", 3),
        Event("invoke", 2, "read", 4),
        Event("respond", 2, "read", 5, result=(0, 1)),
    ]


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
        Explorer(PROTO, inputs, k).classify()


# ------------------------------------------------------- pure stepping path


@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 10_000))
@settings(max_examples=60)
def test_run_schedule_agrees_with_pure_stepping(n, k, seed):
    schedule = random_schedule(n, 2, seed=seed, crash_probability=0.2)
    out = run_schedule(PROTO, default_inputs(n), k, schedule)
    cfg = initial_config(PROTO, default_inputs(n), k)
    for step in schedule:
        if isinstance(step, Exec):
            cfg = apply_exec(PROTO, default_inputs(n), k, cfg, step.pid)
        else:
            cfg = apply_crash(cfg, step.pid)
    assert cfg == out.final_config
    assert dict(cfg.decided) == out.decisions


def test_pending_op_reflects_protocol_position():
    inputs = default_inputs(2)
    cfg = initial_config(PROTO, inputs, 2)
    first = pending_op(PROTO, inputs, cfg, 1)
    assert first is not None and first.value == 0
    cfg = apply_exec(PROTO, inputs, 2, cfg, 1)
    cfg = apply_exec(PROTO, inputs, 2, cfg, 1)
    assert pending_op(PROTO, inputs, cfg, 1) is None
    cfg = apply_crash(cfg, 2)
    assert pending_op(PROTO, inputs, cfg, 2) is None


@pytest.mark.parametrize("pid", [0, 3])
@pytest.mark.parametrize(
    "call",
    [
        lambda cfg, pid: apply_exec(PROTO, default_inputs(2), 2, cfg, pid),
        lambda cfg, pid: pending_op(PROTO, default_inputs(2), cfg, pid),
        lambda cfg, pid: apply_crash(cfg, pid),
        lambda cfg, pid: check_commutation(PROTO, default_inputs(2), 2, cfg, pid, 1),
    ],
    ids=["apply_exec", "pending_op", "apply_crash", "check_commutation"],
)
def test_out_of_range_pid_is_a_schedule_error(call, pid):
    cfg = initial_config(PROTO, default_inputs(2), 2)
    with pytest.raises(ScheduleError, match="unknown process id"):
        call(cfg, pid)


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
    for s in enumerate_schedules(2, 2, with_crashes=True):
        out = run_schedule(PROTO, default_inputs(2), 2, s)
        assert out.decisions.keys().isdisjoint(out.crashed)


# ---------------------------------------------------------------- verify


def test_verify_within_capacity_has_no_violations():
    report = verify_all(PROTO, 2, 2, with_crashes=True)
    assert report.ok
    assert report.schedules_checked == 38


def test_verify_k1_two_processes_finds_the_disagreements():
    report = verify_all(PROTO, 1, 2)
    bad = {tuple(format_schedule(s)) for s, *_ in report.violations}
    assert bad == {("E1", "E1", "E2", "E2"), ("E2", "E2", "E1", "E1")}
    for _, prop, decided, crashed in report.violations:
        assert not prop.agreement
        assert len(set(dict(decided).values())) == 2 and crashed == ()


def replayed_verify(inputs, k, n, crashes):
    """verify_all's answer, replaying every schedule from the start."""
    violations = []
    count = 0
    for s in enumerate_schedules(n, 2, crashes):
        out = run_schedule(PROTO, inputs, k, s)
        report = check_outcome(inputs, out.decisions, out.crashed)
        count += 1
        if not report.ok:
            final = out.final_config
            violations.append((s, report, final.decided, final.crashed))
    return count, tuple(violations)


def replayed_violations(inputs, k, n, max_results):
    """find_violation's answer, replaying every schedule from the start."""
    first = [eviction_schedule(k, n)] if n == k + 1 and n >= 2 else []
    rest = [s for s in enumerate_schedules(n, 2) if s not in first]
    found = []
    for s in first + rest:
        out = run_schedule(PROTO, inputs, k, s)
        if not check_outcome(inputs, out.decisions, out.crashed).agreement:
            found.append(
                (s, tuple(sorted(out.decisions.items())), tuple(sorted(out.crashed)))
            )
    return found if max_results is None else found[:max_results]


@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.booleans(),
    st.lists(st.integers(0, 2), min_size=4, max_size=4),
    st.sampled_from([None, 1, 3]),
)
@example(4, 3, False, [0, 1, 0, 2], None)
@example(2, 1, False, [0, 1, 0, 0], None)
@settings(max_examples=30, deadline=None)
def test_shared_prefix_checks_match_per_schedule_replay(
    n, k, crashes, proposals, max_results
):
    # n = 4 with crashes is 65,304 schedules, several seconds per example
    assume(n < 4 or not crashes)
    inputs = {pid: proposals[pid - 1] for pid in range(1, n + 1)}
    report = verify_all(PROTO, k, n, inputs, with_crashes=crashes)
    assert (report.schedules_checked, report.violations) == replayed_verify(
        inputs, k, n, crashes
    )
    assert find_violation(PROTO, k, n, inputs, max_results) == replayed_violations(
        inputs, k, n, max_results
    )


# ---------------------------------------------------------------- violation


def test_eviction_schedule_shape():
    assert format_schedule(eviction_schedule(2, 3)) == ["E1", "E1", "E2", "E3", "E2"]
    with pytest.raises(ValueError):
        eviction_schedule(2, 2)


def test_find_violation_k2_leads_with_the_eviction_run():
    found = find_violation(PROTO, 2, 3, max_results=1)
    assert [format_schedule(s) for s, _, _ in found] == [["E1", "E1", "E2", "E3", "E2"]]
    assert found[0][1:] == (((1, 0), (2, 1)), ())
    out = run_schedule(PROTO, default_inputs(3), 2, found[0][0])
    assert out.decisions == {1: 0, 2: 1}


def test_find_violation_k1_is_exhaustive():
    found = find_violation(PROTO, 1, 2)
    assert [format_schedule(s) for s, _, _ in found] == [
        ["E1", "E1", "E2", "E2"],
        ["E2", "E2", "E1", "E1"],
    ]


def test_find_violation_within_capacity_is_empty():
    assert find_violation(PROTO, 3, 3) == []


def test_find_violation_respects_max_results():
    found = find_violation(PROTO, 1, 2, max_results=1)
    assert len(found) == 1


# ---------------------------------------------------------------- random


def test_random_schedule_is_deterministic_in_seed():
    a = random_schedule(3, 2, seed=7, crash_probability=0.3)
    b = random_schedule(3, 2, seed=7, crash_probability=0.3)
    assert a == b
    assert random_schedule(3, 2, seed=8, crash_probability=0.3) != a or True


def test_random_schedule_without_crashes_is_complete():
    s = random_schedule(2, 2, seed=3)
    assert all(isinstance(step, Exec) for step in s)
    for pid in (1, 2):
        assert sum(1 for step in s if step == Exec(pid)) == 2


def test_random_schedule_certain_crash_kills_everyone():
    s = random_schedule(3, 2, seed=0, crash_probability=1.0)
    assert sorted(step.pid for step in s) == [1, 2, 3]
    assert all(isinstance(step, Crash) for step in s)


def test_random_schedule_rejects_bad_probability():
    with pytest.raises(ValueError):
        random_schedule(2, 2, seed=0, crash_probability=1.5)


@given(st.integers(1, 4), st.integers(0, 999), st.floats(0.0, 1.0))
@settings(max_examples=60)
def test_random_schedules_always_run_clean(n, seed, p):
    s = random_schedule(n, 2, seed=seed, crash_probability=p)
    out = run_schedule(PROTO, default_inputs(n), 2, s)
    for pid in range(1, n + 1):
        if pid not in out.crashed:
            assert pid in out.decisions
