"""Checks of the benchmark's own parts. Run: python3 -m pytest perfbench"""

from __future__ import annotations

import itertools
import os
import random
import shutil
import subprocess
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import histories  # noqa: E402
import kslide.cli  # noqa: E402
import harness  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from kslide.lincheck import check_linearizable  # noqa: E402
from kslide.trace import history_from_records  # noqa: E402
from spans import Tracer, summarize  # noqa: E402


def as_history(k, events):
    return history_from_records(workloads.history_records(k, events))


def first_histories(seed, n):
    return list(itertools.islice(histories.workload_histories(seed), n))


def test_generator_is_deterministic_per_seed():
    assert first_histories(7, 12) == first_histories(7, 12)
    assert first_histories(7, 12) != first_histories(8, 12)


def test_written_values_are_unique_across_histories():
    written = [
        ev.value
        for _, events in first_histories(3, 30)
        for ev in events
        if ev.kind == "invoke" and ev.op == "write"
    ]
    assert len(written) == len(set(written))


def test_register_histories_are_linearizable_and_overlap():
    rng = random.Random(5)
    values = itertools.count(1)
    for width, k in ((2, 2), (4, 3), (8, 2)):
        events = histories.generate(rng, width, 80, k, histories.REGISTER, values)
        busy, ops = histories.overlap(events)
        assert ops == 80 and busy > 0
        witness = check_linearizable(as_history(k, events))
        assert witness is not None and len(witness) == 80


def test_window_short_histories_with_a_stale_read_are_rejected():
    rng = random.Random(6)
    values = itertools.count(1)
    for k in (2, 3):
        events = histories.generate(rng, 4, 80, k, histories.WINDOW_SHORT, values)
        assert histories.stale_read(events, k)
        assert check_linearizable(as_history(k, events)) is None
        correct = histories.generate(rng, 4, 80, k, histories.REGISTER, values)
        assert not histories.stale_read(correct, k)


def test_overlap_counts_concurrent_operations():
    E = histories.Event
    # p1's write overlaps p2's read; p1's later read runs alone.
    events = [
        E("invoke", 1, "write", 0, value=1),
        E("invoke", 2, "read", 1),
        E("respond", 1, "write", 2),
        E("respond", 2, "read", 3, result=(None, 1)),
        E("invoke", 1, "read", 4),
        E("respond", 1, "read", 5, result=(None, 1)),
    ]
    assert histories.overlap(events) == (2, 3)


def test_workload_pins_window_short_count(tmp_path):
    specs = histories.workload_specs()
    assert sum(s.semantics == histories.WINDOW_SHORT for s in specs) == 20
    assert sum(s == histories.DEEP for s in specs) == histories.DEEP_COUNT
    jobs, facts = workloads.lincheck_inputs(0, str(tmp_path))
    assert (facts["histories"], facts["window_short"], facts["deep"]) == (106, 20, 4)
    assert sum(job.exit_code == 1 for job in jobs) == 20
    assert 0 < facts["overlap"] <= 1
    # The first 15 histories (three window-short) get their pinned verdicts.
    results = [harness.run_job(kslide.cli.main, job, str(tmp_path)) for job in jobs[:15]]
    assert not any(r.failed for r in results)


def test_self_time_on_a_toy_span_tree():
    # root [0, 100] holds a [10, 40] (which holds b [15, 25]) and c [50, 90].
    names = ["root", "a", "b", "c"]
    starts = [0, 10, 15, 50]
    ends = [100, 40, 25, 90]
    parents = [-1, 0, 1, 0]
    s = summarize(names, starts, ends, parents)
    assert dict(s.self_ns) == {"root": 30, "a": 20, "b": 10, "c": 40}
    assert dict(s.total_ns) == {"root": 100, "a": 30, "b": 10, "c": 40}
    assert s.under[("root", "a")] == 1 and s.under[("a", "b")] == 1


def test_tracer_rebinds_and_restores():
    class Reg:
        def write(self, v):
            return v

        @classmethod
        def make(cls):
            return cls()

    def steps(n):
        yield from range(n)

    def outer(reg, n):
        return [reg.write(i) for i in mod.steps(n)]

    mod = types.SimpleNamespace(steps=steps, outer=outer)
    write, make = Reg.__dict__["write"], Reg.__dict__["make"]
    with Tracer() as tracer:
        tracer.patch(Reg, "write", "register.write")
        tracer.patch(Reg, "make", "register.make")
        tracer.patch(mod, "steps", "sim.steps", generator=True)
        tracer.patch(mod, "outer", "cli.outer")
        assert mod.outer(Reg.make(), 3) == [0, 1, 2]
    assert (mod.outer, mod.steps) == (outer, steps)
    assert (Reg.__dict__["write"], Reg.__dict__["make"]) == (write, make)
    s = tracer.summary()
    assert s.calls["register.make"] == 1 and s.calls["register.write"] == 3
    assert s.calls["sim.steps"] == 4  # three items and the final step
    assert tracer.counts["sim.steps.items"] == 3
    assert s.under[("cli.outer", "register.write")] == 3
    assert s.layer_calls("register") == 4
    assert s.self_ns["cli.outer"] <= s.total_ns["cli.outer"]


def test_times_are_scaled_to_the_nominal_speed():
    assert harness.nominal_seconds(3.0, reference.NOMINAL_S) == 3.0
    # The reference loop ran 1.5 times slower than nominal: so did the job.
    assert abs(harness.nominal_seconds(3.0, 1.5 * reference.NOMINAL_S) - 2.0) < 1e-12
    assert reference.seconds() > 0


def test_wrong_output_and_exceptions_count_as_failed(tmp_path):
    job = workloads.Job(("verify", "--k", "2", "--n", "2"), 0, workloads.sha256(b"wrong\n"))
    wrong = harness.run_job(kslide.cli.main, job, str(tmp_path))
    assert wrong.wrong and wrong.failed and wrong.error is None
    right = job._replace(stdout_sha256=workloads.sha256(b"6 crash-free schedules, 0 violations\n"))
    passed = harness.run_job(kslide.cli.main, right, str(tmp_path))
    assert not passed.failed

    def boom(argv):
        raise RecursionError("too deep")

    raised = harness.run_job(boom, right, str(tmp_path))
    assert raised.failed and not raised.wrong
    # attempted, failed, wrong: failed_share is 2 / 3 and correct is false.
    assert harness.tally([[wrong, passed], [raised]]) == (3, 2, 1)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work-*", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0 and done.stdout == ""
