"""The benchmark's tracer (perfbench/layers.py) rebinds kslide functions
where their callers look them up, through vars(owner)[name]. Deleting or
renaming any of those names (cli.run_schedule, cli.violation_record,
SlidingRegister.state, ...) breaks traced benchmark runs with a KeyError,
so the patches are installed here on a real Tracer."""

import layers
from spans import Tracer

from kslide import cli


def test_tracer_patches_install_and_close():
    tracer = Tracer()
    layers.install(tracer)
    patched = list(tracer._patches)
    try:
        assert patched
        for owner, attr, original in patched:
            assert vars(owner)[attr] is not original
    finally:
        tracer.close()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original


def test_verify_builds_violation_records_without_replaying(tmp_path, capsys):
    # the benchmark's evict job: 1,944 violating schedules, none re-run, and
    # one record built per distinct (decided, crashed) outcome: 84
    with Tracer() as tracer:
        layers.install(tracer)
        argv = ["verify", "--k", "3", "--n", "4", "--output", str(tmp_path / "v.jsonl")]
        assert cli.main(argv) == 1
    calls = tracer.summary().calls
    assert calls["trace.violation_record"] == 84
    assert calls["sim.run_schedule"] == 0
    # one check per distinct (decided, crashed) outcome of an orbit
    # representative: 10, where the 88 concrete outcomes were judged before
    assert calls["consensus.check_outcome"] == 10


def test_verify_judges_each_distinct_outcome_once():
    # the benchmark's first verify job: 2,520 schedules, 4 distinct
    # outcomes, 3 distinct among the orbit representatives' terminals
    with Tracer() as tracer:
        layers.install(tracer)
        assert cli.main(["verify", "--k", "4", "--n", "4"]) == 0
    calls = tracer.summary().calls
    assert calls["consensus.check_outcome"] == 3
    assert calls["sim.run_schedule"] == 0


def test_lincheck_file_decodes_without_per_line_parse(tmp_path):
    # the benchmark's lincheck job: one pass from lines to events
    path = str(tmp_path / "h.jsonl")
    argv = ["lincheck", "stress", "--threads", "3", "--ops", "4", "--histories", "1"]
    assert cli.main(argv + ["--save", path]) == 0
    with Tracer() as tracer:
        layers.install(tracer)
        assert cli.main(["lincheck", "file", "--path", path]) == 0
    calls = tracer.summary().calls
    assert calls["lincheck.check_linearizable"] == 1
    assert calls["trace.parse"] == 0
    assert calls["trace.read_records"] == 0


def test_violate_builds_violation_records_without_replaying(tmp_path, capsys):
    # 50 violating schedules with 12 distinct outcomes, one record built each
    with Tracer() as tracer:
        layers.install(tracer)
        argv = ["violate", "--k", "3", "--max", "50", "--output", str(tmp_path / "v.jsonl")]
        assert cli.main(argv) == 1
    calls = tracer.summary().calls
    assert calls["trace.violation_record"] == 12
    # the one run is find_violation's eviction run, made before the search;
    # none of the 50 listed schedules is re-run
    assert calls["sim.run_schedule"] == 1


def test_valence_step_counts(tmp_path):
    # the benchmark's valence jobs, with every call through the names the
    # tracer patches: the text summary steps once per edge of its 153 orbits
    # (the unreduced graph takes 5,132 steps), the JSON export once per edge
    with Tracer() as tracer:
        layers.install(tracer)
        assert cli.main(["valence", "--k", "3", "--n", "4"]) == 0
    calls = tracer.summary().calls
    assert calls["sim.apply_exec"] == 232
    assert calls["sim.apply_crash"] == 0
    with Tracer() as tracer:
        layers.install(tracer)
        argv = ["valence", "--k", "2", "--n", "3", "--crash-aware", "--format", "json"]
        assert cli.main(argv + ["--output", str(tmp_path / "g.json")]) == 0
    calls = tracer.summary().calls
    assert calls["sim.apply_exec"] == 498
    assert calls["sim.apply_crash"] == 498
