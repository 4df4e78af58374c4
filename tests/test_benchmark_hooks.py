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
    # the benchmark's evict job: 1,944 violating schedules, none re-run
    with Tracer() as tracer:
        layers.install(tracer)
        argv = ["verify", "--k", "3", "--n", "4", "--output", str(tmp_path / "v.jsonl")]
        assert cli.main(argv) == 1
    calls = tracer.summary().calls
    assert calls["trace.violation_record"] == 1944
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


def test_violate_builds_violation_records_without_replaying():
    with Tracer() as tracer:
        layers.install(tracer)
        assert cli.main(["violate", "--k", "3", "--max", "50"]) == 1
    calls = tracer.summary().calls
    assert calls["trace.violation_record"] == 50
    assert calls["sim.run_schedule"] == 0
