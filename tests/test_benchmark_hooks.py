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
