import argparse
import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kslide import cli
from kslide.cli import main
from kslide.consensus import check_outcome
from kslide.sim import (
    consensus_protocol,
    find_violation,
    format_schedule,
    format_step,
    parse_schedule,
    run_schedule,
    verify_all,
)
from kslide.trace import (
    HistoryEventRecord,
    OutcomeRecord,
    ScheduleRecord,
    ValenceNodeRecord,
    ViolationRecord,
    parse,
    read_records,
    serialize,
    violation_record,
    write_records,
)
from kslide.valence import Explorer, sorted_values
from oracles import schedule_order


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# verify


def test_verify_within_capacity_is_clean(capsys):
    code, out, _ = run_cli(capsys, "verify", "--k", "3", "--n", "3")
    assert code == 0
    assert "90 crash-free schedules, 0 violations" in out


def test_verify_over_capacity_reports_violations(capsys):
    code, out, _ = run_cli(capsys, "verify", "--k", "1", "--n", "2")
    assert code == 1
    assert "6 crash-free schedules, 2 violations" in out
    assert "violation: E1,E1,E2,E2 breaks agreement" in out
    assert "violation: E2,E2,E1,E1 breaks agreement" in out


def test_verify_with_crashes_counts_truncations(capsys):
    code, out, _ = run_cli(capsys, "verify", "--k", "2", "--n", "2", "--crashes")
    assert code == 0
    assert "38 schedules including crash truncations, 0 violations" in out


def test_verify_rejects_bad_k(capsys):
    code, _, err = run_cli(capsys, "verify", "--k", "0", "--n", "2")
    assert code == 2
    assert "error:" in err


def test_verify_rejects_bad_inputs(capsys):
    code, _, err = run_cli(capsys, "verify", "--k", "2", "--n", "2", "--inputs", "1")
    assert code == 2
    assert "--inputs needs 2 values" in err
    # int() alone takes underscores and non-ASCII digits: "1_0" is 10, "١" is 1
    for text in ("a,b", "1_0,2", "١,2", "1,²", "+-1,2", "1 2,3", ",1"):
        code, out, err = run_cli(capsys, "verify", "--k", "2", "--n", "2", f"--inputs={text}")
        assert (code, out) == (2, "")
        assert f"--inputs takes comma-separated integers, got {text!r}" in err
    code, out, _ = run_cli(capsys, "verify", "--k", "2", "--n", "2", "--inputs", " +5 , -6 ")
    assert (code, out) == (0, "6 crash-free schedules, 0 violations\n")


def test_verify_replays_one_schedule(capsys, tmp_path):
    path = str(tmp_path / "replay.jsonl")
    code, out, _ = run_cli(
        capsys, "verify", "--k", "2", "--n", "2", "--schedule", "E1,E1,E2,E2",
        "--output", path,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert parse(lines[0]) == ScheduleRecord(("E1", "E1", "E2", "E2"))
    assert parse(lines[1]) == OutcomeRecord(((1, 0), (2, 0)), ())
    assert lines[2] == "properties: validity=True agreement=True termination=True"
    # the file holds the bytes of the two record lines printed above
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == "".join(line + "\n" for line in lines[:2])


def test_verify_replay_flags_violating_schedule(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--k", "1", "--n", "2", "--schedule", "E1,E1,E2,E2"
    )
    assert code == 1
    assert "agreement=False" in out


def test_verify_replay_with_crash_keeps_termination(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--k", "2", "--n", "2", "--schedule", "E1,C1,E2,E2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert parse(lines[1]) == OutcomeRecord(((2, 0),), (1,))


def test_verify_replay_rejects_bad_schedule(capsys):
    # --crashes only widens the enumeration, so a replay cannot take it; a
    # pid takes ASCII digits only, though str.isdigit accepts "١" and "²"
    for extra in (
        ["--schedule", "E1,bogus"],
        ["--schedule", "E1,E1", "--crashes"],
        ["--schedule", "E١,E١,E2,E2"],
        ["--schedule", "E²"],
    ):
        code, out, err = run_cli(capsys, "verify", "--k", "2", "--n", "2", *extra)
        assert (code, out, err.startswith("error:")) == (2, "", True)
        assert "steps look like" in err or "--crashes" in err


def test_verify_replay_rejects_a_crash_after_deciding(capsys):
    # a process that has decided has finished, so it cannot crash
    code, out, err = run_cli(
        capsys, "verify", "--k", "2", "--n", "1", "--schedule", "E1,E1,C1"
    )
    assert (code, out, err) == (2, "", "error: process 1 already finished\n")


@pytest.mark.parametrize(
    "argv, code, out_digest, records_digest",
    [
        (
            ("--k", "2", "--n", "2", "--schedule", "E1,C1,E2,E2"),
            0,
            "1b92a82d18318061f87854085ee56d34f8753a9212c1248b091ce80f85305598",
            "cda64c29d993fb55a900dcc95d6e5b0520156dd0ff8c27fbb69e84155ad61549",
        ),
        (
            # disagreement: p1 decides 0, p2 decides 1, p3 never reads
            ("--k", "2", "--n", "3", "--schedule", "E1,E1,E2,E3,E2"),
            1,
            "2738e56b7d711c96e52a53672dd50fb959616d07044b89fb42651a57ef8be094",
            "27b35ea0e1a83b2f9fdb73d42e50a00fe88f31183dd933b54c11b3531541c2e3",
        ),
        (
            # a partial run: nobody decides, so termination fails
            ("--k", "2", "--n", "2", "--schedule", "E1"),
            1,
            "548311c98a2f8fd17b99c1066bd0503ca39062f6da59e9c66c5a5cd31d9f6e0d",
            "32810b676cde46ffc67293e039232e41300962371cab0a62223e576df38d5e14",
        ),
    ],
)
def test_verify_replay_matches_pinned_digests(
    capsys, tmp_path, argv, code, out_digest, records_digest
):
    # stdout and the schedule and outcome records as the replay wrote them
    path = tmp_path / "replay.jsonl"
    got, out, _ = run_cli(capsys, "verify", *argv, "--output", str(path))
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == out_digest
    assert hashlib.sha256(path.read_bytes()).hexdigest() == records_digest


def test_verify_writes_violation_records(capsys, tmp_path):
    path = str(tmp_path / "violations.jsonl")
    code, _, _ = run_cli(capsys, "verify", "--k", "1", "--n", "2", "--output", path)
    assert code == 1
    records = read_records(path)
    assert [r.schedule for r in records] == [
        ("E1", "E1", "E2", "E2"),
        ("E2", "E2", "E1", "E1"),
    ]
    assert all(isinstance(r, ViolationRecord) for r in records)


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--k", "1", "--n", "2", "--output"),
        ("verify", "--k", "2", "--n", "2", "--output"),
        ("verify", "--k", "1", "--n", "2", "--schedule", "E1,E1,E2,E2", "--output"),
        ("violate", "--k", "1", "--max", "2", "--output"),
        ("valence", "--k", "1", "--n", "2", "--format", "json", "--output"),
        ("valence", "--k", "2", "--n", "2", "--format", "dot", "--output"),
        ("lincheck", "stress", "--histories", "200", "--save"),
    ],
)
def test_unwritable_output_fails_before_printing(capsys, tmp_path, argv):
    # argv ends with the command's output flag. The file is opened before
    # the first line is printed (and before the first stress history runs),
    # so a path that cannot be written leaves no partial listing on stdout
    code, out, err = run_cli(capsys, *argv, str(tmp_path / "missing" / "x.jsonl"))
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno 2] No such file or directory")


def test_clean_verify_still_writes_an_empty_output_file(capsys, tmp_path):
    path = tmp_path / "v.jsonl"
    code, out, _ = run_cli(capsys, "verify", "--k", "2", "--n", "2", "--output", str(path))
    assert (code, out, path.read_bytes()) == (0, "6 crash-free schedules, 0 violations\n", b"")


# violate


def test_violate_k1_reports_the_canonical_schedule(capsys):
    code, out, _ = run_cli(capsys, "violate", "--k", "1")
    assert code == 1
    assert "schedule: E1,E1,E2,E2" in out
    assert "  p1 decides 0" in out
    assert "  p2 decides 1" in out


def test_violate_k2_leads_with_eviction(capsys):
    code, out, _ = run_cli(capsys, "violate", "--k", "2", "--inputs", "5,6,7")
    assert code == 1
    assert "schedule: E1,E1,E2,E3,E2" in out
    assert "  p1 decides 5" in out
    assert "  p2 decides 6" in out


def test_violate_max_limits_results(capsys):
    code, out, _ = run_cli(capsys, "violate", "--k", "1", "--max", "2")
    assert code == 1
    assert out.count("schedule:") == 2


def test_violate_max_above_sys_maxsize_lists_every_schedule(capsys):
    # itertools.islice refuses a stop above sys.maxsize
    code, out, err = run_cli(capsys, "violate", "--k", "1", "--max", str(10**20))
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "schedule: E1,E1,E2,E2", "  p1 decides 0", "  p2 decides 1",
        "schedule: E2,E2,E1,E1", "  p1 decides 0", "  p2 decides 1",
    ]


def test_violate_records_replay_to_same_outcome(capsys, tmp_path):
    path = str(tmp_path / "violations.jsonl")
    code, _, _ = run_cli(capsys, "violate", "--k", "2", "--output", path)
    assert code == 1
    records = read_records(path)
    assert records
    protocol = consensus_protocol()
    for record in records:
        end = run_schedule(
            protocol, dict(record.inputs), record.k, parse_schedule(record.schedule)
        )
        assert (end.decided, end.crashed) == (record.decisions, record.crashed)
        assert len(set(dict(record.decisions).values())) >= 2


# valence


def test_valence_text_summary(capsys, tmp_path):
    path = tmp_path / "summary.txt"
    code, out, _ = run_cli(capsys, "valence", "--k", "2", "--n", "2", "--output", str(path))
    assert code == 0
    assert "root: Bivalent({0, 1})" in out
    assert "critical configurations: 1" in out
    assert path.read_bytes() == out.encode()


def test_valence_uniform_inputs_have_no_criticals(capsys):
    code, out, _ = run_cli(
        capsys, "valence", "--k", "2", "--n", "2", "--inputs", "7,7"
    )
    assert code == 0
    assert "root: Monovalent(7)" in out
    assert "critical configurations: 0" in out


def test_valence_dot_export(capsys, tmp_path):
    path = str(tmp_path / "graph.dot")
    code, out, _ = run_cli(
        capsys, "valence", "--k", "2", "--n", "2", "--format", "dot", "--output", path
    )
    assert code == 0
    assert out.startswith("digraph valence {")
    assert "->" in out
    assert "peripheries=2" in out
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == out


def test_valence_json_export(capsys, tmp_path):
    path = str(tmp_path / "nodes.jsonl")
    code, out, _ = run_cli(
        capsys, "valence", "--k", "1", "--n", "2", "--format", "json", "--output", path
    )
    assert code == 0
    records = [parse(line) for line in out.strip().splitlines()]
    assert all(isinstance(r, ValenceNodeRecord) for r in records)
    by_node = {r.node: r for r in records}
    assert by_node[0].values == (0, 1)
    for record in records:
        for step, dst in record.edges:
            assert step[0] in "EC"
            assert dst in by_node
    assert read_records(path) == records
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == out


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("--k", "3", "--n", "4"),
            "b07b337556d76dee85d698e7beb40aea11a43b858dba4d9d23450905b4b84943",
        ),
        (
            ("--k", "2", "--n", "3", "--crash-aware", "--format", "json"),
            "a704de50fa2c9e2e55a157aded9477aafb456bdb483cd785b6ed355e4ee4ada2",
        ),
        (
            ("--k", "2", "--n", "2", "--format", "dot"),
            "0e93d5a4fe448fa04646be946ba95a906f3d6425de2fc32caae814d931dc1cd8",
        ),
        (
            ("--k", "3", "--n", "4", "--crash-aware"),
            "4c9beedc69e9ce7bfc0bfb5f9c74f45e25bbef29e56a18667e139814844b1ccf",
        ),
        (
            ("--k", "2", "--n", "4", "--inputs", "0,0,1,1"),
            "b2bfee0ac272426eb7d45a9b52a3a01cf88072e589cb53119df585f101e24650",
        ),
        (
            ("--k", "3", "--n", "3", "--inputs", "5,5,5", "--crash-aware"),
            "4ae3860c1658ab6553b064e52dd6c822f178255853bc47b8ad47048bcd92282e",
        ),
        (
            ("--k", "1", "--n", "3"),
            "dc3cacf10e5a2d90c39178cb8cd0e670e764e637ae2012f1e28f02f8d8fffec5",
        ),
        (
            ("--k", "4", "--n", "5"),
            "957d6d555953eb4158c8cd065d117e9e67f4656c05729d937da8617be1425f6e",
        ),
        (
            # 1,546 lines, as printed when the export was built from the
            # whole valence map
            ("--k", "3", "--n", "3", "--crash-aware", "--format", "dot"),
            "e6371f4b771ed207f533e7c547f1d72e90ef8b9f313b3db155565436aee2a175",
        ),
        (
            # 242 records, likewise
            ("--k", "3", "--n", "3", "--inputs", "5,5,5", "--crash-aware", "--format", "json"),
            "7730b50925efdeba29f272f6a019b76c47298246ce329f9eb9a6f52668895e9b",
        ),
    ],
)
def test_valence_output_matches_pinned_digest(capsys, tmp_path, argv, digest):
    # SHA-256 of stdout as the recursive explorer printed it: node, edge and
    # critical order and every valence label stay byte-identical, and the
    # --output file holds the same bytes
    path = tmp_path / "valence.out"
    code, out, _ = run_cli(capsys, "valence", *argv, "--output", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert path.read_bytes() == out.encode()


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("verify", "--k", "2", "--n", "3", "--crashes"),
            "6e822763206958539fdfef5e7924eb7de4dfb4419e6eff501c0b60e56e5e1e00",
        ),
        (
            ("verify", "--k", "1", "--n", "3", "--crashes"),
            "cc8dce51472fcdc214893657b12e9a5a944dfd04d4762745f7e02fe591194b4c",
        ),
        (
            ("violate", "--k", "3", "--max", "50"),
            "f9d3d3edffc9efca5dbd72dccd48bd894b410e0817c6631014440c2040151696",
        ),
        (
            # 65,304 schedules, 15,048 violations
            ("verify", "--k", "3", "--n", "4", "--crashes"),
            "2f8df600b7b9ed5e00b34a59539be8b2243929d9bef5e2108de526bce486f5a7",
        ),
    ],
)
def test_violation_listing_matches_pinned_digest(capsys, argv, digest):
    # SHA-256 of stdout as the per-schedule replay printed it: schedule
    # counts, violation order and decisions stay byte-identical
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, summary",
    [
        (("--k", "5", "--n", "5", "--crashes"), "5900520 schedules including crash truncations"),
        (("--k", "6", "--n", "6"), "7484400 crash-free schedules"),
    ],
)
def test_verify_counts_schedule_trees_too_large_to_walk(capsys, argv, summary):
    # schedules are counted as paths over the orbit graph; walking the
    # k = n = 5 crash tree one edge at a time took about a minute
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "verify", *argv)
    elapsed = time.perf_counter() - start
    assert (code, out) == (0, f"{summary}, 0 violations\n")
    assert elapsed < 10, f"verify {' '.join(argv)} took {elapsed:.1f} s"


@pytest.mark.parametrize(
    "argv, out_digest, records_digest",
    [
        (
            # 1,464 violations; only pids with equal proposals are renamed
            ("--k", "2", "--n", "4", "--inputs", "0,0,1,1"),
            "6787dfe3a3d43b07bd687395266aefc7cc2ad65591648fc0a0d03e8ea1b661fd",
            "38add9b38497a3cf3d49fb59f5795614ebf2836ee2617981e7d62cfbfe363b92",
        ),
        (
            ("--k", "2", "--n", "3", "--inputs", "1,1,2", "--crashes"),
            "dc46d3365978e8abc9527a0de66d1e8dd41be382fe652aa25569261844c66554",
            "3b368debea3e6583b37756fa7f7bd6a4a4c5970958ef744e477de127ad2418ba",
        ),
    ],
)
def test_repeated_input_violations_match_pinned_digests(
    capsys, tmp_path, argv, out_digest, records_digest
):
    # stdout and the violation records as the per-schedule replay wrote them
    path = tmp_path / "violations.jsonl"
    code, out, _ = run_cli(capsys, "verify", *argv, "--output", str(path))
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == out_digest
    assert hashlib.sha256(path.read_bytes()).hexdigest() == records_digest


@pytest.mark.parametrize(
    "argv, out_digest, records_digest",
    [
        (
            # 113,400 schedules, 99,000 violations, 300 distinct outcomes
            ("--k", "4", "--n", "5"),
            "d1c1dc3d63035325b466e75b8f6e598051a6666a1da27454190a6939e45305fd",
            "218a21329bed5c014fcf57153a9a0da2ae6a3bf468f62c2f7eb40d8ee0bed87c",
        ),
        (
            # 65,304 schedules, 15,048 violations
            ("--k", "3", "--n", "4", "--crashes"),
            "2f8df600b7b9ed5e00b34a59539be8b2243929d9bef5e2108de526bce486f5a7",
            "30a51d1ed4ab83e30b6c9a8da2f74990189c1fe34e5ffaf71aae38fd2e273713",
        ),
    ],
)
def test_violation_records_match_pinned_digests(tmp_path, argv, out_digest, records_digest):
    # stdout and the violation records as one record build, one serialize
    # and one print per violation wrote them. The listing streams from the
    # walk: at k=4 n=5 the tracemalloc peak was about 106 MB when each
    # violation was held as a schedule, a stdout line and a record line
    # before the first write
    out, path = tmp_path / "stdout.txt", tmp_path / "violations.jsonl"
    with open(out, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        tracemalloc.start()
        try:
            code = main(["verify", *argv, "--output", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 1
    assert hashlib.sha256(out.read_bytes()).hexdigest() == out_digest
    assert hashlib.sha256(path.read_bytes()).hexdigest() == records_digest
    assert peak <= 25e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


def listed(argv: list, output: str) -> tuple[int, str]:
    """(exit code, stdout) of one cli.main run, without a pytest fixture."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv + ["--output", output])
    return code, buffer.getvalue()


def text_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def breaks(prop) -> str:
    return ",".join(name for name, held in zip(prop._fields, prop) if not held)


@st.composite
def proposals(draw, n: int) -> list[int]:
    """n integer proposals from a small range, so repeats are common."""
    return draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_verify_listing_is_one_serialize_per_violation(data):
    k, n = data.draw(st.integers(1, 3)), data.draw(st.integers(2, 4))
    crashes = data.draw(st.booleans())
    values = data.draw(proposals(n))
    inputs = dict(enumerate(values, 1))
    argv = ["verify", "--k", str(k), "--n", str(n), f"--inputs={','.join(map(str, values))}"]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "v.jsonl")
        code, out = listed(argv + ["--crashes"] * crashes, path)
        lines = text_lines(path)
    report = verify_all(consensus_protocol(), k, n, inputs, with_crashes=crashes)
    assert code == (1 if report.violations else 0)
    assert lines == [
        serialize(violation_record(k, n, inputs, sched, decided, crashed))
        for sched, _, decided, crashed in report.violations
    ]
    assert out.splitlines()[1:] == [
        f"violation: {','.join(format_schedule(sched))} breaks {breaks(prop)}"
        for sched, prop, _, _ in report.violations
    ]


oracle_order = functools.cache(schedule_order)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_verify_listing_matches_the_oracle_replay(data):
    # the streamed listing against every schedule of the oracle's own
    # enumeration, run from the start and judged one at a time
    k, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
    crashes = data.draw(st.booleans())
    values = data.draw(proposals(n))
    inputs = dict(enumerate(values, 1))
    protocol = consensus_protocol()
    order = oracle_order(n, protocol.steps_per_process, crashes)
    out_lines, trace_lines = [], []
    for sched in order:
        end = run_schedule(protocol, inputs, k, sched)
        report = check_outcome(inputs, dict(end.decided), end.crashed)
        if not report.ok:
            steps = ",".join(format_schedule(sched))
            out_lines.append(f"violation: {steps} breaks {breaks(report)}")
            record = violation_record(k, n, inputs, sched, end.decided, end.crashed)
            trace_lines.append(serialize(record))
    label = "schedules including crash truncations" if crashes else "crash-free schedules"
    argv = ["verify", "--k", str(k), "--n", str(n), f"--inputs={','.join(map(str, values))}"]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "v.jsonl")
        code, out = listed(argv + ["--crashes"] * crashes, path)
        lines = text_lines(path)
    assert code == (1 if out_lines else 0)
    assert out.splitlines() == [f"{len(order)} {label}, {len(out_lines)} violations", *out_lines]
    assert lines == trace_lines


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_violate_listing_is_one_serialize_per_violation(data):
    k, most = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 200))
    values = data.draw(proposals(k + 1))
    inputs = dict(enumerate(values, 1))
    argv = ["violate", "--k", str(k), "--max", str(most)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "v.jsonl")
        code, out = listed(argv + [f"--inputs={','.join(map(str, values))}"], path)
        lines = text_lines(path) if os.path.exists(path) else None
    found = list(itertools.islice(find_violation(consensus_protocol(), k, k + 1, inputs), most))
    if not found:
        assert (code, out, lines) == (0, "no agreement violation found\n", None)
        return
    assert code == 1
    assert lines == [
        serialize(violation_record(k, k + 1, inputs, sched, decided, crashed))
        for sched, decided, crashed in found
    ]
    expected = []
    for sched, decided, _ in found:
        expected.append(f"schedule: {','.join(format_schedule(sched))}")
        expected.extend(f"  p{pid} decides {value}" for pid, value in decided)
    assert out.splitlines() == expected


@pytest.mark.parametrize(
    "argv, nodes",
    [
        (("--k", "6", "--n", "6"), "nodes: 4193473 "),
        # the unreduced explorer's count
        (("--k", "5", "--n", "5", "--crash-aware"), "nodes: 405392 "),
    ],
)
def test_valence_summary_counts_graphs_too_large_to_build(capsys, argv, nodes):
    # the unreduced k = n = 6 graph would take about 4.6 GB; the summary
    # counts it from one configuration per orbit
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "valence", *argv)
    elapsed = time.perf_counter() - start
    assert code == 0
    assert nodes in out
    assert elapsed < 10, f"valence {' '.join(argv)} took {elapsed:.1f} s"


def reference_json(vmap) -> list[str]:
    """The json export's lines, grouped from a whole ValenceMap's edges."""
    edges_by_src = [[] for _ in vmap.nodes]
    for src, step, dst in vmap.edges:
        edges_by_src[src].append((format_step(step), dst))
    return [
        serialize(ValenceNodeRecord(
            i, sorted_values(valence.values), critical, cfg.decided, tuple(edges)
        ))
        for i, (cfg, valence, critical, edges) in enumerate(
            zip(vmap.nodes, vmap.valences, vmap.critical, edges_by_src)
        )
    ]


def reference_dot(vmap) -> list[str]:
    """The dot export's lines from a whole ValenceMap."""
    lines = ["digraph valence {"]
    for i, (valence, critical) in enumerate(zip(vmap.valences, vmap.critical)):
        peripheries = ", peripheries=2" if critical else ""
        lines.append(f'  n{i} [label="{valence!r}"{peripheries}];')
    for src, step, dst in vmap.edges:
        lines.append(f'  n{src} -> n{dst} [label="{format_step(step)}"];')
    lines.append("}")
    return lines


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_valence_exports_match_the_valence_map(data):
    # the streamed exports against lines built from Explorer's whole map
    k = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 4 if k <= 2 else 3))
    crash_aware, fmt = data.draw(st.booleans()), data.draw(st.sampled_from(["json", "dot"]))
    if data.draw(st.booleans()):
        values = data.draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n, unique=True))
    else:
        values = data.draw(proposals(n))
    inputs = dict(enumerate(values, 1))
    vmap = Explorer(consensus_protocol(), inputs, k, crash_aware=crash_aware).valence_map()
    expected = (reference_json if fmt == "json" else reference_dot)(vmap)
    argv = ["valence", "--k", str(k), "--n", str(n), f"--inputs={','.join(map(str, values))}"]
    argv += ["--format", fmt] + ["--crash-aware"] * crash_aware
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "export.txt")
        code, out = listed(argv, path)
        lines = text_lines(path)
    assert code == 0
    assert out.splitlines() == lines == expected


def test_valence_crash_aware_adds_crash_edges(capsys):
    code, out, _ = run_cli(
        capsys, "valence", "--k", "1", "--n", "2", "--format", "json", "--crash-aware"
    )
    assert code == 0
    steps = [
        step
        for line in out.strip().splitlines()
        for step, _ in parse(line).edges
    ]
    assert any(step.startswith("C") for step in steps)


# lincheck


def test_lincheck_stress_small_run(capsys):
    code, out, _ = run_cli(
        capsys,
        "lincheck", "stress",
        "--threads", "2", "--ops", "2", "--histories", "5", "--seed", "3",
    )
    assert code == 0
    assert "5 histories checked, 0 non-linearizable" in out


def test_lincheck_stress_deep_history(capsys):
    # 1,200 operations in one history: deeper than the recursion limit
    code, out, _ = run_cli(
        capsys, "lincheck", "stress", "--threads", "4", "--ops", "300", "--histories", "1"
    )
    assert code == 0
    assert "1 histories checked, 0 non-linearizable" in out


def test_lincheck_stress_save_then_recheck(capsys, tmp_path):
    path = str(tmp_path / "history.jsonl")
    code, out, _ = run_cli(
        capsys,
        "lincheck", "stress",
        "--threads", "2", "--ops", "2", "--histories", "1", "--seed", "1",
        "--save", path,
    )
    assert code == 0
    assert f"saved history to {path}" in out
    code, out, _ = run_cli(capsys, "lincheck", "file", "--path", path)
    assert code == 0
    assert "linearizable (4 operations ordered)" in out


def test_lincheck_stress_catches_mutant(capsys):
    code, out, _ = run_cli(
        capsys,
        "lincheck", "stress",
        "--threads", "4", "--ops", "5", "--k", "2",
        "--histories", "20", "--seed", "0", "--mutant", "window-short",
    )
    assert code == 1
    words = out.split()
    assert words[0] == "20"
    assert int(words[3]) >= 1


def test_lincheck_file_rejects_wrong_record_type(capsys, tmp_path):
    path = str(tmp_path / "bad.jsonl")
    write_records(path, [ScheduleRecord(("E1",))])
    code, _, err = run_cli(capsys, "lincheck", "file", "--path", path)
    assert code == 2
    assert "error:" in err


def test_lincheck_file_rejects_garbage(capsys, tmp_path):
    path = tmp_path / "garbage.jsonl"
    path.write_text("not json at all\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "lincheck", "file", "--path", str(path))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "op, invoke, respond",
    [
        ("write", '"value":[1],"result":null', '"value":null,"result":null'),
        ("read", '"value":null,"result":null', '"value":null,"result":[{"a":1},null]'),
    ],
    ids=["list-written-value", "object-in-read-window"],
)
def test_lincheck_file_rejects_unhashable_values(capsys, tmp_path, op, invoke, respond):
    head = f'{{"type":"history-event","schema_version":1,"k":2,"pid":1,"op":"{op}",'
    path = tmp_path / "unhashable.jsonl"
    path.write_text(
        f'{head}"kind":"invoke","timestamp":0,{invoke}}}\n'
        f'{head}"kind":"respond","timestamp":1,{respond}}}\n',
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "lincheck", "file", "--path", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "not hashable" in err


def event_line(**fields):
    payload = {
        "type": "history-event", "schema_version": 1, "k": 2, "kind": "invoke",
        "pid": 1, "op": "write", "timestamp": 0, "value": 5, "result": None,
    }
    payload.update(fields)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


WRITE = [event_line(), event_line(kind="respond", timestamp=1, value=None)]
READ = [
    event_line(pid=2, op="read", timestamp=2, value=None),
    event_line(kind="respond", pid=2, op="read", timestamp=3, value=None, result=[None, 5]),
]
OUTCOME = '{"crashed":[],"decisions":[[1,0]],"schema_version":1,"type":"outcome"}'
# nesting past the decoder's recursion limit is malformed input, not an internal error
DEEP_ERROR = (
    "error: not valid JSON: maximum recursion depth exceeded "
    "while decoding a JSON {} from a unicode string"
)
# an integer past int()'s digit limit too, in the words the running Python uses
LONG_VALUE = WRITE[0].replace('"value":5', '"value":' + "9" * 5000)
try:
    int("9" * 5000)
    LONG_ERROR = ""
except ValueError as exc:
    LONG_ERROR = f"error: not valid JSON: {exc}"
NOT_OBJECT_KEY = (
    "error: not valid JSON: Expecting property name enclosed in double quotes: "
    "line 1 column 2 (char 1)"
)


@pytest.mark.parametrize(
    "lines, code, first_err",
    [
        (WRITE + READ, 0, ""),
        (["", "  " + WRITE[0], "", "\t" + WRITE[1], *READ, " "], 0, ""),
        (WRITE + [READ[0], event_line(**{**json.loads(READ[1]), "result": [None, 6]})], 1, ""),
        (WRITE + [READ[0], event_line(**{**json.loads(READ[1]), "result": [5]})], 2,
         "error: read window (5,) has 1 slots, expected 2"),
        (WRITE + [READ[0], event_line(**{**json.loads(READ[1]), "result": [None, None, 5]})], 2,
         "error: read window (⊥, ⊥, 5) has 3 slots, expected 2"),
        (WRITE + ["{not json"], 2, NOT_OBJECT_KEY),
        (WRITE[:1] + [WRITE[1] + " x"], 2, "error: not valid JSON: Extra data: line 1 column 130 (char 129)"),
        (WRITE[:1] + ["[1, 2]"], 2, "error: trace lines must be JSON objects"),
        (WRITE[:1] + [event_line(schema_version=2)], 2, "error: unsupported schema version 2"),
        (WRITE[:1] + [event_line(type="mystery")], 2, "error: unknown record type 'mystery'"),
        (['{"type":["history-event"],"schema_version":1}'], 2,
         "error: unknown record type ['history-event']"),
        (WRITE[:1] + [event_line(type={"a": 1})], 2, "error: unknown record type {'a': 1}"),
        (WRITE[:1] + [event_line(schema_version=True)], 2,
         "error: unsupported schema version True"),
        (WRITE[:1] + [event_line(schema_version=1.0)], 2, "error: unsupported schema version 1.0"),
        ([OUTCOME], 2, "error: history files hold history-event records, got "
         "OutcomeRecord(decisions=((1, 0),), crashed=())"),
        ([OUTCOME, WRITE[0], "{not json"], 2, NOT_OBJECT_KEY),
        (WRITE[:1] + [WRITE[1].replace(',"pid":1', "")], 2,
         "error: malformed history-event record: 'pid'"),
        (WRITE[:1] + [event_line(pid="x")], 2,
         "error: malformed history-event record: pid must be an integer, got 'x'"),
        (WRITE[:1] + [event_line(k=3, kind="respond", timestamp=1, value=None)], 2,
         "error: history events disagree on k: [2, 3]"),
        ([], 2, "error: history file holds no events"),
        (["", "   ", "\t"], 2, "error: history file holds no events"),
        ([event_line(value=[1]), WRITE[1]], 2, "error: written value [1] is not hashable"),
        (WRITE[:1] + ['{"crashed":[],"schema_version":1,"type":"outcome"}'], 2,
         "error: malformed outcome record: 'decisions'"),
        ([event_line(k=True)] + [line.replace('"k":2', '"k":true') for line in WRITE], 2,
         "error: malformed history-event record: k must be an integer, got True"),
        (WRITE[:1] + [event_line(kind="respond", pid=1.5, timestamp=1, value=None)], 2,
         "error: malformed history-event record: pid must be an integer, got 1.5"),
        ([event_line(timestamp=1.2)], 2,
         "error: malformed history-event record: timestamp must be an integer, got 1.2"),
        (WRITE + [READ[0], event_line(**{**json.loads(READ[1]), "result": "ab"})], 2,
         "error: malformed history-event record: result must be an array, got 'ab'"),
        (WRITE + [READ[0], event_line(**{**json.loads(READ[1]), "result": {"a": 5}})], 2,
         "error: malformed history-event record: result must be an array, got {'a': 5}"),
        (WRITE[:1] + ["[" * 100_000], 2, DEEP_ERROR.format("array")),
        (WRITE[:1] + ['{"a":' * 100_000 + "1" + "}" * 100_000], 2, DEEP_ERROR.format("object")),
        ([WRITE[0][:-1] + ',"deep":' + "[" * 100_000 + "]" * 100_000 + "}", WRITE[1]], 2,
         DEEP_ERROR.format("array")),
        ([LONG_VALUE, WRITE[1]], 2 if LONG_ERROR else 0, LONG_ERROR),
    ],
    ids=[
        "valid", "blank-and-padded", "not-linearizable", "window-too-short",
        "window-too-long", "bad-json", "extra-data",
        "non-object", "wrong-schema", "unknown-type", "array-type", "object-type",
        "bool-schema", "float-schema", "wrong-record-type",
        "wrong-record-type-then-bad-line", "missing-key", "bad-int", "mixed-k", "empty",
        "blank-only", "unhashable-value", "malformed-outcome", "bool-k", "float-pid",
        "float-timestamp", "string-window", "object-window", "deep-array", "deep-object",
        "deep-event", "long-value",
    ],
)
def test_lincheck_file_exit_code_and_first_error_line(capsys, tmp_path, lines, code, first_err):
    # integer fields are never coerced: 1.5, true and "2" are refused, not read as ints
    path = tmp_path / "history.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    got, out, err = run_cli(capsys, "lincheck", "file", "--path", str(path))
    assert (got, (err.splitlines() or [""])[0]) == (code, first_err)
    assert (out == "") == (code == 2)


def test_lincheck_file_missing_path(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "lincheck", "file", "--path", str(tmp_path / "nope.jsonl")
    )
    assert code == 2
    assert "error:" in err


def test_lincheck_stress_seed_comes_from_argv_alone(capsys, monkeypatch, tmp_path):
    # the same argv gives the same histories whatever the environment holds
    def run(name, *extra):
        path = tmp_path / name
        code, out, _ = run_cli(
            capsys,
            "lincheck", "stress", "--threads", "2", "--ops", "2", "--histories", "3",
            "--save", str(path), *extra,
        )
        return code, out.replace(str(path), "FILE"), path.read_bytes()

    monkeypatch.setenv("KSLIDE_SEED", "9")
    with_env = run("env.jsonl")
    monkeypatch.delenv("KSLIDE_SEED")
    assert with_env == run("bare.jsonl") == run("zero.jsonl", "--seed", "0")


# determinism and entry point


def test_violate_output_is_byte_stable(capsys, tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    run_cli(capsys, "violate", "--k", "2", "--output", str(a))
    run_cli(capsys, "violate", "--k", "2", "--output", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_internal_error_has_its_own_exit_code(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_verify", broken)
    code, out, err = run_cli(capsys, "verify", "--k", "1", "--n", "1")
    assert code == cli.EXIT_INTERNAL == 3
    assert out == ""
    assert err.startswith("internal error:")
    assert "RuntimeError: boom" in err


def history_file(tmp_path, k) -> str:
    path = tmp_path / "history.jsonl"
    lines = [event_line(k=k), event_line(k=k, kind="respond", timestamp=1, value=None)]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


# Only paths that size the window before anything else: a huge --n, violate
# --k, --threads or --ops would allocate until the host runs out of memory.
@pytest.mark.parametrize("k", [2**63, 2**62])
@pytest.mark.parametrize(
    "argv",
    [
        lambda k, tmp: ["verify", "--k", str(k), "--n", "1"],
        lambda k, tmp: ["valence", "--k", str(k), "--n", "2"],
        lambda k, tmp: ["lincheck", "stress", "--threads", "2", "--ops", "2",
                        "--histories", "1", "--k", str(k)],
        lambda k, tmp: ["lincheck", "file", "--path", history_file(tmp, k)],
    ],
    ids=["verify", "valence", "lincheck-stress", "lincheck-file"],
)
def test_window_too_large_to_allocate_is_a_usage_error(capsys, tmp_path, argv, k):
    code, out, err = run_cli(capsys, *argv(k, tmp_path))
    assert (code, out, err) == (2, "", f"error: window size {k} is too large\n")


def test_module_entry_point(capsys, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "kslide", "verify", "--k", "1", "--n", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "1 crash-free schedules, 0 violations" in proc.stdout
    # main reads sys.argv[1:] and builds the parser for both levels it names
    path = str(tmp_path / "history.jsonl")
    run_cli(
        capsys, "lincheck", "stress", "--threads", "2", "--ops", "2", "--histories", "1",
        "--save", path,
    )
    proc = subprocess.run(
        [sys.executable, "-m", "kslide", "lincheck", "file", "--path", path],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "linearizable (4 operations ordered)\n", ""
    )


def test_start_up_imports_neither_dataclasses_nor_inspect():
    # every kslide process pays for these imports; value types are named tuples
    code = (
        "import sys, kslide.cli; kslide.cli.build_parser(); "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def fresh_main(*argvs) -> tuple[str, str]:
    """(stderr, stdout) of a fresh interpreter that imports kslide.cli,
    builds the full parser, runs main on each argv in turn and then prints
    the exit codes and whether json is loaded to stderr."""
    code = (
        "import sys, kslide.cli; kslide.cli.build_parser()\n"
        f"codes = [kslide.cli.main(argv) for argv in {list(map(list, argvs))!r}]\n"
        "print(codes, 'json' in sys.modules, file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    return proc.stderr, proc.stdout


STRESS = ["lincheck", "stress", "--threads", "3", "--ops", "4", "--histories", "2"]


def test_commands_that_move_no_record_never_import_json(capsys, tmp_path):
    # json is about 2 ms of a process's start-up, and only serialize and
    # parse load it: the parser, verify, the census, the dot export, violate
    # and stress with no file, and lincheck file on the lines stress --save
    # writes never do
    path = str(tmp_path / "history.jsonl")
    assert main(STRESS + ["--save", path]) == 0
    capsys.readouterr()
    argvs = (
        ["verify", "--k", "2", "--n", "2"],
        ["valence", "--k", "2", "--n", "2"],
        ["valence", "--k", "2", "--n", "2", "--format", "dot"],
        ["violate", "--k", "1"],
        STRESS,
        ["lincheck", "file", "--path", path],
    )
    stderr, stdout = fresh_main(*argvs)
    assert stderr == "[0, 0, 0, 1, 0, 0] False\n"
    assert stdout.endswith("\nlinearizable (12 operations ordered)\n")


def test_serialize_and_parse_import_json_on_first_use(capsys, tmp_path):
    # a space-padded history line is decoded by parse, and verify --output
    # encodes with serialize: each loads json in its own fresh interpreter
    # and gives the bytes pinned in the tests above
    history, padded, replay = (tmp_path / name for name in ("h.jsonl", "p.jsonl", "r.jsonl"))
    assert main(STRESS + ["--save", str(history)]) == 0
    capsys.readouterr()
    first, *rest = history.read_text(encoding="utf-8").splitlines(keepends=True)
    padded.write_text(" " + first + "".join(rest), encoding="utf-8")
    assert fresh_main(["lincheck", "file", "--path", str(padded)]) == (
        "[0] True\n", "linearizable (12 operations ordered)\n"
    )
    stderr, stdout = fresh_main(
        ["verify", "--k", "2", "--n", "2", "--schedule", "E1,C1,E2,E2", "--output", str(replay)]
    )
    assert stderr == "[0] True\n"
    assert hashlib.sha256(stdout.encode()).hexdigest() == (
        "1b92a82d18318061f87854085ee56d34f8753a9212c1248b091ce80f85305598"
    )
    assert hashlib.sha256(replay.read_bytes()).hexdigest() == (
        "cda64c29d993fb55a900dcc95d6e5b0520156dd0ff8c27fbb69e84155ad61549"
    )


@pytest.mark.parametrize(
    "module", ["register", "consensus", "sim", "valence", "lincheck", "trace", "cli"]
)
def test_each_module_imports_on_its_own(module):
    # the package itself imports nothing, so a module imported first in a
    # fresh interpreter shows any import cycle it takes part in
    proc = subprocess.run(
        [sys.executable, "-c", f"import kslide.{module}"], capture_output=True, text=True
    )
    assert (proc.returncode, proc.stderr) == (0, "")


CENSUS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts", "valence_census.py")


@pytest.mark.parametrize(
    "argv, code, first_line",
    [
        (["--k", "2", "--n", "2"], 0, "root: Bivalent({0, 1})"),
        (["--n", "3", "--inputs", "1"], 2, "error: --inputs needs 3 values, got 1"),
        (["--n", "2", "--inputs", "1,2,3"], 2, "error: --inputs needs 2 values, got 3"),
        (["--k", "0"], 2, "error: --k must be at least 1, got 0"),
    ],
    ids=["good", "short-inputs", "long-inputs", "zero-k"],
)
def test_valence_census_checks_arguments_as_the_cli_does(argv, code, first_line):
    proc = subprocess.run([sys.executable, CENSUS, *argv], capture_output=True, text=True)
    output, silent = (proc.stdout, proc.stderr) if code == 0 else (proc.stderr, proc.stdout)
    assert (proc.returncode, output.splitlines()[0], silent) == (code, first_line, "")


@pytest.mark.parametrize(
    "argv, lines, digest",
    [
        (
            ["--k", "2", "--n", "2", "--crash-aware"],
            5,
            "dc84fc5775f0776c414070d34adfc21f15f73ffdd6dc8528c18df1fd64ca93a7",
        ),
        (
            ["--k", "3", "--n", "4"],
            556,
            "887c40220798822cd77afcf6df68d5f56b46800a230413504d457a3af84d154d",
        ),
    ],
    ids=["k2-n2-crash-aware", "k3-n4"],
)
def test_valence_census_output_matches_pinned_digest(argv, lines, digest):
    # SHA-256 of the script's whole stdout: counts, and every critical
    # configuration with its pending operations and successor valences
    proc = subprocess.run([sys.executable, CENSUS, *argv], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr, len(proc.stdout.splitlines())) == (0, "", lines)
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize("columns", [40, 100])
def test_help_is_what_argparse_formats(monkeypatch, columns):
    # build_parser reads the terminal width once per build; every parser's
    # help must still be what argparse's formatter, reading it per call, gives
    monkeypatch.setenv("COLUMNS", str(columns))
    parsers = [cli.build_parser()]
    for parser in parsers:  # grows as subcommand parsers are found
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    assert len(parsers) == 7
    for parser in parsers:
        built = parser.format_help()
        parser.formatter_class = argparse.HelpFormatter
        assert parser.format_help() == built


# README examples


README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


def readme_examples():
    """[argv, expected stdout lines, exit code or None] for every README.md
    sh-block line that starts with `kslide `, in order. The `# ` lines right
    after a command are its stdout; one ending in `(exit code N)` also gives
    the exit code. Indented lines, such as a `for` loop's body, are skipped."""
    examples, current, in_sh = [], None, False
    with open(README, encoding="utf-8") as f:
        for line in f.read().splitlines():
            if line.startswith("```"):
                in_sh, current = line == "```sh", None
            elif in_sh and line.startswith("kslide "):
                current = [shlex.split(line, comments=True)[1:], [], None]
                examples.append(current)
            elif in_sh and current is not None and line.startswith("# "):
                shown = re.fullmatch(r"(.*?)\s+\(exit code (\d+)\)", line[2:])
                if shown:
                    current[1].append(shown[1])
                    current[2] = int(shown[2])
                else:
                    current[1].append(line[2:])
            else:
                current = None
    return examples


def test_readme_command_examples_print_what_they_show(capsys, monkeypatch, tmp_path):
    # later examples read the files earlier ones write, so all run in one directory
    monkeypatch.chdir(tmp_path)
    examples = readme_examples()
    assert examples
    for argv, expected, code in examples:
        got, out, err = run_cli(capsys, *argv)
        if expected:
            assert out.splitlines() == expected, argv
        if code is None:
            assert got in (cli.EXIT_OK, cli.EXIT_VIOLATION), (argv, err)
        else:
            assert got == code, argv


# the parser for one argv


def _parsers(parser):
    """parser and every subparser reachable from it."""
    parsers = [parser]
    for parser in parsers:  # grows as subcommand parsers are found
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    return parsers


@pytest.mark.parametrize(
    "argv, count",
    [
        (["lincheck", "file", "--path", "x"], 3),
        (["verify", "--k", "1"], 2),
        (None, 7),
        (["--help"], 7),
        (["verfy"], 7),
    ],
)
def test_parser_builds_only_the_named_command(argv, count):
    assert len(_parsers(cli.build_parser(argv))) == count


def _parse(parser, argv):
    """parse_args's Namespace, or its exit code with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


PARSE_CORPUS = [argv for argv, _, _ in readme_examples()] + [
    ["-h"],
    *[[command, "-h"] for command in ("verify", "violate", "valence", "lincheck")],
    ["lincheck", "stress", "-h"],
    ["lincheck", "file", "-h"],
    [],
    ["verfy"],
    ["lincheck"],
    ["lincheck", "stres"],
    ["verify", "--k", "2", "--n", "2", "extra"],
    ["lincheck", "file", "--path", "x", "extra"],
    ["valence", "--k", "2", "--n", "2", "--format", "yaml"],
    ["lincheck", "stress", "--mutant", "zz"],
    ["valence", "--k", "2", "--n", "2", "--crash"],
    ["lincheck", "file", "--pa", "x"],
    ["--k", "2", "verify"],
    ["lincheck", "--path", "x", "file"],
]


@pytest.mark.parametrize("argv", PARSE_CORPUS, ids=shlex.join)
def test_parser_for_argv_parses_as_the_full_parser(monkeypatch, argv):
    # the same Namespace, or the same exit code, help and error text
    monkeypatch.setenv("COLUMNS", "80")
    assert _parse(cli.build_parser(argv), argv) == _parse(cli.build_parser(), argv)
