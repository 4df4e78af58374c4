import hashlib
import json
import subprocess
import sys

import pytest

from kslide import cli
from kslide.cli import main
from kslide.sim import consensus_protocol, parse_schedule, run_schedule
from kslide.trace import (
    HistoryEventRecord,
    OutcomeRecord,
    ScheduleRecord,
    ValenceNodeRecord,
    ViolationRecord,
    parse,
    read_records,
    serialize,
    write_records,
)


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv("KSLIDE_SEED", raising=False)


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
    code, _, err = run_cli(capsys, "verify", "--k", "2", "--n", "2", "--inputs", "a,b")
    assert code == 2
    assert "comma-separated integers" in err


def test_verify_replays_one_schedule(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--k", "2", "--n", "2", "--schedule", "E1,E1,E2,E2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert parse(lines[0]) == ScheduleRecord(("E1", "E1", "E2", "E2"))
    assert parse(lines[1]) == OutcomeRecord(((1, 0), (2, 0)), ())
    assert lines[2] == "properties: validity=True agreement=True termination=True"


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
    code, _, err = run_cli(
        capsys, "verify", "--k", "2", "--n", "2", "--schedule", "E1,bogus"
    )
    assert code == 2
    assert "error:" in err


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


def test_violate_records_replay_to_same_outcome(capsys, tmp_path):
    path = str(tmp_path / "violations.jsonl")
    code, _, _ = run_cli(capsys, "violate", "--k", "2", "--output", path)
    assert code == 1
    records = read_records(path)
    assert records
    protocol = consensus_protocol()
    for record in records:
        out = run_schedule(
            protocol, dict(record.inputs), record.k, parse_schedule(record.schedule)
        )
        assert tuple(sorted(out.decisions.items())) == record.decisions
        assert tuple(sorted(out.crashed)) == record.crashed
        assert len(set(dict(record.decisions).values())) >= 2


# valence


def test_valence_text_summary(capsys):
    code, out, _ = run_cli(capsys, "valence", "--k", "2", "--n", "2")
    assert code == 0
    assert "root: Bivalent({0, 1})" in out
    assert "critical configurations: 1" in out


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
        assert fh.read().strip() == out.strip()


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
    ],
)
def test_valence_output_matches_pinned_digest(capsys, argv, digest):
    # SHA-256 of stdout as the recursive explorer printed it: node, edge and
    # critical order and every valence label stay byte-identical
    code, out, _ = run_cli(capsys, "valence", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
    ],
)
def test_violation_listing_matches_pinned_digest(capsys, argv, digest):
    # SHA-256 of stdout as the per-schedule replay printed it: schedule
    # counts, violation order and decisions stay byte-identical
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
        (WRITE + ["{not json"], 2, NOT_OBJECT_KEY),
        (WRITE[:1] + [WRITE[1] + " x"], 2, "error: not valid JSON: Extra data: line 1 column 130 (char 129)"),
        (WRITE[:1] + ["[1, 2]"], 2, "error: trace lines must be JSON objects"),
        (WRITE[:1] + [event_line(schema_version=2)], 2, "error: unsupported schema version 2"),
        (WRITE[:1] + [event_line(type="mystery")], 2, "error: unknown record type 'mystery'"),
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
    ],
    ids=[
        "valid", "blank-and-padded", "not-linearizable", "bad-json", "extra-data",
        "non-object", "wrong-schema", "unknown-type", "wrong-record-type",
        "wrong-record-type-then-bad-line", "missing-key", "bad-int", "mixed-k", "empty",
        "blank-only", "unhashable-value", "malformed-outcome", "bool-k", "float-pid",
        "float-timestamp",
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


def test_lincheck_seed_env_var(capsys, monkeypatch, tmp_path):
    a = str(tmp_path / "a.jsonl")
    b = str(tmp_path / "b.jsonl")
    monkeypatch.setenv("KSLIDE_SEED", "9")
    run_cli(
        capsys,
        "lincheck", "stress",
        "--threads", "2", "--ops", "2", "--histories", "1", "--save", a,
    )
    monkeypatch.delenv("KSLIDE_SEED")
    run_cli(
        capsys,
        "lincheck", "stress",
        "--threads", "2", "--ops", "2", "--histories", "1", "--seed", "9", "--save", b,
    )
    ops_a = [(r.pid, r.op, r.value) for r in read_records(a) if r.kind == "invoke"]
    ops_b = [(r.pid, r.op, r.value) for r in read_records(b) if r.kind == "invoke"]
    assert ops_a == ops_b


def test_lincheck_rejects_bad_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("KSLIDE_SEED", "not-a-number")
    code, _, err = run_cli(
        capsys, "lincheck", "stress", "--threads", "2", "--ops", "2", "--histories", "1"
    )
    assert code == 2
    assert "KSLIDE_SEED" in err


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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "kslide", "verify", "--k", "1", "--n", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "1 crash-free schedules, 0 violations" in proc.stdout
