import json
import os
import re
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kslide import trace
from kslide.cli import main
from kslide.lincheck import Event, History
from kslide.register import BOTTOM
from kslide.sim import consensus_protocol, default_inputs, parse_schedule, run_schedule
from kslide.trace import (
    HistoryEventRecord,
    OutcomeRecord,
    ScheduleRecord,
    TraceError,
    ValenceNodeRecord,
    ViolationRecord,
    decode_window,
    encode_window,
    history_from_records,
    history_to_records,
    outcome_record,
    parse,
    read_history,
    read_records,
    serialize,
    violation_record,
    write_records,
)

windows = st.lists(
    st.one_of(st.none(), st.integers(0, 9)), min_size=1, max_size=5
).map(decode_window)

step_strings = st.lists(
    st.tuples(st.sampled_from("EC"), st.integers(1, 9)).map(lambda p: f"{p[0]}{p[1]}"),
    max_size=6,
).map(tuple)

pid_value_pairs = st.lists(
    st.tuples(st.integers(1, 9), st.integers(0, 9)), max_size=4, unique_by=lambda p: p[0]
).map(lambda pairs: tuple(sorted(pairs)))


def test_window_encoding():
    assert encode_window((BOTTOM, 3)) == [None, 3]
    assert decode_window([None, 3]) == (BOTTOM, 3)
    assert decode_window(encode_window((BOTTOM, BOTTOM))) == (BOTTOM, BOTTOM)


records = st.one_of(
    step_strings.map(ScheduleRecord),
    st.tuples(pid_value_pairs, st.lists(st.integers(1, 9), max_size=3, unique=True))
    .map(lambda t: OutcomeRecord(t[0], tuple(sorted(t[1])))),
    st.tuples(
        st.integers(1, 4), st.integers(1, 5), pid_value_pairs, step_strings,
        pid_value_pairs, st.lists(st.integers(1, 9), max_size=2, unique=True),
    ).map(lambda t: ViolationRecord(t[0], t[1], t[2], t[3], t[4], tuple(sorted(t[5])))),
    st.tuples(
        st.integers(0, 50), st.lists(st.integers(0, 9), max_size=3, unique=True),
        st.booleans(), pid_value_pairs,
        st.lists(st.tuples(st.sampled_from(["E1", "E2", "C1"]), st.integers(0, 50)), max_size=4).map(tuple),
    ).map(lambda t: ValenceNodeRecord(t[0], tuple(sorted(t[1])), t[2], t[3], t[4])),
    st.tuples(
        st.integers(1, 4), st.sampled_from(["invoke", "respond"]),
        st.integers(1, 9), st.sampled_from(["read", "write"]),
        st.integers(0, 99), st.one_of(st.none(), st.integers(0, 9)),
        st.one_of(st.none(), windows),
    ).map(lambda t: HistoryEventRecord(*t)),
)


@given(records)
def test_every_record_round_trips(record):
    line = serialize(record)
    assert parse(line) == record
    # byte stability
    assert serialize(parse(line)) == line


TYPE_NAMES = {
    ScheduleRecord: "schedule",
    OutcomeRecord: "outcome",
    ViolationRecord: "violation",
    ValenceNodeRecord: "valence-node",
    HistoryEventRecord: "history-event",
}

# what json encodes, tuples included, with strings that need escaping
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(), inner, max_size=3),
    ),
    max_leaves=8,
)


def dumped(record) -> str:
    """The record's line as json.dumps writes its payload."""
    payload = record._asdict()
    if isinstance(record, HistoryEventRecord) and record.result is not None:
        payload["result"] = encode_window(record.result)
    payload.update(type=TYPE_NAMES[type(record)], schema_version=1)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@given(records, st.data())
def test_serialize_writes_what_json_dumps_writes(record, data):
    assert serialize(record) == dumped(record)
    # any one field but a history event's result window holding any JSON value
    field = data.draw(st.sampled_from([f for f in record._fields if f != "result"]))
    record = record._replace(**{field: data.draw(json_values)})
    assert serialize(record) == dumped(record)


@given(records, st.data(), st.sampled_from([object(), 1j, Ellipsis, b"E1"]))
def test_serialize_still_rejects_values_json_cannot_encode(record, data, bad):
    field = data.draw(st.sampled_from([f for f in record._fields if f != "result"]))
    with pytest.raises(TypeError):
        serialize(record._replace(**{field: bad}))
    with pytest.raises(TypeError):
        serialize(record._replace(**{field: (1, {"nested": bad})}))


def test_serialized_lines_carry_type_and_version():
    line = serialize(ScheduleRecord(("E1", "E2")))
    assert '"type":"schedule"' in line
    assert '"schema_version":1' in line


PINNED = {
    "schedule": (
        ScheduleRecord(("E1", "C2")),
        '{"schema_version":1,"steps":["E1","C2"],"type":"schedule"}',
    ),
    "outcome": (
        OutcomeRecord(((1, 0), (3, 1)), (2,)),
        '{"crashed":[2],"decisions":[[1,0],[3,1]],"schema_version":1,"type":"outcome"}',
    ),
    "violation": (
        ViolationRecord(
            2, 3, ((1, 0), (2, 1), (3, 2)), ("E1", "E2", "E3"), ((1, 0), (2, 1)), ()
        ),
        '{"crashed":[],"decisions":[[1,0],[2,1]],"inputs":[[1,0],[2,1],[3,2]],'
        '"k":2,"n":3,"schedule":["E1","E2","E3"],"schema_version":1,"type":"violation"}',
    ),
    "valence-node": (
        ValenceNodeRecord(4, (0, 1), True, ((1, 0),), (("E2", 7), ("C2", 8))),
        '{"critical":true,"decided":[[1,0]],"edges":[["E2",7],["C2",8]],"node":4,'
        '"schema_version":1,"type":"valence-node","values":[0,1]}',
    ),
    "history-event": (
        HistoryEventRecord(2, "respond", 1, "read", 5, None, (BOTTOM, 7)),
        '{"k":2,"kind":"respond","op":"read","pid":1,"result":[null,7],'
        '"schema_version":1,"timestamp":5,"type":"history-event","value":null}',
    ),
}


@pytest.mark.parametrize("record, line", PINNED.values(), ids=PINNED)
def test_serialized_bytes_are_pinned(record, line):
    assert serialize(record) == line


def _without(name, field):
    payload = json.loads(PINNED[name][1])
    del payload[field]
    return json.dumps(payload)


MISSING = [(name, field) for name, (record, _) in PINNED.items() for field in record._fields]


@pytest.mark.parametrize(
    "line, message",
    [(_without(name, field), f"malformed {name} record: {field!r}") for name, field in MISSING]
    + [
        (
            PINNED["violation"][1].replace('"k":2', '"k":true').replace('"n":3', '"n":1.5'),
            "malformed violation record: k must be an integer, got True",
        ),
        (
            PINNED["history-event"][1].replace('"k":2', '"k":true').replace(
                '"result":[null,7],', ""
            ),
            "malformed history-event record: k must be an integer, got True",
        ),
    ],
    ids=[f"no-{field}-in-{name}" for name, field in MISSING]
    + ["bad-k-and-n", "bad-k-and-no-result"],
)
def test_decoding_names_the_first_bad_field(line, message):
    # fields are decoded in declaration order, so the first missing or
    # mistyped one is the one the error names
    with pytest.raises(TraceError) as raised:
        parse(line)
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "line",
    [
        "not json",
        "[1, 2]",
        '{"type": "schedule"}',  # missing schema_version
        '{"type": "schedule", "schema_version": 2, "steps": []}',
        '{"type": "mystery", "schema_version": 1}',
        '{"type": "schedule", "schema_version": 1}',  # missing field
    ],
)
def test_parse_rejects_bad_lines(line):
    with pytest.raises(TraceError):
        parse(line)


@pytest.mark.parametrize(
    "line,expected",
    [
        (
            '{"type": "schedule", "schema_version": 1, "steps": ["E1"]}  x',
            "not valid JSON: Extra data: line 1 column 61 (char 60)",
        ),
        (
            ' \t{"type": "schedule", "schema_version": 1, "steps": ["E1", "C2"]} \n',
            ScheduleRecord(("E1", "C2")),
        ),
        ("[1, 2]", "trace lines must be JSON objects"),
        (
            '{"type": "schedule", "schema_version": 2, "steps": []}',
            "unsupported schema version 2",
        ),
        ('{"type": "mystery", "schema_version": 1}', "unknown record type 'mystery'"),
        # a type that is not a string names no record, and the version is
        # never coerced: an array or object type used to raise TypeError
        (
            '{"type": ["schedule"], "schema_version": 1, "steps": []}',
            "unknown record type ['schedule']",
        ),
        (
            '{"type": {"schedule": 1}, "schema_version": 1, "steps": []}',
            "unknown record type {'schedule': 1}",
        ),
        (
            '{"type": "schedule", "schema_version": true, "steps": []}',
            "unsupported schema version True",
        ),
        (
            '{"type": "schedule", "schema_version": 1.0, "steps": []}',
            "unsupported schema version 1.0",
        ),
    ],
    ids=["trailing-data", "surrounding-space", "array", "schema-version", "unknown-type",
         "array-type", "object-type", "bool-schema-version", "float-schema-version"],
)
def test_parse_results_are_pinned(line, expected):
    if isinstance(expected, str):
        with pytest.raises(TraceError) as raised:
            parse(line)
        assert str(raised.value) == expected
    else:
        record = parse(line)
        assert (type(record), record) == (type(expected), expected)


def test_serialize_rejects_foreign_objects():
    with pytest.raises(TraceError):
        serialize({"type": "schedule"})


def test_outcome_record_from_run():
    proto = consensus_protocol()
    end = run_schedule(proto, default_inputs(2), 1, parse_schedule(["E1", "E1", "E2", "E2"]))
    record = outcome_record(end)
    assert record == OutcomeRecord(decisions=((1, 0), (2, 1)), crashed=())
    assert parse(serialize(record)) == record


def test_violation_record_keeps_replay_context():
    proto = consensus_protocol()
    sched = parse_schedule(["E1", "E1", "E2", "E3", "E2"])
    end = run_schedule(proto, default_inputs(3), 2, sched)
    record = violation_record(2, 3, default_inputs(3), sched, end.decided, end.crashed)
    assert record.schedule == ("E1", "E1", "E2", "E3", "E2")
    assert record.inputs == ((1, 0), (2, 1), (3, 2))
    assert record.decisions == ((1, 0), (2, 1))
    replayed = run_schedule(
        proto,
        dict(record.inputs),
        record.k,
        parse_schedule(record.schedule),
    )
    assert replayed.decided == record.decisions


def test_history_records_round_trip():
    history = History(
        2,
        [
            Event("invoke", 1, "write", 0, value=5),
            Event("respond", 1, "write", 1),
            Event("invoke", 2, "read", 2),
            Event("respond", 2, "read", 3, result=(BOTTOM, 5)),
        ],
    )
    back = history_from_records(history_to_records(history))
    assert back == history


def test_history_from_records_validates_k():
    records = [
        HistoryEventRecord(1, "invoke", 1, "write", 0, value=5),
        HistoryEventRecord(2, "respond", 1, "write", 1),
    ]
    with pytest.raises(TraceError):
        history_from_records(records)
    with pytest.raises(TraceError):
        history_from_records([])


def test_file_round_trip(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    originals = [
        ScheduleRecord(("E1", "C2")),
        OutcomeRecord(((1, 0),), (2,)),
    ]
    write_records(path, originals)
    assert read_records(path) == originals


@pytest.mark.parametrize(
    "line, message",
    [
        (
            '{"type":"history-event","schema_version":1,"k":true,"kind":"invoke",'
            '"pid":1,"op":"read","timestamp":0,"value":null,"result":null}',
            "malformed history-event record: k must be an integer, got True",
        ),
        (
            '{"type":"history-event","schema_version":1,"k":2,"kind":"invoke",'
            '"pid":1.5,"op":"read","timestamp":0,"value":null,"result":null}',
            "malformed history-event record: pid must be an integer, got 1.5",
        ),
        (
            '{"type":"history-event","schema_version":1,"k":2,"kind":"invoke",'
            '"pid":1,"op":"read","timestamp":1.2,"value":null,"result":null}',
            "malformed history-event record: timestamp must be an integer, got 1.2",
        ),
        (
            '{"type":"history-event","schema_version":1,"k":"2","kind":"invoke",'
            '"pid":1,"op":"read","timestamp":0,"value":null,"result":null}',
            "malformed history-event record: k must be an integer, got '2'",
        ),
        (
            '{"type":"outcome","schema_version":1,"decisions":[[true,0]],"crashed":[]}',
            "malformed outcome record: pid must be an integer, got True",
        ),
        (
            '{"type":"outcome","schema_version":1,"decisions":[],"crashed":["2"]}',
            "malformed outcome record: pid must be an integer, got '2'",
        ),
        (
            '{"type":"violation","schema_version":1,"k":2.0,"n":3,"inputs":[],'
            '"schedule":[],"decisions":[],"crashed":[]}',
            "malformed violation record: k must be an integer, got 2.0",
        ),
        (
            '{"type":"violation","schema_version":1,"k":2,"n":3,"inputs":[[1.0,0]],'
            '"schedule":[],"decisions":[],"crashed":[]}',
            "malformed violation record: pid must be an integer, got 1.0",
        ),
        (
            '{"type":"valence-node","schema_version":1,"node":false,"values":[],'
            '"critical":false,"decided":[],"edges":[]}',
            "malformed valence-node record: node must be an integer, got False",
        ),
        (
            '{"type":"valence-node","schema_version":1,"node":0,"values":[],'
            '"critical":false,"decided":[],"edges":[["E1",1.5]]}',
            "malformed valence-node record: node must be an integer, got 1.5",
        ),
        (
            '{"type":"schedule","schema_version":1,"steps":"E1"}',
            "malformed schedule record: steps must be an array, got 'E1'",
        ),
        (
            '{"type":"history-event","schema_version":1,"k":2,"kind":"respond",'
            '"pid":1,"op":"read","timestamp":1,"value":null,"result":"ab"}',
            "malformed history-event record: result must be an array, got 'ab'",
        ),
        (
            '{"type":"valence-node","schema_version":1,"node":0,"values":[],'
            '"critical":"false","decided":[],"edges":[]}',
            "malformed valence-node record: critical must be a boolean, got 'false'",
        ),
        (
            '{"type":"outcome","schema_version":1,"decisions":[],"crashed":{"2":true}}',
            "malformed outcome record: crashed must be an array, got {'2': True}",
        ),
        (
            '{"type":"violation","schema_version":1,"k":2,"n":3,"inputs":[],'
            '"schedule":"E1,E2","decisions":[],"crashed":[]}',
            "malformed violation record: schedule must be an array, got 'E1,E2'",
        ),
        (
            '{"type":"valence-node","schema_version":1,"node":0,"values":"01",'
            '"critical":false,"decided":[],"edges":[]}',
            "malformed valence-node record: values must be an array, got '01'",
        ),
        (
            '{"type":"valence-node","schema_version":1,"node":0,"values":[],'
            '"critical":false,"decided":[],"edges":{"E1":1}}',
            "malformed valence-node record: edges must be an array, got {'E1': 1}",
        ),
    ],
    ids=[
        "bool-k", "float-pid", "float-timestamp", "string-k", "bool-decision-pid",
        "string-crashed-pid", "float-violation-k", "float-input-pid", "bool-node",
        "float-edge-destination", "string-steps", "string-result", "string-critical",
        "object-crashed", "string-schedule", "string-values", "object-edges",
    ],
)
def test_integer_fields_must_be_json_integers(line, message):
    with pytest.raises(TraceError) as raised:
        parse(line)
    assert str(raised.value) == message


def reference_history(path):
    """What lincheck file decoded before read_history: every record, then a
    record-type check, then history_from_records."""
    records = read_records(path)
    for record in records:
        if not isinstance(record, HistoryEventRecord):
            raise TraceError(f"history files hold history-event records, got {record!r}")
    return history_from_records(records)


# alterations that set one field of a history-event line to a constant
FIELD_VALUES = {
    "schema": ("schema_version", 2),
    "bool-schema": ("schema_version", True),
    "float-schema": ("schema_version", 1.0),
    "array-type": ("type", ["history-event"]),
    "bool-k": ("k", True),
    "string-result": ("result", "ab"),
    "object-result": ("result", {"a": 5}),
    "extra-key": ("note", 1),  # accepted, like any field no record has
}


# alterations that set one field of a history-event line to raw JSON text,
# keeping serialize's key order and separators everywhere else
FIELD_TEXTS = {
    "minus-zero": ("pid", "-0"),
    "leading-zero-pid": ("pid", "01"),
    "18-digit-value": ("value", "-" + "9" * 18),
    "19-digit-value": ("value", "9" * 19),
    "25-digit-value": ("value", "-" + "9" * 25),
    "5000-digit-value": ("value", "9" * 5000),  # past int()'s digit limit
    "negative-slots": ("result", "[-1,null,-20]"),
    "string-value": ("value", '"ab"'),
    "float-value": ("value", "1.5"),
    "true-value": ("value", "true"),
    "unknown-kind": ("kind", '"begin"'),
    "unknown-op": ("op", '"cas"'),
}


def alter(line, how):
    """One history-event line changed the way `how` names; "crlf" changes
    the file's line endings instead."""
    if how in FIELD_TEXTS:
        name, text = FIELD_TEXTS[how]
        return re.sub(rf'"{name}":(null|-?[0-9]+|"[a-z]*"|\[[^]]*\])', lambda _: f'"{name}":{text}', line)
    payload = json.loads(line)
    if how == "bad-json":
        return line[:-1]
    if how == "trailing-data":
        return f"{line} x"
    if how == "deep":  # nested past the JSON decoder's recursion limit
        return f'{line[:-1]},"deep":{"[" * 100_000}{"]" * 100_000}}}'
    if how == "outcome":
        return serialize(OutcomeRecord(((1, 0),), ()))
    if how == "missing-key":
        del payload["op"]
    elif how == "two-faults":  # the error names the first in declaration order
        payload["k"] = True
        del payload["result"]
    elif how in FIELD_VALUES:
        name, value = FIELD_VALUES[how]
        payload[name] = value
    elif how == "other-k":
        payload["k"] += 1
    elif how == "float-pid":
        payload["pid"] += 0.5
    elif how == "float-timestamp":
        payload["timestamp"] += 0.5
    elif how == "blank":
        return "  "
    elif how == "padded":
        return f" \t{line}  "
    elif how == "reordered-keys":
        return json.dumps(dict(reversed(payload.items())), separators=(",", ":"))
    elif how == "crlf":
        return line
    return json.dumps(payload)  # json's default separators


history_lines = st.lists(
    st.tuples(
        st.sampled_from(["invoke", "respond"]), st.integers(1, 3),
        st.sampled_from(["read", "write"]),
        st.one_of(st.none(), st.integers(0, 9), st.integers(-(10**19), 10**19)),
        st.one_of(st.none(), windows),
    ),
    max_size=6,
).map(
    lambda events: [
        serialize(HistoryEventRecord(2, kind, pid, op, ts, value, result))
        for ts, (kind, pid, op, value, result) in enumerate(events)
    ]
)
ALTERATIONS = [
    None, "bad-json", "outcome", "missing-key", "two-faults", "other-k", "float-pid", "float-timestamp",
    "blank", "padded", "trailing-data", "deep", "default-separators", "reordered-keys", "crlf",
    *FIELD_VALUES, *FIELD_TEXTS,
]


def assert_read_history_matches_reference(lines, how, where, blank_lines):
    """read_history on the lines, line where altered by how, gives the
    history or the error message that reference_history gives."""
    if how is not None and lines:
        where %= len(lines)
        lines = lines[:where] + [alter(lines[where], how)] + lines[where + 1 :]
    if blank_lines:
        lines = ["", *lines, "   ", ""]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "history.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(line + ("\r\n" if how == "crlf" else "\n") for line in lines))
        try:
            expected = reference_history(path)
        except TraceError as exc:
            with pytest.raises(TraceError) as raised:
                read_history(path)
            assert str(raised.value) == str(exc)
        else:
            assert read_history(path) == expected


@given(history_lines, st.sampled_from(ALTERATIONS), st.integers(0, 5), st.booleans())
@example(["{}", "{}"], "outcome", 0, False)  # a record of another type, then a bad line
@settings(deadline=None, max_examples=300)
def test_read_history_matches_records_then_history(lines, how, where, blank_lines):
    assert_read_history_matches_reference(lines, how, where, blank_lines)


@pytest.mark.parametrize("how", ALTERATIONS)
def test_read_history_matches_records_on_each_alteration(how):
    # every alteration on every line of one history, so none is left to chance
    events = [("invoke", 1, "write", 0, 5, None), ("invoke", 2, "read", 1, None, None),
              ("respond", 1, "write", 2, None, None), ("respond", 2, "read", 3, None, (BOTTOM, 5))]
    lines = [serialize(HistoryEventRecord(2, *event)) for event in events]
    for where in range(len(lines)):
        assert_read_history_matches_reference(lines, how, where, False)


def test_read_history_matches_records_on_a_saved_stress_history(capsys, monkeypatch, tmp_path):
    path = str(tmp_path / "history.jsonl")
    argv = ["lincheck", "stress", "--threads", "4", "--ops", "250", "--histories", "1"]
    assert main(argv + ["--save", path]) == 0
    with open(path, encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == 2000
    expected = reference_history(path)

    def refuse(line):
        raise AssertionError(f"parse called on {line!r}")

    # every line kslide writes matches read_history's pattern: none goes through parse
    monkeypatch.setattr(trace, "parse", refuse)
    assert read_history(path) == expected
    capsys.readouterr()
    assert main(["lincheck", "file", "--path", path]) == 0
    assert capsys.readouterr().out == "linearizable (1000 operations ordered)\n"
