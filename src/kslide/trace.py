"""Line-delimited JSON trace records, schema version 1.

Every line is one JSON object with a "type" field (schedule, outcome,
violation, valence-node, or history-event) and a "schema_version" field.
Conventions: the missing-value marker encodes as JSON null inside window
arrays, schedule steps are strings like "E1" or "C2", and map-like payloads
are sorted key/value pair lists. A record encodes as its own fields, keys
sorted and separators fixed, so serialization is byte-stable. A record
decodes by field name: one table maps each field name to its decoder, and a
record's fields are decoded in declaration order, so an error names the
first missing or mistyped field. Decoders check each field's JSON type:
integers, arrays and booleans must be just that. lincheck file reads a
history (read_history) by decoding each well-formed history-event line
inline, straight to a checker event; the record decoders only word the
error of any other line, so the errors are those of decoding every record.
"""

from __future__ import annotations

import functools
import json
import operator
from typing import Iterable, NamedTuple, Optional

from .lincheck import Event, History
from .register import BOTTOM, Value, Window
from .sim import Configuration, format_schedule

SCHEMA_VERSION = 1


class TraceError(ValueError):
    """A trace line does not decode into a known record."""


def encode_window(window: Window) -> list:
    return [None if slot is BOTTOM else slot for slot in window]


def decode_window(items: Iterable) -> Window:
    return tuple([BOTTOM if item is None else item for item in items])


_JSON_TYPES = {int: "an integer", list: "an array", bool: "a boolean"}


def _of(kind: type, value, name: str):
    """value, when its type is exactly kind: true, 1.5 and "2" are not
    integers, and "E1" and {"a": 1} are not arrays."""
    if type(value) is not kind:
        raise ValueError(f"{name} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _array(items, name: str) -> tuple:
    return tuple(_of(list, items, name))


def _pairs(items, name: str) -> tuple:
    """The (pid, value) pairs of a JSON array of pairs."""
    return tuple((_of(int, pid, "pid"), value) for pid, value in _of(list, items, name))


def _pids(items, name: str) -> tuple:
    return tuple(_of(int, pid, "pid") for pid in _of(list, items, name))


def _edges(items, name: str) -> tuple:
    """The (step string, destination node) pairs of a JSON array of pairs."""
    return tuple((step, _of(int, dst, "node")) for step, dst in _of(list, items, name))


# The decoder of each record field, keyed by field name: a name means the
# same thing in every record type that has it.
_int = functools.partial(_of, int)
_FIELDS = {
    "k": _int, "n": _int, "node": _int, "critical": functools.partial(_of, bool),
    "steps": _array, "schedule": _array, "values": _array, "crashed": _pids,
    "inputs": _pairs, "decisions": _pairs, "decided": _pairs, "edges": _edges,
}


class ScheduleRecord(NamedTuple):
    steps: tuple  # step strings, "E1" form


class OutcomeRecord(NamedTuple):
    decisions: tuple  # sorted (pid, value) pairs
    crashed: tuple  # sorted pids


class ViolationRecord(NamedTuple):
    """A schedule together with the disagreeing outcome it produced, plus
    enough context (k, n, proposals) to replay it."""

    k: int
    n: int
    inputs: tuple  # sorted (pid, proposal) pairs
    schedule: tuple  # step strings
    decisions: tuple  # sorted (pid, value) pairs
    crashed: tuple


class ValenceNodeRecord(NamedTuple):
    """One configuration-graph node: its discovery index, decision values,
    whether it is critical, decisions already taken, and outgoing edges as
    (step string, destination index) pairs."""

    node: int
    values: tuple
    critical: bool
    decided: tuple
    edges: tuple


class HistoryEventRecord(NamedTuple):
    """One register-history event. k rides along on every event so a saved
    history is self-contained."""

    k: int
    kind: str
    pid: int
    op: str
    timestamp: int
    value: Value = None
    result: Optional[Window] = None


def _history_event(payload: dict) -> tuple[int, Event]:
    """(k, event) of a history-event payload: the one decoder of its fields."""
    result = payload["result"]
    return _of(int, payload["k"], "k"), Event._make((
        payload["kind"], _of(int, payload["pid"], "pid"), payload["op"],
        _of(int, payload["timestamp"], "timestamp"), payload["value"],
        None if result is None else decode_window(_of(list, result, "result")),
    ))


def _record(cls, payload: dict):
    """The cls record in payload, its fields decoded in declaration order,
    so an error names the first missing or mistyped one."""
    if cls is HistoryEventRecord:
        k, event = _history_event(payload)
        return cls(k, *event)
    return cls._make([_FIELDS[name](payload[name], name) for name in cls._fields])


_RECORD_TYPES = {
    "schedule": ScheduleRecord,
    "outcome": OutcomeRecord,
    "violation": ViolationRecord,
    "valence-node": ValenceNodeRecord,
    "history-event": HistoryEventRecord,
}
_TYPE_NAMES = {cls: name for name, cls in _RECORD_TYPES.items()}


def serialize(record) -> str:
    """One JSON line for a record, byte-stable for equal records. The
    payload is the record's own fields, tuples encoding as arrays; only a
    history event's result window is encoded (BOTTOM becomes null)."""
    name = _TYPE_NAMES.get(type(record))
    if name is None:
        raise TraceError(f"not a trace record: {record!r}")
    payload = record._asdict()
    if name == "history-event" and record.result is not None:
        payload["result"] = encode_window(record.result)
    payload.update(type=name, schema_version=SCHEMA_VERSION)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


_raw_decode = json.JSONDecoder().raw_decode


def parse(line: str):
    """The record on one trace line; surrounding whitespace is ignored."""
    payload, cls = _payload(line.strip())
    return _decoded(functools.partial(_record, cls), payload)


def _payload(line: str) -> tuple[dict, type]:
    try:
        payload, end = _raw_decode(line)
        if end != len(line):
            json.loads(line)  # raises json's own "Extra data" error
    except (json.JSONDecodeError, RecursionError) as exc:
        # nesting deeper than the decoder's recursion limit is malformed input too
        raise TraceError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise TraceError("trace lines must be JSON objects")
    # the version is never coerced (true and 1.0 are not 1), and only a
    # string can name a record type: an array or object cannot be looked up
    version, name = payload.get("schema_version"), payload.get("type")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise TraceError(f"unsupported schema version {version!r}")
    cls = _RECORD_TYPES.get(name) if type(name) is str else None
    if cls is None:
        raise TraceError(f"unknown record type {name!r}")
    return payload, cls


def _decoded(decode, payload: dict):
    try:
        return decode(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceError(f"malformed {payload.get('type')} record: {exc}") from exc


def write_records(path: str, records: Iterable) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(serialize(record) + "\n")


def read_records(path: str) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return [parse(line) for line in map(str.strip, fh) if line]


# read_history's per-line work: every field of a history-event payload in
# one lookup, and an event built by tuple.__new__, which skips the
# namedtuple's Python-level __new__.
_event_fields = operator.itemgetter(
    "type", "schema_version", "k", "kind", "pid", "op", "timestamp", "value", "result"
)
_new_event = functools.partial(tuple.__new__, Event)


def read_history(path: str) -> History:
    """The history in a history-event file. A well-formed event line (one
    history-event object of schema version 1, integer k, pid and timestamp,
    null or array result) is decoded once, straight to an event. Any other
    line goes through parse, so each error is the one decoding every record
    would give: a bad line raises at once, a record of another type last."""
    events, ks, foreign = [], set(), []
    with open(path, "r", encoding="utf-8") as fh:
        for line in filter(None, map(str.strip, fh)):
            try:
                payload, end = _raw_decode(line)
                name, version, k, kind, pid, op, ts, value, result = _event_fields(payload)
                if (
                    end == len(line) and name == "history-event"
                    and type(version) is int and version == SCHEMA_VERSION
                    and type(k) is int and type(pid) is int and type(ts) is int
                    and (result is None or type(result) is list)
                ):
                    events.append(_new_event((
                        kind, pid, op, ts, value, None if result is None else decode_window(result)
                    )))
                    ks.add(k)
                    continue
            except (KeyError, TypeError, ValueError, RecursionError):
                pass  # not a well-formed event line: parse says what is wrong
            record = parse(line)
            if type(record) is HistoryEventRecord:
                events.append(Event._make(record[1:]))
                ks.add(record.k)
            else:
                foreign.append(record)
    if foreign:
        raise TraceError(f"history files hold history-event records, got {foreign[0]!r}")
    return _history(ks, events)


def outcome_record(cfg: Configuration) -> OutcomeRecord:
    return OutcomeRecord(cfg.decided, cfg.crashed)


def violation_record(k, n, inputs, sched, decisions, crashed) -> ViolationRecord:
    """decisions and crashed are a final configuration's sorted tuples, kept as given."""
    return ViolationRecord(
        k=k,
        n=n,
        inputs=tuple(sorted(inputs.items())),
        schedule=tuple(format_schedule(sched)),
        decisions=decisions,
        crashed=crashed,
    )


def history_to_records(history: History) -> list[HistoryEventRecord]:
    # A history-event record is the event with k in front.
    return [HistoryEventRecord(history.k, *ev) for ev in history.events]


def history_from_records(records: Iterable[HistoryEventRecord]) -> History:
    # An event is a history-event record without its leading k.
    records = list(records)
    return _history({r.k for r in records}, [Event._make(r[1:]) for r in records])


def _history(ks: set, events: list) -> History:
    """The history of events whose records carried the k values ks."""
    if not events:
        raise TraceError("history file holds no events")
    if len(ks) != 1:
        raise TraceError(f"history events disagree on k: {sorted(ks)}")
    (k,) = ks
    return History(k, events)
