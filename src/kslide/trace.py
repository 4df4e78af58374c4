"""Line-delimited JSON trace records, schema version 1.

Every line is one JSON object with a "type" field (schedule, outcome,
violation, valence-node, or history-event) and a "schema_version" field.
Conventions: the missing-value marker encodes as JSON null inside window
arrays, schedule steps are strings like "E1" or "C2", and map-like payloads
are sorted key/value pair lists. Keys are sorted and separators fixed, so
serialization is byte-stable.
"""

from __future__ import annotations

import json
from typing import Iterable, NamedTuple, Optional

from .lincheck import Event, History
from .register import BOTTOM, Value, Window
from .sim import Outcome, format_schedule

SCHEMA_VERSION = 1


class TraceError(ValueError):
    """A trace line does not decode into a known record."""


def encode_window(window: Window) -> list:
    return [None if slot is BOTTOM else slot for slot in window]


def decode_window(items: Iterable) -> Window:
    return tuple(BOTTOM if item is None else item for item in items)


def _int(value, name: str) -> int:
    if type(value) is not int:  # bools, floats and numeric strings are refused
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


class ScheduleRecord(NamedTuple):
    steps: tuple  # step strings, "E1" form

    def to_payload(self) -> dict:
        return {"steps": list(self.steps)}

    @classmethod
    def from_payload(cls, payload: dict) -> "ScheduleRecord":
        return cls(steps=tuple(payload["steps"]))


class OutcomeRecord(NamedTuple):
    decisions: tuple  # sorted (pid, value) pairs
    crashed: tuple  # sorted pids

    def to_payload(self) -> dict:
        return {
            "decisions": [list(pair) for pair in self.decisions],
            "crashed": list(self.crashed),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "OutcomeRecord":
        return cls(
            decisions=tuple((_int(p, "pid"), v) for p, v in payload["decisions"]),
            crashed=tuple(_int(p, "pid") for p in payload["crashed"]),
        )


class ViolationRecord(NamedTuple):
    """A schedule together with the disagreeing outcome it produced, plus
    enough context (k, n, proposals) to replay it."""

    k: int
    n: int
    inputs: tuple  # sorted (pid, proposal) pairs
    schedule: tuple  # step strings
    decisions: tuple  # sorted (pid, value) pairs
    crashed: tuple

    def to_payload(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "inputs": [list(pair) for pair in self.inputs],
            "schedule": list(self.schedule),
            "decisions": [list(pair) for pair in self.decisions],
            "crashed": list(self.crashed),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ViolationRecord":
        return cls(
            k=_int(payload["k"], "k"),
            n=_int(payload["n"], "n"),
            inputs=tuple((_int(p, "pid"), v) for p, v in payload["inputs"]),
            schedule=tuple(payload["schedule"]),
            decisions=tuple((_int(p, "pid"), v) for p, v in payload["decisions"]),
            crashed=tuple(_int(p, "pid") for p in payload["crashed"]),
        )


class ValenceNodeRecord(NamedTuple):
    """One configuration-graph node: its discovery index, decision values,
    whether it is critical, decisions already taken, and outgoing edges as
    (step string, destination index) pairs."""

    node: int
    values: tuple
    critical: bool
    decided: tuple
    edges: tuple

    def to_payload(self) -> dict:
        return {
            "node": self.node,
            "values": list(self.values),
            "critical": self.critical,
            "decided": [list(pair) for pair in self.decided],
            "edges": [list(pair) for pair in self.edges],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ValenceNodeRecord":
        return cls(
            node=_int(payload["node"], "node"),
            values=tuple(payload["values"]),
            critical=bool(payload["critical"]),
            decided=tuple((_int(p, "pid"), v) for p, v in payload["decided"]),
            edges=tuple((step, _int(dst, "node")) for step, dst in payload["edges"]),
        )


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

    def to_payload(self) -> dict:
        return {
            "k": self.k,
            "kind": self.kind,
            "pid": self.pid,
            "op": self.op,
            "timestamp": self.timestamp,
            "value": self.value,
            "result": None if self.result is None else encode_window(self.result),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "HistoryEventRecord":
        k, event = _history_event(payload)
        return cls(k, *event)


def _history_event(payload: dict) -> tuple[int, Event]:
    """(k, event) of a history-event payload: the one decoder of its fields."""
    result = payload["result"]
    return _int(payload["k"], "k"), Event._make((
        payload["kind"], _int(payload["pid"], "pid"), payload["op"],
        _int(payload["timestamp"], "timestamp"), payload["value"],
        None if result is None else decode_window(result),
    ))


_RECORD_TYPES = {
    "schedule": ScheduleRecord,
    "outcome": OutcomeRecord,
    "violation": ViolationRecord,
    "valence-node": ValenceNodeRecord,
    "history-event": HistoryEventRecord,
}
_TYPE_NAMES = {cls: name for name, cls in _RECORD_TYPES.items()}


def serialize(record) -> str:
    """One JSON line for a record, byte-stable for equal records."""
    name = _TYPE_NAMES.get(type(record))
    if name is None:
        raise TraceError(f"not a trace record: {record!r}")
    payload = {"type": name, "schema_version": SCHEMA_VERSION}
    payload.update(record.to_payload())
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


_raw_decode = json.JSONDecoder().raw_decode


def parse(line: str):
    """The record on one trace line; surrounding whitespace is ignored."""
    payload, cls = _payload(line.strip())
    return _decoded(cls.from_payload, payload)


def _payload(line: str) -> tuple[dict, type]:
    try:
        payload, end = _raw_decode(line)
        if end != len(line):
            json.loads(line)  # raises json's own "Extra data" error
    except json.JSONDecodeError as exc:
        raise TraceError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise TraceError("trace lines must be JSON objects")
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise TraceError(
            f"unsupported schema version {payload.get('schema_version')!r}"
        )
    cls = _RECORD_TYPES.get(payload.get("type"))
    if cls is None:
        raise TraceError(f"unknown record type {payload.get('type')!r}")
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


def read_history(path: str) -> History:
    """The history in a history-event file, each line decoded straight to an event."""
    pairs, foreign = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for payload, cls in map(_payload, filter(None, map(str.strip, fh))):
            if cls is HistoryEventRecord:
                pairs.append(_decoded(_history_event, payload))
            else:
                foreign.append(_decoded(cls.from_payload, payload))
    if foreign:
        raise TraceError(f"history files hold history-event records, got {foreign[0]!r}")
    return _history(pairs)


def outcome_record(outcome: Outcome) -> OutcomeRecord:
    return OutcomeRecord(
        decisions=tuple(sorted(outcome.decisions.items())),
        crashed=tuple(sorted(outcome.crashed)),
    )


def violation_record(k, n, inputs, sched, decisions, crashed) -> ViolationRecord:
    """decisions are (pid, value) pairs and crashed are pids, in any order."""
    return ViolationRecord(
        k=k,
        n=n,
        inputs=tuple(sorted(inputs.items())),
        schedule=tuple(format_schedule(sched)),
        decisions=tuple(sorted(decisions)),
        crashed=tuple(sorted(crashed)),
    )


def history_to_records(history: History) -> list[HistoryEventRecord]:
    return [
        HistoryEventRecord(
            k=history.k,
            kind=ev.kind,
            pid=ev.pid,
            op=ev.op,
            timestamp=ev.timestamp,
            value=ev.value,
            result=ev.result,
        )
        for ev in history.events
    ]


def history_from_records(records: Iterable[HistoryEventRecord]) -> History:
    # An event is a history-event record without its leading k.
    return _history([(r.k, Event._make(r[1:])) for r in records])


def _history(pairs: list) -> History:
    if not pairs:
        raise TraceError("history file holds no events")
    ks = {k for k, _ in pairs}
    if len(ks) != 1:
        raise TraceError(f"history events disagree on k: {sorted(ks)}")
    return History(ks.pop(), [event for _, event in pairs])
