"""Line-delimited JSON trace records, schema version 1.

Every line is one JSON object with a "type" field (schedule, outcome,
violation, valence-node, or history-event) and a "schema_version" field.
Conventions: the missing-value marker encodes as JSON null inside window
arrays, schedule steps are strings like "E1" or "C2", and map-like payloads
are sorted key/value pair lists. A record encodes as its own fields, keys
sorted and separators fixed, so serialization is byte-stable. parse is the
one decoder: one table maps each field name to its decoder, for every record
type, history events included, and a record's fields are decoded in
declaration order, so an error names the first missing or mistyped field.
Decoders check each field's JSON type: integers, arrays and booleans must be
just that. lincheck file reads a history with read_history, which reads the
file in blocks of whole lines and scans each block with one compiled
pattern: runs of history-event lines written in serialize's own encoding
are decoded a column at a time, with no JSON, and every other line goes to
parse, in file order. The pattern accepts a subset of parse's history
events and decodes them to the same values, so results and errors are
parse's.

json is imported on the first serialize or parse call, not with this
module: verify without --output or --schedule, violate without --output,
valence in text or dot format, lincheck stress without --save and lincheck
file on lines serialize wrote never load it. Importing kslide.cli and
building its parser takes 0.0096 s this way, and took 0.0115 s with json
imported at module level (perfbench setup_s, median of 10 runs, 2 vCPU,
Python 3.11.7).
"""

from __future__ import annotations

import functools
import re
from itertools import groupby
from operator import itemgetter
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


def _result(items, name: str) -> Optional[Window]:
    """A history event's result: null, or a window array."""
    return None if items is None else decode_window(_of(list, items, name))


def _unchecked(value, name: str):
    return value


# The decoder of each record field, keyed by field name: a name means the
# same thing in every record type that has it.
_int = functools.partial(_of, int)
_FIELDS = {
    "k": _int, "n": _int, "node": _int, "pid": _int, "timestamp": _int,
    "critical": functools.partial(_of, bool),
    "steps": _array, "schedule": _array, "values": _array, "crashed": _pids,
    "inputs": _pairs, "decisions": _pairs, "decided": _pairs, "edges": _edges,
    "kind": _unchecked, "op": _unchecked, "value": _unchecked, "result": _result,
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


_RECORD_TYPES = {
    "schedule": ScheduleRecord,
    "outcome": OutcomeRecord,
    "violation": ViolationRecord,
    "valence-node": ValenceNodeRecord,
    "history-event": HistoryEventRecord,
}
_TYPE_NAMES = {cls: name for name, cls in _RECORD_TYPES.items()}


@functools.cache
def _encoder():
    """encode of the one json encoder every serialize call shares, since
    json.dumps with these options builds a new one per call. json is
    imported here, on first use: a command that writes no record never
    loads it."""
    import json

    return json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


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
    return _encoder()(payload)


@functools.cache
def _decoder():
    """The one json decoder every parse call shares, built on first use as
    _encoder is."""
    import json

    return json.JSONDecoder()


def parse(line: str):
    """The record on one trace line; surrounding whitespace is ignored. Its
    fields are decoded in declaration order, so an error names the first
    missing or mistyped one."""
    line = line.strip()
    try:
        decoder = _decoder()
        payload, end = decoder.raw_decode(line)
        if end != len(line):
            decoder.decode(line)  # raises json's own "Extra data" error
    except (ValueError, RecursionError) as exc:
        # nesting past the decoder's recursion limit, and an integer past
        # int()'s digit limit (a bare ValueError), are malformed input too
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
    try:
        return cls._make([_FIELDS[field](payload[field], field) for field in cls._fields])
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceError(f"malformed {name} record: {exc}") from exc


def write_records(path: str, records: Iterable) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(serialize(record) + "\n")


def read_records(path: str) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return [parse(line) for line in map(str.strip, fh) if line]


# read_history's per-event work: an event built by tuple.__new__, which
# skips the namedtuple's Python-level __new__.
_new_event = functools.partial(tuple.__new__, Event)
# Characters read_history reads at a time: 64 KiB blocks were no faster and
# raised the lincheck benchmark's peak RSS.
_BLOCK = 1 << 14


@functools.cache
def _history_lines():
    """findall of every line in a block of whole lines: a history-event line
    exactly as serialize writes it, with null or integer values and window
    slots, gives 7 groups and an empty 8th; any other line gives 7 empty
    groups and the line itself. Compiled on first use. A null, "invoke" or
    "read" captures nothing, and "respond" and "write" one letter: the scan
    allocates no string for an empty or one-letter group."""
    num = r"-?(?:0|[1-9][0-9]{0,17})"  # JSON's integers, far below int()'s digit limit
    slots = rf"(?:null|{num})(?:,(?:null|{num}))*"
    return re.compile(
        rf'^(?:\{{"k":({num}),"kind":"(?:invoke|(r)espond)","op":"(?:read|(w)rite)","pid":({num}),'
        rf'"result":(?:null|(\[(?:{slots})?\])),"schema_version":1,"timestamp":({num}),'
        rf'"type":"history-event","value":(?:null|({num}))\}}|(.*))$',
        re.MULTILINE,
    ).findall


_KINDS = {"": "invoke", "r": "respond"}
_OPS = {"": "read", "w": "write"}


class _Decoded(dict):
    """Memo from a matched group's text to what it decodes to: an empty group
    (null) is None, an integer its int, and an array a window (null slots
    BOTTOM)."""

    def __missing__(self, text: str):
        self[text] = decoded = int(text) if text[0] != "[" else tuple(
            [BOTTOM if s == "null" else int(s) for s in filter(None, text[1:-1].split(","))]
        )
        return decoded


def _blocks(fh):
    """The file's text as blocks of whole lines, the file's last line last,
    whether or not a newline ends it. Each read is searched for a newline on
    its own, and the pieces of a line longer than a block are joined once, so
    reading stays linear in the file's length. The pieces are let go before
    a block is scanned: a line that fills its block is then held once, since
    the scan's group for it is the block itself."""
    partial = []
    while block := fh.read(_BLOCK):
        cut = block.rfind("\n")
        if cut < 0:
            partial.append(block)
        else:
            partial.append(block[:cut])
            whole, partial = "".join(partial), [block[cut + 1 :]]
            yield whole
    whole, partial = "".join(partial), None
    yield whole


def read_history(path: str) -> History:
    """The history in a history-event file, read in blocks of whole lines. One
    pattern scan splits each block into lines, and each run of lines as
    serialize writes them, sharing one k, is decoded a column at a time, with
    no JSON; any other non-blank line goes through parse, in file order, so
    the pattern's lines decode as parse would and every error is parse's: a
    bad line raises at once, a record of another type last."""
    lines, events, ks, foreign = _history_lines(), [], set(), []
    text = _Decoded({"": None})
    get = text.__getitem__
    with open(path, "r", encoding="utf-8") as fh:
        for block in _blocks(fh):
            for k, rows in groupby(lines(block), itemgetter(0)):
                if k:
                    ks.add(text[k])
                    _, kinds, ops, pids, results, stamps, values, _ = zip(*rows)
                    events += map(_new_event, zip(
                        map(_KINDS.__getitem__, kinds), map(get, pids), map(_OPS.__getitem__, ops),
                        map(int, stamps), map(get, values), map(get, results),
                    ))
                    continue
                for line in map(itemgetter(7), rows):
                    if line.strip():
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
