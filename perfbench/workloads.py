"""The benchmark's workloads: kslide commands with pinned expected outputs.

A job is one argv for kslide.cli.main. OUT in an argv stands for the trace
file the job writes. Every job pins its exit code and the SHA-256 of its
stdout, and of its trace file when it writes one. The pins of the fixed
commands were taken from the program as it stood when the benchmark was
written; the pins of generated histories follow from how they were built.
"""

from __future__ import annotations

import hashlib
import os
from typing import NamedTuple, Optional

from kslide.register import BOTTOM
from kslide.trace import HistoryEventRecord, write_records

import histories

OUT = "{out}"


class Job(NamedTuple):
    argv: tuple
    exit_code: int
    stdout_sha256: str
    trace_sha256: Optional[str] = None
    ops: int = 0  # operations in the history a lincheck job checks


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


FIXED = {
    # 2,520 crash-free schedules at k = n = 4 and 1,158 with crash
    # truncations at k = n = 3, all clean.
    "verify": (
        Job(
            ("verify", "--k", "4", "--n", "4"),
            0,
            sha256(b"2520 crash-free schedules, 0 violations\n"),
        ),
        Job(
            ("verify", "--k", "3", "--n", "3", "--crashes"),
            0,
            sha256(b"1158 schedules including crash truncations, 0 violations\n"),
        ),
    ),
    # 2,520 schedules with one participant too many, 1,944 of them
    # violating; every violation is printed and written to the trace.
    "evict": (
        Job(
            ("verify", "--k", "3", "--n", "4", "--output", OUT),
            1,
            "b475cd2a6bff42d5e4d7c180c81803e530650833825d5a6345b7c17180fbac40",
            "34a9a5c8e1a0941f663da30c17d95227bb245f9642404199c271bf03250d11e1",
        ),
    ),
    # 3,537 configurations (3,153 bivalent), then the crash-aware graph at
    # k=2 n=3 exported as JSON lines.
    "valence": (
        Job(
            ("valence", "--k", "3", "--n", "4"),
            0,
            "b07b337556d76dee85d698e7beb40aea11a43b858dba4d9d23450905b4b84943",
        ),
        Job(
            (
                "valence", "--k", "2", "--n", "3", "--crash-aware",
                "--format", "json", "--output", OUT,
            ),
            0,
            "a704de50fa2c9e2e55a157aded9477aafb456bdb483cd785b6ed355e4ee4ada2",
            "a704de50fa2c9e2e55a157aded9477aafb456bdb483cd785b6ed355e4ee4ada2",
        ),
    ),
}


def history_records(k: int, events: list) -> list[HistoryEventRecord]:
    """A generated history as kslide history-event records."""
    return [
        HistoryEventRecord(
            k=k,
            kind=ev.kind,
            pid=ev.pid,
            op=ev.op,
            timestamp=ev.timestamp,
            value=ev.value,
            result=None if ev.result is None
            else tuple(BOTTOM if slot is None else slot for slot in ev.result),
        )
        for ev in events
    ]


def lincheck_inputs(seed: int, workdir: str) -> tuple[tuple, dict]:
    """Generate the lincheck workload's histories into workdir, one
    `lincheck file` job each; returns (jobs, facts about the inputs)."""
    jobs = []
    facts = {"histories": 0, "window_short": 0, "deep": 0, "ops": 0, "overlap": 0.0}
    overlapping = 0
    for i, (spec, events) in enumerate(histories.workload_histories(seed)):
        path = os.path.join(workdir, f"history-{i:03d}.jsonl")
        write_records(path, history_records(spec.k, events))
        if spec.semantics == histories.WINDOW_SHORT:
            facts["window_short"] += 1
            code, stdout = 1, b"not linearizable\n"
        else:
            code, stdout = 0, f"linearizable ({spec.ops} operations ordered)\n".encode()
        jobs.append(Job(("lincheck", "file", "--path", path), code, sha256(stdout), ops=spec.ops))
        facts["deep"] += spec == histories.DEEP
        busy, ops = histories.overlap(events)
        overlapping += busy
        facts["ops"] += ops
    facts["histories"] = len(jobs)
    facts["overlap"] = overlapping / facts["ops"]
    return tuple(jobs), facts
