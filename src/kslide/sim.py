"""Deterministic schedule execution and exhaustive interleaving enumeration.

Protocols are described as bounded step functions over shared sliding
registers. A schedule is a sequence of Exec and Crash steps; running one is
fully deterministic, so interleavings can be enumerated and checked
exhaustively at small scale, including every crash truncation. The search
for agreement counterexamples with one participant too many lives here too.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Union

from .consensus import check_outcome
from .lincheck import Event, History
from .register import BOTTOM, Value, empty_window, first_non_bottom, slide


class ScheduleError(ValueError):
    """A schedule step is not applicable to the current run state."""


@dataclass(frozen=True)
class Exec:
    """One atomic shared-register operation by process pid."""

    pid: int


@dataclass(frozen=True)
class Crash:
    """Permanent removal of process pid; its remaining steps never run."""

    pid: int


Step = Union[Exec, Crash]
Schedule = tuple  # tuple[Step, ...]


def format_step(step: Step) -> str:
    return f"E{step.pid}" if isinstance(step, Exec) else f"C{step.pid}"


def parse_step(text: str) -> Step:
    body = text.strip()
    if len(body) >= 2 and body[0] in "EC" and body[1:].isdigit():
        pid = int(body[1:])
        if pid >= 1:
            return Exec(pid) if body[0] == "E" else Crash(pid)
    raise ValueError(f"steps look like 'E1' or 'C2', got {text!r}")


def format_schedule(sched: Iterable[Step]) -> list[str]:
    return [format_step(s) for s in sched]


def parse_schedule(items: Iterable[str]) -> Schedule:
    return tuple(parse_step(s) for s in items)


@dataclass(frozen=True)
class WriteOp:
    reg: int
    value: Value


@dataclass(frozen=True)
class ReadOp:
    reg: int


RegisterOp = Union[WriteOp, ReadOp]


@dataclass(frozen=True)
class Protocol:
    """Bounded step-functional protocol description.

    next_op(pid, proposal, results) names the process's next shared-register
    operation given the results of its previous steps (None for a write, the
    window for a read). Once a process has taken steps_per_process steps,
    decide(pid, proposal, results) maps its results to a decision. Local
    computation is folded into the surrounding steps, so one step is exactly
    one atomic shared-register access.
    """

    name: str
    registers: int
    steps_per_process: int
    next_op: Callable[[int, Value, tuple], RegisterOp]
    decide: Callable[[int, Value, tuple], Value]


def consensus_protocol() -> Protocol:
    """The built-in two-step protocol: write the proposal, read the window,
    decide the oldest visible value."""

    def next_op(pid: int, proposal: Value, results: tuple) -> RegisterOp:
        if not results:
            return WriteOp(0, proposal)
        return ReadOp(0)

    def decide(pid: int, proposal: Value, results: tuple) -> Value:
        return first_non_bottom(results[-1])

    return Protocol(
        name="consensus",
        registers=1,
        steps_per_process=2,
        next_op=next_op,
        decide=decide,
    )


class Configuration(NamedTuple):
    """Canonical global state, hashable for deduplication.

    locals[pid - 1] is the tuple of step results the process has collected;
    registers[r] is register r's padded window, oldest slot first; crashed
    and decided are kept sorted so equal states compare and hash equal.
    """

    locals: tuple
    registers: tuple
    crashed: tuple
    decided: tuple

    @property
    def n(self) -> int:
        return len(self.locals)

    def decisions(self) -> dict:
        return dict(self.decided)


def default_inputs(n: int) -> dict[int, int]:
    """Distinct proposals when the caller does not care: pid i proposes i - 1."""
    return {pid: pid - 1 for pid in range(1, n + 1)}


def initial_config(protocol: Protocol, inputs: Mapping[int, Value], k: int) -> Configuration:
    """The configuration before any step: every register holds the empty window."""
    n = len(inputs)
    if n == 0:
        raise ValueError("at least one process is required")
    if set(inputs) != set(range(1, n + 1)):
        raise ValueError(f"process ids must be exactly 1..{n}, got {sorted(inputs)}")
    return Configuration(((),) * n, (empty_window(k),) * protocol.registers, (), ())


def is_live(protocol: Protocol, cfg: Configuration, pid: int) -> bool:
    """True while pid can take a step: it has neither crashed nor taken all
    of its steps. An unknown pid raises ScheduleError."""
    if not 1 <= pid <= len(cfg.locals):
        raise ScheduleError(f"unknown process id {pid}")
    taken = len(cfg.locals[pid - 1])
    return pid not in cfg.crashed and taken < protocol.steps_per_process


def pending_op(
    protocol: Protocol, inputs: Mapping[int, Value], cfg: Configuration, pid: int
) -> Optional[RegisterOp]:
    """The register operation pid would take next, or None if it crashed or
    already finished."""
    if not is_live(protocol, cfg, pid):
        return None
    return protocol.next_op(pid, inputs[pid], cfg.locals[pid - 1])


def apply_exec(
    protocol: Protocol,
    inputs: Mapping[int, Value],
    k: int,
    cfg: Configuration,
    pid: int,
) -> Configuration:
    """Run one step of pid against an immutable configuration: a write
    slides the register's window, a read returns it. This is the only
    definition of a step; the window size k is carried by cfg's windows."""
    if not is_live(protocol, cfg, pid):
        state = "crashed and cannot take steps" if pid in cfg.crashed else "already finished"
        raise ScheduleError(f"process {pid} {state}")
    results = cfg.locals[pid - 1]
    op = protocol.next_op(pid, inputs[pid], results)
    registers = cfg.registers
    if not 0 <= op.reg < len(registers):
        raise ValueError(f"protocol named unknown register {op.reg}")
    if isinstance(op, WriteOp):
        if op.value is BOTTOM:
            raise ValueError("BOTTOM marks missing values and cannot be written")
        window = slide(registers[op.reg], op.value)
        registers = registers[: op.reg] + (window,) + registers[op.reg + 1 :]
        results += (None,)
    else:
        results += (registers[op.reg],)
    decided = cfg.decided
    if len(results) == protocol.steps_per_process:
        value = protocol.decide(pid, inputs[pid], results)
        decided = tuple(sorted(decided + ((pid, value),)))
    locals_ = cfg.locals[: pid - 1] + (results,) + cfg.locals[pid:]
    return Configuration(locals_, registers, cfg.crashed, decided)


def apply_crash(cfg: Configuration, pid: int) -> Configuration:
    if pid in cfg.crashed:
        raise ScheduleError(f"process {pid} crashed twice")
    if not 1 <= pid <= cfg.n:
        raise ScheduleError(f"unknown process id {pid}")
    return Configuration(
        cfg.locals, cfg.registers, tuple(sorted(cfg.crashed + (pid,))), cfg.decided
    )


def _apply(
    protocol: Protocol, inputs: Mapping[int, Value], k: int, cfg: Configuration, step: Step
) -> Configuration:
    if isinstance(step, Exec):
        return apply_exec(protocol, inputs, k, cfg, step.pid)
    if isinstance(step, Crash):
        return apply_crash(cfg, step.pid)
    raise TypeError(f"not a schedule step: {step!r}")


@dataclass(frozen=True)
class Outcome:
    """What a schedule produced: decisions of the processes that completed,
    the crashed set, the final configuration, and optionally the register
    history of the run."""

    decisions: dict
    crashed: frozenset
    final_config: Configuration
    history: Optional[History] = None


def run_schedule(
    protocol: Protocol,
    inputs: Mapping[int, Value],
    k: int,
    sched: Iterable[Step],
    record_history: bool = False,
) -> Outcome:
    """Execute a schedule deterministically from the initial configuration.

    Exec steps are atomic; a Crash step removes the process. Steps that are
    not applicable (an unknown pid, a crashed or finished process taking a
    step, a second crash) raise ScheduleError. Incomplete schedules are
    fine: processes that never finish simply decide nothing. With
    record_history, each Exec step becomes an invoke and a respond event
    with consecutive timestamps.
    """
    cfg = initial_config(protocol, inputs, k)
    if record_history and protocol.registers != 1:
        raise ValueError("history recording assumes a single shared register")
    events: list[Event] = []
    for step in sched:
        op = None
        if record_history and isinstance(step, Exec):
            op = pending_op(protocol, inputs, cfg, step.pid)
        cfg = _apply(protocol, inputs, k, cfg, step)
        if op is None:
            continue
        clock = len(events)
        if isinstance(op, WriteOp):
            events.append(Event("invoke", step.pid, "write", clock, value=op.value))
            events.append(Event("respond", step.pid, "write", clock + 1))
        else:
            result = cfg.locals[step.pid - 1][-1]
            events.append(Event("invoke", step.pid, "read", clock))
            events.append(Event("respond", step.pid, "read", clock + 1, result=result))
    history = History(k, events) if record_history else None
    return Outcome(cfg.decisions(), frozenset(cfg.crashed), cfg, history)


def _ops_map(n: int, ops_per_process) -> dict[int, int]:
    if isinstance(ops_per_process, int):
        return {pid: ops_per_process for pid in range(1, n + 1)}
    ops = dict(ops_per_process)
    if set(ops) != set(range(1, n + 1)):
        raise ValueError(f"per-process op counts must cover exactly 1..{n}")
    return ops


def _interleavings(sequences: list[tuple[int, tuple]]) -> Iterator[Schedule]:
    """All distinct interleavings of the per-process step sequences, choosing
    the smallest available pid first at every branch."""
    total = sum(len(steps) for _, steps in sequences)
    taken = [0] * len(sequences)
    prefix: list[Step] = []

    def rec() -> Iterator[Schedule]:
        if len(prefix) == total:
            yield tuple(prefix)
            return
        for i, (_, steps) in enumerate(sequences):
            if taken[i] < len(steps):
                prefix.append(steps[taken[i]])
                taken[i] += 1
                yield from rec()
                taken[i] -= 1
                prefix.pop()

    return rec()


def enumerate_schedules(
    n: int, ops_per_process=2, with_crashes: bool = False
) -> Iterator[Schedule]:
    """Yield every distinct complete schedule of n processes exactly once.

    Without crashes these are the interleavings of each process's ordered
    steps. With crashes, every schedule in which any subset of processes
    crashes at any boundary between its own steps is yielded as well: a
    process that crashes after b of its m steps contributes b Exec steps
    followed by one Crash marker. Crashing after the last step is omitted
    because it is observationally the same as completing. Order is
    deterministic: crash variants in boundary order per process, smallest
    pid first at every interleaving branch.
    """
    if n < 1:
        raise ValueError("need at least one process")
    ops = _ops_map(n, ops_per_process)
    pids = sorted(ops)
    if not with_crashes:
        yield from _interleavings(
            [(pid, (Exec(pid),) * ops[pid]) for pid in pids]
        )
        return
    variant_lists = []
    for pid in pids:
        m = ops[pid]
        variants = [(Exec(pid),) * m]
        variants.extend(
            (Exec(pid),) * b + (Crash(pid),) for b in range(m)
        )
        variant_lists.append(variants)

    def combos(i: int, chosen: list) -> Iterator[Schedule]:
        if i == len(pids):
            yield from _interleavings(list(zip(pids, chosen)))
            return
        for variant in variant_lists[i]:
            chosen.append(variant)
            yield from combos(i + 1, chosen)
            chosen.pop()

    yield from combos(0, [])


@dataclass(frozen=True)
class VerificationReport:
    schedules_checked: int
    # ((schedule, PropertyReport, decided, crashed), ...), where decided and
    # crashed are the final configuration's sorted tuples
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def _final_configs(
    protocol: Protocol,
    inputs: Mapping[int, Value],
    k: int,
    schedules: Iterable[Schedule],
) -> Iterator[tuple[Schedule, Configuration]]:
    """(schedule, final configuration) for each schedule, in order.

    path[i] is the configuration after the first i steps of the previous
    schedule, so each schedule runs only the steps after the prefix it
    shares with the one before; enumeration order makes those prefixes long.
    """
    path = [initial_config(protocol, inputs, k)]
    prev: Schedule = ()
    for sched in schedules:
        shared = 0
        for a, b in zip(sched, prev):
            if a != b:
                break
            shared += 1
        del path[shared + 1 :]
        cfg = path[shared]
        for step in sched[shared:]:
            cfg = _apply(protocol, inputs, k, cfg, step)
            path.append(cfg)
        prev = sched
        yield sched, cfg


def verify_all(
    protocol: Protocol,
    k: int,
    n: int,
    inputs: Optional[Mapping[int, Value]] = None,
    with_crashes: bool = False,
) -> VerificationReport:
    """Run every enumerated schedule and check the consensus properties on
    each outcome. Returns the total schedule count and all violations."""
    inputs = default_inputs(n) if inputs is None else dict(inputs)
    count = 0
    violations = []
    schedules = enumerate_schedules(n, protocol.steps_per_process, with_crashes)
    for sched, cfg in _final_configs(protocol, inputs, k, schedules):
        report = check_outcome(inputs, cfg.decisions(), cfg.crashed)
        count += 1
        if not report.ok:
            violations.append((sched, report, cfg.decided, cfg.crashed))
    return VerificationReport(count, tuple(violations))


def eviction_schedule(k: int, n: int) -> Schedule:
    """The canonical disagreement run for one participant too many.

    Process 1 writes and reads alone and decides its own value; the other k
    processes then write, which pushes process 1's value out of the size-k
    window; process 2 reads and decides the oldest survivor instead.
    """
    if n != k + 1:
        raise ValueError("the eviction run needs exactly k + 1 processes")
    if n < 2:
        raise ValueError("need at least two processes")
    steps = [Exec(1), Exec(1)]
    steps.extend(Exec(pid) for pid in range(2, n + 1))
    steps.append(Exec(2))
    return tuple(steps)


def find_violation(
    protocol: Protocol,
    k: int,
    n: int,
    inputs: Optional[Mapping[int, Value]] = None,
    max_results: Optional[int] = None,
) -> list[tuple[Schedule, tuple, tuple]]:
    """(schedule, decided, crashed) per agreement violation, eviction run
    first; decided and crashed are the final configuration's sorted tuples.

    The canonical eviction schedule is tried first when n == k + 1; after
    that every complete crash-free schedule is checked in enumeration order.
    Crash markers cannot create disagreement on their own (they only remove
    future steps), so the complete crash-free set is the exhaustive one for
    runs where every process decides.
    """
    inputs = default_inputs(n) if inputs is None else dict(inputs)
    found = []
    first: list[Schedule] = []
    # The eviction run is a valid schedule exactly when every process has
    # at least the two steps it uses.
    if n == k + 1 and n >= 2 and protocol.steps_per_process >= 2:
        first.append(eviction_schedule(k, n))
    rest = enumerate_schedules(n, protocol.steps_per_process)
    schedules = itertools.chain(first, (s for s in rest if s not in first))
    for sched, cfg in _final_configs(protocol, inputs, k, schedules):
        if max_results is not None and len(found) >= max_results:
            break
        if not check_outcome(inputs, cfg.decisions(), cfg.crashed).agreement:
            found.append((sched, cfg.decided, cfg.crashed))
    return found


def random_schedule(
    n: int,
    ops_per_process=2,
    seed: int = 0,
    crash_probability: float = 0.0,
) -> Schedule:
    """One valid complete-or-crash-truncated schedule, deterministic in seed."""
    if not 0.0 <= crash_probability <= 1.0:
        raise ValueError("crash probability must be within [0, 1]")
    ops = _ops_map(n, ops_per_process)
    rng = random.Random(seed)
    remaining = dict(ops)
    alive = set(remaining)
    steps: list[Step] = []
    while True:
        choices = sorted(pid for pid in alive if remaining[pid] > 0)
        if not choices:
            return tuple(steps)
        pid = rng.choice(choices)
        if crash_probability > 0.0 and rng.random() < crash_probability:
            steps.append(Crash(pid))
            alive.discard(pid)
        else:
            steps.append(Exec(pid))
            remaining[pid] -= 1
