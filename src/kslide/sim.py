"""Deterministic schedule execution and exhaustive interleaving enumeration.

Protocols are described as bounded step functions over shared sliding
registers. A schedule is a sequence of Exec and Crash steps; running one is
fully deterministic, so interleavings can be enumerated and checked
exhaustively at small scale, including every crash truncation, by one
depth-first walk that keeps each depth's configuration on a stack. The search
for agreement counterexamples with one participant too many lives here too.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Union

from .consensus import PropertyReport, check_outcome
from .register import ReadOp, RegisterOp, Value, WriteOp, empty_window, first_non_bottom


class ScheduleError(ValueError):
    """A schedule step is not applicable to the current run state."""


class _PidStep(NamedTuple):
    pid: int

    # Steps compare by type, so Exec(1) != Crash(1) != (1,). tuple's own !=
    # ignores an overridden __eq__, and defining __eq__ clears __hash__.
    def __eq__(self, other) -> bool:
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not self == other

    __hash__ = tuple.__hash__


class Exec(_PidStep):
    """One atomic shared-register operation by process pid."""

    __slots__ = ()


class Crash(_PidStep):
    """Permanent removal of process pid; its remaining steps never run."""

    __slots__ = ()


Step = Union[Exec, Crash]
Schedule = tuple  # tuple[Step, ...]


def format_step(step: Step) -> str:
    return f"E{step.pid}" if isinstance(step, Exec) else f"C{step.pid}"


def parse_step(text: str) -> Step:
    body = text.strip()
    if len(body) >= 2 and body[0] in "EC" and body[1:].isascii() and body[1:].isdigit():
        pid = int(body[1:])
        if pid >= 1:
            return Exec(pid) if body[0] == "E" else Crash(pid)
    raise ValueError(f"steps look like 'E1' or 'C2', got {text!r}")


def format_schedule(sched: Iterable[Step]) -> list[str]:
    return [format_step(s) for s in sched]


def parse_schedule(items: Iterable[str]) -> Schedule:
    return tuple(parse_step(s) for s in items)


class Protocol(NamedTuple):
    """Bounded step-functional protocol description.

    next_op(pid, proposal, results) names the process's next shared-register
    operation given the results of its previous steps; a step's result is
    the result of its operation's apply (None for a write, the window for
    a read). Once a process has taken steps_per_process steps,
    decide(pid, proposal, results) maps its results to a decision. Local
    computation is folded into the surrounding steps, so one step is exactly
    one atomic shared-register access.

    symmetric declares that renaming processes, and relabeling their
    proposals with them, maps runs to runs: next_op and decide treat pids
    and proposals as opaque tokens, and only proposals are written. The
    valence census then explores one configuration per orbit of that group,
    and raises ValueError on a written value that is not a proposal; the
    next_op and decide half goes unchecked. It defaults to False, so a
    protocol built outside this module, such as one where each process owns
    its own register, is counted on the unreduced graph unless it declares
    the symmetry.
    """

    registers: int
    steps_per_process: int
    next_op: Callable[[int, Value, tuple], RegisterOp]
    decide: Callable[[int, Value, tuple], Value]
    symmetric: bool = False


def consensus_protocol() -> Protocol:
    """The built-in two-step protocol: write the proposal, read the window,
    decide the oldest visible value. Each process writes its own proposal
    object, so 1, 1.0 and True stay distinct."""
    read = ReadOp(0)

    def next_op(pid: int, proposal: Value, results: tuple) -> RegisterOp:
        return read if results else WriteOp(0, proposal)

    def decide(pid: int, proposal: Value, results: tuple) -> Value:
        return first_non_bottom(results[-1])

    return Protocol(
        registers=1,
        steps_per_process=2,
        next_op=next_op,
        decide=decide,
        symmetric=True,
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
    protocol: Protocol, inputs: Mapping[int, Value], cfg: Configuration, pid: int
) -> Configuration:
    """Run one step of pid against an immutable configuration: op.apply maps
    the named register's window to its new window and the step's result.
    This is the only step; the window size k is carried by cfg's windows."""
    if not is_live(protocol, cfg, pid):
        state = "crashed and cannot take steps" if pid in cfg.crashed else "already finished"
        raise ScheduleError(f"process {pid} {state}")
    locals_, registers, crashed, decided = cfg
    results = locals_[pid - 1]
    proposal = inputs[pid]
    op = protocol.next_op(pid, proposal, results)
    reg = op.reg
    if not 0 <= reg < len(registers):
        raise ValueError(f"protocol named unknown register {reg}")
    window = registers[reg]
    after, result = op.apply(window)
    if after is not window:  # a read leaves the registers as they are
        registers = registers[:reg] + (after,) + registers[reg + 1 :]
    results += (result,)
    if len(results) == protocol.steps_per_process:
        decided = tuple(sorted(decided + ((pid, protocol.decide(pid, proposal, results)),)))
    locals_ = locals_[: pid - 1] + (results,) + locals_[pid:]
    # the same Configuration, without NamedTuple's Python-level __new__ call
    return tuple.__new__(Configuration, (locals_, registers, crashed, decided))


def apply_crash(protocol: Protocol, cfg: Configuration, pid: int) -> Configuration:
    """Crash pid. Only a live process can crash: an unknown pid, a second
    crash and a crash after the last step raise ScheduleError."""
    if not is_live(protocol, cfg, pid):
        state = "crashed twice" if pid in cfg.crashed else "already finished"
        raise ScheduleError(f"process {pid} {state}")
    crashed = tuple(sorted(cfg.crashed + (pid,)))
    return tuple.__new__(Configuration, (cfg.locals, cfg.registers, crashed, cfg.decided))


def run_schedule(
    protocol: Protocol,
    inputs: Mapping[int, Value],
    k: int,
    sched: Iterable[Step],
) -> Configuration:
    """Execute a schedule deterministically and return the final configuration.

    Exec steps are atomic; a Crash step removes the process. Steps that are
    not applicable (an unknown pid, a crashed or finished process taking a
    step or crashing) raise ScheduleError. Incomplete schedules are
    fine: processes that never finish simply decide nothing.
    """
    cfg = initial_config(protocol, inputs, k)
    for step in sched:
        if isinstance(step, Exec):
            cfg = apply_exec(protocol, inputs, cfg, step.pid)
        elif isinstance(step, Crash):
            cfg = apply_crash(protocol, cfg, step.pid)
        else:
            raise TypeError(f"not a schedule step: {step!r}")
    return cfg


def _no_state(state: tuple, pid: int) -> tuple:
    return ()


def _walk(
    n: int, m: int, with_crashes: bool, root, exec_step: Callable, crash_step: Optional[Callable]
) -> Iterator[list[tuple]]:
    """Depth-first over every schedule of n processes with m steps each, in
    enumerate_schedules' order. stack[d] is the (state, process index, step)
    frame after d steps, stack[0] holds root, and each tree edge is one
    exec_step(state, pid) or crash_step(state, pid) call, so no prefix is
    replayed; a call that returns None prunes the subtree below its edge.
    The live stack is yielded at each leaf; build its schedule (_schedule)
    only where one is needed."""
    variants = []
    for pid in range(1, n + 1):
        execs = ((Exec(pid), exec_step),) * m
        crash_after = range(m) if with_crashes else ()
        variants.append([execs] + [execs[:b] + ((Crash(pid), crash_step),) for b in crash_after])
    for sequences in itertools.product(*variants):
        lengths = [len(moves) for moves in sequences]
        total = sum(lengths)
        width = len(sequences)
        taken = [0] * width
        stack = [(root, -1, None)]
        i = 0
        while True:
            if len(stack) > total:
                yield stack
                i = width
            else:
                while i < width and taken[i] == lengths[i]:
                    i += 1
            if i < width:
                step, apply = sequences[i][taken[i]]
                state = apply(stack[-1][0], step.pid)
                if state is None:  # nothing wanted below this edge
                    i += 1
                    continue
                taken[i] += 1
                stack.append((state, i, step))
                i = 0
                continue
            if len(stack) == 1:
                break
            i = stack.pop()[1]
            taken[i] -= 1
            i += 1


def _schedule(stack: list[tuple]) -> Schedule:
    return tuple(step for _, _, step in stack[1:])


def enumerate_schedules(
    n: int, ops_per_process: int = 2, with_crashes: bool = False
) -> Iterator[Schedule]:
    """Yield every distinct complete schedule of n processes exactly once.

    Without crashes these are the interleavings of each process's ordered
    steps. With crashes, every schedule in which any subset of processes
    crashes at any boundary between its own steps is yielded as well: a
    process that crashes after b of its m steps contributes b Exec steps
    followed by one Crash marker. Crashing after the last step is omitted
    because it is observationally the same as completing. Order is
    deterministic: crash variants in boundary order per process (pid 1 most
    significant), smallest pid first at every interleaving branch.
    """
    if n < 1 or ops_per_process < 0:
        raise ValueError(f"need n >= 1 and ops_per_process >= 0, got {n} and {ops_per_process}")
    for stack in _walk(n, ops_per_process, with_crashes, (), _no_state, _no_state):
        yield _schedule(stack)


class VerificationReport(NamedTuple):
    schedules_checked: int
    # ((schedule, PropertyReport, decided, crashed), ...), where decided and
    # crashed are the final configuration's sorted tuples
    violations: tuple


def _proposals(n: int, inputs: Optional[Mapping[int, Value]]) -> dict:
    """inputs as a dict (default_inputs(n) when None); ValueError unless it
    holds one proposal per process."""
    if inputs is None:
        return default_inputs(n)
    if len(inputs) != n:
        raise ValueError(f"{len(inputs)} proposals given for {n} processes")
    return dict(inputs)


def _judge(inputs: Mapping[int, Value]) -> Callable[[tuple, tuple], PropertyReport]:
    """check_outcome of a final (decided, crashed) pair, memoized: the report
    is a pure function of the pair, so each distinct one is judged once."""
    return functools.cache(lambda decided, crashed: check_outcome(inputs, dict(decided), crashed))


def list_violations(
    protocol: Protocol,
    k: int,
    n: int,
    inputs: Optional[Mapping[int, Value]] = None,
    with_crashes: bool = False,
) -> tuple[int, int, Callable[[Callable], Iterator[tuple]]]:
    """(schedules, violations, listing): the number of enumerated schedules,
    how many break a consensus property, and listing(render), a generator
    of (steps, render(report, decided, crashed)) per violation in
    enumeration order, where steps is the schedule's text ("E1,C2,E2") and
    decided and crashed are the final configuration's sorted tuples.

    A schedule is a root-to-terminal path of valence.census's orbit graph
    (crash-aware with with_crashes), so both counts are path counts, taken
    before any walk: schedules over every terminal, violations over those
    whose representative outcome fails. The properties are invariant under
    the group, so each distinct outcome is judged once (_judge). listing
    walks (orbit, renaming, steps) states with _walk and enters no subtree
    without a violation. A tree edge is one edge lookup, one renaming
    composition, memoized per pair, and one concatenation that adds its
    step's text to the schedule's; a terminal state's concrete outcome is
    rendered once per distinct (decided, crashed, renaming) triple.
    """
    from .valence import _orbit_graph, _typed  # valence imports this module

    inputs = _proposals(n, inputs)
    reps, _, succ, back, _, _ = _orbit_graph(protocol, inputs, k, with_crashes)
    judge = _judge(inputs)
    paths, bad = [1] * len(reps), [0] * len(reps)
    for node in range(len(reps) - 1, -1, -1):  # every edge leads to a higher id
        if succ[node]:
            paths[node] = sum(paths[nxt] for _, nxt, _ in succ[node])
            bad[node] = sum(bad[nxt] for _, nxt, _ in succ[node])
        else:
            bad[node] = not judge(reps[node].decided, reps[node].crashed).ok
    if not bad[0]:
        return paths[0], 0, lambda render: iter(())
    # A state (node, r, steps) renames each pid p of the concrete
    # configuration to r[p] in reps[node]; steps is the schedule's text so
    # far, each step with a leading comma. None prunes an edge with no
    # violation below it. edges[node] maps the representative's pid, negated
    # for a Crash, to the successor and the renaming to it.
    edges = [
        {(-s.pid if type(s) is Crash else s.pid): (nxt, r) for s, nxt, r in out} for out in succ
    ]
    compose = functools.cache(lambda renaming, r: tuple([renaming[p] for p in r]))

    def move(sign: int, names: dict, at: tuple, pid: int) -> Optional[tuple]:
        node, r, steps = at
        node, renaming = edges[node][sign * r[pid]]
        if bad[node]:
            return node, r if renaming is None else compose(renaming, r), steps + names[pid]
        return None

    def outcome(node: int, r: tuple) -> tuple:
        rep, old, values = reps[node], {new: pid for pid, new in enumerate(r)}, back(r) or {}
        decided = tuple(sorted((old[pid], values.get(v, v)) for pid, v in rep.decided))
        return judge(rep.decided, rep.crashed), decided, tuple(sorted(map(old.get, rep.crashed)))

    execs, crashes = ({pid: f",{kind}{pid}" for pid in range(1, n + 1)} for kind in "EC")
    steps = functools.partial(move, 1, execs), functools.partial(move, -1, crashes)

    def listing(render: Callable) -> Iterator[tuple]:
        # outcome reads only a terminal's decided and crashed pairs and r, so
        # terminals with equal pairs, types included (1, 1.0 and True render
        # apart), share the render of the first of them the walk reaches
        alike: dict = {}
        first = functools.cache(
            lambda node: alike.setdefault(_typed((reps[node].decided, reps[node].crashed)), node)
        )
        rendered = functools.cache(lambda node, r: render(*outcome(node, r)))
        root = 0, tuple(range(n + 1)), ""
        for stack in _walk(n, protocol.steps_per_process, with_crashes, root, *steps):
            node, r, text = stack[-1][0]
            yield text[1:], rendered(first(node), r)

    return paths[0], bad[0], listing


def verify_all(
    protocol: Protocol,
    k: int,
    n: int,
    inputs: Optional[Mapping[int, Value]] = None,
    with_crashes: bool = False,
) -> VerificationReport:
    """Check the consensus properties on every enumerated schedule. Returns
    the total schedule count and all violations, in enumeration order, as
    list_violations counts and lists them."""
    schedules, _, listing = list_violations(protocol, k, n, inputs, with_crashes)
    violations = listing(lambda *outcome: outcome)
    # filter: a protocol of no steps has the one empty schedule, text ""
    return VerificationReport(schedules, tuple(
        (parse_schedule(filter(None, text.split(","))), *outcome) for text, outcome in violations
    ))


def eviction_schedule(k: int) -> Schedule:
    """The canonical disagreement run of k + 1 processes, one too many.

    Process 1 writes and reads alone and decides its own value; the other k
    processes then write, which pushes process 1's value out of the size-k
    window; process 2 reads and decides the oldest survivor instead.
    """
    if k < 1:
        raise ValueError("the eviction run needs a window size of at least 1")
    steps = [Exec(1), Exec(1)]
    steps.extend(Exec(pid) for pid in range(2, k + 2))
    steps.append(Exec(2))
    return tuple(steps)


def find_violation(
    protocol: Protocol,
    k: int,
    n: int,
    inputs: Optional[Mapping[int, Value]] = None,
) -> Iterator[tuple[Schedule, tuple, tuple]]:
    """Yield (schedule, decided, crashed) per agreement violation, eviction
    run first, as the search finds it; decided and crashed are the final
    configuration's sorted tuples. Take a bounded number with
    itertools.islice.

    The eviction schedule is run first when n == k + 1; then _walk steps
    concrete configurations with apply_exec, one call per tree edge, over
    every other complete crash-free schedule in enumeration order. Crash
    markers cannot create disagreement on their own (they only remove future
    steps), so the crash-free set is exhaustive where every process decides.
    """
    inputs = _proposals(n, inputs)
    root = initial_config(protocol, inputs, k)
    exec_step = functools.partial(apply_exec, protocol, inputs)
    judge = _judge(inputs)
    evict = None
    # The eviction run is a valid schedule exactly when every process has
    # at least the two steps it uses.
    if n == k + 1 and protocol.steps_per_process >= 2:
        evict = eviction_schedule(k)
        cfg = run_schedule(protocol, inputs, k, evict)
        if not judge(cfg.decided, cfg.crashed).agreement:
            yield evict, cfg.decided, cfg.crashed
    # without crashes _walk never takes a crash step
    for stack in _walk(n, protocol.steps_per_process, False, root, exec_step, None):
        cfg = stack[-1][0]
        if not judge(cfg.decided, cfg.crashed).agreement:
            sched = _schedule(stack)
            if sched != evict:
                yield sched, cfg.decided, cfg.crashed
