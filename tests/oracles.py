"""Independent reference models the tests check the implementations against.

Everything here is computed from first principles (full write sequences and
factorials), never by calling the code under test. The exception is the
graph oracles at the end, decided_below, forward_census and
breadth_first_graph: they step with kslide.sim's apply_exec and apply_crash,
which tests/test_sim.py checks against replay, and share no code with
kslide.valence, which they check. group_element, group_elements and act
apply the renaming group to a configuration element by element, for the
canonicalizer's check.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from typing import NamedTuple, Optional

from kslide.register import BOTTOM
from kslide.sim import (
    Configuration,
    Crash,
    Exec,
    apply_crash,
    apply_exec,
    initial_config,
    is_live,
)


def padded_last_k(values: list, k: int) -> tuple:
    """Window semantics from the full write sequence: last k values, oldest
    first, left-padded with BOTTOM when fewer than k were written."""
    tail = values[-k:] if k <= len(values) else list(values)
    return (BOTTOM,) * (k - len(tail)) + tuple(tail)


class FullSequenceRegister:
    """Keeps every written value and derives windows from the whole list."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("window size must be positive")
        self.k = k
        self.values: list = []

    def write(self, value) -> None:
        self.values.append(value)

    def read(self) -> tuple:
        return padded_last_k(self.values, self.k)


def interleaving_count(lengths) -> int:
    """Distinct interleavings of sequences with the given lengths."""
    total = math.factorial(sum(lengths))
    for length in lengths:
        total //= math.factorial(length)
    return total


def crash_free_count(n: int, ops: int) -> int:
    return interleaving_count([ops] * n)


def with_crash_count(n: int, ops: int) -> int:
    """Schedules over n processes of `ops` steps each when any subset may
    crash at any own-step boundary. A process either completes (ops steps)
    or contributes b Exec steps plus one crash marker, 0 <= b < ops."""
    per_process = [ops] + [b + 1 for b in range(ops)]
    total = 0

    def rec(i: int, lengths: list) -> None:
        nonlocal total
        if i == n:
            total += interleaving_count(lengths)
            return
        for length in per_process:
            lengths.append(length)
            rec(i + 1, lengths)
            lengths.pop()

    rec(0, [])
    return total


def schedule_order(n: int, m: int, crashes: bool) -> list:
    """Every schedule of n processes with m steps each, in enumeration order.

    Crash-free, these are the distinct permutations of the multiset of Exec
    steps, sorted by their pid sequences. With crashes, a process runs
    either all m steps or b < m steps and a Crash marker; the same sorted
    permutations are listed for each combination of those variants, the
    combinations in itertools.product order (pid 1 most significant).
    """
    variants = []
    for pid in range(1, n + 1):
        options = [[Exec(pid)] * m]
        if crashes:
            options.extend([Exec(pid)] * b + [Crash(pid)] for b in range(m))
        variants.append(options)
    order = []
    for combo in itertools.product(*variants):
        pids = [pid for pid, steps in enumerate(combo, 1) for _ in steps]
        for pid_order in sorted(set(itertools.permutations(pids))):
            rest = [iter(steps) for steps in combo]
            order.append(tuple(next(rest[pid - 1]) for pid in pid_order))
    return order


class _Op(NamedTuple):
    op: str
    value: object
    result: Optional[tuple]
    invoked: int
    responded: Optional[int]


def _pair_events(events) -> list:
    """Operations of an invoke/respond event list; responded is None for an
    operation that never returned."""
    ops: list = []
    open_at: dict = {}
    for ev in events:
        if ev.kind == "invoke":
            open_at[ev.pid] = len(ops)
            ops.append(_Op(ev.op, ev.value, None, ev.timestamp, None))
        else:
            i = open_at.pop(ev.pid)
            ops[i] = ops[i]._replace(result=ev.result, responded=ev.timestamp)
    return ops


def _respects_real_time(order) -> bool:
    """No operation comes before one that responded before it was invoked."""
    for a in range(len(order)):
        for b in range(a + 1, len(order)):
            later = order[b]
            if later.responded is not None and later.responded < order[a].invoked:
                return False
    return True


def _replays(k: int, order) -> bool:
    reg = FullSequenceRegister(k)
    for o in order:
        if o.op == "write":
            reg.write(o.value)
        elif reg.read() != o.result:
            return False
    return True


def brute_force_linearizable(k: int, events) -> bool:
    """Linearizability by enumeration, for histories of a handful of ops.

    Tries every order of the completed operations together with every
    subset of the pending writes (a pending write may or may not have taken
    effect; a pending read constrains nothing), keeps the orders that
    respect real-time precedence, and replays each on FullSequenceRegister.
    """
    ops = _pair_events(events)
    completed = [o for o in ops if o.responded is not None]
    pending_writes = [o for o in ops if o.responded is None and o.op == "write"]
    for size in range(len(pending_writes) + 1):
        for chosen in itertools.combinations(pending_writes, size):
            for order in itertools.permutations(completed + list(chosen)):
                if _respects_real_time(order) and _replays(k, order):
                    return True
    return False


def _completions(left: list) -> list:
    """Every distinct interleaving of the remaining steps, left[i] of them
    for process i + 1, as pid tuples."""
    if not any(left):
        return [()]
    out = []
    for i, count in enumerate(left):
        if count:
            left[i] -= 1
            out.extend((i + 1,) + tail for tail in _completions(left))
            left[i] += 1
    return out


def replay_consensus(k: int, proposals: list, schedule) -> tuple:
    """(final window, decisions, crashed set) of a schedule with crashes,
    under write-then-read-oldest consensus.

    Process i + 1 proposes proposals[i]: its first Exec writes the proposal
    to a FullSequenceRegister, its second reads the window and decides the
    oldest non-BOTTOM value in it. A Crash step only marks the process;
    the schedule is assumed valid.
    """
    reg = FullSequenceRegister(k)
    taken = [0] * len(proposals)
    decisions = {}
    crashed = set()
    for step in schedule:
        if isinstance(step, Crash):
            crashed.add(step.pid)
            continue
        assert isinstance(step, Exec)
        if taken[step.pid - 1] == 0:
            reg.write(proposals[step.pid - 1])
        else:
            decisions[step.pid] = next(v for v in reg.read() if v is not BOTTOM)
        taken[step.pid - 1] += 1
    return reg.read(), decisions, frozenset(crashed)


def decision_set(k: int, proposals: list, prefix) -> set:
    """Values some process decides in some crash-free completion of a pid
    prefix, under write-then-read-oldest consensus.

    Process i + 1 proposes proposals[i]: its first step writes the proposal,
    its second reads the window and decides the oldest non-BOTTOM value in
    it. Every completion of the prefix is replayed from the start on a
    FullSequenceRegister. Crash extensions need no replay of their own: a
    crashed process's remaining steps, moved to the end of the run, change
    no decision taken before them.
    """
    left = [2] * len(proposals)
    for pid in prefix:
        left[pid - 1] -= 1
    decided = set()
    for tail in _completions(left):
        reg = FullSequenceRegister(k)
        taken = [0] * len(proposals)
        for pid in tuple(prefix) + tail:
            if taken[pid - 1] == 0:
                reg.write(proposals[pid - 1])
            else:
                decided.add(next(v for v in reg.read() if v is not BOTTOM))
            taken[pid - 1] += 1
    return decided


def decided_below(protocol, inputs):
    """cfg -> values decided at some terminal configuration reachable from
    cfg by exec and crash steps, memoized per configuration. Decisions are
    never taken back, so these are the values decidable in some extension
    of cfg."""

    @functools.cache
    def below(cfg) -> frozenset:
        live = [pid for pid in inputs if is_live(protocol, cfg, pid)]
        if not live:
            return frozenset(v for _, v in cfg.decided)
        return frozenset().union(*(
            below(nxt)
            for pid in live
            for nxt in (apply_exec(protocol, inputs, cfg, pid), apply_crash(protocol, cfg, pid))
        ))

    return below


def _exact(x):
    """x with each leaf paired with its type, so that 1, 1.0 and True differ."""
    return tuple(_exact(y) for y in x) if isinstance(x, tuple) else (type(x), x)


def forward_census(protocol, inputs, k, crash_aware: bool) -> tuple:
    """(root decision set, nodes, bivalent, monovalent, critical) over the
    distinct configurations reachable from the initial one by exec steps,
    and crash steps with crash_aware, each classified by decided_below.
    Configurations that differ only in 1, 1.0 or True are distinct. A
    configuration is critical when it is bivalent and every exec successor
    is monovalent."""
    below = decided_below(protocol, inputs)
    root = initial_config(protocol, inputs, k)
    seen = {_exact(root)}
    stack = [root]
    bivalent = monovalent = critical = 0
    while stack:
        cfg = stack.pop()
        live = [pid for pid in inputs if is_live(protocol, cfg, pid)]
        execs = [apply_exec(protocol, inputs, cfg, pid) for pid in live]
        crashes = [apply_crash(protocol, cfg, pid) for pid in live] if crash_aware else []
        for nxt in execs + crashes:
            key = _exact(nxt)
            if key not in seen:
                seen.add(key)
                stack.append(nxt)
        values = below(cfg)
        if len(values) >= 2:
            bivalent += 1
            critical += all(len(below(nxt)) == 1 for nxt in execs)
        elif values:
            monovalent += 1
    return below(root), len(seen), bivalent, monovalent, critical


def breadth_first_graph(protocol, inputs, k, crash_aware: bool) -> tuple:
    """(nodes, edges) of the configurations reachable from the initial one,
    numbered in the order a queue first meets them: from each configuration
    apply_exec per live pid in pid order, then, with crash_aware,
    apply_crash per live pid in pid order. edges holds (source id, step,
    destination id) in source id and step order. Configurations that differ
    only in 1, 1.0 or True are distinct nodes."""
    root = initial_config(protocol, inputs, k)
    ids = {_exact(root): 0}
    nodes, edges = [root], []
    queue = collections.deque([root])
    while queue:
        cfg = queue.popleft()
        src = ids[_exact(cfg)]
        live = [pid for pid in sorted(inputs) if is_live(protocol, cfg, pid)]
        steps = [(Exec(pid), apply_exec(protocol, inputs, cfg, pid)) for pid in live]
        if crash_aware:
            steps += [(Crash(pid), apply_crash(protocol, cfg, pid)) for pid in live]
        for step, nxt in steps:
            key = _exact(nxt)
            if key not in ids:
                ids[key] = len(nodes)
                nodes.append(nxt)
                queue.append(nxt)
            edges.append((src, step, ids[key]))
    return nodes, edges


def group_element(inputs, rename: dict, relabel: bool) -> tuple:
    """(rename, values): rename[p] is the pid that pid p becomes, and with
    relabel values sends each proposal, keyed by (type, value), to the
    proposal of the pid its process becomes; without relabel it is empty."""
    values = {}
    if relabel:
        values = {(type(inputs[old]), inputs[old]): inputs[new] for old, new in rename.items()}
    return rename, values


def group_elements(inputs, classes, relabel: bool):
    """Every group_element that permutes pids within each class."""
    for perms in itertools.product(*(itertools.permutations(cls) for cls in classes)):
        rename = {old: new for cls, perm in zip(classes, perms) for old, new in zip(cls, perm)}
        yield group_element(inputs, rename, relabel)


def act(cfg, rename: dict, values: dict):
    """The configuration cfg becomes under the group element (rename,
    values): pid p's locals and crash move to rename[p], and every value in
    a window, a read result or a decision is relabeled by values."""

    def relabel(v):
        return values.get((type(v), v), v)

    locals_ = [None] * len(cfg.locals)
    for old, new in rename.items():
        locals_[new - 1] = tuple(
            r if r is None else tuple(map(relabel, r)) for r in cfg.locals[old - 1]
        )
    return Configuration(
        tuple(locals_),
        tuple(tuple(map(relabel, w)) for w in cfg.registers),
        tuple(sorted(rename[p] for p in cfg.crashed)),
        tuple(sorted((rename[p], relabel(v)) for p, v in cfg.decided)),
    )
