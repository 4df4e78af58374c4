"""Configuration-graph analysis for bounded protocols.

For a protocol, proposals, and window size, every reachable configuration
has a decision set: the values some process can still end up deciding in
some schedule extension. A configuration is monovalent when that set is a
singleton and bivalent when both outcomes remain possible. This module
builds the reachable graph once per Explorer, computes decision sets
exhaustively over it, classifies configurations, finds critical ones
(bivalent, but every next operation forces monovalence), exports the whole
graph, and checks whether pending operations commute.
"""

from __future__ import annotations

import functools
from collections import deque
from typing import Iterator, Mapping, NamedTuple, Optional

from .register import Value
from .sim import (
    Configuration,
    Crash,
    Exec,
    Protocol,
    Schedule,
    Step,
    apply_crash,
    apply_exec,
    initial_config,
    is_live,
    pending_op,
)


def sorted_values(values) -> tuple:
    """Deterministic ordering for decision values, with a repr fallback for
    values that do not compare with each other."""
    try:
        return tuple(sorted(values))
    except TypeError:
        return tuple(sorted(values, key=repr))


class Valence(NamedTuple):
    """Decision set of a configuration."""

    values: frozenset

    @property
    def monovalent(self) -> bool:
        return len(self.values) == 1

    @property
    def bivalent(self) -> bool:
        return len(self.values) >= 2

    @property
    def value(self) -> Value:
        if not self.monovalent:
            raise ValueError("only a monovalent configuration has one value")
        return next(iter(self.values))

    def __repr__(self) -> str:
        if self.monovalent:
            return f"Monovalent({self.value!r})"
        if self.bivalent:
            inner = ", ".join(repr(v) for v in sorted_values(self.values))
            return f"Bivalent({{{inner}}})"
        return "Valence(none)"


class CriticalConfig(NamedTuple):
    """A bivalent configuration whose every Exec successor is monovalent.

    successors lists (pid, successor configuration, successor valence) in
    pid order. It is empty when no process can take a step anymore, which
    happens only in runs that already decided two different values.
    """

    config: Configuration
    successors: tuple


class ValenceMap(NamedTuple):
    """Exported configuration graph by node id. Ids number the
    configurations breadth-first from the root, node 0, and edges are
    labeled by the step that produced them, in source id and step order."""

    nodes: list  # node id -> Configuration
    valences: list  # node id -> Valence
    edges: list  # (source id, Step, destination id)

    @property
    def bivalent_count(self) -> int:
        return sum(1 for v in self.valences if v.bivalent)

    @property
    def monovalent_count(self) -> int:
        return sum(1 for v in self.valences if v.monovalent)


class Explorer:
    """Exhaustive forward exploration of one protocol instance.

    The configuration graph is built once. Each reachable configuration is
    interned to an int node id the first time it is seen, its successors
    are computed exactly once and stored as (step, node id) pairs, and its
    decision set is filled in by one iterative pass in reverse topological
    order. Every query reads that table, so repeated classification queries
    over the same instance stay cheap. With crash_aware=True the successor
    relation also includes crash steps; decision sets do not change,
    because never scheduling a process reaches the same decisions as
    crashing it, but the option exists to make that checkable.
    """

    def __init__(
        self,
        protocol: Protocol,
        inputs: Mapping[int, Value],
        k: int,
        crash_aware: bool = False,
    ):
        self.protocol = protocol
        self.inputs = dict(inputs)
        self.k = k
        self.crash_aware = crash_aware
        self._ids: dict[Configuration, int] = {}
        self._configs: list[Configuration] = []
        self._succ: list[tuple] = []  # node id -> ((step, node id), ...)
        self._decisions: list[frozenset] = []

    @property
    def initial(self) -> Configuration:
        return initial_config(self.protocol, self.inputs, self.k)

    def pending(self, cfg: Configuration, pid: int):
        return pending_op(self.protocol, self.inputs, cfg, pid)

    def _node(self, cfg: Optional[Configuration]) -> int:
        """Node id of cfg (default: the initial configuration), building the
        graph reachable from it first if it has not been seen."""
        cfg = self.initial if cfg is None else cfg
        node = self._ids.get(cfg)
        return self._build(cfg) if node is None else node

    def _build(self, start: Configuration) -> int:
        ids, configs, succ = self._ids, self._configs, self._succ
        # bound per build, so that a rebinding of valence.apply_exec is used
        exec_step = functools.partial(apply_exec, self.protocol, self.inputs, self.k)
        labels = [(pid, Exec(pid), Crash(pid)) for pid in sorted(self.inputs)]
        first = len(configs)
        ids[start] = first
        configs.append(start)
        # Breadth-first over the new nodes in id order. A node already in
        # the table had its whole reachable graph built with it.
        node = first
        while node < len(configs):
            cfg = configs[node]
            node += 1
            movers = [label for label in labels if is_live(self.protocol, cfg, label[0])]
            steps = [(exec_, exec_step(cfg, pid)) for pid, exec_, _ in movers]
            if self.crash_aware:
                steps += [(crash, apply_crash(cfg, pid)) for pid, _, crash in movers]
            out = []
            for step, nxt in steps:
                nxt_id = ids.setdefault(nxt, len(configs))
                if nxt_id == len(configs):
                    configs.append(nxt)
                out.append((step, nxt_id))
            succ.append(tuple(out))
        # Every step adds one result to a process's locals or one process
        # to the crashed set, so every path from start to a node has the
        # same length and each edge leads to a higher node id: the graph is
        # a DAG and id order is topological. Fill decision sets from the
        # last new node back; values enter own decisions first, then each
        # successor's in step order.
        decisions = self._decisions
        decisions.extend([frozenset()] * (len(configs) - first))
        for node in range(len(configs) - 1, first - 1, -1):
            values = {v: None for _, v in configs[node].decided}
            for _, nxt in succ[node]:
                values.update(dict.fromkeys(decisions[nxt]))
            decisions[node] = frozenset(values)
        return first

    def successors(self, cfg: Configuration) -> list[tuple[Step, Configuration]]:
        configs = self._configs
        return [(step, configs[nxt]) for step, nxt in self._succ[self._node(cfg)]]

    def reachable_decisions(self, cfg: Optional[Configuration] = None) -> frozenset:
        """Exact set of values decidable by any process in any extension."""
        return self._decisions[self._node(cfg)]

    def witness(self, value: Value, cfg: Optional[Configuration] = None) -> Schedule:
        """A schedule extension from cfg after which value has been decided:
        at each configuration that has not decided it yet, the first
        successor in step order that can still decide it."""
        node = self._node(cfg)
        if value not in self._decisions[node]:
            raise KeyError(f"{value!r} is not decidable from this configuration")
        steps = []
        while value not in {v for _, v in self._configs[node].decided}:
            step, node = next(
                (step, nxt)
                for step, nxt in self._succ[node]
                if value in self._decisions[nxt]
            )
            steps.append(step)
        return tuple(steps)

    def classify(self, cfg: Optional[Configuration] = None) -> Valence:
        return Valence(self.reachable_decisions(cfg))

    def _bfs(self, start: Optional[Configuration]) -> Iterator[int]:
        """Node ids reachable from start, breadth-first in step order."""
        root = self._node(start)
        queue = deque([root])
        visited = {root}
        while queue:
            node = queue.popleft()
            yield node
            for _, nxt in self._succ[node]:
                if nxt not in visited:
                    visited.add(nxt)
                    queue.append(nxt)

    def walk(self, start: Optional[Configuration] = None) -> Iterator[Configuration]:
        """Breadth-first pass over every reachable configuration."""
        configs = self._configs
        return (configs[node] for node in self._bfs(start))

    def find_critical(
        self, start: Optional[Configuration] = None
    ) -> list[CriticalConfig]:
        """All reachable bivalent configurations whose every Exec successor
        is monovalent, in discovery order."""
        configs, decisions = self._configs, self._decisions
        out = []
        for node in self._bfs(start):
            if len(decisions[node]) < 2:
                continue
            succs = [
                (step.pid, nxt)
                for step, nxt in self._succ[node]
                if isinstance(step, Exec)
            ]
            if all(len(decisions[nxt]) == 1 for _, nxt in succs):
                out.append(
                    CriticalConfig(
                        configs[node],
                        tuple(
                            (pid, configs[nxt], Valence(decisions[nxt]))
                            for pid, nxt in succs
                        ),
                    )
                )
        return out

    def valence_map(self, start: Optional[Configuration] = None) -> ValenceMap:
        configs, decisions, succ = self._configs, self._decisions, self._succ
        order = list(self._bfs(start))
        ids = {node: i for i, node in enumerate(order)}
        return ValenceMap(
            [configs[node] for node in order],
            [Valence(decisions[node]) for node in order],
            [(i, step, ids[nxt]) for i, node in enumerate(order) for step, nxt in succ[node]],
        )


def check_commutation(
    protocol: Protocol,
    inputs: Mapping[int, Value],
    k: int,
    cfg: Configuration,
    pid_a: int,
    pid_b: int,
) -> bool:
    """True when the next operations of two processes reach the same
    configuration in either order. Both processes must have a pending
    operation in cfg."""
    if pid_a == pid_b:
        raise ValueError("commutation needs two distinct processes")
    for pid in (pid_a, pid_b):
        if pending_op(protocol, inputs, cfg, pid) is None:
            raise ValueError(f"process {pid} has no pending operation")
    ab = apply_exec(protocol, inputs, k, apply_exec(protocol, inputs, k, cfg, pid_a), pid_b)
    ba = apply_exec(protocol, inputs, k, apply_exec(protocol, inputs, k, cfg, pid_b), pid_a)
    return ab == ba
