"""Configuration-graph analysis for bounded protocols.

For a protocol, proposals, and window size, every reachable configuration
has a decision set: the values some process can still end up deciding in
some schedule extension. A configuration is monovalent when that set is a
singleton and bivalent when both outcomes remain possible. One builder,
_orbit_graph, builds the reachable graph with one configuration per orbit of
a process-renaming group, and _decision_sets fills the decision sets over
it. unreduced_graph is that graph for the trivial group, where every orbit
is one configuration, with its decision sets; the cli's json and dot
exports stream from it, and is_critical tells its critical nodes (bivalent,
but every next operation forces monovalence). Explorer reads it too: it
gives a configuration's decision set, finds critical ones, and exports the
whole graph by node id.
census counts the same classes from one configuration per orbit of the
protocol's symmetry, so it reaches sizes the whole graph cannot.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Mapping, NamedTuple, Optional

from .register import BOTTOM, Value
from .sim import (
    Configuration,
    Crash,
    Exec,
    Protocol,
    apply_crash,
    apply_exec,
    initial_config,
    is_live,
)


def sorted_values(values) -> tuple:
    """Deterministic ordering for decision values, with a repr fallback for
    values that do not compare with each other."""
    try:
        return tuple(sorted(values))
    except TypeError:
        return tuple(sorted(values, key=repr))


class Valence(NamedTuple):
    """The set of decision values a configuration can still reach."""

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
    critical: list  # node id -> whether find_critical reports it


def is_critical(decisions: list, succ: list, node: int) -> bool:
    """find_critical's test over (step, node id, ...) edges: the node is
    bivalent and every Exec successor is monovalent."""
    return len(decisions[node]) >= 2 and all(
        len(decisions[edge[1]]) == 1 for edge in succ[node] if isinstance(edge[0], Exec)
    )


def unreduced_graph(
    protocol: Protocol,
    inputs: Mapping[int, Value],
    k: int,
    crash_aware: bool = False,
) -> tuple:
    """(configs, succ, find, decisions): the whole configuration graph, as
    _orbit_graph builds it for the trivial group. configs[node] is the
    configuration numbered node, breadth-first in step order from the
    initial one (node 0); succ[node] holds its (step, node id, None)
    successors, an Exec per live process in pid order, then, crash-aware, a
    Crash per live process; find(cfg) is cfg's node id, a ValueError when
    the initial configuration does not reach it; and decisions[node] is its
    decision set from _decision_sets."""
    trivial = protocol._replace(symmetric=False)
    configs, _, succ, back, _, find = _orbit_graph(trivial, dict(inputs), k, crash_aware)
    return configs, succ, find, _decision_sets(configs, succ, back)


class Explorer:
    """Exhaustive forward exploration of one protocol instance.

    The configuration graph is unreduced_graph's: one node per
    configuration reachable from the initial one, numbered breadth-first in
    step order from node 0, with its successors as (step, node id, None)
    triples and its decision set. It is built on the first query, and every
    query reads it: reachable_decisions by lookup, find_critical and
    valence_map in node id order, which is therefore breadth-first. A
    configuration the initial one does not reach raises ValueError. With
    crash_aware=True the successor relation also includes crash steps;
    decision sets do not change, because never scheduling a process reaches
    the same decisions as crashing it, but the option exists to make that
    checkable.
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

    @functools.cached_property
    def _graph(self) -> tuple:
        return unreduced_graph(self.protocol, self.inputs, self.k, self.crash_aware)

    def _node(self, cfg: Optional[Configuration]) -> int:
        """Node id of cfg (default: the initial configuration, node 0)."""
        return 0 if cfg is None else self._graph[2](cfg)

    def reachable_decisions(self, cfg: Optional[Configuration] = None) -> frozenset:
        """Exact set of values decidable by any process in any extension."""
        return self._graph[3][self._node(cfg)]

    def find_critical(self) -> list[CriticalConfig]:
        """All reachable bivalent configurations whose every Exec successor
        is monovalent, in node id order."""
        configs, succ, _, decisions = self._graph
        return [
            CriticalConfig(
                configs[node],
                tuple(
                    (step.pid, configs[nxt], Valence(decisions[nxt]))
                    for step, nxt, _ in succ[node]
                    if isinstance(step, Exec)
                ),
            )
            for node in range(len(configs))
            if is_critical(decisions, succ, node)
        ]

    def valence_map(self) -> ValenceMap:
        configs, succ, _, decisions = self._graph
        return ValenceMap(
            list(configs),
            [Valence(values) for values in decisions],
            [(node, step, nxt) for node, out in enumerate(succ) for step, nxt, _ in out],
            [is_critical(decisions, succ, node) for node in range(len(configs))],
        )


class Census(NamedTuple):
    """Valence counts over every configuration reachable from the initial
    one, as census takes them from one configuration per orbit."""

    root: Valence
    orbits: int
    nodes: int
    bivalent: int
    monovalent: int
    critical: int


def _symmetry(protocol: Protocol, inputs: Mapping[int, Value]) -> tuple[list, bool]:
    """The group the census reduces by, as (classes, relabel): it permutes
    pids within each class, and with relabel each proposal moves with its
    process. A symmetric protocol with pairwise distinct proposals gets every
    permutation, with relabeling. With repeated proposals it permutes only
    pids whose proposals are equal and of one type, so 1, 1.0 and True stay
    apart. An undeclared protocol gets the trivial group."""
    pids = sorted(inputs)
    if protocol.symmetric and len(set(inputs.values())) == len(pids):
        return [pids], True
    classes: dict = {}
    for pid in pids:
        value = inputs[pid]
        classes.setdefault((type(value), value) if protocol.symmetric else pid, []).append(pid)
    return list(classes.values()), False


class _Table(dict):
    """A dict that fills a missing entry with make(key) on its first lookup."""

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _canonicalizer(inputs: Mapping[int, Value], classes: list, relabel: bool):
    """(canon, typed): canon(cfg) is (representative, stabilizer size,
    renaming), where the representative is the least image of cfg under the
    group and the renaming r sends each pid p of cfg to r[p] in it (None:
    the identity). typed says that the inputs hold equal proposals of
    distinct types (1, 1.0, True), so configurations and images are told
    apart by _typed(x), not by x itself.

    Pids are sorted within their class by a signature that renaming and
    relabeling preserve: locals length, crashed, and where the pid's own
    proposal sits in each read result and register window. Pids that took no
    step appear nowhere, so their ties count without being tried. When the
    signatures of the pids that took steps are pairwise distinct, they fix
    the order with no image comparison. Otherwise only the permutations
    inside their ties are tried; those that give the least image are the
    stabilizer's cosets, so their count is its size. Images compare by
    codes the inputs fix (BOTTOM, then the proposals in pid order), so for
    a protocol that writes only proposals, as symmetric promises, the
    representative does not depend on what canon saw before.

    Almost every locals tuple and window of a successor already appeared
    earlier in the same build, so canon hash-conses what it derives from
    them (Filliâtre and Conchon, 2006), in tables that live as long as it
    does:
    - per pid, locals -> signature head (length, crashed, read pattern);
    - registers -> each pid's proposal slots, ValueError on a non-proposal;
    - pid order -> (sources, rank, value map, renaming, relabelled), and
      with relabel, relabelled maps locals or registers to one shared tuple
      per relabelled value; without it a representative keeps the run's
      own tuples;
    - locals or registers -> codes, for the tie path.
    Tables are keyed with ==, so 1, 1.0 and True share an entry: signatures
    and slots treat them alike, codes are taken per (type, value) when
    typed, and relabel holds only pairwise unequal proposals. census at
    k=n=8 (409,113 orbits) took 57.0 s and 1,129 MB max RSS when canon
    rebuilt all of this per successor, and takes 29.9 s and 571 MB (2 vCPU,
    Python 3.11.7).
    """
    values = inputs.values()
    typed = len(set(values)) < len({(type(v), v) for v in values})
    if all(len(cls) == 1 for cls in classes):  # the trivial group
        return (lambda cfg: (cfg, 1, None)), typed
    targets = tuple(pid for cls in classes for pid in cls)
    position = [targets.index(pid) for pid in sorted(targets)]  # pid p's index in targets, at p - 1

    def head(own: Value, mine: tuple) -> tuple:
        """The signature heads of locals mine, (length, crashed, read
        pattern), for its process live and crashed."""
        pattern = tuple([
            () if r is None else tuple([0 if x is BOTTOM else 1 if x == own else 2 for x in r])
            for r in mine
        ])
        return (len(mine), False, pattern), (len(mine), True, pattern)

    heads = [_Table(functools.partial(head, inputs[pid])) for pid in targets]
    written = {BOTTOM, *values}  # all that a symmetric protocol may write

    def slots(registers: tuple) -> list:
        where = [{} for _ in registers]  # per register, value -> the slots that hold it
        for held, window in zip(where, registers):
            for i, value in enumerate(window):
                held[value] = held.get(value, ()) + (i,)
            for value in held.keys() - written:
                raise ValueError(f"a symmetric protocol writes only proposals, not {value!r}")
        return [tuple([held.get(inputs[pid], ()) for held in where]) for pid in targets]

    holds = _Table(slots)
    shared: dict = {}  # relabelled locals and registers, one tuple per value

    def arrange(order: tuple) -> tuple:
        rank = dict(zip(order, targets))
        sources = [order[i] - 1 for i in position]  # new pid p's locals are old locals_[sources[p - 1]]
        renaming = (0, *map(rank.get, range(1, len(targets) + 1)))
        if not relabel:
            return sources, rank, {}, renaming, None
        vmap = {inputs[old]: inputs[new] for old, new in rank.items()}

        def relabelled(x: tuple) -> tuple:
            x = tuple([r if r is None else tuple(map(vmap.get, r, r)) for r in x])
            return shared.setdefault(x, x)

        return sources, rank, vmap, renaming, _Table(relabelled)

    arrangements = _Table(arrange)

    def image(cfg: Configuration, order: tuple) -> tuple:
        """cfg with old pid order[i] renamed targets[i]: its locals,
        registers, crashed pids, and the order's arrangement."""
        locals_, registers, crashed, _ = cfg
        arrangement = sources, rank, _, _, relabelled = arrangements[order]
        if relabel:
            moved = tuple([relabelled[locals_[j]] for j in sources])
            registers = relabelled[registers]
        else:
            moved = tuple([locals_[j] for j in sources])
        return moved, registers, crashed and tuple(sorted(map(rank.get, crashed))), arrangement

    codes: dict = {}  # leaf -> small int; a value no proposal equals is coded when met
    for leaf in (BOTTOM, *(inputs[pid] for pid in sorted(inputs))):
        codes.setdefault(_typed(leaf) if typed else leaf, len(codes))

    def encode(x: tuple) -> tuple:
        """Locals or registers as codes: a window as its slots' codes, None as ()."""
        return tuple([
            () if r is None
            else tuple([codes.setdefault(_typed(v) if typed else v, len(codes)) for v in r])
            for r in x
        ])

    code = encode if typed else _Table(encode).__getitem__

    def key(image: tuple) -> tuple:
        """An image's locals, registers and crashed pids, as comparable ints."""
        moved, regs, dead, _ = image
        return tuple(map(code, moved)), code(regs), dead

    def canon(cfg: Configuration):
        locals_, registers, crashed, decided = cfg
        signatures = [
            (table[locals_[pid - 1]][pid in crashed], slot)
            for pid, table, slot in zip(targets, heads, holds[registers])
        ]
        order, ranked, stab, tied = [], [], 1, False
        for cls in classes:
            keyed = sorted(zip(signatures[len(order) : len(order) + len(cls)], cls))
            run = 1  # pids so far with this signature and no step
            for (sig, _), (nxt, _) in zip(keyed, keyed[1:]):
                if sig != nxt:
                    run = 1
                elif sig[0][0]:
                    tied = True
                else:
                    run += 1
                    stab *= run
            order += [pid for _, pid in keyed]
            ranked.append(keyed)
        order = tuple(order)
        if tied:  # try every arrangement of each tie of pids that took steps
            runs = []
            for keyed in ranked:
                for sig, tie in itertools.groupby(keyed, key=operator.itemgetter(0)):
                    tie = tuple(pid for _, pid in tie)
                    runs.append(tuple(itertools.permutations(tie)) if sig[0][0] else (tie,))
            orders = [tuple(itertools.chain.from_iterable(a)) for a in itertools.product(*runs)]
            keys = [key(image(cfg, order)) for order in orders]
            least = min(keys)
            order = orders[keys.index(least)]
            stab *= keys.count(least)
        if order == targets:
            return cfg, stab, None
        moved, regs, dead, (_, rank, vmap, renaming, _) = image(cfg, order)
        decided = decided and tuple(sorted([(rank[pid], vmap.get(v, v)) for pid, v in decided]))
        return tuple.__new__(Configuration, (moved, regs, dead, decided)), stab, renaming

    return canon, typed


def _typed(x):
    """x with every leaf paired with its type, so that 1, 1.0 and True differ."""
    return tuple(map(_typed, x)) if isinstance(x, tuple) else (type(x), x)


def _orbit_graph(protocol: Protocol, inputs: dict, k: int, crash_aware: bool):
    """(reps, stabs, succ, back, group, find): reps[node] is one configuration
    per orbit of the group _symmetry picks, breadth-first from the initial
    one (node 0, its own representative: pids that took no step are never
    renamed), and stabs[node] its stabilizer size. succ[node] holds (step,
    node, renaming) per successor, an Exec per live process in pid order,
    then, crash-aware, a Crash per live process; the renaming takes the
    successor to its representative. back(renaming) maps the
    representative's values to the successor's (None: the identity), group
    is the group's order, and find(cfg) is the node of cfg's orbit, a
    ValueError when the initial configuration does not reach it.
    Configurations that hold equal proposals of distinct types (1, 1.0,
    True) are distinct nodes."""
    classes, relabel = _symmetry(protocol, inputs)
    canon, typed = _canonicalizer(inputs, classes, relabel)
    # bound per call, so that a rebinding of valence.apply_exec is used
    exec_step = functools.partial(apply_exec, protocol, inputs)
    labels = [(pid, Exec(pid), Crash(pid)) for pid in sorted(inputs)]
    start, root_stab, _ = canon(initial_config(protocol, inputs, k))
    ids = {_typed(start) if typed else start: 0}
    reps, stabs, succ = [start], [root_stab], []
    for cfg in reps:  # grows while it is walked: breadth-first in id order
        movers = [label for label in labels if is_live(protocol, cfg, label[0])]
        steps = [(exec_, exec_step(cfg, pid)) for pid, exec_, _ in movers]
        if crash_aware:
            steps += [(crash, apply_crash(protocol, cfg, pid)) for pid, _, crash in movers]
        out = []
        for step, nxt in steps:
            rep, stab, renaming = canon(nxt)
            node = ids.setdefault(_typed(rep) if typed else rep, len(reps))
            if node == len(reps):
                reps.append(rep)
                stabs.append(stab)
            out.append((step, node, renaming))
        succ.append(tuple(out))

    @functools.cache
    def back(renaming: Optional[tuple]) -> Optional[dict]:
        if relabel and renaming:
            return {inputs[new]: inputs[old] for old, new in enumerate(renaming) if old}
        return None

    def find(cfg: Configuration) -> int:
        rep = canon(cfg)[0]
        node = ids.get(_typed(rep) if typed else rep)
        if node is None:
            raise ValueError("configuration is not reachable from the initial one")
        return node

    group = math.prod(math.factorial(len(c)) for c in classes)
    return reps, stabs, succ, back, group, find


def _decision_sets(reps: list, succ: list, back) -> list[frozenset]:
    """The set of reachable decisions per node of an _orbit_graph. Every
    step adds one result to a process's locals or one process to the
    crashed set, so every edge leads one step deeper, to a higher node id:
    id order is topological and the sets fill from the last node back.
    Each node's set is the union of its own decisions and then each
    successor's set, read in the successor's labeling, in step order; a set
    keeps the first of equal values, so 1, 1.0 and True keep their objects.
    Few sets are distinct: a node stores its first successor's set read with
    no value map when the union adds nothing to it."""
    decisions = [frozenset()] * len(reps)
    for node in range(len(reps) - 1, -1, -1):
        values, same = {v for _, v in reps[node].decided}, None
        for _, nxt, renaming in succ[node]:
            vmap, reached = back(renaming), decisions[nxt]
            values.update(reached if vmap is None else (vmap.get(v, v) for v in reached))
            if same is None and vmap is None:
                same = reached
        # the union holds same's values, but 1, 1.0 and True are equal, not
        # one object: share only when the two sets, iterated side by side,
        # meet the same objects (a differing iteration order just shares less)
        if same is None or len(values) != len(same) or not all(map(operator.is_, values, same)):
            same = frozenset(values)
        decisions[node] = same
    return decisions


def census(
    protocol: Protocol,
    inputs: Mapping[int, Value],
    k: int,
    crash_aware: bool = False,
) -> Census:
    """Valence counts of the whole reachable graph, from one canonical
    configuration per orbit of the group _symmetry picks (Ip and Dill,
    "Better verification through symmetry", 1996).

    The orbit graph (_orbit_graph, which Explorer reads for the trivial
    group and sim.list_violations counts paths over) replaces each successor
    by its representative. Each orbit keeps its stabilizer size, so every
    count is an exact sum of orbit sizes |G| / |Stab|, and each edge keeps the
    renaming that takes the successor to its representative; the value map
    derived from it reads the representative's decision set in the
    successor's labeling. Critical means what find_critical means. For an
    undeclared protocol the group is trivial and the counts are Explorer's.
    """
    reps, stabs, succ, back, group, _ = _orbit_graph(protocol, dict(inputs), k, crash_aware)
    decisions = _decision_sets(reps, succ, back)
    nodes = bivalent = monovalent = critical = 0
    for node, values in enumerate(decisions):
        size = group // stabs[node]
        nodes += size
        if len(values) >= 2:
            bivalent += size
            critical += size * is_critical(decisions, succ, node)
        elif values:
            monovalent += size
    return Census(Valence(decisions[0]), len(reps), nodes, bivalent, monovalent, critical)

