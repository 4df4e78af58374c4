import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kslide.register import first_non_bottom
from kslide.sim import (
    Crash,
    Exec,
    Protocol,
    ReadOp,
    WriteOp,
    apply_crash,
    apply_exec,
    consensus_protocol,
    default_inputs,
    initial_config,
    is_live,
    list_violations,
    pending_op,
)
from kslide.valence import (
    Explorer,
    Valence,
    _canonicalizer,
    _decision_sets,
    _orbit_graph,
    _symmetry,
    census,
)
from oracles import (
    _exact,
    act,
    breadth_first_graph,
    decided_below,
    decision_set,
    forward_census,
    group_element,
    group_elements,
)
from test_sim import EQUAL_PROPOSALS

PROTO = consensus_protocol()


def explorer(k, n, inputs=None, **kwargs):
    return Explorer(PROTO, default_inputs(n) if inputs is None else inputs, k, **kwargs)


def two_register_protocol() -> Protocol:
    """Two processes working on disjoint registers, one each."""

    def next_op(pid, proposal, results):
        reg = pid - 1
        return WriteOp(reg, proposal) if not results else ReadOp(reg)

    def decide(pid, proposal, results):
        return first_non_bottom(results[-1])

    return Protocol(2, 2, next_op, decide)


# ------------------------------------------------------------ classification


def test_valence_predicates():
    mono = Valence(frozenset({3}))
    assert mono.monovalent and not mono.bivalent and mono.value == 3
    assert repr(mono) == "Monovalent(3)"
    biv = Valence(frozenset({0, 1}))
    assert biv.bivalent and not biv.monovalent
    assert repr(biv) == "Bivalent({0, 1})"
    # 0 and "x" do not compare, so sorted_values orders them by repr
    assert repr(census(PROTO, {1: 0, 2: "x"}, 2).root) == "Bivalent({'x', 0})"
    with pytest.raises(ValueError):
        biv.value


@pytest.mark.parametrize("k", [1, 2])
def test_mixed_proposals_start_bivalent(k):
    assert explorer(k, 2).reachable_decisions() == frozenset({0, 1})


def test_first_write_pins_the_decision_when_window_fits():
    ex = explorer(2, 2)
    root = initial_config(PROTO, default_inputs(2), 2)
    after_e1 = apply_exec(PROTO, default_inputs(2), root, 1)
    assert ex.reachable_decisions(after_e1) == frozenset({0})
    after_e2 = apply_exec(PROTO, default_inputs(2), root, 2)
    assert ex.reachable_decisions(after_e2) == frozenset({1})


def test_k1_successors_stay_bivalent():
    # with one slot the second writer can still push the first value out,
    # so taking one step does not settle anything
    ex = explorer(1, 2)
    root = initial_config(PROTO, default_inputs(2), 1)
    after_e1 = apply_exec(PROTO, default_inputs(2), root, 1)
    assert ex.reachable_decisions(after_e1) == frozenset({0, 1})


def test_uniform_proposals_are_monovalent_everywhere():
    ex = explorer(2, 2, inputs={1: 7, 2: 7})
    vmap = ex.valence_map()
    assert set(vmap.valences) == {Valence(frozenset({7}))}
    assert not any(vmap.critical)
    assert ex.find_critical() == []


def test_solo_process_is_monovalent_and_linear():
    ex = explorer(2, 1, inputs={1: 5})
    assert ex.reachable_decisions() == frozenset({5})
    vmap = ex.valence_map()
    assert len(vmap.nodes) == 3  # start, after write, after read
    assert len(vmap.edges) == 2


def test_monovalent_successors_keep_the_value():
    vmap = explorer(2, 2).valence_map()
    checked = 0
    for src, _, dst in vmap.edges:
        if vmap.valences[src].monovalent:
            assert vmap.valences[dst] == vmap.valences[src]
            checked += 1
    assert checked > 0


def test_monotonicity_on_every_edge():
    # decision sets from the oracle's own forward search, not the explorer's
    # fill, which makes each set a superset of its successors' by construction
    for k in (1, 2):
        vmap = explorer(k, 2).valence_map()
        searched = list(map(decided_below(PROTO, default_inputs(2)), vmap.nodes))
        assert [v.values for v in vmap.valences] == searched
        for src, _, dst in vmap.edges:
            assert searched[dst] <= searched[src]


def test_crash_aware_reaches_the_same_decisions():
    for k in (1, 2):
        plain = explorer(k, 2).valence_map()
        aware = explorer(k, 2, crash_aware=True)
        for cfg, valence in zip(plain.nodes, plain.valences):
            assert aware.reachable_decisions(cfg) == valence.values


def test_crash_aware_walk_includes_crash_edges():
    ex = explorer(2, 2, crash_aware=True)
    steps = {step for _, step, _ in ex.valence_map().edges}
    assert Crash(1) in steps and Crash(2) in steps


# ------------------------------------------------------------ critical configs


def test_k2_critical_config_is_the_initial_one():
    ex = explorer(2, 2)
    crit = ex.find_critical()
    assert len(crit) == 1
    cc = crit[0]
    assert cc.config == initial_config(PROTO, default_inputs(2), 2)
    assert [(pid, val) for pid, _, val in cc.successors] == [
        (1, Valence(frozenset({0}))),
        (2, Valence(frozenset({1}))),
    ]


def test_k2_critical_pending_ops_are_writes_to_one_register():
    ex = explorer(2, 2)
    (cc,) = ex.find_critical()
    ops = [pending_op(PROTO, default_inputs(2), cc.config, pid) for pid in (1, 2)]
    assert all(isinstance(op, WriteOp) for op in ops)
    assert len({op.reg for op in ops}) == 1


def test_k1_critical_configs_are_the_terminal_disagreements():
    # beyond capacity no single next operation settles the run; the only
    # configurations with no bivalent successor are the finished runs that
    # already decided both values
    ex = explorer(1, 2)
    crit = ex.find_critical()
    assert len(crit) == 2
    for cc in crit:
        assert cc.successors == ()
        assert {v for _, v in cc.config.decided} == {0, 1}


@pytest.mark.parametrize("k", [1, 2])
def test_critical_configs_recheck_independently(k):
    ex = explorer(k, 2)
    for cc in ex.find_critical():
        fresh = explorer(k, 2)
        assert Valence(fresh.reachable_decisions(cc.config)).bivalent
        for pid, succ, valence in cc.successors:
            assert Valence(fresh.reachable_decisions(succ)).monovalent
            assert fresh.reachable_decisions(succ) == valence.values
            assert succ == apply_exec(PROTO, default_inputs(2), cc.config, pid)


def test_bivalent_root_always_yields_a_critical_config():
    for k in (1, 2, 3):
        ex = explorer(k, 2)
        if len(ex.reachable_decisions()) >= 2:
            assert ex.find_critical(), f"no critical configuration found for k={k}"


# ------------------------------------------------------------ maps


def test_valence_map_is_deterministic():
    a = explorer(2, 2).valence_map()
    b = explorer(2, 2).valence_map()
    assert a.nodes == b.nodes
    assert a.valences == b.valences
    assert a.edges == b.edges


def test_valence_map_counts():
    vmap = explorer(2, 2).valence_map()
    c = census(PROTO, default_inputs(2), 2)
    assert c.bivalent + c.monovalent == c.nodes == len(vmap.nodes)
    assert c.bivalent == 1  # only the root is undetermined
    assert [v.bivalent for v in vmap.valences] == [True] + [False] * (c.nodes - 1)
    assert vmap.nodes[0] == initial_config(PROTO, default_inputs(2), 2)


def test_map_edges_connect_known_nodes():
    vmap = explorer(1, 2).valence_map()
    for src, step, dst in vmap.edges:
        assert 0 <= src < len(vmap.nodes) and 0 <= dst < len(vmap.nodes)
        assert isinstance(step, (Exec, Crash))


@settings(deadline=None, max_examples=80)
@given(
    st.integers(1, 3),
    st.lists(st.sampled_from([0, 1, 2, 1.0, True]), min_size=1, max_size=3),
    st.booleans(),
)
def test_map_numbers_nodes_breadth_first_from_the_root(k, proposals, crash_aware):
    # node ids are the order a plain queue first meets each configuration,
    # so reading nodes in id order is a breadth-first pass; repr keeps 1,
    # 1.0 and True apart where == does not
    inputs = dict(enumerate(proposals, 1))
    ex = Explorer(PROTO, inputs, k, crash_aware=crash_aware)
    vmap = ex.valence_map()
    nodes, edges = breadth_first_graph(PROTO, inputs, k, crash_aware)
    assert list(map(repr, vmap.nodes)) == list(map(repr, nodes))
    assert vmap.edges == edges
    flagged = [cfg for cfg, critical in zip(vmap.nodes, vmap.critical) if critical]
    assert [cc.config for cc in ex.find_critical()] == flagged


# ------------------------------------------------------------ commutation


def in_order(proto, inputs, cfg, *pids):
    """cfg after each pid in turn takes its next step."""
    for pid in pids:
        cfg = apply_exec(proto, inputs, cfg, pid)
    return cfg


def test_operations_on_distinct_registers_commute_everywhere():
    proto = two_register_protocol()
    inputs = default_inputs(2)
    ex = Explorer(proto, inputs, 2)
    checked = 0
    for cfg in ex.valence_map().nodes:
        if all(pending_op(proto, inputs, cfg, pid) is not None for pid in (1, 2)):
            assert in_order(proto, inputs, cfg, 1, 2) == in_order(proto, inputs, cfg, 2, 1)
            checked += 1
    assert checked > 0


def test_same_register_writes_do_not_commute():
    inputs = default_inputs(2)
    cfg = initial_config(PROTO, inputs, 2)
    assert in_order(PROTO, inputs, cfg, 1, 2) != in_order(PROTO, inputs, cfg, 2, 1)


def test_same_register_reads_commute():
    inputs = default_inputs(2)
    cfg = in_order(PROTO, inputs, initial_config(PROTO, inputs, 2), 1, 2)
    # both pending operations are now reads of register 0
    assert in_order(PROTO, inputs, cfg, 1, 2) == in_order(PROTO, inputs, cfg, 2, 1)


# ------------------------------------------------------------ oracle, depth


@st.composite
def prefix_cases(draw):
    """Window size, proposals (repeats allowed) and a pid prefix of the
    two-step protocol."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    proposals = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    steps = draw(st.permutations([pid for pid in range(1, n + 1) for _ in range(2)]))
    return k, proposals, steps[: draw(st.integers(0, len(steps)))]


@settings(deadline=None, max_examples=200)
@given(prefix_cases(), st.booleans())
def test_decision_sets_match_the_replay_oracle(case, crash_aware):
    k, proposals, prefix = case
    inputs = dict(enumerate(proposals, 1))
    cfg = initial_config(PROTO, inputs, k)
    for pid in prefix:
        cfg = apply_exec(PROTO, inputs, cfg, pid)
    ex = Explorer(PROTO, inputs, k, crash_aware=crash_aware)
    assert ex.reachable_decisions(cfg) == decision_set(k, proposals, prefix)


def test_unreachable_configuration_is_rejected():
    # a hand-made window no run writes: the explorer's graph holds only what
    # the initial configuration reaches
    ex = explorer(2, 2)
    cfg = initial_config(PROTO, default_inputs(2), 2)._replace(registers=(("x", 5),))
    with pytest.raises(ValueError, match="not reachable"):
        ex.reachable_decisions(cfg)


def test_deep_protocol_is_classified_without_recursion():
    def next_op(pid, proposal, results):
        return ReadOp(0)

    def decide(pid, proposal, results):
        return proposal

    deep = Protocol(1, 1200, next_op, decide)
    ex = Explorer(deep, {1: 0}, 1)
    assert ex.reachable_decisions() == frozenset({0})
    vmap = ex.valence_map()
    assert len(vmap.nodes) == 1201
    assert vmap.edges == [(i, Exec(1), i + 1) for i in range(1200)]
    assert ex.find_critical() == []


# ------------------------------------------------------------ census


def explorer_counts(protocol, inputs, k, crash_aware):
    ex = Explorer(protocol, inputs, k, crash_aware=crash_aware)
    vmap = ex.valence_map()
    return (
        repr(vmap.valences[0]),
        len(vmap.nodes),
        sum(v.bivalent for v in vmap.valences),
        sum(v.monovalent for v in vmap.valences),
        len(ex.find_critical()),
    )


def census_counts(protocol, inputs, k, crash_aware):
    c = census(protocol, inputs, k, crash_aware=crash_aware)
    return (repr(c.root), c.nodes, c.bivalent, c.monovalent, c.critical)


@st.composite
def census_cases(draw):
    """Window size and proposals drawn from three values, so repeats occur."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    proposals = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return k, dict(enumerate(proposals, 1))


@settings(deadline=None, max_examples=80)
@given(census_cases(), st.booleans())
def test_census_matches_the_unreduced_explorer(case, crash_aware):
    k, inputs = case
    assert census_counts(PROTO, inputs, k, crash_aware) == explorer_counts(
        PROTO, inputs, k, crash_aware
    )


@pytest.mark.parametrize("crash_aware", [False, True])
@pytest.mark.parametrize("inputs", EQUAL_PROPOSALS)
def test_census_keeps_equal_proposals_apart(inputs, crash_aware):
    # 1, 1.0 and True are equal but distinct objects: no pid is renamed, so
    # every orbit is one configuration and each decision keeps its object
    c = census(PROTO, inputs, 1, crash_aware=crash_aware)
    assert c.orbits == c.nodes
    assert census_counts(PROTO, inputs, 1, crash_aware) == explorer_counts(
        PROTO, inputs, 1, crash_aware
    )


@pytest.mark.parametrize("crash_aware, nodes", [(False, 133), (True, 404)])
def test_equal_proposals_of_distinct_types_are_distinct_nodes(crash_aware, nodes):
    # the window (1,) after E1,E2 equals the window (True,) after E2,E1, but
    # they hold distinct objects: each is its own node, and every terminal's
    # decision set holds the objects its own run decided
    inputs = {1: True, 2: 1, 3: 1.0}
    vmap = Explorer(PROTO, inputs, 1, crash_aware=crash_aware).valence_map()
    assert len(vmap.nodes) == nodes
    c = census(PROTO, inputs, 1, crash_aware=crash_aware)
    assert c.orbits == c.nodes == nodes
    inner = {src for src, _, _ in vmap.edges}
    terminals = [i for i in range(len(vmap.nodes)) if i not in inner]
    assert terminals
    for i in terminals:
        decided = [v for _, v in vmap.nodes[i].decided]
        assert all(any(v is d for d in decided) for v in vmap.valences[i].values)
        assert vmap.valences[i].values == frozenset(decided)


def _unshared_decision_sets(reps, succ, back):
    """_decision_sets' union with a new frozenset per node, which the shared
    sets must match object for object."""
    decisions = [frozenset()] * len(reps)
    for node in range(len(reps) - 1, -1, -1):
        values = {v for _, v in reps[node].decided}
        for _, nxt, renaming in succ[node]:
            vmap, reached = back(renaming), decisions[nxt]
            values.update(reached if vmap is None else (vmap.get(v, v) for v in reached))
        decisions[node] = frozenset(values)
    return decisions


@pytest.mark.parametrize("crash_aware", [False, True])
@pytest.mark.parametrize("inputs", [*EQUAL_PROPOSALS, {1: 0, 2: 1, 3: 2}, {1: 0, 2: 0, 3: 1}])
@pytest.mark.parametrize("k", [1, 2])
def test_shared_decision_sets_hold_the_unshared_objects(k, inputs, crash_aware):
    # a node stores a successor's set only when the union holds its very
    # objects: with 1, 1.0 and True the union can equal a set it is not
    reps, _, succ, back, _, _ = _orbit_graph(PROTO, inputs, k, crash_aware)
    shared = _decision_sets(reps, succ, back)
    want = _unshared_decision_sets(reps, succ, back)
    assert [{*map(id, values)} for values in shared] == [{*map(id, values)} for values in want]
    assert len({*map(id, shared)}) < len(shared)


@settings(deadline=None, max_examples=80)
@given(
    st.integers(1, 3),
    st.lists(st.sampled_from([0, 1, 2, 1.0, True]), min_size=1, max_size=3),
    st.booleans(),
)
def test_census_matches_a_forward_search(k, proposals, crash_aware):
    # forward_census shares no code with valence: it steps with apply_exec
    # and apply_crash and classifies by its own search to the terminals.
    # 1, 1.0 and True are equal proposals that no renaming may merge.
    inputs = dict(enumerate(proposals, 1))
    c = census(PROTO, inputs, k, crash_aware=crash_aware)
    assert (c.root.values, c.nodes, c.bivalent, c.monovalent, c.critical) == forward_census(
        PROTO, inputs, k, crash_aware
    )


def random_walk(inputs, k, seed):
    """The configurations of one seeded run: from the initial one, a random
    live process takes a step or, one time in four, crashes, until none is
    live."""
    rng = random.Random(seed)
    cfg = initial_config(PROTO, inputs, k)
    walk = [cfg]
    while live := [pid for pid in inputs if is_live(PROTO, cfg, pid)]:
        pid = rng.choice(live)
        if rng.random() < 0.25:
            cfg = apply_crash(PROTO, cfg, pid)
        else:
            cfg = apply_exec(PROTO, inputs, cfg, pid)
        walk.append(cfg)
    return walk


@settings(deadline=None, max_examples=150)
@given(
    st.integers(1, 3),
    st.lists(st.sampled_from([0, 1, 2, 1.0, True]), min_size=1, max_size=4),
    st.integers(0, 2**32 - 1),
)
# a walk with a tie of pids that took steps, whose least image a canonicalizer
# that ordered images by first sight picked by the order it met them in
@example(1, [True, True, 1], 3310834412)
def test_canonicalizer_matches_the_group_action(k, proposals, seed):
    # group_elements and act apply each renaming themselves; configurations
    # compare with 1, 1.0 and True kept apart
    inputs = dict(enumerate(proposals, 1))
    classes, relabel = _symmetry(PROTO, inputs)
    canon = _canonicalizer(inputs, classes, relabel)[0]
    group = list(group_elements(inputs, classes, relabel))
    seen = []  # (configuration, what canon returned), in the order canon met them
    for cfg in random_walk(inputs, k, seed):
        rep, stab, renaming = canon(cfg)
        seen.append((cfg, (rep, stab, renaming)))
        rename = {pid: pid if renaming is None else renaming[pid] for pid in inputs}
        assert _exact(act(cfg, *group_element(inputs, rename, relabel))) == _exact(rep)
        assert stab == sum(_exact(act(rep, *g)) == _exact(rep) for g in group)
        for g in group:
            image = act(cfg, *g)
            seen.append((image, canon(image)))
            assert _exact(seen[-1][1][0]) == _exact(rep)
    # a fresh canonicalizer meeting the same configurations in reverse order
    # returns the same results: what its tables hold never changes one
    fresh = _canonicalizer(inputs, classes, relabel)[0]
    for cfg, result in reversed(seen):
        assert _exact(fresh(cfg)) == _exact(result)


@pytest.mark.parametrize("crash_aware", [False, True])
def test_census_permutes_equal_proposals_held_by_distinct_objects(crash_aware):
    # int() makes a new object for each 1000; equal values of one type are
    # interchangeable, as they are to Explorer's configuration table
    inputs = {1: int("1000"), 2: int("2000"), 3: int("1000")}
    assert inputs[1] is not inputs[3]
    c = census(PROTO, inputs, 2, crash_aware=crash_aware)
    assert c.orbits < c.nodes
    assert census_counts(PROTO, inputs, 2, crash_aware) == explorer_counts(
        PROTO, inputs, 2, crash_aware
    )


@pytest.mark.parametrize("crash_aware", [False, True])
@pytest.mark.parametrize(
    "k, inputs", [(2, {1: 1, 2: 1, 3: True}), (1, {1: True, 2: True, 3: 1, 4: 1.0})]
)
def test_census_permutes_one_type_beside_an_equal_proposal_of_another(k, inputs, crash_aware):
    # pids with one proposal may swap, but a read of 1 is not a read of True:
    # images that differ only there are distinct, and neither fixes the other
    c = census(PROTO, inputs, k, crash_aware=crash_aware)
    assert c.orbits < c.nodes
    assert census_counts(PROTO, inputs, k, crash_aware) == explorer_counts(
        PROTO, inputs, k, crash_aware
    )
    assert (c.root.values, c.nodes, c.bivalent, c.monovalent, c.critical) == forward_census(
        PROTO, inputs, k, crash_aware
    )


@pytest.mark.parametrize(
    "k, n, crash_aware, inputs, orbits",
    [
        (3, 4, False, None, 153),
        (3, 4, True, None, 533),
        (2, 4, False, {1: 0, 2: 0, 3: 1, 4: 1}, 487),
    ],
)
def test_census_explores_one_configuration_per_orbit(k, n, crash_aware, inputs, orbits):
    inputs = default_inputs(n) if inputs is None else inputs
    c = census(PROTO, inputs, k, crash_aware=crash_aware)
    assert c.orbits == orbits
    assert census_counts(PROTO, inputs, k, crash_aware) == explorer_counts(
        PROTO, inputs, k, crash_aware
    )


def full_information_protocol(symmetric: bool) -> Protocol:
    """Write (pid, proposal, results), then read; decide the proposal of
    the oldest visible write. It writes more than proposals, so renaming
    processes is no symmetry of it."""

    def next_op(pid, proposal, results):
        return ReadOp(0) if results else WriteOp(0, (pid, proposal, results))

    def decide(pid, proposal, results):
        return first_non_bottom(results[-1])[1]

    return Protocol(1, 2, next_op, decide, symmetric=symmetric)


def test_symmetric_protocol_that_writes_more_than_proposals_is_refused():
    inputs = {1: 0, 2: 1}
    assert census(full_information_protocol(False), inputs, 2).nodes == 17
    assert list_violations(full_information_protocol(False), 2, 2, inputs)[:2] == (6, 0)
    declared = full_information_protocol(True)
    with pytest.raises(ValueError, match=r"writes only proposals, not \(1, 0, \(\)\)"):
        census(declared, inputs, 2)
    with pytest.raises(ValueError, match="writes only proposals"):
        list_violations(declared, 2, 2, inputs)


@pytest.mark.parametrize("crash_aware", [False, True])
def test_undeclared_protocol_gets_the_unreduced_graph(crash_aware):
    # each process owns a register, so renaming processes alone is no
    # symmetry; the protocol does not declare one and nothing is merged
    proto = two_register_protocol()
    assert not proto.symmetric and PROTO.symmetric
    c = census(proto, default_inputs(2), 2, crash_aware=crash_aware)
    assert c.orbits == c.nodes
    assert census_counts(proto, default_inputs(2), 2, crash_aware) == explorer_counts(
        proto, default_inputs(2), 2, crash_aware
    )
