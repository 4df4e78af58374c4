"""Acceptance gate.

One test per acceptance criterion. Each test prints exactly one line,
"[criterion N] <what it checks>: PASS" or ": FAIL (<reasons>)", then
asserts. Run with `pytest tests/test_acceptance.py -v -s` to see the
lines as they print; under plain `pytest -v` the line still appears in
captured output whenever a criterion fails.

All expected values are frozen in this file. Counts come from the
independent combinatorial oracles in tests/oracles.py (multinomial
interleaving formulas) or were derived by hand before the code under
test existed. Tolerances: counts and register windows are exact (zero
tolerance), wall-clock limits are 5 s for the exhaustive sweeps and
60 s for the seeded stress run, and the deliberately broken register
must be rejected in at least 1 of 1000 histories.
"""

from __future__ import annotations

import hashlib
import io
import time
from contextlib import redirect_stdout

from oracles import crash_free_count, padded_last_k, with_crash_count

from kslide.cli import main as cli_main
from kslide.lincheck import check_linearizable, stress
from kslide.register import SlidingRegister, WindowShortRegister
from kslide.sim import (
    Protocol,
    ReadOp,
    WriteOp,
    apply_exec,
    consensus_protocol,
    default_inputs,
    eviction_schedule,
    find_violation,
    format_schedule,
    format_step,
    initial_config,
    parse_schedule,
    pending_op,
    run_schedule,
    verify_all,
)
from kslide.trace import (
    OutcomeRecord,
    ScheduleRecord,
    ViolationRecord,
    outcome_record,
    read_records,
)
from kslide.valence import Explorer, check_commutation

# Frozen expectations. Crash-free interleavings of n processes taking 2
# steps each are (2n)!/2**n; the crash-truncated counts add, for every
# process independently, the schedules where it stops after 0 or 1 of
# its steps (a crash marker consumes a slot). Both columns are
# recomputed from tests/oracles.py inside criterion 1.
CRASH_FREE_COUNTS = {1: 1, 2: 6, 3: 90, 4: 2520}
CRASH_TRUNCATION_COUNTS = {1: 3, 2: 38, 3: 1158, 4: 65304}

# Hand-derived complete set of agreement-breaking schedules for a size-1
# window and 2 processes: whoever reads second sees only the other
# process's later write.
K1_VIOLATING_SET = {("E1", "E1", "E2", "E2"), ("E2", "E2", "E1", "E1")}

# SHA-256 of stdout and of the saved history of `lincheck stress --threads 2
# --ops 3 --histories 1 --seed 11 --save history.jsonl`, pinned when the
# stress driver became a seeded step scheduler.
STRESS_SEED_11_SHA256 = (
    "b7a204736e732831c689df334ee8a5ad7c1d094e97c963b46344b6a2d760c462",
    "091aeb7e7c33cbb5272a24c87f0485e231b88c49e476a2ca0125a48f0e4b9146",
)

TREE_VALUES = (0, 1, 2)
TREE_DEPTH = 8
TREE_NODES = (len(TREE_VALUES) ** (TREE_DEPTH + 1) - 1) // (len(TREE_VALUES) - 1)


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {description}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def test_criterion_1_within_capacity_every_schedule_agrees():
    """With as many participants as the window holds, exhaustive checking
    of every crash-free schedule and every crash truncation finds no
    validity, agreement, or termination violation, and the crash-free
    schedule counts match the interleaving formula exactly."""
    protocol = consensus_protocol()
    problems = []
    start = time.monotonic()
    for k, expected in CRASH_FREE_COUNTS.items():
        if expected != crash_free_count(k, 2):
            problems.append(f"frozen crash-free count for k={k} disagrees with oracle")
        rep = verify_all(protocol, k, k)
        if rep.schedules_checked != expected:
            problems.append(
                f"k={k}: checked {rep.schedules_checked} crash-free schedules, expected {expected}"
            )
        if rep.violations:
            problems.append(f"k={k}: {len(rep.violations)} crash-free violations")
    for k, expected in CRASH_TRUNCATION_COUNTS.items():
        if expected != with_crash_count(k, 2):
            problems.append(f"frozen truncation count for k={k} disagrees with oracle")
        rep = verify_all(protocol, k, k, with_crashes=True)
        if rep.schedules_checked != expected:
            problems.append(
                f"k={k}: checked {rep.schedules_checked} truncated schedules, expected {expected}"
            )
        if rep.violations:
            problems.append(f"k={k}: {len(rep.violations)} violations under crashes")
    elapsed = time.monotonic() - start
    if elapsed >= 5.0:
        problems.append(f"took {elapsed:.2f}s, limit 5s")
    report(
        1,
        "exhaustive verification is clean for k=1..4 with n=k",
        not problems,
        "; ".join(problems) or f"{sum(CRASH_FREE_COUNTS.values())} crash-free plus "
        f"{sum(CRASH_TRUNCATION_COUNTS.values())} truncated schedules in {elapsed:.2f}s",
    )


def test_criterion_2_one_extra_participant_breaks_agreement():
    """With one participant more than the window holds, the search
    produces the eviction schedule first and it yields two distinct
    decisions; for a size-1 window the exhaustive search returns exactly
    the hand-derived violating set, which is not empty."""
    protocol = consensus_protocol()
    problems = []
    start = time.monotonic()
    for k in (1, 2, 3):
        n = k + 1
        found = find_violation(protocol, k, n, max_results=1)
        if not found:
            problems.append(f"k={k}: no violating schedule found")
            continue
        lead = found[0][0]
        if lead != eviction_schedule(k, n):
            problems.append(
                f"k={k}: leading schedule {','.join(format_schedule(lead))} is not the eviction schedule"
            )
        out = run_schedule(protocol, default_inputs(n), k, lead)
        if len(set(out.decisions.values())) < 2:
            problems.append(f"k={k}: decisions {out.decisions} do not disagree")
    exhaustive = find_violation(protocol, 1, 2)
    if not exhaustive:
        problems.append("k=1 exhaustive search found nothing")
    got = {tuple(format_schedule(s)) for s, _, _ in exhaustive}
    if got != K1_VIOLATING_SET:
        problems.append(f"k=1 violating set {sorted(got)} != {sorted(K1_VIOLATING_SET)}")
    elapsed = time.monotonic() - start
    if elapsed >= 5.0:
        problems.append(f"took {elapsed:.2f}s, limit 5s")
    report(
        2,
        "eviction counterexample found for k=1..3 with n=k+1",
        not problems,
        "; ".join(problems) or f"exhaustive k=1 set has {len(got)} schedules, {elapsed:.2f}s",
    )


def _walk_write_tree(k: int, visit) -> int:
    """Visit every write-only sequence of length <= TREE_DEPTH over
    TREE_VALUES exactly once, carrying a ring register and the list of
    values written so far. Returns the number of sequences visited.

    Reads do not change register state (re-checked at every node), so
    any mixed read/write sequence behaves as its write subsequence with
    reads sampled at the visited prefixes; checking reads at every node
    therefore covers all operation sequences of the same length bound.
    """
    count = 0

    def rec(reg: SlidingRegister, values: list, depth: int) -> None:
        nonlocal count
        count += 1
        visit(reg, values)
        if depth == TREE_DEPTH:
            return
        for v in TREE_VALUES:
            child = SlidingRegister.from_state(k, reg.state())
            child.write(v)
            rec(child, values + [v], depth + 1)

    rec(SlidingRegister(k), [], 0)
    return count


def test_criterion_3_ring_register_matches_full_sequence_oracle():
    """Over every operation sequence of length <= 8 on 3 values, for
    window sizes 1 to 3, the ring register's read window equals the
    window derived from the full write sequence, exactly."""
    problems = []
    for k in (1, 2, 3):
        def visit(reg, values, k=k):
            window = reg.read()
            expected = padded_last_k(values, k)
            if window != expected:
                problems.append(f"k={k}, writes {values}: {window} != {expected}")
            state_before = reg.state()
            if reg.read() != window or reg.state() != state_before:
                problems.append(f"k={k}, writes {values}: read is not side-effect free")

        visited = _walk_write_tree(k, visit)
        if visited != TREE_NODES:
            problems.append(f"k={k}: visited {visited} sequences, expected {TREE_NODES}")
    report(
        3,
        "ring register equals the full-sequence oracle on all sequences up to length 8",
        not problems,
        "; ".join(problems[:3]) or f"{TREE_NODES} sequences per window size, zero tolerance",
    )


def test_criterion_4_narrowed_views_match_suffix_oracle():
    """On the same exhaustive sequence set, a view narrowed to any
    smaller window k' returns exactly the k'-suffix of the base window
    and exactly the independent oracle window for k'."""
    problems = []
    for k in (1, 2, 3):
        def visit(reg, values, k=k):
            base = reg.read()
            for kp in range(1, k + 1):
                got = reg.narrow(kp).read()
                if got != base[-kp:]:
                    problems.append(f"k={k}->{kp}, writes {values}: {got} != suffix {base[-kp:]}")
                if got != padded_last_k(values, kp):
                    problems.append(
                        f"k={k}->{kp}, writes {values}: {got} != oracle {padded_last_k(values, kp)}"
                    )

        _walk_write_tree(k, visit)
    report(
        4,
        "narrowing to any k' <= k equals the k'-suffix oracle on the same sequences",
        not problems,
        "; ".join(problems[:3]) or f"every k' <= k on {TREE_NODES} sequences per window size",
    )


def test_criterion_5_valence_classification_and_critical_configurations():
    """For window sizes 1 and 2 with two processes proposing 0 and 1,
    the initial configuration is bivalent over {0, 1}; uniform proposals
    give a monovalent root; no edge of the exported graph gains decision
    values; every bivalent configuration reaches at least one critical
    configuration; and at every critical configuration all pending
    operations target the same register."""
    protocol = consensus_protocol()
    problems = []
    for k in (1, 2):
        explorer = Explorer(protocol, {1: 0, 2: 1}, k)
        root = explorer.classify()
        if not (root.bivalent and root.values == frozenset({0, 1})):
            problems.append(f"k={k}: root classified {root!r}, expected Bivalent({{0, 1}})")
        uniform = Explorer(protocol, {1: 5, 2: 5}, k).classify()
        if not (uniform.monovalent and uniform.value == 5):
            problems.append(f"k={k}: uniform proposals classified {uniform!r}")
        vmap = explorer.valence_map()
        if not vmap.edges:
            problems.append(f"k={k}: exported graph has no edges")
        for src, step, dst in vmap.edges:
            if not explorer.reachable_decisions(dst) <= explorer.reachable_decisions(src):
                problems.append(
                    f"k={k}: step {format_step(step)} gained decision values"
                )
        for cfg, valence in vmap.nodes.items():
            if valence.bivalent and not explorer.find_critical(cfg):
                problems.append(f"k={k}: bivalent configuration with no critical below it")
        criticals = explorer.find_critical()
        if not criticals:
            problems.append(f"k={k}: no critical configuration from the bivalent root")
        for cc in criticals:
            regs = {
                op.reg
                for pid in (1, 2)
                if (op := explorer.pending(cc.config, pid)) is not None
            }
            if len(regs) > 1:
                problems.append(f"k={k}: critical configuration with operations on distinct registers")
    report(
        5,
        "valence classification, edge monotonicity, and critical configurations",
        not problems,
        "; ".join(problems[:3]) or "k=1 and k=2 graphs, every edge and bivalent node checked",
    )


def _two_register_fixture() -> Protocol:
    """Two processes, each writing then reading its own register."""

    def next_op(pid, proposal, results):
        if not results:
            return WriteOp(pid - 1, proposal)
        return ReadOp(pid - 1)

    def decide(pid, proposal, results):
        return proposal

    return Protocol(
        name="two-register-fixture",
        registers=2,
        steps_per_process=2,
        next_op=next_op,
        decide=decide,
    )


def test_criterion_6_distinct_register_steps_commute():
    """On every reachable configuration of a two-process, two-register
    fixture, pending operations on distinct registers commute: taking
    the two steps in either order reaches the identical canonical
    configuration."""
    protocol = _two_register_fixture()
    inputs = {1: 10, 2: 20}
    k = 2
    problems = []
    start_cfg = initial_config(protocol, inputs, k)
    seen = {start_cfg}
    frontier = [start_cfg]
    pairs_checked = 0
    while frontier:
        cfg = frontier.pop()
        ops = {pid: pending_op(protocol, inputs, cfg, pid) for pid in (1, 2)}
        live = [pid for pid, op in ops.items() if op is not None]
        if len(live) == 2:
            if ops[1].reg == ops[2].reg:
                problems.append("fixture produced same-register pending operations")
            elif not check_commutation(protocol, inputs, k, cfg, 1, 2):
                problems.append(f"operations failed to commute at {cfg}")
            else:
                pairs_checked += 1
        for pid in live:
            nxt = apply_exec(protocol, inputs, k, cfg, pid)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    if len(seen) != 9:
        problems.append(f"explored {len(seen)} configurations, expected 9")
    if pairs_checked != 4:
        problems.append(f"checked {pairs_checked} pending pairs, expected 4")
    report(
        6,
        "operations on distinct registers commute on all reachable configurations",
        not problems,
        "; ".join(problems) or f"{len(seen)} configurations, {pairs_checked} commuting pairs",
    )


def test_criterion_7_stress_histories_are_linearizable_and_mutant_is_caught():
    """1000 seeded histories of four interleaved processes (5 operations
    each, window size 2) against the correct register all pass the
    exhaustive linearizability checker; the window-short register is
    rejected in at least one of 1000 histories. Limit 60 s."""
    problems = []
    start = time.monotonic()
    not_linearizable = [
        seed
        for seed in range(1000)
        if check_linearizable(stress(4, 5, 2, seed=seed)) is None
    ]
    if not_linearizable:
        problems.append(
            f"{len(not_linearizable)} correct-register histories rejected, first seed {not_linearizable[0]}"
        )
    mutant_rejected = sum(
        1
        for seed in range(1000)
        if check_linearizable(
            stress(4, 5, 2, seed=seed, register_factory=WindowShortRegister)
        )
        is None
    )
    if mutant_rejected < 1:
        problems.append("window-short register was never rejected in 1000 histories")
    elapsed = time.monotonic() - start
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s, limit 60s")
    report(
        7,
        "1000 seeded histories linearizable, broken register caught",
        not problems,
        "; ".join(problems)
        or f"1000/1000 clean, mutant rejected {mutant_rejected}/1000, {elapsed:.1f}s",
    )


def _run_cli(argv: list) -> tuple:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def test_criterion_8_reruns_are_byte_identical_and_schedules_replay(tmp_path, monkeypatch):
    """Re-running each trace-emitting command with the same arguments and
    seed produces byte-identical standard output and trace files, and
    every schedule found in an emitted trace replays to the identical
    outcome. The stress command is seeded end to end: its standard output
    and saved history are byte-identical across reruns and pinned by
    SHA-256, the seed pins each process's operation mix (asserted on the
    saved histories), and replaying a saved history through the file
    checker is deterministic."""
    protocol = consensus_protocol()
    problems = []
    deterministic = {
        "verify-sweep": ["verify", "--k", "1", "--n", "2"],
        "verify-replay": ["verify", "--k", "2", "--n", "2", "--schedule", "E1,C1,E2,E2"],
        "violate": ["violate", "--k", "2", "--max", "3"],
        "valence-json": ["valence", "--k", "2", "--n", "2", "--format", "json"],
        "valence-dot": ["valence", "--k", "1", "--n", "2", "--format", "dot"],
    }
    emitted = {}
    for name, argv in deterministic.items():
        outputs = []
        for attempt in ("a", "b"):
            path = tmp_path / f"{name}-{attempt}.out"
            code, stdout = _run_cli(argv + ["--output", str(path)])
            outputs.append((code, stdout, path.read_bytes()))
        (code_a, out_a, bytes_a), (code_b, out_b, bytes_b) = outputs
        if code_a != code_b or out_a != out_b:
            problems.append(f"{name}: standard output differs between reruns")
        if bytes_a != bytes_b:
            problems.append(f"{name}: trace file differs between reruns")
        if name != "valence-dot":
            emitted[name] = read_records(str(tmp_path / f"{name}-a.out"))

    for name, records in emitted.items():
        schedule_records = [r for r in records if isinstance(r, ScheduleRecord)]
        for r in records:
            if isinstance(r, ViolationRecord):
                out = run_schedule(
                    protocol, dict(r.inputs), r.k, parse_schedule(r.schedule)
                )
                if (
                    tuple(sorted(out.decisions.items())) != r.decisions
                    or tuple(sorted(out.crashed)) != r.crashed
                ):
                    problems.append(f"{name}: violation record does not replay identically")
        if schedule_records:
            outcomes = [r for r in records if isinstance(r, OutcomeRecord)]
            out = run_schedule(
                protocol, default_inputs(2), 2, parse_schedule(schedule_records[0].steps)
            )
            if outcomes and outcome_record(out) != outcomes[0]:
                problems.append(f"{name}: replayed outcome differs from the recorded one")

    saved = []
    stress_outputs = []
    for attempt in ("a", "b"):
        # same relative --save path in each run, so stdout can match byte for byte
        workdir = tmp_path / f"stress-{attempt}"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        code, stdout = _run_cli(
            ["lincheck", "stress", "--threads", "2", "--ops", "3",
             "--histories", "1", "--seed", "11", "--save", "history.jsonl"]
        )
        if code != 0:
            problems.append("stress run failed on a correct register")
        stress_outputs.append((stdout.encode(), (workdir / "history.jsonl").read_bytes()))
        saved.append(read_records(str(workdir / "history.jsonl")))
    if stress_outputs[0] != stress_outputs[1]:
        problems.append("stress: standard output or saved history differs between reruns")
    digests = tuple(hashlib.sha256(b).hexdigest() for b in stress_outputs[0])
    if digests != STRESS_SEED_11_SHA256:
        problems.append(f"stress: stdout and saved history digests {digests} moved")
    mixes = []
    for records in saved:
        per_pid = {}
        for r in records:
            if r.kind == "invoke":
                per_pid.setdefault(r.pid, []).append((r.op, r.value))
        mixes.append(per_pid)
    if mixes[0] != mixes[1]:
        problems.append("same seed produced different process operation mixes")
    recheck = {
        _run_cli(["lincheck", "file", "--path", str(tmp_path / "stress-a" / "history.jsonl")])
        for _ in range(2)
    }
    if len(recheck) != 1:
        problems.append("re-checking the same saved history was not deterministic")
    report(
        8,
        "same-seed reruns byte-identical, emitted schedules replay to the same outcome",
        not problems,
        "; ".join(problems[:3])
        or f"{len(deterministic)} commands rerun, {sum(len(r) for r in emitted.values())} records replayed",
    )
