"""kslide's layers as the benchmark traces them, and the per-layer metrics.

The layers are the package modules: register, consensus, sim, valence,
lincheck, trace and cli. install() rebinds each layer's public functions
where their callers look them up; spans are named "<layer>.<function>".
layer_metrics() turns the spans of one traced pass into the figures that
BENCHMARK.json lists under per_layer.
"""

from __future__ import annotations

from collections import Counter

from kslide import cli, register, sim, trace, valence

from spans import SpanSummary, Tracer


def _graph_size(counts: Counter, args: tuple, vmap) -> None:
    counts["valence.configs"] += len(vmap.nodes)
    counts["valence.edges"] += len(vmap.edges)


def _record_out(counts: Counter, args: tuple, line: str) -> None:
    counts["trace.records"] += 1
    counts["trace.bytes"] += len(line) + 1


def _record_in(counts: Counter, args: tuple, record) -> None:
    counts["trace.records"] += 1
    counts["trace.bytes"] += len(args[0]) + 1


def install(tracer: Tracer) -> None:
    patch = tracer.patch
    patch(cli, "verify_all", "sim.verify_all")
    patch(cli, "run_schedule", "sim.run_schedule")
    patch(cli, "check_outcome", "consensus.check_outcome")
    patch(cli, "check_linearizable", "lincheck.check_linearizable")
    patch(cli, "serialize", "trace.serialize", _record_out)
    patch(cli, "write_records", "trace.write_records")
    patch(cli, "read_records", "trace.read_records")
    patch(cli, "history_from_records", "trace.history_from_records")
    patch(cli, "violation_record", "trace.violation_record")
    patch(cli, "outcome_record", "trace.outcome_record")
    patch(sim, "enumerate_schedules", "sim.enumerate_schedules", generator=True)
    patch(sim, "run_schedule", "sim.run_schedule")
    patch(sim, "check_outcome", "consensus.check_outcome")
    patch(valence, "apply_exec", "sim.apply_exec")
    patch(valence, "apply_crash", "sim.apply_crash")
    patch(valence.Explorer, "valence_map", "valence.valence_map", _graph_size)
    patch(valence.Explorer, "find_critical", "valence.find_critical")
    patch(valence.Explorer, "reachable_decisions", "valence.reachable_decisions")
    patch(trace, "serialize", "trace.serialize", _record_out)
    patch(trace, "parse", "trace.parse", _record_in)
    for method in ("write", "read", "state", "from_state"):
        patch(register.SlidingRegister, method, "register." + method)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(s: SpanSummary, counts: Counter) -> dict:
    """name -> (value, unit) for one traced pass. counts also carries what
    the harness counted at the job boundary: cli.stdout_bytes and
    lincheck.ops (operations in the histories handed to the checker)."""
    sec = 1e-9
    register_calls = s.layer_calls("register")
    register_self = s.layer_self_ns("register")
    schedules = counts["sim.enumerate_schedules.items"]
    runs = s.calls["sim.run_schedule"]
    applies = s.calls["sim.apply_exec"]
    configs, edges = counts["valence.configs"], counts["valence.edges"]
    valence_map_s = s.total_ns["valence.valence_map"] * sec
    find_critical_s = s.total_ns["valence.find_critical"] * sec
    ops = counts["lincheck.ops"]
    # The checker snapshots the register once per search node it enters.
    nodes = s.under[("lincheck.check_linearizable", "register.state")]
    return {
        "register.calls": (register_calls, "count"),
        "register.self_s": (register_self * sec, "s"),
        "register.ns_per_call": (_ratio(register_self, register_calls), "ns"),
        "consensus.check_outcome.calls": (s.calls["consensus.check_outcome"], "count"),
        "consensus.self_s": (s.layer_self_ns("consensus") * sec, "s"),
        "sim.schedules": (schedules, "count"),
        "sim.enumerate.self_s": (s.self_ns["sim.enumerate_schedules"] * sec, "s"),
        "sim.run_schedule.calls": (runs, "count"),
        "sim.run_schedule.self_s": (s.self_ns["sim.run_schedule"] * sec, "s"),
        "sim.schedules_per_s": (
            _ratio(schedules, s.total_ns["sim.verify_all"] * sec), "1/s"
        ),
        "sim.runs_per_schedule": (_ratio(runs, schedules), "ratio"),
        "sim.apply_exec.calls": (applies, "count"),
        "sim.apply_exec.self_s": (s.self_ns["sim.apply_exec"] * sec, "s"),
        "valence.configs": (configs, "count"),
        "valence.edges": (edges, "count"),
        "valence.configs_per_s": (
            _ratio(configs, valence_map_s + find_critical_s), "1/s"
        ),
        "valence.valence_map.s": (valence_map_s, "s"),
        "valence.find_critical.s": (find_critical_s, "s"),
        "valence.self_s": (s.layer_self_ns("valence") * sec, "s"),
        "valence.applies_per_edge": (_ratio(applies, edges), "ratio"),
        "lincheck.histories": (s.calls["lincheck.check_linearizable"], "count"),
        "lincheck.ops": (ops, "count"),
        "lincheck.ops_per_s": (
            _ratio(ops, s.total_ns["lincheck.check_linearizable"] * sec), "1/s"
        ),
        "lincheck.self_s": (s.layer_self_ns("lincheck") * sec, "s"),
        "lincheck.search_nodes": (nodes, "count"),
        "lincheck.nodes_per_op": (_ratio(nodes, ops), "ratio"),
        "lincheck.errors": (counts["lincheck.check_linearizable.errors"], "count"),
        "trace.records": (counts["trace.records"], "count"),
        "trace.bytes": (counts["trace.bytes"], "bytes"),
        "trace.self_s": (s.layer_self_ns("trace") * sec, "s"),
        "cli.self_s": (s.layer_self_ns("cli") * sec, "s"),
        "cli.stdout_bytes": (counts["cli.stdout_bytes"], "bytes"),
    }
