"""Command-line harness.

Subcommands: verify (exhaustive schedule checking, or replay of one
schedule), violate (agreement counterexample with one participant too
many), valence (configuration-graph export), and lincheck (seeded stress
histories through the linearizability checker, or re-checking a saved
history file). Exit codes: 0 when every checked property holds, 1 when a
violation was found, 2 on usage or structural errors, 3 on an internal
error (an unexpected exception, reported with its traceback on stderr).
"""

from __future__ import annotations

import argparse
import functools
import shutil
import sys
from typing import Optional

from .consensus import check_outcome
from .lincheck import check_linearizable, stress
from .register import SlidingRegister, WindowShortRegister
from .sim import (
    consensus_protocol,
    default_inputs,
    find_violation,
    format_schedule,
    format_step,
    parse_schedule,
    run_schedule,
    verify_all,
)
# read_records and history_from_records stay bound for the benchmark tracer.
from .trace import (
    ScheduleRecord,
    ValenceNodeRecord,
    history_from_records,
    history_to_records,
    outcome_record,
    read_history,
    read_records,
    serialize,
    violation_record,
    write_records,
)
from .valence import Explorer, census, sorted_values

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

REGISTER_FACTORIES = {
    None: SlidingRegister,
    "window-short": WindowShortRegister,
}


def _parse_inputs(text: Optional[str], n: int) -> dict:
    if text is None:
        return default_inputs(n)
    try:
        values = [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"--inputs takes comma-separated integers, got {text!r}")
    if len(values) != n:
        raise ValueError(f"--inputs needs {n} values, got {len(values)}")
    return {pid: values[pid - 1] for pid in range(1, n + 1)}


def _require_positive(name: str, value: int) -> int:
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")
    return value


def _export(lines: list[str], output: Optional[str]) -> None:
    """Print lines, and write the same lines to output when one is given."""
    text = "".join(line + "\n" for line in lines)
    print(text, end="")
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_violations(k, n, inputs, violations, label, ending, output) -> None:
    """Print one entry per violation, label, its steps and ending(violation),
    in one write; with output, write its violation record to that file, one
    line each, in one write as well (the file is made even when there are no
    violations). A violation is a tuple that starts with its schedule and
    ends with the final decided and crashed tuples, as verify_all's and
    find_violation's do.

    Violations with one outcome share every record field but the schedule,
    so each distinct outcome is serialized once, with an empty schedule, and
    split there: keys are unique and a '"' inside a JSON string is escaped,
    so '"schedule":[]' occurs once. Step names ("E1", "C2") need no escaping,
    so joining them in gives serialize's own bytes. ending is called once per
    distinct outcome too, which is exact because the properties and the
    decisions are functions of the outcome.
    """
    # CLI proposals are ints (_parse_inputs, default_inputs), so an outcome
    # is an exact key: no two distinct outcomes encode alike.
    quoted = functools.cache(lambda step: f'"{format_step(step)}"')
    templates = {}  # outcome -> (record head, record tail, stdout ending)
    out, trace = [], []
    for violation in violations:
        outcome = violation[-2:]
        template = templates.get(outcome)
        if template is None:
            head = tail = ""
            if output:
                record = serialize(violation_record(k, n, inputs, (), *outcome))
                head, tail = record.split('"schedule":[]')
            template = head + '"schedule":[', "]" + tail + "\n", ending(violation) + "\n"
            templates[outcome] = template
        head, tail, end = template
        steps = ",".join(map(quoted, violation[0]))
        out.append(label + steps.replace('"', "") + end)
        if output:
            trace.append(head + steps + tail)
    sys.stdout.write("".join(out))
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write("".join(trace))


def _breaks(violation: tuple) -> str:
    """The " breaks <properties>" text of a verify_all violation."""
    prop = violation[1]
    return " breaks " + ",".join(name for name, held in zip(prop._fields, prop) if not held)


def _decides(violation: tuple) -> str:
    """One "  p<pid> decides <value>" line per decision of a find_violation hit."""
    return "".join(f"\n  p{pid} decides {value}" for pid, value in violation[-2])


def cmd_verify(args) -> int:
    k = _require_positive("--k", args.k)
    n = _require_positive("--n", args.n)
    inputs = _parse_inputs(args.inputs, n)
    protocol = consensus_protocol()
    if args.schedule is not None:
        if args.crashes:
            raise ValueError("--crashes applies to enumeration, not to a --schedule replay")
        sched = parse_schedule(args.schedule.split(","))
        end = run_schedule(protocol, inputs, k, sched)
        records = [ScheduleRecord(tuple(format_schedule(sched))), outcome_record(end)]
        _export([serialize(record) for record in records], args.output)
        report = check_outcome(inputs, dict(end.decided), end.crashed)
        print(
            "properties: "
            f"validity={report.validity} agreement={report.agreement} "
            f"termination={report.termination}"
        )
        return EXIT_OK if report.ok else EXIT_VIOLATION
    report = verify_all(protocol, k, n, inputs, with_crashes=args.crashes)
    label = (
        "schedules including crash truncations" if args.crashes else "crash-free schedules"
    )
    print(f"{report.schedules_checked} {label}, {len(report.violations)} violations")
    _write_violations(k, n, inputs, report.violations, "violation: ", _breaks, args.output)
    return EXIT_VIOLATION if report.violations else EXIT_OK


def cmd_violate(args) -> int:
    k = _require_positive("--k", args.k)
    n = k + 1
    inputs = _parse_inputs(args.inputs, n)
    _require_positive("--max", args.max)
    protocol = consensus_protocol()
    found = find_violation(protocol, k, n, inputs, max_results=args.max)
    if not found:
        print("no agreement violation found")
        return EXIT_OK
    _write_violations(k, n, inputs, found, "schedule: ", _decides, args.output)
    return EXIT_VIOLATION


def _valence_json(vmap) -> list[str]:
    edges_by_src = [[] for _ in vmap.nodes]
    for src, step, dst in vmap.edges:
        edges_by_src[src].append((format_step(step), dst))
    return [
        serialize(ValenceNodeRecord(
            i, sorted_values(valence.values), critical, cfg.decided, tuple(edges)
        ))
        for i, (cfg, valence, critical, edges) in enumerate(
            zip(vmap.nodes, vmap.valences, vmap.critical, edges_by_src)
        )
    ]


def _valence_dot(vmap) -> list[str]:
    lines = ["digraph valence {"]
    for i, (valence, critical) in enumerate(zip(vmap.valences, vmap.critical)):
        peripheries = ", peripheries=2" if critical else ""
        lines.append(f'  n{i} [label="{valence!r}"{peripheries}];')
    for src, step, dst in vmap.edges:
        lines.append(f'  n{src} -> n{dst} [label="{format_step(step)}"];')
    lines.append("}")
    return lines


def cmd_valence(args) -> int:
    k = _require_positive("--k", args.k)
    n = _require_positive("--n", args.n)
    inputs = _parse_inputs(args.inputs, n)
    protocol = consensus_protocol()
    # The summary counts orbits; the exports list every node, unreduced.
    if args.format == "text":
        summary = census(protocol, inputs, k, crash_aware=args.crash_aware)
        lines = [
            f"root: {summary.root!r}",
            f"nodes: {summary.nodes} "
            f"({summary.bivalent} bivalent, {summary.monovalent} monovalent)",
            f"critical configurations: {summary.critical}",
        ]
    else:
        vmap = Explorer(protocol, inputs, k, crash_aware=args.crash_aware).valence_map()
        lines = (_valence_json if args.format == "json" else _valence_dot)(vmap)
    _export(lines, args.output)
    return EXIT_OK


def cmd_lincheck_stress(args) -> int:
    threads = _require_positive("--threads", args.threads)
    ops = _require_positive("--ops", args.ops)
    k = _require_positive("--k", args.k)
    histories = _require_positive("--histories", args.histories)
    factory = REGISTER_FACTORIES[args.mutant]
    failures = 0
    first_failing = None
    last = None
    for i in range(histories):
        history = stress(threads, ops, k, seed=args.seed + i, register_factory=factory)
        last = history
        if check_linearizable(history) is None:
            failures += 1
            if first_failing is None:
                first_failing = history
    print(f"{histories} histories checked, {failures} non-linearizable")
    if args.save:
        chosen = first_failing if first_failing is not None else last
        write_records(args.save, history_to_records(chosen))
        print(f"saved history to {args.save}")
    return EXIT_VIOLATION if failures else EXIT_OK


def cmd_lincheck_file(args) -> int:
    witness = check_linearizable(read_history(args.path))
    if witness is None:
        print("not linearizable")
        return EXIT_VIOLATION
    print(f"linearizable ({len(witness)} operations ordered)")
    return EXIT_OK


def _verify_arguments(p, argv) -> None:
    p.add_argument("--k", type=int, required=True, help="window size")
    p.add_argument("--n", type=int, required=True, help="process count")
    p.add_argument("--inputs", help="comma-separated proposals, one per process")
    p.add_argument("--crashes", action="store_true", help="also enumerate crash truncations")
    p.add_argument("--schedule", help="replay one schedule (comma-separated steps like E1,E2)")
    p.add_argument("--output", help="write trace records to this file")
    p.set_defaults(func=cmd_verify)


def _violate_arguments(p, argv) -> None:
    p.add_argument("--k", type=int, required=True, help="window size")
    p.add_argument("--inputs", help="comma-separated proposals for the k + 1 processes")
    p.add_argument("--max", type=int, default=1, help="how many violating schedules to report")
    p.add_argument("--output", help="write trace records to this file")
    p.set_defaults(func=cmd_violate)


def _valence_arguments(p, argv) -> None:
    p.add_argument("--k", type=int, required=True, help="window size")
    p.add_argument("--n", type=int, required=True, help="process count")
    p.add_argument("--inputs", help="comma-separated proposals")
    p.add_argument("--format", choices=("text", "dot", "json"), default="text")
    p.add_argument("--crash-aware", action="store_true", help="include crash steps as edges")
    p.add_argument("--output", help="write the export to this file")
    p.set_defaults(func=cmd_valence)


def _stress_arguments(p, argv) -> None:
    p.add_argument("--threads", type=int, default=4, help="processes per history")
    p.add_argument("--ops", type=int, default=5, help="operations per process")
    p.add_argument("--k", type=int, default=2, help="window size")
    p.add_argument("--seed", type=int, default=0, help="base seed (default: 0)")
    p.add_argument("--histories", type=int, default=1000)
    p.add_argument(
        "--mutant",
        choices=tuple(name for name in REGISTER_FACTORIES if name),
        default=None,
        help="stress a deliberately broken register instead",
    )
    p.add_argument("--save", help="write one history (first failing, else last)")
    p.set_defaults(func=cmd_lincheck_stress)


def _file_arguments(p, argv) -> None:
    p.add_argument("--path", required=True)
    p.set_defaults(func=cmd_lincheck_file)


# name -> (help, add_arguments(parser, argv after the name)), per level
LINCHECK_MODES = {
    "stress": ("generate seeded interleaved histories and check them", _stress_arguments),
    "file": ("re-check a saved history", _file_arguments),
}
COMMANDS = {
    "verify": ("check consensus properties over exhaustive schedules", _verify_arguments),
    "violate": ("produce an agreement violation with k + 1 processes", _violate_arguments),
    "valence": ("explore and export the configuration graph", _valence_arguments),
    "lincheck": (
        "linearizability checking of register histories",
        lambda p, argv: _add_commands(p, "mode", LINCHECK_MODES, argv),
    ),
}


def _add_commands(parser, dest, commands, argv) -> None:
    """Give parser one subparser per command, or only argv[0]'s when argv
    starts with a command name: argparse then takes that subparser whatever
    the others are. Any other argv (help, a misspelled or missing name)
    builds the level in full, so its errors and help are argparse's own."""
    if argv and argv[0] in commands:
        # A filtered level prints usage only in "unrecognized arguments"
        # errors, so it names every command as a full level does. A full
        # level sets no metavar: argparse names the action by it in
        # "required" and "invalid choice" errors.
        names = "{" + ",".join(commands) + "}"
        sub = parser.add_subparsers(dest=dest, required=True, metavar=names)
        chosen, rest = argv[:1], argv[1:]
    else:
        sub = parser.add_subparsers(dest=dest, required=True)
        chosen, rest = commands, ()
    for name in chosen:
        help_text, add_arguments = commands[name]
        subparser = sub.add_parser(name, help=help_text, formatter_class=parser.formatter_class)
        add_arguments(subparser, rest)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The kslide parser. With argv, only the command and lincheck mode it
    names are built: `lincheck file` builds 3 parsers, not 7. It parses argv
    as the full parser does, byte for byte in help and errors."""
    # argparse makes a HelpFormatter per add_argument call, and each asks the
    # terminal for its size: ask once per build, for the width argparse picks.
    width = shutil.get_terminal_size().columns - 2
    parser = argparse.ArgumentParser(
        prog="kslide",
        description="Sliding-window register verification harness.",
        formatter_class=functools.partial(argparse.HelpFormatter, width=width),
    )
    _add_commands(parser, "command", COMMANDS, argv)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        import traceback  # only needed on this path; keeps start-up lean

        print("internal error:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
