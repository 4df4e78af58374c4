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
import contextlib
import functools
import gc
import itertools
import re
import shutil
import sys
from typing import Iterable, Iterator, Optional

from .consensus import check_outcome
from .lincheck import check_linearizable, stress
from .register import SlidingRegister, WindowShortRegister
# verify_all, read_records and history_from_records go unused here but stay
# bound for the benchmark tracer.
from .sim import (
    consensus_protocol,
    default_inputs,
    find_violation,
    format_schedule,
    format_step,
    list_violations,
    parse_schedule,
    run_schedule,
    verify_all,
)
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
from .valence import Valence, census, is_critical, sorted_values, unreduced_graph

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
    parts = [part.strip() for part in text.split(",")]
    # int() alone would also take "1_0" and non-ASCII digits
    if not all(re.fullmatch("[+-]?[0-9]+", part) for part in parts):
        raise ValueError(f"--inputs takes comma-separated integers, got {text!r}")
    values = [int(part) for part in parts]
    if len(values) != n:
        raise ValueError(f"--inputs needs {n} values, got {len(values)}")
    return {pid: values[pid - 1] for pid in range(1, n + 1)}


def _require_positive(name: str, value: int) -> int:
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")
    return value


LISTING_CHUNK = 4096  # lines or violations per write


def _export(lines: Iterable[str], output: Optional[str]) -> None:
    """Print lines, LISTING_CHUNK at a time, writing each chunk to output
    first when one is given. The file is opened before lines is read and
    anything is printed, so an unwritable output leaves stdout empty."""
    lines = iter(lines)
    with open(output, "w", encoding="utf-8") if output else contextlib.nullcontext() as fh:
        while chunk := "".join([line + "\n" for line in itertools.islice(lines, LISTING_CHUNK)]):
            if fh:
                fh.write(chunk)
            sys.stdout.write(chunk)


def _write_violations(k, n, inputs, header, listing, label, ending, output) -> None:
    """Print header, if any, then one entry per violation: label, its steps
    and ending(report, decided); with output, write its violation record to
    that file, one line each. The file is opened before anything is printed
    and is made even when there are no violations. listing(render) yields
    (steps, render(report, decided, crashed)) per violation, steps its
    schedule's text ("E1,C2,E2"), as sim.list_violations' listing does; the
    entries and records go out LISTING_CHUNK violations at a time.

    Violations with one outcome share every record field but the schedule,
    so each distinct outcome is rendered once: its record is serialized with
    an empty schedule and split there. Keys are unique and a '"' inside a
    JSON string is escaped, so '"schedule":[]' occurs once. Step names ("E1",
    "C2") need no escaping, so quoting them in gives serialize's own bytes.
    """
    with open(output, "w", encoding="utf-8") if output else contextlib.nullcontext() as fh:
        if header:
            print(header)

        # CLI proposals are ints (_parse_inputs, default_inputs), so an
        # outcome is an exact key: no two distinct outcomes encode alike.
        @functools.cache
        def render(report, decided, crashed) -> tuple:
            head = tail = ""
            if fh:
                record = serialize(violation_record(k, n, inputs, (), decided, crashed))
                head, tail = record.split('"schedule":[]')
            return ending(report, decided) + "\n", head + '"schedule":["', '"]' + tail + "\n"

        found = listing(render)
        while chunk := list(itertools.islice(found, LISTING_CHUNK)):
            sys.stdout.write("".join([label + steps + end for steps, (end, _, _) in chunk]))
            if fh:
                fh.write("".join([
                    head + steps.replace(",", '","') + tail for steps, (_, head, tail) in chunk
                ]))


def _breaks(report, decided) -> str:
    """The " breaks <properties>" text of a verify violation."""
    return " breaks " + ",".join(name for name, held in zip(report._fields, report) if not held)


def _decides(report, decided) -> str:
    """One "  p<pid> decides <value>" line per decision of a violate hit."""
    return "".join(f"\n  p{pid} decides {value}" for pid, value in decided)


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
    schedules, count, listing = list_violations(protocol, k, n, inputs, args.crashes)
    label = "schedules including crash truncations" if args.crashes else "crash-free schedules"
    header = f"{schedules} {label}, {count} violations"
    _write_violations(k, n, inputs, header, listing, "violation: ", _breaks, args.output)
    return EXIT_VIOLATION if count else EXIT_OK


def cmd_violate(args) -> int:
    k = _require_positive("--k", args.k)
    n = k + 1
    inputs = _parse_inputs(args.inputs, n)
    # islice takes no stop above sys.maxsize, and no search finds that many
    most = min(_require_positive("--max", args.max), sys.maxsize)
    found = itertools.islice(find_violation(consensus_protocol(), k, n, inputs), most)
    first = next(found, None)
    if first is None:
        print("no agreement violation found")
        return EXIT_OK

    def listing(render):
        for sched, decided, crashed in itertools.chain((first,), found):
            yield ",".join(map(format_step, sched)), render(None, decided, crashed)

    _write_violations(k, n, inputs, None, listing, "schedule: ", _decides, args.output)
    return EXIT_VIOLATION


def _valence_json(protocol, inputs, k, crash_aware) -> Iterator[str]:
    """One valence-node record line per node of the unreduced graph, in id
    order, each with its edges in step order."""
    configs, succ, _, decisions = unreduced_graph(protocol, inputs, k, crash_aware)
    name = functools.cache(format_step)
    for node, (cfg, out) in enumerate(zip(configs, succ)):
        yield serialize(ValenceNodeRecord(
            node,
            sorted_values(decisions[node]),
            is_critical(decisions, succ, node),
            cfg.decided,
            tuple([(name(step), dst) for step, dst, _ in out]),
        ))


def _valence_dot(protocol, inputs, k, crash_aware) -> Iterator[str]:
    """The unreduced graph in dot: every node in id order, then every edge
    in source id and step order."""
    _, succ, _, decisions = unreduced_graph(protocol, inputs, k, crash_aware)
    # CLI proposals are ints (_parse_inputs), so equal decision sets print alike
    label = functools.cache(lambda values: repr(Valence(values)))
    yield "digraph valence {"
    for node, values in enumerate(decisions):
        peripheries = ", peripheries=2" if is_critical(decisions, succ, node) else ""
        yield f'  n{node} [label="{label(values)}"{peripheries}];'
    name = functools.cache(format_step)
    for node, out in enumerate(succ):
        for step, dst, _ in out:
            yield f'  n{node} -> n{dst} [label="{name(step)}"];'
    yield "}"


def cmd_valence(args) -> int:
    k = _require_positive("--k", args.k)
    n = _require_positive("--n", args.n)
    inputs = _parse_inputs(args.inputs, n)
    protocol = consensus_protocol()
    # The summary counts orbits; the exports list every node, unreduced, and
    # build the graph only once _export has opened the output file.
    if args.format == "text":
        summary = census(protocol, inputs, k, crash_aware=args.crash_aware)
        lines = [
            f"root: {summary.root!r}",
            f"nodes: {summary.nodes} "
            f"({summary.bivalent} bivalent, {summary.monovalent} monovalent)",
            f"critical configurations: {summary.critical}",
        ]
    else:
        export = _valence_json if args.format == "json" else _valence_dot
        lines = export(protocol, inputs, k, args.crash_aware)
    _export(lines, args.output)
    return EXIT_OK


def cmd_lincheck_stress(args) -> int:
    threads = _require_positive("--threads", args.threads)
    ops = _require_positive("--ops", args.ops)
    k = _require_positive("--k", args.k)
    histories = _require_positive("--histories", args.histories)
    factory = REGISTER_FACTORIES[args.mutant]
    if args.save:  # an unwritable path fails before any history runs or prints
        open(args.save, "w", encoding="utf-8").close()
    failures = 0
    first_failing = None
    for i in range(histories):
        history = stress(threads, ops, k, seed=args.seed + i, register_factory=factory)
        if check_linearizable(history) is None:
            failures += 1
            if first_failing is None:
                first_failing = history
    print(f"{histories} histories checked, {failures} non-linearizable")
    if args.save:
        chosen = first_failing if first_failing is not None else history
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


def _verify_arguments(p) -> None:
    p.add_argument("--k", type=int, required=True, help="window size")
    p.add_argument("--n", type=int, required=True, help="process count")
    p.add_argument("--inputs", help="comma-separated proposals, one per process")
    p.add_argument("--crashes", action="store_true", help="also enumerate crash truncations")
    p.add_argument("--schedule", help="replay one schedule (comma-separated steps like E1,E2)")
    p.add_argument("--output", help="write trace records to this file")
    p.set_defaults(func=cmd_verify)


def _violate_arguments(p) -> None:
    p.add_argument("--k", type=int, required=True, help="window size")
    p.add_argument("--inputs", help="comma-separated proposals for the k + 1 processes")
    p.add_argument("--max", type=int, default=1, help="how many violating schedules to report")
    p.add_argument("--output", help="write trace records to this file")
    p.set_defaults(func=cmd_violate)


def _valence_arguments(p) -> None:
    p.add_argument("--k", type=int, required=True, help="window size")
    p.add_argument("--n", type=int, required=True, help="process count")
    p.add_argument("--inputs", help="comma-separated proposals")
    p.add_argument("--format", choices=("text", "dot", "json"), default="text")
    p.add_argument("--crash-aware", action="store_true", help="include crash steps as edges")
    p.add_argument("--output", help="write the export to this file")
    p.set_defaults(func=cmd_valence)


def _stress_arguments(p) -> None:
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


def _file_arguments(p) -> None:
    p.add_argument("--path", required=True)
    p.set_defaults(func=cmd_lincheck_file)


# name -> (help, add_arguments(parser)), or (help, the next level's table)
LINCHECK_MODES = {
    "stress": ("generate seeded interleaved histories and check them", _stress_arguments),
    "file": ("re-check a saved history", _file_arguments),
}
COMMANDS = {
    "verify": ("check consensus properties over exhaustive schedules", _verify_arguments),
    "violate": ("produce an agreement violation with k + 1 processes", _violate_arguments),
    "valence": ("explore and export the configuration graph", _valence_arguments),
    "lincheck": ("linearizability checking of register histories", LINCHECK_MODES),
}
LEVELS = ("command", "mode")  # the Namespace attribute each level's name goes to


def _formatter():
    """argparse's HelpFormatter at the width it would pick. argparse makes a
    formatter per add_argument call, and each asks the terminal for its
    size: this asks once per parser tree."""
    return functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)


def _add_commands(parser, commands, depth=0) -> None:
    """Give parser one subparser per command, and each command's table a
    level of its own."""
    sub = parser.add_subparsers(dest=LEVELS[depth], required=True)
    for name, (help_text, entry) in commands.items():
        subparser = sub.add_parser(name, help=help_text, formatter_class=parser.formatter_class)
        if isinstance(entry, dict):
            _add_commands(subparser, entry, depth + 1)
        else:
            entry(subparser)


def build_parser() -> argparse.ArgumentParser:
    """The kslide parser: all seven parsers of the command tree."""
    parser = argparse.ArgumentParser(
        prog="kslide",
        description="Sliding-window register verification harness.",
        formatter_class=_formatter(),
    )
    _add_commands(parser, COMMANDS)
    return parser


def parse_args(argv) -> argparse.Namespace:
    """argv parsed as build_parser().parse_args(argv) parses it, from one
    parser when it can. When argv's leading names reach a command's
    arguments, that command's parser alone parses the rest: it has the
    nested subparser's prog and formatter, so its help and errors are the
    same bytes, and its defaults name the command as the subparsers do. Any
    other argv, and one that leaves arguments over, goes to the full parser,
    so help, errors and the top-level "unrecognized arguments" usage are
    argparse's own."""
    commands, names = COMMANDS, {}
    for dest, name in zip(LEVELS, argv):
        if name not in commands:
            break
        names[dest] = name
        entry = commands[name][1]
        if isinstance(entry, dict):
            commands = entry
            continue
        parser = argparse.ArgumentParser(
            prog=" ".join(["kslide", *names.values()]), formatter_class=_formatter()
        )
        entry(parser)
        parser.set_defaults(**names)
        args, rest = parser.parse_known_args(argv[len(names):])
        if not rest:
            return args
        break
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    """Run the command argv names and return its exit code.

    The cyclic garbage collector is paused while argv is parsed and the
    command runs, and the caller's setting is restored on every exit; if it
    was off, it stays off. The engines build large acyclic structures
    (configurations, windows, events, memo tuples) that the collector would
    otherwise traverse again and again. This is safe because:
    - no kslide structure forms a reference cycle, so reference counting
      frees all of them;
    - the only cyclic garbage a command leaves is argparse's parser objects,
      a few dozen per call whatever the input size (22 to 53 for the
      commands' own parsers), which the first collection after main frees;
    - the pause moves max RSS by under 1 MB on the k=n=7 verify and
      valence runs, the 64,000-operation lincheck file run and the k=n=5
      crash-aware json export.
    """
    if argv is None:
        argv = sys.argv[1:]
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = parse_args(argv)
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
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
