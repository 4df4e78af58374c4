#!/usr/bin/env python3
"""Explore the configuration graph for a window size and proposal vector,
then report valence counts and every critical configuration."""

import argparse
import sys

from kslide.cli import EXIT_OK, EXIT_USAGE, _parse_inputs, _require_positive
from kslide.sim import consensus_protocol, pending_op
from kslide.valence import Explorer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=2, help="window size")
    parser.add_argument("--n", type=int, default=2, help="process count")
    parser.add_argument("--inputs", help="comma-separated proposals (default 0..n-1)")
    parser.add_argument(
        "--crash-aware", action="store_true", help="also follow crash steps"
    )
    args = parser.parse_args()
    try:  # the checks and messages of `kslide valence`
        k = _require_positive("--k", args.k)
        inputs = _parse_inputs(args.inputs, _require_positive("--n", args.n))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    protocol = consensus_protocol()
    explorer = Explorer(protocol, inputs, k, crash_aware=args.crash_aware)
    vmap = explorer.valence_map()
    bivalent = sum(v.bivalent for v in vmap.valences)
    monovalent = sum(v.monovalent for v in vmap.valences)
    print(f"root: {vmap.valences[0]!r}")
    print(f"nodes: {len(vmap.nodes)} ({bivalent} bivalent, {monovalent} monovalent)")
    print(f"edges: {len(vmap.edges)}")
    criticals = explorer.find_critical()
    print(f"critical configurations: {len(criticals)}")
    for i, cc in enumerate(criticals):
        succ = ", ".join(f"p{pid} step gives {val!r}" for pid, _, val in cc.successors)
        ops = [(pid, pending_op(protocol, inputs, cc.config, pid)) for pid in sorted(inputs)]
        pend = ", ".join(f"p{pid}: {op!r}" for pid, op in ops if op is not None)
        print(
            f"  [{i}] decided={cc.config.decided} "
            f"pending[{pend or 'none'}] successors[{succ or 'none'}]"
        )
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
