"""Sliding-window shared register and its verification toolkit.

The register keeps the last k written values and pads short windows with
the reserved BOTTOM marker. On top of it sit: a two-step consensus protocol
for up to k processes, a deterministic simulator with exhaustive schedule
and crash enumeration, a configuration-graph explorer for valence analysis,
a linearizability checker with a seeded stress driver, and a command-line
harness with a line-delimited JSON trace format. Each name is imported
from its submodule: register, consensus, sim, valence, lincheck, trace, cli.
"""

__version__ = "0.1.0"
