"""The three consensus properties, and the judge of a run's outcome.

The paper's algorithm is sim.consensus_protocol: each participant writes
its proposal to the size-k window, reads it, and decides the oldest value
it can see. With at most k participants the first proposal is still in the
window at every read, so all decide it; with k + 1 the eviction run
(sim.eviction_schedule) pushes it out. check_outcome judges a run against
the definitions of validity, agreement and termination.
"""

from __future__ import annotations

from typing import Collection, Mapping, NamedTuple

from .register import Value


class PropertyReport(NamedTuple):
    """Which of the three consensus properties an outcome satisfies."""

    validity: bool
    agreement: bool
    termination: bool

    @property
    def ok(self) -> bool:
        return self.validity and self.agreement and self.termination


def check_outcome(
    inputs: Mapping[int, Value],
    decisions: Mapping[int, Value],
    crashed: Collection[int] = (),
) -> PropertyReport:
    """Judge a run: decided values must be proposed ones (validity), pairwise
    equal (agreement), and every non-crashed participant must have decided
    (termination). Crashed processes are exempt from termination only."""
    proposed = set(inputs.values())
    validity = all(v in proposed for v in decisions.values())
    agreement = len(set(decisions.values())) <= 1
    termination = all(pid in decisions for pid in inputs if pid not in crashed)
    return PropertyReport(validity, agreement, termination)
