"""One-shot consensus on top of a single size-k sliding register.

Each participant appends its proposal with one write, reads the window, and
decides the oldest value it can see. As long as at most k processes take
part, the first written proposal is never pushed out of the window before
anyone reads, so every participant decides it in two shared-memory steps,
without loops or waiting.
"""

from __future__ import annotations

import threading
from typing import Collection, Mapping, NamedTuple, Optional

from .register import LockedSlidingRegister, Value, first_non_bottom


class DuplicateProposalError(RuntimeError):
    """A process id proposed more than once on the same instance."""


class CapacityError(RuntimeError):
    """More distinct processes joined than the instance supports."""


class Decision(NamedTuple):
    value: Value
    decider: int


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


class ConsensusInstance:
    """A consensus object for up to k participants.

    Holds a thread-safe size-k register and enforces the usage contract at
    runtime: each process id proposes at most once, and at most k distinct
    processes join. The capacity check can be switched off to demonstrate
    what goes wrong with k + 1 participants.
    """

    def __init__(self, k: int, enforce_capacity: bool = True):
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ValueError(f"participant bound must be a positive integer, got {k!r}")
        self.k = k
        self.register = LockedSlidingRegister(k)
        self.enforce_capacity = enforce_capacity
        self._guard = threading.Lock()
        self._participants: set[int] = set()
        self.decisions: list[Decision] = []

    def propose(self, pid: int, value: Value) -> Value:
        """Propose value on behalf of pid and return the decided value.

        Exactly two shared-register operations run, in order: write(value),
        then read(). The decision is the oldest value in the read window.
        """
        with self._guard:
            if pid in self._participants:
                raise DuplicateProposalError(f"process {pid} already proposed")
            if self.enforce_capacity and len(self._participants) >= self.k:
                raise CapacityError(
                    f"instance supports at most {self.k} participants"
                )
            self._participants.add(pid)
        self.register.write(value)
        decided: Optional[Value] = first_non_bottom(self.register.read())
        with self._guard:
            self.decisions.append(Decision(decided, pid))
        return decided
