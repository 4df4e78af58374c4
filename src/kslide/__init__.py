"""Sliding-window shared register and its verification toolkit.

The register keeps the last k written values and pads short windows with
the reserved BOTTOM marker. On top of it sit: a two-step consensus protocol
for up to k processes, a deterministic simulator with exhaustive schedule
and crash enumeration, a configuration-graph explorer for valence analysis,
a linearizability checker with a seeded stress driver, and a command-line
harness with a line-delimited JSON trace format.
"""

from .register import (
    BOTTOM,
    LockedSlidingRegister,
    NarrowView,
    SlidingRegister,
    WindowShortRegister,
    first_non_bottom,
)
from .consensus import (
    CapacityError,
    ConsensusInstance,
    Decision,
    DuplicateProposalError,
    PropertyReport,
    check_outcome,
)
from .sim import (
    Configuration,
    Crash,
    Exec,
    Protocol,
    ReadOp,
    ScheduleError,
    VerificationReport,
    WriteOp,
    apply_crash,
    apply_exec,
    consensus_protocol,
    default_inputs,
    enumerate_schedules,
    eviction_schedule,
    find_violation,
    format_schedule,
    format_step,
    initial_config,
    parse_schedule,
    parse_step,
    pending_op,
    random_schedule,
    run_schedule,
    verify_all,
)
from .valence import (
    Census,
    CriticalConfig,
    Explorer,
    Valence,
    ValenceMap,
    census,
    check_commutation,
)
from .lincheck import (
    Event,
    History,
    MalformedHistoryError,
    OpRecord,
    check_linearizable,
    stress,
)

__version__ = "0.1.0"
