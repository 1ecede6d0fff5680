"""Runtime error taxonomy.

Everything the execution substrates raise derives from
:class:`SimulationError`, so callers that want "this run failed" get a
single except clause while the resilience layer
(:mod:`repro.resilience`) can still distinguish *substrate* failures
(livelock, invariant violations, injected faults) from *program*
failures (bad addresses, loops that cannot be iterated, exhausted
operation budgets) when deciding
whether to degrade to the sequential interpreter.
"""

from __future__ import annotations


class SimulationError(Exception):
    """Raised when program execution fails (out-of-bounds subscripts,
    undeclared variables, runaway speculative execution, ...)."""


class AddressError(SimulationError):
    """Raised for invalid memory addresses (bad subscripts, unknown symbols)."""


class BoundError(SimulationError):
    """Raised for a loop that cannot be iterated: a bound or step that
    is an infinity or NaN, or a zero step."""


class InvariantViolation(SimulationError):
    """Raised by the runtime invariant auditor when speculative-store
    state is inconsistent: buffers out of age order, committed entries
    leaking back into the in-flight set, occupancy accounting drift, or
    forwarding served from a younger segment.  Always indicates a
    substrate (or injected-fault) problem, never a program bug, so the
    engines recover from it by degrading to sequential execution."""


class EngineLivelockError(SimulationError):
    """Raised when execution stops making forward progress: a segment
    exhausted its bounded squash-restart budget, the global progress
    watchdog saw too many scheduling rounds without a commit, or a
    cyclic explicit region exceeded its segment-execution cap."""


class FaultInjected(SimulationError):
    """Raised by :mod:`repro.resilience.faults` when an injected fault
    takes the form of an exception inside a speculative segment body
    (the transient-fault model).  The engines treat it as a squashable
    event: the segment is rolled back and re-executed, and only a
    persistent fault escalates to degradation."""
