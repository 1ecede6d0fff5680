"""One-shot resilient execution: engine + faults + auditor + fallback.

:func:`run_resilient` wires the whole robustness stack together: it
builds a :class:`~repro.resilience.faults.FaultInjector` from a
:class:`~repro.resilience.faults.FaultPlan` (when one is armed), backs
the engine with a :class:`~repro.resilience.faults
.FaultySpeculativeStore`, attaches the
:class:`~repro.resilience.auditor.InvariantAuditor`, and runs the
chosen speculative engine with graceful degradation enabled.  Whatever
the plan throws at the substrate, the returned final memory state is
bit-identical to :class:`~repro.runtime.interpreter
.SequentialInterpreter` -- either because the engine recovered, or
because it degraded and re-executed sequentially (flagged on the
result).
"""

from __future__ import annotations

from typing import Optional

from repro.ir.program import Program
from repro.obs.tracer import TRACER
from repro.resilience.auditor import InvariantAuditor
from repro.resilience.faults import FaultInjector, FaultPlan, FaultySpeculativeStore
from repro.runtime.engines import (
    DEFAULT_MAX_RESTARTS,
    DEFAULT_WATCHDOG_ROUNDS,
    ENGINES,
    SpeculativeResult,
)


def run_resilient(
    program: Program,
    engine: str = "case",
    plan: Optional[FaultPlan] = None,
    seed: int = 0,
    window: int = 4,
    capacity: Optional[int] = 64,
    audit: bool = True,
    fallback: bool = True,
    max_restarts: Optional[int] = DEFAULT_MAX_RESTARTS,
    watchdog_rounds: Optional[int] = DEFAULT_WATCHDOG_ROUNDS,
    **engine_kwargs,
) -> SpeculativeResult:
    """Run ``program`` speculatively under a fault plan.

    ``plan=None`` (or a plan with every rate at zero) runs the plain
    engine -- with the auditor attached when ``audit`` is on, so
    fault-free runs double as invariant checks.  ``fallback=False``
    turns graceful degradation off: substrate failures raise their
    typed errors instead (useful in tests asserting the failure mode).
    """
    try:
        cls = ENGINES[engine]
    except KeyError:
        raise ValueError(
            f"unknown engine {engine!r}; have {sorted(ENGINES)}"
        ) from None
    store = None
    if plan is not None and plan:
        store = FaultySpeculativeStore(capacity, FaultInjector(plan, seed=seed))
    auditor = InvariantAuditor() if audit else None
    with TRACER.span(
        "resilience.run",
        category="resilience",
        program=program.name,
        engine=engine,
        faulted=store is not None,
    ):
        runner = cls(
            program,
            window=window,
            capacity=capacity,
            store=store,
            auditor=auditor,
            max_restarts=max_restarts,
            watchdog_rounds=watchdog_rounds,
            fallback=fallback,
            **engine_kwargs,
        )
        return runner.run()
