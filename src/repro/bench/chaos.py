"""Chaos scenario: fault kinds x rates x workloads x engines.

The robustness counterpart of the ``engines`` scenario: every workload
family (plus a dedicated branchy explicit-region program, the only
shape with control-misprediction opportunities) runs under every fault
kind of :mod:`repro.resilience.faults` at each swept rate, on both
HOSE and CASE.  The one thing the scenario asserts is the resilience
contract: *whatever is injected, the final memory state is
bit-identical to the sequential interpreter* -- either because the
engine recovered in place (squash-restart, poison scrub, overflow
drain) or because it degraded gracefully and re-executed sequentially.

Per run the report records what was injected (counts and
opportunities), how the engine coped (fault restarts, rollbacks,
degradation and its reason) and what recovery cost (cycle overhead
against the same engine's fault-free run).  A fault-free,
auditor-attached baseline run per program doubles as an invariant
check -- its audit count is reported so a silently detached auditor
shows up in the results.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.bench.workloads import FAMILIES, generate
from repro.ir.dsl import parse_program
from repro.ir.program import Program
from repro.resilience.auditor import InvariantAuditor
from repro.resilience.faults import FAULT_KINDS, FaultPlan
from repro.resilience.harness import run_resilient
from repro.runtime.engines import ENGINES
from repro.runtime.interpreter import run_program

#: Injection rates swept per fault kind (probability per opportunity).
CHAOS_RATES = (0.05, 0.5)
CHAOS_SMOKE_RATES = (0.1,)
#: Workload scale (kept small: persistent faults intentionally drive
#: the engine into livelock-and-degrade, which costs restarts).
CHAOS_SIZE = 12
CHAOS_SMOKE_SIZE = 8
CHAOS_STATEMENTS = 2
CHAOS_WINDOW = 4
#: Small capacity so capacity_shrink and overflow paths are exercised.
CHAOS_CAPACITY = 16
#: Tight recovery bounds: a persistent fault should degrade quickly,
#: not grind through the production-sized default budgets.
CHAOS_MAX_RESTARTS = 50
CHAOS_WATCHDOG_ROUNDS = 5_000
CHAOS_SEED = 1
CHAOS_ENGINES = ("hose", "case")

#: Diamond-with-loop-free-tail control flow: two branch points give the
#: ``mispredict`` fault real alternatives to steer into.
_EXPLICIT_CHAOS_SRC = """
program chaosflow
  real a = 0.6, b = 2.0, c, d, e, f, g
  region R explicit
    segment R0
      c = a + b
      branch (c > 2.5)
    end segment
    segment R1
      d = c * 2.0
    end segment
    segment R2
      d = c - 1.0
    end segment
    segment R3
      e = d + a
      branch (e > 3.0)
    end segment
    segment R4
      f = e * 0.5
    end segment
    segment R5
      f = e + 1.0
    end segment
    segment R6
      g = f + d
    end segment
    edges R0 -> R1, R2
    edges R1 -> R3
    edges R2 -> R3
    edges R3 -> R4, R5
    edges R4 -> R6
    edges R5 -> R6
    liveout d, e, f, g
  end region
end program
"""


def chaos_programs(
    size: int = CHAOS_SIZE,
    statements: int = CHAOS_STATEMENTS,
    families: Sequence[str] = FAMILIES,
) -> Dict[str, Program]:
    """The swept programs: every loop family plus the explicit one."""
    programs = {
        family: generate(family, size, statements).program
        for family in families
    }
    programs["explicit"] = parse_program(_EXPLICIT_CHAOS_SRC)
    return programs


def _run_row(
    program: Program,
    sequential_values: Dict,
    engine: str,
    plan: Optional[FaultPlan],
    seed: int,
    baseline_cycles: Optional[int],
) -> Dict:
    result = run_resilient(
        program,
        engine=engine,
        plan=plan,
        seed=seed,
        window=CHAOS_WINDOW,
        capacity=CHAOS_CAPACITY,
        max_restarts=CHAOS_MAX_RESTARTS,
        watchdog_rounds=CHAOS_WATCHDOG_ROUNDS,
    )
    recovered = not sequential_values.differences(result.memory, tolerance=0.0)
    row: Dict = {
        "recovered": recovered,
        "degraded": result.degraded,
        "injected": dict(result.fault_counts),
        "total_injected": sum(result.fault_counts.values()),
        "fault_restarts": result.stats.fault_restarts,
        "rollbacks": result.stats.rollbacks,
        "cycles": result.stats.cycles,
    }
    if result.degradation is not None:
        row["degradation"] = {
            "error_type": result.degradation.error_type,
            "reason": result.degradation.reason,
            "region": result.degradation.region,
        }
    if baseline_cycles and not result.degraded:
        row["cycle_overhead"] = round(
            result.stats.cycles / baseline_cycles, 3
        )
    return row


def measure_chaos(
    size: int = CHAOS_SIZE,
    statements: int = CHAOS_STATEMENTS,
    families: Sequence[str] = FAMILIES,
    rates: Sequence[float] = CHAOS_RATES,
    engines: Sequence[str] = CHAOS_ENGINES,
    kinds: Sequence[str] = FAULT_KINDS,
    seed: int = CHAOS_SEED,
) -> Dict:
    """The whole sweep.  ``result["unrecovered"]`` lists every run whose
    final state diverged from sequential -- the CI gate (must be empty).
    """
    for engine in engines:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}")
    programs = chaos_programs(size, statements, families)
    report: Dict = {
        "window": CHAOS_WINDOW,
        "capacity": CHAOS_CAPACITY,
        "max_restarts": CHAOS_MAX_RESTARTS,
        "watchdog_rounds": CHAOS_WATCHDOG_ROUNDS,
        "rates": list(rates),
        "seed": seed,
        "programs": {},
    }
    unrecovered: List[str] = []
    for name, program in programs.items():
        sequential = run_program(program)
        entry: Dict = {"baseline": {}, "faults": {}}
        baseline_cycles: Dict[str, int] = {}
        for engine in engines:
            # Fault-free run with the auditor attached: every round's
            # invariants re-checked, and degradation would be a bug.
            auditor = InvariantAuditor()
            result = ENGINES[engine](
                program,
                window=CHAOS_WINDOW,
                capacity=CHAOS_CAPACITY,
                auditor=auditor,
            ).run()
            clean = (
                not result.degraded
                and not sequential.memory.differences(
                    result.memory, tolerance=0.0
                )
            )
            if not clean:
                unrecovered.append(
                    f"{name}/{engine}: fault-free baseline diverged "
                    f"or degraded"
                )
            baseline_cycles[engine] = result.stats.cycles
            entry["baseline"][engine] = {
                "recovered": clean,
                "cycles": result.stats.cycles,
                "audits": auditor.audits,
            }
        for kind in kinds:
            per_kind: Dict = {}
            for rate in rates:
                per_rate: Dict = {}
                for engine in engines:
                    row = _run_row(
                        program,
                        sequential.memory,
                        engine,
                        FaultPlan.single(kind, rate),
                        seed,
                        baseline_cycles.get(engine),
                    )
                    if not row["recovered"]:
                        unrecovered.append(
                            f"{name}/{engine}: {kind}@{rate} final state "
                            f"diverged from sequential"
                        )
                    per_rate[engine] = row
                per_kind[str(rate)] = per_rate
            entry["faults"][kind] = per_kind
        report["programs"][name] = entry
    report["unrecovered"] = unrecovered
    return report
