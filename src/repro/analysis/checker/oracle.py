"""Dynamic ground truth: trace observation and squash-replay.

Two complementary oracles judge the static labels against *actual*
executions:

:class:`TraceOracle`
    An :class:`~repro.runtime.interpreter.ExecutionObserver` that
    watches one sequential run and derives per-region dynamic facts by
    address: dynamically exposed reads (first same-instance access is a
    read), cross-instance flow/anti/output dependences, and in-instance
    read-before-write hazards on claimed-idempotent write targets.
    Every fact is value-filtered -- a write that stores the value the
    location already held cannot change any execution, so it never
    witnesses a violation.

:func:`replay_check`
    Simulates the CASE commit discipline and the worst squash the
    labels permit.  Every segment instance is executed, then *squashed*:
    addresses written only by speculative-labeled references are rolled
    back (their stores were buffered), while addresses written by
    idempotent-labeled references are *poisoned* with a sentinel (their
    stores went straight to memory and a replay must be able to rewrite
    them from scratch -- the RFW property).  The instance is then
    re-executed.  If every label is sound the replay repairs all
    poison and the final observable memory equals a clean sequential
    run's; any difference is a hard soundness violation.  Variables
    production claims are private (dead after the region) are excluded
    from the final comparison -- corrupting an unobservable location is
    harmless, and if the privatization claim is *wrong* the poison
    propagates through the later read into observable state and is
    still caught.

Both oracles witness *non*-idempotency only; a clean run never proves
a speculative label wrong (that direction is precision, measured by
the static re-derivation in :mod:`repro.analysis.checker.rederive`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.idempotency.labeling import LabelingResult
from repro.ir.program import Program
from repro.ir.reference import MemoryReference
from repro.ir.region import EXIT_NODE, ExplicitRegion, LoopRegion
from repro.ir.stmt import Statement
from repro.runtime.executor import (
    ComputeOp,
    ReadOp,
    WriteOp,
    evaluate_expression,
    segment_coroutine,
)
from repro.runtime.interpreter import (
    MAX_EXPLICIT_STEPS,
    ExecutionObserver,
    run_program,
)
from repro.runtime.memory import MemoryImage

#: Sentinel written over claimed-idempotent store targets before replay.
#: Exactly representable, extremely unlikely to be computed by accident.
POISON = -7.75e77

#: Default per-segment op budget for oracle executions.
DEFAULT_OP_BUDGET = 2_000_000

Address = Tuple[str, int]


# ----------------------------------------------------------------------
# Trace oracle
# ----------------------------------------------------------------------
@dataclass
class DynamicFacts:
    """Per-region facts derived from one observed execution."""

    region: str
    instances: int = 0
    observed_uids: Set[str] = field(default_factory=set)
    #: reads whose address had not been touched earlier in the same
    #: segment instance.
    dyn_exposed_read_uids: Set[str] = field(default_factory=set)
    #: reads fed by a value-changing write from an earlier instance.
    cross_flow_sink_uids: Set[str] = field(default_factory=set)
    #: writes over an address read or written by an earlier instance.
    cross_anti_output_sink_uids: Set[str] = field(default_factory=set)
    #: the subset of those that also *change* the location's value --
    #: a reordering of instances could observe the difference, so they
    #: refute any claim of full independence.
    cross_value_hazard_write_uids: Set[str] = field(default_factory=set)
    #: value-changing writes whose address was first *read* in the same
    #: instance -- a dynamic refutation of the RFW property.
    rfw_violation_uids: Set[str] = field(default_factory=set)

    def clean_uids(self) -> Set[str]:
        """Observed references with no dynamic hazard of any kind."""
        return self.observed_uids - (
            self.cross_flow_sink_uids
            | self.cross_anti_output_sink_uids
            | self.rfw_violation_uids
        )


class TraceOracle(ExecutionObserver):
    """Observes one sequential run and accumulates :class:`DynamicFacts`."""

    def __init__(self) -> None:
        self.facts: Dict[str, DynamicFacts] = {}
        self._region: Optional[str] = None
        self._inst = -1
        # Per-region address state, reset when a new region begins.
        self._last_write: Dict[Address, Tuple[int, bool]] = {}
        self._last_read_inst: Dict[Address, int] = {}
        # Per-instance state.
        self._first_access: Dict[Address, str] = {}
        self._first_read_value: Dict[Address, float] = {}

    # -- observer hooks -------------------------------------------------
    def begin_segment(
        self, region: Optional[str], segment: str, instance: int
    ) -> None:
        if region != self._region:
            self._region = region
            self._inst = -1
            self._last_write.clear()
            self._last_read_inst.clear()
            if region is not None and region not in self.facts:
                self.facts[region] = DynamicFacts(region=region)
        self._inst += 1
        self._first_access.clear()
        self._first_read_value.clear()
        if region is not None:
            self.facts[region].instances += 1

    def end_segment(self) -> None:
        pass

    def on_read(
        self,
        ref: Optional[MemoryReference],
        address: Address,
        value: float,
    ) -> None:
        if self._region is None:
            return
        facts = self.facts[self._region]
        uid = ref.uid if ref is not None else None
        if uid is not None:
            facts.observed_uids.add(uid)
        if address not in self._first_access:
            self._first_access[address] = "r"
            self._first_read_value[address] = value
            if uid is not None:
                facts.dyn_exposed_read_uids.add(uid)
        last = self._last_write.get(address)
        if (
            last is not None
            and last[0] != self._inst
            and last[1]
            and self._first_access[address] == "r"
            and uid is not None
        ):
            facts.cross_flow_sink_uids.add(uid)
        self._last_read_inst[address] = self._inst

    def on_write(
        self,
        ref: Optional[MemoryReference],
        address: Address,
        old_value: float,
        new_value: float,
    ) -> None:
        if self._region is None:
            return
        facts = self.facts[self._region]
        uid = ref.uid if ref is not None else None
        if uid is not None:
            facts.observed_uids.add(uid)
        changed = old_value != new_value
        if (
            uid is not None
            and self._first_access.get(address) == "r"
            and new_value != self._first_read_value[address]
        ):
            facts.rfw_violation_uids.add(uid)
        if uid is not None:
            last_w = self._last_write.get(address)
            last_r = self._last_read_inst.get(address)
            crossed = (last_w is not None and last_w[0] != self._inst) or (
                last_r is not None and last_r != self._inst
            )
            if crossed:
                facts.cross_anti_output_sink_uids.add(uid)
                if changed:
                    facts.cross_value_hazard_write_uids.add(uid)
        self._first_access.setdefault(address, "w")
        prev = self._last_write.get(address)
        if prev is not None and prev[0] == self._inst:
            changed = changed or prev[1]
        self._last_write[address] = (self._inst, changed)


def run_trace(
    program: Program, op_budget: int = DEFAULT_OP_BUDGET
) -> TraceOracle:
    """One observed sequential run of ``program``."""
    oracle = TraceOracle()
    run_program(
        program,
        op_budget=op_budget,
        use_replay=False,
        observer=oracle,
    )
    return oracle


# ----------------------------------------------------------------------
# Squash-replay oracle
# ----------------------------------------------------------------------
@dataclass
class ReplayReport:
    """Outcome of the squash-replay simulation."""

    ok: bool
    regions_checked: List[str] = field(default_factory=list)
    #: human-readable mismatch descriptions (capped).
    mismatches: List[str] = field(default_factory=list)
    #: variables excluded from the final diff (claimed private somewhere).
    excluded_vars: Set[str] = field(default_factory=set)


def _exec_body(
    body: Sequence[Statement],
    memory: MemoryImage,
    locals_in_scope: Optional[Dict[str, float]],
    op_budget: int,
    on_write: Optional[Callable] = None,
) -> None:
    """Drive one segment body against ``memory`` (no latency, no stats)."""
    if not body:
        return
    address_of = memory.symbols.address_of
    values = memory._values
    initial_value = memory.initial_value
    missing = object()
    coroutine = segment_coroutine(
        body, locals_in_scope=locals_in_scope, op_budget=op_budget
    )
    send = coroutine.send
    try:
        op = send(None)
        while True:
            cls = type(op)
            if cls is ReadOp:
                address = address_of(op.variable, op.subscripts)
                value = values.get(address, missing)
                if value is missing:
                    value = initial_value(address[0])
                op = send(value)
            elif cls is WriteOp:
                address = address_of(op.variable, op.subscripts)
                if on_write is not None:
                    old = values.get(address, missing)
                    if old is missing:
                        old = initial_value(address[0])
                    on_write(op.ref, address, old)
                values[address] = float(op.value)
                op = send(None)
            else:
                assert cls is ComputeOp
                op = send(None)
    except StopIteration:
        return


def _run_instance_squash_replay(
    body: Sequence[Statement],
    locals_in_scope: Optional[Dict[str, float]],
    memory: MemoryImage,
    idem_uids: Set[str],
    op_budget: int,
) -> None:
    """Execute, squash (rollback + poison), then re-execute one instance."""
    spec_old: Dict[Address, float] = {}
    idem_addrs: Set[Address] = set()

    def on_write(
        ref: Optional[MemoryReference], address: Address, old: float
    ) -> None:
        if ref is not None and ref.uid in idem_uids:
            idem_addrs.add(address)
        elif address not in spec_old:
            spec_old[address] = old

    _exec_body(body, memory, locals_in_scope, op_budget, on_write=on_write)
    values = memory._values
    # Squash: buffered (speculative) stores vanish...
    for address, old in spec_old.items():
        if address not in idem_addrs:
            values[address] = old
    # ...while bypassed (idempotent) stores are stuck in memory -- model
    # the worst permitted pollution by poisoning them.
    for address in idem_addrs:
        values[address] = POISON
    # Replay: a sound labeling repairs every poisoned location.
    _exec_body(body, memory, locals_in_scope, op_budget)


def replay_check(
    program: Program,
    labelings: Dict[str, LabelingResult],
    op_budget: int = DEFAULT_OP_BUDGET,
    max_mismatches: int = 10,
) -> ReplayReport:
    """Squash-replay every region instance and diff observable memory."""
    clean = run_program(program, op_budget=op_budget, use_replay=False)

    report = ReplayReport(ok=True)
    for labeling in labelings.values():
        report.excluded_vars |= labeling.private_vars

    memory = MemoryImage(program.symbols)
    _exec_body(program.init, memory, None, op_budget)
    for region in program.regions:
        labeling = labelings.get(region.name)
        idem_uids: Set[str] = set()
        squash = True
        if labeling is not None:
            if labeling.fully_independent:
                # Lemma 7's operational contract: a fully independent
                # region never rolls back, so its instances are not
                # squash-replayed.  The *premise* (no cross-instance
                # value hazards) is verified by the trace oracle.
                squash = False
            idem_uids = {
                ref.uid
                for ref in region.references
                if labeling.is_idempotent(ref)
            }
        report.regions_checked.append(region.name)
        if isinstance(region, LoopRegion):
            reader = memory.read
            lower = int(round(evaluate_expression(region.lower, reader)))
            upper = int(round(evaluate_expression(region.upper, reader)))
            step = int(round(evaluate_expression(region.step, reader)))
            if step == 0:
                raise ValueError(f"region {region.name!r} has zero step")
            value = lower
            while (step > 0 and value <= upper) or (
                step < 0 and value >= upper
            ):
                if squash:
                    _run_instance_squash_replay(
                        region.body,
                        {region.index: value},
                        memory,
                        idem_uids,
                        op_budget,
                    )
                else:
                    _exec_body(
                        region.body,
                        memory,
                        {region.index: value},
                        op_budget,
                    )
                value += step
        else:
            assert isinstance(region, ExplicitRegion)
            edges = region.segment_edges()
            current = region.entry
            steps = 0
            while current != EXIT_NODE:
                steps += 1
                if steps > MAX_EXPLICIT_STEPS:
                    raise RuntimeError(
                        f"explicit region {region.name!r} ran away"
                    )
                segment = region.segment(current)
                if squash:
                    _run_instance_squash_replay(
                        segment.body, None, memory, idem_uids, op_budget
                    )
                else:
                    _exec_body(segment.body, memory, None, op_budget)
                successors = edges.get(current, [])
                if not successors:
                    break
                if len(successors) > 1 and segment.branch is not None:
                    taken = evaluate_expression(segment.branch, memory.read)
                    current = successors[0] if taken else successors[1]
                else:
                    current = successors[0]
    _exec_body(program.finale, memory, None, op_budget)

    # Observable final-state diff.
    addresses = set(clean.memory._values) | set(memory._values)
    for address in sorted(addresses):
        var = address[0]
        if var in report.excluded_vars:
            continue
        expect = clean.memory._values.get(
            address, clean.memory.initial_value(var)
        )
        got = memory._values.get(address, memory.initial_value(var))
        if expect != got:
            report.ok = False
            if len(report.mismatches) < max_mismatches:
                report.mismatches.append(
                    f"{var}[{address[1]}]: sequential={expect!r} "
                    f"squash-replay={got!r}"
                )
    return report
