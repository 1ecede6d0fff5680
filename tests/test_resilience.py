"""Resilience tests: fault injection, invariant auditing, degradation.

The acceptance bar: every fault kind injected at a nonzero rate leaves
the final memory state bit-identical to the sequential interpreter --
by in-place recovery or by graceful degradation -- on every workload
family and both engines; and the auditor passes on every fault-free
run while catching every manufactured invariant violation.
"""

import pytest

from repro.bench.chaos import chaos_programs
from repro.bench.workloads import FAMILIES, generate
from repro.ir.dsl import parse_program
from repro.resilience import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    FaultySpeculativeStore,
    InvariantAuditor,
    run_resilient,
)
from repro.runtime.engines import CASEEngine, HOSEEngine
from repro.runtime.errors import (
    AddressError,
    EngineLivelockError,
    FaultInjected,
    InvariantViolation,
    SimulationError,
)
from repro.runtime.interpreter import run_program
from repro.runtime.specstore import SpeculativeStore, SpecStoreError


def make_program(family="stencil", size=6, statements=2):
    return generate(family, size, statements).program


def assert_recovered(program, sequential, **kwargs):
    result = run_resilient(program, **kwargs)
    diffs = sequential.memory.differences(result.memory, tolerance=0.0)
    assert diffs == {}, (
        f"{kwargs} diverged: {sorted(diffs.items())[:3]}"
    )
    return result


# ----------------------------------------------------------------------
# Error taxonomy (satellite: typed errors).
# ----------------------------------------------------------------------
class TestErrorTaxonomy:
    def test_substrate_errors_are_simulation_errors(self):
        for cls in (
            SpecStoreError,
            InvariantViolation,
            EngineLivelockError,
            FaultInjected,
            AddressError,
        ):
            assert issubclass(cls, SimulationError)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="made_up", rate=0.5)
        with pytest.raises(ValueError):
            FaultSpec(kind="dup_commit", rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(
                [FaultSpec("dup_commit", 0.1), FaultSpec("dup_commit", 0.2)]
            )

    def test_plan_truthiness(self):
        assert not FaultPlan([])
        assert not FaultPlan.single("dup_commit", 0.0)
        assert FaultPlan.single("dup_commit", 0.1)


# ----------------------------------------------------------------------
# Injector determinism.
# ----------------------------------------------------------------------
class TestInjectorDeterminism:
    def test_same_seed_same_fault_sequence(self):
        program = make_program()
        plan = FaultPlan.uniform(0.3)
        runs = [
            run_resilient(
                program, plan=plan, seed=11, max_restarts=30,
                watchdog_rounds=2000,
            )
            for _ in range(2)
        ]
        assert runs[0].fault_counts == runs[1].fault_counts
        assert runs[0].fault_counts  # something actually fired
        assert runs[0].stats.as_dict() == runs[1].stats.as_dict()
        assert runs[0].degraded == runs[1].degraded

    def test_fire_counts_opportunities_and_injections(self):
        injector = FaultInjector(FaultPlan.single("dup_commit", 1.0), seed=0)
        for _ in range(5):
            assert injector.fire("dup_commit") is not None
        assert injector.fire("drop_commit") is None  # not armed
        assert injector.opportunities == {"dup_commit": 5}
        assert injector.counts == {"dup_commit": 5}
        assert injector.total_injected() == 5


# ----------------------------------------------------------------------
# The invariant auditor vs manufactured corruption.
# ----------------------------------------------------------------------
class TestAuditor:
    def test_clean_store_passes(self):
        store = SpeculativeStore()
        b1 = store.open_segment(("R", 1), 1)
        store.open_segment(("R", 2), 2)
        store.record_write(b1, ("a", 0), 1.0)
        auditor = InvariantAuditor()
        auditor.audit(store, committed_age=0)
        assert auditor.audits == 1

    def test_committed_entry_leakage(self):
        store = SpeculativeStore()
        store.open_segment(("R", 1), 1)
        with pytest.raises(InvariantViolation, match="leakage"):
            InvariantAuditor().audit(store, committed_age=1)

    def test_age_order(self):
        store = SpeculativeStore()
        store.open_segment(("R", 1), 1)
        store.open_segment(("R", 2), 2)
        store._buffers.reverse()
        with pytest.raises(InvariantViolation, match="age order"):
            InvariantAuditor().audit(store)

    def test_untracked_entries(self):
        store = SpeculativeStore()
        buf = store.open_segment(("R", 1), 1)
        buf.values[("a", 0)] = 1.0  # bypasses entry tracking
        with pytest.raises(InvariantViolation, match="untracked"):
            InvariantAuditor().audit(store)

    def test_occupancy_drift(self):
        store = SpeculativeStore()
        buf = store.open_segment(("R", 1), 1)
        buf.tracked.add(("a", 0))  # entry the store never accounted
        with pytest.raises(InvariantViolation, match="occupancy"):
            InvariantAuditor().audit(store)

    def test_region_end_leftovers(self):
        store = SpeculativeStore()
        store.open_segment(("R", 1), 1)
        with pytest.raises(InvariantViolation, match="region ended"):
            InvariantAuditor().audit_region_end(store, region="R")

    def test_forwarding_direction(self):
        store = SpeculativeStore()
        _oldest = store.open_segment(("R", 1), 1)
        younger = store.open_segment(("R", 2), 2)
        store.record_write(younger, ("a", 0), 9.0)
        # Corrupt the age so the younger buffer looks older to
        # forwarding's nearest-older scan.
        younger.age = 0
        store._buffers.sort(key=lambda b: b.age)
        with pytest.raises(InvariantViolation):
            InvariantAuditor().audit(store)


# ----------------------------------------------------------------------
# Fault-free runs: auditor on, behavior unchanged.
# ----------------------------------------------------------------------
class TestFaultFree:
    @pytest.mark.parametrize("batch", [False, True])
    @pytest.mark.parametrize("engine", ["hose", "case"])
    def test_audited_run_is_bit_identical(self, engine, batch):
        program = make_program()
        sequential = run_program(program)
        auditor = InvariantAuditor()
        cls = {"hose": HOSEEngine, "case": CASEEngine}[engine]
        result = cls(
            program, window=4, capacity=8, auditor=auditor, batch=batch
        ).run()
        assert not result.degraded
        assert auditor.audits > 0
        assert sequential.memory.differences(result.memory, tolerance=0.0) == {}

    def test_faulty_store_with_empty_plan_is_transparent(self):
        program = make_program("sparse")
        injector = FaultInjector(FaultPlan([]), seed=0)
        store = FaultySpeculativeStore(8, injector)
        plain = HOSEEngine(program, window=4, capacity=8).run()
        wrapped = HOSEEngine(program, window=4, store=store).run()
        assert not wrapped.degraded
        assert plain.memory.differences(wrapped.memory, tolerance=0.0) == {}
        assert plain.stats.as_dict() == wrapped.stats.as_dict()
        assert injector.total_injected() == 0

    def test_faulty_store_batched_run_steps_every_attempt(self):
        # The store brings its own injector, so a batched run must step
        # every attempt instead of asking it for a bulk transfer (which
        # it refuses, degrading the run).
        program = make_program("sparse")
        sequential = run_program(program)
        store = FaultySpeculativeStore(8, FaultInjector(FaultPlan([]), seed=0))
        plain = HOSEEngine(program, window=4, capacity=8).run()
        batched = HOSEEngine(program, window=4, store=store, batch=True).run()
        assert not batched.degraded, batched.degradation
        assert sequential.memory.differences(batched.memory, tolerance=0.0) == {}
        assert plain.stats.as_dict() == batched.stats.as_dict()


# ----------------------------------------------------------------------
# The tentpole acceptance matrix: every fault kind recovers.
# ----------------------------------------------------------------------
class TestRecoveryMatrix:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("engine", ["hose", "case"])
    def test_uniform_plan_recovers_bit_identically(self, family, engine):
        program = make_program(family)
        sequential = run_program(program)
        assert_recovered(
            program,
            sequential,
            engine=engine,
            plan=FaultPlan.uniform(0.2),
            seed=5,
            capacity=8,
            max_restarts=30,
            watchdog_rounds=2000,
        )

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_each_kind_recovers_on_each_family(self, kind, family):
        # The acceptance matrix: every fault type at a nonzero rate on
        # every workload family stays bit-identical to sequential
        # (recovered in place or degraded; both count, silent
        # divergence does not).
        program = make_program(family, size=5)
        sequential = run_program(program)
        assert_recovered(
            program,
            sequential,
            engine="case",
            plan=FaultPlan.single(kind, 0.4),
            seed=7,
            capacity=8,
            max_restarts=25,
            watchdog_rounds=1500,
        )

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_each_kind_recovers_on_both_engines(self, kind):
        program = make_program("sparse")
        sequential = run_program(program)
        for engine in ("hose", "case"):
            result = assert_recovered(
                program,
                sequential,
                engine=engine,
                plan=FaultPlan.single(kind, 0.3),
                seed=2,
                capacity=8,
                max_restarts=30,
                watchdog_rounds=2000,
            )
            assert result.engine == engine

    def test_dup_commit_absorbed_without_degradation(self):
        program = make_program("stencil")
        sequential = run_program(program)
        result = assert_recovered(
            program,
            sequential,
            plan=FaultPlan.single("dup_commit", 1.0),
            seed=0,
        )
        assert not result.degraded
        assert result.fault_counts["dup_commit"] > 0

    def test_corrupt_forward_scrubbed_in_place(self):
        # Stencil segments forward across iterations, so corruptions
        # fire; the poison scrub recovers without degrading.
        program = make_program("stencil", size=8)
        sequential = run_program(program)
        result = assert_recovered(
            program,
            sequential,
            engine="hose",
            plan=FaultPlan.single("corrupt_forward", 0.3),
            seed=3,
        )
        assert result.fault_counts.get("corrupt_forward", 0) > 0
        assert not result.degraded
        assert result.stats.fault_restarts > 0

    def test_mispredict_on_explicit_region(self):
        program = chaos_programs(size=6)["explicit"]
        sequential = run_program(program)
        result = assert_recovered(
            program,
            sequential,
            plan=FaultPlan.single("mispredict", 1.0),
            seed=0,
            capacity=8,
        )
        assert result.fault_counts.get("mispredict", 0) > 0


# ----------------------------------------------------------------------
# Detection and degradation.
# ----------------------------------------------------------------------
class TestDegradation:
    def test_drop_commit_detected_by_auditor(self):
        program = make_program()
        with pytest.raises(InvariantViolation):
            run_resilient(
                program,
                plan=FaultPlan.single("drop_commit", 1.0),
                fallback=False,
            )

    def test_drop_commit_degrades_to_correct_result(self):
        program = make_program()
        sequential = run_program(program)
        result = assert_recovered(
            program,
            sequential,
            plan=FaultPlan.single("drop_commit", 1.0),
        )
        assert result.degraded
        report = result.degradation
        assert report.error_type == "InvariantViolation"
        assert report.program == program.name
        assert report.fault_counts["drop_commit"] > 0
        as_dict = report.as_dict()
        assert as_dict["error_type"] == "InvariantViolation"
        assert as_dict["reason"]

    def test_persistent_self_violation_hits_livelock_guard(self):
        # Rate 1.0 spurious violations restart segments forever; the
        # restart budget (or watchdog) must convert that into a typed
        # livelock error rather than an endless loop.
        program = make_program()
        with pytest.raises(EngineLivelockError):
            run_resilient(
                program,
                engine="hose",
                plan=FaultPlan.single("spurious_violation", 1.0),
                max_restarts=20,
                watchdog_rounds=500,
                fallback=False,
            )

    def test_livelock_degrades_with_report(self):
        program = make_program()
        sequential = run_program(program)
        result = assert_recovered(
            program,
            sequential,
            engine="hose",
            plan=FaultPlan.single("spurious_violation", 1.0),
            max_restarts=20,
            watchdog_rounds=500,
        )
        assert result.degraded
        assert result.degradation.error_type == "EngineLivelockError"
        assert result.degradation.rollbacks > 0

    def test_persistent_segment_exception_degrades(self):
        program = make_program()
        sequential = run_program(program)
        result = assert_recovered(
            program,
            sequential,
            plan=FaultPlan.single("segment_exception", 1.0),
            max_restarts=10,
        )
        assert result.degraded
        assert result.stats.segments_committed == sequential.stats.segments_committed

    def test_fallback_off_raises_on_persistent_fault(self):
        program = make_program()
        with pytest.raises(EngineLivelockError):
            run_resilient(
                program,
                plan=FaultPlan.single("segment_exception", 1.0),
                max_restarts=5,
                fallback=False,
            )


# ----------------------------------------------------------------------
# The SymbolError -> AddressError conversion (satellite: now live).
# ----------------------------------------------------------------------
class TestBadAddressPath:
    OOB_SRC = """
program oob
  real a(4), x
  region R do i = 1, 8
    x = a(i)
    liveout x
  end region
end program
"""

    @pytest.mark.parametrize("engine_cls", [HOSEEngine, CASEEngine])
    def test_out_of_range_subscript_raises_address_error(self, engine_cls):
        # No injector is attached, so the engine must surface the
        # converted AddressError instead of degrading.
        program = parse_program(self.OOB_SRC)
        with pytest.raises(AddressError):
            engine_cls(program, window=4, capacity=8).run()

    def test_injected_bad_subscript_recovers(self):
        program = make_program()
        sequential = run_program(program)
        result = assert_recovered(
            program,
            sequential,
            plan=FaultPlan.single("bad_subscript", 0.3),
            seed=4,
            max_restarts=30,
        )
        assert result.fault_counts.get("bad_subscript", 0) > 0
