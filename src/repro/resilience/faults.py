"""Deterministic, seeded fault injection for the speculative runtime.

Hardware speculative systems are defined as much by their
misspeculation *recovery* paths as by their happy paths; this module
injects the corresponding failure modes into the software substrate so
the recovery machinery of :class:`~repro.runtime.engines
.SpeculativeEngine` (squash-restart, poison scrub, watchdog, graceful
degradation) can be exercised and benchmarked.

The fault model (one :class:`FaultSpec` per kind, bundled in a
:class:`FaultPlan`):

``corrupt_forward``
    A value forwarded from an older in-flight buffer is perturbed (a
    bit flip on the forwarding path).  The consuming buffer is marked
    ``poisoned`` -- the parity/ECC detection model -- and the engine's
    per-round scrub squashes it together with everything younger.
``drop_commit``
    A commit silently loses its drain: no value reaches memory and the
    buffer stays registered.  Detected by the invariant auditor as
    committed-entry leakage (a buffer at or below the commit
    watermark); recovery is degradation to sequential execution.
``dup_commit``
    A commit drains its values twice.  Value-idempotent (the second
    store writes the same value), so the run absorbs it -- injected to
    prove that, and counted.
``spurious_violation``
    Violation detection reports an extra, innocent in-flight buffer
    (at or younger than the writer, possibly the writer itself).  The
    normal rollback machinery squashes it; re-execution produces the
    same values, so the fault is absorbed.  At rate 1.0 a self-violating
    writer livelocks, which is what the watchdog is for.
``capacity_shrink``
    An allocation is refused as if the buffer capacity had transiently
    shrunk.  Drives the overflow-stall / drain / write-through path.
``segment_exception``
    :class:`~repro.runtime.errors.FaultInjected` is raised at an
    operation boundary inside a speculative segment (a transient
    fault).  The engine rolls the segment back and re-executes it.
``bad_subscript``
    A memory operation's subscripts are replaced with an out-of-range
    value, driving the engine's ``SymbolError`` -> ``AddressError``
    conversion; the engine treats it like a transient fault.
``mispredict``
    The predicted successor of an explicit-region segment is flipped to
    a different successor (or a predicted exit).  Resolution against
    committed state discards the wrong path, as for any misprediction.

All randomness comes from one ``random.Random(seed)`` owned by the
:class:`FaultInjector`, so a given (plan, seed, program, engine
configuration) replays the identical fault sequence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import (
    Collection,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.runtime.errors import FaultInjected
from repro.runtime.executor import ReadOp, WriteOp
from repro.runtime.memory import Address, MemoryImage
from repro.runtime.specstore import (
    SegmentBuffer,
    SpeculativeStore,
    SpecStoreError,
)

#: All injectable fault kinds (the ``chaos`` bench sweeps these).
FAULT_KINDS: Tuple[str, ...] = (
    "corrupt_forward",
    "drop_commit",
    "dup_commit",
    "spurious_violation",
    "capacity_shrink",
    "segment_exception",
    "bad_subscript",
    "mispredict",
)

#: Subscript used by ``bad_subscript`` -- far outside any declared
#: extent, so address translation must fail.
BAD_SUBSCRIPT = 10**9


@dataclass(frozen=True)
class FaultSpec:
    """One fault kind armed at a given rate.

    ``rate`` is the injection probability per *opportunity* (one
    forward, one commit, one executed operation, ...); ``magnitude`` is
    the value perturbation used by ``corrupt_forward``.
    """

    kind: str
    rate: float
    magnitude: float = 7.5

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; have {sorted(FAULT_KINDS)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")


class FaultPlan:
    """A set of armed fault kinds (at most one spec per kind)."""

    def __init__(self, specs: Iterable[FaultSpec] = ()):
        self._specs: Dict[str, FaultSpec] = {}
        for spec in specs:
            if spec.kind in self._specs:
                raise ValueError(f"duplicate fault kind {spec.kind!r}")
            self._specs[spec.kind] = spec

    @classmethod
    def single(cls, kind: str, rate: float, **kwargs) -> "FaultPlan":
        """Plan with one armed fault kind."""
        return cls([FaultSpec(kind=kind, rate=rate, **kwargs)])

    @classmethod
    def uniform(cls, rate: float, kinds: Iterable[str] = FAULT_KINDS) -> "FaultPlan":
        """Plan arming every kind in ``kinds`` at the same rate."""
        return cls([FaultSpec(kind=kind, rate=rate) for kind in kinds])

    def get(self, kind: str) -> Optional[FaultSpec]:
        return self._specs.get(kind)

    def kinds(self) -> Tuple[str, ...]:
        return tuple(self._specs)

    def __bool__(self) -> bool:
        return any(spec.rate > 0 for spec in self._specs.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(
            f"{s.kind}@{s.rate}" for s in self._specs.values()
        )
        return f"FaultPlan({inner})"


class FaultInjector:
    """Seeded fault source shared by the store wrapper and engine hooks.

    Counts every opportunity and every injection per kind
    (:attr:`opportunities` / :attr:`counts`), which is what the chaos
    scenario reports and what tests assert against.
    """

    def __init__(self, plan: FaultPlan, seed: int = 0):
        self.plan = plan
        self.seed = seed
        self._rng = random.Random(seed)
        self.counts: Dict[str, int] = {}
        self.opportunities: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def fire(self, kind: str) -> Optional[FaultSpec]:
        """Roll the dice for one opportunity; the spec when it fires."""
        spec = self.plan.get(kind)
        if spec is None or spec.rate <= 0.0:
            return None
        self.opportunities[kind] = self.opportunities.get(kind, 0) + 1
        if self._rng.random() >= spec.rate:
            return None
        self.counts[kind] = self.counts.get(kind, 0) + 1
        return spec

    def total_injected(self) -> int:
        return sum(self.counts.values())

    # ------------------------------------------------------------------
    # engine hooks
    # ------------------------------------------------------------------
    def perturb_op(
        self, op: Union[ReadOp, WriteOp, object]
    ) -> Union[ReadOp, WriteOp, object]:
        """Op-level faults: mid-segment exceptions and bad subscripts.

        Called by the engine once per speculative operation step; the
        returned op is used for this attempt only (a retry after an
        overflow stall re-rolls from the original op).
        """
        if self.fire("segment_exception"):
            raise FaultInjected("injected mid-segment exception")
        cls = type(op)
        if cls is ReadOp or cls is WriteOp:
            if op.subscripts and self.fire("bad_subscript"):
                return replace(op, subscripts=(BAD_SUBSCRIPT,))
        return op

    def perturb_prediction(
        self, successors: List[str], predicted: Optional[str]
    ) -> Optional[str]:
        """Control-prediction fault: steer the window down a wrong path."""
        if not self.fire("mispredict"):
            return predicted
        alternatives = [s for s in successors if s != predicted]
        if not alternatives:
            # Sole successor: mispredict as a premature exit.
            return None
        return self._rng.choice(alternatives)


class FaultySpeculativeStore(SpeculativeStore):
    """A :class:`SpeculativeStore` whose substrate misbehaves on demand.

    Every override calls the real implementation and then perturbs its
    effect according to the injector's plan, so a plan with no armed
    faults behaves bit-identically to the plain store.
    """

    def __init__(self, capacity: Optional[int], injector: FaultInjector):
        super().__init__(capacity=capacity)
        self.injector = injector

    # -- forwarding path ------------------------------------------------
    def forward(self, buffer: SegmentBuffer, address: Address) -> Optional[float]:
        value = super().forward(buffer, address)
        if value is not None:
            spec = self.injector.fire("corrupt_forward")
            if spec is not None:
                # Parity model: the corruption is detectable, so the
                # consuming buffer is marked for the engine's scrub.
                buffer.poisoned = True
                return value + spec.magnitude
        return value

    # -- commit path -----------------------------------------------------
    def commit(self, buffer: SegmentBuffer, memory: MemoryImage) -> int:
        if self.injector.fire("drop_commit"):
            # The drain is lost and the buffer stays registered: the
            # invariant auditor flags it as committed-entry leakage.
            return 0
        entries = super().commit(buffer, memory)
        if self.injector.fire("dup_commit"):
            # Second drain of the same values: idempotent for memory.
            store = memory.store
            for address, value in buffer.values.items():
                store(address, value)
        return entries

    # -- capacity --------------------------------------------------------
    def _allocate(self, buffer: SegmentBuffer, address: Address) -> bool:
        if (
            address not in buffer.tracked
            and self.injector.fire("capacity_shrink")
        ):
            return False
        return super()._allocate(buffer, address)

    def transfer(
        self,
        buffer: SegmentBuffer,
        reads: Collection[Address],
        wlog: Mapping[Address, float],
        swlog: Collection[Address],
    ) -> bool:
        # The bulk install allocates without ``_allocate``, so it would
        # skip every ``capacity_shrink`` opportunity; injected runs step
        # through ``record_read`` / ``record_write`` instead.
        raise SpecStoreError(
            "bulk transfer is not available under fault injection: "
            "injected runs never batch"
        )

    # -- violation detection ---------------------------------------------
    def violators(self, writer_age: int, address: Address) -> List[SegmentBuffer]:
        found = super().violators(writer_age, address)
        if self.injector.fire("spurious_violation"):
            # A spurious hit is a false positive in the exposed-read
            # tracking structure, so only buffers with tracked reads are
            # candidates -- exactly the segments the engine's restart
            # contract covers.  (A segment whose references all bypass
            # the store, e.g. a fully-idempotent CASE segment, performs
            # direct writes that are not replay-safe; genuine violation
            # detection can never select it, and neither may we.)
            eligible = [
                b
                for b in self._buffers
                if b.age >= writer_age and b.read_set
            ]
            if eligible:
                extra = self.injector._rng.choice(eligible)
                if extra not in found:
                    found = found + [extra]
        return found
