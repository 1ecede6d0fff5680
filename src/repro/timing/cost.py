"""Configurable cost model of the multiprocessor timing subsystem.

Every quantity the timing model charges is a knob on one frozen
:class:`CostModel`:

* **operation costs** -- compute operations scale the executor's
  operator-weighted per-statement instruction estimate
  (:func:`repro.runtime.executor._compute_cost`: multiplies, divides
  and intrinsic calls cost more than adds) by
  :attr:`~CostModel.compute_scale`; the AST coroutines and the recorded
  traces yield the same estimate, so the engines and the sequential
  baseline price arithmetic identically;
* **access latencies** -- one latency per storage a reference can be
  served from: conventional memory (:attr:`~CostModel.memory_latency`,
  also the sequential baseline's latency), the speculative store
  (:attr:`~CostModel.specstore_latency`; equal to memory by default so
  speculation is never *magically* faster -- its costs are the explicit
  overheads below), and the per-segment private frame
  (:attr:`~CostModel.private_latency`, register-file-like);
* **speculation overheads** -- per-segment dispatch
  (:attr:`~CostModel.dispatch_overhead`), commit arbitration
  (:attr:`~CostModel.commit_base` + :attr:`~CostModel.commit_per_entry`
  per entry drained, also charged for an overflow drain), and the
  squash/restart penalty (:attr:`~CostModel.squash_penalty`) paid on
  every violation rollback.

The defaults keep an invariant the tests rely on: a speculative run on
one processor with a window of one performs the sequential operation
stream plus overheads, so its makespan is never below the sequential
cycle total.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Mapping, Optional, Tuple

#: Route tags carried by timing events (the engines' canonical route
#: vocabulary, plus the non-speculative default ``None`` -> conventional
#: memory).
from repro.runtime.engines import (  # noqa: F401 (shared vocabulary)
    ROUTE_PRIVATE,
    ROUTE_SPECULATIVE,
)

#: Event kinds of the op stream.
KIND_COMPUTE = "compute"
KIND_READ = "read"
KIND_WRITE = "write"


@dataclass(frozen=True)
class CostModel:
    """All cycle costs charged by the timing subsystem."""

    #: Cycles per executor compute cycle (ComputeOp.cycles multiplier).
    compute_scale: int = 1
    #: Conventional-memory access (sequential baseline and direct routes).
    memory_latency: int = 4
    #: Speculative-buffer access, own buffer or forwarded from an older one.
    specstore_latency: int = 4
    #: Per-segment private frame access (CASE privatizable references).
    private_latency: int = 2
    #: Charged per segment dispatched onto a processor.
    dispatch_overhead: int = 2
    #: Commit arbitration handshake (also paid for an overflow drain).
    commit_base: int = 6
    #: Per entry drained from speculative storage at commit / drain.
    commit_per_entry: int = 2
    #: Pipeline flush + refetch paid on every violation restart.
    squash_penalty: int = 8

    # ------------------------------------------------------------------
    def op_cost(self, kind: str, cycles: int, route: Optional[str] = None) -> int:
        """Timing cycles of one operation event.

        ``cycles`` is the executor-level cost (meaningful for compute
        events only); ``route`` is how a memory event was served
        (``None`` means conventional memory, the sequential default).
        """
        if kind == KIND_COMPUTE:
            return self.compute_scale * cycles
        if route == ROUTE_PRIVATE:
            return self.private_latency
        if route == ROUTE_SPECULATIVE:
            return self.specstore_latency
        return self.memory_latency

    def direct_cost(self, cycles: int, accesses: int) -> int:
        """Price of non-speculative work: ``cycles`` executor compute
        cycles and ``accesses`` conventional-memory reads and writes.

        Equals summing :meth:`op_cost` over the op stream; it prices a
        whole sequential run (the baseline) and the engines' init and
        finale sections.
        """
        return self.compute_scale * cycles + self.memory_latency * accesses

    def commit_cost(self, entries: int) -> int:
        """Commit-arbitration cost of draining ``entries`` buffered entries."""
        return self.commit_base + self.commit_per_entry * max(0, entries)

    def batch_price(
        self,
        compute_cycles: int,
        n_reads: int,
        writes: Mapping[Optional[str], int],
    ) -> Tuple[int, int, int]:
        """Bulk price of a batched segment attempt as ``(base, spec, priv)``.

        The attempt costs ``base + spec * s + priv * p`` when ``s`` of
        its ``n_reads`` reads were served from speculative storage,
        ``p`` from the private frame and the rest from conventional
        memory; ``writes`` counts its writes per serving route (``None``
        = conventional memory).  The total equals summing
        :meth:`op_cost` over the attempt's op stream, and the three
        terms are computed once per program.
        """
        memory = self.op_cost(KIND_READ, 0, None)
        base = self.compute_scale * compute_cycles + memory * n_reads
        for route, count in writes.items():
            base += self.op_cost(KIND_WRITE, 0, route) * count
        return (
            base,
            self.op_cost(KIND_READ, 0, ROUTE_SPECULATIVE) - memory,
            self.op_cost(KIND_READ, 0, ROUTE_PRIVATE) - memory,
        )

    def as_dict(self) -> Dict[str, int]:
        """All knobs as a plain dict (for bench report metadata)."""
        return asdict(self)


#: The default model used by the bench's speedup scenario.
DEFAULT_COST_MODEL = CostModel()
