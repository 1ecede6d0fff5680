"""Configurable cost model of the multiprocessor timing subsystem.

Every quantity the timing model charges is a knob on one frozen
:class:`CostModel`:

* **operation costs** -- compute operations scale the executor's
  per-statement instruction estimate by :attr:`~CostModel.compute_scale`;
  optionally the estimate itself is re-derived with *weighted* operators
  (multiplies, divides and intrinsic calls cost more than adds), which
  :meth:`CostModel.compute_cost_fn` plugs into the executor's
  ``compute_cost`` latency hook so the engines and the sequential
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

import weakref
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.ir.expr import BinOp, Call, Expr, UnaryOp

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
    #: Operator weights of the compute-cost hook (base cost is 1).
    add_weight: int = 1
    mul_weight: int = 2
    div_weight: int = 8
    call_weight: int = 8

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

    # ------------------------------------------------------------------
    def expression_cost(self, expr: Expr) -> int:
        """Operator-weighted instruction estimate of evaluating ``expr``."""
        cost = 1
        for node in expr.walk():
            if isinstance(node, BinOp):
                if node.op == "*":
                    cost += self.mul_weight
                elif node.op in ("/", "**"):
                    cost += self.div_weight
                else:
                    cost += self.add_weight
            elif isinstance(node, UnaryOp):
                cost += self.add_weight
            elif isinstance(node, Call):
                cost += self.call_weight
        return cost

    def compute_cost_fn(self) -> Callable:
        """A per-statement cost function for the executor's latency hook.

        Returns a fresh memoized ``(stmt, expr) -> int`` closure pricing
        arithmetic with this model's operator weights.  The memo is
        keyed per ``(stmt, id(expr))``: the outer map is weakly keyed by
        statement (like the executor's default cache), and each
        statement holds an inner ``id(expr) -> cost`` map — keying by
        statement alone would silently return the first expression's
        cost for any other expression priced under the same statement.
        ``id(expr)`` is honest because a statement keeps its expressions
        alive for as long as the weak key itself exists; when the
        statement dies, the inner map (and its ids) die with it.
        """
        cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        expression_cost = self.expression_cost

        def compute_cost(stmt, expr) -> int:
            per_stmt = cache.get(stmt)
            if per_stmt is None:
                per_stmt = cache[stmt] = {}
            cached = per_stmt.get(id(expr))
            if cached is None:
                cached = per_stmt[id(expr)] = expression_cost(expr)
            return cached

        return compute_cost

    def as_dict(self) -> Dict[str, int]:
        """All knobs as a plain dict (for bench report metadata)."""
        return asdict(self)


#: The default model used by the bench's speedup scenario.
DEFAULT_COST_MODEL = CostModel()
