"""Per-segment access summaries.

This module computes, for one segment body and each variable referenced
in it, the facts Algorithm 1 and the privatization analysis need:

* **exposed read** -- a read of *x* that is not covered by an earlier,
  unconditionally executed write to the same location(s) of *x* within
  the same segment ("upward-exposed use");
* **must-define** -- *x* is written on all paths through the segment
  before any exposed read ("*x* is defined on all paths through segment
  v without exposed read", Algorithm 1 step 1);
* **node mark** -- the ``Write`` / ``Read`` / ``Null`` marking of
  Algorithm 1;
* **address determinism** -- whether every reference to *x* in the
  segment is guaranteed to hit the same storage locations when the
  segment re-executes after a roll-back.  Subscripts built from
  constants, the region's loop index, inner ``DO`` indices and
  region-read-only scalars are deterministic; subscripted subscripts
  (``K(E)`` in Figure 2) and subscripts reading shared written variables
  are not.

Coverage of a read by an earlier write is decided with a rectangle
abstraction.  For the pair (write *w*, read *r*) the inner ``DO`` loops
enclosing **both** references are *shared*: within one iteration of the
shared loops the write executes before the read, so shared loop indices
are treated as fixed symbolic values.  Loops enclosing only one of the
two references have completed (write side) or range over their full
extent (read side) by the time the read executes, so they are expanded
to their constant iteration ranges.  Per dimension the touched set is
then either a constant interval, a symbolic point (region index or
read-only scalar plus constant offset), or *unknown*; the write covers
the read when every read dimension is contained in the corresponding
write dimension.  ``unknown`` never covers and is never covered, which
keeps the analysis conservative (a missed coverage only makes a read
*exposed*, never the other way around).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.ir.expr import BinOp, Const, Expr, UnaryOp, Var, const_int
from repro.ir.reference import MemoryReference

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ir.region import Region
from repro.ir.stmt import LoopHeader
from repro.ir.types import AccessType, NodeMark


# ----------------------------------------------------------------------
# Dimension abstraction
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DimRange:
    """Constant interval ``[lo, hi]`` touched in one array dimension."""

    lo: int
    hi: int

    def contains(self, other: "DimRange") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi


@dataclass(frozen=True)
class DimSymbolic:
    """Symbolic point ``base + offset`` in one dimension.

    ``base`` is the canonical name of a value that is fixed for the
    relevant execution window (a shared inner loop index, the region
    loop index, or a region-read-only scalar).
    """

    base: str
    offset: int

    def contains(self, other: "DimSymbolic") -> bool:
        return self.base == other.base and self.offset == other.offset


class DimUnknown:
    """Unknown touched set: never covers, never covered."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "DimUnknown()"


_UNKNOWN = DimUnknown()

Dim = object  # DimRange | DimSymbolic | DimUnknown


def _dim_contains(write_dim: Dim, read_dim: Dim) -> bool:
    if isinstance(write_dim, DimUnknown) or isinstance(read_dim, DimUnknown):
        return False
    if isinstance(write_dim, DimRange) and isinstance(read_dim, DimRange):
        return write_dim.contains(read_dim)
    if isinstance(write_dim, DimSymbolic) and isinstance(read_dim, DimSymbolic):
        return write_dim.contains(read_dim)
    return False


# ----------------------------------------------------------------------
# Subscript classification
# ----------------------------------------------------------------------
def linear_terms(expr: Expr) -> Optional[Tuple[Dict[str, int], int]]:
    """Decompose ``expr`` into ``sum(coeff * name) + const``.

    Only addition, subtraction, negation and multiplication by integer
    constants are allowed; returns ``None`` otherwise (in particular when
    the expression contains an array read, i.e. a subscripted subscript).
    """
    if isinstance(expr, Const):
        if isinstance(expr.value, float) and not float(expr.value).is_integer():
            return None
        return {}, int(expr.value)
    if isinstance(expr, Var):
        return {expr.name: 1}, 0
    if isinstance(expr, UnaryOp) and expr.op == "-":
        inner = linear_terms(expr.operand)
        if inner is None:
            return None
        coeffs, const = inner
        return {k: -v for k, v in coeffs.items()}, -const
    if isinstance(expr, UnaryOp) and expr.op == "+":
        return linear_terms(expr.operand)
    if isinstance(expr, BinOp) and expr.op in ("+", "-"):
        left = linear_terms(expr.left)
        right = linear_terms(expr.right)
        if left is None or right is None:
            return None
        lcoeffs, lconst = left
        rcoeffs, rconst = right
        sign = 1 if expr.op == "+" else -1
        coeffs = dict(lcoeffs)
        for name, coeff in rcoeffs.items():
            coeffs[name] = coeffs.get(name, 0) + sign * coeff
        return {k: v for k, v in coeffs.items() if v != 0}, lconst + sign * rconst
    if isinstance(expr, BinOp) and expr.op == "*":
        left = linear_terms(expr.left)
        right = linear_terms(expr.right)
        if left is None or right is None:
            return None
        lcoeffs, lconst = left
        rcoeffs, rconst = right
        if not lcoeffs:
            return {k: v * lconst for k, v in rcoeffs.items()}, lconst * rconst
        if not rcoeffs:
            return {k: v * rconst for k, v in lcoeffs.items()}, lconst * rconst
        return None
    return None


def reference_is_deterministic(
    ref: MemoryReference,
    region_index: Optional[str],
    read_only_vars: Set[str],
) -> bool:
    """True when every subscript of ``ref`` has the same value on every
    re-execution: it reads only inner loop indices, the region index and
    region-read-only scalars.  A subscripted subscript (its array read is
    an occurrence with subscripts) or a read of a variable written in the
    region makes the address non-deterministic."""
    loop_locals = {do.index for do in ref.enclosing_loops}
    return all(
        not subscripts
        and (name in loop_locals or name == region_index or name in read_only_vars)
        for sub in ref.subscripts
        for name, subscripts in sub.reads()
    )


# ----------------------------------------------------------------------
# Rectangle construction and coverage
# ----------------------------------------------------------------------
def _loop_bounds(do: LoopHeader) -> Optional[Tuple[int, int]]:
    """Constant iteration range of an inner DO, normalised so lo <= hi."""
    lo = const_int(do.lower)
    hi = const_int(do.upper)
    step = const_int(do.step)
    if lo is None or hi is None or step is None:
        return None
    if abs(step) != 1:
        # A strided loop skips addresses inside [lo, hi]; claiming the
        # full interval would mark the gaps written/covered.
        return None
    if step < 0:
        lo, hi = hi, lo
    if lo > hi:
        return None
    return lo, hi


def reference_dims(
    ref: MemoryReference,
    expand_loops: Set[LoopHeader],
    region_index: Optional[str],
    read_only_vars: Set[str],
) -> Tuple[Dim, ...]:
    """Per-dimension abstraction of the locations touched by ``ref``.

    Loops in ``expand_loops`` contribute their full constant iteration
    range; all other enclosing loops, the region index and read-only
    scalars are treated as fixed symbolic values.
    """
    expandable: Dict[str, Tuple[int, int]] = {}
    symbolic_indices: Set[str] = set()
    for do in ref.enclosing_loops:
        if do in expand_loops:
            bounds = _loop_bounds(do)
            if bounds is not None:
                expandable[do.index] = bounds
            # A loop with unknown bounds that must be expanded produces an
            # unknown dimension whenever its index appears in a subscript.
        else:
            symbolic_indices.add(do.index)

    dims: List[Dim] = []
    for sub in ref.subscripts:
        lin = linear_terms(sub)
        if lin is None:
            dims.append(_UNKNOWN)
            continue
        coeffs, const = lin
        names = list(coeffs)
        if not names:
            dims.append(DimRange(const, const))
            continue
        if len(names) > 1:
            dims.append(_UNKNOWN)
            continue
        name = names[0]
        coeff = coeffs[name]
        if name in expandable and coeff in (1, -1):
            lo, hi = expandable[name]
            values = sorted((coeff * lo + const, coeff * hi + const))
            dims.append(DimRange(values[0], values[1]))
        elif coeff == 1 and (
            name in symbolic_indices
            or name == region_index
            or name in read_only_vars
        ):
            dims.append(DimSymbolic(name, const))
        else:
            dims.append(_UNKNOWN)
    return tuple(dims)


def write_covers_read(
    write: MemoryReference,
    read: MemoryReference,
    region_index: Optional[str],
    read_only_vars: Set[str],
) -> bool:
    """True when ``write`` is guaranteed to have stored to every location
    ``read`` may load, before the read executes, within one segment
    execution.

    Both references must be to the same variable, the write must precede
    the read in program order and must execute unconditionally.
    """
    if write.variable != read.variable:
        return False
    if write.order >= read.order:
        return False
    if write.conditional:
        return False
    if len(write.subscripts) != len(read.subscripts):
        return False
    if not write.subscripts:  # scalar: unconditional earlier write covers
        return True
    shared = set(write.enclosing_loops) & set(read.enclosing_loops)
    write_dims = reference_dims(
        write, set(write.enclosing_loops) - shared, region_index, read_only_vars
    )
    read_dims = reference_dims(
        read, set(read.enclosing_loops) - shared, region_index, read_only_vars
    )
    return all(_dim_contains(w, r) for w, r in zip(write_dims, read_dims))


def _cover_reads(
    info: "VariableAccessInfo",
    region_index: Optional[str],
    read_only_vars: Set[str],
) -> None:
    """Sort the reads of ``info`` into covered and exposed ones: a read's
    covering write is the first earlier unconditional write that covers it
    (:func:`write_covers_read`).  Without loop expansion every dimension
    is a point, so a write under the read's own loops covers it exactly
    when their dims are equal and known: such writes are grouped by
    (loops, dims) and a read looks up its group's earliest write.  Writes
    under other loops are tested one by one, up to that write."""
    writes = [w for w in info.writes if not w.conditional]
    earliest: Dict[Tuple[int, Tuple[Dim, ...]], MemoryReference] = {}
    before = 0  # writes[:before] precede the current read
    for read in info.reads:
        while before < len(writes) and writes[before].order < read.order:
            write = writes[before]
            before += 1
            dims = reference_dims(write, set(), region_index, read_only_vars)
            earliest.setdefault((id(write.enclosing_loops), dims), write)
        covering: Optional[MemoryReference] = None
        if before:
            loops = read.enclosing_loops
            dims = reference_dims(read, set(), region_index, read_only_vars)
            if _UNKNOWN not in dims:
                covering = earliest.get((id(loops), dims))
            limit = covering.order if covering is not None else read.order
            for write in writes:
                if write.order >= limit:
                    break
                if write.enclosing_loops is not loops and write_covers_read(
                    write, read, region_index, read_only_vars
                ):
                    covering = write
                    break
        if covering is not None:
            info.covered_reads.append(read)
            info.covering_writes[read.uid] = covering
        else:
            info.exposed_reads.append(read)
            info.has_exposed_read = True


# ----------------------------------------------------------------------
# Segment summary
# ----------------------------------------------------------------------
@dataclass
class VariableAccessInfo:
    """Summary of how one segment accesses one variable."""

    variable: str
    mark: NodeMark = NodeMark.NULL
    has_exposed_read: bool = False
    has_unconditional_write: bool = False
    deterministic: bool = True
    exposed_reads: List[MemoryReference] = field(default_factory=list)
    covered_reads: List[MemoryReference] = field(default_factory=list)
    covering_writes: Dict[str, MemoryReference] = field(default_factory=dict)
    writes: List[MemoryReference] = field(default_factory=list)
    reads: List[MemoryReference] = field(default_factory=list)

    @property
    def referenced(self) -> bool:
        return bool(self.writes or self.reads)


@dataclass
class AccessSummary:
    """Access summary of one segment: per-variable :class:`VariableAccessInfo`."""

    segment: str
    variables: Dict[str, VariableAccessInfo]

    def mark(self, variable: str) -> NodeMark:
        """Algorithm 1 node marking for ``variable`` (``Null`` if absent)."""
        info = self.variables.get(variable)
        return info.mark if info is not None else NodeMark.NULL

    def info(self, variable: str) -> Optional[VariableAccessInfo]:
        return self.variables.get(variable)

    def referenced_variables(self) -> Set[str]:
        return set(self.variables)


def summarize_segment(
    references: Sequence[MemoryReference],
    segment: str,
    region_index: Optional[str] = None,
    read_only_vars: Optional[Set[str]] = None,
) -> AccessSummary:
    """Compute the :class:`AccessSummary` of one segment body.

    ``references`` must come from
    :func:`repro.ir.reference.extract_references` (program order and
    conditional flags are relied upon).
    """
    read_only_vars = set(read_only_vars or ())
    per_var: Dict[str, VariableAccessInfo] = {}
    ordered = sorted(references, key=lambda r: r.order)
    # Address determinism, decided once per (subscripts, enclosing loops) and
    # not at all for a variable already known to be non-deterministic.
    deterministic: Dict[Tuple[Tuple[Expr, ...], Tuple[LoopHeader, ...]], bool] = {}

    for ref in ordered:
        info = per_var.get(ref.variable)
        if info is None:
            info = per_var[ref.variable] = VariableAccessInfo(variable=ref.variable)
        if info.deterministic and ref.subscripts:
            key = (ref.subscripts, ref.enclosing_loops)
            verdict = deterministic.get(key)
            if verdict is None:
                verdict = deterministic[key] = reference_is_deterministic(
                    ref, region_index, read_only_vars
                )
            info.deterministic = verdict
        if ref.access is AccessType.READ:
            info.reads.append(ref)
        else:
            info.writes.append(ref)
            if not ref.conditional:
                info.has_unconditional_write = True

    for info in per_var.values():
        if info.has_unconditional_write:
            _cover_reads(info, region_index, read_only_vars)
        elif info.reads:
            info.exposed_reads.extend(info.reads)
            info.has_exposed_read = True

    for info in per_var.values():
        if info.has_exposed_read:
            info.mark = NodeMark.READ
        elif info.has_unconditional_write:
            info.mark = NodeMark.WRITE
        else:
            info.mark = NodeMark.NULL
    return AccessSummary(segment=segment, variables=per_var)


def summarize_region_segments(
    region: "Region", read_only_vars: Optional[Set[str]] = None
) -> Dict[str, AccessSummary]:
    """Access summaries for every segment of ``region`` (keyed by name)."""
    from repro.ir.region import LoopRegion

    region_index = region.index if isinstance(region, LoopRegion) else None
    out: Dict[str, AccessSummary] = {}
    for name in region.segment_names():
        out[name] = summarize_segment(
            region.segment_references(name),
            segment=name,
            region_index=region_index,
            read_only_vars=read_only_vars,
        )
    return out
