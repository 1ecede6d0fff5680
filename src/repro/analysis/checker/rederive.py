"""Independent re-derivation of the Algorithm 1 / Algorithm 2 facts.

This is the checker's *second implementation* of the paper's static
analysis, built to share as little structure as possible with the
production pipeline so that a bug in one is unlikely to hide in the
other:

==============================  =====================================
production                      checker
==============================  =====================================
flat reference lists, pairwise  statement-level CFG + worklist
rectangle coverage              dataflow over must-written location
                                descriptors
ZIV/SIV/GCD subscript tests     concrete address enumeration over the
                                region's (small, constant) iteration
                                space
forward scan liveness           backward unit composition with
                                per-segment gen/kill from the CFG
==============================  =====================================

Descriptors abstract the locations a reference touches, one atom per
array dimension:

* ``("C", v)``       -- the constant subscript value ``v``;
* ``("S", b, o)``    -- symbolic ``b + o`` where ``b`` is fixed for the
  relevant window (region index, in-scope inner loop index, or a
  region-read-only scalar);
* ``("R", lo, hi)``  -- every value in ``[lo, hi]`` (produced by
  widening a unit-stride loop's index at the loop exit).

The *must-written* dataflow adds a descriptor at each unguarded
assignment, intersects at joins, invalidates index-dependent
descriptors on the loop back edge (the next iteration writes different
elements) and widens them to the full range at the loop exit when the
loop provably runs its complete unit-stride iteration space.  A read is
*exposed* when no descriptor in the must-set covers it.

Dependences are derived by *enumerating* the actual addresses every
reference touches in every segment instance (possible exactly when the
region and inner loop bounds are integer constants and subscripts are
affine in the loop indices) and intersecting the address sets across
instances -- stride-exact, boundary-exact, and entirely free of the
production subscript-test machinery.  When enumeration is not possible
(symbolic bounds, non-affine subscripts, budget exceeded) the affected
variables fall back to all-pairs dependences, which only ever makes the
checker *more* conservative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.access import linear_terms
from repro.analysis.cfg import SegmentGraph
from repro.analysis.checker.dataflow import DataflowProblem, solve_dataflow
from repro.analysis.checker.stmt_cfg import (
    ASSIGN,
    BRANCH,
    CFGNode,
    LOOP_BACK,
    LOOP_EXIT,
    LOOP_HEAD,
    StmtCFG,
    build_segment_cfg,
)
from repro.idempotency.labeling import LabelingResult
from repro.ir.expr import Expr, Index, const_int
from repro.ir.program import Program
from repro.ir.reference import MemoryReference
from repro.ir.region import (
    EXIT_NODE,
    ExplicitRegion,
    LOOP_BODY_SEGMENT,
    LoopRegion,
    Region,
)
from repro.ir.stmt import Assign, Do, If, Statement
from repro.ir.types import (
    IdempotencyCategory,
    NodeColor,
    NodeMark,
    RefLabel,
)

#: A location descriptor: (variable, per-dimension atoms).
Descriptor = Tuple[str, Tuple[tuple, ...]]

#: Default budget for address enumeration (occurrences per region).
DEFAULT_ENUM_BUDGET = 60_000


# ----------------------------------------------------------------------
# Descriptor atoms
# ----------------------------------------------------------------------
def _subscript_atom(
    sub: Expr, allowed_bases: Set[str]
) -> Optional[tuple]:
    """Atom of one subscript expression, or ``None`` when unknown."""
    lin = linear_terms(sub)
    if lin is None:
        return None
    coeffs, const = lin
    if not coeffs:
        return ("C", const)
    if len(coeffs) == 1:
        (name, coeff), = coeffs.items()
        if coeff == 1 and name in allowed_bases:
            return ("S", name, const)
    return None


def _descriptor_of(
    ref_var: str,
    subscripts: Sequence[Expr],
    allowed_bases: Set[str],
) -> Optional[Descriptor]:
    if not subscripts:
        return (ref_var, ())
    dims: List[tuple] = []
    for sub in subscripts:
        atom = _subscript_atom(sub, allowed_bases)
        if atom is None:
            return None
        dims.append(atom)
    return (ref_var, tuple(dims))


def _dim_covers(write_dim: tuple, read_dim: tuple) -> bool:
    wk, rk = write_dim[0], read_dim[0]
    if wk == "C" and rk == "C":
        return write_dim[1] == read_dim[1]
    if wk == "S" and rk == "S":
        return write_dim[1:] == read_dim[1:]
    if wk == "R" and rk == "C":
        return write_dim[1] <= read_dim[1] <= write_dim[2]
    if wk == "R" and rk == "R":
        return write_dim[1] <= read_dim[1] and read_dim[2] <= write_dim[2]
    return False


def _covered(read_desc: Descriptor, must: FrozenSet[Descriptor]) -> bool:
    var, rdims = read_desc
    for wvar, wdims in must:
        if wvar != var or len(wdims) != len(rdims):
            continue
        if all(_dim_covers(w, r) for w, r in zip(wdims, rdims)):
            return True
    return False


# ----------------------------------------------------------------------
# Dataflow problems over the statement CFG
# ----------------------------------------------------------------------
class _MustWritten(DataflowProblem):
    """Descriptors definitely written since segment entry (intersection)."""

    direction = "forward"

    def __init__(self, allowed_bases: Set[str]):
        self.allowed_bases = allowed_bases

    def boundary(self) -> FrozenSet[Descriptor]:
        return frozenset()

    def join(self, a: FrozenSet, b: FrozenSet) -> FrozenSet:
        return a & b

    def transfer(self, node: CFGNode, value: FrozenSet) -> FrozenSet:
        if node.kind == ASSIGN:
            stmt = node.stmt
            assert isinstance(stmt, Assign)
            if stmt.guard is not None:
                return value
            bases = self._bases_at(node)
            desc = _descriptor_of(stmt.target, stmt.target_subscripts, bases)
            if desc is not None:
                return value | {desc}
            return value
        if node.kind == LOOP_BACK:
            # The next iteration writes different elements: descriptors
            # pinned to this loop's index are stale.
            return self._drop_index(value, node.stmt)
        if node.kind == LOOP_EXIT:
            return self._widen(value, node.stmt)
        return value

    def _bases_at(self, node: CFGNode) -> Set[str]:
        return self.allowed_bases | {do.index for do in node.loops}

    @staticmethod
    def _mentions_index(dims: Tuple[tuple, ...], index: str) -> bool:
        return any(d[0] == "S" and d[1] == index for d in dims)

    def _drop_index(self, value: FrozenSet, stmt: Statement) -> FrozenSet:
        assert isinstance(stmt, Do)
        return frozenset(
            d for d in value if not self._mentions_index(d[1], stmt.index)
        )

    def _widen(self, value: FrozenSet, stmt: Statement) -> FrozenSet:
        assert isinstance(stmt, Do)
        index = stmt.index
        bounds = _const_bounds(stmt.lower, stmt.upper, stmt.step)
        widenable = (
            bounds is not None
            and abs(bounds[2]) == 1
            and (stmt.constant_trip_count() or 0) >= 1
        )
        out: Set[Descriptor] = set()
        for var, dims in value:
            if not self._mentions_index(dims, index):
                out.add((var, dims))
                continue
            if not widenable:
                continue
            lo, hi, _ = bounds  # type: ignore[misc]
            new_dims = []
            for d in dims:
                if d[0] == "S" and d[1] == index:
                    new_dims.append(("R", lo + d[2], hi + d[2]))
                else:
                    new_dims.append(d)
            out.add((var, tuple(new_dims)))
        return frozenset(out)


class _MustExecuted(DataflowProblem):
    """Node ids lying on every path from the entry (intersection)."""

    direction = "forward"

    def boundary(self) -> FrozenSet[int]:
        return frozenset()

    def join(self, a: FrozenSet, b: FrozenSet) -> FrozenSet:
        return a & b

    def transfer(self, node: CFGNode, value: FrozenSet) -> FrozenSet:
        return value | {node.nid}


def _const_bounds(
    lower: Expr, upper: Expr, step: Expr
) -> Optional[Tuple[int, int, int]]:
    lo = const_int(lower)
    hi = const_int(upper)
    st = const_int(step)
    if lo is None or hi is None or st is None or st == 0:
        return None
    return lo, hi, st


def _iter_values(lo: int, hi: int, st: int) -> List[int]:
    if st > 0:
        return list(range(lo, hi + 1, st))
    return list(range(lo, hi - 1, st))


# ----------------------------------------------------------------------
# Per-segment CFG facts
# ----------------------------------------------------------------------
@dataclass
class SegmentFacts:
    """CFG-derived facts of one segment body."""

    cfg: StmtCFG
    #: uids of reads with no covering must-write before them.
    exposed_read_uids: Set[str] = field(default_factory=set)
    #: variables with at least one exposed read.
    exposed_vars: Set[str] = field(default_factory=set)
    #: variables written on every path without a preceding exposed read.
    must_written_vars: Set[str] = field(default_factory=set)
    #: all written / read variables.
    written_vars: Set[str] = field(default_factory=set)
    read_vars: Set[str] = field(default_factory=set)
    #: variables all of whose writes are scalar writes.
    scalar_only_writes: Set[str] = field(default_factory=set)
    #: variables with an unguarded write lying on every path.
    uncond_write_vars: Set[str] = field(default_factory=set)


def _reads_at(node: CFGNode) -> List[MemoryReference]:
    """Read references evaluated at ``node``, in evaluation order."""
    stmt = node.stmt
    if stmt is None:
        return []
    if node.kind == ASSIGN:
        return list(stmt.control_reads or []) + list(stmt.reads or [])
    if node.kind in (BRANCH, LOOP_HEAD):
        return list(stmt.control_reads or [])
    return []


def analyze_segment_body(
    body: Sequence[Statement], allowed_bases: Set[str]
) -> SegmentFacts:
    """Must-written dataflow + exposure over one segment body."""
    cfg = build_segment_cfg(body)
    problem = _MustWritten(allowed_bases)
    sol = solve_dataflow(
        cfg.nodes, cfg.successors, cfg.predecessors, problem, [cfg.entry]
    )
    uncond_sol = solve_dataflow(
        cfg.nodes, cfg.successors, cfg.predecessors, _MustExecuted(), [cfg.entry]
    )
    exit_in = uncond_sol[cfg.exit][0] or frozenset()
    facts = SegmentFacts(cfg=cfg)

    for node in cfg.nodes:
        in_val = sol[node][0]
        if in_val is None:
            continue  # unreachable
        bases = allowed_bases | {do.index for do in node.loops}
        for ref in _reads_at(node):
            facts.read_vars.add(ref.variable)
            desc = _descriptor_of(ref.variable, ref.subscripts, bases)
            if desc is None or not _covered(desc, in_val):
                facts.exposed_read_uids.add(ref.uid)
                facts.exposed_vars.add(ref.variable)
        if node.kind == ASSIGN:
            stmt = node.stmt
            assert isinstance(stmt, Assign)
            facts.written_vars.add(stmt.target)

    exit_must = sol[cfg.exit][0] or frozenset()
    for var, _dims in exit_must:
        facts.must_written_vars.add(var)
    facts.must_written_vars -= facts.exposed_vars

    for var in facts.written_vars:
        writes = [
            n.stmt
            for n in cfg.nodes
            if n.kind == ASSIGN and n.stmt is not None and n.stmt.target == var
        ]
        if all(not w.target_subscripts for w in writes):
            facts.scalar_only_writes.add(var)
    # Unconditional-write variables: some unguarded assignment on every path.
    facts.uncond_write_vars = {
        n.stmt.target
        for n in cfg.nodes
        if n.kind == ASSIGN
        and n.stmt is not None
        and n.stmt.guard is None
        and n.nid in exit_in
    }
    return facts


# ----------------------------------------------------------------------
# Address enumeration
# ----------------------------------------------------------------------
@dataclass
class _Occurrence:
    ref: MemoryReference
    #: concrete flattened subscript values, or None when not computable.
    addr: Optional[Tuple[int, ...]]
    time: int


class _EnumBudget(Exception):
    pass


def _eval_affine(sub: Expr, env: Dict[str, int]) -> Optional[int]:
    lin = linear_terms(sub)
    if lin is None:
        return None
    coeffs, const = lin
    total = const
    for name, coeff in coeffs.items():
        if name not in env:
            return None
        total += coeff * env[name]
    return total


def _enumerate_body(
    body: Sequence[Statement],
    env: Dict[str, int],
    out: List[_Occurrence],
    clock: List[int],
    budget: int,
) -> None:
    """Emit occurrences of one body under ``env`` in execution order."""

    def emit(ref: Optional[MemoryReference]) -> None:
        if ref is None:
            return
        if len(out) >= budget:
            raise _EnumBudget()
        if ref.subscripts:
            vals: Optional[List[int]] = []
            for sub in ref.subscripts:
                v = _eval_affine(sub, env)
                if v is None:
                    vals = None
                    break
                vals.append(v)
            addr = tuple(vals) if vals is not None else None
        else:
            addr = ()
        out.append(_Occurrence(ref=ref, addr=addr, time=clock[0]))
        clock[0] += 1

    for stmt in body:
        if isinstance(stmt, Assign):
            for ref in stmt.control_reads or []:
                emit(ref)
            for ref in stmt.reads or []:
                emit(ref)
            emit(stmt.write)
        elif isinstance(stmt, If):
            for ref in stmt.control_reads or []:
                emit(ref)
            # Both arms may execute (data-dependent): emit both in order.
            _enumerate_body(stmt.then_body, env, out, clock, budget)
            _enumerate_body(stmt.else_body, env, out, clock, budget)
        elif isinstance(stmt, Do):
            for ref in stmt.control_reads or []:
                emit(ref)
            bounds = _const_bounds(stmt.lower, stmt.upper, stmt.step)
            if bounds is None:
                raise _EnumBudget()  # symbolic inner bounds: cannot enumerate
            lo, hi, st = bounds
            for value in _iter_values(lo, hi, st):
                env[stmt.index] = value
                _enumerate_body(stmt.body, env, out, clock, budget)
            env.pop(stmt.index, None)


@dataclass
class DependenceFacts:
    """Checker dependences: sink-centric view, by address enumeration."""

    #: enumeration covered every instance exactly.
    exact: bool = True
    #: uids that sink at least one cross-segment dependence.
    cross_sink_uids: Set[str] = field(default_factory=set)
    #: read uid -> set of intra-segment flow-source *write* uids.
    intra_flow_sources: Dict[str, Set[str]] = field(default_factory=dict)
    #: uids that sink any dependence at all (intra or cross).
    any_sink_uids: Set[str] = field(default_factory=set)
    #: any cross-segment dependence exists on analysed variables.
    has_cross: bool = False


def _derive_dependences(
    region: Region,
    skip_vars: Set[str],
    budget: int,
) -> DependenceFacts:
    """Enumerate addresses per segment instance and intersect."""
    facts = DependenceFacts()

    # (age, occurrences) per instance.
    instances: List[Tuple[int, List[_Occurrence]]] = []
    reach: Optional[Dict[str, Set[str]]] = None
    try:
        if isinstance(region, LoopRegion):
            bounds = _const_bounds(region.lower, region.upper, region.step)
            if bounds is None:
                raise _EnumBudget()
            lo, hi, st = bounds
            values = _iter_values(lo, hi, st)
            if len(values) * max(1, len(region.references)) > budget:
                raise _EnumBudget()
            for age, value in enumerate(values):
                occs: List[_Occurrence] = []
                _enumerate_body(
                    region.body, {region.index: value}, occs, [0], budget
                )
                instances.append((age, occs))
        else:
            assert isinstance(region, ExplicitRegion)
            graph = SegmentGraph.from_region(region)
            reach = {
                name: graph.descendants(name) | {name}
                for name in region.segment_names()
            }
            for age, name in enumerate(region.segment_names()):
                occs = []
                _enumerate_body(region.segment_body(name), {}, occs, [0], budget)
                # Branch-condition control reads are references too.
                seg = region.segment(name)
                for ref in seg.references or []:
                    if ref.is_control and all(o.ref is not ref for o in occs):
                        occs.append(
                            _Occurrence(
                                ref=ref,
                                addr=_addr_of(ref, {}),
                                time=len(occs),
                            )
                        )
                instances.append((age, occs))
    except _EnumBudget:
        facts.exact = False
        _conservative_dependences(region, skip_vars, facts)
        return facts

    segment_of: Dict[int, str] = {}
    if isinstance(region, ExplicitRegion):
        for age, name in enumerate(region.segment_names()):
            segment_of[age] = name

    # variable -> addr (or None) -> [(age, time, occurrence)]
    by_var: Dict[str, List[Tuple[int, _Occurrence]]] = {}
    for age, occs in instances:
        for occ in occs:
            var = occ.ref.variable
            if var in skip_vars:
                continue
            by_var.setdefault(var, []).append((age, occ))

    for var, entries in by_var.items():
        if not any(e[1].ref.is_write for e in entries):
            continue
        known: Dict[Tuple[int, ...], List[Tuple[int, _Occurrence]]] = {}
        unknown: List[Tuple[int, _Occurrence]] = []
        for age, occ in entries:
            if occ.addr is None:
                unknown.append((age, occ))
            else:
                known.setdefault(occ.addr, []).append((age, occ))
        for group in known.values():
            _emit_group_deps(group, facts, segment_of, reach)
        if unknown:
            # An unknown address may alias *anything* of the variable,
            # but two known addresses only alias when equal: pair every
            # occurrence against the unknowns, never known-vs-known.
            _emit_alias_deps(entries, facts, segment_of, reach)
    return facts


def _addr_of(
    ref: MemoryReference, env: Dict[str, int]
) -> Optional[Tuple[int, ...]]:
    if not ref.subscripts:
        return ()
    vals: List[int] = []
    for sub in ref.subscripts:
        v = _eval_affine(sub, env)
        if v is None:
            return None
        vals.append(v)
    return tuple(vals)


def _emit_pair(
    age_a: int,
    occ_a: _Occurrence,
    age_b: int,
    occ_b: _Occurrence,
    facts: DependenceFacts,
    segment_of: Dict[int, str],
    reach: Optional[Dict[str, Set[str]]],
) -> None:
    """Record the may-dependence of ordered occurrence pair (a, b)."""
    if occ_a.ref is occ_b.ref and age_a == age_b:
        return
    if not (occ_a.ref.is_write or occ_b.ref.is_write):
        return
    cross = age_a != age_b
    if cross and reach is not None:
        seg_a = segment_of[age_a]
        seg_b = segment_of[age_b]
        if seg_b not in reach[seg_a] and seg_a not in reach[seg_b]:
            return  # mutually exclusive branch arms
    sink = occ_b.ref
    facts.any_sink_uids.add(sink.uid)
    if cross:
        facts.has_cross = True
        facts.cross_sink_uids.add(sink.uid)
    elif sink.is_read and occ_a.ref.is_write:
        facts.intra_flow_sources.setdefault(sink.uid, set()).add(
            occ_a.ref.uid
        )


def _emit_group_deps(
    group: List[Tuple[int, _Occurrence]],
    facts: DependenceFacts,
    segment_of: Dict[int, str],
    reach: Optional[Dict[str, Set[str]]],
) -> None:
    """All may-dependences within one same-address occurrence group."""
    ordered = sorted(group, key=lambda e: (e[0], e[1].time))
    n = len(ordered)
    for i in range(n):
        age_a, occ_a = ordered[i]
        for j in range(i + 1, n):
            age_b, occ_b = ordered[j]
            _emit_pair(age_a, occ_a, age_b, occ_b, facts, segment_of, reach)


def _emit_alias_deps(
    entries: List[Tuple[int, _Occurrence]],
    facts: DependenceFacts,
    segment_of: Dict[int, str],
    reach: Optional[Dict[str, Set[str]]],
) -> None:
    """May-dependences of unknown-address occurrences with everything."""
    ordered = sorted(entries, key=lambda e: (e[0], e[1].time))
    n = len(ordered)
    for i in range(n):
        age_a, occ_a = ordered[i]
        for j in range(i + 1, n):
            age_b, occ_b = ordered[j]
            if occ_a.addr is not None and occ_b.addr is not None:
                continue  # known pairs were handled by their group
            _emit_pair(age_a, occ_a, age_b, occ_b, facts, segment_of, reach)


def _conservative_dependences(
    region: Region, skip_vars: Set[str], facts: DependenceFacts
) -> None:
    """All-pairs fallback: every same-variable pair with a write aliases."""
    by_var: Dict[str, List[MemoryReference]] = {}
    for ref in region.references:
        if ref.variable not in skip_vars:
            by_var.setdefault(ref.variable, []).append(ref)
    multi_segment = (
        isinstance(region, LoopRegion) or len(region.segment_names()) > 1
    )
    for var, refs in by_var.items():
        writes = [r for r in refs if r.is_write]
        if not writes:
            continue
        facts.has_cross = facts.has_cross or multi_segment
        for ref in refs:
            facts.any_sink_uids.add(ref.uid)
            if multi_segment:
                facts.cross_sink_uids.add(ref.uid)
            if ref.is_read:
                facts.intra_flow_sources.setdefault(ref.uid, set()).update(
                    w.uid for w in writes if w.uid != ref.uid
                )


# ----------------------------------------------------------------------
# Determinism (re-implemented on the raw expression trees)
# ----------------------------------------------------------------------
def _ref_deterministic(
    ref: MemoryReference, region_index: Optional[str], read_only: Set[str]
) -> bool:
    allowed = {do.index for do in ref.enclosing_loops} | read_only
    if region_index is not None:
        allowed.add(region_index)
    for sub in ref.subscripts:
        for node in sub.walk():
            if isinstance(node, Index):
                return False
        for occ in sub.reads():
            if occ.name not in allowed:
                return False
    return True


# ----------------------------------------------------------------------
# Region-level rederivation
# ----------------------------------------------------------------------
@dataclass
class FactDiff:
    """One disagreement between production and checker facts."""

    kind: str  # mark | exposure | rfw | liveout | private | readonly | label
    key: str  # variable or reference uid
    production: str
    checker: str
    #: "production-aggressive" (production claims the stronger fact) or
    #: "production-conservative" (checker proves more than production).
    direction: str
    detail: str = ""

    def as_dict(self) -> Dict[str, str]:
        return {
            "kind": self.kind,
            "key": self.key,
            "production": self.production,
            "checker": self.checker,
            "direction": self.direction,
            "detail": self.detail,
        }


@dataclass
class RederivedFacts:
    """Checker-side facts of one region."""

    region: str
    #: enumeration was exhaustive (static comparison is high-confidence).
    exact: bool
    notes: List[str] = field(default_factory=list)
    read_only2: Set[str] = field(default_factory=set)
    live_out2: Set[str] = field(default_factory=set)
    private2: Set[str] = field(default_factory=set)
    marks2: Dict[str, Dict[str, NodeMark]] = field(default_factory=dict)
    exposed2: Dict[str, Set[str]] = field(default_factory=dict)
    rfw2_uids: Set[str] = field(default_factory=set)
    colors2: Dict[str, Dict[str, NodeColor]] = field(default_factory=dict)
    deps2: DependenceFacts = field(default_factory=DependenceFacts)
    fully_independent2: bool = False
    labels2: Dict[str, RefLabel] = field(default_factory=dict)
    categories2: Dict[str, IdempotencyCategory] = field(default_factory=dict)

    def idempotent2(self, uid: str) -> bool:
        return self.labels2.get(uid) is RefLabel.IDEMPOTENT


def _region_read_only(region: Region) -> Set[str]:
    written = {r.variable for r in region.references if r.is_write}
    read = {r.variable for r in region.references if r.is_read}
    return read - written


def rederive_live_out(program: Program) -> Dict[str, Set[str]]:
    """Backward liveness over the program's unit sequence."""
    live: Set[str] = set()
    result: Dict[str, Set[str]] = {}

    def body_gen_kill(
        body: Sequence[Statement], allowed: Set[str]
    ) -> Tuple[Set[str], Set[str]]:
        facts = analyze_segment_body(body, allowed)
        kills = {
            v
            for v in facts.must_written_vars | facts.written_vars
            if v in facts.scalar_only_writes and v in facts.must_written_vars
        }
        return set(facts.exposed_vars), kills

    if program.finale:
        gen, kill = body_gen_kill(program.finale, set())
        live = gen | (live - kill)

    for region in reversed(program.regions):
        result[region.name] = (
            set(region.live_out) if region.live_out is not None else set(live)
        )
        read_only = _region_read_only(region)
        if isinstance(region, LoopRegion):
            gen, kill = body_gen_kill(
                region.body, read_only | {region.index}
            )
            gen |= region.bound_variables
            trip = region.constant_trip_count()
            if trip is None or trip < 1:
                kill = set()
        else:
            assert isinstance(region, ExplicitRegion)
            gen = set()
            killed_so_far: Set[str] = set()
            per_seg: Dict[str, Tuple[Set[str], Set[str]]] = {}
            for name in region.segment_names():
                g, k = body_gen_kill(region.segment_body(name), read_only)
                seg = region.segment(name)
                if seg.branch is not None:
                    # The branch evaluates after the segment body, so a
                    # variable the body must-writes is covered, not
                    # upward-exposed, at the branch read.
                    g |= set(seg.branch.variables()) - k
                per_seg[name] = (g, k)
                gen |= g - killed_so_far
                killed_so_far |= k
            # A kill holds only when it happens on every path.
            kill = _must_killed_on_all_paths(region, per_seg)
        live = gen | (live - kill)
    return result


class _MustKill(DataflowProblem):
    direction = "forward"

    def __init__(self, kills: Dict[str, Set[str]]):
        self.kills = kills

    def boundary(self) -> FrozenSet[str]:
        return frozenset()

    def join(self, a: FrozenSet, b: FrozenSet) -> FrozenSet:
        return a & b

    def transfer(self, node: str, value: FrozenSet) -> FrozenSet:
        if node == EXIT_NODE:
            return value
        # A later exposed read re-exposes the variable only within the
        # region; for the region-level kill set a scalar overwrite on
        # every path is what matters.
        return value | frozenset(self.kills.get(node, set()))


def _must_killed_on_all_paths(
    region: ExplicitRegion, per_seg: Dict[str, Tuple[Set[str], Set[str]]]
) -> Set[str]:
    graph = SegmentGraph.from_region(region)
    problem = _MustKill(kills={name: k for name, (_, k) in per_seg.items()})
    sol = solve_dataflow(
        graph.nodes,
        graph.successors,
        graph.predecessors,
        problem,
        [graph.entry],
    )
    exit_in = sol.get(EXIT_NODE, (None, None))[0]
    return set(exit_in or frozenset())


class _Danger(DataflowProblem):
    """Algorithm-1 danger: can reach an exposed read through Nulls."""

    direction = "backward"

    def __init__(
        self,
        marks: Dict[str, NodeMark],
        blocks: Dict[str, bool],
        live_out: bool,
    ):
        self.marks = marks
        self.blocks = blocks
        self.live_out = live_out

    def boundary(self) -> bool:
        return self.live_out

    def join(self, a: bool, b: bool) -> bool:
        return a or b

    def transfer(self, node: str, value: bool) -> bool:
        if node == EXIT_NODE:
            return self.live_out
        if self.marks.get(node, NodeMark.NULL) is NodeMark.READ:
            return True
        if self.blocks.get(node, False):
            return False
        return value


def rederive_region(
    region: Region,
    program: Optional[Program] = None,
    live_out: Optional[Set[str]] = None,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
) -> RederivedFacts:
    """Re-derive every Algorithm 1 / 2 fact for ``region``."""
    read_only = _region_read_only(region)
    facts = RederivedFacts(region=region.name, exact=True, read_only2=read_only)

    # -- live-out (same precedence contract as label_region) ------------
    if live_out is not None:
        facts.live_out2 = set(live_out)
    elif region.live_out is not None:
        facts.live_out2 = set(region.live_out)
    elif program is not None:
        facts.live_out2 = rederive_live_out(program).get(region.name, set())
    else:
        facts.live_out2 = {r.variable for r in region.references if r.is_write}

    region_index = region.index if isinstance(region, LoopRegion) else None
    allowed = set(read_only)
    if region_index is not None:
        allowed.add(region_index)

    # -- per-segment CFG facts ------------------------------------------
    seg_facts: Dict[str, SegmentFacts] = {}
    for name in region.segment_names():
        sf = analyze_segment_body(region.segment_body(name), allowed)
        # Branch-condition reads execute after the body: they are reads
        # of the segment and can be exposed like any other.
        if isinstance(region, ExplicitRegion):
            seg = region.segment(name)
            if seg.branch is not None:
                exit_must = None
                sol_cfg = sf.cfg
                # Re-evaluate coverage of branch reads against the body's
                # exit must-set.
                problem = _MustWritten(allowed)
                sol = solve_dataflow(
                    sol_cfg.nodes,
                    sol_cfg.successors,
                    sol_cfg.predecessors,
                    problem,
                    [sol_cfg.entry],
                )
                exit_must = sol[sol_cfg.exit][0] or frozenset()
                for ref in seg.references or []:
                    if not ref.is_control or not ref.is_read:
                        continue
                    if ref.uid in sf.exposed_read_uids:
                        continue
                    sf.read_vars.add(ref.variable)
                    desc = _descriptor_of(ref.variable, ref.subscripts, allowed)
                    if desc is None or not _covered(desc, exit_must):
                        sf.exposed_read_uids.add(ref.uid)
                        sf.exposed_vars.add(ref.variable)
                sf.must_written_vars -= sf.exposed_vars
        seg_facts[name] = sf
        facts.exposed2[name] = set(sf.exposed_read_uids)

    # -- node marks ------------------------------------------------------
    variables = {r.variable for r in region.references}
    for var in variables:
        per_seg: Dict[str, NodeMark] = {}
        for name, sf in seg_facts.items():
            if var in sf.exposed_vars:
                per_seg[name] = NodeMark.READ
            elif var in sf.uncond_write_vars:
                # Algorithm 1 marks the locations the segment *touches*:
                # an unguarded must-executed write with no exposed read
                # is a Write mark even when it does not cover the whole
                # variable (coverage is the exposure analysis' job).
                per_seg[name] = NodeMark.WRITE
            else:
                per_seg[name] = NodeMark.NULL
        facts.marks2[var] = per_seg

    # -- privatization ---------------------------------------------------
    written = {r.variable for r in region.references if r.is_write}
    exposed_anywhere = set()
    for sf in seg_facts.values():
        exposed_anywhere |= sf.exposed_vars
    facts.private2 = {
        v
        for v in written
        if v not in exposed_anywhere and v not in facts.live_out2
    }

    # -- RFW -------------------------------------------------------------
    # Determinism is judged on the *writes* of the segment at hand: a
    # non-deterministic write elsewhere in the region must not withhold
    # RFW from a deterministic one (production labels per reference).
    def _writes_det(writes: List[MemoryReference]) -> bool:
        return all(
            _ref_deterministic(w, region_index, read_only) for w in writes
        )

    # Definition 5 is per element: a guarded write re-occurs only when an
    # unconditional write of the segment stores the same element (same
    # subscripts, same enclosing loops) on every re-execution.
    def _rewritten(w: MemoryReference, writes: List[MemoryReference]) -> bool:
        return not w.conditional or any(
            not u.conditional
            and u.subscripts == w.subscripts
            and u.enclosing_loops == w.enclosing_loops
            for u in writes
        )

    if isinstance(region, LoopRegion):
        for var in variables:
            mark = facts.marks2[var][LOOP_BODY_SEGMENT]
            writes = [
                r for r in region.references_of(var) if r.is_write
            ]
            det = _writes_det(writes)
            color = NodeColor.WHITE
            if writes and not (mark is NodeMark.WRITE and det):
                color = NodeColor.BLACK
            facts.colors2.setdefault(var, {})[LOOP_BODY_SEGMENT] = color
            if writes and mark is NodeMark.WRITE and det:
                facts.rfw2_uids.update(
                    w.uid for w in writes if _rewritten(w, writes)
                )
    else:
        assert isinstance(region, ExplicitRegion)
        graph = SegmentGraph.from_region(region)
        for var in sorted(variables):
            marks = {s: facts.marks2[var][s] for s in region.segment_names()}
            blocks = {
                s: (
                    marks[s] is NodeMark.WRITE
                    and var in seg_facts[s].scalar_only_writes
                    and var in seg_facts[s].written_vars
                )
                for s in region.segment_names()
            }
            danger_problem = _Danger(marks, blocks, var in facts.live_out2)
            sol = solve_dataflow(
                graph.nodes,
                graph.successors,
                graph.predecessors,
                danger_problem,
                [EXIT_NODE],
            )
            danger = {
                node: bool(sol[node][1]) for node in graph.nodes
            }
            colors = {s: NodeColor.WHITE for s in region.segment_names()}
            for node in graph.breadth_first():
                if node == EXIT_NODE:
                    continue
                if colors.get(node) is not NodeColor.WHITE:
                    continue
                if any(danger[s] for s in graph.successors(node)):
                    for desc_node in graph.descendants(node):
                        if desc_node != EXIT_NODE:
                            colors[desc_node] = NodeColor.BLACK
            facts.colors2[var] = colors
            for name in region.segment_names():
                writes = [
                    r
                    for r in region.segment_references(name)
                    if r.variable == var and r.is_write
                ]
                if (
                    writes
                    and colors[name] is NodeColor.WHITE
                    and marks[name] is NodeMark.WRITE
                    and _writes_det(writes)
                ):
                    facts.rfw2_uids.update(
                        w.uid for w in writes if _rewritten(w, writes)
                    )

    # -- dependences -----------------------------------------------------
    skip = read_only | facts.private2
    facts.deps2 = _derive_dependences(region, skip, enum_budget)
    facts.exact = facts.deps2.exact
    if not facts.deps2.exact:
        facts.notes.append(
            "address enumeration exceeded budget or hit symbolic bounds; "
            "dependences fell back to all-pairs (checker-conservative)"
        )

    # -- control dependences --------------------------------------------
    control_dep2 = False
    if isinstance(region, ExplicitRegion):
        edges = region.segment_edges()
        for name in region.segment_names():
            succs = edges.get(name, [])
            if len(succs) > 1:
                control_dep2 = True
                break

    # -- Algorithm 2 -----------------------------------------------------
    facts.fully_independent2 = not facts.deps2.has_cross and not control_dep2
    labels: Dict[str, RefLabel] = {
        r.uid: RefLabel.SPECULATIVE for r in region.references
    }
    cats: Dict[str, IdempotencyCategory] = {
        r.uid: IdempotencyCategory.NOT_IDEMPOTENT for r in region.references
    }

    def mark_idem(ref: MemoryReference, cat: IdempotencyCategory) -> None:
        labels[ref.uid] = RefLabel.IDEMPOTENT
        cats[ref.uid] = cat

    if facts.fully_independent2:
        for ref in region.references:
            if ref.variable in read_only:
                mark_idem(ref, IdempotencyCategory.READ_ONLY)
            elif ref.variable in facts.private2:
                mark_idem(ref, IdempotencyCategory.PRIVATE)
            else:
                mark_idem(ref, IdempotencyCategory.FULLY_INDEPENDENT)
    else:
        for ref in region.references:
            if ref.variable in read_only:
                mark_idem(ref, IdempotencyCategory.READ_ONLY)
            elif ref.variable in facts.private2:
                mark_idem(ref, IdempotencyCategory.PRIVATE)
        for ref in region.references:
            if not ref.is_write or labels[ref.uid] is RefLabel.IDEMPOTENT:
                continue
            if (
                ref.uid in facts.rfw2_uids
                and ref.uid not in facts.deps2.cross_sink_uids
            ):
                mark_idem(ref, IdempotencyCategory.SHARED_DEPENDENT)
        for ref in region.references:
            if not ref.is_read or labels[ref.uid] is RefLabel.IDEMPOTENT:
                continue
            if ref.uid not in facts.deps2.any_sink_uids:
                mark_idem(ref, IdempotencyCategory.SHARED_DEPENDENT)
                continue
            if ref.uid in facts.deps2.cross_sink_uids:
                continue
            sources = facts.deps2.intra_flow_sources.get(ref.uid)
            if sources and all(
                labels.get(src) is RefLabel.IDEMPOTENT for src in sources
            ):
                # Every dependence into the read is intra-segment flow
                # from an idempotent write (Theorem 2 / Lemma 6) -- but
                # only when flow deps are the *only* deps it sinks.
                if _only_intra_flow_sinks(ref, facts.deps2):
                    mark_idem(ref, IdempotencyCategory.SHARED_DEPENDENT)

    facts.labels2 = labels
    facts.categories2 = cats
    return facts


def _only_intra_flow_sinks(ref: MemoryReference, deps: DependenceFacts) -> bool:
    """Reads only sink flow deps; any recorded sink is a flow source."""
    return ref.uid in deps.intra_flow_sources


# ----------------------------------------------------------------------
# Comparison with the production facts
# ----------------------------------------------------------------------
def compare_region(
    labeling: LabelingResult, facts: RederivedFacts
) -> List[FactDiff]:
    """Classified disagreements between production and checker facts."""
    diffs: List[FactDiff] = []
    region = labeling.region

    def add(
        kind: str,
        key: str,
        prod: object,
        chk: object,
        direction: str,
        detail: str = "",
    ) -> None:
        diffs.append(
            FactDiff(
                kind=kind,
                key=key,
                production=str(prod),
                checker=str(chk),
                direction=direction,
                detail=detail,
            )
        )

    # Marks.
    for var, per_seg in facts.marks2.items():
        for segment, mark2 in per_seg.items():
            mark1 = labeling.rfw.mark_of(var, segment)
            if mark1 is mark2:
                continue
            if mark1 is NodeMark.WRITE and mark2 is NodeMark.READ:
                direction = "production-aggressive"
            elif mark1 is NodeMark.READ and mark2 is NodeMark.WRITE:
                direction = "production-conservative"
            elif mark2 is NodeMark.READ:
                direction = "production-aggressive"
            else:
                direction = "production-conservative"
            add(
                "mark",
                f"{var}@{segment}",
                mark1.name,
                mark2.name,
                direction,
            )

    # Exposure (per read reference).
    prod_exposed: Set[str] = set()
    for summary in labeling.summaries.values():
        for info in summary.variables.values():
            prod_exposed.update(r.uid for r in info.exposed_reads)
    chk_exposed: Set[str] = set()
    for uids in facts.exposed2.values():
        chk_exposed |= uids
    for uid in sorted(chk_exposed - prod_exposed):
        add("exposure", uid, "covered", "exposed", "production-aggressive")
    for uid in sorted(prod_exposed - chk_exposed):
        add("exposure", uid, "exposed", "covered", "production-conservative")

    # RFW.
    for uid in sorted(labeling.rfw.rfw_write_uids - facts.rfw2_uids):
        add("rfw", uid, "rfw", "not-rfw", "production-aggressive")
    for uid in sorted(facts.rfw2_uids - labeling.rfw.rfw_write_uids):
        add("rfw", uid, "not-rfw", "rfw", "production-conservative")

    # Live-out / privatization / read-only.
    for var in sorted(facts.live_out2 - labeling.live_out):
        add("liveout", var, "dead", "live", "production-aggressive")
    for var in sorted(labeling.live_out - facts.live_out2):
        add("liveout", var, "live", "dead", "production-conservative")
    for var in sorted(labeling.private_vars - facts.private2):
        add("private", var, "private", "shared", "production-aggressive")
    for var in sorted(facts.private2 - labeling.private_vars):
        add("private", var, "shared", "private", "production-conservative")
    for var in sorted(labeling.read_only_vars ^ facts.read_only2):
        add(
            "readonly",
            var,
            str(var in labeling.read_only_vars),
            str(var in facts.read_only2),
            "production-aggressive"
            if var in labeling.read_only_vars
            else "production-conservative",
        )

    # Labels (the fact the engines consume).
    for ref in region.references:
        prod_idem = labeling.is_idempotent(ref)
        chk_idem = facts.idempotent2(ref.uid)
        if prod_idem == chk_idem:
            continue
        if prod_idem and not chk_idem:
            add(
                "label",
                ref.uid,
                "idempotent",
                "speculative",
                "production-aggressive",
                detail=ref.describe(),
            )
        else:
            add(
                "label",
                ref.uid,
                "speculative",
                "idempotent",
                "production-conservative",
                detail=ref.describe(),
            )
    return diffs
