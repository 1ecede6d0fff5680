"""Batched speculative replay: whole-segment attempts as compiled programs.

The speculative engines of :mod:`repro.runtime.engines` have one segment
lifecycle -- dispatch in age order, squash-restart on a violation, stall
on overflow, drain the oldest, commit in age order -- and two *attempt
executors*.  The op-stepped one (``SpeculativeEngine._step``) resumes a
coroutine once per simulated operation, which is faithful but costs a
resume, a type dispatch and several dict operations per operation.
This module is the other: for the loop regions the trace machinery of
:mod:`repro.runtime.trace` can capture, a whole attempt is a known
straight-line slot program, and :class:`_BatchScheduler` runs it in
one go:

1. **Run** the attempt against segment-local read/write/private logs
   (the ``*log`` fields of the engine's task), with no store
   interaction: a speculative read serves from the attempt's own write
   log, then from the nearest-older in-flight attempt's write log (the
   forwarding contract), then from memory; a direct (idempotent) read
   sees memory plus the attempt's own direct writes; private
   references use the private frame.  Affine subscripts are flattened
   once per program to column-major ``base + coeff * iv`` offsets,
   evaluated for the whole attempt in one list comprehension; other
   subscripts use the trace's slot programs.
2. **Validate post-hoc**: the exposed reads and buffered writes are
   bulk-installed into the attempt's :class:`SegmentBuffer` (so
   forwarding sources stay nearest-older and violations are still
   detected by age), and at commit time every externally-served read
   value is compared against committed memory.  The attempt is a
   deterministic function of those values, so equality proves it
   bit-identical to a sequential re-execution at that point.
3. **Resolve the head**: a valid head commits through the engine.  A
   stale one is squash-restarted.  A head whose transfer overflowed
   drains through the engine (``_unstall_oldest``) when its logs still
   validate; otherwise it re-executes in write-through mode, op by op,
   through the engine's own ``_step``.

Dispatch, restart budget, stall, drain, watchdog, audit and commit are
the engine's; this module keeps only what is specific to batching
(running, transferring and validating attempts, and the
sweep/commit-phase loop).

**Compiled attempts.**  Each step of the recorded schedule (a control
read or an assignment) has a *shape*: the address mode, route and
serve of every read and of the target, and the statement's arithmetic
with its constants taken out.  :func:`build_batch_program` generates
one specialized Python function per distinct shape (the arithmetic
inlined from :func:`repro.runtime.trace.arith_source`, the text the
replay lambdas are made of, its constants read from the step's
payload); the attempt is one loop over runs of consecutive steps of
one shape.  The generated code grows with the number of shapes, never
with the trace length.

**Promotion.**  A variable whose every access in the attempt is at a
fixed address, or every one at an affine address with one flattened
coefficient (no gather or computed subscript, no control read), has
no two distinct canonical addresses that alias.  For such variables
the build walks the schedule once and resolves what the attempt's logs
hold at each access, so the generated code skips what the trace
already decides:

* a read of an element the attempt already wrote or read is a
  register load (``rg[slot]``), its ``ss``/``ph`` count a build-time
  constant (a repeat of a forwarded serve is counted with that serve);
* a first touch skips the own-log lookups it cannot hit;
* the first write of an element into ``wlog``/``swlog``/``dwlog``/
  ``plog`` inserts (keeping log order) and the last stores the final
  value; writes between them only fill a register, and only when a
  later read loads it.

A direct or private read keeps the memory value it found in a
register too: committed memory cannot change during an attempt.
Every other access runs the log chain of step 1.

**The batch-program memo.**  A compiled :class:`BatchProgram` is kept
with its :class:`LoopRegion` (held weakly: when the program is dropped,
e.g. evicted by the daemon's interner, its batch programs go with it),
one per route map.  It compiles the region's one trace
(:func:`repro.runtime.trace.region_trace`, which re-records when a
recorded control read no longer holds) and is reused only while that
trace and the symbol table are the ones it was built from.

Timing is priced in bulk through
:meth:`repro.timing.cost.CostModel.batch_price`, one
:meth:`repro.timing.events.TimingRecorder.batched` event per attempt.

Batching is opt-in (``batch=True`` on the engines; the daemon's
default; ``repro.bench``'s throughput row and ``--verify-engines``).
An attempt never violates or overflows partway through, so the
dynamics are optimistic and the bench scenarios stay op-stepped.
Regions the trace cannot capture (input-dependent control flow,
oversized traces, non-integral or out-of-bounds affine templates),
runs with a fault injector (also one a faulty store brings), and
explicit regions use the op-stepped executor.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.obs.tracer import _NULL_SPAN
from repro.ir.region import LoopRegion
from repro.ir.symbols import SymbolError
from repro.runtime.engines import (
    ROUTE_DIRECT,
    ROUTE_PRIVATE,
    ROUTE_SPECULATIVE,
    _SegmentTask,
)
from repro.runtime.errors import AddressError, SimulationError
from repro.runtime.executor import ReadOp
from repro.runtime.memory import MemoryImage
from repro.runtime.stats import ExecutionStats
from repro.runtime.trace import (
    ARITH_GLOBALS,
    EV_COMPUTE,
    EV_CTRL_READ,
    SegmentTrace,
    _program_subs,
    arith_source,
    replay_segment,
)

#: Serving-route codes (dense ints for the build-time dispatch; the
#: string constants live in :mod:`repro.runtime.engines`).
R_SPEC = 0
R_DIRECT = 1
R_PRIVATE = 2

#: Address modes of a compiled read or target.  A step's shape holds
#: ``(mode, route_code, extra)`` per item; its payload holds, per item:
M_FIXED = 0    # the Address, resolved at build time
M_AFFINE = 1   # an index into the attempt's affine address list
M_PROGRAM = 2  # name, dims: slot-program subscripts (``_program_subs``)
M_GATHER = 3   # name; ``extra`` is the slot holding the one subscript


class _BuildError(Exception):
    """Internal: the trace cannot be compiled to a batch program."""


def _route_codes_for(routes: Dict[str, str]):
    """Mapping closure uid -> dense route code (absent = speculative)."""

    def code(ref) -> int:
        if ref is None:
            return R_SPEC
        route = routes.get(ref.uid)
        if route == ROUTE_DIRECT:
            return R_DIRECT
        if route == ROUTE_PRIVATE:
            return R_PRIVATE
        return R_SPEC

    return code


# ----------------------------------------------------------------------
# shape code generation
# ----------------------------------------------------------------------
# One read serve per route, into ``{v}`` from the address in ``a``:
# the three-route discipline of the module docstring (``fwd`` merges
# the write logs of the older executed attempts, the nearest older
# value winning).  ``ss`` counts reads served from speculative storage
# (own speculative write, repeat of a forwarded read, or a fresh
# forward); ``ph`` private-frame hits.
_LOAD = {
    R_SPEC: """\
{v} = wlog.get(a)
if {v} is not None:
    if a in swlog:
        ss += 1
else:
    c = rlog.get(a)
    if c is not None:
        {v} = c[0]
        if c[1]:
            ss += 1
    else:
        {v} = fwd.get(a)
        if {v} is not None:
            ss += 1
            rlog[a] = ({v}, True)
        else:
            {v} = mget(a)
            if {v} is None:
                {v} = init[a[0]]
            rlog[a] = ({v}, False)
""",
    R_DIRECT: """\
{v} = dwlog.get(a)
if {v} is None:
    {v} = mget(a)
    if {v} is None:
        {v} = init[a[0]]
""",
    R_PRIVATE: """\
{v} = plog.get(a)
if {v} is not None:
    ph += 1
else:
    {v} = mget(a)
    if {v} is None:
        {v} = init[a[0]]
""",
}
_STORE = {
    R_SPEC: "wlog[a] = r\nswlog[a] = None\n",
    R_DIRECT: "wlog[a] = r\ndwlog[a] = r\n",
    R_PRIVATE: "plog[a] = r\n",
}


#: First touch of a promoted element: the attempt's own logs cannot
#: hold it yet, so a speculative read goes straight to the forwarded
#: writes and then memory, and a direct or private read to memory.  A
#: forwarded serve counts once for itself and once for every register
#: read that repeats it (``ss += p[k]``, a build-time count).
_FIRST = {
    R_SPEC: """\
{v} = fwd.get(a)
if {v} is not None:
    ss += p[{k}]
    rlog[a] = ({v}, True)
else:
    {v} = mget(a)
    if {v} is None:
        {v} = init[a[0]]
    rlog[a] = ({v}, False)
""",
    R_DIRECT: """\
{v} = mget(a)
if {v} is None:
    {v} = init[a[0]]
""",
}
_FIRST[R_PRIVATE] = _FIRST[R_DIRECT]
#: Store lines of a promoted write, by log.
_SET = {
    "wlog": "wlog[a] = r\n",
    "swlog": "swlog[a] = None\n",
    "dwlog": "dwlog[a] = r\n",
    "plog": "plog[a] = r\n",
}


def _values_tuple(n: int) -> str:
    """Source of the tuple of the first ``n`` read values."""
    if n == 1:
        return "(v0,)"
    return "(" + ", ".join(f"v{k}" for k in range(n)) + ")"


def _address_source(mode: int, extra, at: int, n_values: int) -> Tuple[str, int]:
    """Source computing ``a`` for one item whose payload starts at
    ``p[at]``; returns the source and the payload width."""
    if mode == M_FIXED:
        return f"a = p[{at}]\n", 1
    if mode == M_AFFINE:
        return f"a = aa[p[{at}]]\n", 1
    if mode == M_GATHER:
        subs, width = f"(int(round(v{extra})),)", 1
    else:
        subs = f"_program_subs(p[{at + 1}], {_values_tuple(n_values)}, iv, env)"
        width = 2
    return (
        "try:\n"
        f"    a = address_of(p[{at}], {subs})\n"
        "except (SymbolError, OverflowError, ValueError) as exc:\n"
        "    raise AddressError(str(exc)) from exc\n"
    ), width


def _read_source(item: Tuple, at: int, n: int) -> Tuple[str, int]:
    """Source serving read ``v{n}`` of one item whose payload starts at
    ``p[at]``; returns the source and the payload width.

    Items: ``(mode, route, extra)`` runs the log chain; ``("reg",
    counter)`` loads register ``p[at]`` (bumping ``ss``/``ph`` when
    ``counter`` names one); ``("first", mode, route, keep)`` is a first
    touch, its payload the address, then (speculative) the serve count,
    then (``keep``) the register the value is kept in.
    """
    v = f"v{n}"
    if item[0] == "reg":
        counter = item[1]
        return f"{v} = rg[p[{at}]]\n" + (f"{counter} += 1\n" if counter else ""), 1
    if item[0] == "first":
        _, mode, code, keep = item
        source, width = _address_source(mode, None, at, n)
        source += _FIRST[code].format(v=v, k=at + width)
        width += code == R_SPEC
        if keep:
            source += f"rg[p[{at + width}]] = {v}\n"
            width += 1
        return source, width
    mode, code, extra = item
    source, width = _address_source(mode, extra, at, n)
    return source + _LOAD[code].format(v=v), width


def _write_source(item: Tuple, at: int, n: int) -> str:
    """Source storing ``r`` for the target item at ``p[at]``.

    ``(mode, route, extra)`` stores through the log chain; ``("set",
    mode, logs, n_regs)`` stores into the named logs only (a promoted
    element's first and last writes) and into ``n_regs`` registers.
    """
    if item[0] != "set":
        mode, code, extra = item
        source, _ = _address_source(mode, extra, at, n)
        return source + "r = float(r)\n" + _STORE[code]
    _, mode, logs, n_regs = item
    source = "r = float(r)\n"
    if logs:
        address, width = _address_source(mode, None, at, n)
        source += address + "".join(_SET[log] for log in logs)
        at += width
    return source + "".join(f"rg[p[{at + j}]] = r\n" for j in range(n_regs))


def _step_source(shape: Tuple) -> str:
    """Source running one step of step shape ``shape`` on payload ``p``.

    Control read: ``("ctrl", route)``, payload ``(addr, expected,
    variable)``.  Assignment: ``("assign", rhs_items, arith,
    target_read_items, target_item)`` (items as in :func:`_read_source`
    and :func:`_write_source`); the payload is ``(env, <rhs item
    entries>, <arith entries>, <target-read item entries>, <target
    entries>)``.  ``arith`` is ``(text, n_consts)``: the inlined
    expression of :func:`repro.runtime.trace.arith_source` (which never
    raises), its ``n_consts`` constants read from the payload.
    """
    body = ""
    if shape[0] == "ctrl":
        body += "a = p[0]\n" + _LOAD[shape[1]].format(v="v")
        # NaN equals NaN, as everywhere values are compared.
        body += (
            "if v != p[1] and (v == v or p[1] == p[1]):\n"
            "    _diverged(region, p[2], v, p[1])\n"
        )
    else:
        _, rhs_items, (text, n_consts), target_reads, target = shape
        at = 1
        n = 0
        for item in rhs_items:
            source, width = _read_source(item, at, n)
            body += source
            at += width
            n += 1
        at += n_consts
        body += f"r = {text}\n"
        for item in target_reads:
            source, width = _read_source(item, at, n)
            body += source
            at += width
            n += 1
        body += _write_source(target, at, n)
        if "env" in body:  # inner indices and computed subscripts
            body = "env = p[0]\n" + body
    return body


def _shape_source(name: str, shape: Tuple[Tuple, ...]) -> str:
    """One specialized function ``name(ps)`` running a run of repeats of
    ``shape``, a sequence of step shapes: one entry of ``ps`` per
    repeat, the payload itself for a one-step shape, else a tuple of
    one payload per step."""
    if len(shape) == 1:
        head = "    for p in ps:\n"
        body = _step_source(shape[0])
    else:
        names = [f"q{j}" for j in range(len(shape))]
        head = f"    for {', '.join(names)} in ps:\n"
        body = "".join(
            f"p = {q}\n" + _step_source(step) for q, step in zip(names, shape)
        )
    counters = [c for c in ("ss", "ph") if f"{c} += " in body]
    source = f"def {name}(ps):\n"
    if counters:
        source += f"    nonlocal {', '.join('n' + c for c in counters)}\n"
        source += "".join(f"    {c} = 0\n" for c in counters)
    source += head + "".join(
        "        " + line + "\n" for line in body.splitlines()
    )
    source += "".join(f"    n{c} += {c}\n" for c in counters)
    return source


#: Longest sequence of step shapes one generated function repeats (an
#: unrolled inner-loop body of up to this many steps runs as one call
#: per iteration).
MAX_SHAPE_STEPS = 8


def _runs_of(steps: List[Tuple[Tuple, Tuple]]):
    """Cover the ``(step shape, payload)`` schedule with runs of
    repeated shapes, greedily: at each point the shape of at most
    :data:`MAX_SHAPE_STEPS` steps whose consecutive repeats cover the
    most steps (the shortest on a tie).  Yields ``(shape, entries)``."""
    ids: Dict[Tuple, int] = {}
    seq = [ids.setdefault(shape, len(ids)) for shape, _ in steps]
    n = len(seq)
    i = 0
    while i < n:
        width = reps = 1
        while i + reps < n and seq[i + reps] == seq[i]:
            reps += 1
        for w in range(2, MAX_SHAPE_STEPS + 1):
            if i + 2 * w > n:
                break
            word = seq[i:i + w]
            k = 1
            while seq[i + k * w:i + (k + 1) * w] == word:
                k += 1
            if k > 1 and w * k > width * reps:
                width, reps = w, k
        shape = tuple(steps[i + j][0] for j in range(width))
        if width == 1:
            entries = [steps[i + r][1] for r in range(reps)]
        else:
            entries = [
                tuple(steps[i + r * width + j][1] for j in range(width))
                for r in range(reps)
            ]
        yield shape, entries
        i += width * reps


def _diverged(region: str, variable: str, got: float, expected: float):
    raise SimulationError(
        f"trace replay divergence in region {region!r}: control read "
        f"{variable!r} returned {got!r}, recorded {expected!r}"
    )


def _compile_attempt(region: str, shapes: List[Tuple], address_of, n_regs: int):
    """The attempt function of one program: a nested function per
    shape, then one loop over the ``(shape index, payloads)`` runs.

    ``attempt(runs, aa, iv, wlog, swlog, dwlog, rlog, plog, fwd,
    mget, init)`` returns ``(n_spec_spec, n_priv_hit)``; its registers
    are a list of ``n_regs`` values, fresh per attempt.
    """
    names = [f"s{k}" for k in range(len(shapes))]
    source = (
        "def attempt(runs, aa, iv, wlog, swlog, dwlog, rlog, plog, "
        "fwd, mget, init):\n"
        "    nss = 0\n"
        "    nph = 0\n"
    )
    if n_regs:
        source += f"    rg = [None] * {n_regs}\n"
    for name, shape in zip(names, shapes):
        source += "".join(
            "    " + line + "\n"
            for line in _shape_source(name, shape).splitlines()
        )
    source += (
        f"    fns = ({''.join(n + ', ' for n in names)})\n"
        "    for k, ps in runs:\n"
        "        fns[k](ps)\n"
        "    return nss, nph\n"
    )
    namespace = {
        **ARITH_GLOBALS,
        "address_of": address_of,
        "region": region,
        "_program_subs": _program_subs,
        "_diverged": _diverged,
        "SymbolError": SymbolError,
        "AddressError": AddressError,
    }
    exec(compile(source, f"<batch attempt {region}>", "exec"), namespace)
    # Taken out of its own globals, so the function is freed by refcount.
    return namespace.pop("attempt")


# ----------------------------------------------------------------------
# the compiled program
# ----------------------------------------------------------------------
class BatchProgram:
    """One region's recorded schedule compiled to an attempt function."""

    __slots__ = (
        "region",
        "trace",
        "symbols",
        "shapes",
        "runs",
        "n_steps",
        "attempt",
        "var_names",
        "aff_names",
        "aff_base",
        "aff_coeff",
        "iv_range",
        "n_reads",
        "n_writes",
        "reads_by_route",
        "writes_by_route",
        "compute_cycles",
        "ref_counts",
        "batched_ops",
        "promoted",
        "__weakref__",
    )

    def __init__(self, region: str, trace: SegmentTrace, symbols):
        self.region = region
        self.trace = trace
        self.symbols = symbols
        #: Distinct shapes (sequences of step shapes); ``runs`` covers
        #: the schedule with runs of repeats of one shape as (shape
        #: index, entries), see :func:`_runs_of`.
        self.shapes: List[Tuple] = []
        self.runs: List[Tuple[int, List[Tuple]]] = []
        self.n_steps = 0
        self.attempt = None
        #: Every variable an attempt can touch (initial-value map keys).
        self.var_names: set = set()
        self.aff_names: List[str] = []
        self.aff_base: List[int] = []
        self.aff_coeff: List[int] = []
        #: Region-index values keeping every affine subscript in
        #: bounds, as an inclusive ``[low, high]`` (``high < low`` when
        #: no value does); ``None`` means unbounded.
        self.iv_range: Tuple[Optional[int], Optional[int]] = (None, None)
        self.n_reads = 0
        self.n_writes = 0
        self.reads_by_route = [0, 0, 0]
        self.writes_by_route = [0, 0, 0]
        #: Sum of executor-level compute cycles per attempt (control
        #: computes plus each assignment's cost op).
        self.compute_cycles = 0
        self.ref_counts: Dict[str, int] = {}
        #: Operations per attempt: compute ops counted by the build,
        #: reads and writes added by :meth:`finalize`.
        self.batched_ops = 0
        #: Variables whose log state the build resolved (register
        #: reads, elided stores); see the module docstring.
        self.promoted: FrozenSet[str] = frozenset()

    # ------------------------------------------------------------------
    def finalize(self, n_regs: int) -> None:
        self.batched_ops += self.n_reads + self.n_writes
        self.attempt = _compile_attempt(
            self.region, self.shapes, self.symbols.address_of, n_regs
        )

    def bound_dimension(self, base: int, coeff: int, extent: int) -> None:
        """Narrow :attr:`iv_range` to the ``iv`` values for which
        ``1 <= base + coeff * iv <= extent``."""
        if coeff == 0:
            if 1 <= base <= extent:
                return
            low, high = 1, 0
        elif coeff > 0:
            low, high = -((base - 1) // coeff), (extent - base) // coeff
        else:
            low, high = -((base - extent) // coeff), (1 - base) // coeff
        old_low, old_high = self.iv_range
        self.iv_range = (
            low if old_low is None else max(low, old_low),
            high if old_high is None else min(high, old_high),
        )

    def bounds_ok(self, first_iv: int, last_iv: int) -> bool:
        """True when every affine subscript stays in bounds for the
        whole iteration range (each dimension is monotonic in ``iv``,
        so the range's two ends suffice)."""
        low, high = self.iv_range
        return (low is None or low <= min(first_iv, last_iv)) and (
            high is None or max(first_iv, last_iv) <= high
        )

    def affine_addresses(self, iv: int) -> List[Tuple[str, int]]:
        """The address of every affine item at region index ``iv``."""
        return [
            (name, base + coeff * iv)
            for name, base, coeff in zip(
                self.aff_names, self.aff_base, self.aff_coeff
            )
        ]


class _Register:
    """One value the attempt keeps in a register (``rg[slot]``); the
    slot is given by the first read that loads it, so a value nothing
    reads is never stored."""

    __slots__ = ("slot",)

    def __init__(self):
        self.slot: Optional[int] = None


class _Access:
    """One read or write of an assign step while its program is built."""

    __slots__ = (
        "mode", "code", "extra", "entries", "element",
        "serve", "register", "count", "logs", "registers",
    )

    def __init__(self, mode: int, code: int, extra, entries: Tuple, element):
        self.mode = mode
        self.code = code
        self.extra = extra
        #: Payload entries of the address.
        self.entries = entries
        #: ``(variable, flattened offset)`` of a fixed or affine address
        #: (the affine base); None for a value-dependent one.
        self.element = element
        #: Read: None (the log chain), ``("reg", counter)`` or "first".
        self.serve = None
        #: A register read's source, or the register a first touch
        #: fills; a write's registers are in ``registers``.
        self.register: Optional[_Register] = None
        #: Forwarded-serve count of a speculative first touch.
        self.count = 1
        #: Write: the logs it stores into (None: the log chain).
        self.logs: Optional[set] = None
        self.registers: List[_Register] = []


#: The logs a write of each route updates (``swlog`` holds no values).
_WRITE_LOGS = {
    R_SPEC: ("wlog", "swlog"),
    R_DIRECT: ("wlog", "dwlog"),
    R_PRIVATE: ("plog",),
}
#: The log a read of each route checks first (after it: memory).
_READ_LOG = {R_SPEC: "wlog", R_DIRECT: "dwlog", R_PRIVATE: "plog"}


def _promote(steps: List[Tuple], promoted: FrozenSet[str]) -> int:
    """The promotion pass: resolve at build time what the attempt's
    logs hold for every element of a ``promoted`` variable (see the
    module docstring) and annotate its accesses; returns the register
    count.

    Per element, ``held`` maps a log to the register of the value the
    attempt last put there (``mem`` is the memory value a direct or
    private read found, ``rlog`` the first speculative serve, ``swlog``
    only marks a speculative write, ``first`` is the first speculative
    touch, whose serve count each register read repeating it adds to),
    and ``last`` the write that leaves a log's final value.
    """
    held: Dict[Tuple, Dict[str, object]] = {}
    last: Dict[Tuple, _Access] = {}
    slots = 0
    for step in steps:
        if step[0] != "assign":
            continue
        _, _, rhs, _, target_reads, target = step
        for acc in rhs + target_reads:
            element = acc.element
            if element is None or element[0] not in promoted:
                continue
            logs = held.setdefault(element, {})
            code = acc.code
            source = logs.get(_READ_LOG[code])
            counter = ""
            if source is not None:
                if code == R_SPEC and "swlog" in logs:
                    counter = "ss"
                elif code == R_PRIVATE:
                    counter = "ph"
            elif code == R_SPEC:
                source = logs.get("rlog")
                if source is not None:
                    logs["first"].count += 1
            else:
                source = logs.get("mem")
            if source is not None:
                if source.slot is None:
                    source.slot = slots
                    slots += 1
                acc.serve = ("reg", counter)
                acc.register = source
            else:
                acc.serve = "first"
                acc.register = logs["rlog" if code == R_SPEC else "mem"] = _Register()
                if code == R_SPEC:
                    logs["first"] = acc
        acc = target
        element = acc.element
        if element is None or element[0] not in promoted:
            continue
        logs = held.setdefault(element, {})
        acc.logs = set()
        for log in _WRITE_LOGS[acc.code]:
            if log not in logs:
                acc.logs.add(log)  # the first write inserts: log order
            if log == "swlog":
                logs[log] = True
                continue
            logs[log] = register = _Register()
            acc.registers.append(register)
            last[element, log] = acc
    for (_, log), acc in last.items():
        acc.logs.add(log)  # the last write leaves the final value
    return slots


def _arith_template(program) -> Tuple[str, Tuple]:
    """The inlined form of an arithmetic program: its text with the
    k-th constant as ``{k}``, and the constants."""
    consts: List = []

    def const(value) -> str:
        consts.append(value)
        return "{%d}" % (len(consts) - 1)

    return arith_source(program, "v{}".format, const), tuple(consts)


def build_batch_program(
    region: LoopRegion,
    trace: SegmentTrace,
    routes: Dict[str, str],
    symbols,
) -> BatchProgram:
    """Compile a recorded trace into shape-specialized attempt code.

    Raises :class:`_BuildError` when the trace uses something the
    compiled attempt cannot reproduce exactly (the caller falls back to
    the op-interleaved scheduler, which reproduces any failure mode of
    the original program verbatim).
    """
    bp = BatchProgram(region.name, trace, symbols)
    runs = bp.runs
    address_of = symbols.address_of
    route_code = _route_codes_for(routes)
    ref_counts = bp.ref_counts
    reads_by_route = bp.reads_by_route
    writes_by_route = bp.writes_by_route
    var_names = bp.var_names
    #: (step shape, payload) of every step, in schedule order.
    schedule: List[Tuple[Tuple, Tuple]] = []
    #: Variable -> how every access addresses it: ("fixed",),
    #: ("affine", flattened coefficient), or None (no promotion).
    addressing: Dict[str, Optional[Tuple]] = {}
    steps: List[Tuple] = []

    def note(name: str, how: Optional[Tuple]) -> None:
        addressing[name] = how if addressing.get(name, how) == how else None

    def count_ref(ref) -> None:
        if ref is not None:
            uid = ref.uid
            ref_counts[uid] = ref_counts.get(uid, 0) + 1

    def fixed(name: str, subscripts) -> Tuple:
        try:
            return address_of(name, subscripts)
        except SymbolError as exc:
            raise _BuildError(str(exc)) from exc

    affine_index: Dict[Tuple, int] = {}

    def add_affine(name: str, dims) -> int:
        """Index of the affine address ``name(dims)``; items with the
        same subscripts share one entry of the attempt's address list."""
        key = (name, tuple(dims))
        index = affine_index.get(key)
        if index is not None:
            return index
        symbol = symbols.get(name)
        if symbol is None or not symbol.is_array or len(dims) != symbol.rank:
            raise _BuildError(f"affine template shape mismatch for {name!r}")
        obase = 0
        ocoeff = 0
        stride = 1
        for (base, coeff), extent in zip(dims, symbol.shape):
            b = int(base)
            c = int(coeff)
            if b != base or c != coeff:
                raise _BuildError(f"non-integral affine term for {name!r}")
            obase += (b - 1) * stride
            ocoeff += c * stride
            bp.bound_dimension(b, c, int(extent))
            stride *= int(extent)
        index = affine_index[key] = len(bp.aff_names)
        bp.aff_names.append(name)
        bp.aff_base.append(obase)
        bp.aff_coeff.append(ocoeff)
        return index

    def access(name: str, ref, subs_or_dims, const: bool, affine: bool, code: int) -> _Access:
        """The access of ``name`` at a fixed, affine or value-dependent
        address (gather: ``extra`` is the slot of its one subscript)."""
        var_names.add(name)
        count_ref(ref)
        if const:
            address = fixed(name, subs_or_dims)
            note(name, ("fixed",))
            return _Access(M_FIXED, code, None, (address,), address)
        if affine:
            index = add_affine(name, subs_or_dims)
            note(name, ("affine", bp.aff_coeff[index]))
            return _Access(
                M_AFFINE, code, None, (index,), (name, bp.aff_base[index])
            )
        note(name, None)
        if symbols.get(name) is None:
            raise _BuildError(f"undeclared variable {name!r}")
        dims = subs_or_dims
        if len(dims) == 1 and type(dims[0]) is int:
            return _Access(M_GATHER, code, dims[0], (name,), None)
        return _Access(M_PROGRAM, code, None, (name, dims), None)

    def read_access(r) -> _Access:
        bp.n_reads += 1
        fixed_read = type(r) is ReadOp
        ref = r.ref if fixed_read else r[1]
        code = route_code(ref)
        reads_by_route[code] += 1
        if fixed_read:
            return access(r.variable, ref, r.subscripts, True, False, code)
        return access(r[0], ref, r[2], False, len(r) == 3, code)

    for event in trace.events:
        kind = event[0]
        if kind == EV_COMPUTE:
            bp.compute_cycles += event[1].cycles
            bp.batched_ops += 1
        elif kind == EV_CTRL_READ:
            rop, expected = event[1], event[2]
            bp.n_reads += 1
            var_names.add(rop.variable)
            note(rop.variable, None)
            count_ref(rop.ref)
            code = route_code(rop.ref)
            reads_by_route[code] += 1
            steps.append((
                "ctrl",
                code,
                (fixed(rop.variable, rop.subscripts), expected, rop.variable),
            ))
        else:  # EV_ASSIGN
            (
                _,
                rhs_reads,
                target_reads,
                _arith_fn,
                arith_program,
                env,
                cost_op,
                target,
                subs_or_dims,
                subs_affine,
                subs_const,
                wref,
            ) = event
            rhs = tuple(read_access(r) for r in rhs_reads)
            tail = tuple(read_access(r) for r in target_reads)
            bp.n_writes += 1
            wcode = route_code(wref)
            writes_by_route[wcode] += 1
            write = access(
                target, wref, subs_or_dims, subs_const, subs_affine, wcode
            )
            bp.compute_cycles += cost_op.cycles
            bp.batched_ops += 1
            steps.append(("assign", env, rhs, arith_program, tail, write))

    bp.promoted = frozenset(
        name for name, how in addressing.items() if how is not None
    )
    n_regs = _promote(steps, bp.promoted)
    templates: Dict[int, Tuple[str, Tuple]] = {}
    for step in steps:
        if step[0] == "ctrl":
            schedule.append((("ctrl", step[1]), step[2]))
            continue
        _, env, rhs, program, tail, write = step
        payload: List = [env]
        rhs_items = tuple(_read_item(acc, payload) for acc in rhs)
        template = templates.get(id(program))
        if template is None:
            template = templates[id(program)] = _arith_template(program)
        text, consts = template
        at = len(payload)
        text = text.format(*(f"p[{at + j}]" for j in range(len(consts))))
        payload.extend(consts)
        tail_items = tuple(_read_item(acc, payload) for acc in tail)
        schedule.append((
            (
                "assign",
                rhs_items,
                (text, len(consts)),
                tail_items,
                _write_item(write, payload),
            ),
            tuple(payload),
        ))

    bp.n_steps = len(schedule)
    shape_index: Dict[Tuple, int] = {}
    for shape, entries in _runs_of(schedule):
        k = shape_index.get(shape)
        if k is None:
            k = shape_index[shape] = len(bp.shapes)
            bp.shapes.append(shape)
        runs.append((k, entries))
    bp.finalize(n_regs)
    return bp


def _read_item(acc: _Access, payload: List) -> Tuple:
    """Shape item of one read (see :func:`_read_source`); appends its
    payload entries."""
    serve = acc.serve
    if serve is None:
        payload.extend(acc.entries)
        return (acc.mode, acc.code, acc.extra)
    if serve != "first":
        payload.append(acc.register.slot)
        return serve
    payload.extend(acc.entries)
    if acc.code == R_SPEC:
        payload.append(acc.count)
    keep = acc.register.slot is not None
    if keep:
        payload.append(acc.register.slot)
    return ("first", acc.mode, acc.code, keep)


def _write_item(acc: _Access, payload: List) -> Tuple:
    """Shape item of one write (see :func:`_write_source`); appends its
    payload entries."""
    if acc.logs is None:
        payload.extend(acc.entries)
        return (acc.mode, acc.code, acc.extra)
    logs = tuple(log for log in _SET if log in acc.logs)
    if logs:
        payload.extend(acc.entries)
    slots = [r.slot for r in acc.registers if r.slot is not None]
    payload.extend(slots)
    return ("set", acc.mode, logs, len(slots))


# ----------------------------------------------------------------------
# the batch-program memo
# ----------------------------------------------------------------------
#: LoopRegion -> {route map: its compiled program}; weak, so a dropped
#: program frees its entries.
_MEMO: "weakref.WeakKeyDictionary[LoopRegion, Dict[FrozenSet, BatchProgram]]" = (
    weakref.WeakKeyDictionary()
)
_MEMO_LOCK = threading.Lock()


def batch_program(
    region: LoopRegion, trace: SegmentTrace, routes: Dict[str, str], symbols
) -> Optional[BatchProgram]:
    """The compiled program of ``region``'s ``trace`` (from
    :func:`repro.runtime.trace.region_trace`) under ``routes``; None
    when the trace cannot be compiled.

    A memoized program is returned while it was built from ``trace``
    over ``symbols``; otherwise the new program replaces it.
    Concurrent runs may build the same program twice; the last store
    wins and both programs are equivalent.
    """
    key = frozenset(routes.items())
    with _MEMO_LOCK:
        programs = _MEMO.get(region)
        if programs is None:
            programs = _MEMO[region] = {}
        bp = programs.get(key)
    if bp is not None and bp.trace is trace and bp.symbols is symbols:
        return bp
    try:
        bp = build_batch_program(region, trace, routes, symbols)
    except _BuildError:
        return None
    with _MEMO_LOCK:
        programs[key] = bp
    return bp


class _BatchScheduler:
    """The batched attempt executor of one loop region.

    The engine owns the segment lifecycle: dispatch, squash-restart,
    stall, drain, watchdog, audit and commit.  This class runs the
    attempts, transfers and validates their logs, and decides how an
    overflowed head resolves.
    """

    def __init__(
        self,
        engine,
        bp: BatchProgram,
        region: LoopRegion,
        memory: MemoryImage,
        stats: ExecutionStats,
        values: Iterator[int],
    ):
        self.engine = engine
        self.bp = bp
        self.region = region
        self.memory = memory
        self.stats = stats
        self.values = values
        self.active: List[_SegmentTask] = []
        #: Memory loads inlined by the compiled attempts: the stored
        #: values, then each variable's initial value.
        self._mget = memory._values.get
        self._init = {
            name: memory.initial_value(name) for name in bp.var_names
        }
        #: ``(base, spec, priv)`` terms of an attempt's timing price
        #: (``CostModel.batch_price``); None when untimed.
        recorder = engine._recorder
        self._price = None
        if recorder is not None:
            writes_by_route = bp.writes_by_route
            self._price = recorder.cost.batch_price(
                bp.compute_cycles,
                bp.n_reads,
                {
                    ROUTE_SPECULATIVE: writes_by_route[0],
                    ROUTE_PRIVATE: writes_by_route[2],
                    None: writes_by_route[1],
                },
            )
        #: Compiled attempts not yet in ``stats``.
        self._compiled_attempts = 0

    # ------------------------------------------------------------------
    # post-hoc transfer and violation detection
    # ------------------------------------------------------------------
    def _transfer(self, task: _SegmentTask) -> None:
        """Install the attempt's logs into its segment buffer.

        A refusal (capacity overflow) stalls the task with its partial
        buffer kept -- the interleaved stall contract -- until it is
        oldest and resolves via the fallback.
        """
        if not self.engine.store.transfer(
            task.buffer, task.rlog, task.wlog, task.swlog
        ):
            self.engine._stall(task, self.stats)

    def _eager_violations(self, task: _SegmentTask) -> None:
        """Age-based violation sweep over the attempt's write set.

        Only needed after restarts (younger attempts may hold values
        from the pre-restart execution); first executions cannot have
        younger readers, and commit-time validation catches everything
        else.
        """
        engine = self.engine
        store = engine.store
        stats = self.stats
        oldest = None
        for addr in task.swlog:
            violators = store.violators(task.age, addr)
            if violators:
                stats.violations += len(violators)
                candidate = min(buffer.age for buffer in violators)
                if oldest is None or candidate < oldest:
                    oldest = candidate
        if oldest is None:
            return
        for other in self.active:
            if other.age >= oldest:
                engine._restart(other, stats, by_age=task.age)

    def _validate(self, task: _SegmentTask) -> bool:
        """Exact post-hoc check of every externally-served read value
        against committed memory.  The attempt is a deterministic
        function of these values (own-log serves are internal), so
        success proves its write set equals a sequential re-execution."""
        mget = self._mget
        init = self._init
        for addr, (value, _) in task.rlog.items():
            current = mget(addr)
            if current is None:
                current = init[addr[0]]
            # NaN equals NaN (``same_value``, inlined on this hot path):
            # a NaN read must validate, or the attempt restarts forever.
            if current != value and (current == current or value == value):
                return False
        return True

    # ------------------------------------------------------------------
    # attempt execution
    # ------------------------------------------------------------------
    def _run_compiled(self, task: _SegmentTask) -> None:
        bp = self.bp
        iv = task.key[1]
        # Oldest first, so a younger attempt's value overrides: each
        # address maps to its nearest older executed write.
        fwd: Dict = {}
        for other in self.active:
            if other is task:
                break
            if other.done:
                fwd.update(other.wlog)
        task.n_spec_spec, task.n_priv_hit = bp.attempt(
            bp.runs,
            bp.affine_addresses(iv),
            iv,
            task.wlog,
            task.swlog,
            task.dwlog,
            task.rlog,
            task.plog,
            fwd,
            self._mget,
            self._init,
        )
        self._apply_attempt_stats(task)

    def _apply_attempt_stats(self, task: _SegmentTask) -> None:
        """Accounting for one compiled attempt.  What every attempt of
        the program adds alike is counted here and applied in bulk by
        :meth:`_flush_attempt_stats`."""
        self._compiled_attempts += 1
        task.cycles += self.bp.compute_cycles
        self.stats.batch_log_entries += (
            len(task.wlog) + len(task.rlog) + len(task.plog)
        )
        price = self._price
        if price is not None:
            base, spec, priv = price
            self.engine._recorder.batched(
                task.age, base + spec * task.n_spec_spec + priv * task.n_priv_hit
            )

    def _flush_attempt_stats(self) -> None:
        """Add the per-program counts of every compiled attempt run
        (what the interleaved scheduler accumulates per op)."""
        n = self._compiled_attempts
        self._compiled_attempts = 0
        if not n:
            return
        bp = self.bp
        stats = self.stats
        reads_by_route = bp.reads_by_route
        writes_by_route = bp.writes_by_route
        stats.reads += n * bp.n_reads
        stats.writes += n * bp.n_writes
        stats.speculative_accesses += n * (reads_by_route[0] + writes_by_route[0])
        stats.idempotent_accesses += n * (reads_by_route[1] + writes_by_route[1])
        stats.private_accesses += n * (reads_by_route[2] + writes_by_route[2])
        counts = stats.reference_counts
        for uid, k in bp.ref_counts.items():
            counts[uid] = counts.get(uid, 0) + n * k
        stats.cycles += n * bp.compute_cycles
        stats.batched_attempts += n
        stats.batched_ops += n * bp.batched_ops

    # ------------------------------------------------------------------
    # head fallback: overflow drain / write-through re-execution
    # ------------------------------------------------------------------
    def _resolve_stalled_head(self, head: _SegmentTask) -> None:
        """The oldest attempt overflowed its buffer during transfer.

        Its logs are complete (only the transfer stalled), so when they
        still validate the buffer simply drains early -- the interleaved
        write-through contract, minus the re-execution.  Stale logs are
        squashed and the attempt re-executes in write-through mode
        against committed memory.  Either way the head then commits.
        """
        engine = self.engine
        stats = self.stats
        stats.batch_fallbacks += 1
        if self._validate(head):
            stats.batch_drains += 1
            engine._unstall_oldest(head, self.memory, stats)
        else:
            stats.batch_reexecutions += 1
            stats.batch_violations += 1
            stats.violations += 1
            self._reexecute(head)
        engine._commit_task(head, self.memory, stats)

    def _reexecute(self, head: _SegmentTask) -> None:
        """Squash the stale head; re-run it op by op through the engine's
        ``_step`` in write-through mode, reading and writing committed
        memory."""
        engine = self.engine
        stats = self.stats
        trace, iv = self.bp.trace, head.key[1]
        head.spawn = lambda: replay_segment(trace, iv)
        engine._restart(head, stats)
        head.write_through = True
        ops = -1  # the last step only finds the attempt's end
        while not head.done:
            engine._step(head, self.memory, stats, None)
            ops += 1
        stats.batched_attempts += 1
        stats.batched_ops += ops
        stats.batch_log_entries += len(head.plog)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _sweep(self) -> None:
        """Execute and transfer every pending attempt, oldest first."""
        engine = self.engine
        stats = self.stats
        active = self.active
        engine._tick(active, stats)
        for task in list(active):
            if task.stalled:
                if task is not active[0]:
                    stats.stall_rounds += 1
                continue
            if task.done:
                continue
            self._run_compiled(task)
            task.done = True
            self._transfer(task)
            if not task.stalled and task.restarts > 0:
                self._eager_violations(task)
        engine._audit()

    def _commit_phase(self) -> None:
        engine = self.engine
        active = self.active
        stats = self.stats
        while active:
            head = active[0]
            if not head.done:
                break  # restarted; needs another sweep
            if head.stalled:
                self._resolve_stalled_head(head)
            elif not self._validate(head):
                stats.batch_violations += 1
                stats.violations += 1
                engine._restart(head, stats)
                break
            else:
                engine._commit_task(head, self.memory, stats)
            active.pop(0)
            engine._refill_loop(self.region, active, self.values, stats)

    def run(self) -> None:
        try:
            self.engine._refill_loop(
                self.region, self.active, self.values, self.stats
            )
            while self.active:
                self._sweep()
                self._commit_phase()
        finally:
            self._flush_attempt_stats()


# ----------------------------------------------------------------------
# engine entry point
# ----------------------------------------------------------------------
def try_run_batched(
    engine,
    region: LoopRegion,
    trace: SegmentTrace,
    memory: MemoryImage,
    stats: ExecutionStats,
    values: range,
) -> bool:
    """Run ``region`` under the batched protocol if it is eligible.

    Returns ``False`` when the region cannot be batched (the caller
    falls back to the op-interleaved scheduler); ``True`` means the
    region executed (or had no iterations) and its effects are in
    ``memory`` / ``stats``.
    """
    bp = batch_program(region, trace, engine._routes, memory.symbols)
    if bp is None:
        return False
    if not values:
        return True
    if not bp.bounds_ok(values[0], values[-1]):
        # Out-of-range subscripts must fail exactly like the
        # interleaved path (mid-run AddressError with partial state).
        return False
    scheduler = _BatchScheduler(engine, bp, region, memory, stats, iter(values))
    obs = engine._obs
    with (
        obs.span(
            "engine.batch",
            category="engine",
            region=region.name,
            engine=engine.engine_name,
            tasks=len(values),
            ops_per_attempt=bp.batched_ops,
        )
        if obs is not None
        else _NULL_SPAN
    ):
        scheduler.run()
    return True
