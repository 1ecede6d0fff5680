"""Parameterized synthetic workload generator.

Four loop-nest families, modelled on the kernel shapes of the paper's
evaluation suite (SPEC CFP95-style Fortran nests), each generated as DSL
text and parsed through the regular front end so the benchmark exercises
the whole pipeline:

``stencil``
    An in-place SOR-style 5-point relaxation sweep (the update reads
    the array it writes, like the APPLU/SOR nests of the paper's
    suite).  ``statements`` unrolled update statements share a handful
    of subscript signatures, which is what the signature-bucketed
    analysis fast path exploits; the neighbour reads carry real
    loop-carried dependences.
``reduction``
    Per-iteration dot-product accumulations ``c(k) += a(i, k) * b(i)``
    -- dense intra-segment flow/anti/output dependence chains.
``sparse``
    A CSR-like gather ``y(k) += v(t, k) * x(col(t, k))`` -- the
    subscripted subscript defeats the affine subscript tests (forced
    may-dependences) and exercises the executor's value-dependent
    address path.
``guarded``
    Conditional updates under ``mod``-guards plus a masked write --
    conditional references for the must-define / exposed-read analysis.

Every family takes two knobs: ``size`` scales the dynamic work (trip
counts / array extents) and ``statements`` scales the static body (and
with it the number of references the analysis must classify).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.ir.dsl import parse_program
from repro.ir.program import Program


@dataclass(frozen=True)
class Workload:
    """One generated benchmark program plus its metadata."""

    family: str
    size: int
    statements: int
    source: str
    program: Program

    @property
    def region(self):
        return self.program.regions[0]


# ----------------------------------------------------------------------
# Family generators (DSL text)
# ----------------------------------------------------------------------
def _stencil_source(size: int, statements: int) -> str:
    n = max(size, 8)
    lines = [
        "program bench_stencil",
        f"  real a({n}, {n}) = 1.5",
        f"  region STENCIL do j = 2, {n - 1}",
        f"    do i = 2, {n - 1}",
    ]
    for s in range(statements):
        w = 0.25 + 0.01 * s
        lines.append(
            f"      a(i, j) = {w} * (a(i-1, j) + a(i+1, j) "
            f"+ a(i, j-1) + a(i, j+1))"
        )
    lines.append("    end do")
    lines.append("    liveout a")
    lines.append("  end region")
    lines.append("end program")
    return "\n".join(lines)


def _reduction_source(size: int, statements: int) -> str:
    n = max(size, 8)
    inner = 16
    lines = [
        "program bench_reduction",
        f"  real a({inner}, {n}) = 0.5, b({inner}) = 1.5, c({n})",
        f"  region REDUCE do k = 1, {n}",
        f"    do i = 1, {inner}",
    ]
    for s in range(statements):
        lines.append(f"      c(k) = c(k) + a(i, k) * b(i) + {0.001 * s}")
    lines.append("    end do")
    lines.append("    liveout c")
    lines.append("  end region")
    lines.append("end program")
    return "\n".join(lines)


def _sparse_source(size: int, statements: int) -> str:
    n = max(size, 8)
    row = 8
    lines = [
        "program bench_sparse",
        f"  real y({n}), v({row}, {n}) = 1.25, x({n}) = 2.0",
        f"  integer col({row}, {n}) = 1",
        f"  region GATHER do k = 2, {n}",
        f"    do t = 1, {row}",
    ]
    for s in range(statements):
        lines.append(
            f"      y(k) = y(k) + v(t, k) * x(col(t, k)) + {0.001 * s} * y(k-1)"
        )
    lines.append("    end do")
    lines.append("    liveout y")
    lines.append("  end region")
    lines.append("end program")
    return "\n".join(lines)


def _guarded_source(size: int, statements: int) -> str:
    n = max(size, 8)
    lines = [
        "program bench_guarded",
        f"  real x({n}) = 1.0, m({n})",
        f"  region GUARDED do k = 2, {n}",
        "    do t = 1, 8",
    ]
    for s in range(statements):
        parity = s % 2
        lines.append(
            f"      if (mod(t + {parity}, 2) > 0) "
            f"x(k) = x(k) + {0.25 + 0.01 * s} * x(k-1)"
        )
    lines.append("      m(k) = x(k) * 0.5")
    lines.append("    end do")
    lines.append("    liveout x, m")
    lines.append("  end region")
    lines.append("end program")
    return "\n".join(lines)


_GENERATORS: Dict[str, Callable[[int, int], str]] = {
    "stencil": _stencil_source,
    "reduction": _reduction_source,
    "sparse": _sparse_source,
    "guarded": _guarded_source,
}

FAMILIES: Tuple[str, ...] = tuple(_GENERATORS)

#: Default dynamic sizes per family (chosen so one sequential execution
#: stays in the hundreds of milliseconds at default statement counts).
DEFAULT_SIZES: Dict[str, int] = {
    "stencil": 96,
    "reduction": 4096,
    "sparse": 4096,
    "guarded": 4096,
}

DEFAULT_STATEMENTS = 12
SMOKE_STATEMENTS = 3


def generate(family: str, size: int, statements: int = DEFAULT_STATEMENTS) -> Workload:
    """Generate and parse one workload."""
    try:
        generator = _GENERATORS[family]
    except KeyError:
        raise ValueError(
            f"unknown workload family {family!r}; have {sorted(_GENERATORS)}"
        ) from None
    source = generator(size, statements)
    return Workload(
        family=family,
        size=size,
        statements=statements,
        source=source,
        program=parse_program(source),
    )


def generate_suite(
    size: int = 0,
    statements: int = DEFAULT_STATEMENTS,
    families: Tuple[str, ...] = FAMILIES,
) -> List[Workload]:
    """Generate all requested families.

    ``size == 0`` selects each family's default size; any other value
    is used verbatim for every family.
    """
    out = []
    for family in families:
        family_size = size if size else DEFAULT_SIZES[family]
        out.append(generate(family, family_size, statements))
    return out
