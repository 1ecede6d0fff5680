"""Seeded inputs of the two workloads.

The four loop-nest families are written out here rather than imported
from ``repro.bench.workloads``, so the benchmark feeds the same programs
to every commit it compares.  A seed changes program names, the order
of the sources, and which method each cold program gets; it never
changes the amount of work, so runs with different seeds stay
comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

FAMILIES: Tuple[str, ...] = ("stencil", "reduction", "sparse", "guarded")


def family_source(family: str, name: str, size: int, statements: int) -> str:
    """DSL text of one family program named ``name``."""
    n = max(size, 8)
    if family == "stencil":
        head = [f"  real a({n}, {n}) = 1.5",
                f"  region STENCIL do j = 2, {n - 1}",
                f"    do i = 2, {n - 1}"]
        body = [f"      a(i, j) = {0.25 + 0.01 * s} * (a(i-1, j) + a(i+1, j) "
                f"+ a(i, j-1) + a(i, j+1))" for s in range(statements)]
        live = "a"
    elif family == "reduction":
        head = [f"  real a(16, {n}) = 0.5, b(16) = 1.5, c({n})",
                f"  region REDUCE do k = 1, {n}",
                "    do i = 1, 16"]
        body = [f"      c(k) = c(k) + a(i, k) * b(i) + {0.001 * s}"
                for s in range(statements)]
        live = "c"
    elif family == "sparse":
        head = [f"  real y({n}), v(8, {n}) = 1.25, x({n}) = 2.0",
                f"  integer col(8, {n}) = 1",
                f"  region GATHER do k = 2, {n}",
                "    do t = 1, 8"]
        body = [f"      y(k) = y(k) + v(t, k) * x(col(t, k)) + {0.001 * s} * y(k-1)"
                for s in range(statements)]
        live = "y"
    elif family == "guarded":
        head = [f"  real x({n}) = 1.0, m({n})",
                f"  region GUARDED do k = 2, {n}",
                "    do t = 1, 8"]
        body = [f"      if (mod(t + {s % 2}, 2) > 0) x(k) = x(k) + {0.25 + 0.01 * s} * x(k-1)"
                for s in range(statements)]
        body.append("      m(k) = x(k) * 0.5")
        live = "x, m"
    else:
        raise ValueError(f"unknown family {family!r}")
    lines = [f"program {name}", *head, *body,
             "    end do", f"    liveout {live}", "  end region", "end program"]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# serve-mix: one cycle of five methods over four warm sources
# ----------------------------------------------------------------------
#: Small enough for about 1200 requests in a 40-s run, so the p95 has
#: some 60 samples beyond it; at twice these sizes its run-to-run
#: spread was 27-29%.
MIX_SIZES: Dict[str, int] = {"stencil": 24, "reduction": 64, "sparse": 64, "guarded": 128}
MIX_STATEMENTS = 4
#: The capacity at which HOSE overflows on every family.
OVERFLOW_CAPACITY = 8
#: (method, extra params) of one cycle over one source.
MIX_CYCLE: Tuple[Tuple[str, Dict], ...] = (
    ("analyze", {}),
    ("label", {}),
    ("simulate", {"engine": "case", "capacity": OVERFLOW_CAPACITY}),
    ("simulate", {"engine": "hose", "capacity": OVERFLOW_CAPACITY}),
    ("speedup_sweep", {"processors": [1, 2, 4]}),
)


def mix_sources(seed: int) -> List[str]:
    """The four serve-mix sources, in a seeded order."""
    rng = random.Random(seed)
    families = list(FAMILIES)
    rng.shuffle(families)
    return [
        family_source(f, f"mix{seed}_{f}", MIX_SIZES[f], MIX_STATEMENTS)
        for f in families
    ]


def mix_request(sources: List[str], session: int, n: int) -> Tuple[str, Dict]:
    """Request ``n`` of ``session``.

    Both sessions send the same request at once, so the two in flight
    always cost the same.  Started two sources apart, the sessions
    drifted in and out of step, and a speedup_sweep took from one to two
    times its own cost depending on what ran beside it.
    """
    source = sources[(n // len(MIX_CYCLE)) % len(sources)]
    method, extra = MIX_CYCLE[n % len(MIX_CYCLE)]
    return method, dict(extra, dsl=source)


# ----------------------------------------------------------------------
# analyze-cold: every request a distinct program, so nothing is warm
# ----------------------------------------------------------------------
COLD_SIZE = 8
#: Statement counts per family, spread over 8..42.  Fixed, so that every
#: seed does the same analysis work; the larger counts go to the families
#: whose label check is cheapest.  Cold labeling costs about 3, 9, 25,
#: 42, 50, 50, 55 and 60 ms in order (idle 2-CPU machine), so both the
#: median and the p95 fall among programs of like cost.  With a gap of
#: 25 to 50 ms at the median, the median moved by a quarter from run to
#: run; with a 48-statement stencil (200 ms) on top, the p95 was that one
#: program's latency and spread 28%.
COLD_STATEMENTS: Dict[str, Tuple[int, int]] = {
    "stencil": (25, 28),
    "guarded": (36, 42),
    "sparse": (14, 37),
    "reduction": (8, 31),
}


@dataclass(frozen=True)
class ColdBase:
    family: str
    statements: int
    source: str


def cold_pool(seed: int) -> List[ColdBase]:
    """The base programs of analyze-cold, in a seeded order."""
    pool = [
        ColdBase(f, s, family_source(f, f"cold{seed}_{f}{s}", COLD_SIZE, s))
        for f in FAMILIES
        for s in COLD_STATEMENTS[f]
    ]
    random.Random(seed).shuffle(pool)
    return pool


def cold_request(pool: List[ColdBase], session: int, n: int) -> Tuple[str, Dict, ColdBase]:
    """Request ``n`` of ``session``: a base program renamed so its source
    is new to the daemon.

    A round is one pass over the pool per session.  The two sessions
    send the same base program at once, one to analyze and one to label,
    so a round analyzes every base program once and labels it once, and
    the two requests in flight always cost about the same.  (Started half
    the pool apart, the sessions drifted in and out of step, and a large
    program's latency depended on what ran beside it.)
    """
    size = len(pool)
    base = pool[n % size]
    method = "analyze" if (n + n // size + session) % 2 == 0 else "label"
    first, rest = base.source.split("\n", 1)
    source = f"{first}_s{session}r{n}\n{rest}"
    return method, {"dsl": source}, base
