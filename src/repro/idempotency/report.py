"""Idempotency reports.

The paper's evaluation reports *fractions of memory references* that are
idempotent, split by category (Figure 5 statically characterises whole
benchmarks; Figures 6-9 characterise individual loops and additionally
weight by dynamic execution counts).  This module aggregates labeling
results into those fractions, both statically (textual references) and
dynamically (weighted by per-reference execution counts collected by the
sequential interpreter).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping

from repro.idempotency.labeling import LabelingResult
from repro.ir.types import IdempotencyCategory


@dataclass
class CategoryCounts:
    """Reference counts by idempotency category."""

    counts: Dict[IdempotencyCategory, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def add(self, category: IdempotencyCategory, amount: float = 1.0) -> None:
        self.counts[category] = self.counts.get(category, 0.0) + amount

    def merge(self, other: "CategoryCounts") -> "CategoryCounts":
        merged = CategoryCounts(dict(self.counts))
        for category, amount in other.counts.items():
            merged.add(category, amount)
        return merged

    # ------------------------------------------------------------------
    @property
    def total(self) -> float:
        return sum(self.counts.values())

    def count(self, category: IdempotencyCategory) -> float:
        return self.counts.get(category, 0.0)

    @property
    def idempotent_total(self) -> float:
        return self.total - self.count(IdempotencyCategory.NOT_IDEMPOTENT)

    def fraction(self, category: IdempotencyCategory) -> float:
        if self.total == 0:
            return 0.0
        return self.count(category) / self.total

    @property
    def fraction_idempotent(self) -> float:
        if self.total == 0:
            return 0.0
        return self.idempotent_total / self.total

    def counts_dict(self) -> Dict[str, float]:
        """Raw reference counts keyed by category name."""
        return {
            category.value: self.count(category)
            for category in IdempotencyCategory
            if self.count(category) > 0
            or category is IdempotencyCategory.NOT_IDEMPOTENT
        }

    def fractions_dict(self) -> Dict[str, float]:
        """Fractions keyed by category name plus the ``idempotent`` total."""
        out = {
            category.value: self.fraction(category)
            for category in IdempotencyCategory
            if self.count(category) > 0
            or category is IdempotencyCategory.NOT_IDEMPOTENT
        }
        out["idempotent"] = self.fraction_idempotent
        return out

    def as_dict(self) -> Dict[str, object]:
        """Counts and fractions, kept apart.

        ``fractions`` holds only values in [0, 1]; the raw reference
        counts (including ``total_references``) live under ``counts`` so
        consumers never mistake an absolute count for a fraction.
        """
        counts = self.counts_dict()
        counts["total_references"] = self.total
        return {"counts": counts, "fractions": self.fractions_dict()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(
            f"{cat.value}={amount:g}" for cat, amount in sorted(
                self.counts.items(), key=lambda kv: kv[0].value
            )
        )
        return f"<CategoryCounts {parts}>"


# ----------------------------------------------------------------------
def count_static_references(labeling: LabelingResult) -> CategoryCounts:
    """Static (textual) reference counts by category for one region."""
    counts = CategoryCounts()
    for ref in labeling.region.references:
        counts.add(labeling.category_of(ref))
    return counts


def count_dynamic_references(
    labeling: LabelingResult,
    execution_counts: Mapping[str, int],
) -> CategoryCounts:
    """Dynamic reference counts by category for one region.

    ``execution_counts`` maps reference uids to the number of times the
    reference executed (as collected by the sequential interpreter's
    trace); references that never executed contribute nothing.
    """
    counts = CategoryCounts()
    for ref in labeling.region.references:
        executed = execution_counts.get(ref.uid, 0)
        if executed:
            counts.add(labeling.category_of(ref), float(executed))
    return counts


def merge_counts(per_region: Iterable[CategoryCounts]) -> CategoryCounts:
    """Aggregate counts over several regions (e.g. a whole benchmark)."""
    merged = CategoryCounts()
    for counts in per_region:
        merged = merged.merge(counts)
    return merged
