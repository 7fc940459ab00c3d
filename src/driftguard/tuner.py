"""Sweep candidate drift thresholds over a captured snapshot pair.

The right thresholds depend on the application: too tight and harmless
noise raises errors, too loose and real drift slips through. The tuner
counts violating images for every grid cell so an operator can pick the
knee point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .diffing import aligned_comparisons
from .types import BenchmarkDataset, ContractError, ThresholdRules


def _check_grid(grid, name, kind):
    values = tuple(grid)
    if not values:
        raise ContractError(f"{name} grid must be non-empty")
    if any(not isinstance(v, kind) or isinstance(v, bool) for v in values):
        raise ContractError(f"{name} grid values must be {kind.__name__}s")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ContractError(f"{name} grid must be strictly increasing")
    return values


@dataclass(frozen=True)
class TunerMatrix:
    """Violating-image counts per (max_delta_labels, max_delta_confidence) cell."""

    label_grid: tuple[int, ...]
    confidence_grid: tuple[float, ...]
    counts: tuple[tuple[int, ...], ...]  # rows follow label_grid, columns confidence_grid

    def cell(self, max_delta_labels: int, max_delta_confidence: float) -> int:
        row = self.label_grid.index(max_delta_labels)
        col = self.confidence_grid.index(max_delta_confidence)
        return self.counts[row][col]

    def to_tsv(self, pretty: bool = False) -> str:
        header = ["max_delta_labels\\max_delta_confidence"] + [
            repr(c) for c in self.confidence_grid
        ]
        rows = [header]
        for label_value, row in zip(self.label_grid, self.counts):
            rows.append([repr(label_value)] + [str(count) for count in row])
        if not pretty:
            return "\n".join("\t".join(row) for row in rows)
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        return "\n".join(
            "  ".join(cell.rjust(width) for cell, width in zip(row, widths)) for row in rows
        )


def tune_thresholds(
    old_snapshot,
    new_snapshot,
    dataset: BenchmarkDataset,
    label_grid,
    confidence_grid,
    base_rules: ThresholdRules | None = None,
) -> TunerMatrix:
    """Count violating images for every threshold combination.

    The expected-labels check is held fixed across cells (it does not
    depend on the thresholds being swept); base_rules supplies the global
    expected-label set and defaults to none. Counts are non-increasing
    along both axes because the comparators are >= threshold.
    """
    labels = _check_grid(label_grid, "label", int)
    confidences = _check_grid(confidence_grid, "confidence", float)
    rules = base_rules if base_rules is not None else ThresholdRules()
    # Both grids increase strictly, so rules built from their two ends
    # reject any out-of-range threshold in between.
    for end in (0, -1):
        replace(rules, max_delta_labels=labels[end], max_delta_confidence=confidences[end])

    # One comparison per image pair; each cell (a, b) is then a count over
    # (label delta, max |confidence delta|, expected label missing).
    images = []
    for _, comparison, item in aligned_comparisons(old_snapshot, new_snapshot, dataset):
        shift = max(map(abs, comparison.deltas.values()), default=0.0)
        images.append((comparison.label_delta, shift, comparison.missing_expected(item, rules)))
    counts = tuple(
        tuple(
            sum(1 for delta, shift, missing in images if missing or delta >= a or shift >= b)
            for b in confidences
        )
        for a in labels
    )
    return TunerMatrix(label_grid=labels, confidence_grid=confidences, counts=counts)
