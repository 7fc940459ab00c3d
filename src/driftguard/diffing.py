"""Response diffing, threshold checks, and evolution reports.

Every function here is pure: two labelling responses for the same image go
in, deltas and violations come out. Label matching across epochs is exact,
case-sensitive text equality; a label present in only one epoch belongs to
the label-delta check and never to the confidence-delta check.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import NamedTuple

from .types import (
    CATEGORY_FOR_CODE,
    CODE_CONFIDENCE_DELTA,
    CODE_EXPECTED_LABELS,
    CODE_LABEL_DELTA,
    EPOCH_ZERO,
    ERROR_TYPES,
    BenchmarkDataset,
    BenchmarkItem,
    ContractError,
    LabelledResponse,
    ThresholdRules,
    iso_ts,
)

def trim_number(value) -> str:
    """Render a number without trailing zeros: 5 -> '5', 0.010 -> '0.01', 1.0 -> '1'."""
    text = repr(value)
    if "." in text and "e" not in text and "E" not in text:
        text = text.rstrip("0").rstrip(".")
    return text


def format_signed_mean(mean: float) -> str:
    """Signed, 4 decimals, round-half-even (the float formatting default)."""
    return f"{mean:+.4f}"


def label_delta_reason(threshold, added_count: int, dropped_count: int) -> str:
    return (
        f"Exceeded label count delta threshold ±{trim_number(threshold)} "
        f"({added_count} new labels + {dropped_count} dropped labels = "
        f"{added_count + dropped_count})."
    )


def confidence_delta_reason(threshold, flagged_count: int, mean: float) -> str:
    return (
        f"Exceeded confidence delta threshold ±{trim_number(threshold)} "
        f"in {flagged_count} labels (delta mean={format_signed_mean(mean)})."
    )


def expected_labels_reason(missing: list[str]) -> str:
    return f"The expected label(s) `{', '.join(missing)}' are missing in the response."


@dataclass(frozen=True)
class Violation:
    """One threshold breach for one image, with the data its error payload
    needs; position is the image's dataset index (0 when checked alone)."""

    error_code: int
    image_ref: str
    reason: str
    data: dict
    position: int

    @property
    def error_type(self) -> str:
        return ERROR_TYPES[self.error_code]

    @property
    def category(self) -> str:
        return CATEGORY_FOR_CODE[self.error_code]

    def payload(self) -> dict:
        return {**self.data, "uri": self.image_ref, "reason": self.reason}


class Comparison(NamedTuple):
    """One image pair, walked once: added labels in the new rank order,
    dropped labels in the old one, and the signed confidence change (new
    minus old) of every matched label. Both responses ride along so top and
    detected labels are read only when needed."""

    old: LabelledResponse
    new: LabelledResponse
    added: list[str]
    dropped: list[str]
    deltas: dict[str, float]

    @property
    def label_delta(self) -> int:
        return len(self.added) + len(self.dropped)

    def missing_expected(self, item: BenchmarkItem, rules: ThresholdRules) -> list[str]:
        """Sorted expected labels (global and per item) absent from the new response."""
        if self.old.image_ref != item.image_ref:
            raise ContractError(
                f"responses for {self.old.image_ref!r} evaluated against item {item.image_ref!r}"
            )
        return sorted((rules.expected_labels_global | item.expected_labels) - self.new.labels())

    def violations(
        self, item: BenchmarkItem, rules: ThresholdRules, position: int = 0
    ) -> list[Violation]:
        """The three benchmark checks, in code order (label delta, confidence
        delta, expected labels). Comparators are >= threshold for both delta
        checks."""
        missing = self.missing_expected(item, rules)
        found = []
        if self.label_delta >= rules.max_delta_labels:
            found.append(
                Violation(
                    error_code=CODE_LABEL_DELTA,
                    image_ref=item.image_ref,
                    reason=label_delta_reason(
                        rules.max_delta_labels, len(self.added), len(self.dropped)
                    ),
                    data={
                        "delta_labels_threshold": rules.max_delta_labels,
                        "delta_labels_detected": self.label_delta,
                        "new_labels": self.added,
                        "dropped_labels": self.dropped,
                    },
                    position=position,
                )
            )

        flagged = {
            label: delta
            for label, delta in self.deltas.items()
            if abs(delta) >= rules.max_delta_confidence
        }
        if flagged:
            mean = sum(flagged.values()) / len(flagged)
            found.append(
                Violation(
                    error_code=CODE_CONFIDENCE_DELTA,
                    image_ref=item.image_ref,
                    reason=confidence_delta_reason(rules.max_delta_confidence, len(flagged), mean),
                    data={
                        "delta_confidence_threshold": rules.max_delta_confidence,
                        "delta_confidences_detected": flagged,
                    },
                    position=position,
                )
            )

        if missing:
            found.append(
                Violation(
                    error_code=CODE_EXPECTED_LABELS,
                    image_ref=item.image_ref,
                    reason=expected_labels_reason(missing),
                    data={
                        "expected_labels": sorted(
                            rules.expected_labels_global | item.expected_labels
                        ),
                        "labels_detected": [a.label for a in self.new.annotations],
                        "labels_missing": missing,
                    },
                    position=position,
                )
            )
        return found


def compare(old: LabelledResponse, new: LabelledResponse) -> Comparison:
    """Walk one image pair once: added, dropped and matched labels."""
    if old.image_ref != new.image_ref:
        raise ContractError(
            f"responses refer to different images: {old.image_ref!r} vs {new.image_ref!r}"
        )
    old_conf = old.confidences()
    added = []
    deltas = {}
    for ann in new.annotations:
        if ann.label in old_conf:
            deltas[ann.label] = ann.confidence - old_conf[ann.label]
        else:
            added.append(ann.label)
    dropped = [a.label for a in old.annotations if a.label not in deltas]
    return Comparison(old, new, added, dropped, deltas)


@dataclass(frozen=True)
class EvolutionDelta:
    """Per-image drift between two epochs: raw deltas plus violated categories."""

    image_ref: str
    new_labels: frozenset[str]
    dropped_labels: frozenset[str]
    label_delta_count: int
    confidence_deltas: dict[str, float]
    top_label_old: str
    top_label_new: str
    top_confidence_delta: float
    violations: tuple[str, ...]

    @classmethod
    def of(cls, comparison: Comparison, violations) -> "EvolutionDelta":
        top_old = comparison.old.top()
        top_new = comparison.new.top()
        if top_old is None or top_new is None:
            top_delta = 0.0
        else:
            top_delta = top_new.confidence - top_old.confidence
        return cls(
            image_ref=comparison.old.image_ref,
            new_labels=frozenset(comparison.added),
            dropped_labels=frozenset(comparison.dropped),
            label_delta_count=comparison.label_delta,
            confidence_deltas=comparison.deltas,
            top_label_old=top_old.label if top_old else "",
            top_label_new=top_new.label if top_new else "",
            top_confidence_delta=top_delta,
            violations=tuple(v.category for v in violations),
        )

    def to_dict(self) -> dict:
        return {
            "image_ref": self.image_ref,
            "new_labels": sorted(self.new_labels),
            "dropped_labels": sorted(self.dropped_labels),
            "label_delta_count": self.label_delta_count,
            "confidence_deltas": dict(self.confidence_deltas),
            "top_label_old": self.top_label_old,
            "top_label_new": self.top_label_new,
            "top_confidence_delta": self.top_confidence_delta,
            "violations": list(self.violations),
        }


@dataclass(frozen=True)
class EvolutionReport:
    """Aggregate drift between two benchmark epochs."""

    old_epoch: datetime
    new_epoch: datetime
    deltas: tuple[EvolutionDelta, ...]
    labels_added: int
    labels_dropped: int
    confidence_changes: int
    violating_images: int
    mean_label_delta_added: float
    mean_signed_confidence_delta: float
    violations: tuple[Violation, ...]  # by code then dataset position; not serialized

    def totals_dict(self) -> dict:
        return {
            "labels_added": self.labels_added,
            "labels_dropped": self.labels_dropped,
            "confidence_changes": self.confidence_changes,
            "violating_images": self.violating_images,
        }

    def summary_dict(self) -> dict:
        return {
            "old_epoch": iso_ts(self.old_epoch),
            "new_epoch": iso_ts(self.new_epoch),
            "totals": self.totals_dict(),
            "mean_label_delta_added": self.mean_label_delta_added,
            "mean_signed_confidence_delta": self.mean_signed_confidence_delta,
        }

    def to_dict(self) -> dict:
        result = self.summary_dict()
        result["deltas"] = [delta.to_dict() for delta in self.deltas]
        return result


def check_alignment(snapshot, dataset: BenchmarkDataset, name: str = "snapshot"):
    """Snapshots must line up with the dataset by position and image_ref."""
    if len(snapshot) != len(dataset.items):
        raise ContractError(
            f"{name} has {len(snapshot)} responses for {len(dataset.items)} items"
        )
    for k, (response, item) in enumerate(zip(snapshot, dataset.items)):
        if response.image_ref != item.image_ref:
            raise ContractError(
                f"{name}[{k}] is {response.image_ref!r}, expected {item.image_ref!r}"
            )


def aligned_comparisons(old_snapshot, new_snapshot, dataset: BenchmarkDataset):
    """Align both snapshots once, then compare each image pair once:
    yields (position, comparison, item) in dataset order."""
    check_alignment(old_snapshot, dataset, "old snapshot")
    check_alignment(new_snapshot, dataset, "new snapshot")
    for k, (old, new, item) in enumerate(zip(old_snapshot, new_snapshot, dataset.items)):
        yield k, compare(old, new), item


def _by_code_then_position(violations) -> list[Violation]:
    return sorted(violations, key=lambda v: (v.error_code, v.position))


def evaluate_epochs(
    old_snapshot,
    new_snapshot,
    dataset: BenchmarkDataset,
    rules: ThresholdRules,
) -> EvolutionReport:
    """Diff two aligned benchmark snapshots into an EvolutionReport.

    confidence_changes counts matched labels whose delta is nonzero, with no
    threshold applied; sub-threshold movement is visible in the raw deltas
    and only threshold-exceeding movement marks an image as violating.
    """
    deltas, violations = [], []
    for k, comparison, item in aligned_comparisons(old_snapshot, new_snapshot, dataset):
        found = comparison.violations(item, rules, k)
        deltas.append(EvolutionDelta.of(comparison, found))
        violations.extend(found)

    labels_added = sum(len(d.new_labels) for d in deltas)
    labels_dropped = sum(len(d.dropped_labels) for d in deltas)
    confidence_changes = sum(
        1 for d in deltas for delta in d.confidence_deltas.values() if delta != 0.0
    )
    violating = sum(1 for d in deltas if d.violations)

    gained = [len(d.new_labels) for d in deltas if d.new_labels]
    mean_added = sum(gained) / len(gained) if gained else 0.0
    nonzero = [v for d in deltas for v in d.confidence_deltas.values() if v != 0.0]
    mean_signed = sum(nonzero) / len(nonzero) if nonzero else 0.0

    return EvolutionReport(
        old_epoch=max((r.captured_at for r in old_snapshot), default=EPOCH_ZERO),
        new_epoch=max((r.captured_at for r in new_snapshot), default=EPOCH_ZERO),
        deltas=tuple(deltas),
        labels_added=labels_added,
        labels_dropped=labels_dropped,
        confidence_changes=confidence_changes,
        violating_images=violating,
        mean_label_delta_added=mean_added,
        mean_signed_confidence_delta=mean_signed,
        violations=tuple(_by_code_then_position(violations)),
    )


def collect_violations(
    old_snapshot,
    new_snapshot,
    dataset: BenchmarkDataset,
    rules: ThresholdRules,
) -> list[Violation]:
    """All benchmark violations across a snapshot pair, sorted by code then
    dataset position (the order validation reports them in)."""
    pairs = aligned_comparisons(old_snapshot, new_snapshot, dataset)
    return _by_code_then_position(v for k, c, item in pairs for v in c.violations(item, rules, k))
