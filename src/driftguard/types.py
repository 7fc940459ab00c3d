"""Domain types shared across the guard proxy.

Everything here is an immutable value object. Canonical serialization
(sorted keys, compact separators, UTF-8) backs every digest in the system,
so two equal values always hash to the same fingerprint.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from email.utils import format_datetime, parsedate_to_datetime
from pathlib import Path

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"
SEVERITY_INFO = "info"
SEVERITIES = (SEVERITY_ERROR, SEVERITY_WARNING, SEVERITY_INFO)

CATEGORY_LABEL_DELTA = "label_delta"
CATEGORY_CONFIDENCE_DELTA = "confidence_delta"
CATEGORY_EXPECTED_LABELS = "expected_labels"
CHECK_CATEGORIES = (
    CATEGORY_LABEL_DELTA,
    CATEGORY_CONFIDENCE_DELTA,
    CATEGORY_EXPECTED_LABELS,
)

# Stable code <-> type bijection for precondition failures. 0-6 are
# robustness failures (the request cannot even be compared), 7-9 are
# benchmark failures (the service has drifted beyond tolerance).
ERROR_TYPES = {
    0: "NO_KEY_YET",
    1: "SERVICE_MISMATCH",
    2: "DATASET_MISMATCH",
    3: "SUCCESS_MISMATCH",
    4: "MIN_CONFIDENCE_MISMATCH",
    5: "MAX_LABELS_MISMATCH",
    6: "RESPONSE_LENGTH_MISMATCH",
    7: "LABEL_DELTA_MISMATCH",
    8: "CONFIDENCE_DELTA_MISMATCH",
    9: "EXPECTED_LABELS_MISMATCH",
}

CODE_LABEL_DELTA = 7
CODE_CONFIDENCE_DELTA = 8
CODE_EXPECTED_LABELS = 9

CATEGORY_FOR_CODE = {
    CODE_LABEL_DELTA: CATEGORY_LABEL_DELTA,
    CODE_CONFIDENCE_DELTA: CATEGORY_CONFIDENCE_DELTA,
    CODE_EXPECTED_LABELS: CATEGORY_EXPECTED_LABELS,
}


class ContractError(ValueError):
    """A caller violated an operation's preconditions or a type invariant."""


def canonical_json(obj) -> str:
    """Byte-stable JSON: sorted keys, no whitespace, UTF-8 passthrough."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def pretty_json(obj) -> str:
    """Readable JSON: sorted keys, UTF-8 passthrough, two-space indent."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2)


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def parse_json(data: bytes):
    """The JSON document in `data`, which must be UTF-8 (RFC 8259 §8.1; a
    leading byte order mark is ignored, as §8.1 allows). Anything that is
    not a JSON document raises ValueError, nesting deeper than the parser
    can hold included. The one JSON decoder for input read from outside."""
    try:
        return json.loads(data.decode("utf-8").removeprefix("\ufeff"))
    except RecursionError:
        raise ValueError("JSON document nested too deeply") from None


def read_utf8(path) -> str:
    """The text of a UTF-8 input file; a file that does not decode raises a
    ValueError that names it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc


EPOCH_ZERO = datetime.fromtimestamp(0, timezone.utc)


def utc_now_second() -> datetime:
    """Current UTC time truncated to whole seconds (the system's resolution)."""
    return datetime.now(timezone.utc).replace(microsecond=0)


def iso_ts(dt: datetime) -> str:
    return dt.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def parse_iso_ts(text: str) -> datetime:
    return datetime.strptime(text, "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=timezone.utc)


def http_date(dt: datetime) -> str:
    return format_datetime(dt.astimezone(timezone.utc), usegmt=True)


def parse_http_date(text: str) -> datetime:
    parsed = parsedate_to_datetime(text)
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    return parsed


@dataclass(frozen=True)
class LabelAnnotation:
    """One (label, confidence) pair from a labelling response."""

    label: str
    confidence: float
    ontology_id: str | None = None
    topicality: float | None = None

    def __post_init__(self):
        if not self.label.strip():
            raise ContractError("annotation label must be non-empty")
        if not 0.0 <= self.confidence <= 1.0:
            raise ContractError(f"confidence {self.confidence!r} outside [0, 1]")
        if self.topicality is not None and not 0.0 <= self.topicality <= 1.0:
            raise ContractError(f"topicality {self.topicality!r} outside [0, 1]")

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "confidence": self.confidence,
            "ontology_id": self.ontology_id,
            "topicality": self.topicality,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LabelAnnotation":
        return cls(
            label=data["label"],
            confidence=data["confidence"],
            ontology_id=data.get("ontology_id"),
            topicality=data.get("topicality"),
        )


@dataclass(frozen=True)
class LabelledResponse:
    """One service answer for one image.

    Annotations are ordered by confidence descending and carry unique label
    text. A failed upstream call is represented as success=False with no
    annotations; the cause lives in the log, not here.
    """

    image_ref: str
    annotations: tuple[LabelAnnotation, ...]
    captured_at: datetime
    success: bool = True

    def __post_init__(self):
        object.__setattr__(self, "annotations", tuple(self.annotations))
        if not self.success and self.annotations:
            raise ContractError("failed response must carry no annotations")
        seen = set()
        previous = None
        for ann in self.annotations:
            if ann.label in seen:
                raise ContractError(f"duplicate label {ann.label!r} in response")
            seen.add(ann.label)
            if previous is not None and ann.confidence > previous:
                raise ContractError("annotations must be sorted by confidence descending")
            previous = ann.confidence

    def labels(self) -> set[str]:
        return {ann.label for ann in self.annotations}

    def confidences(self) -> dict[str, float]:
        return {ann.label: ann.confidence for ann in self.annotations}

    def top(self) -> LabelAnnotation | None:
        """Highest-confidence annotation; ties break on label text ascending."""
        if not self.annotations:
            return None
        return min(self.annotations, key=lambda a: (-a.confidence, a.label))

    def to_dict(self) -> dict:
        return {
            "image_ref": self.image_ref,
            "annotations": [ann.to_dict() for ann in self.annotations],
            "captured_at": iso_ts(self.captured_at),
            "success": self.success,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LabelledResponse":
        return cls(
            image_ref=data["image_ref"],
            annotations=tuple(LabelAnnotation.from_dict(a) for a in data["annotations"]),
            captured_at=parse_iso_ts(data["captured_at"]),
            success=data["success"],
        )


def _label_set(labels) -> frozenset:
    """The labels of a JSON array of strings; anything else is refused."""
    if not isinstance(labels, list) or not all(isinstance(label, str) for label in labels):
        raise ContractError("expected_labels must be an array of strings")
    return frozenset(labels)


@dataclass(frozen=True)
class BenchmarkItem:
    """One benchmark image with its ground truth and mandatory labels."""

    image_ref: str
    ground_truth: str
    expected_labels: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "expected_labels", frozenset(self.expected_labels))
        if not isinstance(self.image_ref, str) or not self.image_ref:
            raise ContractError("benchmark item needs an image_ref")
        if not isinstance(self.ground_truth, str):
            raise ContractError("benchmark item ground_truth must be text")

    def to_dict(self) -> dict:
        return {
            "image_ref": self.image_ref,
            "ground_truth": self.ground_truth,
            "expected_labels": sorted(self.expected_labels),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BenchmarkItem":
        return cls(
            image_ref=data["image_ref"],
            ground_truth=data["ground_truth"],
            expected_labels=_label_set(data.get("expected_labels", [])),
        )


def dataset_fingerprint(items) -> str:
    """Canonical digest over the item list; identity of a benchmark dataset."""
    return sha256_hex(canonical_json([item.to_dict() for item in items]))


@dataclass(frozen=True)
class BenchmarkDataset:
    dataset_id: str
    items: tuple[BenchmarkItem, ...]
    fingerprint: str

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        if not isinstance(self.dataset_id, str):
            raise ContractError("dataset_id must be text")
        if not self.items:
            raise ContractError("benchmark dataset must contain at least one item")
        refs = [item.image_ref for item in self.items]
        if len(set(refs)) != len(refs):
            dupes = sorted({r for r in refs if refs.count(r) > 1})
            raise ContractError(f"duplicate image_ref in dataset: {dupes}")
        expected = dataset_fingerprint(self.items)
        if self.fingerprint != expected:
            raise ContractError("dataset fingerprint does not match its items")

    @classmethod
    def create(cls, dataset_id: str, items) -> "BenchmarkDataset":
        items = tuple(items)
        return cls(dataset_id=dataset_id, items=items, fingerprint=dataset_fingerprint(items))

    def to_dict(self) -> dict:
        return {
            "dataset_id": self.dataset_id,
            "items": [item.to_dict() for item in self.items],
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BenchmarkDataset":
        return cls(
            dataset_id=data["dataset_id"],
            items=tuple(BenchmarkItem.from_dict(i) for i in data["items"]),
            fingerprint=data["fingerprint"],
        )


def _default_severity() -> dict:
    return {category: SEVERITY_ERROR for category in CHECK_CATEGORIES}


# what ThresholdRules.from_dict takes as it stands; expected_labels is mapped
_RULE_FIELDS = (
    "max_labels", "min_confidence", "max_delta_labels", "max_delta_confidence", "severity"
)


@dataclass(frozen=True)
class ThresholdRules:
    """Operator-set tolerances deciding when service change becomes an error.

    max_labels caps how many annotations a response may carry and
    min_confidence prunes low-confidence ones; max_delta_labels and
    max_delta_confidence are the drift thresholds (a measured change at or
    above either value is a violation); expected_labels_global must appear
    in every response. severity maps each check category to error, warning
    or info handling.
    """

    max_labels: int = 10
    min_confidence: float = 0.0
    max_delta_labels: int = 5
    max_delta_confidence: float = 0.01
    expected_labels_global: frozenset[str] = frozenset()
    severity: dict = field(default_factory=_default_severity)

    def __post_init__(self):
        object.__setattr__(self, "expected_labels_global", frozenset(self.expected_labels_global))
        if not isinstance(self.severity, dict):
            raise ContractError("severity must be an object")
        object.__setattr__(self, "severity", dict(self.severity))
        # a bool is an int to Python but not a count or a confidence here
        if type(self.max_labels) is not int or self.max_labels < 1:
            raise ContractError("max_labels must be a positive integer")
        if type(self.min_confidence) not in (int, float) or not 0.0 <= self.min_confidence <= 1.0:
            raise ContractError("min_confidence must lie in [0, 1]")
        if type(self.max_delta_labels) is not int or self.max_delta_labels < 1:
            raise ContractError("max_delta_labels must be a positive integer")
        if (
            type(self.max_delta_confidence) not in (int, float)
            or not 0.0 < self.max_delta_confidence <= 1.0
        ):
            raise ContractError("max_delta_confidence must lie in (0, 1]")
        if set(self.severity) != set(CHECK_CATEGORIES):
            raise ContractError(f"severity must cover exactly {CHECK_CATEGORIES}")
        for category, level in self.severity.items():
            if level not in SEVERITIES:
                raise ContractError(f"unknown severity {level!r} for {category}")

    def to_dict(self) -> dict:
        return {
            "max_labels": self.max_labels,
            "min_confidence": self.min_confidence,
            "max_delta_labels": self.max_delta_labels,
            "max_delta_confidence": self.max_delta_confidence,
            "expected_labels": sorted(self.expected_labels_global),
            "severity": {c: self.severity[c] for c in CHECK_CATEGORIES},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ThresholdRules":
        """The rules in `data` (the shape to_dict writes); a missing field
        takes its default."""
        fields = {name: data[name] for name in _RULE_FIELDS if name in data}
        if "expected_labels" in data:
            fields["expected_labels_global"] = _label_set(data["expected_labels"])
        return cls(**fields)

    def canonical_text(self) -> str:
        return canonical_json(self.to_dict())
