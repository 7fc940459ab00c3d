"""Seeded inputs for the two benchmark workloads.

Everything here is plain Python over label maps (image_ref -> {label:
confidence}); nothing imports driftguard. The same seed always yields the
same images, epochs, rules and traffic.

A workload is a list of epoch states. Epoch 0 is the baseline; each later
epoch applies drop / add / shift transformations to the previous state,
exactly as the drift-script format describes them, and the benchmark writes
those transformations out as the script `drift-guard simulate` serves.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

BASE_URL = "http://images.test/"

# Label vocabulary of the in-repo simulator's random_drift_script, so images
# look like the ones its tests use.
VOCABULARY = [
    "animal", "architecture", "beach", "bicycle", "bird", "blue sky", "bridge",
    "building", "bus", "car", "cat", "child", "city", "cloud", "dog", "fauna",
    "field", "flower", "food", "forest", "fruit", "grass", "house", "human",
    "ingredient", "lake", "landscape", "mammal", "motor vehicle", "mountain",
    "ocean", "organism", "person", "plant", "portrait", "road", "rock", "roof",
    "sand", "sea", "sky", "snow", "street", "sunset", "terrestrial animal",
    "transport", "tree", "vehicle", "water", "wildlife",
]

SEVERITY_KEYS = ("label_delta", "confidence_delta", "expected_labels")

# The 8x8 grid `drift-guard tune` sweeps on both workloads.
TUNE_LABELS = (1, 2, 3, 4, 5, 6, 7, 8)
TUNE_CONFS = (0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5)


@dataclass(frozen=True)
class Rules:
    max_labels: int
    min_confidence: float
    max_delta_labels: int
    max_delta_confidence: float
    severity: str  # the same level for all three benchmark checks

    def to_wire(self) -> dict:
        """The `rules` object of POST /benchmark."""
        return {
            "max_labels": self.max_labels,
            "min_confidence": self.min_confidence,
            "max_delta_labels": self.max_delta_labels,
            "max_delta_confidence": self.max_delta_confidence,
            "expected_labels": [],
            "severity": {key: self.severity for key in SEVERITY_KEYS},
        }

    def to_flat(self) -> str:
        """The same rules as a key=value rules file (replay) or config block."""
        lines = [
            f"rules.max_labels={self.max_labels}",
            f"rules.min_confidence={self.min_confidence!r}",
            f"rules.max_delta_labels={self.max_delta_labels}",
            f"rules.max_delta_confidence={self.max_delta_confidence!r}",
        ]
        lines += [f"rules.severity.{key}={self.severity}" for key in SEVERITY_KEYS]
        return "\n".join(lines) + "\n"


@dataclass
class Workload:
    name: str
    seed: int
    rules: Rules
    refs: list                     # image refs in dataset order
    expected: dict                 # image_ref -> frozenset of expected labels
    ground_truth: dict             # image_ref -> baseline top label
    states: list                   # epoch -> {image_ref: {label: confidence}}
    script: list                   # epoch -> [(op, ref, label, value)]
    setups: int = 3                # set-ups timed per run (median reported)
    repeats: int = 7               # tune and replay timings per run
    restarts: int = 7              # restart timings per run
    stale_mode: str = "previous"   # "previous" token or "assorted" older tokens

    @property
    def n(self) -> int:
        return len(self.refs)

    @property
    def rotations(self) -> int:
        return len(self.states) - 1

    def items(self) -> list:
        """The `items` array of POST /benchmark."""
        return [
            {
                "image_ref": ref,
                "ground_truth": self.ground_truth[ref],
                "expected_labels": sorted(self.expected[ref]),
            }
            for ref in self.refs
        ]

    def script_text(self) -> str:
        lines = []
        for index, ops in enumerate(self.script):
            lines.append(f"[epoch {index}]")
            for op, ref, label, value in ops:
                lines.append(f"{op} {ref} {label}" + ("" if value is None else f" {value!r}"))
        return "\n".join(lines) + "\n"


def _clamp(value: float) -> float:
    return min(1.0, max(0.0, value))


def _top(labels: dict) -> str:
    return min(labels.items(), key=lambda kv: (-kv[1], kv[0]))[0]


class _Builder:
    """Applies transformations to a running state and records them as script
    lines, so the state the benchmark expects is the state it told the
    simulator to serve."""

    def __init__(self):
        self.state: dict = {}
        self.states: list = []
        self.script: list = []
        self._ops: list = []

    def add(self, ref, label, confidence):
        labels = self.state.setdefault(ref, {})
        assert label not in labels
        labels[label] = _clamp(confidence)
        self._ops.append(("add", ref, label, confidence))

    def drop(self, ref, label):
        del self.state[ref][label]
        self._ops.append(("drop", ref, label, None))

    def shift(self, ref, label, delta):
        labels = self.state[ref]
        labels[label] = _clamp(labels[label] + delta)
        self._ops.append(("shift", ref, label, delta))

    def close_epoch(self):
        self.states.append({ref: dict(labels) for ref, labels in self.state.items()})
        self.script.append(self._ops)
        self._ops = []


def _baseline(rng, builder, n_images):
    """Epoch 0 the way random_drift_script builds it: 5-10 labels per image,
    confidences uniform in [0.05, 0.99], an expected label on ~30 %."""
    refs, expected, truth = [], {}, {}
    for k in range(n_images):
        ref = f"{BASE_URL}img-{k:04d}.jpg"
        refs.append(ref)
        labels = rng.sample(VOCABULARY, rng.randint(5, 10))
        for label in labels:
            builder.add(ref, label, round(rng.uniform(0.05, 0.99), 6))
        truth[ref] = _top(builder.state[ref])
        expected[ref] = frozenset({rng.choice(labels)}) if rng.random() < 0.3 else frozenset()
    builder.close_epoch()
    return refs, expected, truth


def _random_drift(rng, builder, refs, fraction):
    """One random_drift_script-style epoch on the current state: each image
    drifts with probability `fraction` by dropping up to 3 labels, adding up
    to 3 fresh ones and shifting up to 4 of the rest by up to +-0.4."""
    for ref in refs:
        if rng.random() >= fraction:
            continue
        labels = sorted(builder.state[ref])
        in_play = set(labels)
        for label in rng.sample(labels, rng.randint(0, min(3, len(labels)))):
            builder.drop(ref, label)
            in_play.discard(label)
        fresh = [v for v in VOCABULARY if v not in labels]
        for label in rng.sample(fresh, rng.randint(0, 3)):
            builder.add(ref, label, round(rng.uniform(0.05, 0.99), 6))
        for label in rng.sample(sorted(in_play), rng.randint(0, min(4, len(in_play)))):
            builder.shift(ref, label, round(rng.uniform(-0.4, 0.4), 6))
    builder.close_epoch()


def drift_workload(seed: int, n_images: int = 2000, rotations: int = 2) -> Workload:
    """drift_n2000: a large benchmark where ~70 % of images drift in every
    epoch, guarded with `error` severity so stale clients get 412s."""
    rng = random.Random(f"drift/{seed}/{n_images}")
    builder = _Builder()
    refs, expected, truth = _baseline(rng, builder, n_images)
    for _ in range(rotations):
        _random_drift(rng, builder, refs, 0.7)
    return Workload(
        name="drift_n2000",
        seed=seed,
        rules=Rules(
            max_labels=10,
            min_confidence=0.2,
            max_delta_labels=5,
            max_delta_confidence=0.01,
            severity="error",
        ),
        refs=refs,
        expected=expected,
        ground_truth=truth,
        states=builder.states,
        script=builder.script,
        setups=2,
        repeats=3,
        restarts=6,
        stale_mode="previous",
    )


CHURN_RULES = Rules(
    max_labels=10,
    min_confidence=0.1,
    max_delta_labels=3,
    max_delta_confidence=0.05,
    severity="warning",
)


def _churn_epoch(rng, builder, refs, expected, moves):
    """Move a few images just past one threshold each. Images keep at most
    10 labels so max_labels never truncates, and an expected label dropped
    in one epoch comes back in the next."""
    rules = CHURN_RULES
    for ref in refs:
        missing = expected[ref] - set(builder.state[ref])
        for label in sorted(missing):
            builder.add(ref, label, round(rng.uniform(0.3, 0.9), 6))
    for ref in rng.sample(refs, moves):
        labels = builder.state[ref]
        kinds = ["confidence", "labels"]
        if expected[ref] & set(labels):
            kinds.append("expected")
        kind = rng.choice(kinds)
        if kind == "confidence":
            label = rng.choice(sorted(labels))
            step = rules.max_delta_confidence + round(rng.uniform(0.001, 0.02), 6)
            builder.shift(ref, label, -step if labels[label] >= 0.5 else step)
        elif kind == "labels":
            protected = expected[ref]
            droppable = sorted(set(labels) - protected)
            fresh = [v for v in VOCABULARY if v not in labels]
            n_drop = 1 if len(labels) <= 8 else 2
            n_drop = min(n_drop, len(droppable))
            for label in rng.sample(droppable, n_drop):
                builder.drop(ref, label)
            for label in rng.sample(fresh, rules.max_delta_labels - n_drop):
                builder.add(ref, label, round(rng.uniform(0.05, 0.99), 6))
        else:
            builder.drop(ref, rng.choice(sorted(expected[ref] & set(labels))))
    builder.close_epoch()


def churn_workload(seed: int, n_images: int = 200, epochs: int = 20) -> Workload:
    """churn_n200: a small benchmark with a long token history; each epoch
    moves 3-6 images just past a threshold, guarded with `warning` severity
    so stale clients are served and the operator gets a callback."""
    rng = random.Random(f"churn/{seed}/{n_images}")
    builder = _Builder()
    refs, expected, truth = _baseline(rng, builder, n_images)
    for _ in range(epochs):
        _churn_epoch(rng, builder, refs, expected, rng.randint(3, 6))
    return Workload(
        name="churn_n200",
        seed=seed,
        rules=CHURN_RULES,
        refs=refs,
        expected=expected,
        ground_truth=truth,
        states=builder.states,
        script=builder.script,
        setups=3,
        stale_mode="assorted",
    )


def build(workload: str, seed: int, quick: bool = False) -> Workload:
    """The named workload; `quick` shrinks it to check the harness itself."""
    if workload == "drift_n2000":
        wl = drift_workload(seed, 60, 2) if quick else drift_workload(seed)
    elif workload == "churn_n200":
        wl = churn_workload(seed, 30, 3) if quick else churn_workload(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if quick:
        wl.setups = wl.repeats = wl.restarts = 2
    return wl


WORKLOADS = ("drift_n2000", "churn_n200")
