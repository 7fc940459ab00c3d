"""A deterministic mock of the evolving labelling service.

A drift script declares the served corpus as a sequence of epochs. Epoch 0
builds the baseline by applying `add` lines to an empty corpus; every
later epoch transforms the previous one. The server answers the real wire
format and only moves between epochs when told to, so tests and demos can
replay exact evolution scenarios.

Script file format (UTF-8, LF):

    [epoch 0]
    add <image_ref> <label ...> <confidence>
    [epoch 1]
    drop <image_ref> <label ...>
    shift <image_ref> <label ...> <delta>
    replace_top <image_ref> <new label ...> [confidence]

Labels may contain spaces; the trailing numeric field (where the
operation takes one) ends the label. Blank lines and # comments are
ignored. The seed never changes the corpus structure, only the synthetic
ontology ids, so equal (script, seed) pairs serve byte-identical bodies.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, replace
from datetime import datetime, timezone

from .httpbase import JsonHttpServer
from .types import BenchmarkItem, ContractError, LabelAnnotation, LabelledResponse, sha256_hex
from .wire import WireFormatError, parse_wire_request, serialize_wire

KINDS_WITH_VALUE = {"add", "shift"}
KINDS = ("add", "drop", "shift", "replace_top")


class ScriptError(ValueError):
    """Drift script text is malformed or internally inconsistent."""


@dataclass(frozen=True)
class Transformation:
    kind: str
    label: str
    value: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ContractError(f"unknown transformation kind {self.kind!r}")
        if self.kind in KINDS_WITH_VALUE and self.value is None:
            raise ContractError(f"{self.kind} requires a numeric value")


@dataclass(frozen=True)
class DriftScript:
    epochs: tuple  # each epoch: dict image_ref -> tuple[Transformation, ...]
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(
            self,
            "epochs",
            tuple({ref: tuple(ts) for ref, ts in epoch.items()} for epoch in self.epochs),
        )
        if not self.epochs:
            raise ContractError("drift script needs at least one epoch")


def parse_script(text: str, seed: int = 0) -> DriftScript:
    epochs: list[dict] = []
    current: dict | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScriptError(f"line {lineno}: unterminated section header")
            fields = line[1:-1].split()
            if len(fields) != 2 or fields[0] != "epoch":
                raise ScriptError(f"line {lineno}: expected [epoch N]")
            try:
                index = int(fields[1])
            except ValueError:
                raise ScriptError(f"line {lineno}: epoch index must be an integer") from None
            if index != len(epochs):
                raise ScriptError(
                    f"line {lineno}: epoch {index} out of order (expected {len(epochs)})"
                )
            current = {}
            epochs.append(current)
            continue
        if current is None:
            raise ScriptError(f"line {lineno}: transformation before any [epoch N] header")
        tokens = line.split()
        kind = tokens[0]
        if kind not in KINDS:
            raise ScriptError(f"line {lineno}: unknown operation {kind!r}")
        if len(tokens) < 3:
            raise ScriptError(f"line {lineno}: {kind} needs an image_ref and a label")
        image_ref = tokens[1]
        rest = tokens[2:]
        value = None
        if kind in KINDS_WITH_VALUE:
            if len(rest) < 2:
                raise ScriptError(f"line {lineno}: {kind} needs a label and a value")
            try:
                value = float(rest[-1])
            except ValueError:
                raise ScriptError(f"line {lineno}: {kind} value {rest[-1]!r} is not numeric") from None
            label = " ".join(rest[:-1])
        elif kind == "replace_top" and len(rest) >= 2:
            # trailing numeric field is an optional new confidence
            try:
                value = float(rest[-1])
                label = " ".join(rest[:-1])
            except ValueError:
                label = " ".join(rest)
        else:
            label = " ".join(rest)
        current.setdefault(image_ref, []).append(
            Transformation(kind=kind, label=label, value=value)
        )
    if not epochs:
        raise ScriptError("script defines no epochs")
    return DriftScript(epochs=tuple(epochs), seed=seed)


def script_to_text(script: DriftScript) -> str:
    lines = []
    for index, epoch in enumerate(script.epochs):
        lines.append(f"[epoch {index}]")
        for image_ref in sorted(epoch):
            for t in epoch[image_ref]:
                if t.value is not None:
                    lines.append(f"{t.kind} {image_ref} {t.label} {t.value!r}")
                else:
                    lines.append(f"{t.kind} {image_ref} {t.label}")
    return "\n".join(lines) + "\n"


def _clamp(value: float) -> float:
    return min(1.0, max(0.0, value))


def _apply(state: dict, image_ref: str, t: Transformation, epoch_index: int):
    labels = state.setdefault(image_ref, {})
    where = f"epoch {epoch_index}, image {image_ref!r}"
    if t.kind == "add":
        if t.label in labels:
            raise ScriptError(f"{where}: add of existing label {t.label!r}")
        labels[t.label] = _clamp(t.value)
    elif t.kind == "drop":
        if t.label not in labels:
            raise ScriptError(f"{where}: drop of unknown label {t.label!r}")
        del labels[t.label]
    elif t.kind == "shift":
        if t.label not in labels:
            raise ScriptError(f"{where}: shift of unknown label {t.label!r}")
        labels[t.label] = _clamp(labels[t.label] + t.value)
    elif t.kind == "replace_top":
        if not labels:
            raise ScriptError(f"{where}: replace_top on an empty label set")
        if t.label in labels:
            raise ScriptError(f"{where}: replace_top target {t.label!r} already present")
        top = min(labels.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        confidence = labels.pop(top)
        labels[t.label] = _clamp(t.value) if t.value is not None else confidence


def build_epoch_states(script: DriftScript) -> list[dict]:
    """Cumulative corpus per epoch: image_ref -> {label: confidence}."""
    states = []
    state: dict = {}
    for index, epoch in enumerate(script.epochs):
        for image_ref, transformations in epoch.items():
            for t in transformations:
                _apply(state, image_ref, t, index)
        states.append({ref: dict(labels) for ref, labels in state.items()})
    return states


def _mid_for(seed: int, label: str) -> str:
    return "/sim/" + sha256_hex(f"{seed}:{label}")[:10]


def _responses(state: dict, seed: int, epoch_index: int) -> dict:
    """image_ref -> LabelledResponse for one epoch's state, ordered by
    image_ref, at a fixed synthetic capture time (the epoch index, seconds
    since the epoch)."""
    captured = datetime.fromtimestamp(epoch_index, timezone.utc)
    mids = {label: _mid_for(seed, label) for label in set().union(*state.values())}
    responses = {}
    for image_ref in sorted(state):
        ranked = sorted(state[image_ref].items(), key=lambda kv: (-kv[1], kv[0]))
        annotations = [
            LabelAnnotation(label, score, ontology_id=mids[label], topicality=score)
            for label, score in ranked
        ]
        responses[image_ref] = LabelledResponse(image_ref, annotations, captured)
    return responses


def corpus_for_epoch(script: DriftScript, epoch_index: int) -> list[LabelledResponse]:
    """All responses an epoch serves, ordered by image_ref."""
    state = build_epoch_states(script)[epoch_index]
    return list(_responses(state, script.seed, epoch_index).values())


class SimulatorServer(JsonHttpServer):
    """Serves a drift script over HTTP in the upstream's wire format.

    POST with {"url", "maxResults"} answers from the active epoch; POST
    /advance moves to the next epoch (atomically for in-flight requests)
    and GET /epoch reports the index. Unknown urls get a wire-level 404,
    malformed request bodies a 400. Each epoch's responses are built once,
    when the server enters that epoch.
    """

    def __init__(self, script: DriftScript, host: str = "127.0.0.1", port: int = 0):
        # every epoch's state is checked now; its responses wait for advance_epoch
        states = build_epoch_states(script)
        self._epochs = (
            _responses(state, script.seed, index) for index, state in enumerate(states)
        )
        self._epoch = 0
        self._served = next(self._epochs)
        self._lock = threading.Lock()
        super().__init__(host, port, self._route)

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def endpoint(self) -> str:
        return self.base_url + "/annotate"

    def advance_epoch(self) -> int:
        with self._lock:
            served = next(self._epochs, None)
            if served is not None:
                # once /epoch reports an epoch, /annotate answers from it
                self._served = served
                self._epoch += 1
            return self._epoch

    def _route(self, method: str, path: str, body, headers):
        if method == "GET" and path == "/epoch":
            return 200, {}, {"epoch": self._epoch}
        if method == "POST" and path == "/advance":
            return 200, {}, {"epoch": self.advance_epoch()}
        if method == "POST":
            try:
                url, max_results = parse_wire_request(body)
            except WireFormatError as exc:
                return 400, {}, {"error": str(exc)}
            response = self._served.get(url)
            if response is None:
                return 404, {}, {"error": f"no such image: {url}"}
            if max_results is not None and max_results < len(response.annotations):
                response = replace(response, annotations=response.annotations[:max_results])
            return 200, {}, serialize_wire(response)
        return 404, {}, {"error": "not found"}


_VOCABULARY = [
    "animal", "architecture", "beach", "bicycle", "bird", "blue sky", "bridge",
    "building", "bus", "car", "cat", "child", "city", "cloud", "dog", "fauna",
    "field", "flower", "food", "forest", "fruit", "grass", "house", "human",
    "ingredient", "lake", "landscape", "mammal", "motor vehicle", "mountain",
    "ocean", "organism", "person", "plant", "portrait", "road", "rock", "roof",
    "sand", "sea", "sky", "snow", "street", "sunset", "terrestrial animal",
    "transport", "tree", "vehicle", "water", "wildlife",
]


def random_drift_script(
    seed: int,
    n_images: int,
    base_url: str = "http://images.test/",
    drift_fraction: float = 0.7,
):
    """Generate a two-epoch script with randomized but reproducible drift.

    Returns (script, items): the benchmark items carry ground truth (the
    baseline top label) and, for a subset of images, an expected label
    drawn from the baseline so expected-label violations occur when epoch
    1 drops it.

    Structure is deterministic in the seed alone.
    """
    rng = random.Random(seed)
    base_epoch: dict = {}
    drift_epoch: dict = {}
    items = []
    for k in range(n_images):
        image_ref = f"{base_url}img-{k:04d}.jpg"
        labels = rng.sample(_VOCABULARY, rng.randint(5, 10))
        confidences = {
            label: round(rng.uniform(0.05, 0.99), 6) for label in labels
        }
        base_epoch[image_ref] = [
            Transformation("add", label, confidences[label]) for label in labels
        ]
        top = min(confidences.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        expected = frozenset()
        if rng.random() < 0.3:
            expected = frozenset({rng.choice(labels)})
        items.append(
            BenchmarkItem(image_ref=image_ref, ground_truth=top, expected_labels=expected)
        )

        if rng.random() >= drift_fraction:
            continue
        transformations = []
        in_play = set(labels)
        for label in rng.sample(labels, rng.randint(0, min(3, len(labels)))):
            transformations.append(Transformation("drop", label))
            in_play.discard(label)
        fresh = [v for v in _VOCABULARY if v not in labels]
        for label in rng.sample(fresh, rng.randint(0, 3)):
            transformations.append(
                Transformation("add", label, round(rng.uniform(0.05, 0.99), 6))
            )
        for label in rng.sample(sorted(in_play), rng.randint(0, min(4, len(in_play)))):
            transformations.append(
                Transformation("shift", label, round(rng.uniform(-0.4, 0.4), 6))
            )
        if transformations:
            drift_epoch[image_ref] = transformations
    return DriftScript(epochs=(base_epoch, drift_epoch), seed=seed), items
