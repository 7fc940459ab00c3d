"""Captured-response corpora on disk: one wire-format JSON file per image.

A corpus directory pairs with another from a different epoch for offline
diffing; matching file names align the two sides without a live service.
"""

from __future__ import annotations

import json
import re
from datetime import datetime, timezone
from pathlib import Path

from .types import (
    BenchmarkDataset,
    BenchmarkItem,
    ContractError,
    LabelledResponse,
    read_utf8,
    sha256_hex,
)
from .wire import parse_wire_response, serialize_wire

REPLAY_EPOCH = datetime.fromtimestamp(0, timezone.utc)

_UNSAFE = re.compile(r"[^A-Za-z0-9._-]+")


def sanitize_ref(image_ref: str) -> str:
    """Deterministic, filesystem-safe stem for an image reference. A short
    digest suffix keeps distinct refs from colliding after substitution."""
    stem = _UNSAFE.sub("_", image_ref).strip("_") or "image"
    return f"{stem[:80]}-{sha256_hex(image_ref)[:8]}"


def corpus_path(directory, image_ref: str) -> Path:
    return Path(directory) / f"{sanitize_ref(image_ref)}.json"


def write_corpus(directory, responses) -> list[Path]:
    """Write wire files for an iterable of LabelledResponse; byte-stable."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for response in responses:
        path = corpus_path(directory, response.image_ref)
        body = json.dumps(serialize_wire(response), ensure_ascii=False, indent=2) + "\n"
        path.write_text(body, encoding="utf-8")
        written.append(path)
    return written


def read_response_file(path, image_ref: str) -> LabelledResponse:
    payload = json.loads(read_utf8(path))
    return parse_wire_response(payload, image_ref=image_ref, captured_at=REPLAY_EPOCH)


def load_corpus_pair(old_dir, new_dir, items=None):
    """Load two aligned corpus directories.

    With benchmark items given, files are located via sanitize_ref and the
    dataset carries the items' ground truth and expected labels. Without
    them, the shared file stems become the image references and the
    dataset holds placeholder items.

    Returns (dataset, old_snapshot, new_snapshot).
    """
    old_dir, new_dir = Path(old_dir), Path(new_dir)
    if items is not None:
        items = list(items)
        refs = [(item.image_ref, corpus_path(old_dir, item.image_ref).name) for item in items]
    else:
        old_names = {p.name for p in old_dir.glob("*.json")}
        new_names = {p.name for p in new_dir.glob("*.json")}
        if old_names != new_names:
            only_old = sorted(old_names - new_names)
            only_new = sorted(new_names - old_names)
            raise ContractError(
                f"corpus directories are not aligned (only old: {only_old}, only new: {only_new})"
            )
        if not old_names:
            raise ContractError("corpus directories are empty")
        names = sorted(old_names)
        items = [BenchmarkItem(image_ref=Path(n).stem, ground_truth="") for n in names]
        refs = [(item.image_ref, name) for item, name in zip(items, names)]

    old_snapshot, new_snapshot = [], []
    for (image_ref, name) in refs:
        old_path, new_path = old_dir / name, new_dir / name
        for path in (old_path, new_path):
            if not path.is_file():
                raise ContractError(f"missing corpus file {path}")
        old_snapshot.append(read_response_file(old_path, image_ref))
        new_snapshot.append(read_response_file(new_path, image_ref))

    dataset = BenchmarkDataset.create("replay", items)
    return dataset, old_snapshot, new_snapshot
