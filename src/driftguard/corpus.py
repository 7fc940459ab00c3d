"""Captured-response corpora on disk: one wire-format JSON file per image.

A corpus directory pairs with another from a different epoch for offline
diffing; matching file names align the two sides without a live service.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

from .types import (
    EPOCH_ZERO,
    BenchmarkDataset,
    BenchmarkItem,
    ContractError,
    LabelledResponse,
    parse_json,
    sha256_hex,
)
from .wire import parse_wire_response, serialize_wire

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
    """The response in one corpus file. A missing file raises ContractError
    and one that does not hold a UTF-8 JSON wire body a ValueError, each
    naming the file."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except (FileNotFoundError, IsADirectoryError):
        raise ContractError(f"missing corpus file {path}") from None
    try:
        return parse_wire_response(parse_json(data), image_ref=image_ref, captured_at=EPOCH_ZERO)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_corpus_pair(old_dir, new_dir, items=None):
    """Load two aligned corpus directories.

    With benchmark items given, files are located via sanitize_ref and the
    dataset carries the items' ground truth and expected labels. Without
    them, the shared file stems become the image references and the
    dataset holds placeholder items.

    Returns (dataset, old_snapshot, new_snapshot).
    """
    if items is not None:
        items = list(items)
        refs = [(item.image_ref, f"{sanitize_ref(item.image_ref)}.json") for item in items]
    else:
        old_names = {p.name for p in Path(old_dir).glob("*.json")}
        new_names = {p.name for p in Path(new_dir).glob("*.json")}
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
    for image_ref, name in refs:
        old_snapshot.append(read_response_file(os.path.join(old_dir, name), image_ref))
        new_snapshot.append(read_response_file(os.path.join(new_dir, name), image_ref))

    dataset = BenchmarkDataset.create("replay", items)
    return dataset, old_snapshot, new_snapshot
