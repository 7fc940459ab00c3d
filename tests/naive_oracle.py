"""Brute-force recounts used as independent oracles.

Deliberately avoids importing the package under test: plain json reads,
set arithmetic, and explicit loops. File pairs are matched by name.
"""

import json
from pathlib import Path


def load_labels(path) -> dict:
    """label -> score for one wire-format response file; duplicates keep
    the highest score; a failed (empty) response has no labels."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    responses = data["responses"]
    if not responses:
        return {}
    labels = {}
    for annotation in responses[0]["label_annotations"]:
        description = annotation["description"]
        score = annotation["score"]
        if description not in labels or score > labels[description]:
            labels[description] = score
    return labels


def iter_pairs(old_dir, new_dir):
    names = sorted(p.name for p in Path(old_dir).glob("*.json"))
    for name in names:
        yield name, load_labels(Path(old_dir) / name), load_labels(Path(new_dir) / name)


def image_violates(old, new, max_delta_labels, max_delta_confidence, expected):
    added = set(new) - set(old)
    dropped = set(old) - set(new)
    if len(added) + len(dropped) >= max_delta_labels:
        return True
    matched = set(old) & set(new)
    if any(abs(new[l] - old[l]) >= max_delta_confidence for l in matched):
        return True
    if set(expected) - set(new):
        return True
    return False


def recount_totals(
    old_dir,
    new_dir,
    max_delta_labels,
    max_delta_confidence,
    expected_by_name=None,
    global_expected=(),
):
    """Totals over a corpus pair: labels added/dropped, nonzero confidence
    changes, and violating-image count under the given thresholds."""
    expected_by_name = expected_by_name or {}
    totals = {
        "labels_added": 0,
        "labels_dropped": 0,
        "confidence_changes": 0,
        "violating_images": 0,
    }
    for name, old, new in iter_pairs(old_dir, new_dir):
        added = set(new) - set(old)
        dropped = set(old) - set(new)
        totals["labels_added"] += len(added)
        totals["labels_dropped"] += len(dropped)
        matched = set(old) & set(new)
        totals["confidence_changes"] += sum(1 for l in matched if new[l] - old[l] != 0.0)
        expected = set(global_expected) | set(expected_by_name.get(name, ()))
        if image_violates(old, new, max_delta_labels, max_delta_confidence, expected):
            totals["violating_images"] += 1
    return totals


def count_cell(
    old_dir,
    new_dir,
    max_delta_labels,
    max_delta_confidence,
    expected_by_name=None,
    global_expected=(),
):
    expected_by_name = expected_by_name or {}
    count = 0
    for name, old, new in iter_pairs(old_dir, new_dir):
        expected = set(global_expected) | set(expected_by_name.get(name, ()))
        if image_violates(old, new, max_delta_labels, max_delta_confidence, expected):
            count += 1
    return count


def robustness_code(requested, current):
    """The robustness code (1-6) a requested token earns against the
    current one, or None: each check written out as a plain comparison, in
    code order, so the first failing check wins."""
    mine, theirs = requested.rules, current.rules
    if requested.service_id != current.service_id:
        return 1
    if requested.dataset_fingerprint != current.dataset_fingerprint:
        return 2
    if set(mine.expected_labels_global) != set(theirs.expected_labels_global):
        return 2
    if not all(response.success for response in requested.snapshot):
        return 3
    if mine.min_confidence != theirs.min_confidence:
        return 4
    if mine.max_delta_confidence != theirs.max_delta_confidence:
        return 4
    if mine.max_labels != theirs.max_labels:
        return 5
    if mine.max_delta_labels != theirs.max_delta_labels:
        return 5
    if len(requested.snapshot) != len(current.snapshot):
        return 6
    return None
