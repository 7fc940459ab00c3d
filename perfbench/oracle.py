"""Expected results for the benchmark, computed from its own label maps.

This module restates the guard's documented contract in a few explicit
loops and never imports driftguard:

- a snapshot keeps an image's labels ordered by confidence descending
  (ties by label text) and cut to max_labels;
- an image pair violates code 7 when added + dropped labels reach
  max_delta_labels, code 8 when a label present on both sides moved by at
  least max_delta_confidence, and code 9 when an expected label is absent
  from the new side;
- a stale token's 412 names the violation with the lowest code, then the
  lowest dataset position, and carries the others as additional errors;
- a served response is the snapshot cut with labels below min_confidence
  removed.

Run this file to check the oracle against hand-worked cases.
"""

from __future__ import annotations

CODE_LABEL_DELTA = 7
CODE_CONFIDENCE_DELTA = 8
CODE_EXPECTED_LABELS = 9


def ranked(labels: dict, max_labels: int | None = None) -> list:
    """(label, confidence) pairs by confidence descending, ties by label."""
    ordered = sorted(labels.items(), key=lambda kv: (-kv[1], kv[0]))
    return ordered if max_labels is None else ordered[:max_labels]


def snapshot(state: dict, refs, max_labels: int) -> list:
    """What the proxy stores for one epoch: one label map per image."""
    return [dict(ranked(state[ref], max_labels)) for ref in refs]


def image_codes(old: dict, new: dict, expected, max_delta_labels, max_delta_confidence) -> list:
    """Violated codes for one image pair, ascending."""
    codes = []
    added = [label for label in new if label not in old]
    dropped = [label for label in old if label not in new]
    if len(added) + len(dropped) >= max_delta_labels:
        codes.append(CODE_LABEL_DELTA)
    for label in old:
        if label in new and abs(new[label] - old[label]) >= max_delta_confidence:
            codes.append(CODE_CONFIDENCE_DELTA)
            break
    for label in expected:
        if label not in new:
            codes.append(CODE_EXPECTED_LABELS)
            break
    return codes


def violations(old_snap, new_snap, refs, expected, rules) -> list:
    """Every (code, position, image_ref) in the order a 412 reports them."""
    found = []
    for position, (old, new, ref) in enumerate(zip(old_snap, new_snap, refs)):
        for code in image_codes(
            old, new, expected[ref], rules.max_delta_labels, rules.max_delta_confidence
        ):
            found.append((code, position, ref))
    found.sort()
    return found


def stale_expectation(old_snap, new_snap, refs, expected, rules):
    """(lowest code, first violating image, violation count), or None when
    the stale token is still within tolerance of the current one."""
    found = violations(old_snap, new_snap, refs, expected, rules)
    if not found:
        return None
    code, _, ref = found[0]
    return code, ref, len(found)


def violating_images(old_snap, new_snap, refs, expected, rules) -> int:
    found = violations(old_snap, new_snap, refs, expected, rules)
    return len({position for _, position, _ in found})


def served_labels(labels: dict, rules) -> list:
    """The (description, score) pairs a 200 from /annotate carries."""
    return [
        (label, score)
        for label, score in ranked(labels, rules.max_labels)
        if score >= rules.min_confidence
    ]


def tune_cell(old_maps, new_maps, max_delta_labels, max_delta_confidence) -> int:
    """Violating images for one tuner cell over full (uncut) label maps; the
    corpora carry no expected labels."""
    return sum(
        1
        for old, new in zip(old_maps, new_maps)
        if image_codes(old, new, (), max_delta_labels, max_delta_confidence)
    )


def replay_totals(old_maps, new_maps, rules) -> dict:
    totals = {
        "labels_added": 0,
        "labels_dropped": 0,
        "confidence_changes": 0,
        "violating_images": 0,
    }
    for old, new in zip(old_maps, new_maps):
        totals["labels_added"] += sum(1 for label in new if label not in old)
        totals["labels_dropped"] += sum(1 for label in old if label not in new)
        totals["confidence_changes"] += sum(
            1 for label in old if label in new and new[label] - old[label] != 0.0
        )
        if image_codes(old, new, (), rules.max_delta_labels, rules.max_delta_confidence):
            totals["violating_images"] += 1
    return totals


# ---------------------------------------------------------------- self-check


def _hand_cases():
    """Small pairs whose answers were worked out by hand. Confidences are
    multiples of 1/16 so every difference is exact in binary."""
    from types import SimpleNamespace

    rules = SimpleNamespace(
        max_labels=3, min_confidence=0.3, max_delta_labels=2, max_delta_confidence=0.125
    )
    refs = ["a", "b", "c"]
    expected = {"a": frozenset(), "b": frozenset({"dog"}), "c": frozenset()}
    old_state = {
        "a": {"cat": 0.875, "pet": 0.5, "fur": 0.25, "toy": 0.125},
        "b": {"dog": 0.75, "grass": 0.375},
        "c": {"sky": 0.75, "sea": 0.75},
    }
    new_state = {
        "a": {"cat": 0.875, "pet": 0.625, "ball": 0.1875, "fur": 0.125, "toy": 0.0625},
        "b": {"grass": 0.375, "ball": 0.3125},
        "c": {"sky": 0.8125, "sea": 0.75},
    }
    # equal confidences rank by label text
    assert ranked(old_state["c"]) == [("sea", 0.75), ("sky", 0.75)]
    old = snapshot(old_state, refs, rules.max_labels)
    new = snapshot(new_state, refs, rules.max_labels)
    # the cut to 3 labels drops toy on the old side, fur and toy on the new
    assert old[0] == {"cat": 0.875, "pet": 0.5, "fur": 0.25}
    assert new[0] == {"cat": 0.875, "pet": 0.625, "ball": 0.1875}
    # a: ball added + fur dropped = 2 -> 7; pet moved exactly 0.125 -> 8
    assert image_codes(old[0], new[0], (), 2, 0.125) == [7, 8]
    # b: dog dropped + ball added -> 7; expected dog missing -> 9
    assert image_codes(old[1], new[1], {"dog"}, 2, 0.125) == [7, 9]
    # c: sky moved 0.0625, inside tolerance
    assert image_codes(old[2], new[2], (), 2, 0.125) == []
    found = violations(old, new, refs, expected, rules)
    assert found == [(7, 0, "a"), (7, 1, "b"), (8, 0, "a"), (9, 1, "b")]
    assert stale_expectation(old, new, refs, expected, rules) == (7, "a", 4)
    assert stale_expectation(old, old, refs, expected, rules) is None
    assert violating_images(old, new, refs, expected, rules) == 2
    # served: cut to 3, then scores below 0.3 removed
    assert served_labels(new_state["a"], rules) == [("cat", 0.875), ("pet", 0.625)]
    assert served_labels(old_state["c"], rules) == [("sea", 0.75), ("sky", 0.75)]
    # tuner and replay read the full maps: a has 1 label change and moves
    # of 0.125 (pet, fur) and 0.0625 (toy); b has 2 label changes; c 0.0625
    olds = [old_state[r] for r in refs]
    news = [new_state[r] for r in refs]
    assert tune_cell(olds, news, 2, 0.125) == 2     # a, b
    assert tune_cell(olds, news, 3, 0.125) == 1     # a
    assert tune_cell(olds, news, 3, 0.0625) == 2    # a, c
    assert tune_cell(olds, news, 1, 0.5) == 2       # a, b
    assert replay_totals(olds, news, rules) == {
        "labels_added": 2,          # ball on a and on b
        "labels_dropped": 1,        # dog on b
        "confidence_changes": 4,    # pet, fur, toy on a; sky on c
        "violating_images": 2,      # a, b
    }


def self_check():
    _hand_cases()


if __name__ == "__main__":
    self_check()
    print("oracle: hand-worked cases pass")
