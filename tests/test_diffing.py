import pytest
from hypothesis import given

from driftguard.diffing import (
    collect_violations,
    compare,
    evaluate_epochs,
    trim_number,
)
from driftguard.types import (
    BenchmarkDataset,
    BenchmarkItem,
    ContractError,
    ThresholdRules,
)

import reference_fixtures as refs
from gen_strategies import aligned_corpora, response_from_map, response_pairs, rules_strategy

SENTINEL_RULES = ThresholdRules(
    max_labels=1000, max_delta_labels=10**9, max_delta_confidence=1.0
)


class TestLabelSetDelta:
    def test_car_fixture_counts_eight(self):
        old, new = refs.car_pair()
        comparison = compare(old, new)
        assert comparison.added == refs.CAR_NEW_LABELS
        assert comparison.dropped == refs.CAR_DROPPED_LABELS
        assert set(comparison.added) == set(refs.CAR_NEW_LABELS)
        assert set(comparison.dropped) == set(refs.CAR_DROPPED_LABELS)
        assert comparison.label_delta == 8

    def test_identity(self):
        old, _ = refs.car_pair()
        comparison = compare(old, old)
        assert (comparison.added, comparison.dropped, comparison.label_delta) == ([], [], 0)

    def test_two_element_difference(self):
        old = response_from_map("u", {"a": 0.9, "b": 0.5})
        new = response_from_map("u", {"b": 0.5, "c": 0.4})
        comparison = compare(old, new)
        assert (comparison.added, comparison.dropped, comparison.label_delta) == (["c"], ["a"], 2)

    def test_image_ref_mismatch_is_contract_error(self):
        old = response_from_map("u1", {"a": 0.9})
        new = response_from_map("u2", {"a": 0.9})
        with pytest.raises(ContractError):
            compare(old, new)

    @given(response_pairs())
    def test_symmetric_difference_properties(self, pair):
        old, new = pair
        forward, backward = compare(old, new), compare(new, old)
        added, dropped = set(forward.added), set(forward.dropped)
        assert added == new.labels() - old.labels()
        assert dropped == old.labels() - new.labels()
        assert forward.label_delta == len(added) + len(dropped)
        assert forward.label_delta == backward.label_delta
        assert added == set(backward.dropped) and dropped == set(backward.added)
        assert not added & dropped


class TestConfidenceDeltas:
    def test_sheep_delta_matches_frozen_value(self):
        old, new = refs.sheep_pair()
        deltas = compare(old, new).deltas
        assert deltas["sheep"] == pytest.approx(0.01936030388219212, abs=1e-15)

    def test_identical_responses_are_all_zero(self):
        old, _ = refs.sheep_pair()
        assert set(compare(old, old).deltas.values()) == {0.0}

    def test_one_sided_labels_are_excluded(self):
        old = response_from_map("u", {"a": 0.9})
        new = response_from_map("u", {"a": 0.9, "b": 0.5})
        assert "b" not in compare(old, new).deltas

    @given(response_pairs())
    def test_antisymmetry(self, pair):
        old, new = pair
        forward = compare(old, new).deltas
        backward = compare(new, old).deltas
        assert set(forward) == set(backward)
        for label, delta in forward.items():
            assert backward[label] == -delta


class TestEvaluateImage:
    def test_car_fires_label_delta_with_ordered_payload(self):
        old, new = refs.car_pair()
        violations = compare(old, new).violations(refs.CAR_ITEM, refs.FIXTURE_RULES)
        assert [v.error_code for v in violations] == [7]
        violation = violations[0]
        assert violation.data["delta_labels_threshold"] == 5
        assert violation.data["delta_labels_detected"] == 8
        assert violation.data["new_labels"] == refs.CAR_NEW_LABELS
        assert violation.data["dropped_labels"] == refs.CAR_DROPPED_LABELS
        assert violation.reason == refs.REASON_CAR

    def test_sheep_fires_confidence_delta_with_five_labels(self):
        old, new = refs.sheep_pair()
        violations = compare(old, new).violations(refs.SHEEP_ITEM, refs.FIXTURE_RULES)
        assert [v.error_code for v in violations] == [8]
        detected = violations[0].data["delta_confidences_detected"]
        assert list(detected) == ["sheep", "herd", "livestock", "terrestrial animal", "snout"]
        for label, expected in refs.SHEEP_DELTAS.items():
            assert detected[label] == pytest.approx(expected, abs=1e-12)
        assert violations[0].reason == refs.REASON_SHEEP

    def test_iguana_fires_expected_labels_only(self):
        old, new = refs.iguana_pair()
        violations = compare(old, new).violations(refs.IGUANA_ITEM, refs.FIXTURE_RULES)
        assert [v.error_code for v in violations] == [9]
        violation = violations[0]
        assert violation.data["expected_labels"] == ["fauna"]
        assert violation.data["labels_missing"] == ["fauna"]
        assert violation.data["labels_detected"] == refs.IGUANA_LABELS_DETECTED
        assert violation.reason == refs.REASON_IGUANA

    def test_iguana_caught_twice_at_tighter_threshold(self):
        # 3 added + 1 dropped = 4 >= 3, plus the missing expected label
        old, new = refs.iguana_pair()
        rules = ThresholdRules(max_delta_labels=3, max_delta_confidence=0.01)
        codes = [v.error_code for v in compare(old, new).violations(refs.IGUANA_ITEM, rules)]
        assert codes == [7, 9]

    def test_global_and_item_expected_labels_union(self):
        old, new = refs.car_pair()
        rules = ThresholdRules(
            max_delta_labels=10**6,
            max_delta_confidence=1.0,
            expected_labels_global=frozenset({"vehicle", "fauna"}),
        )
        item = BenchmarkItem(refs.CAR_URI, "Vehicle", frozenset({"street"}))
        violations = compare(old, new).violations(item, rules)
        assert [v.error_code for v in violations] == [9]
        assert violations[0].data["labels_missing"] == ["fauna"]
        assert violations[0].data["expected_labels"] == ["fauna", "street", "vehicle"]

    @given(response_pairs())
    def test_sentinel_thresholds_never_violate(self, pair):
        old, new = pair
        item = BenchmarkItem(old.image_ref, "")
        assert compare(old, new).violations(item, SENTINEL_RULES) == []

    @given(response_pairs(), rules_strategy())
    def test_comparator_is_at_least_threshold(self, pair, rules):
        old, new = pair
        item = BenchmarkItem(old.image_ref, "")
        codes = {v.error_code for v in compare(old, new).violations(item, rules)}
        comparison = compare(old, new)
        assert (7 in codes) == (comparison.label_delta >= rules.max_delta_labels)
        has_confidence_hit = any(
            abs(d) >= rules.max_delta_confidence
            for d in comparison.deltas.values()
        )
        assert (8 in codes) == has_confidence_hit


class TestReasonFormatting:
    @pytest.mark.parametrize(
        "value,expected",
        [(5, "5"), (0.01, "0.01"), (0.1, "0.1"), (1.0, "1"), (0.425, "0.425")],
    )
    def test_threshold_renders_without_trailing_zeros(self, value, expected):
        assert trim_number(value) == expected


class TestEvaluateEpochs:
    def test_identical_snapshots_report_nothing(self):
        old_snapshot, _ = refs.fixture_snapshots()
        dataset = BenchmarkDataset.create("fixtures", refs.FIXTURE_ITEMS)
        report = evaluate_epochs(old_snapshot, old_snapshot, dataset, refs.FIXTURE_RULES)
        assert report.violating_images == 0
        assert report.labels_added == 0
        assert report.labels_dropped == 0
        assert all(not d.violations for d in report.deltas)

    def test_sheep_single_item_dataset(self):
        old, new = refs.sheep_pair()
        dataset = BenchmarkDataset.create("sheep", [refs.SHEEP_ITEM])
        report = evaluate_epochs([old], [new], dataset, refs.FIXTURE_RULES)
        assert report.violating_images == 1
        assert report.confidence_changes == 5

    def test_misaligned_snapshots_are_contract_errors(self):
        old_snapshot, new_snapshot = refs.fixture_snapshots()
        dataset = BenchmarkDataset.create("fixtures", refs.FIXTURE_ITEMS)
        with pytest.raises(ContractError):
            evaluate_epochs(old_snapshot[:2], new_snapshot, dataset, refs.FIXTURE_RULES)
        with pytest.raises(ContractError):
            evaluate_epochs(list(reversed(old_snapshot)), new_snapshot, dataset, refs.FIXTURE_RULES)

    def test_top_label_transition_is_reported(self):
        old = response_from_map("u", {"window": 0.559})
        new = response_from_map("u", {"water transportation": 0.984})
        dataset = BenchmarkDataset.create("top", [BenchmarkItem("u", "")])
        report = evaluate_epochs([old], [new], dataset, SENTINEL_RULES)
        delta = report.deltas[0]
        assert delta.top_label_old == "window"
        assert delta.top_label_new == "water transportation"
        assert delta.top_confidence_delta == pytest.approx(0.425, abs=1e-12)

    @given(aligned_corpora())
    def test_totals_match_naive_recount(self, corpus):
        dataset, old_snapshot, new_snapshot = corpus
        rules = ThresholdRules(max_delta_labels=2, max_delta_confidence=0.05)
        report = evaluate_epochs(old_snapshot, new_snapshot, dataset, rules)
        # independent recount straight off the label maps
        added = dropped = changes = violating = 0
        for old, new, item in zip(old_snapshot, new_snapshot, dataset.items):
            old_map, new_map = old.confidences(), new.confidences()
            a = set(new_map) - set(old_map)
            d = set(old_map) - set(new_map)
            added += len(a)
            dropped += len(d)
            matched = set(old_map) & set(new_map)
            changes += sum(1 for l in matched if new_map[l] - old_map[l] != 0.0)
            hit = len(a) + len(d) >= rules.max_delta_labels
            hit = hit or any(
                abs(new_map[l] - old_map[l]) >= rules.max_delta_confidence for l in matched
            )
            hit = hit or bool(item.expected_labels - set(new_map))
            violating += 1 if hit else 0
        assert report.labels_added == added
        assert report.labels_dropped == dropped
        assert report.confidence_changes == changes
        assert report.violating_images == violating


class TestCollectViolations:
    def test_orders_by_code_then_position(self):
        old_snapshot, new_snapshot = refs.fixture_snapshots()
        dataset = BenchmarkDataset.create("fixtures", refs.FIXTURE_ITEMS)
        violations = collect_violations(old_snapshot, new_snapshot, dataset, refs.FIXTURE_RULES)
        assert [v.error_code for v in violations] == [7, 8, 9]
        assert [v.image_ref for v in violations] == [refs.CAR_URI, refs.SHEEP_URI, refs.IGUANA_URI]

    @given(aligned_corpora(), rules_strategy())
    def test_report_carries_the_same_violations(self, corpus, rules):
        dataset, old_snapshot, new_snapshot = corpus
        report = evaluate_epochs(old_snapshot, new_snapshot, dataset, rules)
        violations = collect_violations(old_snapshot, new_snapshot, dataset, rules)
        assert list(report.violations) == violations
        for k, delta in enumerate(report.deltas):
            own = [v for v in violations if v.position == k]
            assert all(v.image_ref == delta.image_ref for v in own)
            assert list(delta.violations) == [v.category for v in own]
