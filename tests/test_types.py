import json
from datetime import datetime, timezone

import pytest
from hypothesis import given
import hypothesis.strategies as st

from driftguard.types import (
    BenchmarkDataset,
    BenchmarkItem,
    ContractError,
    LabelAnnotation,
    LabelledResponse,
    ThresholdRules,
    canonical_json,
    dataset_fingerprint,
    http_date,
    iso_ts,
    parse_http_date,
    parse_iso_ts,
    parse_json,
    utc_now_second,
)

from gen_strategies import T0


def ann(label, confidence):
    return LabelAnnotation(label=label, confidence=confidence)


class TestLabelAnnotation:
    def test_rejects_empty_label(self):
        with pytest.raises(ContractError):
            LabelAnnotation(label="   ", confidence=0.5)

    @pytest.mark.parametrize("value", [-0.01, 1.01])
    def test_rejects_out_of_range_confidence(self, value):
        with pytest.raises(ContractError):
            LabelAnnotation(label="dog", confidence=value)

    def test_topicality_validated_when_present(self):
        with pytest.raises(ContractError):
            LabelAnnotation(label="dog", confidence=0.5, topicality=1.5)
        LabelAnnotation(label="dog", confidence=0.5, topicality=0.5)


class TestLabelledResponse:
    def test_rejects_unsorted_annotations(self):
        with pytest.raises(ContractError):
            LabelledResponse(
                image_ref="u", annotations=(ann("a", 0.2), ann("b", 0.9)), captured_at=T0
            )

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ContractError):
            LabelledResponse(
                image_ref="u", annotations=(ann("a", 0.9), ann("a", 0.5)), captured_at=T0
            )

    def test_failure_must_be_empty(self):
        with pytest.raises(ContractError):
            LabelledResponse(
                image_ref="u", annotations=(ann("a", 0.9),), captured_at=T0, success=False
            )

    def test_top_breaks_ties_on_label_text(self):
        response = LabelledResponse(
            image_ref="u",
            annotations=(ann("zebra", 0.9), ann("ant", 0.9), ann("cat", 0.4)),
            captured_at=T0,
        )
        assert response.top().label == "ant"

    def test_round_trips_through_dict(self):
        response = LabelledResponse(
            image_ref="u",
            annotations=(LabelAnnotation("a", 0.9, ontology_id="/m/1", topicality=0.9),),
            captured_at=T0,
        )
        assert LabelledResponse.from_dict(response.to_dict()) == response


class TestBenchmarkDataset:
    def test_rejects_duplicate_refs(self):
        items = [BenchmarkItem("u", "x"), BenchmarkItem("u", "y")]
        with pytest.raises(ContractError, match="duplicate image_ref"):
            BenchmarkDataset.create("d", items)

    def test_rejects_empty(self):
        with pytest.raises(ContractError):
            BenchmarkDataset.create("d", [])

    def test_fingerprint_is_stable_and_checked(self):
        items = [BenchmarkItem("u", "x", frozenset({"b", "a"}))]
        first = BenchmarkDataset.create("d", items)
        second = BenchmarkDataset.create("d", items)
        assert first.fingerprint == second.fingerprint
        assert len(first.fingerprint) == 64
        with pytest.raises(ContractError, match="fingerprint"):
            BenchmarkDataset(dataset_id="d", items=tuple(items), fingerprint="0" * 64)

    @pytest.mark.parametrize(
        "image_ref,ground_truth", [("", "x"), (5, "x"), (None, "x"), ("u", None), ("u", 7)]
    )
    def test_item_fields_are_text(self, image_ref, ground_truth):
        with pytest.raises(ContractError):
            BenchmarkItem(image_ref, ground_truth)

    @pytest.mark.parametrize("dataset_id", [5, True, None, ["x"], {"a": 1}])
    def test_dataset_id_is_text(self, dataset_id):
        with pytest.raises(ContractError, match="dataset_id"):
            BenchmarkDataset.create(dataset_id, [BenchmarkItem("u", "x")])

    def test_fingerprint_ignores_expected_label_order(self):
        a = dataset_fingerprint([BenchmarkItem("u", "x", frozenset({"a", "b"}))])
        b = dataset_fingerprint([BenchmarkItem("u", "x", frozenset({"b", "a"}))])
        assert a == b


class TestThresholdRules:
    def test_defaults_are_valid(self):
        rules = ThresholdRules()
        assert rules.severity["label_delta"] == "error"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_labels": 0},
            {"min_confidence": 1.5},
            {"max_delta_labels": 0},
            {"max_delta_confidence": 0.0},
            {"max_delta_confidence": 1.0001},
            {"severity": {"label_delta": "error"}},
            {"severity": {"label_delta": "loud", "confidence_delta": "error",
                          "expected_labels": "error"}},
            {"max_labels": 2.5},
            {"max_labels": 3.0},
            {"max_labels": True},
            {"max_delta_labels": 2.5},
            {"max_delta_labels": True},
            {"min_confidence": False},
            {"min_confidence": "0.5"},
            {"max_delta_confidence": True},
            {"max_delta_confidence": float("nan")},
            {"severity": [("label_delta", "error"), ("confidence_delta", "error"),
                          ("expected_labels", "error")]},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ContractError):
            ThresholdRules(**kwargs)

    def test_round_trips_through_dict(self):
        rules = ThresholdRules(
            max_labels=7,
            min_confidence=0.2,
            max_delta_labels=3,
            max_delta_confidence=0.05,
            expected_labels_global=frozenset({"fauna"}),
        )
        assert ThresholdRules.from_dict(rules.to_dict()) == rules

    def test_from_dict_takes_defaults_for_missing_fields(self):
        assert ThresholdRules.from_dict({}) == ThresholdRules()
        assert ThresholdRules.from_dict({"max_delta_confidence": 1}).max_delta_confidence == 1

    @pytest.mark.parametrize("labels", ["cat", [1], {"cat": 1}, None])
    def test_from_dict_takes_expected_labels_only_as_an_array_of_strings(self, labels):
        with pytest.raises(ContractError, match="array of strings"):
            ThresholdRules.from_dict({"expected_labels": labels})
        item = {"image_ref": "u", "ground_truth": "", "expected_labels": labels}
        with pytest.raises(ContractError, match="array of strings"):
            BenchmarkItem.from_dict(item)

    def test_canonical_text_is_order_independent(self):
        a = ThresholdRules(expected_labels_global=frozenset({"x", "y"}))
        b = ThresholdRules(expected_labels_global=frozenset({"y", "x"}))
        assert a.canonical_text() == b.canonical_text()


class TestTimestamps:
    def test_iso_round_trip(self):
        now = utc_now_second()
        assert parse_iso_ts(iso_ts(now)) == now

    def test_http_date_round_trip_at_second_precision(self):
        moment = datetime(2019, 3, 1, 8, 49, 37, tzinfo=timezone.utc)
        assert parse_http_date(http_date(moment)) == moment

    def test_http_date_with_an_unknown_zone_reads_as_utc(self):
        moment = datetime(2019, 3, 1, 8, 49, 37, tzinfo=timezone.utc)
        assert parse_http_date("Fri, 01 Mar 2019 08:49:37 -0000") == moment

    def test_now_is_second_precision(self):
        assert utc_now_second().microsecond == 0


class TestParseJson:
    @pytest.mark.parametrize(
        "data,document",
        [(b'{"k": [1, 2.5, null]}', {"k": [1, 2.5, None]}),
         ('["é"]'.encode("utf-8"), ["é"]),
         (b"\xef\xbb\xbf[1]", [1]),
         (b"[" * 500 + b"]" * 500, json.loads("[" * 500 + "]" * 500))],
        ids=["object", "utf-8", "byte order mark", "500 levels"],
    )
    def test_utf8_json_documents_parse(self, data, document):
        assert parse_json(data) == document

    @pytest.mark.parametrize(
        "data",
        [b"", b"{x}", b"[1] [2]", b'"\xff"', '["é"]'.encode("utf-16"), b"[" * 100_000,
         b'{"a":' * 100_000],
        ids=["empty", "not json", "two documents", "not utf-8", "utf-16", "deep array",
             "deep object"],
    )
    def test_anything_else_is_a_value_error(self, data):
        with pytest.raises(ValueError):
            parse_json(data)


@given(st.dictionaries(st.text(max_size=5), st.integers(), max_size=4))
def test_canonical_json_is_key_order_independent(mapping):
    reversed_mapping = dict(reversed(list(mapping.items())))
    assert canonical_json(mapping) == canonical_json(reversed_mapping)
