import pytest
from hypothesis import given

from driftguard.types import ContractError, LabelAnnotation, LabelledResponse
from driftguard.wire import (
    AnnotateRequest,
    WireFormatError,
    parse_wire_response,
    serialize_wire,
)

from gen_strategies import T0, label_maps, response_from_map

DOG_BODY = {
    "responses": [
        {
            "label_annotations": [
                {"mid": "/m/0bt9lr", "description": "dog", "score": 0.792, "topicality": 0.792}
            ]
        }
    ]
}


class TestAnnotateRequest:
    def test_wire_keys(self):
        request = AnnotateRequest(url="http://x/1.jpg", max_results=10)
        assert request.to_wire() == {"url": "http://x/1.jpg", "maxResults": 10}

    def test_rejects_bad_inputs(self):
        with pytest.raises(ContractError):
            AnnotateRequest(url="", max_results=10)
        with pytest.raises(ContractError):
            AnnotateRequest(url="http://x", max_results=0)


class TestParse:
    def test_dog_example(self):
        response = parse_wire_response(DOG_BODY, "http://x/dog.jpg", T0)
        assert response.success
        annotation = response.annotations[0]
        assert annotation.label == "dog"
        assert annotation.confidence == 0.792
        assert annotation.ontology_id == "/m/0bt9lr"
        assert annotation.topicality == 0.792

    def test_out_of_order_scores_resorted(self):
        body = {
            "responses": [
                {
                    "label_annotations": [
                        {"mid": "", "description": "low", "score": 0.2, "topicality": 0.2},
                        {"mid": "", "description": "high", "score": 0.9, "topicality": 0.9},
                    ]
                }
            ]
        }
        response = parse_wire_response(body, "u", T0)
        assert [a.label for a in response.annotations] == ["high", "low"]

    def test_duplicates_keep_highest_confidence(self, caplog):
        body = {
            "responses": [
                {
                    "label_annotations": [
                        {"mid": "", "description": "dog", "score": 0.9, "topicality": 0.9},
                        {"mid": "", "description": "dog", "score": 0.5, "topicality": 0.5},
                    ]
                }
            ]
        }
        with caplog.at_level("WARNING", logger="driftguard.wire"):
            response = parse_wire_response(body, "u", T0)
        assert [a.confidence for a in response.annotations] == [0.9]
        assert any("duplicate label" in r.message for r in caplog.records)

    def test_truncates_to_max_results(self):
        body = {
            "responses": [
                {
                    "label_annotations": [
                        {"mid": "", "description": f"l{k}", "score": 0.9 - k / 100}
                        for k in range(6)
                    ]
                }
            ]
        }
        response = parse_wire_response(body, "u", T0, max_results=2)
        assert len(response.annotations) == 2

    def test_empty_responses_parse_as_failure(self):
        response = parse_wire_response({"responses": []}, "u", T0)
        assert not response.success
        assert response.annotations == ()

    @pytest.mark.parametrize(
        "body",
        [
            {},
            {"responses": "nope"},
            {"responses": [{}]},
            {"responses": [{"label_annotations": [{"description": "x"}]}]},
            {"responses": [{"label_annotations": [{"description": "", "score": 0.5}]}]},
            {"responses": [{"label_annotations": [{"description": "x", "score": "high"}]}]},
            {"responses": [{"label_annotations": [{"description": "x", "score": 1.2}]}]},
            {"responses": [{"label_annotations": [{"description": "x", "score": True}]}]},
            {"responses": [{"label_annotations": [{"description": 5, "score": 0.5}]}]},
            {"responses": [{"label_annotations": [{"mid": 5, "description": "x", "score": 0.5}]}]},
            {"responses": [{"label_annotations": [
                {"description": "x", "score": 0.5, "topicality": "high"}]}]},
            {"responses": [{"label_annotations": [
                {"description": "x", "score": 0.5, "topicality": 1.5}]}]},
            {"responses": [{"label_annotations": ["x"]}]},
            {"responses": [{"label_annotations": [{"description": "x", "score": 10**400}]}]},
            {"responses": [{"label_annotations": [
                {"description": "x", "score": 0.5, "topicality": -(10**400)}]}]},
        ],
    )
    def test_malformed_bodies_raise(self, body):
        with pytest.raises(WireFormatError):
            parse_wire_response(body, "u", T0)


class TestRoundTrip:
    @given(label_maps)
    def test_parse_inverts_serialize(self, label_map):
        response = response_from_map("http://images.test/r.jpg", label_map, T0)
        parsed = parse_wire_response(
            serialize_wire(response), response.image_ref, response.captured_at
        )
        assert parsed.labels() == response.labels()
        assert parsed.confidences() == response.confidences()
        assert [a.label for a in parsed.annotations] == [a.label for a in response.annotations]
        assert parsed.success == response.success

    def test_failed_response_round_trips(self):
        failed = LabelledResponse(
            image_ref="u", annotations=(), captured_at=T0, success=False
        )
        parsed = parse_wire_response(serialize_wire(failed), "u", T0)
        assert parsed == failed

    def test_ontology_and_topicality_survive(self):
        response = LabelledResponse(
            image_ref="u",
            annotations=(LabelAnnotation("dog", 0.9, ontology_id="/m/1", topicality=0.8),),
            captured_at=T0,
        )
        parsed = parse_wire_response(serialize_wire(response), "u", T0)
        assert parsed == response
