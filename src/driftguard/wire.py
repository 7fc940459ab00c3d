"""The vision service's wire dialect.

Request: {"url": ..., "maxResults": ...}. Response: {"responses":
[{"label_annotations": [{"mid", "description", "score", "topicality"}]}]}.
The proxy and the simulator both check requests with parse_wire_request.
Parsing a response normalizes: annotations re-sorted by score descending,
duplicate labels collapsed to their highest-scoring instance, truncation
to the requested result count. An empty "responses" array round-trips a
failed call.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from datetime import datetime

from .types import ContractError, LabelAnnotation, LabelledResponse

log = logging.getLogger(__name__)


_NUMBER = (int, float)  # exact types: a JSON true is no number


class WireFormatError(ValueError):
    """Body does not parse as the service's request or response format."""


@dataclass(frozen=True)
class AnnotateRequest:
    url: str
    max_results: int

    def __post_init__(self):
        if not self.url:
            raise ContractError("request url must be non-empty")
        if self.max_results < 1:
            raise ContractError("maxResults must be at least 1")

    def to_wire(self) -> dict:
        return {"url": self.url, "maxResults": self.max_results}


def parse_wire_request(body) -> tuple[str, int | None]:
    """The url and the optional result count of a labelling request.

    Raises WireFormatError when the url is not a non-empty string or
    maxResults is present but not a positive integer.
    """
    if not isinstance(body, dict) or not isinstance(body.get("url"), str) or not body["url"]:
        raise WireFormatError("body must carry a non-empty 'url'")
    max_results = body.get("maxResults")
    if max_results is not None and (
        not isinstance(max_results, int) or isinstance(max_results, bool) or max_results < 1
    ):
        raise WireFormatError("maxResults must be a positive integer")
    return body["url"], max_results


def serialize_wire(response: LabelledResponse) -> dict:
    if not response.success:
        return {"responses": []}
    return {
        "responses": [
            {
                "label_annotations": [
                    {
                        "mid": ann.ontology_id or "",
                        "description": ann.label,
                        "score": ann.confidence,
                        "topicality": ann.topicality if ann.topicality is not None else ann.confidence,
                    }
                    for ann in response.annotations
                ]
            }
        ]
    }


def parse_wire_response(
    payload: dict,
    image_ref: str,
    captured_at: datetime,
    max_results: int | None = None,
) -> LabelledResponse:
    """Normalize a wire body into a LabelledResponse.

    Raises WireFormatError on malformed input; an empty "responses" array
    parses as a failed call (that is how failures serialize).
    """
    if not isinstance(payload, dict) or not isinstance(payload.get("responses"), list):
        raise WireFormatError("body must be an object with a 'responses' array")
    responses = payload["responses"]
    if not responses:
        return LabelledResponse(
            image_ref=image_ref, annotations=(), captured_at=captured_at, success=False
        )
    entry = responses[0]
    if not isinstance(entry, dict) or not isinstance(entry.get("label_annotations"), list):
        raise WireFormatError("response entry must carry a 'label_annotations' array")

    parsed = []
    for k, raw in enumerate(entry["label_annotations"]):
        if not isinstance(raw, dict):
            raise WireFormatError(f"label_annotations[{k}] is not an object")
        label, score = raw.get("description"), raw.get("score")
        topicality, mid = raw.get("topicality"), raw.get("mid")
        # the JSON types here; LabelAnnotation owns the ranges and blank labels
        if not (
            isinstance(label, str)
            and type(score) in _NUMBER
            and (topicality is None or type(topicality) in _NUMBER)
            and (mid is None or isinstance(mid, str))
        ):
            raise WireFormatError(f"label_annotations[{k}]: description and mid must be "
                                  "text, score and topicality numbers")
        try:  # float() overflows on an integer beyond the float range
            topicality = None if topicality is None else float(topicality)
            parsed.append(LabelAnnotation(label.strip(), float(score), mid or None, topicality))
        except (ContractError, OverflowError) as exc:
            raise WireFormatError(f"label_annotations[{k}]: {exc}") from exc

    parsed.sort(key=lambda a: (-a.confidence, a.label))
    deduped = []
    seen = set()
    for ann in parsed:
        if ann.label in seen:
            log.warning("duplicate label %r in response for %s; keeping the "
                        "highest-confidence instance", ann.label, image_ref)
            continue
        seen.add(ann.label)
        deduped.append(ann)
    if max_results is not None:
        deduped = deduped[:max_results]

    return LabelledResponse(
        image_ref=image_ref,
        annotations=tuple(deduped),
        captured_at=captured_at,
        success=True,
    )
