"""HTTP client for the labelling service: single annotations and batch
benchmark snapshots.

Failures never raise into callers; they come back as success=False
responses with the cause logged, because a dead upstream is a state the
proxy must keep serving through. A labelling call only reads, so the
client keeps its connections alive between calls and threads.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ThreadPoolExecutor

from .httpbase import ConnectionPool, post_json
from .types import BenchmarkDataset, LabelledResponse, ThresholdRules, parse_json, utc_now_second
from .wire import AnnotateRequest, parse_wire_response

log = logging.getLogger(__name__)


class UpstreamClient:
    def __init__(
        self,
        endpoint: str,
        timeout: float = 10.0,
        retries: int = 3,
        backoff_base: float = 0.25,
        concurrency: int = 4,
    ):
        self.endpoint = endpoint
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.concurrency = concurrency
        # one idle connection per snapshot worker
        self._pool = ConnectionPool(max(1, concurrency))

    def _failure(self, image_ref: str) -> LabelledResponse:
        return LabelledResponse(
            image_ref=image_ref, annotations=(), captured_at=utc_now_second(), success=False
        )

    def annotate(self, request: AnnotateRequest) -> LabelledResponse:
        """One labelling call. Any non-2xx, transport, or parse problem
        yields a success=False response; annotations are normalized and
        truncated to the requested count."""
        try:
            status, _, raw = post_json(
                self.endpoint, request.to_wire(), self.timeout, self._pool
            )
        except OSError as exc:
            log.warning("upstream call failed for %s: %s", request.url, exc)
            return self._failure(request.url)
        if not 200 <= status < 300:
            log.warning("upstream returned %d for %s", status, request.url)
            return self._failure(request.url)
        try:
            return parse_wire_response(
                parse_json(raw),
                image_ref=request.url,
                captured_at=utc_now_second(),
                max_results=request.max_results,
            )
        except ValueError as exc:
            log.warning("unparseable upstream body for %s: %s", request.url, exc)
            return self._failure(request.url)

    def _annotate_with_retry(self, request: AnnotateRequest) -> LabelledResponse:
        response = self._failure(request.url)
        for attempt in range(self.retries):
            response = self.annotate(request)
            if response.success:
                return response
            if attempt + 1 < self.retries:
                time.sleep(self.backoff_base * (2 ** attempt))
        return response

    def snapshot_benchmark(
        self, dataset: BenchmarkDataset, rules: ThresholdRules
    ) -> list[LabelledResponse]:
        """One response per benchmark item, order-aligned with the dataset.

        Each request asks for rules.max_labels results and retries with
        exponential backoff before giving up on an item; items that
        exhaust their retries stay in the snapshot as failures.
        """
        requests_ = [
            AnnotateRequest(url=item.image_ref, max_results=rules.max_labels)
            for item in dataset.items
        ]
        with ThreadPoolExecutor(max_workers=max(1, self.concurrency)) as pool:
            return list(pool.map(self._annotate_with_retry, requests_))
