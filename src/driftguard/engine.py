"""The facade's behaviour, independent of any HTTP framing.

The engine owns the token store (which holds the benchmark dataset and
every file under the storage path), the upstream client, the
precondition-failure counter, and the detection workflow. The HTTP layer
translates requests into the engine's vocabulary and back.

Request handling reads one atomic snapshot of the current token on entry
and uses it throughout, so a detection run swapping the token mid-request
never produces a torn view.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import replace

from .diffing import evaluate_epochs
from .httpbase import encode_json, post_json
from .scheduler import (
    OUTCOME_ABORTED,
    OUTCOME_NO_CHANGE,
    OUTCOME_ROTATED,
    DetectionRun,
)
from .token import (
    AUDIT_FILE,
    DETECTIONS_FILE,
    TokenStore,
    mint_token,
    no_key_error,
    unknown_token_error,
    validate,
    validators,
)
from .types import (
    CATEGORY_FOR_CODE,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    BenchmarkDataset,
    LabelledResponse,
    dataset_fingerprint,
    iso_ts,
    utc_now_second,
)
from .upstream import UpstreamClient
from .wire import AnnotateRequest, serialize_wire

log = logging.getLogger(__name__)

NOT_INITIALIZED = "not_initialized"


class UpstreamUnreachable(RuntimeError):
    """Every benchmark item failed; there is nothing to baseline against."""


def snapshot_content(snapshot):
    """Snapshot identity for change detection: everything but capture time."""
    return tuple((r.image_ref, r.annotations, r.success) for r in snapshot)


def filter_response(response: LabelledResponse, rules) -> LabelledResponse:
    """Apply the serving rules: prune low-confidence labels, cap the count."""
    kept = tuple(
        ann for ann in response.annotations if ann.confidence >= rules.min_confidence
    )[: rules.max_labels]
    return replace(response, annotations=kept)


class GuardEngine:
    def __init__(self, config, client: UpstreamClient | None = None, now_fn=utc_now_second):
        self.config = config
        self.store = TokenStore(config.storage_path)
        self.client = client or UpstreamClient(config.upstream_url)
        self._now = now_fn
        self._counter_lock = threading.Lock()
        self._violations_since_run = 0
        self._run_lock = threading.Lock()
        # (current token id, {requested token id: (error, encoded 412 body)})
        self._verdicts: tuple = (None, {})
        # Set by the scheduler; called when the 412 counter reaches z.
        self.on_violation_threshold = None

    # ------------------------------------------------------------------ state

    @property
    def initialized(self) -> bool:
        return self.store.baseline() is not None

    def violations_since_run(self) -> int:
        with self._counter_lock:
            return self._violations_since_run

    def _audit(self, record: dict):
        self.store.append(AUDIT_FILE, {"ts": iso_ts(self._now()), **record})

    def _post_callback(self, payload: dict):
        url = self.config.warning_callback_url
        if not url:
            log.info("no warning callback configured; dropping notification")
            return
        try:
            post_json(url, payload, timeout=5)
        except OSError as exc:
            # The client must not be penalized for operator infrastructure.
            log.warning("warning callback delivery to %s failed: %s", url, exc)

    # ------------------------------------------------------------- benchmark

    def initialize_benchmark(self, items, rules, dataset_id: str | None = None):
        """Workflow: fingerprint the dataset, baseline the service, mint and
        persist the first token. Raises ContractError on a bad manifest and
        UpstreamUnreachable when no item could be snapshotted at all."""
        items = tuple(items)
        dataset = BenchmarkDataset.create(
            dataset_id or "ds-" + dataset_fingerprint(items)[:12], items
        )
        snapshot = self.client.snapshot_benchmark(dataset, rules)
        if not any(r.success for r in snapshot):
            raise UpstreamUnreachable(
                f"all {len(snapshot)} benchmark requests failed against {self.client.endpoint}"
            )
        token = mint_token(self.config.service_id, dataset, rules, snapshot, self._now())
        self.store.save_dataset(dataset)
        self.store.store(token)
        self._audit(
            {
                "kind": "benchmark_initialized",
                "token_id": token.token_id,
                "dataset_fingerprint": dataset.fingerprint,
                "success": token.success,
            }
        )
        return token

    # -------------------------------------------------------------- annotate

    def _resolve_token(self, token_ref, current):
        kind, value = token_ref
        if kind == "etag":
            if value == current.token_id:
                return current, None
            found = self.store.find(value)
            if found is not None:
                return found, None
            return None, unknown_token_error(value, current)
        # Last-modified style: the date stands for the state the client
        # believes in; a same-second rotation resolves to the older token.
        found = self.store.newest_at_or_before(value, current)
        if found is not None:
            return found, None
        return None, unknown_token_error(iso_ts(value), current)

    def _precondition_failed(self, error, url: str, counted: bool = True, body=None):
        """412 the request, with `body` when it is already encoded. Only
        `counted` failures move the counter toward z: a predecessor token
        failing is the proxy's own rotation at work, but the current one
        failing (code 3) may be mended by a re-probe."""
        self._audit({"kind": "precondition_failed", "url": url, "error_code": error.error_code})
        hook = None
        if counted:
            with self._counter_lock:
                self._violations_since_run += 1
                if self._violations_since_run >= self.config.violation_trigger_z:
                    hook = self.on_violation_threshold
        if hook is not None:
            hook()
        return 412, {}, error.to_wire() if body is None else body

    def _verdict(self, requested, current, dataset):
        """validate(requested, current, dataset) and its encoded 412 body,
        computed once per requested token while `current` stays current.
        Tokens are immutable and baseline() pins the dataset to the current
        token's fingerprint, so the two token ids decide the result; the
        cache holds at most one entry per token in history."""
        current_id, verdicts = self._verdicts
        if current_id != current.token_id:
            verdicts = {}
            self._verdicts = (current.token_id, verdicts)
        verdict = verdicts.get(requested.token_id)
        if verdict is None:
            error = validate(requested, current, dataset)
            body = None if error is None else encode_json(error.to_wire())
            verdict = verdicts[requested.token_id] = (error, body)
        return verdict

    def _forward(self, url: str, max_results: int | None, current):
        rules = current.rules
        request = AnnotateRequest(url=url, max_results=max_results or rules.max_labels)
        upstream = self.client.annotate(request)
        if not upstream.success:
            return 502, {}, {"error": f"upstream request for {url} failed"}
        filtered = filter_response(upstream, rules)
        self._audit(
            {
                "kind": "annotate",
                "url": url,
                "status": 200,
                "token_id": current.token_id,
                "labels": len(filtered.annotations),
            }
        )
        return 200, validators(current), serialize_wire(filtered)

    def annotate(self, url: str, max_results: int | None, token_ref):
        """Serve one guarded annotation request.

        token_ref is ("etag", token_id) or ("date", datetime). Returns
        (status, headers, body) for the HTTP layer.
        """
        baseline = self.store.baseline()
        if baseline is None:
            return self._precondition_failed(no_key_error(), url)
        current, dataset = baseline
        requested, resolution_error = self._resolve_token(token_ref, current)
        if resolution_error is not None:
            return self._precondition_failed(resolution_error, url)
        error, error_body = self._verdict(requested, current, dataset)
        if error is None:
            return self._forward(url, max_results, current)

        # Robustness failures (codes 0-6) are always hard errors; the
        # severity map only softens the three benchmark checks.
        severity = SEVERITY_ERROR
        if error.error_code >= 7:
            severity = current.rules.severity[CATEGORY_FOR_CODE[error.error_code]]
        if severity == SEVERITY_ERROR:
            counted = requested.token_id == current.token_id
            return self._precondition_failed(error, url, counted=counted, body=error_body)

        # warning and info still serve the client from upstream
        status, headers, body = self._forward(url, max_results, current)
        if status == 200:
            if severity == SEVERITY_WARNING:
                self._post_callback(error.to_wire())
            else:
                self._audit({"kind": "violation", "url": url, **error.to_wire()})
        return status, headers, body

    # -------------------------------------------------------------- detection

    def run_detection(self, trigger: str) -> DetectionRun:
        """Execute one evolution-detection run. Serialized: concurrent calls
        queue up on the run lock, so at most one run is ever in flight."""
        with self._run_lock:
            try:
                started = self._now()
                outcome, details = self._detect()
                run = DetectionRun(
                    started_at=started,
                    finished_at=self._now(),
                    trigger=trigger,
                    outcome=outcome,
                    **details,
                )
            finally:
                with self._counter_lock:
                    self._violations_since_run = 0
        record = run.to_dict()
        self.store.append(DETECTIONS_FILE, record)
        if run.outcome == OUTCOME_ROTATED:
            self._post_callback({"kind": "detection", "run": record})
        return run

    def _detect(self):
        """Decide one run: returns its outcome and the DetectionRun fields
        beyond the trigger and the timestamps."""
        baseline = self.store.baseline()
        if baseline is None:
            return OUTCOME_ABORTED, {"reason": NOT_INITIALIZED}
        current, dataset = baseline
        snapshot = self.client.snapshot_benchmark(dataset, current.rules)
        failures = sum(1 for r in snapshot if not r.success)
        if failures:
            # An incomplete probe proves nothing about drift; diffing against
            # empty failure entries would fabricate label deltas.
            log.warning("detection aborted: %d/%d benchmark items failed", failures, len(snapshot))
            reason = f"snapshot_incomplete ({failures}/{len(snapshot)} items failed)"
            return OUTCOME_ABORTED, {"reason": reason}
        report = evaluate_epochs(current.snapshot, snapshot, dataset, current.rules)
        if report.violating_images < 1:
            return OUTCOME_NO_CHANGE, {"report": report}
        if snapshot_content(snapshot) == snapshot_content(current.snapshot):
            # Identical results can only flag a persistent expected-label
            # absence the operator already learned about when this token was
            # installed; rotating onto a content-identical token would
            # invalidate healthy clients for nothing.
            reason = "state_unchanged (persistent expected-labels violation)"
            return OUTCOME_NO_CHANGE, {"report": report, "reason": reason}
        new_token = mint_token(
            self.config.service_id, dataset, current.rules, snapshot, self._now()
        )
        self.store.store(new_token)
        log.info(
            "behaviour change detected (%d violating images): token %s -> %s",
            report.violating_images,
            current.token_id,
            new_token.token_id,
        )
        return OUTCOME_ROTATED, {
            "report": report,
            "old_token_id": current.token_id,
            "new_token_id": new_token.token_id,
        }
