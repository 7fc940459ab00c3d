"""The facade's behaviour, independent of any HTTP framing.

The engine owns the token store (which holds the benchmark dataset and
every file under the storage path), the upstream client, the
precondition-failure counter, and detection runs. The HTTP layer
translates requests into the engine's vocabulary and back.

Request handling reads one atomic snapshot of the current token on entry
and uses it throughout, so a detection run swapping the token mid-request
never produces a torn view.

A detection run re-probes the benchmark, diffs it against the live
token's snapshot, and rotates the token only when drift crosses the
operator's thresholds. Two triggers fire runs from the engine's one
background loop: a fixed interval and a count of request-time
precondition failures. Runs never overlap; a trigger landing during an
active run waits for the next run, which every trigger that landed
meanwhile shares.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass, replace
from datetime import datetime

from .diffing import EvolutionReport, evaluate_epochs
from .httpbase import encode_json, post_json
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

TRIGGER_INTERVAL = "interval"
TRIGGER_VIOLATION = "violation_threshold"
TRIGGER_MANUAL = "manual"

OUTCOME_NO_CHANGE = "no_change"
OUTCOME_ROTATED = "token_rotated"
OUTCOME_ABORTED = "aborted"


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


@dataclass(frozen=True)
class DetectionRun:
    """One detection run. An aborted run has no report and a reason; a run
    that rotated the token names the old and the new one; a no-change run
    that found violations on an unchanged snapshot says so in `reason`."""

    started_at: datetime
    finished_at: datetime
    trigger: str
    report: EvolutionReport | None = None
    old_token_id: str | None = None
    new_token_id: str | None = None
    reason: str | None = None

    @property
    def outcome(self) -> str:
        if self.report is None:
            return OUTCOME_ABORTED
        return OUTCOME_ROTATED if self.new_token_id else OUTCOME_NO_CHANGE

    def to_dict(self) -> dict:
        return {
            "started_at": iso_ts(self.started_at),
            "finished_at": iso_ts(self.finished_at),
            "trigger": self.trigger,
            "outcome": self.outcome,
            "old_token_id": self.old_token_id,
            "new_token_id": self.new_token_id,
            "reason": self.reason,
            "report": self.report.to_dict() if self.report is not None else None,
        }


class GuardEngine:
    def __init__(self, config, client: UpstreamClient | None = None, now_fn=utc_now_second):
        self.config = config
        self.store = TokenStore(config.storage_path)
        self.client = client or UpstreamClient(config.upstream_url)
        self._now = now_fn
        self._counter_lock = threading.Lock()
        self._violations_since_run = 0
        self._run_lock = threading.Lock()
        # runs started; the last finished run (None during a run or after a failed one)
        self._runs_started = 0
        self._last_run: DetectionRun | None = None
        # (current token id, {requested token id: (error, encoded 412 body)})
        self._verdicts: tuple = (None, {})
        # the detection loop; its wake event is set when the 412 counter
        # reaches z, and to stop the loop
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

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
        if dataset_id in (None, ""):  # 0, false and any other non-text id fail below
            dataset_id = "ds-" + dataset_fingerprint(items)[:12]
        dataset = BenchmarkDataset.create(dataset_id, items)
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
        if counted:
            with self._counter_lock:
                self._violations_since_run += 1
                if self._violations_since_run >= self.config.violation_trigger_z:
                    self._wake.set()
        return 412, {}, error.to_wire() if body is None else body

    def _verdict(self, requested, current, dataset):
        """validate(requested, current, dataset) and its encoded 412 body,
        computed once per requested token while `current` stays current.
        Tokens are immutable and baseline() reads the dataset the current
        token names, so the two token ids decide the result; the
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

    def start(self):
        """Start the detection loop: a run every schedule_interval_secs, and
        one as soon as the 412 counter reaches z. The loop is the only
        caller of interval and violation runs; manual runs share the run
        lock with it."""
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True, name="drift-guard-detection")
        self._thread.start()

    def stop(self):
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self._wake.clear()  # a later start() must not take it for a z trigger

    def _loop(self):
        while not self._stop.is_set():
            woken = self._wake.wait(timeout=self.config.schedule_interval_secs)
            if self._stop.is_set():
                break
            self._wake.clear()
            trigger = TRIGGER_VIOLATION if woken else TRIGGER_INTERVAL
            try:
                run = self.run_detection(trigger)
                log.info("detection run (%s): %s", trigger, run.outcome)
            except Exception:
                log.exception("detection run failed")

    def run_detection(self, trigger: str) -> DetectionRun:
        """Execute one evolution-detection run, or share one. Runs never
        overlap: a call that queued behind a run returns the next run that
        started after the call arrived, so concurrent calls cost at most
        two sweeps and none gets a verdict from an older probe."""
        arrived = self._runs_started
        with self._run_lock:
            if self._runs_started != arrived and self._last_run is not None:
                return self._last_run
            self._runs_started += 1
            self._last_run = None
            try:
                started = self._now()
                found = self._detect()
                run = DetectionRun(started, self._now(), trigger, **found)
            finally:
                with self._counter_lock:
                    self._violations_since_run = 0
            record = run.to_dict()
            self.store.append(DETECTIONS_FILE, record)
            self._last_run = run
        if run.outcome == OUTCOME_ROTATED:
            self._post_callback({"kind": "detection", "run": record})
        return run

    def _detect(self) -> dict:
        """Probe, diff and maybe rotate: returns what the run found, the
        DetectionRun fields beyond the trigger and the timestamps."""
        baseline = self.store.baseline()
        if baseline is None:
            return {"reason": NOT_INITIALIZED}
        current, dataset = baseline
        snapshot = self.client.snapshot_benchmark(dataset, current.rules)
        failures = sum(1 for r in snapshot if not r.success)
        if failures:
            # An incomplete probe proves nothing about drift; diffing against
            # empty failure entries would fabricate label deltas.
            log.warning("detection aborted: %d/%d benchmark items failed", failures, len(snapshot))
            reason = f"snapshot_incomplete ({failures}/{len(snapshot)} items failed)"
            return {"reason": reason}
        report = evaluate_epochs(current.snapshot, snapshot, dataset, current.rules)
        if report.violating_images < 1:
            return {"report": report}
        if snapshot_content(snapshot) == snapshot_content(current.snapshot):
            # Identical results can only flag a persistent expected-label
            # absence the operator already learned about when this token was
            # installed; rotating onto a content-identical token would
            # invalidate healthy clients for nothing.
            reason = "state_unchanged (persistent expected-labels violation)"
            return {"report": report, "reason": reason}
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
        return {
            "report": report,
            "old_token_id": current.token_id,
            "new_token_id": new_token.token_id,
        }
