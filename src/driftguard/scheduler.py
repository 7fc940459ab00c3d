"""Detection runs and the background loop that triggers them.

A run re-probes the benchmark, diffs it against the live token's snapshot,
and rotates the token only when drift crosses the operator's thresholds.
Two independent triggers fire runs: a fixed interval and a count of
request-time precondition failures. Runs never overlap; a trigger landing
during an active run waits for the next run, which every trigger that
landed meanwhile shares.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from datetime import datetime

from .diffing import EvolutionReport
from .types import ContractError, iso_ts

log = logging.getLogger(__name__)

TRIGGER_INTERVAL = "interval"
TRIGGER_VIOLATION = "violation_threshold"
TRIGGER_MANUAL = "manual"
TRIGGERS = (TRIGGER_INTERVAL, TRIGGER_VIOLATION, TRIGGER_MANUAL)

OUTCOME_NO_CHANGE = "no_change"
OUTCOME_ROTATED = "token_rotated"
OUTCOME_ABORTED = "aborted"


@dataclass(frozen=True)
class DetectionRun:
    started_at: datetime
    finished_at: datetime
    trigger: str
    outcome: str
    report: EvolutionReport | None = None
    old_token_id: str | None = None
    new_token_id: str | None = None
    reason: str | None = None

    def __post_init__(self):
        if self.trigger not in TRIGGERS:
            raise ContractError(f"unknown trigger {self.trigger!r}")
        if self.outcome == OUTCOME_ROTATED:
            if self.report is None or self.report.violating_images < 1:
                raise ContractError("token_rotated requires a report with violations")
            if not (self.old_token_id and self.new_token_id):
                raise ContractError("token_rotated requires old and new token ids")
        elif self.outcome == OUTCOME_NO_CHANGE:
            if self.report is None:
                raise ContractError("no_change requires a report")
            if self.report.violating_images != 0 and not self.reason:
                # only a persistent expected-label absence on an unchanged
                # snapshot may be declared no_change, and it must say so
                raise ContractError("no_change with a violating report needs a reason")
        elif self.outcome == OUTCOME_ABORTED:
            if not self.reason:
                raise ContractError("aborted runs must carry a reason")
        else:
            raise ContractError(f"unknown outcome {self.outcome!r}")

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


class Scheduler:
    """Single background thread firing detection runs.

    Wakes every `interval_secs` or immediately when the engine reports
    that its precondition-failure counter hit the trigger threshold. The
    loop itself is the only caller, so interval and violation runs can
    never overlap; manual runs serialize on the engine's run lock.
    """

    def __init__(self, engine, interval_secs: float):
        if interval_secs <= 0:
            raise ContractError("interval must be positive")
        self._engine = engine
        self._interval = interval_secs
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        engine.on_violation_threshold = self._wake.set

    def _loop(self):
        while not self._stop.is_set():
            woken = self._wake.wait(timeout=self._interval)
            if self._stop.is_set():
                break
            self._wake.clear()
            trigger = TRIGGER_VIOLATION if woken else TRIGGER_INTERVAL
            try:
                run = self._engine.run_detection(trigger)
                log.info("detection run (%s): %s", trigger, run.outcome)
            except Exception:
                log.exception("detection run failed")

    def start(self):
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True, name="drift-guard-scheduler")
        self._thread.start()
        return self

    def stop(self):
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
