import json
import logging
import sys
import threading
import time
from datetime import datetime, timezone

import pytest
import requests

from driftguard.config import ProxyConfig
from driftguard.diffing import evaluate_epochs
from driftguard.engine import (
    OUTCOME_ABORTED,
    OUTCOME_NO_CHANGE,
    OUTCOME_ROTATED,
    TRIGGER_INTERVAL,
    TRIGGER_MANUAL,
    TRIGGER_VIOLATION,
    DetectionRun,
    GuardEngine,
)
from driftguard.proxy import ProxyServer
from driftguard.simulator import SimulatorServer, parse_script
from driftguard.token import validate
from driftguard.types import ThresholdRules, utc_now_second
from driftguard.upstream import UpstreamClient

from netutil import CallbackReceiver, InFlightGauge, SetRecorder
from test_proxy import DRIFT_SCRIPT, MANIFEST_ITEMS

T0 = datetime(2026, 1, 1, tzinfo=timezone.utc)


def make_engine(sim, tmp_path, callback_url=None, z=3, interval=10_000):
    config = ProxyConfig(
        listen="127.0.0.1:0",
        upstream_url=sim.endpoint,
        service_id="vision-main",
        storage_path=str(tmp_path / "storage"),
        warning_callback_url=callback_url,
        schedule_interval_secs=interval,
        violation_trigger_z=z,
        rules=ThresholdRules(max_labels=5),
    )
    engine = GuardEngine(
        config, client=UpstreamClient(sim.endpoint, timeout=5, retries=1)
    )
    return config, engine


def engine_items():
    from driftguard.types import BenchmarkItem

    return [
        BenchmarkItem(e["image_ref"], e["ground_truth"], frozenset(e["expected_labels"]))
        for e in MANIFEST_ITEMS
    ]


def init_engine(engine):
    return engine.initialize_benchmark(engine_items(), engine.config.rules)


@pytest.fixture()
def sim():
    with SimulatorServer(parse_script(DRIFT_SCRIPT, seed=4)) as server:
        yield server


class TestDetectionRunOutcome:
    def test_outcome_follows_from_what_the_run_found(self):
        from driftguard.types import BenchmarkDataset

        import reference_fixtures as refs

        old, new = refs.fixture_snapshots()
        dataset = BenchmarkDataset.create("fixtures", refs.FIXTURE_ITEMS)
        report = evaluate_epochs(old, new, dataset, refs.FIXTURE_RULES)
        assert report.violating_images >= 1
        found = [
            ({"reason": "not_initialized"}, OUTCOME_ABORTED),
            ({"report": report}, OUTCOME_NO_CHANGE),
            ({"report": report, "reason": "state_unchanged"}, OUTCOME_NO_CHANGE),
            ({"report": report, "old_token_id": "a", "new_token_id": "b"}, OUTCOME_ROTATED),
        ]
        for fields, outcome in found:
            run = DetectionRun(T0, T0, TRIGGER_MANUAL, **fields)
            assert run.outcome == outcome
            assert run.to_dict()["outcome"] == outcome


class TestRunDetection:
    def test_uninitialized_aborts(self, sim, tmp_path):
        _, engine = make_engine(sim, tmp_path)
        run = engine.run_detection(TRIGGER_MANUAL)
        assert run.outcome == OUTCOME_ABORTED
        assert run.reason == "not_initialized"

    def test_rotation_iff_violations(self, sim, tmp_path):
        _, engine = make_engine(sim, tmp_path)
        first = init_engine(engine)
        # unchanged upstream: no rotation
        run = engine.run_detection(TRIGGER_MANUAL)
        assert run.outcome == OUTCOME_NO_CHANGE
        assert engine.store.current.token_id == first.token_id
        # drifted upstream: rotation
        sim.advance_epoch()
        run = engine.run_detection(TRIGGER_MANUAL)
        assert run.outcome == OUTCOME_ROTATED
        assert run.old_token_id == first.token_id
        assert engine.store.current.token_id == run.new_token_id
        # settled again: no further rotation
        run = engine.run_detection(TRIGGER_MANUAL)
        assert run.outcome == OUTCOME_NO_CHANGE

    def test_persistent_expected_label_absence_rotates_only_once(self, sim, tmp_path):
        # img-c's `fauna` stays missing after the drift; once the new state
        # is tokenized, identical probes must not rotate again even though
        # the expected-labels check still flags the image.
        _, engine = make_engine(sim, tmp_path)
        init_engine(engine)
        sim.advance_epoch()
        first = engine.run_detection(TRIGGER_MANUAL)
        assert first.outcome == OUTCOME_ROTATED
        assert "expected_labels" in {
            v for d in first.report.deltas for v in d.violations
        }
        second = engine.run_detection(TRIGGER_MANUAL)
        assert second.outcome == OUTCOME_NO_CHANGE
        assert second.report.violating_images >= 1
        assert "state_unchanged" in second.reason
        assert engine.store.current.token_id == first.new_token_id

    def test_stale_token_never_validates_after_rotation(self, sim, tmp_path):
        _, engine = make_engine(sim, tmp_path)
        old = init_engine(engine)
        sim.advance_epoch()
        engine.run_detection(TRIGGER_MANUAL)
        error = validate(old, engine.store.current, engine.store.baseline()[1])
        assert error is not None
        assert error.error_code >= 7

    def test_upstream_down_aborts_and_retains_token(self, sim, tmp_path):
        _, engine = make_engine(sim, tmp_path)
        token = init_engine(engine)
        sim.stop()
        run = engine.run_detection(TRIGGER_MANUAL)
        assert run.outcome == OUTCOME_ABORTED
        assert "snapshot_incomplete" in run.reason
        assert engine.store.current.token_id == token.token_id

    def test_every_run_appends_to_detections_log(self, sim, tmp_path):
        _, engine = make_engine(sim, tmp_path)
        init_engine(engine)
        engine.run_detection(TRIGGER_MANUAL)
        sim.advance_epoch()
        engine.run_detection(TRIGGER_INTERVAL)
        lines = (tmp_path / "storage" / "detections.log").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        records = [json.loads(line) for line in lines]
        assert records[0]["outcome"] == OUTCOME_NO_CHANGE
        assert records[0]["trigger"] == TRIGGER_MANUAL
        assert records[1]["outcome"] == OUTCOME_ROTATED
        assert records[1]["report"]["totals"]["violating_images"] >= 1

    def test_rotation_notifies_warning_callback(self, sim, tmp_path):
        with CallbackReceiver() as receiver:
            _, engine = make_engine(sim, tmp_path, callback_url=receiver.url)
            init_engine(engine)
            sim.advance_epoch()
            engine.run_detection(TRIGGER_MANUAL)
            assert receiver.wait(5)
            kinds = [p.get("kind") for p in receiver.received]
            assert "detection" in kinds
            run_payload = receiver.received[kinds.index("detection")]["run"]
            assert run_payload["outcome"] == OUTCOME_ROTATED

    def test_no_change_does_not_notify(self, sim, tmp_path):
        with CallbackReceiver() as receiver:
            _, engine = make_engine(sim, tmp_path, callback_url=receiver.url)
            init_engine(engine)
            engine.run_detection(TRIGGER_MANUAL)
            assert not receiver.wait(0.3)

    def test_concurrent_calls_share_at_most_two_sweeps(self, sim, tmp_path):
        _, engine = make_engine(sim, tmp_path)
        init_engine(engine)
        sweeps = []
        everyone_waits = threading.Event()
        probe = engine.client.snapshot_benchmark

        def counted(dataset, rules):
            sweeps.append(threading.current_thread().name)
            if len(sweeps) == 1:  # hold the first sweep until every call queued
                everyone_waits.wait(5)
            return probe(dataset, rules)

        engine.client.snapshot_benchmark = counted
        runs = {}

        def call(index):
            called = utc_now_second()
            runs[index] = (called, engine.run_detection(TRIGGER_MANUAL))

        threads = [threading.Thread(target=call, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            time.sleep(0.3)
            everyone_waits.set()
            for thread in threads:
                thread.join(10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        log_path = tmp_path / "storage" / "detections.log"
        assert len(runs) == 4 and len(sweeps) <= 2
        assert len(log_path.read_text(encoding="utf-8").splitlines()) == len(sweeps)
        assert all(run.started_at >= called for called, run in runs.values())
        # a call made after those runs ended gets a run of its own
        later = engine.run_detection(TRIGGER_MANUAL)
        assert all(later is not run for _, run in runs.values())
        assert len(log_path.read_text(encoding="utf-8").splitlines()) == len(sweeps)

    def test_violation_counter_resets_on_every_run(self, sim, tmp_path):
        _, engine = make_engine(sim, tmp_path, z=100)
        init_engine(engine)
        engine.annotate("http://images.test/a.jpg", None, ("etag", "f" * 16))
        assert engine.violations_since_run() == 1
        engine.run_detection(TRIGGER_MANUAL)
        assert engine.violations_since_run() == 0

    def test_predecessor_412s_do_not_count_toward_z(self, sim, tmp_path):
        url = "http://images.test/a.jpg"
        _, engine = make_engine(sim, tmp_path, z=1)
        assert engine.annotate(url, None, ("etag", "f" * 16))[0] == 412  # code 0
        assert engine.violations_since_run() == 1
        old = init_engine(engine)
        sim.advance_epoch()
        assert engine.run_detection(TRIGGER_MANUAL).outcome == OUTCOME_ROTATED
        engine._wake = fired = SetRecorder()
        for token_ref in (("etag", old.token_id), ("date", old.created_at)):
            assert engine.annotate(url, None, token_ref)[0] == 412
        assert engine.violations_since_run() == 0 and fired.sets == []
        assert engine.annotate(url, None, ("etag", "f" * 16))[0] == 412
        assert engine.violations_since_run() == 1 and fired.sets == [True]

    def test_current_token_failing_still_counts_toward_z(self, sim, tmp_path):
        from driftguard.types import BenchmarkItem

        _, engine = make_engine(sim, tmp_path, z=1)
        ghost = BenchmarkItem("http://images.test/ghost.jpg", "?", frozenset())
        current = engine.initialize_benchmark(
            [*engine_items(), ghost], engine.config.rules
        )
        assert current.success is False
        engine._wake = fired = SetRecorder()
        status, _, body = engine.annotate(
            "http://images.test/a.jpg", None, ("etag", current.token_id)
        )
        assert (status, json.loads(body)["error_code"]) == (412, 3)
        assert fired.sets == [True]


class TestSchedulerLoop:
    def test_interval_ticks_fire_repeatedly(self, sim, tmp_path):
        _, engine = make_engine(sim, tmp_path, interval=0.2)
        init_engine(engine)
        runs = []
        original = engine.run_detection
        engine.run_detection = lambda trigger: runs.append(trigger) or original(trigger)
        engine.start()
        time.sleep(1.1)
        engine.stop()
        assert len(runs) >= 3
        assert set(runs) == {TRIGGER_INTERVAL}

    def test_run_that_raises_is_logged_and_the_loop_goes_on(self, sim, tmp_path, caplog):
        caplog.set_level(logging.ERROR, logger="driftguard.engine")
        _, engine = make_engine(sim, tmp_path, interval=0.1)
        runs = []

        def failing(trigger):
            runs.append(trigger)
            raise RuntimeError("probe exploded")

        engine.run_detection = failing
        engine.start()
        time.sleep(0.45)
        engine.stop()
        assert len(runs) >= 2
        failures = [r for r in caplog.records if r.getMessage() == "detection run failed"]
        assert len(failures) == len(runs)
        assert all(r.exc_info[1].args == ("probe exploded",) for r in failures)

    def test_third_412_triggers_immediate_run(self, sim, tmp_path):
        _, engine = make_engine(sim, tmp_path, z=3)
        init_engine(engine)
        runs = []
        original = engine.run_detection
        engine.run_detection = lambda trigger: runs.append(trigger) or original(trigger)
        engine.start()
        try:
            for _ in range(2):
                engine.annotate("http://images.test/a.jpg", None, ("etag", "f" * 16))
            time.sleep(0.3)
            assert runs == []
            engine.annotate("http://images.test/a.jpg", None, ("etag", "f" * 16))
            deadline = time.monotonic() + 5
            while not runs and time.monotonic() < deadline:
                time.sleep(0.02)
        finally:
            engine.stop()
        assert runs and runs[0] == TRIGGER_VIOLATION

    def test_a_stopped_loop_restarts_without_a_run(self, sim, tmp_path):
        _, engine = make_engine(sim, tmp_path)
        runs = []
        engine.run_detection = runs.append
        for _ in range(2):
            engine.start()
            time.sleep(0.2)
            engine.stop()
        assert runs == []

    def test_runs_never_overlap(self, sim, tmp_path):
        _, engine = make_engine(sim, tmp_path, z=1, interval=0.05)
        init_engine(engine)
        gauge = InFlightGauge(engine.client)
        engine.start()
        threads = [
            threading.Thread(target=engine.run_detection, args=(TRIGGER_MANUAL,))
            for _ in range(4)
        ]
        try:
            for thread in threads:
                thread.start()
            for _ in range(3):
                engine.annotate("http://images.test/a.jpg", None, ("etag", "f" * 16))
            for thread in threads:
                thread.join()
            time.sleep(0.4)
        finally:
            engine.stop()
        assert gauge.max_seen == 1

    def test_detection_never_blocks_annotate(self, sim, tmp_path):
        # requests served against the pre-run token while a run is active
        _, engine = make_engine(sim, tmp_path)
        token = init_engine(engine)
        release = threading.Event()
        original_snapshot = engine.client.snapshot_benchmark

        def slow_snapshot(dataset, rules):
            release.wait(5)
            return original_snapshot(dataset, rules)

        engine.client.snapshot_benchmark = slow_snapshot
        run_thread = threading.Thread(target=engine.run_detection, args=(TRIGGER_MANUAL,))
        run_thread.start()
        try:
            status, headers, _ = engine.annotate(
                "http://images.test/a.jpg", None, ("etag", token.token_id)
            )
            assert status == 200
            assert headers["ETag"] == f'W/"{token.token_id}"'
        finally:
            release.set()
            run_thread.join()


class TestServeIntegration:
    def test_proxy_annotate_feeds_z_trigger(self, sim, tmp_path):
        config, engine = make_engine(sim, tmp_path, z=2)
        with ProxyServer(config, engine=engine) as proxy:
            engine.start()
            try:
                requests.post(
                    f"{proxy.base_url}/benchmark", json={"items": MANIFEST_ITEMS}, timeout=10
                )
                for _ in range(2):
                    requests.post(
                        f"{proxy.base_url}/annotate",
                        json={"url": "http://images.test/a.jpg"},
                        headers={"If-Match": 'W/"ffffffffffffffff"'},
                        timeout=5,
                    )
                deadline = time.monotonic() + 5
                log_path = tmp_path / "storage" / "detections.log"
                while time.monotonic() < deadline:
                    if log_path.exists() and log_path.read_text(encoding="utf-8").strip():
                        break
                    time.sleep(0.02)
                text = log_path.read_text(encoding="utf-8")
                assert '"trigger":"violation_threshold"' in text
            finally:
                engine.stop()
