import json
from datetime import datetime, timezone

import pytest
import requests

from driftguard.config import ProxyConfig
from driftguard.engine import GuardEngine
from driftguard.proxy import ProxyServer
from driftguard.simulator import SimulatorServer, parse_script
from driftguard.types import ThresholdRules, http_date
from driftguard.upstream import UpstreamClient

from netutil import CallbackReceiver, free_port

# img-a drifts in labels (6 changes), img-b in confidence (+0.3), img-c
# drops its expected label `fauna`.
DRIFT_SCRIPT = """
[epoch 0]
add http://images.test/a.jpg cat 0.9
add http://images.test/a.jpg animal 0.8
add http://images.test/a.jpg pet 0.7
add http://images.test/a.jpg whiskers 0.6
add http://images.test/b.jpg dog 0.6
add http://images.test/b.jpg animal 0.5
add http://images.test/c.jpg sheep 0.9
add http://images.test/c.jpg fauna 0.8
[epoch 1]
drop http://images.test/a.jpg cat
drop http://images.test/a.jpg pet
add http://images.test/a.jpg car 0.95
add http://images.test/a.jpg road 0.85
add http://images.test/a.jpg street 0.75
add http://images.test/a.jpg town 0.65
shift http://images.test/b.jpg dog 0.3
drop http://images.test/c.jpg fauna
"""

MANIFEST_ITEMS = [
    {"image_ref": "http://images.test/a.jpg", "ground_truth": "cat", "expected_labels": []},
    {"image_ref": "http://images.test/b.jpg", "ground_truth": "dog", "expected_labels": []},
    {
        "image_ref": "http://images.test/c.jpg",
        "ground_truth": "sheep",
        "expected_labels": ["fauna"],
    },
]

T_INIT = datetime(2026, 1, 1, 10, 0, 0, tzinfo=timezone.utc)
T_ROTATE = datetime(2026, 1, 2, 10, 0, 0, tzinfo=timezone.utc)


class Clock:
    def __init__(self, start=T_INIT):
        self.now = start

    def __call__(self):
        return self.now


@pytest.fixture()
def sim():
    with SimulatorServer(parse_script(DRIFT_SCRIPT, seed=4)) as server:
        yield server


@pytest.fixture()
def stack(sim, tmp_path):
    """(proxy, engine, clock) against a live simulator."""
    config = ProxyConfig(
        listen="127.0.0.1:0",
        upstream_url=sim.endpoint,
        service_id="vision-main",
        storage_path=str(tmp_path / "storage"),
        schedule_interval_secs=10_000,
        violation_trigger_z=3,
        rules=ThresholdRules(max_labels=3, min_confidence=0.5),
    )
    clock = Clock()
    engine = GuardEngine(
        config,
        client=UpstreamClient(sim.endpoint, timeout=5, retries=2, backoff_base=0.01),
        now_fn=clock,
    )
    with ProxyServer(config, engine=engine) as proxy:
        yield proxy, engine, clock


def post_benchmark(proxy, rules=None):
    body = {"items": MANIFEST_ITEMS}
    if rules is not None:
        body["rules"] = rules
    return requests.post(f"{proxy.base_url}/benchmark", json=body, timeout=10)


def annotate(proxy, url="http://images.test/b.jpg", etag=None, date=None, max_results=None):
    headers = {}
    if etag is not None:
        headers["If-Match"] = etag
    if date is not None:
        headers["If-Unmodified-Since"] = date
    body = {"url": url}
    if max_results is not None:
        body["maxResults"] = max_results
    return requests.post(f"{proxy.base_url}/annotate", json=body, headers=headers, timeout=10)


class TestBenchmarkEndpoint:
    def test_valid_manifest_returns_201_with_etag(self, stack):
        proxy, engine, _ = stack
        reply = post_benchmark(proxy)
        assert reply.status_code == 201
        metadata = reply.json()
        assert reply.headers["ETag"] == f'W/"{metadata["token_id"]}"'
        assert "Last-Modified" in reply.headers
        assert metadata["success"] is True
        assert metadata["snapshot_size"] == 3
        assert "snapshot" not in metadata

    def test_duplicate_image_ref_rejected(self, stack):
        proxy, _, _ = stack
        body = {"items": [MANIFEST_ITEMS[0], MANIFEST_ITEMS[0]]}
        reply = requests.post(f"{proxy.base_url}/benchmark", json=body, timeout=10)
        assert reply.status_code == 400
        assert "duplicate" in reply.json()["error"]

    def test_missing_items_rejected(self, stack):
        proxy, _, _ = stack
        reply = requests.post(f"{proxy.base_url}/benchmark", json={}, timeout=10)
        assert reply.status_code == 400

    @pytest.mark.parametrize(
        "field",
        [
            '"rules": {"max_labels": 2.5}',
            '"rules": {"max_labels": true}',
            '"rules": {"max_labels": NaN}',
            '"rules": {"max_delta_labels": 2.5}',
            '"rules": {"min_confidence": false}',
            '"rules": {"expected_labels": "cat"}',
            '"items": [{"image_ref": "u", "ground_truth": "cat", "expected_labels": "cat"}]',
            '"items": [{"image_ref": 5, "ground_truth": "cat"}]',
            '"items": [{"image_ref": "u", "ground_truth": ["cat"]}]',
            '"items": [{"image_ref": "u"}]',
            '"rules": {"severity": "error"}',
            '"dataset_id": 5',
            '"dataset_id": {"a": 1}',
            '"dataset_id": ["x"]',
            '"dataset_id": true',
            '"dataset_id": false',
            '"dataset_id": 0',
            '"rules": {"severity": [["label_delta", "error"], ["confidence_delta", "error"],'
            ' ["expected_labels", "error"]]}',
        ],
    )
    def test_wrong_typed_field_is_400_before_any_upstream_call(self, stack, field):
        proxy, engine, _ = stack
        calls = []
        engine.client.snapshot_benchmark = lambda *args: calls.append(args)
        items = json.dumps(MANIFEST_ITEMS)
        body = "{" + field + (', "items": ' + items if '"items"' not in field else "") + "}"
        reply = requests.post(
            f"{proxy.base_url}/benchmark",
            data=body.encode(),
            headers={"Content-Type": "application/json"},
            timeout=10,
        )
        assert reply.status_code == 400
        assert reply.json()["error"].startswith("invalid manifest: ")
        assert calls == []

    def test_unreachable_upstream_returns_502_and_stores_nothing(self, tmp_path):
        config = ProxyConfig(
            listen="127.0.0.1:0",
            upstream_url=f"http://127.0.0.1:{free_port()}/annotate",
            service_id="vision-main",
            storage_path=str(tmp_path / "storage"),
        )
        engine = GuardEngine(
            config, client=UpstreamClient(config.upstream_url, timeout=0.3, retries=1)
        )
        with ProxyServer(config, engine=engine) as proxy:
            assert post_benchmark(proxy).status_code == 502
            assert requests.get(f"{proxy.base_url}/token", timeout=5).status_code == 404

    def test_partial_failure_mints_unsuccessful_token(self, sim, tmp_path):
        config = ProxyConfig(
            listen="127.0.0.1:0",
            upstream_url=sim.endpoint,
            service_id="vision-main",
            storage_path=str(tmp_path / "storage"),
        )
        engine = GuardEngine(
            config, client=UpstreamClient(sim.endpoint, timeout=5, retries=1)
        )
        with ProxyServer(config, engine=engine) as proxy:
            body = {
                "items": MANIFEST_ITEMS
                + [{"image_ref": "http://images.test/ghost.jpg", "ground_truth": "?"}]
            }
            reply = requests.post(f"{proxy.base_url}/benchmark", json=body, timeout=10)
            assert reply.status_code == 201
            assert reply.json()["success"] is False
            # a token minted from a failed snapshot is unusable: code 3
            stale = annotate(proxy, etag=reply.headers["ETag"])
            assert stale.status_code == 412
            assert stale.json()["error_code"] == 3


class TestTokenEndpoint:
    def test_404_before_init(self, stack):
        proxy, _, _ = stack
        assert requests.get(f"{proxy.base_url}/token", timeout=5).status_code == 404

    def test_metadata_after_init(self, stack):
        proxy, _, _ = stack
        created = post_benchmark(proxy)
        reply = requests.get(f"{proxy.base_url}/token", timeout=5)
        assert reply.status_code == 200
        assert reply.json()["token_id"] == created.json()["token_id"]
        assert reply.headers["ETag"] == created.headers["ETag"]
        assert "snapshot" not in reply.json()


class TestAnnotatePreconditions:
    def test_missing_header_is_428(self, stack):
        proxy, _, _ = stack
        post_benchmark(proxy)
        assert annotate(proxy).status_code == 428

    def test_both_headers_is_400(self, stack):
        proxy, _, _ = stack
        etag = post_benchmark(proxy).headers["ETag"]
        reply = annotate(proxy, etag=etag, date=http_date(T_INIT))
        assert reply.status_code == 400

    def test_strong_etag_is_400(self, stack):
        proxy, _, _ = stack
        etag = post_benchmark(proxy).headers["ETag"]
        assert annotate(proxy, etag=etag[2:]).status_code == 400

    def test_unparseable_date_is_400(self, stack):
        proxy, _, _ = stack
        post_benchmark(proxy)
        assert annotate(proxy, date="not-a-date").status_code == 400

    def test_uninitialized_is_412_code_0(self, stack):
        proxy, _, _ = stack
        reply = annotate(proxy, etag='W/"0123456789abcdef"')
        assert reply.status_code == 412
        body = reply.json()
        assert body["error_code"] == 0
        assert body["error_type"] == "NO_KEY_YET"

    def test_unknown_token_id_is_412_code_2(self, stack):
        proxy, _, _ = stack
        post_benchmark(proxy)
        reply = annotate(proxy, etag='W/"ffffffffffffffff"')
        assert reply.status_code == 412
        assert reply.json()["error_code"] == 2

    def test_bad_body_is_400(self, stack):
        proxy, _, _ = stack
        post_benchmark(proxy)
        reply = requests.post(
            f"{proxy.base_url}/annotate",
            json={"url": ""},
            headers={"If-Match": 'W/"0123456789abcdef"'},
            timeout=5,
        )
        assert reply.status_code == 400
        reply = annotate(proxy, url="http://images.test/b.jpg", max_results=0)
        assert reply.status_code == 400


class TestAnnotateServing:
    def test_valid_token_forwards_and_filters(self, stack):
        proxy, _, _ = stack
        etag = post_benchmark(proxy).headers["ETag"]
        reply = annotate(proxy, url="http://images.test/a.jpg", etag=etag)
        assert reply.status_code == 200
        assert reply.headers["ETag"] == etag
        annotations = reply.json()["responses"][0]["label_annotations"]
        # min_confidence 0.5 drops nothing here; max_labels 3 truncates four
        assert [a["description"] for a in annotations] == ["cat", "animal", "pet"]

    def test_min_confidence_filter_applies(self, stack):
        proxy, _, _ = stack
        etag = post_benchmark(proxy).headers["ETag"]
        reply = annotate(proxy, url="http://images.test/b.jpg", etag=etag)
        labels = [
            a["description"] for a in reply.json()["responses"][0]["label_annotations"]
        ]
        assert labels == ["dog", "animal"]
        for annotation in reply.json()["responses"][0]["label_annotations"]:
            assert annotation["score"] >= 0.5

    def test_max_results_narrows_further(self, stack):
        proxy, _, _ = stack
        etag = post_benchmark(proxy).headers["ETag"]
        reply = annotate(proxy, url="http://images.test/a.jpg", etag=etag, max_results=1)
        assert len(reply.json()["responses"][0]["label_annotations"]) == 1

    def test_unknown_image_is_502(self, stack):
        proxy, _, _ = stack
        etag = post_benchmark(proxy).headers["ETag"]
        reply = annotate(proxy, url="http://images.test/ghost.jpg", etag=etag)
        assert reply.status_code == 502

    def test_if_unmodified_since_passes_at_or_after_creation(self, stack):
        proxy, _, _ = stack
        post_benchmark(proxy)
        assert annotate(proxy, date=http_date(T_INIT)).status_code == 200

    def test_audit_log_records_served_requests(self, stack, tmp_path):
        proxy, _, _ = stack
        etag = post_benchmark(proxy).headers["ETag"]
        annotate(proxy, url="http://images.test/a.jpg", etag=etag)
        audit = (tmp_path / "storage" / "audit.log").read_text(encoding="utf-8")
        assert '"kind":"annotate"' in audit


class TestEvolutionFlow:
    def rotate(self, proxy, sim, clock, when=T_ROTATE):
        etag = post_benchmark(proxy).headers["ETag"]
        sim.advance_epoch()
        clock.now = when
        reply = requests.post(f"{proxy.base_url}/admin/detect", timeout=10)
        assert reply.status_code == 202
        assert reply.json()["outcome"] == "token_rotated"
        return etag, reply.json()

    def test_stale_token_after_rotation_gets_benchmark_error(self, stack, sim):
        proxy, _, clock = stack
        old_etag, detect = self.rotate(proxy, sim, clock)
        reply = annotate(proxy, etag=old_etag)
        assert reply.status_code == 412
        body = reply.json()
        assert body["error_code"] >= 7
        assert body["error_data"]["source_key"]["token_id"] == old_etag[3:-1]
        assert body["error_data"]["violating_key"]["token_id"] == detect["new_token_id"]

    def test_fresh_token_after_rotation_serves(self, stack, sim):
        proxy, _, clock = stack
        self.rotate(proxy, sim, clock)
        fresh = requests.get(f"{proxy.base_url}/token", timeout=5).headers["ETag"]
        assert annotate(proxy, etag=fresh).status_code == 200

    def test_old_date_resolves_old_token_and_fails_with_details(self, stack, sim):
        proxy, _, clock = stack
        self.rotate(proxy, sim, clock)
        reply = annotate(proxy, date=http_date(T_INIT))
        assert reply.status_code == 412
        assert reply.json()["error_code"] >= 7
        assert annotate(proxy, date=http_date(T_ROTATE)).status_code == 200

    def test_same_second_rotation_resolves_dates_to_the_older_token(self, stack, sim):
        # One-second dates cannot tell the two tokens apart: fail closed, as
        # the predecessor's ETag does, rather than serve the new baseline.
        proxy, _, clock = stack
        old_etag, detect = self.rotate(proxy, sim, clock, when=T_INIT)
        by_date = annotate(proxy, date=http_date(T_INIT))
        by_etag = annotate(proxy, etag=old_etag)
        assert by_date.status_code == by_etag.status_code == 412
        assert by_date.json() == by_etag.json()
        assert annotate(proxy, etag=f'W/"{detect["new_token_id"]}"').status_code == 200

    def test_date_before_any_token_is_412_code_2(self, stack):
        proxy, _, _ = stack
        post_benchmark(proxy)
        early = datetime(2020, 1, 1, tzinfo=timezone.utc)
        reply = annotate(proxy, date=http_date(early))
        assert reply.status_code == 412
        assert reply.json()["error_code"] == 2

    def test_get_token_shows_rotated_token(self, stack, sim):
        proxy, _, clock = stack
        _, detect = self.rotate(proxy, sim, clock)
        assert (
            requests.get(f"{proxy.base_url}/token", timeout=5).json()["token_id"]
            == detect["new_token_id"]
        )


class TestAdminDetect:
    def test_uninitialized_is_409(self, stack):
        proxy, _, _ = stack
        assert requests.post(f"{proxy.base_url}/admin/detect", timeout=5).status_code == 409

    def test_no_drift_keeps_token(self, stack):
        proxy, _, _ = stack
        token_id = post_benchmark(proxy).json()["token_id"]
        reply = requests.post(f"{proxy.base_url}/admin/detect", timeout=10)
        assert reply.status_code == 202
        body = reply.json()
        assert body["outcome"] == "no_change"
        assert body["report"]["totals"]["violating_images"] == 0
        token_reply = requests.get(f"{proxy.base_url}/token", timeout=5)
        assert token_reply.json()["token_id"] == token_id

    def test_upstream_down_aborts_and_keeps_token(self, sim, tmp_path):
        config = ProxyConfig(
            listen="127.0.0.1:0",
            upstream_url=sim.endpoint,
            service_id="vision-main",
            storage_path=str(tmp_path / "storage"),
        )
        engine = GuardEngine(
            config, client=UpstreamClient(sim.endpoint, timeout=0.3, retries=1)
        )
        with ProxyServer(config, engine=engine) as proxy:
            token_id = post_benchmark(proxy).json()["token_id"]
            sim.stop()
            reply = requests.post(f"{proxy.base_url}/admin/detect", timeout=30)
            assert reply.status_code == 502
            assert reply.json()["outcome"] == "aborted"
            assert requests.get(f"{proxy.base_url}/token", timeout=5).json()["token_id"] == (
                token_id
            )


class TestSeverityDispatch:
    def make_stack(self, sim, tmp_path, severity, callback_url=None):
        rules = ThresholdRules(
            max_labels=5,
            severity={
                "label_delta": severity,
                "confidence_delta": severity,
                "expected_labels": severity,
            },
        )
        config = ProxyConfig(
            listen="127.0.0.1:0",
            upstream_url=sim.endpoint,
            service_id="vision-main",
            storage_path=str(tmp_path / f"storage-{severity}"),
            warning_callback_url=callback_url,
            rules=rules,
        )
        clock = Clock()
        engine = GuardEngine(
            config,
            client=UpstreamClient(sim.endpoint, timeout=5, retries=1),
            now_fn=clock,
        )
        return ProxyServer(config, engine=engine), clock

    def drift_and_request_with_stale_token(self, proxy, sim, clock):
        etag = post_benchmark(proxy).headers["ETag"]
        sim.advance_epoch()
        clock.now = T_ROTATE
        requests.post(f"{proxy.base_url}/admin/detect", timeout=10)
        return annotate(proxy, url="http://images.test/b.jpg", etag=etag)

    def test_error_severity_withholds_response(self, sim, tmp_path):
        proxy, clock = self.make_stack(sim, tmp_path, "error")
        with proxy:
            reply = self.drift_and_request_with_stale_token(proxy, sim, clock)
        assert reply.status_code == 412
        assert reply.json()["error_code"] >= 7

    def test_warning_severity_notifies_and_serves(self, sim, tmp_path):
        with CallbackReceiver() as receiver:
            proxy, clock = self.make_stack(sim, tmp_path, "warning", receiver.url)
            with proxy:
                reply = self.drift_and_request_with_stale_token(proxy, sim, clock)
                assert reply.status_code == 200
                assert receiver.wait(5)
        payloads = [p for p in receiver.received if "error_code" in p]
        assert payloads and payloads[0]["error_code"] >= 7

    def test_warning_callback_failure_still_serves(self, sim, tmp_path):
        dead_callback = f"http://127.0.0.1:{free_port()}/callback"
        proxy, clock = self.make_stack(sim, tmp_path, "warning", dead_callback)
        with proxy:
            reply = self.drift_and_request_with_stale_token(proxy, sim, clock)
        assert reply.status_code == 200

    def test_malformed_callback_url_still_serves(self, sim, tmp_path):
        proxy, clock = self.make_stack(sim, tmp_path, "warning", "localhost:1/cb")
        with proxy:
            reply = self.drift_and_request_with_stale_token(proxy, sim, clock)
        assert reply.status_code == 200

    def test_info_severity_logs_and_serves(self, sim, tmp_path):
        proxy, clock = self.make_stack(sim, tmp_path, "info")
        with proxy:
            reply = self.drift_and_request_with_stale_token(proxy, sim, clock)
            assert reply.status_code == 200
            audit = (tmp_path / "storage-info" / "audit.log").read_text(encoding="utf-8")
        assert '"kind":"violation"' in audit


class TestRouting:
    def test_unknown_route_is_404(self, stack):
        proxy, _, _ = stack
        assert requests.get(f"{proxy.base_url}/nope", timeout=5).status_code == 404

    def test_invalid_json_body_is_400(self, stack):
        proxy, _, _ = stack
        reply = requests.post(
            f"{proxy.base_url}/benchmark",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            timeout=5,
        )
        assert reply.status_code == 400
