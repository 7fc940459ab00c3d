import json
import logging
import socket
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from driftguard.simulator import SimulatorServer, parse_script
from driftguard.types import BenchmarkDataset, BenchmarkItem, ThresholdRules
from driftguard.upstream import UpstreamClient
from driftguard.wire import AnnotateRequest

from netutil import ScriptedUpstream, free_port, http_reply, read_request, wire_reply

SCRIPT = parse_script(
    "[epoch 0]\n"
    "add http://images.test/dog.jpg dog 0.792\n"
    "add http://images.test/dog.jpg pet 0.7\n"
    "add http://images.test/dog.jpg animal 0.6\n"
    "add http://images.test/cat.jpg cat 0.9\n"
    "add http://images.test/cow.jpg cow 0.8\n"
    "[epoch 1]\n"
    "shift http://images.test/dog.jpg dog 0.1\n",
    seed=2,
)

DATASET = BenchmarkDataset.create(
    "zoo",
    [
        BenchmarkItem("http://images.test/dog.jpg", "dog"),
        BenchmarkItem("http://images.test/cat.jpg", "cat"),
        BenchmarkItem("http://images.test/cow.jpg", "cow"),
    ],
)
RULES = ThresholdRules(max_labels=2)
# deeper than json.loads can hold: RecursionError, not ValueError, at the parser
DEEP_BODY = b"[" * 100_000


def fast_client(endpoint, **kwargs):
    kwargs.setdefault("timeout", 5.0)
    kwargs.setdefault("backoff_base", 0.01)
    return UpstreamClient(endpoint, **kwargs)


class TestAnnotate:
    def test_parses_wire_response(self):
        with SimulatorServer(SCRIPT) as sim:
            client = fast_client(sim.endpoint)
            response = client.annotate(AnnotateRequest("http://images.test/dog.jpg", 10))
        assert response.success
        assert response.annotations[0].label == "dog"
        assert response.annotations[0].confidence == 0.792

    def test_truncates_to_max_results_even_if_server_ignores_it(self):
        # the double returns every annotation regardless of maxResults
        body_fn = lambda url, n: wire_reply({"a": 0.9, "b": 0.8, "c": 0.7})
        with ScriptedUpstream(body_fn) as upstream:
            client = fast_client(upstream.endpoint)
            response = client.annotate(AnnotateRequest("http://x", 2))
        assert len(response.annotations) == 2

    def test_http_error_becomes_failure_response(self):
        with SimulatorServer(SCRIPT) as sim:
            client = fast_client(sim.endpoint)
            response = client.annotate(AnnotateRequest("http://images.test/ghost.jpg", 5))
        assert not response.success
        assert response.annotations == ()
        assert response.image_ref == "http://images.test/ghost.jpg"

    def test_connection_refused_becomes_failure_response(self):
        client = fast_client(f"http://127.0.0.1:{free_port()}/annotate", timeout=0.5)
        response = client.annotate(AnnotateRequest("http://x", 5))
        assert not response.success

    @pytest.mark.parametrize(
        "endpoint",
        [
            "localhost:1/annotate",
            "http:///annotate",
            "http://127.0.0.1:notaport/a",
            "ftp://127.0.0.1/annotate",
        ],
    )
    def test_malformed_endpoint_becomes_failure_response(self, endpoint):
        response = fast_client(endpoint, timeout=0.5).annotate(AnnotateRequest("http://x", 5))
        assert not response.success
        assert response.image_ref == "http://x"

    def test_malformed_body_becomes_failure_response(self):
        body_fn = lambda url, n: {"unexpected": True}
        with ScriptedUpstream(body_fn) as upstream:
            client = fast_client(upstream.endpoint)
            response = client.annotate(AnnotateRequest("http://x", 5))
        assert not response.success

    @pytest.mark.parametrize(
        "raw",
        [
            DEEP_BODY,
            b'{"responses": [\xff]}',
            json.dumps(wire_reply({"x": 0.9})).encode("utf-16"),
            json.dumps({"responses": [{"label_annotations": [
                {"description": "x", "score": 10**400}]}]}).encode(),
        ],
        ids=["nested too deeply", "not utf-8", "utf-16", "score beyond the float range"],
    )
    def test_body_that_is_not_a_wire_reply_becomes_failure_response_with_a_warning(
        self, raw, caplog
    ):
        caplog.set_level(logging.WARNING, logger="driftguard.upstream")
        with ScriptedUpstream(lambda url, n: raw) as upstream:
            response = fast_client(upstream.endpoint).annotate(AnnotateRequest("http://x", 5))
        assert not response.success
        (message,) = [r.getMessage() for r in caplog.records]
        assert message.startswith("unparseable upstream body for http://x: ")

    def test_utf8_body_behind_a_byte_order_mark_is_read(self):
        raw = b"\xef\xbb\xbf" + json.dumps(wire_reply({"x": 0.9})).encode()
        with ScriptedUpstream(lambda url, n: raw) as upstream:
            response = fast_client(upstream.endpoint).annotate(AnnotateRequest("http://x", 5))
        assert response.confidences() == {"x": 0.9}


class TestKeptAlive:
    """The client reuses an idle connection, reopens it once when the
    server has closed it, and never resends after a timeout."""

    REPLY = http_reply(200, json.dumps(wire_reply({"x": 0.9})).encode())

    def serve(self, listener, script):
        """Run `script(accept)` on a thread, where accept() returns the next
        connection as a list of the request bodies read on it."""
        connections = []

        def accept():
            conn, _ = listener.accept()
            connections.append([])
            return conn, connections[-1]

        thread = threading.Thread(target=script, args=(accept,), daemon=True)
        thread.start()
        return thread, connections

    def test_closed_idle_connection_is_reopened_once(self):
        listener = socket.create_server(("127.0.0.1", 0))
        closed = threading.Event()

        def script(accept):
            for requests_before_close in (1, 2):
                conn, seen = accept()
                with conn:
                    for _ in range(requests_before_close):
                        seen.append(read_request(conn))
                        conn.sendall(self.REPLY)
                closed.set()

        thread, connections = self.serve(listener, script)
        client = fast_client(f"http://127.0.0.1:{listener.getsockname()[1]}/annotate")
        try:
            assert client.annotate(AnnotateRequest("http://x", 5)).success
            assert closed.wait(5)
            for url in ("http://y", "http://z"):
                assert client.annotate(AnnotateRequest(url, 5)).success
            thread.join(5)
            listener.settimeout(0.2)
            with pytest.raises(TimeoutError):
                listener.accept()
        finally:
            listener.close()
        assert not thread.is_alive()
        assert [len(seen) for seen in connections] == [1, 2]

    def test_timed_out_call_is_not_resent(self):
        listener = socket.create_server(("127.0.0.1", 0))
        release = threading.Event()

        def script(accept):
            conn, seen = accept()
            with conn:
                seen.append(read_request(conn))
                conn.sendall(self.REPLY)
                seen.append(read_request(conn))
                release.wait(5)

        thread, connections = self.serve(listener, script)
        client = fast_client(f"http://127.0.0.1:{listener.getsockname()[1]}/annotate", timeout=0.3)
        try:
            assert client.annotate(AnnotateRequest("http://x", 5)).success
            assert not client.annotate(AnnotateRequest("http://y", 5)).success
            listener.settimeout(0.2)
            with pytest.raises(TimeoutError):
                listener.accept()
        finally:
            release.set()
            thread.join(5)
            listener.close()
        assert not thread.is_alive()
        assert [len(seen) for seen in connections] == [2]

    def test_threads_sharing_the_pool_each_get_their_own_reply(self):
        # Two calls on one connection at once would cross their replies.
        body_fn = lambda url, n: wire_reply({url.rsplit("/", 1)[1]: 0.9})
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ScriptedUpstream(body_fn) as upstream:
                client = fast_client(upstream.endpoint, concurrency=2)

                def calls(worker):
                    for k in range(25):
                        label = f"w{worker}k{k}"
                        response = client.annotate(AnnotateRequest(f"http://images.test/{label}", 5))
                        assert [a.label for a in response.annotations] == [label]

                with ThreadPoolExecutor(max_workers=8) as pool:
                    for future in [pool.submit(calls, w) for w in range(8)]:
                        future.result(timeout=30)
        finally:
            sys.setswitchinterval(switch)
        assert len(upstream.calls) == 200


class TestSnapshot:
    def test_alignment_and_success(self):
        with SimulatorServer(SCRIPT) as sim:
            client = fast_client(sim.endpoint)
            snapshot = client.snapshot_benchmark(DATASET, RULES)
        assert [r.image_ref for r in snapshot] == [i.image_ref for i in DATASET.items]
        assert all(r.success for r in snapshot)

    def test_max_labels_caps_each_request(self):
        with SimulatorServer(SCRIPT) as sim:
            client = fast_client(sim.endpoint)
            snapshot = client.snapshot_benchmark(DATASET, RULES)
        assert len(snapshot[0].annotations) == 2  # dog has three labels upstream

    def test_persistently_failing_item_marked_failed(self):
        body_fn = lambda url, n: wire_reply({"x": 0.9})
        broken = "http://images.test/cat.jpg"
        with ScriptedUpstream(body_fn, broken_refs={broken}) as upstream:
            client = fast_client(upstream.endpoint, retries=2)
            snapshot = client.snapshot_benchmark(DATASET, RULES)
        assert [r.success for r in snapshot] == [True, False, True]
        # the broken item was retried
        assert upstream.calls.count(broken) == 2

    def test_transient_failures_retried_until_success(self):
        body_fn = lambda url, n: wire_reply({"x": 0.9})
        single = BenchmarkDataset.create("one", [BenchmarkItem("http://images.test/a.jpg", "")])
        with ScriptedUpstream(body_fn, fail_first=2) as upstream:
            client = fast_client(upstream.endpoint, retries=3)
            snapshot = client.snapshot_benchmark(single, RULES)
        assert snapshot[0].success
        assert len(upstream.calls) == 3

    def test_reply_nested_too_deeply_fails_its_item(self):
        with ScriptedUpstream(lambda url, n: DEEP_BODY) as upstream:
            snapshot = fast_client(upstream.endpoint, retries=2).snapshot_benchmark(DATASET, RULES)
        assert [r.success for r in snapshot] == [False, False, False]
        assert len(upstream.calls) == 6

    def test_rerun_against_unchanged_epoch_is_identical_modulo_capture_time(self):
        with SimulatorServer(SCRIPT) as sim:
            client = fast_client(sim.endpoint)
            first = client.snapshot_benchmark(DATASET, RULES)
            second = client.snapshot_benchmark(DATASET, RULES)
        strip = lambda snapshot: [
            (r.image_ref, r.success, tuple(r.annotations)) for r in snapshot
        ]
        assert strip(first) == strip(second)


def test_concurrency_is_bounded():
    import threading

    active = 0
    peak = 0
    lock = threading.Lock()

    def body_fn(url, n):
        nonlocal active, peak
        with lock:
            active += 1
            peak = max(peak, active)
        try:
            import time

            time.sleep(0.02)
            return wire_reply({"x": 0.9})
        finally:
            with lock:
                active -= 1

    items = [BenchmarkItem(f"http://images.test/{k}.jpg", "") for k in range(12)]
    dataset = BenchmarkDataset.create("many", items)
    with ScriptedUpstream(body_fn) as upstream:
        client = fast_client(upstream.endpoint, concurrency=3)
        snapshot = client.snapshot_benchmark(dataset, RULES)
    assert all(r.success for r in snapshot)
    assert peak <= 3
