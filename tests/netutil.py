"""Small network helpers for server-facing tests."""

import socket
import threading
from datetime import datetime, timezone

from driftguard.httpbase import JsonHttpServer
from driftguard.types import LabelAnnotation, LabelledResponse
from driftguard.wire import serialize_wire


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def wire_reply(scores: dict) -> dict:
    """The wire body of a successful labelling response carrying `scores`
    (label -> score), highest score first."""
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return serialize_wire(
        LabelledResponse(
            image_ref="http://images.test/",
            annotations=tuple(LabelAnnotation(label, score) for label, score in ranked),
            captured_at=datetime.fromtimestamp(0, timezone.utc),
        )
    )


def read_request(conn) -> bytes | None:
    """The body of the next HTTP request on a raw server-side socket, or
    None when the client closed the connection first."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(65536)
        if not chunk:
            return None
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
    while len(body) < length:
        body += conn.recv(65536)
    return body


def http_reply(status: int, body: bytes, content_type="application/json") -> bytes:
    """A complete HTTP/1.1 response that leaves the connection open."""
    return b"HTTP/1.1 %d X\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n%s" % (
        status, content_type.encode(), len(body), body,
    )


class CallbackReceiver(JsonHttpServer):
    """Collects JSON bodies POSTed to it; stands in for an operator webhook."""

    def __init__(self):
        self.received = []
        self._event = threading.Event()
        super().__init__("127.0.0.1", 0, self._route)

    def _route(self, method, path, body, headers):
        if method == "POST":
            self.received.append(body)
            self._event.set()
            return 200, {}, {"ok": True}
        return 404, {}, None

    @property
    def url(self) -> str:
        return self.base_url + "/callback"

    def wait(self, timeout=5.0) -> bool:
        hit = self._event.wait(timeout)
        self._event.clear()
        return hit


class ScriptedUpstream(JsonHttpServer):
    """Upstream double with per-call scripting: fail N times, count calls."""

    def __init__(self, body_fn, fail_first=0, broken_refs=()):
        self.calls = []
        self.fail_first = fail_first
        self.broken_refs = set(broken_refs)
        self._body_fn = body_fn
        self._lock = threading.Lock()
        super().__init__("127.0.0.1", 0, self._route)

    def _route(self, method, path, body, headers):
        if method != "POST":
            return 404, {}, None
        url = (body or {}).get("url")
        with self._lock:
            self.calls.append(url)
            remaining = self.fail_first
            if remaining > 0:
                self.fail_first -= 1
        if remaining > 0 or url in self.broken_refs:
            return 500, {}, {"error": "scripted failure"}
        return 200, {}, self._body_fn(url, (body or {}).get("maxResults"))

    @property
    def endpoint(self) -> str:
        return self.base_url + "/annotate"


class InFlightGauge:
    """Wraps a client's snapshot_benchmark and records the most calls ever
    in flight at once: detection-run overlap measured from outside the
    engine, since every run that gets past the baseline check probes once."""

    def __init__(self, client):
        self.max_seen = 0
        self._in_flight = 0
        self._lock = threading.Lock()
        probe = client.snapshot_benchmark

        def counted(dataset, rules):
            with self._lock:
                self._in_flight += 1
                self.max_seen = max(self.max_seen, self._in_flight)
            try:
                return probe(dataset, rules)
            finally:
                with self._lock:
                    self._in_flight -= 1

        client.snapshot_benchmark = counted


class SetRecorder(threading.Event):
    """An Event that records each set(). Assigned to an engine's wake event,
    it shows each time the 412 counter reached z."""

    def __init__(self):
        super().__init__()
        self.sets = []

    def set(self):
        self.sets.append(True)
        super().set()
