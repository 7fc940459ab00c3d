import json
import socket
import threading
import time
from http.client import HTTPConnection, HTTPException

import pytest

from driftguard import httpbase
from driftguard.httpbase import MAX_BODY_BYTES, JsonHttpServer, post_json

from netutil import free_port


class Recorder(JsonHttpServer):
    """Answers every request with 201 and remembers what arrived."""

    def __init__(self):
        self.seen = []
        super().__init__("127.0.0.1", 0, self._route)

    def _route(self, method, path, body, headers):
        self.seen.append((method, path, body, headers.get("Content-Type")))
        return 201, {"ETag": 'W/"abc"'}, {"ok": True}


class TestPostJson:
    def test_round_trip(self):
        with Recorder() as server:
            status, headers, raw = post_json(server.base_url + "/x", {"k": "é"}, 5)
        assert status == 201
        assert headers.get("etag") == 'W/"abc"'
        assert json.loads(raw) == {"ok": True}
        assert server.seen == [("POST", "/x", {"k": "é"}, "application/json")]

    def test_query_string_reaches_the_server(self):
        with Recorder() as server:
            post_json(server.base_url + "/annotate?key=v&n=2", {}, 5)
        assert server.seen[0][1] == "/annotate?key=v&n=2"

    def test_no_payload_sends_an_empty_body(self):
        with Recorder() as server:
            post_json(server.base_url, None, 5)
        assert server.seen == [("POST", "/", None, "application/json")]

    def test_https_against_plain_http_is_oserror(self):
        with Recorder() as server:
            with pytest.raises(OSError):
                post_json(f"https://127.0.0.1:{server.port}/x", {}, 5)

    def test_garbage_status_line_is_oserror(self):
        listener = socket.create_server(("127.0.0.1", 0))

        def answer_garbage():
            conn, _ = listener.accept()
            with conn:
                conn.recv(65536)
                conn.sendall(b"garbage\r\n\r\n")

        thread = threading.Thread(target=answer_garbage, daemon=True)
        thread.start()
        try:
            with pytest.raises(OSError):
                post_json(f"http://127.0.0.1:{listener.getsockname()[1]}/x", {}, 5)
        finally:
            thread.join(5)
            listener.close()
        assert not thread.is_alive()

    def test_connection_refused_is_oserror(self):
        with pytest.raises(OSError):
            post_json(f"http://127.0.0.1:{free_port()}/x", {}, 1)

    @pytest.mark.parametrize(
        "url",
        [
            "localhost:1/annotate",
            "http:///annotate",
            "http://127.0.0.1:notaport/a",
            "http://127.0.0.1:70000/a",
            "ftp://127.0.0.1/annotate",
            "http://ü..b/x",
        ],
    )
    def test_unusable_url_is_oserror(self, url):
        with pytest.raises(OSError):
            post_json(url, {}, 1)


def raw_exchange(port: int, head: bytes) -> tuple[bytes, float]:
    """Send `head` and read the reply until the server closes the
    connection: (reply bytes, seconds taken)."""
    with socket.create_connection(("127.0.0.1", port), timeout=1) as conn:
        start = time.perf_counter()
        conn.sendall(head)
        reply = b""
        while chunk := conn.recv(65536):
            reply += chunk
        return reply, time.perf_counter() - start


class TestServer:
    @pytest.mark.parametrize(
        "length,status",
        [("-1", 400), ("ten", 400), ("99999999999", 413), (str(MAX_BODY_BYTES + 1), 413)],
    )
    def test_unusable_content_length_is_refused_unread(self, length, status):
        head = f"POST /x HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n{{}}"
        with Recorder() as server:
            reply, elapsed = raw_exchange(server.port, head.encode())
        assert reply.startswith(b"HTTP/1.1 %d " % status)
        assert b"\r\nConnection: close\r\n" in reply
        assert elapsed < 1
        assert server.seen == []

    @pytest.mark.parametrize(
        "head",
        [
            b"",
            b"POST /x HTTP/1.1\r\nHost: x\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: 9\r\n\r\n{}",
        ],
        ids=["idle", "half-sent headers", "short body"],
    )
    def test_stalled_connection_is_closed_after_the_timeout(self, monkeypatch, head):
        monkeypatch.setattr(httpbase, "SOCKET_TIMEOUT_SECS", 0.3, raising=False)
        with Recorder() as server:
            reply, elapsed = raw_exchange(server.port, head)
        assert reply == b"" and 0.25 < elapsed < 1
        assert server.seen == []

    def test_body_of_the_largest_accepted_length_is_read(self):
        body = json.dumps({"pad": "x" * (MAX_BODY_BYTES - 11)}).encode()
        assert len(body) == MAX_BODY_BYTES
        with Recorder() as server:
            connection = HTTPConnection("127.0.0.1", server.port, timeout=5)
            try:
                connection.request("POST", "/x", body, {"Content-Type": "application/json"})
                assert connection.getresponse().status == 201
            finally:
                connection.close()
        assert len(server.seen[0][2]["pad"]) == MAX_BODY_BYTES - 11

    def test_keep_alive_round_trips_do_not_wait_for_delayed_acks(self):
        # Headers and body written separately wait out the client's delayed
        # ACK (about 40 ms) on every request of a kept-alive connection.
        with Recorder() as server:
            connection = HTTPConnection("127.0.0.1", server.port, timeout=5)
            try:
                start = time.perf_counter()
                for _ in range(20):
                    connection.request("POST", "/x", b"{}", {"Content-Type": "application/json"})
                    reply = connection.getresponse()
                    assert (reply.status, json.loads(reply.read())) == (201, {"ok": True})
                elapsed = time.perf_counter() - start
            finally:
                connection.close()
        assert elapsed < 20 * 0.02

    def test_stop_ends_kept_alive_connections(self):
        server = Recorder().start()
        connection = HTTPConnection("127.0.0.1", server.port, timeout=5)
        try:
            connection.request("POST", "/x", b"{}")
            assert connection.getresponse().read()
            server.stop()
            with pytest.raises((OSError, HTTPException)):
                connection.request("POST", "/x", b"{}")
                connection.getresponse().read()
        finally:
            connection.close()
            server.stop()
        assert len(server.seen) == 1
