import io
import json
import re
import socket
import string
import threading
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from http.client import HTTPConnection, HTTPException, parse_headers

import hypothesis.strategies as st
import pytest
from hypothesis import given

from driftguard import httpbase
from driftguard.httpbase import (
    MAX_BODY_BYTES,
    ConnectionPool,
    JsonHttpServer,
    encode_json,
    post_json,
)
from driftguard.types import parse_http_date

from netutil import free_port, read_request


class Recorder(JsonHttpServer):
    """Answers every request with 201 and remembers what arrived; a request
    for /boom makes the router raise."""

    def __init__(self):
        self.seen = []
        super().__init__("127.0.0.1", 0, self._route)

    def _route(self, method, path, body, headers):
        if path == "/boom":
            raise RuntimeError("boom")
        self.seen.append((method, path, body, headers.get("Content-Type")))
        return 201, {"ETag": 'W/"abc"'}, {"ok": True}


class RecordingPool(ConnectionPool):
    """A pool of one that records each connection given back to it."""

    def __init__(self):
        super().__init__(1)
        self.given = []

    def give(self, origin, connection):
        self.given.append(origin)
        super().give(origin, connection)


@contextmanager
def raw_server(*replies, received=None):
    """A server on a raw socket that answers the requests on one connection
    with `replies` in turn, then closes it; yields the URL to POST to. The
    request bodies go to `received` when it is a list."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn, _ = listener.accept()
        with conn:
            for reply in replies:
                body = read_request(conn)
                if body is None:
                    return
                if received is not None:
                    received.append(body)
                conn.sendall(reply)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}/x"
    finally:
        thread.join(5)
        listener.close()
    assert not thread.is_alive()


class TestPostJson:
    def test_round_trip(self):
        with Recorder() as server:
            status, headers, raw = post_json(server.base_url + "/x", {"k": "é"}, 5)
        assert status == 201
        assert headers.get("etag") == 'W/"abc"'
        assert json.loads(raw) == {"ok": True}
        assert server.seen == [("POST", "/x", {"k": "é"}, "application/json")]

    def test_body_is_sent_as_the_servers_utf8_json_encoding(self):
        received = []
        with raw_server(b"HTTP/1.1 204 No Content\r\n\r\n", received=received) as url:
            post_json(url, {"k": "é"}, 5)
        assert received == [encode_json({"k": "é"})] == ['{"k": "é"}\n'.encode("utf-8")]

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

    def test_chunked_reply_with_extension_and_trailer(self):
        chunked = (
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
            b'4;name="v"\r\n{"a"\r\n3\r\n: 1\r\n1\r\n}\r\n0\r\nTrailer-Field: x\r\n\r\n'
        )
        pool = RecordingPool()
        with raw_server(chunked, chunked) as url:
            # the second reply on the same connection starts where the first ended
            for _ in range(2):
                status, _, raw = post_json(url, {}, 5, pool)
                assert (status, raw) == (200, b'{"a": 1}')
        assert len(pool.given) == 2

    def test_close_delimited_http10_reply_is_read_to_the_end_and_not_pooled(self):
        pool = RecordingPool()
        with raw_server(b'HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n{"a": 1}') as url:
            status, headers, raw = post_json(url, {}, 5, pool)
        assert (status, headers.get("content-type"), raw) == (200, "application/json", b'{"a": 1}')
        assert pool.given == []

    def test_interim_100_continue_is_skipped(self):
        reply = b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}"
        with raw_server(reply) as url:
            assert post_json(url, {}, 5)[0::2] == (200, b"{}")

    def test_204_has_no_body(self):
        pool = RecordingPool()
        replies = (b"HTTP/1.1 204 No Content\r\n\r\n", b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
        with raw_server(*replies) as url:
            assert post_json(url, {}, 5, pool)[0::2] == (204, b"")
            assert post_json(url, {}, 5, pool)[0::2] == (200, b"{}")
        assert len(pool.given) == 2

    @pytest.mark.parametrize(
        "reply",
        [
            b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n{}",
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}",
            b"HTTP/1.1 200 OK\r\nContent-Length: +2\r\n\r\n{}",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0x2\r\n{}\r\n0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}",
            b"HTTP/2 200\r\nContent-Length: 2\r\n\r\n{}",
        ],
        ids=["short body", "conflicting lengths", "signed length", "bad chunk size",
             "chunks cut short", "not HTTP/1.x"],
    )
    def test_reply_that_cannot_be_framed_is_oserror_naming_the_url(self, reply):
        with raw_server(reply) as url:
            with pytest.raises(OSError, match=re.escape(url)):
                post_json(url, {}, 5)

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


def statuses(reply: bytes) -> list[int]:
    """The status code of each response in `reply`, in order."""
    return [int(code) for code in re.findall(rb"(?m)^HTTP/1\.1 (\d{3}) ", reply)]


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

    @pytest.mark.parametrize(
        "head,status",
        [
            (b"PUT /x HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", 501),
            (b"GET /" + b"x" * (65537 - 5), 414),
            (b"GET /x HTTP/1.1\r\nX: " + b"y" * (65537 - 3), 431),
            (b"GET /x HTTP/1.1\r\n" + b"X: y\r\n" * 101, 431),
            (b"GET /x\r\n\r\n", 400),
            (b"GET /x HTTP/1.1\r\nNo colon\r\n\r\n", 400),
            (b"GET /x HTTP/1.1\r\nHost : x\r\n\r\n", 400),
            (b"GET /x HTTP/x.y\r\n\r\n", 400),
            (b"GET /x HTTP/2.0\r\n\r\n", 505),
            (b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n", 501),
            (b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}", 400),
        ],
        ids=["method", "long request line", "long header line", "101 fields", "no version",
             "field without colon", "space before colon", "malformed version", "HTTP/2.0",
             "transfer-encoding", "repeated content-length"],
    )
    def test_request_that_cannot_be_framed_is_refused_and_the_connection_closes(self, head, status):
        with Recorder() as server:
            reply, _ = raw_exchange(server.port, head)
        assert statuses(reply) == [status]
        assert b"\r\nConnection: close\r\n" in reply
        assert server.seen == []

    @pytest.mark.parametrize(
        "path,body,status",
        [("/x", b"{x}", 400),
         ("/x", b"[" * 100_000, 400),
         ("/x", b'"\xff"', 400),
         ("/x", "{}".encode("utf-16"), 400),
         ("/boom", b"{}", 500)],
        ids=["body not json", "nested too deeply", "not utf-8", "utf-16", "router raises"],
    )
    def test_refusal_of_a_framed_request_keeps_the_connection(self, path, body, status):
        first = b"POST %s HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (path.encode(), len(body))
        last = b"POST /x HTTP/1.1\r\nConnection: close\r\nContent-Length: 2\r\n\r\n{}"
        with Recorder() as server:
            reply, _ = raw_exchange(server.port, first + body + last)
        assert statuses(reply) == [status, 201]
        if status == 400:
            assert b'{"error": "request body is not valid JSON"}' in reply
        assert [seen[2] for seen in server.seen] == [{}]

    def test_utf8_body_behind_a_byte_order_mark_is_read(self):
        head = b"POST /x HTTP/1.1\r\nConnection: close\r\nContent-Length: 11\r\n\r\n"
        with Recorder() as server:
            reply, _ = raw_exchange(server.port, head + '\ufeff{"k": 1}'.encode("utf-8"))
        assert statuses(reply) == [201]
        assert server.seen[0][2] == {"k": 1}

    @pytest.mark.parametrize(
        "requests,answered",
        [
            ([b"HTTP/1.1", b"HTTP/1.1\r\nConnection: close", b"HTTP/1.1"], 2),
            ([b"HTTP/1.0\r\nConnection: keep-alive", b"HTTP/1.0", b"HTTP/1.0"], 2),
        ],
        ids=["HTTP/1.1 closes on close", "HTTP/1.0 keeps only on keep-alive"],
    )
    def test_connection_reuse(self, requests, answered):
        head = b"".join(b"POST /x " + r + b"\r\nContent-Length: 2\r\n\r\n{}" for r in requests)
        with Recorder() as server:
            reply, _ = raw_exchange(server.port, head)
        assert statuses(reply) == [201] * answered
        assert reply.count(b"\r\nConnection: close\r\n") == 1

    def test_expect_100_continue_gets_an_interim_reply_before_the_body_is_read(self):
        head = b"POST /x HTTP/1.1\r\nExpect: 100-continue\r\nConnection: close\r\nContent-Length: 2\r\n\r\n"
        with Recorder() as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=2) as conn:
                conn.sendall(head)
                assert conn.recv(65536) == b"HTTP/1.1 100 Continue\r\n\r\n"
                conn.sendall(b"{}")
                reply = b""
                while chunk := conn.recv(65536):
                    reply += chunk
        assert statuses(reply) == [201]
        assert server.seen == [("POST", "/x", {}, None)]

    def test_response_carries_a_date_and_no_server_header(self):
        with Recorder() as server:
            _, headers, _ = post_json(server.base_url, {}, 5)
        sent = parse_http_date(headers.get("Date"))
        assert abs((datetime.now(timezone.utc) - sent).total_seconds()) < 5
        assert headers.get("Server") is None


TOKEN_CHARS = "!#$%&'*+-.^_`|~" + string.ascii_letters + string.digits
field_names = st.sampled_from(["If-Match", "if-match", "Host"]) | st.text(
    TOKEN_CHARS, min_size=1, max_size=8
).filter(lambda name: name.lower() != "content-length")
field_values = st.text(string.printable[:95] + "\t", max_size=12).map(lambda v: v.strip(" \t"))


@given(
    st.lists(st.tuples(field_names, st.sampled_from(["", " ", "\t "]), field_values), max_size=20),
    st.sampled_from(["\r\n", "\n"]),
)
def test_header_reader_agrees_with_http_client(fields, eol):
    """On valid header blocks, get() answers as http.client's email-based
    parser does, in any case and for repeated names."""
    block = ("".join(f"{name}:{space}{value}{eol}" for name, space, value in fields) + eol).encode()
    ours = httpbase._read_fields(io.BytesIO(block))
    oracle = parse_headers(io.BytesIO(block))
    for name in [name for name, _, _ in fields] + ["Absent"]:
        for variant in (name, name.lower(), name.upper()):
            assert ours.get(variant) == oracle.get(variant)
