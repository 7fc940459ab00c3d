"""Minimal JSON-over-HTTP glue on the stdlib: the servers and the client.

Both the guard proxy and the mock upstream are tiny JSON APIs; a routing
callable keeps them testable without a web framework and shuts down
deterministically (thread + shutdown()), which matters for embedding in
tests and the CLI. Every outbound call (upstream labelling, the warning
callback, `init`/`tick` against a running proxy) goes through post_json.
"""

from __future__ import annotations

import json
import logging
import socket
import threading
import weakref
from http.client import HTTPConnection, HTTPException, HTTPSConnection, RemoteDisconnected
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

log = logging.getLogger(__name__)

# Router signature: (method, path, body, headers) -> (status, extra_headers, payload)
# `payload` may be a JSON-serializable object, bytes already encoded with
# encode_json, or None.

# How a kept-alive connection that the server has closed shows itself when
# it is next used, before any reply arrives.
_CLOSED_BY_PEER = (RemoteDisconnected, ConnectionResetError, BrokenPipeError)

# The largest request body the servers read. A /benchmark manifest of 2000
# images is about 200 KB; anything declared longer is refused unread.
MAX_BODY_BYTES = 16 * 1024 * 1024

# How long a server connection may wait on its client for the next byte
# (an idle keep-alive, a short body, half-sent headers) before it closes
# and frees its thread.
SOCKET_TIMEOUT_SECS = 30


def encode_json(payload) -> bytes:
    """The response body the servers send for a JSON payload."""
    return (json.dumps(payload, ensure_ascii=False) + "\n").encode("utf-8")


class _TrackingServer(ThreadingHTTPServer):
    """Knows its open connections: each is recorded on the accepting thread
    before its handler thread starts, and dropped when that thread ends."""

    daemon_threads = True

    def __init__(self, address, handler):
        self._open: set = set()
        self._open_lock = threading.Lock()
        super().__init__(address, handler)

    def process_request(self, request, client_address):
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def end_open_connections(self):
        with self._open_lock:
            still_open = list(self._open)
        for connection in still_open:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


class JsonHttpServer:
    def __init__(self, host: str, port: int, router):
        self._router = router
        handler = self._make_handler()
        self._httpd = _TrackingServer((host, port), handler)
        self._thread: threading.Thread | None = None

    def _make_handler(self):
        router = self._router

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # Buffered: handle_one_request flushes once per request, so the
            # status line, headers and body leave in one write instead of
            # waiting out Nagle against the client's delayed ACK.
            wbufsize = -1
            timeout = SOCKET_TIMEOUT_SECS

            def handle(self):
                try:
                    super().handle()
                except ConnectionError as exc:
                    # a kept-alive client resetting its connection, or stop()
                    log.debug("connection from %s ended: %r", self.address_string(), exc)

            def log_message(self, fmt, *args):  # default stderr chatter off
                log.debug("%s %s", self.address_string(), fmt % args)

            def _read_body(self, length: int):
                raw = self.rfile.read(length) if length else b""
                if not raw:
                    return None
                return json.loads(raw.decode("utf-8"))

            def _respond(self, status: int, extra_headers: dict, payload):
                body = b""
                if isinstance(payload, bytes):
                    body = payload
                elif payload is not None:
                    body = encode_json(payload)
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                for name, value in (extra_headers or {}).items():
                    self.send_header(name, value)
                self.end_headers()
                if body:
                    self.wfile.write(body)

            def _dispatch(self):
                declared = self.headers.get("Content-Length") or "0"
                length = int(declared) if declared.isascii() and declared.isdigit() else -1
                if not 0 <= length <= MAX_BODY_BYTES:
                    # refused unread: what follows on the connection is no
                    # request boundary, so it closes
                    status = 413 if length > MAX_BODY_BYTES else 400
                    error = f"Content-Length {declared!r} is not in 0..{MAX_BODY_BYTES}"
                    self._respond(status, {"Connection": "close"}, {"error": error})
                    return
                try:
                    body = self._read_body(length)
                except (ValueError, UnicodeDecodeError):
                    self._respond(400, {}, {"error": "request body is not valid JSON"})
                    return
                try:
                    status, extra_headers, payload = router(
                        self.command, self.path, body, self.headers
                    )
                except Exception:
                    log.exception("unhandled error handling %s %s", self.command, self.path)
                    self._respond(500, {}, {"error": "internal server error"})
                    return
                self._respond(status, extra_headers, payload)

            def do_GET(self):
                self._dispatch()

            def do_POST(self):
                self._dispatch()

        return Handler

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def base_url(self) -> str:
        return f"http://{self._httpd.server_address[0]}:{self.port}"

    def start(self):
        # small poll interval keeps shutdown latency low for embedded use
        self._thread = threading.Thread(
            target=lambda: self._httpd.serve_forever(poll_interval=0.05), daemon=True
        )
        self._thread.start()
        return self

    def stop(self):
        """Stop accepting, then end the kept-alive connections still open,
        so no client is answered after stop() returns."""
        self._httpd.shutdown()
        self._httpd.server_close()
        self._httpd.end_open_connections()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()


class ConnectionPool:
    """Idle kept-alive connections shared by the threads of one client, at
    most `size` per origin; a connection is used by one call at a time."""

    def __init__(self, size: int):
        self._size = size
        self._idle: dict = {}
        self._lock = threading.Lock()
        # the idle connections close with the pool, not whenever GC finds them
        weakref.finalize(self, _close_idle, self._idle)

    def take(self, origin):
        with self._lock:
            idle = self._idle.get(origin)
            return idle.pop() if idle else None

    def give(self, origin, connection):
        with self._lock:
            idle = self._idle.setdefault(origin, [])
            if len(idle) < self._size:
                idle.append(connection)
                return
        connection.close()


def _close_idle(idle: dict):
    for connections in idle.values():
        for connection in connections:
            connection.close()


def _send(connection, target: str, body: bytes):
    connection.request("POST", target, body, {"Content-Type": "application/json"})
    return connection.getresponse()


def post_json(url: str, payload, timeout: float, pool: ConnectionPool | None = None):
    """POST `payload` as a JSON body and return (status, headers, raw body
    bytes). Anything that keeps an answer from arriving raises OSError: a
    URL that is not http(s) with a host and a valid port, a failed connect
    or TLS handshake, a timeout, or a reply that is not HTTP.

    Without a pool every call opens a fresh connection and closes it. With
    one, the call reuses an idle connection and leaves it idle again
    afterwards; when the reused connection turns out to be closed before
    any reply arrives, the request is sent once more on a fresh one. Only
    idempotent requests may use a pool: nothing is resent after a timeout,
    but a server may have acted on a request whose reply was lost."""
    parts = urlsplit(url)
    try:
        port = parts.port
    except ValueError as exc:
        raise OSError(f"bad port in {url!r}") from exc
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise OSError(f"not an http(s) URL with a host: {url!r}")
    connection_class = HTTPSConnection if parts.scheme == "https" else HTTPConnection
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    origin = (connection_class, parts.hostname, port, timeout)
    connection = pool.take(origin) if pool is not None else None
    reused = connection is not None
    if not reused:
        connection = connection_class(parts.hostname, port, timeout=timeout)
    keep = False
    try:
        try:
            reply = _send(connection, target, body)
        except _CLOSED_BY_PEER:
            if not reused:
                raise
            connection.close()
            connection = connection_class(parts.hostname, port, timeout=timeout)
            reply = _send(connection, target, body)
        raw = reply.read()
        keep = pool is not None and not reply.will_close
        return reply.status, reply.headers, raw
    except (HTTPException, UnicodeError) as exc:
        raise OSError(f"HTTP exchange with {url} failed: {exc!r}") from exc
    finally:
        if keep:
            pool.give(origin, connection)
        else:
            connection.close()
