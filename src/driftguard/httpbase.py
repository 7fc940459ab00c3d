"""Minimal JSON over HTTP/1.1: the servers, the client, and one framing
(RFC 9112) for both, down to a shared header reader.

Both the guard proxy and the mock upstream are tiny JSON APIs; a routing
callable keeps them testable without a web framework and shuts down
deterministically (thread + shutdown()), which matters for embedding in
tests and the CLI. Every outbound call (upstream labelling, the warning
callback, `init`/`tick` against a running proxy) goes through post_json.
"""

from __future__ import annotations

import json
import logging
import re
import socket
import socketserver
import ssl
import threading
import weakref
from datetime import datetime, timezone
from http import HTTPStatus
from urllib.parse import urlsplit

from .types import http_date, parse_json

log = logging.getLogger(__name__)

# Router signature: (method, path, body, headers) -> (status, extra_headers, payload)
# `payload` may be a JSON-serializable object, bytes already encoded with
# encode_json, or None.

# The largest request body the servers read. A /benchmark manifest of 2000
# images is about 200 KB; anything declared longer is refused unread.
MAX_BODY_BYTES = 16 * 1024 * 1024

# How long a server connection may wait on its client for the next byte
# (an idle keep-alive, a short body, half-sent headers) before it closes
# and frees its thread.
SOCKET_TIMEOUT_SECS = 30

# The longest start or header line and the most fields in one header, as
# http.server and http.client bound them.
_MAX_LINE = 65536
_MAX_FIELDS = 100

_VERSION = re.compile(r"HTTP/(\d)\.(\d)")
_FIELD_NAME = re.compile(r"[!#$%&'*+.^_`|~0-9A-Za-z-]+")
_STATUS_LINE = re.compile(r"HTTP/1\.(\d) ([1-9]\d\d)(?: .*)?\r?\n")
_CHUNK_SIZE = re.compile(rb"[0-9A-Fa-f]{1,16}")
_UNSAFE_TARGET = re.compile(r"[^\x21-\x7e]")
_REASONS = {status.value: status.phrase for status in HTTPStatus}
# json.dumps with any non-default option builds a new encoder on every call
_ENCODER = json.JSONEncoder(ensure_ascii=False)


def encode_json(payload) -> bytes:
    """The response body the servers send for a JSON payload."""
    return (_ENCODER.encode(payload) + "\n").encode("utf-8")


class Headers(dict):
    """Header fields by lower-cased name. get() takes any case and returns
    the first field of a repeated name, as email.message.Message.get does."""

    def get(self, name: str, default=None):
        return dict.get(self, name.lower(), default)


class _BadMessage(Exception):
    """(status, message): a server answers `status`, then closes."""


def _read_line(rfile, status: int) -> bytes:
    line = rfile.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise _BadMessage(status, f"line longer than {_MAX_LINE} bytes")
    return line


def _read_fields(rfile) -> Headers:
    """The header fields up to the empty line. A repeated Content-Length is
    refused even when the values agree, as RFC 9110 §8.6 allows."""
    fields = Headers()
    for _ in range(_MAX_FIELDS + 1):
        line = _read_line(rfile, 431)
        if line in (b"\r\n", b"\n"):
            return fields
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon or not _FIELD_NAME.fullmatch(name):
            raise _BadMessage(400, f"malformed header line {line!r}")
        name = name.lower()
        if name not in fields:
            fields[name] = value.strip(" \t\r\n")
        elif name == "content-length":
            raise _BadMessage(400, "repeated Content-Length")
    raise _BadMessage(431, f"more than {_MAX_FIELDS} header fields")


def _read_exactly(rfile, size: int) -> bytes:
    data = rfile.read(size)
    if len(data) < size:
        raise _BadMessage(400, f"body ended after {len(data)} of {size} bytes")
    return data


def _persistent(http11: bool, headers: Headers) -> bool:
    """Whether the connection stays open after this message: HTTP/1.1
    unless it says close, HTTP/1.0 only when it says keep-alive."""
    options = headers.get("connection", "").lower()
    return "close" not in options if http11 else "keep-alive" in options


class _Handler(socketserver.StreamRequestHandler):
    """Serves the requests of one connection in turn until one of them, or
    the client, ends it."""

    disable_nagle_algorithm = True

    def handle(self):
        try:
            while self._serve_one():
                pass
        except (ConnectionError, TimeoutError) as exc:
            # a kept-alive client resetting or stalling, or stop()
            log.debug("connection from %s ended: %r", self.client_address, exc)

    def _serve_one(self) -> bool:
        """Answer one request; whether the connection stays open."""
        try:
            request = self._read_request()
        except _BadMessage as refusal:
            status, message = refusal.args
            self._respond(status, {}, {"error": message}, False)
            return False
        if request is None:
            return False
        method, target, headers, raw, keep = request
        try:
            body = parse_json(raw) if raw else None
        except ValueError:
            self._respond(400, {}, {"error": "request body is not valid JSON"}, keep)
            return keep
        try:
            status, extra_headers, payload = self.server.router(method, target, body, headers)
        except Exception:
            log.exception("unhandled error handling %s %s", method, target)
            status, extra_headers, payload = 500, {}, {"error": "internal server error"}
        self._respond(status, extra_headers, payload, keep)
        return keep

    def _read_request(self):
        """(method, target, headers, raw body, persistent), or None when the
        client closed first; what cannot be framed is refused unread."""
        line = _read_line(self.rfile, 414)
        if not line:
            return None
        words = line.decode("latin-1").split()
        match = _VERSION.fullmatch(words[2]) if len(words) == 3 else None
        if match is None:
            raise _BadMessage(400, f"malformed request line {line!r}")
        if match[1] != "1":
            raise _BadMessage(505, f"{words[2]} is not supported")
        headers = _read_fields(self.rfile)
        if words[0] not in ("GET", "POST"):
            raise _BadMessage(501, f"method {words[0]!r} is not supported")
        if "transfer-encoding" in headers:
            raise _BadMessage(501, "Transfer-Encoding is not supported; send Content-Length")
        declared = headers.get("content-length") or "0"
        length = int(declared) if declared.isascii() and declared.isdigit() else -1
        if not 0 <= length <= MAX_BODY_BYTES:
            status = 413 if length > MAX_BODY_BYTES else 400
            raise _BadMessage(status, f"Content-Length {declared!r} is not in 0..{MAX_BODY_BYTES}")
        http11 = match[2] != "0"
        if length and http11 and headers.get("expect", "").lower() == "100-continue":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        raw = _read_exactly(self.rfile, length)
        return words[0], words[1], headers, raw, _persistent(http11, headers)

    def _respond(self, status: int, extra_headers: dict, payload, keep: bool):
        """Send the whole response in one write."""
        if not isinstance(payload, bytes):
            payload = b"" if payload is None else encode_json(payload)
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, '')}\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\nDate: {http_date(datetime.now(timezone.utc))}\r\n"
        )
        head += "".join(f"{name}: {value}\r\n" for name, value in (extra_headers or {}).items())
        head += "\r\n" if keep else "Connection: close\r\n\r\n"
        self.wfile.write(head.encode("latin-1") + payload)


class _TrackingServer(socketserver.ThreadingTCPServer):
    """A thread per connection, and knows its open connections: each is
    recorded on the accepting thread before its handler thread starts, and
    dropped when that thread ends."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, router):
        self.router = router
        self._open: set = set()
        self._open_lock = threading.Lock()
        super().__init__(address, _Handler)

    def process_request(self, request, client_address):
        request.settimeout(SOCKET_TIMEOUT_SECS)
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
        self._httpd = _TrackingServer((host, port), router)
        self._thread: threading.Thread | None = None

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


class _Link:
    """A client connection: its socket and the reader of its replies."""

    def __init__(self, scheme: str, host: str, port: int, timeout: float):
        sock = socket.create_connection((host, port), timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if scheme == "https":  # the system trust store; the host name is checked
                sock = ssl.create_default_context().wrap_socket(sock, server_hostname=host)
        except OSError:
            sock.close()
            raise
        self.sock, self.rfile = sock, sock.makefile("rb")

    def send(self, request: bytes) -> bytes:
        """Send `request`; the first line of its reply."""
        self.sock.sendall(request)
        line = _read_line(self.rfile, 502)
        if not line:
            raise ConnectionResetError("connection closed before any reply byte")
        return line

    def close(self):
        self.rfile.close()
        self.sock.close()


def _read_reply(rfile, line: bytes):
    """(status, headers, body, reusable) of the reply `line` starts, after
    any interim 1xx replies."""
    while True:
        match = _STATUS_LINE.fullmatch(line.decode("latin-1"))
        if match is None:
            raise _BadMessage(502, f"malformed status line {line!r}")
        headers = _read_fields(rfile)
        if match[2][0] != "1":
            break
        line = _read_line(rfile, 502)
    status, reusable = int(match[2]), _persistent(match[1] != "0", headers)
    codings = headers.get("transfer-encoding")
    declared = headers.get("content-length")
    if status in (204, 304):
        body = b""
    elif codings is not None and codings.rsplit(",", 1)[-1].strip().lower() == "chunked":
        body = _read_chunked(rfile)
    elif codings is None and declared is not None:
        if not (declared.isascii() and declared.isdigit()):
            raise _BadMessage(502, f"malformed Content-Length {declared!r}")
        body = _read_exactly(rfile, int(declared))
    else:  # the body ends with the connection
        body, reusable = rfile.read(), False
    return status, headers, body, reusable


def _read_chunked(rfile) -> bytes:
    """A chunked body (RFC 9112 §7.1); extensions and trailers are dropped."""
    chunks = []
    while True:
        digits = _read_line(rfile, 502).split(b";", 1)[0].strip()
        if not _CHUNK_SIZE.fullmatch(digits):
            raise _BadMessage(502, f"malformed chunk size {digits!r}")
        size = int(digits, 16)
        if size == 0:
            _read_fields(rfile)
            return b"".join(chunks)
        chunks.append(_read_exactly(rfile, size))
        if _read_line(rfile, 502) not in (b"\r\n", b"\n"):
            raise _BadMessage(502, "chunk longer than its size")


def post_json(url: str, payload, timeout: float, pool: ConnectionPool | None = None):
    """POST `payload` as a JSON body and return (status, Headers, raw body
    bytes). Anything that keeps an answer from arriving raises OSError
    naming the URL: a URL that is not http(s) with a host and a valid port,
    a failed connect (a refusal stays ConnectionRefusedError) or TLS
    handshake, a timeout, or a reply that cannot be framed or ends short.

    Without a pool every call opens a fresh connection and closes it. With
    one, the call reuses an idle connection and leaves it idle again
    afterwards; when the reused connection turns out to be closed before
    any reply arrives, the request is sent once more on a fresh one. Only
    idempotent requests may use a pool: nothing is resent after a timeout,
    but a server may have acted on a request whose reply was lost."""
    parts = urlsplit(url)
    try:
        port = parts.port
        host = parts.hostname and parts.hostname.encode("idna").decode("ascii")
    except (ValueError, UnicodeError) as exc:
        raise OSError(f"bad host or port in {url!r}") from exc
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    if parts.scheme not in ("http", "https") or not host or _UNSAFE_TARGET.search(target):
        raise OSError(f"not an http(s) URL with a host and an ASCII path: {url!r}")
    body = b"" if payload is None else encode_json(payload)
    authority = (f"[{host}]" if ":" in host else host) + ("" if port is None else f":{port}")
    request = (
        f"POST {target} HTTP/1.1\r\nHost: {authority}\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii") + body
    origin = (parts.scheme, host, port or (443 if parts.scheme == "https" else 80), timeout)
    link = pool.take(origin) if pool is not None else None
    reused, keep = link is not None, False
    try:
        if link is None:
            link = _Link(*origin)
        try:
            line = link.send(request)
        except (ConnectionResetError, BrokenPipeError):  # the server closed it while idle
            if not reused:
                raise
            link.close()
            link = _Link(*origin)
            line = link.send(request)
        status, headers, raw, keep = _read_reply(link.rfile, line)
        keep = keep and pool is not None
        return status, headers, raw
    except _BadMessage as exc:
        raise OSError(f"HTTP exchange with {url} failed: {exc.args[1]}") from exc
    except OSError as exc:
        raise type(exc)(f"HTTP exchange with {url} failed: {exc}") from exc
    finally:
        if keep:
            pool.give(origin, link)
        elif link is not None:
            link.close()
