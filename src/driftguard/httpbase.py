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
import threading
from http.client import HTTPConnection, HTTPException, HTTPSConnection
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

log = logging.getLogger(__name__)

# Router signature: (method, path, body, headers) -> (status, extra_headers, payload)
# `payload` may be a JSON-serializable object or None.


class JsonHttpServer:
    def __init__(self, host: str, port: int, router):
        self._router = router
        handler = self._make_handler()
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    def _make_handler(self):
        router = self._router

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, fmt, *args):  # default stderr chatter off
                log.debug("%s %s", self.address_string(), fmt % args)

            def _read_body(self):
                length = int(self.headers.get("Content-Length") or 0)
                raw = self.rfile.read(length) if length else b""
                if not raw:
                    return None
                return json.loads(raw.decode("utf-8"))

            def _respond(self, status: int, extra_headers: dict, payload):
                body = b""
                if payload is not None:
                    body = (json.dumps(payload, ensure_ascii=False) + "\n").encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                for name, value in (extra_headers or {}).items():
                    self.send_header(name, value)
                self.end_headers()
                if body:
                    self.wfile.write(body)

            def _dispatch(self):
                try:
                    body = self._read_body()
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
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()


def post_json(url: str, payload, timeout: float):
    """POST `payload` as a JSON body on a fresh connection and return
    (status, headers, raw body bytes). Anything that keeps an answer from
    arriving raises OSError: a URL that is not http(s) with a host and a
    valid port, a failed connect or TLS handshake, a timeout, or a reply
    that is not HTTP."""
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
    connection = connection_class(parts.hostname, port, timeout=timeout)
    try:
        connection.request("POST", target, body, {"Content-Type": "application/json"})
        reply = connection.getresponse()
        return reply.status, reply.headers, reply.read()
    except (HTTPException, UnicodeError) as exc:
        raise OSError(f"HTTP exchange with {url} failed: {exc!r}") from exc
    finally:
        connection.close()
