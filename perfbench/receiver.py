"""Warning-callback receiver for the benchmark, run as its own process.

    python3 perfbench/receiver.py

Prints `listening on http://127.0.0.1:PORT` once bound. Every POST is a
callback from the proxy: a detection notice ({"kind": "detection", ...}) or
a precondition failure served under `warning` severity ({"error_code": ...}).
GET /stats returns what arrived so far: the number of detection notices,
the number of failures per error code, and the byte size of each failure
body. Each answer goes out in a single write.
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.detections = 0
        self.codes: dict = {}
        self.sizes: list = []

    def record(self, raw: bytes):
        payload = json.loads(raw)
        with self.lock:
            if payload.get("kind") == "detection":
                self.detections += 1
            else:
                code = str(payload["error_code"])
                self.codes[code] = self.codes.get(code, 0) + 1
                self.sizes.append(len(raw))

    def to_dict(self) -> dict:
        with self.lock:
            return {"detections": self.detections, "codes": dict(self.codes), "sizes": list(self.sizes)}


def make_handler(stats: Stats):
    class Handler(BaseHTTPRequestHandler):
        def log_message(self, fmt, *args):
            pass

        def _reply(self, status: str, body: bytes = b""):
            head = f"HTTP/1.0 {status}\r\nContent-Length: {len(body)}\r\n"
            if body:
                head += "Content-Type: application/json\r\n"
            self.wfile.write(head.encode("ascii") + b"\r\n" + body)

        def do_POST(self):
            raw = self.rfile.read(int(self.headers.get("Content-Length") or 0))
            stats.record(raw)
            self._reply("204 No Content")

        def do_GET(self):
            self._reply("200 OK", json.dumps(stats.to_dict()).encode("utf-8"))

    return Handler


def main() -> int:
    stats = Stats()
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(stats))
    server.daemon_threads = True
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    signal.signal(signal.SIGINT, lambda signum, frame: stop.set())
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    print(f"listening on http://127.0.0.1:{server.server_address[1]}", flush=True)
    try:
        stop.wait()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
