"""Run a drift-guard command with spans recorded around its public calls.

    python3 perfbench/launcher.py SPANS_FILE serve --config FILE
    python3 perfbench/launcher.py SPANS_FILE simulate --script FILE --port N
    python3 perfbench/launcher.py SPANS_FILE tune|replay ...
    python3 perfbench/launcher.py SPANS_FILE echo

The wrappers are installed from here, at the names each module calls, so
nothing under src/ changes; then the CLI entry point runs as usual. Spans
nest the way the calls do on each thread and are kept in memory until the
command returns, when they are written to SPANS_FILE as JSON.

`echo` serves a JsonHttpServer whose router returns a small fixed body:
the HTTP framing floor with no proxy work behind it.
"""

from __future__ import annotations

import functools
import itertools
import json
import signal
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


class Recorder:
    """In-memory span list. A span is (id, name, start_ns, end_ns,
    parent_id, request_id); the request id is the id of the outermost span
    open on the thread, so every span of one request shares it."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def count(self, name: str):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + 1

    def wrap(self, fn, name=None, name_fn=None):
        """Wrap fn in a span called `name`, or name_fn(*args) when given;
        name_fn may return None to leave the call untraced."""
        local = self._local
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name_fn(*args, **kwargs) if name_fn is not None else name
            if span_name is None:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent, request = (stack[-1], stack[0]) if stack else (None, span_id)
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans.append((span_id, span_name, start, end, parent, request))

        return traced

    def dump(self, path):
        Path(path).write_text(
            json.dumps({"spans": self.spans, "counts": self.counts}), encoding="utf-8"
        )


def _patch(recorder, owner, attribute, name=None, name_fn=None):
    setattr(owner, attribute, recorder.wrap(getattr(owner, attribute), name, name_fn))


def install_proxy(recorder):
    from driftguard import engine, proxy, token, upstream

    def annotate_name(self, url, max_results, token_ref):
        current = self.store.current
        if current is None:
            return "engine.annotate_stale"
        kind, value = token_ref
        is_current = value == current.token_id if kind == "etag" else value >= current.created_at
        return "engine.annotate_ok" if is_current else "engine.annotate_stale"

    def validate_name(requested, current, dataset):
        same = current is not None and requested.token_id == current.token_id
        return "token.validate_current" if same else "token.validate"

    _patch(recorder, proxy, "parse_etag", "proxy.precondition")
    _patch(recorder, proxy, "parse_http_date", "proxy.precondition")
    _patch(recorder, engine.GuardEngine, "annotate", name_fn=annotate_name)
    _patch(recorder, engine.GuardEngine, "run_detection", "engine.run_detection")
    _patch(recorder, engine, "validate", name_fn=validate_name)
    _patch(recorder, engine, "evaluate_epochs", "diffing.evaluate_epochs")
    _patch(recorder, engine, "mint_token", "token.mint")
    _patch(recorder, engine, "serialize_wire", "wire.serialize_wire")
    _patch(recorder, token, "collect_violations", "diffing.collect_violations")
    _patch(recorder, token.TokenStore, "__init__", "token.load")
    _patch(recorder, token.TokenStore, "store", "token.store")
    _patch(recorder, token.TokenStore, "find", "token.resolve")
    _patch(recorder, token.TokenStore, "newest_at_or_before", "token.resolve")
    _patch(recorder, upstream, "parse_wire_response", "wire.parse_wire_response")
    _patch(recorder, upstream.UpstreamClient, "annotate", "upstream.annotate")
    _patch(recorder, upstream.UpstreamClient, "snapshot_benchmark", "upstream.snapshot_benchmark")


def install_cli(recorder):
    from driftguard import cli

    _patch(recorder, cli, "load_corpus_pair", "corpus.load_corpus_pair")
    _patch(recorder, cli, "tune_thresholds", "tuner.tune_thresholds")


def install_simulator(recorder):
    """Count labelling calls and the connections they arrived on. The
    server runs one thread per accepted connection, so a thread-local flag
    marks the first call on each connection."""
    from driftguard import simulator

    route = simulator.SimulatorServer._route
    local = threading.local()

    def counted(self, method, path, body, headers):
        if method == "POST" and path != "/advance":
            recorder.count("upstream_calls")
            if not getattr(local, "seen", False):
                local.seen = True
                recorder.count("upstream_connections")
        return route(self, method, path, body, headers)

    simulator.SimulatorServer._route = counted


def run_echo() -> int:
    from driftguard.httpbase import JsonHttpServer

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    server = JsonHttpServer("127.0.0.1", 0, lambda method, path, body, headers: (200, {}, {"ok": True}))
    server.start()
    print(f"listening on {server.base_url}", flush=True)
    try:
        stop.wait()
    finally:
        server.stop()
    return 0


def main(argv) -> int:
    spans_file, command = argv[0], argv[1]
    if command == "echo":
        return run_echo()
    recorder = Recorder()
    if command == "serve":
        install_proxy(recorder)
    elif command == "simulate":
        install_simulator(recorder)
    elif command in ("tune", "replay"):
        install_cli(recorder)
    from driftguard import cli

    try:
        return cli.main(argv[1:])
    finally:
        recorder.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
