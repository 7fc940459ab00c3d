"""End-to-end benchmark of the drift-guard proxy as it is deployed.

    python3 perfbench/run.py --workload drift_n2000 --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --quick

Each run starts the upstream stand-in (`drift-guard simulate`) and the
proxy (`drift-guard serve`) as processes of their own, drives them over
loopback from this process, and checks every answer against oracle.py.
Phases: set-up (timed several times), rotating detections, a closed-loop
serve phase of --seconds, then `tune`, `replay` and restarts in turn.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 the processes start through
launcher.py, which records spans, and the JSON carries the per-layer
metrics instead. --quick runs both workloads at a small size with every
check on, to test the harness itself. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import calendar
import functools
import http.client
import itertools
import json
import os
import random
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from email.utils import formatdate
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402

# Far above the number of 412s a run sends, so the violation counter never
# starts a background re-probe during a timed phase.
TRIGGER_Z = 1_000_000
MIN_SAMPLES = 100       # per request kind and run, so p90 has >= 10 beyond it
ECHO_ROUNDS = 40
HTTP_TIMEOUT = 120

END_TO_END = [
    ("setup_s", "s"), ("ok_p50_ms", "ms"), ("ok_p90_ms", "ms"), ("stale_p50_ms", "ms"),
    ("stale_p90_ms", "ms"), ("annotate_rps", "1/s"), ("detect_s", "s"), ("tune_s", "s"),
    ("replay_s", "s"), ("restart_s", "s"), ("rss_mb", "MB"), ("storage_mb", "MB"),
]
PER_LAYER = [
    ("httpbase.roundtrip_ms", "ms"), ("proxy.precondition_us", "us"),
    ("engine.annotate_ok_ms", "ms"), ("engine.annotate_stale_ms", "ms"),
    ("engine.run_detection_s", "s"), ("engine.audit_bytes", "B/request"),
    ("engine.detection_record_kb", "KB/run"), ("token.resolve_us", "us"),
    ("token.validate_ms", "ms"), ("token.error_body_kb", "KB"), ("token.mint_ms", "ms"),
    ("token.store_ms", "ms"), ("token.file_kb", "KB"), ("token.load_s", "s"),
    ("diffing.collect_violations_ms", "ms"), ("diffing.evaluate_epochs_ms", "ms"),
    ("corpus.load_corpus_pair_ms", "ms"), ("tuner.tune_thresholds_ms", "ms"),
    ("wire.parse_wire_response_us", "us"), ("wire.serialize_wire_us", "us"),
    ("upstream.annotate_ms", "ms"), ("upstream.snapshot_benchmark_s", "s"),
    ("upstream.connections_per_call", "count"),
]
# per-layer metric -> (span name, scale from ns); medians of self time
SPAN_METRICS = {
    "proxy.precondition_us": ("proxy.precondition", 1e3),
    "engine.annotate_ok_ms": ("engine.annotate_ok", 1e6),
    "engine.annotate_stale_ms": ("engine.annotate_stale", 1e6),
    "engine.run_detection_s": ("engine.run_detection", 1e9),
    "token.resolve_us": ("token.resolve", 1e3),
    "token.validate_ms": ("token.validate", 1e6),
    "token.mint_ms": ("token.mint", 1e6),
    "token.store_ms": ("token.store", 1e6),
    "diffing.collect_violations_ms": ("diffing.collect_violations", 1e6),
    "diffing.evaluate_epochs_ms": ("diffing.evaluate_epochs", 1e6),
    "corpus.load_corpus_pair_ms": ("corpus.load_corpus_pair", 1e6),
    "tuner.tune_thresholds_ms": ("tuner.tune_thresholds", 1e6),
    "wire.parse_wire_response_us": ("wire.parse_wire_response", 1e3),
    "wire.serialize_wire_us": ("wire.serialize_wire", 1e3),
    "upstream.snapshot_benchmark_s": ("upstream.snapshot_benchmark", 1e9),
}
MIB = 1024 * 1024


class CheckFailed(Exception):
    """The program answered something the oracle did not expect."""


def check(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


# ----------------------------------------------------------------- processes


class Processes:
    """Children of one run. Every process started is stopped and waited for."""

    def __init__(self, work: Path, trace: bool):
        self.work = work
        self.trace = trace
        self.live: list = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
        self.env.pop("DRIFT_GUARD_CONFIG", None)
        self._spans = 0

    def spans_file(self, label: str) -> Path:
        self._spans += 1
        return self.work / "spans" / f"{self._spans:03d}-{label}.json"

    def argv(self, command: list, label: str) -> list:
        if command[0] == "receiver":
            return [sys.executable, str(HERE / "receiver.py")]
        if self.trace:
            return [sys.executable, str(HERE / "launcher.py"), str(self.spans_file(label))] + command
        return [sys.executable, "-m", "driftguard"] + command

    def start(self, command: list, label: str) -> subprocess.Popen:
        log = open(self.work / "logs" / f"{label}.log", "ab")
        try:
            proc = subprocess.Popen(
                self.argv(command, label),
                cwd=self.work,
                env=self.env,
                stdout=subprocess.PIPE,
                stderr=log,
                stdin=subprocess.DEVNULL,
            )
        finally:
            log.close()
        self.live.append(proc)
        return proc

    @staticmethod
    def wait_listening(proc: subprocess.Popen, timeout: float = 60) -> str:
        """Base URL from the child's `... listening on http://host:port` line."""
        ready, _, _ = select.select([proc.stdout], [], [], timeout)
        line = proc.stdout.readline().decode("utf-8", "replace") if ready else ""
        check("listening on http://" in line, f"child did not report its address: {line!r}")
        url = line.split("listening on ", 1)[1].split()[0]
        return url[: -len("/annotate")] if url.endswith("/annotate") else url

    def run(self, command: list, label: str) -> tuple:
        """Run a command to completion; (seconds, exit code, stdout bytes)."""
        start = time.perf_counter()
        proc = self.start(command, label)
        out, _ = proc.communicate(timeout=HTTP_TIMEOUT)
        elapsed = time.perf_counter() - start
        self.live.remove(proc)
        return elapsed, proc.returncode, out

    def stop(self, proc: subprocess.Popen):
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        if proc in self.live:
            self.live.remove(proc)

    def stop_all(self):
        for proc in list(self.live):
            self.stop(proc)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def http_call(base: str, method: str, path: str, body=None, headers=None, conn=None):
    """One request; a fresh connection unless `conn` is given. Returns
    (status, header dict, body bytes)."""
    own = conn is None
    if own:
        host, port = base.split("//", 1)[1].rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=HTTP_TIMEOUT)
    try:
        data = None if body is None else json.dumps(body).encode("utf-8")
        hdrs = {"Content-Type": "application/json"} if data is not None else {}
        hdrs.update(headers or {})
        conn.request(method, path, body=data, headers=hdrs)
        reply = conn.getresponse()
        raw = reply.read()
        return reply.status, dict(reply.getheaders()), raw
    finally:
        if own:
            conn.close()


def epoch_seconds(iso: str) -> int:
    return calendar.timegm(time.strptime(iso, "%Y-%m-%dT%H:%M:%SZ"))


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[-1]


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ------------------------------------------------------------------- the run


class Run:
    def __init__(self, wl: workloads.Workload, seconds: float, trace: bool, work: Path,
                 min_samples: int = MIN_SAMPLES):
        self.wl = wl
        self.min_samples = min_samples
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.procs = Processes(work, trace)
        self.attempted = 0
        self.failed = 0
        self.samples: dict = {}
        self.values: dict = {}
        self.snaps = [oracle.snapshot(s, wl.refs, wl.rules.max_labels) for s in wl.states]
        self.tokens: list = []         # metadata of every token minted, oldest first
        self.expected_callbacks: dict = {}  # error code -> warning callbacks due
        self.sim = self.proxy = self.storage = self.config = None
        self.sim_url = self.proxy_url = self.receiver_url = None

    # -------------------------------------------------------------- helpers

    def op(self, fn, *args):
        """Count one operation; an exception is a failed operation."""
        self.attempted += 1
        try:
            return fn(*args)
        except CheckFailed:
            raise
        except Exception:
            self.failed += 1
            raise

    def sample(self, name: str, value: float):
        self.samples.setdefault(name, []).append(value)

    def write_inputs(self):
        wl = self.wl
        (self.work / "logs").mkdir(parents=True)
        (self.work / "spans").mkdir()
        (self.work / "drift.script").write_text(wl.script_text(), encoding="utf-8")
        (self.work / "rules.conf").write_text(wl.rules.to_flat(), encoding="utf-8")
        for name, maps in zip(("old", "new"), self.corpus_maps):
            directory = self.work / "corpus" / name
            directory.mkdir(parents=True)
            for k, labels in enumerate(maps):
                body = {
                    "responses": [
                        {
                            "label_annotations": [
                                {"mid": "", "description": label, "score": score, "topicality": score}
                                for label, score in oracle.ranked(labels)
                            ]
                        }
                    ]
                }
                (directory / f"img-{k:04d}.json").write_text(json.dumps(body), encoding="utf-8")

    def write_config(self, storage: Path, sim_port: int) -> Path:
        wl = self.wl
        lines = [
            "listen=127.0.0.1:0",
            f"upstream_url=http://127.0.0.1:{sim_port}/annotate",
            "service_id=perfbench",
            f"storage_path={storage}",
            f"violation_trigger_z={TRIGGER_Z}",
        ]
        if self.receiver_url:
            lines.append(f"warning_callback_url={self.receiver_url}/callback")
        path = storage.with_suffix(".conf")
        path.write_text("\n".join(lines) + "\n" + wl.rules.to_flat(), encoding="utf-8")
        return path

    # --------------------------------------------------------------- phases

    def setup_once(self, index: int):
        """Launch both processes and register the benchmark; returns the
        elapsed time until the proxy has served its first token."""
        wl = self.wl
        storage = self.work / f"storage{index}"
        sim_port = free_port()
        config = self.write_config(storage, sim_port)
        start = time.perf_counter()
        sim = self.procs.start(
            ["simulate", "--script", "drift.script", "--seed", str(wl.seed), "--port", str(sim_port)],
            f"simulate{index}",
        )
        proxy = self.procs.start(["serve", "--config", str(config)], f"serve{index}")
        self.sim_url = self.procs.wait_listening(sim)
        self.proxy_url = self.procs.wait_listening(proxy)
        status, headers, raw = http_call(
            self.proxy_url, "POST", "/benchmark", {"items": wl.items(), "rules": wl.rules.to_wire()}
        )
        elapsed = time.perf_counter() - start
        check(status == 201, f"POST /benchmark answered {status}: {raw[:200]!r}")
        metadata = json.loads(raw)
        check(metadata["snapshot_size"] == wl.n and metadata["success"], "first token is incomplete")
        check(headers.get("ETag") == f'W/"{metadata["token_id"]}"', "POST /benchmark ETag mismatch")
        self.sim, self.proxy, self.storage, self.config = sim, proxy, storage, config
        self.tokens = [metadata]
        return elapsed

    def phase_setup(self):
        for index in range(self.wl.setups):
            if index:
                self.procs.stop(self.proxy)
                self.procs.stop(self.sim)
                shutil.rmtree(self.storage)
            self.sample("setup_s", self.op(self.setup_once, index))

    def detect_once(self, epoch: int):
        status, _, raw = http_call(self.sim_url, "POST", "/advance", {})
        check(status == 200 and json.loads(raw)["epoch"] == epoch, f"simulator did not reach epoch {epoch}")
        start = time.perf_counter()
        status, _, raw = http_call(self.proxy_url, "POST", "/admin/detect")
        elapsed = time.perf_counter() - start
        check(status == 202, f"detection answered {status}")
        run = json.loads(raw)
        want = oracle.violating_images(
            self.snaps[epoch - 1], self.snaps[epoch], self.wl.refs, self.wl.expected, self.wl.rules
        )
        check(run["outcome"] == "token_rotated", f"epoch {epoch}: detection outcome {run['outcome']}")
        got = run["report"]["totals"]["violating_images"]
        check(got == want, f"epoch {epoch}: {got} violating images, oracle says {want}")
        check(run["old_token_id"] == self.tokens[-1]["token_id"], "rotation from an unexpected token")
        status, _, raw = http_call(self.proxy_url, "GET", "/token")
        metadata = json.loads(raw)
        check(metadata["token_id"] == run["new_token_id"], "GET /token is not the rotated token")
        self.tokens.append(metadata)
        return elapsed

    def phase_detect(self):
        """One rotating detection per epoch. A token's time has one-second
        resolution, so each rotation starts at least a second after the
        previous mint and no two tokens share a Last-Modified."""
        detections_log = self.storage / "detections.log"
        before = detections_log.stat().st_size if detections_log.exists() else 0
        for epoch in range(1, self.wl.rotations + 1):
            wait = epoch_seconds(self.tokens[-1]["created_at"]) + 1.0 - time.time()
            if wait > 0:
                time.sleep(wait)
            self.sample("detect_s", self.op(self.detect_once, epoch))
        self.values["engine.detection_record_kb"] = (
            (detections_log.stat().st_size - before) / 1024 / self.wl.rotations
        )

    # ------------------------------------------------------------ serve phase

    def expected_ok(self) -> dict:
        state = self.wl.states[self.wl.rotations]
        return {ref: oracle.served_labels(state[ref], self.wl.rules) for ref in self.wl.refs}

    def phase_serve(self):
        wl = self.wl
        current = self.tokens[-1]
        current_etag = f'W/"{current["token_id"]}"'
        expected_ok = self.expected_ok()
        last = wl.rotations
        if wl.stale_mode == "previous":
            stale_pool = [last - 1]
        else:
            stale_pool = list(range(last))
        stale_expect = {
            e: oracle.stale_expectation(self.snaps[e], self.snaps[last], wl.refs, wl.expected, wl.rules)
            for e in stale_pool
        }
        for e in stale_pool:
            if wl.rules.severity == "error":
                check(stale_expect[e] is not None, f"token {e} is not stale against the current one")
        audit = self.storage / "audit.log"
        audit_before = audit.stat().st_size
        clients = min(2, len(os.sched_getaffinity(0)))
        rounds_each = -(-self.min_samples // clients)
        verified: dict = {}
        lock = threading.Lock()
        results = [None] * clients
        host, port = self.proxy_url.split("//", 1)[1].rsplit(":", 1)
        deadline = time.perf_counter() + self.seconds

        def verify_ok(url, status, headers, raw):
            check(status == 200, f"ok request for {url} answered {status}")
            check(headers.get("ETag") == current_etag, f"ok request for {url} carried ETag {headers.get('ETag')}")
            if verified.get(("ok", url)) == raw:
                return
            body = json.loads(raw)
            got = [(a["description"], a["score"]) for a in body["responses"][0]["label_annotations"]]
            check(got == expected_ok[url], f"labels for {url}: {got} != {expected_ok[url]}")
            check(
                all(a["topicality"] == a["score"] for a in body["responses"][0]["label_annotations"]),
                f"topicality of {url} differs from score",
            )
            with lock:
                verified[("ok", url)] = raw

        def verify_412(epoch, status, raw):
            check(status == 412, f"stale request with token {epoch} answered {status}")
            if verified.get(("412", epoch)) == raw:
                return
            body = json.loads(raw)
            code, uri, count = stale_expect[epoch]
            data = body["error_data"]
            got = (body["error_code"], data["uri"], 1 + len(data.get("additional_errors", ())))
            check(got == (code, uri, count), f"412 for token {epoch}: {got} != {(code, uri, count)}")
            with lock:
                verified[("412", epoch)] = raw

        def client(index):
            rng = random.Random(f"{wl.name}/{wl.seed}/client{index}")
            conn = http.client.HTTPConnection(host, int(port), timeout=HTTP_TIMEOUT)
            ok_lat, stale_lat, sizes = [], [], []
            expect_codes: dict = {}
            rounds = 0
            try:
                while rounds < rounds_each or time.perf_counter() < deadline:
                    rounds += 1
                    url = rng.choice(wl.refs)
                    start = time.perf_counter()
                    status, headers, raw = http_call(
                        None, "POST", "/annotate", {"url": url}, {"If-Match": current_etag}, conn
                    )
                    ok_lat.append(time.perf_counter() - start)
                    verify_ok(url, status, headers, raw)

                    epoch = rng.choice(stale_pool)
                    token = self.tokens[epoch]
                    if wl.stale_mode == "assorted" and rounds % 2:
                        header = {"If-Unmodified-Since": formatdate(epoch_seconds(token["created_at"]), usegmt=True)}
                    else:
                        header = {"If-Match": f'W/"{token["token_id"]}"'}
                    url = rng.choice(wl.refs)
                    start = time.perf_counter()
                    status, headers, raw = http_call(None, "POST", "/annotate", {"url": url}, header, conn)
                    stale_lat.append(time.perf_counter() - start)
                    if wl.rules.severity == "error":
                        verify_412(epoch, status, raw)
                        sizes.append(len(raw))
                    else:
                        verify_ok(url, status, headers, raw)
                        if stale_expect[epoch] is not None:
                            code = str(stale_expect[epoch][0])
                            expect_codes[code] = expect_codes.get(code, 0) + 1
            finally:
                conn.close()
                results[index] = (ok_lat, stale_lat, sizes, expect_codes)

        errors = []

        def guarded(index):
            try:
                client(index)
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        start = time.perf_counter()
        threads = [threading.Thread(target=guarded, args=(i,)) for i in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start

        ok_lat, stale_lat, sizes = [], [], []
        for ok, stale, size, codes in filter(None, results):
            ok_lat += ok
            stale_lat += stale
            sizes += size
            for code, n in codes.items():
                self.expected_callbacks[code] = self.expected_callbacks.get(code, 0) + n
        self.attempted += len(ok_lat) + len(stale_lat)
        if errors:
            if not isinstance(errors[0], CheckFailed):
                self.failed += len(errors)
            raise errors[0]
        self.samples["ok_ms"] = [v * 1000 for v in ok_lat]
        self.samples["stale_ms"] = [v * 1000 for v in stale_lat]
        self.values["annotate_rps"] = (len(ok_lat) + len(stale_lat)) / elapsed
        self.values["engine.audit_bytes"] = (audit.stat().st_size - audit_before) / (len(ok_lat) + len(stale_lat))
        if sizes:
            self.values["token.error_body_kb"] = statistics.median(sizes) / 1024
        self.values["rss_mb"] = self.vm_hwm(self.proxy) / 1024

    @staticmethod
    def vm_hwm(proc) -> int:
        for line in Path(f"/proc/{proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
        raise CheckFailed("VmHWM missing from /proc status")

    def check_callbacks(self):
        if not self.receiver_url:
            return
        status, _, raw = http_call(self.receiver_url, "GET", "/stats")
        stats = json.loads(raw)
        check(stats["detections"] == self.wl.rotations,
              f"receiver got {stats['detections']} detection callbacks for {self.wl.rotations} rotations")
        check(stats["codes"] == self.expected_callbacks,
              f"receiver got callbacks {stats['codes']}, oracle says {self.expected_callbacks}")
        if stats["sizes"]:
            self.values["token.error_body_kb"] = statistics.median(stats["sizes"]) / 1024

    # ------------------------------------------------------------ tune/replay

    def tune_once(self, index: int):
        wl = self.wl
        elapsed, code, out = self.procs.run(
            [
                "tune", "--old", "corpus/old", "--new", "corpus/new",
                "--labels", ",".join(str(v) for v in workloads.TUNE_LABELS),
                "--confs", ",".join(repr(v) for v in workloads.TUNE_CONFS),
            ],
            f"tune{index}",
        )
        check(code == 0, f"tune exited {code}")
        rows = [line.split("\t") for line in out.decode("utf-8").strip().splitlines()]
        counts = [[int(cell) for cell in row[1:]] for row in rows[1:]]
        check(counts == self.expected_tune, f"tune matrix {counts} != recount {self.expected_tune}")
        for i, j in itertools.product(range(len(counts)), range(len(counts[0]))):
            check(i == 0 or counts[i][j] <= counts[i - 1][j], "tune matrix grows along max_delta_labels")
            check(j == 0 or counts[i][j] <= counts[i][j - 1], "tune matrix grows along max_delta_confidence")
        return elapsed

    @functools.cached_property
    def corpus_maps(self) -> tuple:
        """Full label maps of the tune/replay corpus pair: on drift_n2000 the
        pair the last rotation saw, on churn_n200 the whole history."""
        wl = self.wl
        old = wl.rotations - 1 if wl.stale_mode == "previous" else 0
        return tuple([wl.states[e][ref] for ref in wl.refs] for e in (old, wl.rotations))

    @functools.cached_property
    def expected_tune(self) -> list:
        olds, news = self.corpus_maps
        return [
            [oracle.tune_cell(olds, news, labels, conf) for conf in workloads.TUNE_CONFS]
            for labels in workloads.TUNE_LABELS
        ]

    def replay_once(self, index: int):
        wl = self.wl
        elapsed, code, out = self.procs.run(
            ["replay", "--old", "corpus/old", "--new", "corpus/new", "--rules", "rules.conf"],
            f"replay{index}",
        )
        check(code == 0, f"replay exited {code}")
        want = oracle.replay_totals(*self.corpus_maps, wl.rules)
        got = json.loads(out)["totals"]
        check(got == want, f"replay totals {got} != recount {want}")
        return elapsed

    def phase_offline(self):
        """tune, replay and restarts in turn rather than each in a block, so
        a slow spell of the machine spreads over all three."""
        self.procs.stop(self.proxy)
        wl = self.wl
        for index in range(max(wl.repeats, wl.restarts)):
            if index < wl.repeats:
                self.sample("tune_s", self.op(self.tune_once, index))
                self.sample("replay_s", self.op(self.replay_once, index))
            if index < wl.restarts:
                self.sample("restart_s", self.op(self.restart_once, index))

    # --------------------------------------------------------------- restarts

    def restart_once(self, index: int):
        start = time.perf_counter()
        proxy = self.procs.start(["serve", "--config", str(self.config)], f"restart{index}")
        try:
            url = self.procs.wait_listening(proxy)
            status, _, raw = http_call(url, "GET", "/token")
            elapsed = time.perf_counter() - start
        finally:
            self.procs.stop(proxy)
        check(status == 200, f"GET /token after restart answered {status}")
        metadata = json.loads(raw)
        check(metadata["token_id"] == self.tokens[-1]["token_id"], "restart came back with another token")
        check(metadata["snapshot_size"] == self.wl.n, "restarted token has the wrong snapshot size")
        return elapsed

    # ---------------------------------------------------------------- tracing

    def phase_echo(self):
        """httpbase.roundtrip_ms: keep-alive POSTs to a JsonHttpServer whose
        router returns a small fixed body."""
        echo = self.procs.start(["echo"], "echo")
        try:
            url = self.procs.wait_listening(echo)
            host, port = url.split("//", 1)[1].rsplit(":", 1)
            conn = http.client.HTTPConnection(host, int(port), timeout=HTTP_TIMEOUT)
            times = []
            try:
                for _ in range(ECHO_ROUNDS):
                    self.attempted += 1
                    start = time.perf_counter()
                    status, _, raw = http_call(None, "POST", "/annotate", {"url": "x"}, None, conn)
                    times.append(time.perf_counter() - start)
                    check(status == 200 and json.loads(raw) == {"ok": True}, "echo server misbehaved")
            finally:
                conn.close()
        finally:
            self.procs.stop(echo)
        self.values["httpbase.roundtrip_ms"] = statistics.median(times) * 1000

    def layer_metrics(self) -> dict:
        names = dict(PER_LAYER)
        values = {k: v for k, v in self.values.items() if k in names}
        by_name: dict = {}
        loads = []
        upstream_calls = upstream_connections = 0
        upstream_annotate = []
        for path in sorted((self.work / "spans").glob("*.json")):
            data = json.loads(path.read_text(encoding="utf-8"))
            upstream_calls += data["counts"].get("upstream_calls", 0)
            upstream_connections += data["counts"].get("upstream_connections", 0)
            spans = {s[0]: s for s in data["spans"]}
            child_time: dict = {}
            for span_id, _, start, end, parent, _ in data["spans"]:
                if parent is not None:
                    child_time[parent] = child_time.get(parent, 0) + (end - start)
            for span_id, name, start, end, parent, _ in data["spans"]:
                self_ns = end - start - child_time.get(span_id, 0)
                if name == "token.load":
                    # only the restarts load a history; set-up starts empty
                    if "restart" in path.name:
                        loads.append(self_ns)
                elif name == "upstream.annotate":
                    # request-path calls; snapshot calls run on pool threads
                    if parent is not None and spans[parent][1].startswith("engine.annotate"):
                        upstream_annotate.append(self_ns)
                else:
                    by_name.setdefault(name, []).append(self_ns)
        for metric, (span, scale) in SPAN_METRICS.items():
            if by_name.get(span):
                values[metric] = statistics.median(by_name[span]) / scale
        if loads:
            values["token.load_s"] = statistics.median(loads) / 1e9
        if upstream_annotate:
            values["upstream.annotate_ms"] = statistics.median(upstream_annotate) / 1e6
        if upstream_calls:
            values["upstream.connections_per_call"] = upstream_connections / upstream_calls
        tokens = list(self.storage.glob("*.token"))
        values["token.file_kb"] = sum(p.stat().st_size for p in tokens) / len(tokens) / 1024
        return values

    # -------------------------------------------------------------------- all

    def execute(self) -> dict:
        self.write_inputs()
        try:
            if self.wl.rules.severity == "warning":
                receiver = self.procs.start(["receiver"], "receiver")
                self.receiver_url = self.procs.wait_listening(receiver)
            self.phase_setup()
            self.phase_detect()
            self.phase_serve()
            self.check_callbacks()
            self.phase_offline()
            if self.trace:
                self.phase_echo()
        finally:
            self.procs.stop_all()
        self.values["storage_mb"] = tree_bytes(self.storage) / MIB
        return self.end_to_end()

    def end_to_end(self) -> dict:
        s = self.samples
        return {
            "setup_s": statistics.median(s["setup_s"]),
            "ok_p50_ms": statistics.median(s["ok_ms"]),
            "ok_p90_ms": p90(s["ok_ms"]),
            "stale_p50_ms": statistics.median(s["stale_ms"]),
            "stale_p90_ms": p90(s["stale_ms"]),
            "annotate_rps": self.values["annotate_rps"],
            "detect_s": statistics.median(s["detect_s"]),
            "tune_s": statistics.median(s["tune_s"]),
            "replay_s": statistics.median(s["replay_s"]),
            "restart_s": statistics.median(s["restart_s"]),
            "rss_mb": self.values["rss_mb"],
            "storage_mb": self.values["storage_mb"],
        }


# ---------------------------------------------------------------------- main


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> dict:
    wl = workloads.build(name, seed, quick=quick)
    work = HERE / "work" / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    run = Run(wl, seconds, trace, work, min_samples=10 if quick else MIN_SAMPLES)
    correct, error = True, None
    e2e = layers = {}
    try:
        e2e = run.execute()
        if trace:
            layers = run.layer_metrics()
    except CheckFailed as exc:
        correct, error = False, str(exc)
    except Exception as exc:  # the run still reports what it attempted
        correct, error = False, f"{type(exc).__name__}: {exc}"
        if not run.failed:
            run.failed = 1
            run.attempted = max(run.attempted, 1)
    if correct:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "correct": correct,
        "error": error,
        "work": str(work) if not correct else None,
        "attempted": run.attempted,
        "failed": run.failed,
        "samples": run.samples,
        "end_to_end": e2e,
        "per_layer": layers,
    }


def print_report(result: dict):
    print(f"# {result['workload']} seed={result['seed']} trace={int(result['trace'])} "
          f"attempted={result['attempted']} failed={result['failed']} correct={result['correct']}")
    if result["error"]:
        print(f"# error: {result['error']} (inputs and logs kept in {result['work']})")
    units = dict(END_TO_END + PER_LAYER)
    for section in ("end_to_end", "per_layer"):
        for name, value in result[section].items():
            print(f"{name:34s} {value:14.4f} {units[name]}")


def emit(result: dict, trace: bool):
    wanted = PER_LAYER if trace else END_TO_END
    source = result["per_layer"] if trace else result["end_to_end"]
    metrics = {name: {"value": source[name], "unit": unit} for name, unit in wanted if name in source}
    print(json.dumps({
        "correct": result["correct"] and len(metrics) == len(wanted),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


def save(result: dict):
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    name = f"{result['workload']}-s{result['seed']}-t{int(result['trace'])}.json"
    (out / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")


def quick() -> int:
    oracle.self_check()
    ok = True
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, 7, 1.0, trace, quick=True)
            print_report(result)
            ok = ok and result["correct"] and result["failed"] == 0
    print("quick check:", "pass" if ok else "FAIL")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small sizes, both workloads, every check")
    args = parser.parse_args(argv)
    if not (SRC / "driftguard" / "cli.py").is_file():
        print(f"perfbench: no driftguard sources under {SRC}", file=sys.stderr)
        return 2
    if args.quick:
        return quick()
    if args.workload is None:
        parser.error("--workload is required unless --quick is given")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    save(result)
    print_report(result)
    emit(result, bool(args.trace))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
