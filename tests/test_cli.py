import json
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from datetime import timedelta

import pytest
import requests

from driftguard.cli import main
from driftguard.corpus import corpus_path, write_corpus
from driftguard.simulator import SimulatorServer, parse_script
from driftguard.token import TokenStore, mint_token
from driftguard.types import BenchmarkDataset

import reference_fixtures as refs
from gen_strategies import T0
from netutil import free_port, http_reply, read_request
from test_proxy import DRIFT_SCRIPT

RULES_TEXT = (
    "max_labels=12\nmin_confidence=0.0\nmax_delta_labels=5\nmax_delta_confidence=0.01\n"
)

MANIFEST_TEXT = (
    f"{refs.CAR_URI}\tVehicle\t\n"
    f"{refs.SHEEP_URI}\tAnimal\t\n"
    f"{refs.IGUANA_URI}\tFauna\tfauna\n"
)


@pytest.fixture()
def reference_dirs(tmp_path):
    old_snapshot, new_snapshot = refs.fixture_snapshots()
    write_corpus(tmp_path / "old", old_snapshot)
    write_corpus(tmp_path / "new", new_snapshot)
    (tmp_path / "rules.conf").write_text(RULES_TEXT, encoding="utf-8")
    (tmp_path / "benchmark.tsv").write_text(MANIFEST_TEXT, encoding="utf-8")
    return tmp_path


def write_config(tmp_path, upstream_url, listen=None, **overrides):
    listen = listen or f"127.0.0.1:{free_port()}"
    lines = {
        "listen": listen,
        "upstream_url": upstream_url,
        "service_id": "vision-main",
        "storage_path": str(tmp_path / "storage"),
        "schedule_interval_secs": "10000",
        "violation_trigger_z": "3",
        "rules.max_labels": "5",
        **overrides,
    }
    path = tmp_path / "guard.conf"
    path.write_text(
        "\n".join(f"{key}={value}" for key, value in lines.items()) + "\n", encoding="utf-8"
    )
    return path, listen


NOT_A_PROXY = b"<html>not a proxy</html>"


def answer_once(listener, reply: bytes) -> threading.Thread:
    """Answer the next request that reaches `listener` with the raw bytes
    `reply`, from a thread of its own."""

    def answer():
        conn, _ = listener.accept()
        with conn:
            read_request(conn)
            conn.sendall(reply)

    thread = threading.Thread(target=answer, daemon=True)
    thread.start()
    return thread


def spawn(args):
    return subprocess.Popen(
        [sys.executable, "-m", "driftguard.cli", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def wait_http(url, deadline=15.0):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        try:
            requests.get(url, timeout=1)
            return
        except requests.RequestException:
            time.sleep(0.05)
    raise TimeoutError(f"{url} never came up")


def test_cli_import_leaves_requests_out():
    code = "import sys, driftguard.cli; sys.exit('requests' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], timeout=60).returncode == 0


class TestReplay:
    def test_reference_corpus_yields_codes_7_8_9(self, reference_dirs, capsys):
        code = main(
            [
                "replay",
                "--old", str(reference_dirs / "old"),
                "--new", str(reference_dirs / "new"),
                "--rules", str(reference_dirs / "rules.conf"),
                "--manifest", str(reference_dirs / "benchmark.tsv"),
            ]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert [(v["image_ref"], v["error_code"]) for v in document["violations"]] == [
            (refs.CAR_URI, 7),
            (refs.SHEEP_URI, 8),
            (refs.IGUANA_URI, 9),
        ]
        assert document["totals"]["violating_images"] == 3

    def test_identical_dirs_zero_totals(self, reference_dirs, capsys):
        code = main(
            [
                "replay",
                "--old", str(reference_dirs / "old"),
                "--new", str(reference_dirs / "old"),
                "--rules", str(reference_dirs / "rules.conf"),
            ]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["totals"] == {
            "labels_added": 0,
            "labels_dropped": 0,
            "confidence_changes": 0,
            "violating_images": 0,
        }
        assert document["violations"] == []

    def test_output_is_deterministic(self, reference_dirs, capsys):
        args = [
            "replay",
            "--old", str(reference_dirs / "old"),
            "--new", str(reference_dirs / "new"),
            "--rules", str(reference_dirs / "rules.conf"),
            "--manifest", str(reference_dirs / "benchmark.tsv"),
        ]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first

    def test_replay_agrees_with_token_validation(self, reference_dirs, capsys):
        # the offline report and the live validate() path must flag the same
        # (image, code) pairs for the same corpus
        from datetime import datetime, timezone

        from driftguard.corpus import load_corpus_pair
        from driftguard.token import mint_token, validate

        main(
            [
                "replay",
                "--old", str(reference_dirs / "old"),
                "--new", str(reference_dirs / "new"),
                "--rules", str(reference_dirs / "rules.conf"),
                "--manifest", str(reference_dirs / "benchmark.tsv"),
            ]
        )
        replayed = {
            (v["image_ref"], v["error_code"])
            for v in json.loads(capsys.readouterr().out)["violations"]
        }

        dataset, old_snapshot, new_snapshot = load_corpus_pair(
            reference_dirs / "old", reference_dirs / "new", refs.FIXTURE_ITEMS
        )
        t0 = datetime(2026, 1, 1, tzinfo=timezone.utc)
        t1 = datetime(2026, 1, 9, tzinfo=timezone.utc)
        requested = mint_token("svc", dataset, refs.FIXTURE_RULES, old_snapshot, t0)
        current = mint_token("svc", dataset, refs.FIXTURE_RULES, new_snapshot, t1)
        error = validate(requested, current, dataset)
        validated = {(error.error_data["uri"], error.error_code)}
        for extra in error.error_data.get("additional_errors", []):
            validated.add((extra["error_data"]["uri"], extra["error_code"]))
        assert validated == replayed

    def test_missing_rules_file_is_exit_2(self, reference_dirs, capsys):
        code = main(
            [
                "replay",
                "--old", str(reference_dirs / "old"),
                "--new", str(reference_dirs / "new"),
                "--rules", str(reference_dirs / "nope.conf"),
            ]
        )
        assert code == 2

    def test_misaligned_dirs_is_exit_2(self, reference_dirs, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir(exist_ok=True)
        code = main(
            [
                "replay",
                "--old", str(reference_dirs / "old"),
                "--new", str(empty),
                "--rules", str(reference_dirs / "rules.conf"),
            ]
        )
        assert code == 2


    @pytest.mark.parametrize(
        "content", [b"not json", b"[" * 100_000], ids=["not json", "nested too deeply"]
    )
    def test_corpus_file_that_is_not_json_is_exit_2_naming_it(
        self, reference_dirs, capsys, content
    ):
        path = corpus_path(reference_dirs / "new", refs.IGUANA_URI)
        path.write_bytes(content)
        code = main(
            [
                "replay",
                "--old", str(reference_dirs / "old"),
                "--new", str(reference_dirs / "new"),
                "--rules", str(reference_dirs / "rules.conf"),
                "--manifest", str(reference_dirs / "benchmark.tsv"),
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"drift-guard: {path}: ")
        assert captured.out == ""


class TestTune:
    def test_matrix_tsv(self, reference_dirs, capsys):
        code = main(
            [
                "tune",
                "--old", str(reference_dirs / "old"),
                "--new", str(reference_dirs / "new"),
                "--labels", "1,5,100",
                "--confs", "0.01,0.5",
                "--manifest", str(reference_dirs / "benchmark.tsv"),
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = [line.split("\t") for line in lines]
        assert rows[0][1:] == ["0.01", "0.5"]
        # hand count: car changes 8 labels, sheep 2 labels + >=0.01 deltas,
        # iguana 4 labels + a missing expected label
        assert rows[1][1:] == ["3", "3"]
        assert rows[2][1:] == ["3", "2"]
        assert rows[3][1:] == ["2", "1"]

    def test_bad_grid_is_exit_2(self, reference_dirs, capsys):
        code = main(
            [
                "tune",
                "--old", str(reference_dirs / "old"),
                "--new", str(reference_dirs / "new"),
                "--labels", "5,1",
                "--confs", "0.01",
            ]
        )
        assert code == 2

    def test_unparseable_grid_is_exit_2(self, reference_dirs, capsys):
        code = main(
            [
                "tune",
                "--old", str(reference_dirs / "old"),
                "--new", str(reference_dirs / "new"),
                "--labels", "a",
                "--confs", "0.01",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("drift-guard: bad grid: ")

    def test_out_of_range_grid_is_exit_2(self, reference_dirs, capsys):
        code = main(
            [
                "tune",
                "--old", str(reference_dirs / "old"),
                "--new", str(reference_dirs / "new"),
                "--labels", "0,1",
                "--confs", "0.01",
            ]
        )
        assert code == 2


@pytest.mark.parametrize("command", ["replay", "simulate"])
def test_non_utf8_input_file_is_named(reference_dirs, capsys, command):
    bad = reference_dirs / "bad.conf"
    bad.write_bytes(RULES_TEXT.encode("utf-8") + b"\xff\n")
    if command == "replay":
        old, new = str(reference_dirs / "old"), str(reference_dirs / "new")
        argv = ["replay", "--old", old, "--new", new, "--rules", str(bad)]
    else:
        argv = ["simulate", "--script", str(bad), "--port", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"drift-guard: {bad}: 'utf-8' codec can't decode byte 0xff in position "
        f"{len(RULES_TEXT)}: invalid start byte\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize("command", ["replay", "tune"])
def test_bad_manifest_is_exit_2_line_by_line(reference_dirs, capsys, command):
    manifest = reference_dirs / "bad.tsv"
    manifest.write_text(
        f"{refs.CAR_URI}\n{refs.SHEEP_URI}\tAnimal\t\n{refs.SHEEP_URI}\tAnimal\n",
        encoding="utf-8",
    )
    grids = ["--labels", "1", "--confs", "0.01"] if command == "tune" else []
    code = main(
        [
            command,
            "--old", str(reference_dirs / "old"),
            "--new", str(reference_dirs / "new"),
            "--rules", str(reference_dirs / "rules.conf"),
            "--manifest", str(manifest),
            *grids,
        ]
    )
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"{manifest}:1: expected 2 or 3 tab-separated fields, got 1",
        f"{manifest}:3: duplicate image_ref (first seen on line 2)",
    ]


class TestInit:
    def test_embedded_bootstrap_prints_token_and_etag(self, reference_dirs, tmp_path, capsys):
        with SimulatorServer(parse_script(DRIFT_SCRIPT, seed=4)) as sim:
            manifest = tmp_path / "mini.tsv"
            manifest.write_text(
                "http://images.test/a.jpg\tcat\t\nhttp://images.test/b.jpg\tdog\t\n",
                encoding="utf-8",
            )
            config_path, _ = write_config(tmp_path, sim.endpoint)
            code = main(["init", "--manifest", str(manifest), "--config", str(config_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "token_id: " in out
        assert 'etag: W/"' in out
        token_files = list((tmp_path / "storage").glob("*.token"))
        assert len(token_files) == 1

    def test_duplicate_manifest_rows_exit_2_with_line_numbers(self, tmp_path, capsys):
        manifest = tmp_path / "dup.tsv"
        manifest.write_text("http://x/1.jpg\ta\nhttp://x/1.jpg\tb\n", encoding="utf-8")
        config_path, _ = write_config(tmp_path, "http://127.0.0.1:1/annotate")
        code = main(["init", "--manifest", str(manifest), "--config", str(config_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "2: duplicate image_ref" in err

    def test_unreachable_upstream_exit_3(self, tmp_path, capsys):
        manifest = tmp_path / "mini.tsv"
        manifest.write_text("http://images.test/a.jpg\tcat\n", encoding="utf-8")
        config_path, _ = write_config(tmp_path, f"http://127.0.0.1:{free_port()}/annotate")
        code = main(["init", "--manifest", str(manifest), "--config", str(config_path)])
        assert code == 3

    @pytest.mark.parametrize(
        "status,body,content_type",
        [
            pytest.param(201, NOT_A_PROXY, "text/html", id="201"),
            pytest.param(501, NOT_A_PROXY, "text/html", id="501"),
            pytest.param(400, b"[1]", "application/json", id="400-array"),
            pytest.param(201, b"5", "application/json", id="201-number"),
            pytest.param(201, b"[" * 100_000, "application/json", id="201-nested-too-deeply"),
        ],
    )
    def test_non_json_reply_at_listen_is_exit_2(self, tmp_path, capsys, status, body, content_type):
        listener = socket.create_server(("127.0.0.1", 0))
        thread = answer_once(listener, http_reply(status, body, content_type))
        manifest = tmp_path / "mini.tsv"
        manifest.write_text("http://images.test/a.jpg\tcat\n", encoding="utf-8")
        listen = f"127.0.0.1:{listener.getsockname()[1]}"
        config_path, _ = write_config(tmp_path, "http://127.0.0.1:1/annotate", listen=listen)
        try:
            code = main(["init", "--manifest", str(manifest), "--config", str(config_path)])
        finally:
            thread.join(5)
            listener.close()
        assert not thread.is_alive()
        assert code == 2
        assert "proxy rejected the benchmark" in capsys.readouterr().err

    def test_proxy_answering_502_is_exit_3(self, tmp_path, capsys):
        listener = socket.create_server(("127.0.0.1", 0))
        thread = answer_once(listener, http_reply(502, b'{"error": "all 1 benchmark requests failed"}'))
        manifest = tmp_path / "mini.tsv"
        manifest.write_text("http://images.test/a.jpg\tcat\n", encoding="utf-8")
        listen = f"127.0.0.1:{listener.getsockname()[1]}"
        config_path, _ = write_config(tmp_path, "http://127.0.0.1:1/annotate", listen=listen)
        try:
            code = main(["init", "--manifest", str(manifest), "--config", str(config_path)])
        finally:
            thread.join(5)
            listener.close()
        assert not thread.is_alive()
        assert code == 3
        assert capsys.readouterr().err == (
            "drift-guard: upstream unreachable: all 1 benchmark requests failed\n"
        )

    def test_listener_that_resets_is_exit_3_and_writes_nothing(self, tmp_path, capsys):
        listener = socket.create_server(("127.0.0.1", 0))

        def reset():
            conn, _ = listener.accept()
            read_request(conn)
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            conn.close()

        thread = threading.Thread(target=reset, daemon=True)
        thread.start()
        storage = tmp_path / "storage"
        storage.mkdir()
        manifest = tmp_path / "mini.tsv"
        manifest.write_text("http://images.test/a.jpg\tcat\n", encoding="utf-8")
        listen = f"127.0.0.1:{listener.getsockname()[1]}"
        with SimulatorServer(parse_script(DRIFT_SCRIPT, seed=4)) as sim:
            config_path, _ = write_config(tmp_path, sim.endpoint, listen=listen)
            try:
                code = main(["init", "--manifest", str(manifest), "--config", str(config_path)])
            finally:
                thread.join(5)
                listener.close()
        assert not thread.is_alive()
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("drift-guard: proxy unreachable: ")
        assert captured.out == ""
        assert list(storage.iterdir()) == []

    def test_storage_path_naming_a_file_is_exit_2(self, tmp_path, capsys):
        # nothing listens at `listen`, so init bootstraps against the storage
        storage = tmp_path / "storage"
        storage.write_text("not a directory\n", encoding="utf-8")
        manifest = tmp_path / "mini.tsv"
        manifest.write_text("http://images.test/a.jpg\tcat\n", encoding="utf-8")
        config_path, _ = write_config(
            tmp_path, "http://127.0.0.1:1/annotate", storage_path=str(storage)
        )
        code = main(["init", "--manifest", str(manifest), "--config", str(config_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("drift-guard: ") and str(storage) in err

    def test_non_utf8_manifest_or_config_is_exit_2(self, tmp_path, capsys):
        manifest = tmp_path / "mini.tsv"
        manifest.write_text("http://images.test/a.jpg\tcat\n", encoding="utf-8")
        config_path, _ = write_config(tmp_path, "http://127.0.0.1:1/annotate")
        for bad in (manifest, config_path):
            bad.write_bytes(bad.read_bytes() + b"\xff\n")
            code = main(["init", "--manifest", str(manifest), "--config", str(config_path)])
            assert code == 2
            assert "can't decode byte 0xff" in capsys.readouterr().err

    def test_config_resolution_via_env(self, tmp_path, capsys, monkeypatch):
        manifest = tmp_path / "dup.tsv"
        manifest.write_text("http://x/1.jpg\ta\nhttp://x/1.jpg\tb\n", encoding="utf-8")
        config_path, _ = write_config(tmp_path, "http://127.0.0.1:1/annotate")
        monkeypatch.setenv("DRIFT_GUARD_CONFIG", str(config_path))
        assert main(["init", "--manifest", str(manifest)]) == 2


class TestServeAndTick:
    def test_serve_init_tick_round_trip(self, tmp_path, capsys):
        with SimulatorServer(parse_script(DRIFT_SCRIPT, seed=4)) as sim:
            manifest = tmp_path / "mini.tsv"
            manifest.write_text(
                "http://images.test/a.jpg\tcat\t\n"
                "http://images.test/b.jpg\tdog\t\n"
                "http://images.test/c.jpg\tsheep\tfauna\n",
                encoding="utf-8",
            )
            config_path, listen = write_config(tmp_path, sim.endpoint)
            proc = spawn(["serve", "--config", str(config_path)])
            try:
                base = f"http://{listen}"
                wait_http(f"{base}/token")
                assert requests.get(f"{base}/token", timeout=5).status_code == 404

                assert main(["tick", "--config", str(config_path)]) == 5

                assert (
                    main(["init", "--manifest", str(manifest), "--config", str(config_path)])
                    == 0
                )
                init_out = capsys.readouterr().out
                assert "token_id: " in init_out

                etag = init_out.split("etag: ")[1].strip()
                served = requests.post(
                    f"{base}/annotate",
                    json={"url": "http://images.test/a.jpg"},
                    headers={"If-Match": etag},
                    timeout=10,
                )
                assert served.status_code == 200
                assert served.headers["ETag"] == etag

                assert main(["tick", "--config", str(config_path)]) == 0
                assert "no_change" in capsys.readouterr().out

                sim.advance_epoch()
                assert main(["tick", "--config", str(config_path)]) == 0
                tick_out = capsys.readouterr().out
                assert "token_rotated: " in tick_out and " -> " in tick_out
            finally:
                proc.send_signal(signal.SIGINT)
                out, err = proc.communicate(timeout=15)
            assert proc.returncode == 0, err

    def test_token_of_another_dataset_is_not_initialized_exit_5(self, tmp_path, capsys):
        # a token minted for one dataset beside another dataset's file
        storage = tmp_path / "storage"
        minted = BenchmarkDataset.create("minted", refs.FIXTURE_ITEMS)
        other = BenchmarkDataset.create("other", refs.FIXTURE_ITEMS[:2])
        snapshot, _ = refs.fixture_snapshots()
        store = TokenStore(storage)
        store.store(mint_token("vision-main", minted, refs.FIXTURE_RULES, snapshot, T0))
        store.save_dataset(other)
        config_path, listen = write_config(tmp_path, "http://127.0.0.1:1/annotate")
        proc = spawn(["serve", "--config", str(config_path)])
        try:
            wait_http(f"http://{listen}/token")
            assert requests.post(f"http://{listen}/admin/detect", timeout=5).status_code == 409
            assert main(["tick", "--config", str(config_path)]) == 5
        finally:
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=15)
        assert proc.returncode == 0, err

    def test_tick_against_dead_proxy_exit_3(self, tmp_path, capsys):
        config_path, _ = write_config(tmp_path, "http://127.0.0.1:1/annotate")
        assert main(["tick", "--config", str(config_path)]) == 3

    def test_non_object_reply_to_tick_is_exit_3(self, tmp_path, capsys):
        # a rotation without both token ids is no rotation either
        for body in (b"[]", b'{"outcome": "token_rotated"}', b"[" * 100_000):
            listener = socket.create_server(("127.0.0.1", 0))
            thread = answer_once(listener, http_reply(202, body))
            listen = f"127.0.0.1:{listener.getsockname()[1]}"
            config_path, _ = write_config(tmp_path, "http://127.0.0.1:1/annotate", listen=listen)
            try:
                code = main(["tick", "--config", str(config_path)])
            finally:
                thread.join(5)
                listener.close()
            assert not thread.is_alive()
            assert code == 3, body
            captured = capsys.readouterr()
            assert "detection aborted" in captured.err
            assert captured.out == ""

    def test_tick_reaches_a_proxy_listening_on_every_address_through_loopback(self, tmp_path, capsys):
        listener = socket.create_server(("127.0.0.1", 0))
        thread = answer_once(listener, http_reply(202, b'{"outcome": "no_change"}'))
        listen = f"0.0.0.0:{listener.getsockname()[1]}"
        config_path, _ = write_config(tmp_path, "http://127.0.0.1:1/annotate", listen=listen)
        try:
            code = main(["tick", "--config", str(config_path)])
        finally:
            thread.join(5)
            listener.close()
        assert not thread.is_alive()
        assert code == 0
        assert capsys.readouterr().out == "no_change\n"

    def test_serve_port_in_use_exit_4(self, tmp_path):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            config_path, _ = write_config(
                tmp_path, "http://127.0.0.1:1/annotate", listen=f"127.0.0.1:{port}"
            )
            proc = spawn(["serve", "--config", str(config_path)])
            out, err = proc.communicate(timeout=15)
            assert proc.returncode == 4, err
        finally:
            blocker.close()

    def test_storage_path_naming_a_file_is_exit_2(self, tmp_path):
        storage = tmp_path / "storage"
        storage.write_text("not a directory\n", encoding="utf-8")
        config_path, _ = write_config(
            tmp_path, "http://127.0.0.1:1/annotate", storage_path=str(storage)
        )
        proc = spawn(["serve", "--config", str(config_path)])
        out, err = proc.communicate(timeout=15)
        assert proc.returncode == 2, err
        assert err.startswith("drift-guard: ") and str(storage) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "override",
        [
            {"schedule_interval_secs": "nan"},
            {"schedule_interval_secs": "inf"},
            {"schedule_interval_secs": "1e10"},
            {"schedule_interval_secs": "soon"},
            {"violation_trigger_z": "three"},
            {"listen": "127.0.0.1:99999"},
        ],
        ids=lambda override: "=".join(*override.items()),
    )
    def test_config_the_loop_or_the_bind_cannot_use_is_exit_2(self, tmp_path, override):
        """An interval the detection loop cannot wait (NaN runs it back to
        back, more than threading.TIMEOUT_MAX kills it), a port bind()
        refuses, or a number that does not parse stops serve before it
        touches the storage path."""
        config_path, _ = write_config(tmp_path, "http://127.0.0.1:1/annotate", **override)
        proc = spawn(["serve", "--config", str(config_path)])
        try:
            out, err = proc.communicate(timeout=15)
        finally:
            proc.kill()
        assert proc.returncode == 2, err
        assert err.startswith("drift-guard: ") and "Traceback" not in err
        assert not (tmp_path / "storage").exists()

    def test_unreadable_newest_token_is_exit_2(self, tmp_path):
        self.serve_with_a_damaged_newest_token(tmp_path, lambda data: data[:100])

    def test_newest_token_nested_too_deeply_is_exit_2(self, tmp_path):
        self.serve_with_a_damaged_newest_token(tmp_path, lambda data: b"[" * 100_000)

    @staticmethod
    def serve_with_a_damaged_newest_token(tmp_path, damage):
        """`serve` over a history whose newest file is damage(its bytes)
        stops with exit 2 naming that file and writes nothing but its lock."""
        storage = tmp_path / "storage"
        dataset = BenchmarkDataset.create("minted", refs.FIXTURE_ITEMS)
        old, new = refs.fixture_snapshots()
        store = TokenStore(storage)
        store.save_dataset(dataset)
        store.store(mint_token("vision-main", dataset, refs.FIXTURE_RULES, old, T0))
        newest = store.store(
            mint_token("vision-main", dataset, refs.FIXTURE_RULES, new, T0 + timedelta(seconds=1))
        )
        newest.write_bytes(damage(newest.read_bytes()))
        before = {path.name: path.read_bytes() for path in storage.iterdir()}
        config_path, _ = write_config(tmp_path, "http://127.0.0.1:1/annotate")
        proc = spawn(["serve", "--config", str(config_path)])
        try:
            out, err = proc.communicate(timeout=15)
        finally:
            proc.kill()  # a proxy that started on an older token
        assert proc.returncode == 2, err
        assert err.startswith("drift-guard: ") and str(newest) in err
        assert "Traceback" not in err
        after = {path.name: path.read_bytes() for path in storage.iterdir()}
        assert after == {**before, "writer.lock": b""}

    def test_init_beside_a_serving_proxy_is_exit_2_and_writes_nothing(self, tmp_path, capsys):
        # init's `listen` points where nothing listens, so it would bootstrap
        # the storage that the running proxy owns
        storage = tmp_path / "storage"
        manifest, other = tmp_path / "mini.tsv", tmp_path / "other.tsv"
        manifest.write_text("http://images.test/a.jpg\tcat\t\n", encoding="utf-8")
        other.write_text("http://images.test/b.jpg\tdog\t\n", encoding="utf-8")
        with SimulatorServer(parse_script(DRIFT_SCRIPT, seed=4)) as sim:
            configs = []
            for name in ("serve", "init"):
                (tmp_path / name).mkdir()
                configs.append(write_config(tmp_path / name, sim.endpoint, storage_path=storage))
            (serve_config, listen), (init_config, _) = configs
            assert main(["init", "--manifest", str(manifest), "--config", str(serve_config)]) == 0
            before = {path.name: path.read_bytes() for path in storage.iterdir()}
            proc = spawn(["serve", "--config", str(serve_config)])
            try:
                wait_http(f"http://{listen}/token")
                capsys.readouterr()
                code = main(["init", "--manifest", str(other), "--config", str(init_config)])
            finally:
                proc.send_signal(signal.SIGINT)
                out, err = proc.communicate(timeout=15)
        assert proc.returncode == 0, err
        assert code == 2
        message = f"drift-guard: storage directory {storage} is held by another writer\n"
        assert capsys.readouterr().err == message
        after = {path.name: path.read_bytes() for path in storage.iterdir()}
        assert {name: after[name] for name in before} == before
        assert set(after) - set(before) <= {"writer.lock"}


class TestSimulate:
    def fetch_corpus(self, port):
        base = f"http://127.0.0.1:{port}"
        wait_http(f"{base}/epoch")
        blobs = []
        for epoch in (0, 1):
            for ref in ("http://images.test/a.jpg", "http://images.test/b.jpg",
                        "http://images.test/c.jpg"):
                reply = requests.post(
                    f"{base}/annotate", json={"url": ref, "maxResults": 10}, timeout=5
                )
                blobs.append(reply.content)
            requests.post(f"{base}/advance", timeout=5)
        return b"".join(blobs)

    def test_same_seed_twice_identical_corpus_bytes(self, tmp_path):
        script_path = tmp_path / "drift.script"
        script_path.write_text(DRIFT_SCRIPT, encoding="utf-8")
        digests = []
        for _ in range(2):
            port = free_port()
            proc = spawn(
                ["simulate", "--script", str(script_path), "--seed", "9", "--port", str(port)]
            )
            try:
                digests.append(self.fetch_corpus(port))
            finally:
                proc.send_signal(signal.SIGINT)
                _, err = proc.communicate(timeout=15)
            assert proc.returncode == 0, err
        assert digests[0] == digests[1]

    def test_port_in_use_exit_4(self, tmp_path):
        script_path = tmp_path / "drift.script"
        script_path.write_text(DRIFT_SCRIPT, encoding="utf-8")
        with socket.create_server(("127.0.0.1", 0)) as blocker:
            port = blocker.getsockname()[1]
            proc = spawn(["simulate", "--script", str(script_path), "--port", str(port)])
            out, err = proc.communicate(timeout=15)
        assert proc.returncode == 4, err
        assert f"port {port} is already in use" in err
        assert out == ""

    def test_bad_script_exit_2(self, tmp_path):
        script_path = tmp_path / "bad.script"
        script_path.write_text("add before header 0.5\n", encoding="utf-8")
        proc = spawn(["simulate", "--script", str(script_path), "--seed", "1", "--port", "1"])
        proc.communicate(timeout=15)
        assert proc.returncode == 2
