import threading

import pytest

from driftguard.config import (
    ConfigError,
    ManifestError,
    load_config,
    load_rules_file,
    parse_manifest,
    resolve_config_path,
    rules_from_flat,
)

CONFIG_TEXT = """\
# guard proxy settings
listen=127.0.0.1:8080
upstream_url=http://127.0.0.1:9100/annotate
service_id=vision-main
storage_path=/tmp/drift-guard-test
warning_callback_url=http://127.0.0.1:9200/callback
schedule_interval_secs=691200
violation_trigger_z=3

rules.max_labels=10
rules.min_confidence=0.5
rules.max_delta_labels=5
rules.max_delta_confidence=0.01
rules.expected_labels=fauna, organism
rules.severity.label_delta=warning
"""


class TestConfig:
    def test_full_config(self, tmp_path):
        path = tmp_path / "guard.conf"
        path.write_text(CONFIG_TEXT, encoding="utf-8")
        config = load_config(path)
        assert config.listen_host == "127.0.0.1"
        assert config.listen_port == 8080
        assert config.schedule_interval_secs == 691200
        assert config.violation_trigger_z == 3
        assert config.rules.min_confidence == 0.5
        assert config.rules.expected_labels_global == {"fauna", "organism"}
        assert config.rules.severity["label_delta"] == "warning"
        assert config.rules.severity["confidence_delta"] == "error"

    def test_defaults(self, tmp_path):
        path = tmp_path / "guard.conf"
        path.write_text(
            "listen=127.0.0.1:0\nupstream_url=http://u/\nservice_id=s\nstorage_path=/tmp/x\n",
            encoding="utf-8",
        )
        config = load_config(path)
        assert config.schedule_interval_secs == 8 * 86400
        assert config.violation_trigger_z == 3
        assert config.warning_callback_url is None
        assert config.rules.max_delta_labels == 5

    @pytest.mark.parametrize(
        "text,match",
        [
            ("listen=127.0.0.1:0\n", "missing required key"),
            ("listen 127\nupstream_url=u\nservice_id=s\nstorage_path=p\n", "key=value"),
            (
                "listen=nope\nupstream_url=u\nservice_id=s\nstorage_path=p\n",
                "host:port",
            ),
            (
                "listen=h:1\nupstream_url=u\nservice_id=s\nstorage_path=p\n"
                "violation_trigger_z=0\n",
                "violation_trigger_z",
            ),
            (
                "listen=h:1\nupstream_url=u\nservice_id=s\nstorage_path=p\n"
                "schedule_interval_secs=-1\n",
                "schedule_interval_secs",
            ),
            (
                "listen=h:1\nupstream_url=u\nservice_id=s\nstorage_path=p\n"
                "rules.max_delta_confidence=2\n",
                "max_delta_confidence",
            ),
            (
                "listen=h:1\nupstream_url=u\nservice_id=s\nstorage_path=p\n"
                "rules.max_labels=2.5\n",
                "'2.5'",
            ),
            ("listen=h:1\n = value\n", "guard.conf:2: empty key"),
            # the detection loop cannot wait NaN (it would run back to back)
            # or more than threading.TIMEOUT_MAX seconds (the wait raises)
            *(
                (
                    "listen=h:1\nupstream_url=u\nservice_id=s\nstorage_path=p\n"
                    f"schedule_interval_secs={value}\n",
                    "schedule_interval_secs must lie in",
                )
                for value in ("nan", "inf", "1e10", "0")
            ),
            ("listen=h:99999\nupstream_url=u\nservice_id=s\nstorage_path=p\n", "0..65535"),
            (
                "listen=h:1\nupstream_url=u\nservice_id=s\nstorage_path=p\n"
                "schedule_interval_secs=soon\n",
                "'soon'",
            ),
            (
                "listen=h:1\nupstream_url=u\nservice_id=s\nstorage_path=p\n"
                "violation_trigger_z=three\n",
                "'three'",
            ),
        ],
    )
    def test_bad_configs_rejected(self, tmp_path, text, match):
        path = tmp_path / "guard.conf"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=match):
            load_config(path)


def test_longest_interval_and_highest_port_are_accepted(tmp_path):
    path = tmp_path / "guard.conf"
    path.write_text(
        "listen=h:65535\nupstream_url=u\nservice_id=s\nstorage_path=p\n"
        f"schedule_interval_secs={threading.TIMEOUT_MAX!r}\n",
        encoding="utf-8",
    )
    config = load_config(path)
    assert (config.listen_port, config.schedule_interval_secs) == (65535, threading.TIMEOUT_MAX)


class TestConfigPathResolution:
    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("DRIFT_GUARD_CONFIG", "/env/path.conf")
        assert resolve_config_path("/flag/path.conf") == "/flag/path.conf"

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("DRIFT_GUARD_CONFIG", "/env/path.conf")
        assert resolve_config_path(None) == "/env/path.conf"

    def test_default(self, monkeypatch):
        monkeypatch.delenv("DRIFT_GUARD_CONFIG", raising=False)
        assert resolve_config_path(None) == "drift-guard.conf"


class TestRulesFile:
    def test_bare_keys(self, tmp_path):
        path = tmp_path / "rules.conf"
        path.write_text(
            "max_delta_labels=3\nmax_delta_confidence=0.05\nexpected_labels=fauna\n",
            encoding="utf-8",
        )
        rules = load_rules_file(path)
        assert rules.max_delta_labels == 3
        assert rules.expected_labels_global == {"fauna"}

    def test_prefixed_keys_accepted_too(self):
        rules = rules_from_flat({"rules.max_labels": "7"})
        assert rules.max_labels == 7

    def test_bad_numeric_reported_with_context(self, tmp_path):
        path = tmp_path / "rules.conf"
        path.write_text("max_labels=lots\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="rules.conf"):
            load_rules_file(path)


class TestManifest:
    def test_parse_three_and_two_field_rows(self, tmp_path):
        path = tmp_path / "benchmark.tsv"
        path.write_text(
            "http://x/1.jpg\tcat\tanimal, fauna\n"
            "http://x/2.jpg\tdog\t\n"
            "http://x/3.jpg\tcow\n",
            encoding="utf-8",
        )
        items = parse_manifest(path)
        assert len(items) == 3
        assert items[0].expected_labels == {"animal", "fauna"}
        assert items[1].expected_labels == frozenset()
        assert items[2].ground_truth == "cow"

    def test_blank_lines_and_comments_skipped(self, tmp_path):
        path = tmp_path / "benchmark.tsv"
        path.write_text("# header\n\nhttp://x/1.jpg\tcat\n", encoding="utf-8")
        assert len(parse_manifest(path)) == 1

    def test_duplicate_refs_reported_with_line_numbers(self, tmp_path):
        path = tmp_path / "benchmark.tsv"
        path.write_text(
            "http://x/1.jpg\tcat\nhttp://x/1.jpg\tdog\n", encoding="utf-8"
        )
        with pytest.raises(ManifestError) as excinfo:
            parse_manifest(path)
        assert excinfo.value.errors == [(2, "duplicate image_ref (first seen on line 1)")]

    def test_all_errors_reported_at_once(self, tmp_path):
        path = tmp_path / "benchmark.tsv"
        path.write_text("only-one-field\n\tcat\n", encoding="utf-8")
        with pytest.raises(ManifestError) as excinfo:
            parse_manifest(path)
        assert [lineno for lineno, _ in excinfo.value.errors] == [1, 2]

    def test_empty_manifest_rejected(self, tmp_path):
        path = tmp_path / "benchmark.tsv"
        path.write_text("# nothing\n", encoding="utf-8")
        with pytest.raises(ManifestError):
            parse_manifest(path)
