"""Operator-facing file formats: proxy config, threshold rules, manifests.

Config and rules files are flat key=value text. The manifest is one
benchmark item per line: image_ref TAB ground_truth TAB comma-joined
expected labels (the third field may be empty or absent).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

from .types import (
    CHECK_CATEGORIES,
    BenchmarkItem,
    ContractError,
    ThresholdRules,
    read_utf8,
)

DEFAULT_CONFIG_PATH = "drift-guard.conf"
CONFIG_ENV_VAR = "DRIFT_GUARD_CONFIG"

# Operational defaults: an eight-day probe cadence and a three-strike
# violation trigger.
DEFAULT_INTERVAL_SECS = 8 * 86400
DEFAULT_TRIGGER_Z = 3


class ConfigError(ValueError):
    pass


class ManifestError(ValueError):
    def __init__(self, path, errors):
        self.path = str(path)
        self.errors = list(errors)  # (lineno, message) pairs
        lines = "; ".join(f"line {lineno}: {message}" for lineno, message in self.errors)
        super().__init__(f"{self.path}: {lines}")


def parse_flat(path) -> dict[str, str]:
    """key=value lines; blank lines and # comments ignored."""
    values: dict[str, str] = {}
    text = read_utf8(path)
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        values[key] = value.strip()
    return values


# the rules-file keys that are numbers; ThresholdRules checks their values
_NUMBER_KEYS = (
    ("max_labels", int),
    ("min_confidence", float),
    ("max_delta_labels", int),
    ("max_delta_confidence", float),
)


def rules_from_flat(flat: dict[str, str], context: str = "rules") -> ThresholdRules:
    """Build ThresholdRules from flat keys, with or without a rules. prefix;
    a severity not named stays at its default."""
    values = {key.removeprefix("rules."): value for key, value in flat.items()}
    data = {}
    try:
        for key, kind in _NUMBER_KEYS:
            if key in values:
                data[key] = kind(values[key])
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc
    if "expected_labels" in values:
        data["expected_labels"] = [
            label.strip() for label in values["expected_labels"].split(",") if label.strip()
        ]
    severity = {c: values[f"severity.{c}"] for c in CHECK_CATEGORIES if f"severity.{c}" in values}
    if severity:
        data["severity"] = {**ThresholdRules().severity, **severity}
    try:
        return ThresholdRules.from_dict(data)
    except ContractError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def load_rules_file(path) -> ThresholdRules:
    return rules_from_flat(parse_flat(path), context=str(path))


@dataclass(frozen=True)
class ProxyConfig:
    listen: str
    upstream_url: str
    service_id: str
    storage_path: str
    warning_callback_url: str | None = None
    schedule_interval_secs: float = DEFAULT_INTERVAL_SECS
    violation_trigger_z: int = DEFAULT_TRIGGER_Z
    rules: ThresholdRules = field(default_factory=ThresholdRules)

    def __post_init__(self):
        # the detection loop waits this long; NaN fails the comparison too
        if not 0 < self.schedule_interval_secs <= threading.TIMEOUT_MAX:
            raise ConfigError(
                f"schedule_interval_secs must lie in (0, {threading.TIMEOUT_MAX:.0f}],"
                f" got {self.schedule_interval_secs!r}"
            )
        if self.violation_trigger_z < 1:
            raise ConfigError("violation_trigger_z must be at least 1")
        host, _, port = self.listen.rpartition(":")
        if not host or not port.isdecimal() or int(port) > 65535:
            raise ConfigError(f"listen must be host:port with a port in 0..65535, got {self.listen!r}")

    @property
    def listen_host(self) -> str:
        return self.listen.rpartition(":")[0]

    @property
    def listen_port(self) -> int:
        return int(self.listen.rpartition(":")[2])


def load_config(path) -> ProxyConfig:
    flat = parse_flat(path)
    for required in ("listen", "upstream_url", "service_id", "storage_path"):
        if required not in flat:
            raise ConfigError(f"{path}: missing required key {required!r}")
    rules_flat = {k: v for k, v in flat.items() if k.startswith("rules.")}
    try:
        interval = float(flat.get("schedule_interval_secs", DEFAULT_INTERVAL_SECS))
        trigger_z = int(flat.get("violation_trigger_z", DEFAULT_TRIGGER_Z))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return ProxyConfig(
        listen=flat["listen"],
        upstream_url=flat["upstream_url"],
        service_id=flat["service_id"],
        storage_path=flat["storage_path"],
        warning_callback_url=flat.get("warning_callback_url") or None,
        schedule_interval_secs=interval,
        violation_trigger_z=trigger_z,
        rules=rules_from_flat(rules_flat, context=str(path)),
    )


def resolve_config_path(flag_value: str | None) -> str:
    """--config beats DRIFT_GUARD_CONFIG beats the default file name."""
    if flag_value:
        return flag_value
    return os.environ.get(CONFIG_ENV_VAR) or DEFAULT_CONFIG_PATH


def parse_manifest(path) -> list[BenchmarkItem]:
    """Parse a benchmark manifest, reporting every bad line at once."""
    items: list[BenchmarkItem] = []
    errors: list[tuple[int, str]] = []
    seen: dict[str, int] = {}
    text = read_utf8(path)
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) not in (2, 3):
            errors.append((lineno, f"expected 2 or 3 tab-separated fields, got {len(fields)}"))
            continue
        image_ref = fields[0].strip()
        ground_truth = fields[1].strip()
        expected_raw = fields[2] if len(fields) == 3 else ""
        if not image_ref:
            errors.append((lineno, "empty image_ref"))
            continue
        if image_ref in seen:
            errors.append((lineno, f"duplicate image_ref (first seen on line {seen[image_ref]})"))
            continue
        seen[image_ref] = lineno
        expected = frozenset(
            label.strip() for label in expected_raw.split(",") if label.strip()
        )
        items.append(
            BenchmarkItem(
                image_ref=image_ref, ground_truth=ground_truth, expected_labels=expected
            )
        )
    if errors:
        raise ManifestError(path, errors)
    if not items:
        raise ManifestError(path, [(0, "manifest contains no items")])
    return items
