"""Behaviour-token lifecycle: minting, weak-ETag encoding, request
validation, and persistent history, kept with the benchmark dataset and
the logs in one storage directory.

A token freezes the proxy's state at one instant: the rules in force, the
benchmark identity, and the full response snapshot. Requests carry only
the opaque token id inside a weak ETag; the heavy state stays server-side.
Validation compares a requested token against the live one and reduces any
difference to one of ten coded errors, checked in ascending code order so
robustness failures always win over benchmark failures.
"""

from __future__ import annotations

import fcntl
import logging
import os
import re
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .diffing import check_alignment, collect_violations
from .types import (
    ERROR_TYPES,
    BenchmarkDataset,
    ContractError,
    LabelledResponse,
    ThresholdRules,
    canonical_json,
    http_date,
    iso_ts,
    parse_iso_ts,
    parse_json,
    sha256_hex,
)

log = logging.getLogger(__name__)

TOKEN_ID_LENGTH = 16

# Earlier versions kept one dataset.json. It is read, never written: a loader,
# not a migration, which would write from the constructor without the writer lock.
LEGACY_DATASET_FILE = "dataset.json"
AUDIT_FILE = "audit.log"
DETECTIONS_FILE = "detections.log"
LOCK_FILE = "writer.lock"


class ETagParseError(ValueError):
    """Header is not a well-formed weak ETag."""


@dataclass(frozen=True)
class ValidationError:
    """A coded precondition failure. This is a domain result, not a fault."""

    error_code: int
    error_data: dict

    @property
    def error_type(self) -> str:
        return ERROR_TYPES[self.error_code]

    def to_wire(self) -> dict:
        return {
            "error_code": self.error_code,
            "error_type": self.error_type,
            "error_data": self.error_data,
        }


@dataclass(frozen=True)
class BehaviourToken:
    token_id: str
    service_id: str
    dataset_fingerprint: str
    created_at: datetime
    rules: ThresholdRules
    snapshot: tuple[LabelledResponse, ...]
    success: bool

    def __post_init__(self):
        object.__setattr__(self, "snapshot", tuple(self.snapshot))
        if self.success != all(r.success for r in self.snapshot):
            raise ContractError("token success flag inconsistent with its snapshot")

    def _header(self) -> dict:
        return {
            "token_id": self.token_id,
            "service_id": self.service_id,
            "dataset_fingerprint": self.dataset_fingerprint,
            "created_at": iso_ts(self.created_at),
            "rules": self.rules.to_dict(),
        }

    def metadata(self) -> dict:
        """Client-safe summary: never includes the snapshot itself."""
        return {**self._header(), "success": self.success, "snapshot_size": len(self.snapshot)}

    def to_dict(self) -> dict:
        return {
            **self._header(),
            "snapshot": [r.to_dict() for r in self.snapshot],
            "success": self.success,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BehaviourToken":
        return cls(
            token_id=data["token_id"],
            service_id=data["service_id"],
            dataset_fingerprint=data["dataset_fingerprint"],
            created_at=parse_iso_ts(data["created_at"]),
            rules=ThresholdRules.from_dict(data["rules"]),
            snapshot=tuple(LabelledResponse.from_dict(r) for r in data["snapshot"]),
            success=data["success"],
        )


def snapshot_digest(snapshot) -> str:
    return sha256_hex(canonical_json([r.to_dict() for r in snapshot]))


def compute_token_id(
    service_id: str,
    dataset_fingerprint: str,
    created_at: datetime,
    rules: ThresholdRules,
    snapshot,
) -> str:
    """Deterministic id: SHA-256 over the identifying fields joined by LF,
    truncated to the first 16 hex chars."""
    material = "\n".join(
        [
            service_id,
            dataset_fingerprint,
            iso_ts(created_at),
            rules.canonical_text(),
            snapshot_digest(snapshot),
        ]
    )
    return sha256_hex(material)[:TOKEN_ID_LENGTH]


def mint_token(
    service_id: str,
    dataset: BenchmarkDataset,
    rules: ThresholdRules,
    snapshot,
    now: datetime,
) -> BehaviourToken:
    snapshot = tuple(snapshot)
    check_alignment(snapshot, dataset)
    created_at = now.replace(microsecond=0)
    return BehaviourToken(
        token_id=compute_token_id(
            service_id, dataset.fingerprint, created_at, rules, snapshot
        ),
        service_id=service_id,
        dataset_fingerprint=dataset.fingerprint,
        created_at=created_at,
        rules=rules,
        snapshot=snapshot,
        success=all(r.success for r in snapshot),
    )


def etag_of(token) -> str:
    token_id = token if isinstance(token, str) else token.token_id
    return f'W/"{token_id}"'


def validators(token: BehaviourToken) -> dict:
    """The ETag and Last-Modified response headers naming `token`."""
    return {"ETag": etag_of(token), "Last-Modified": http_date(token.created_at)}


def parse_etag(header_value: str) -> str:
    """Invert etag_of. Strong ETags are rejected: only semantic equivalence
    is ever promised, so only weak validators are meaningful here."""
    value = header_value.strip()
    if not value.startswith('W/"'):
        raise ETagParseError(f"expected a weak ETag (W/\"...\"), got {header_value!r}")
    if not value.endswith('"') or len(value) < 5:
        raise ETagParseError(f"malformed weak ETag {header_value!r}")
    token_id = value[3:-1]
    if not token_id or '"' in token_id:
        raise ETagParseError(f"malformed weak ETag {header_value!r}")
    return token_id


def no_key_error() -> ValidationError:
    return ValidationError(
        0,
        {
            "source_key": None,
            "reason": "The proxy is still initialising its first behaviour token.",
        },
    )


def unknown_token_error(token_ref: str, current: BehaviourToken) -> ValidationError:
    """An id (or date) that matches nothing we ever minted: the state it
    encodes is not the benchmark state served here, so it reads as a
    dataset mismatch."""
    return ValidationError(
        2,
        {
            "source_key": None,
            "violating_key": current.metadata(),
            "token_provided": token_ref,
            "dataset_fingerprint_expected": current.dataset_fingerprint,
            "reason": f"Behaviour token {token_ref!r} is not known to this proxy.",
        },
    )


def _keys(requested: BehaviourToken, current: BehaviourToken) -> dict:
    return {"source_key": requested.metadata(), "violating_key": current.metadata()}


# One row per robustness code, checked in code order: the code, the reason,
# and the token fields both sides must agree on. The payload reports each
# field of the failing row as `<name>_expected` (current token) and
# `<name>_provided` (requested token).
_ROBUSTNESS_CHECKS = (
    (1, "Token was issued for a different service.", ("service",)),
    (
        2,
        "Token encodes a different benchmark dataset.",
        ("dataset_fingerprint", "expected_labels_rule"),
    ),
    (3, "Token was minted from an unsuccessful benchmark snapshot.", ("success",)),
    (
        4,
        "Confidence rules differ between the tokens.",
        ("min_confidence", "max_delta_confidence"),
    ),
    (5, "Label rules differ between the tokens.", ("max_labels", "max_delta_labels")),
    (6, "Tokens hold different numbers of benchmark responses.", ("response_length",)),
)
# Fields judged on the requested token alone, against a fixed value rather
# than the current token's: code 3 wants a fully successful snapshot, so it
# reports only `success_provided`.
_JUDGED_ALONE = {"success": True}


def _robustness_fields(token: BehaviourToken) -> dict:
    rules = token.rules
    return {
        "service": token.service_id,
        "dataset_fingerprint": token.dataset_fingerprint,
        "expected_labels_rule": sorted(rules.expected_labels_global),
        "success": token.success,
        "min_confidence": rules.min_confidence,
        "max_delta_confidence": rules.max_delta_confidence,
        "max_labels": rules.max_labels,
        "max_delta_labels": rules.max_delta_labels,
        "response_length": len(token.snapshot),
    }


def _robustness_error(requested, current) -> ValidationError | None:
    provided = _robustness_fields(requested)
    expected = {**_robustness_fields(current), **_JUDGED_ALONE}
    for code, reason, names in _ROBUSTNESS_CHECKS:
        if all(provided[name] == expected[name] for name in names):
            continue
        error_data = _keys(requested, current)
        for name in names:
            if name not in _JUDGED_ALONE:
                error_data[f"{name}_expected"] = expected[name]
            error_data[f"{name}_provided"] = provided[name]
        error_data["reason"] = reason
        return ValidationError(code, error_data)
    return None


def validate(
    requested: BehaviourToken,
    current: BehaviourToken | None,
    dataset: BenchmarkDataset,
) -> ValidationError | None:
    """Compare a requested token against the live one.

    Returns None when the tokens are semantically equivalent within the
    live rules. Robustness checks (codes 0-6) run first in code order;
    then every aligned snapshot pair goes through the benchmark checks. The
    first violation in (code, dataset position) order becomes the returned
    error and any remaining ones ride along in additional_errors.

    A requested token with the current token's id is the current state by
    definition, so the benchmark checks are skipped: label and confidence
    deltas of a snapshot against itself are zero anyway, and the
    expected-labels check must not lock clients out of a state the
    operator was already notified about when the token rotated.
    """
    if current is None:
        return no_key_error()

    robustness = _robustness_error(requested, current)
    if robustness is not None:
        return robustness

    if requested.token_id == current.token_id:
        return None

    violations = collect_violations(
        requested.snapshot, current.snapshot, dataset, current.rules
    )
    if not violations:
        return None

    primary, rest = violations[0], violations[1:]
    error_data = {
        **_keys(requested, current),
        "source_response": requested.snapshot[primary.position].to_dict(),
        "violating_response": current.snapshot[primary.position].to_dict(),
        **primary.payload(),
    }
    if rest:
        error_data["additional_errors"] = [
            ValidationError(v.error_code, v.payload()).to_wire() for v in rest
        ]
    return ValidationError(primary.error_code, error_data)


@dataclass(eq=False)
class _Entry:
    """One token file in the history index. `token` is None until the
    file's body has been read."""

    created_at: datetime
    token_id: str
    path: Path
    token: BehaviourToken | None = None

    def parse(self, data) -> BehaviourToken:
        """The token in `data`, which must be the one the file name names."""
        token = BehaviourToken.from_dict(data)
        if token.token_id != self.token_id or token.created_at != self.created_at:
            raise ValueError(f"holds token {token.token_id} created {iso_ts(token.created_at)}")
        return token


# `<unix seconds>-<token_id>.token` as path_for writes it; 11 digits (to 5138) fit datetime
_FILE_NAME = re.compile(rf"(\d{{1,11}})-([0-9a-f]{{{TOKEN_ID_LENGTH}}})\.token")


class TokenStore:
    """The storage directory: the append-only token history, one file per
    token, the benchmark datasets, the audit and detection logs, and the
    lock file of its one writer (see lock). No other module touches a file
    in it.

    Token file names are `<created_at unix seconds>-<token_id>.token`, and
    a token names its dataset file, `dataset-<fingerprint>.json`. Both hold
    the canonical serialization (sorted keys, UTF-8, LF) and are replaced
    atomically and durably (see _write). A dataset is written before any
    token that names it, so a token's rename is the one commit point. The
    newest token is the current one. Reload order for same-second mints
    falls back to file mtime, which matches write order.

    A reload indexes the history from the file names and reads only the
    current token's body and dataset; a predecessor's body is read on
    first use, once, and reads as absent, with a warning, when it cannot
    be parsed or disagrees with its file name. A `.token` file named
    otherwise, or a newest token that fails so, raises ValueError: an older
    token never stands in for the newest one.
    """

    def __init__(self, directory):
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._log_lock = threading.Lock()
        self._history: list[_Entry] = []
        self._by_id: dict[str, _Entry] = {}
        self._datasets: dict[str, BenchmarkDataset] = {}
        self._load()

    def _load(self):
        history = []
        for path in self._dir.glob("*.token"):
            match = _FILE_NAME.fullmatch(path.name)
            if match is None:
                raise ValueError(f"{path} is not named <unix seconds>-<token id>.token")
            created_at = datetime.fromtimestamp(int(match[1]), timezone.utc)
            history.append(_Entry(created_at, match[2], path))
        history.sort(key=lambda e: (e.created_at, e.path.stat().st_mtime_ns, e.path.name))
        if history:  # the newest file is the current token, or nothing starts
            current = history[-1].token = self._read(history[-1].path, history[-1].parse, strict=True)
            fingerprint = current.dataset_fingerprint
            expected = self._dataset_path(fingerprint)
            path = expected if expected.exists() else self._dir / LEGACY_DATASET_FILE
            dataset = self._read(path, BenchmarkDataset.from_dict, "dataset") if path.exists() else None
            if dataset is not None and dataset.fingerprint == fingerprint:
                self._datasets[fingerprint] = dataset
            elif dataset is not None or not path.exists():  # _read reported an unreadable one
                log.warning("no file holds dataset %s of the current token: expected %s", fingerprint, expected)
        self._set_history(history)

    def _set_history(self, history: list[_Entry]):
        self._history = history
        self._by_id = {entry.token_id: entry for entry in history}

    @staticmethod
    def _read(path: Path, parse, kind: str = "token", strict: bool = False):
        """parse(the JSON in `path`). A file that cannot be read, or that
        parse rejects, raises a ValueError naming it when `strict`, and
        otherwise reads as None with a warning naming it."""
        try:
            return parse(parse_json(path.read_bytes()))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            if strict:
                raise ValueError(f"unreadable {kind} file {path}: {exc}") from exc
            log.warning("skipping unreadable %s file %s: %s", kind, path, exc)
            return None

    def _write(self, path: Path, obj):
        """Replace `path` with canonical_json(obj) + LF: write `<name>.tmp`
        beside it, fsync it, rename it over `path`, then fsync the
        directory, which POSIX needs before a rename survives power loss. A
        failed write leaves the previous file whole and at most a stray
        `.tmp`, which nothing reads and the next write replaces."""
        tmp = path.with_name(path.name + ".tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            handle.write(canonical_json(obj) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        directory = os.open(self._dir, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)

    @staticmethod
    @contextmanager
    def lock(directory):
        """Hold `directory` as its one writer: an exclusive flock on its lock
        file, released on exit or when the process ends. Taken before a
        store opens the directory, so what it reads is what the last
        writer left. A second holder, in this process or another, gets a
        ValueError naming the directory."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        with (directory / LOCK_FILE).open("a") as handle:
            try:
                fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                message = f"storage directory {directory} is held by another writer"
                raise ValueError(message) from None
            yield

    def append(self, name: str, record: dict):
        """Append `record` as one canonical JSON line to the log `name`."""
        with self._log_lock, (self._dir / name).open("a", encoding="utf-8") as handle:
            handle.write(canonical_json(record) + "\n")

    def _dataset_path(self, fingerprint: str) -> Path:
        return self._dir / f"dataset-{fingerprint}.json"

    def save_dataset(self, dataset: BenchmarkDataset):
        """Store `dataset` under its fingerprint. It becomes the baseline
        once a token naming it is stored."""
        with self._lock:
            self._write(self._dataset_path(dataset.fingerprint), dataset.to_dict())
            self._datasets[dataset.fingerprint] = dataset

    def baseline(self):
        """(current token, the dataset it names), or None when the proxy
        has no usable baseline: no token yet, or its dataset unreadable."""
        current = self.current
        dataset = current and self._datasets.get(current.dataset_fingerprint)
        return None if dataset is None else (current, dataset)

    def _token(self, entry: _Entry) -> BehaviourToken | None:
        """The entry's token, read on first use under the lock; None when it
        cannot be read, in which case the entry leaves the index."""
        token = entry.token
        if token is not None:
            return token
        with self._lock:
            live = self._by_id.get(entry.token_id)
            if live is not entry:
                # dropped by an earlier reader, or stored again since
                return None if live is None else live.token
            if entry.token is None:  # no other reader got here first
                entry.token = self._read(entry.path, entry.parse)
                if entry.token is None:
                    self._set_history([e for e in self._history if e is not entry])
            return entry.token

    def path_for(self, token: BehaviourToken) -> Path:
        unix = int(token.created_at.timestamp())
        return self._dir / f"{unix}-{token.token_id}.token"

    def store(self, token: BehaviourToken) -> Path:
        with self._lock:
            path = self.path_for(token)
            self._write(path, token.to_dict())
            history = [e for e in self._history if e.token_id != token.token_id]
            history.append(_Entry(token.created_at, token.token_id, path, token))
            self._set_history(history)
        return path

    @property
    def current(self) -> BehaviourToken | None:
        history = self._history
        return history[-1].token if history else None

    def history(self) -> list[BehaviourToken]:
        """Every readable token, oldest first; reads each body not read yet."""
        tokens = (self._token(entry) for entry in self._history)
        return [token for token in tokens if token is not None]

    def find(self, token_id: str) -> BehaviourToken | None:
        entry = self._by_id.get(token_id)
        return None if entry is None else self._token(entry)

    def newest_at_or_before(
        self, moment: datetime, upto: BehaviourToken | None = None
    ) -> BehaviourToken | None:
        """The oldest token of the newest second at or before `moment` that
        holds one: a one-second date cannot tell same-second mints apart,
        and the oldest fails closed. Tokens stored after `upto` (the
        current token a request read on entry) are out of reach. A token
        whose file turns out unreadable is skipped as if it had never been
        stored."""
        while True:
            history = self._history
            position = len(history) - 1
            if upto is not None:
                while position >= 0 and history[position].token_id != upto.token_id:
                    position -= 1
            while position >= 0 and history[position].created_at > moment:
                position -= 1
            if position < 0:
                return None
            second = history[position].created_at
            while position > 0 and history[position - 1].created_at == second:
                position -= 1
            token = self._token(history[position])
            if token is not None:
                return token
