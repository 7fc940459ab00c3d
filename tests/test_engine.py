"""The engine without HTTP: the per-token verdict cache (a stale token's
412 is computed once per current token, and serving it from the cache
changes nothing a client or the z counter can see), the storage files, and
the states a crash leaves them in."""

import errno
import json
import logging
import os
import pathlib
import stat
import tempfile
from dataclasses import replace
from datetime import timedelta

import hypothesis.strategies as st
import pytest
from hypothesis import given

from driftguard.config import ProxyConfig
from driftguard.engine import GuardEngine
from driftguard.httpbase import encode_json
from driftguard.scheduler import OUTCOME_ROTATED
from driftguard.token import LEGACY_DATASET_FILE, BehaviourToken, mint_token, validate
from driftguard.types import (
    BenchmarkDataset,
    LabelledResponse,
    canonical_json,
    iso_ts,
    utc_now_second,
)

import reference_fixtures as refs
from gen_strategies import T0, T1

DATASET = BenchmarkDataset.create("fixtures", refs.FIXTURE_ITEMS)
OLD, NEW = refs.fixture_snapshots()
URL = "http://images.test/a.jpg"


class CannedUpstream:
    """Answers every labelling call with an empty successful response, and
    each benchmark snapshot with the next of `snapshots`, or, when none is
    left, with an empty successful response per item."""

    def __init__(self):
        self.snapshots = []

    def annotate(self, request):
        return LabelledResponse(request.url, (), utc_now_second())

    def snapshot_benchmark(self, dataset, rules):
        if self.snapshots:
            return tuple(self.snapshots.pop(0))
        return tuple(LabelledResponse(item.image_ref, (), utc_now_second()) for item in dataset.items)


def make_engine(storage, z=1000, now_fn=utc_now_second):
    config = ProxyConfig(
        listen="127.0.0.1:0",
        upstream_url="http://127.0.0.1:1/annotate",
        service_id="vision",
        storage_path=str(storage),
        violation_trigger_z=z,
        rules=refs.FIXTURE_RULES,
    )
    return GuardEngine(config, client=CannedUpstream(), now_fn=now_fn)


def install(engine, *tokens):
    """Give the engine a baseline: the fixture dataset and `tokens` as its
    history, the last one current."""
    engine.store.save_dataset(DATASET)
    for token in tokens:
        engine.store.store(token)


def dataset_file(storage, dataset=DATASET):
    return storage / f"dataset-{dataset.fingerprint}.json"


def failed(response):
    return LabelledResponse(response.image_ref, (), response.captured_at, success=False)


def as_body(payload) -> bytes:
    return payload if isinstance(payload, bytes) else encode_json(payload)


# The change that makes validate() return each robustness code, applied to
# the fields of a token that otherwise matches the current one.
ROBUSTNESS_CHANGES = {
    1: lambda fields: {**fields, "service_id": "other"},
    2: lambda fields: {
        **fields,
        "dataset_fingerprint": BenchmarkDataset.create("other", [refs.CAR_ITEM]).fingerprint,
    },
    3: lambda fields: {**fields, "snapshot": (failed(fields["snapshot"][0]), *fields["snapshot"][1:])},
    4: lambda fields: {**fields, "rules": replace(fields["rules"], min_confidence=0.2)},
    5: lambda fields: {**fields, "rules": replace(fields["rules"], max_labels=3)},
    6: lambda fields: {**fields, "snapshot": fields["snapshot"][:2]},
}
# Benchmark codes: the new snapshot already misses the iguana's expected
# label (9); the sheep's old response adds 8 and the car's old one 7.
OLD_POSITIONS = {7: 0, 8: 1}


@st.composite
def stale_cases(draw):
    """(code, requested token or None, current token): the requested token
    fails with exactly `code` against the current one, with changes of
    lower precedence mixed in. None stands for a request the proxy gets
    before it has a baseline (code 0)."""
    code = draw(st.integers(min_value=0, max_value=9))
    current = mint_token("vision", DATASET, refs.FIXTURE_RULES, NEW, T1)
    if code == 0:
        return code, None, current
    if code == 3 and draw(st.booleans()):
        # the current token itself, minted from a partly failed snapshot
        unsuccessful = mint_token(
            "vision", DATASET, refs.FIXTURE_RULES, [failed(NEW[0]), *NEW[1:]], T1
        )
        return code, unsuccessful, unsuccessful
    snapshot = list(NEW)
    for c, position in OLD_POSITIONS.items():
        if c == code or (c > code and draw(st.booleans())):
            snapshot[position] = OLD[position]
    fields = {
        "token_id": "0123456789abcdef",
        "service_id": "vision",
        "dataset_fingerprint": DATASET.fingerprint,
        "created_at": T0,
        "rules": refs.FIXTURE_RULES,
        "snapshot": tuple(snapshot),
    }
    changes = [c for c in ROBUSTNESS_CHANGES if c == code or (c > code and draw(st.booleans()))]
    for c in changes:
        fields = ROBUSTNESS_CHANGES[c](fields)
    requested = BehaviourToken(**fields, success=all(r.success for r in fields["snapshot"]))
    return code, requested, current


@given(stale_cases())
def test_cached_and_uncached_412_bodies_are_byte_identical(case):
    code, requested, current = case
    with tempfile.TemporaryDirectory() as storage:
        engine = make_engine(storage)
        if requested is None:
            expected = encode_json(validate(current, None, DATASET).to_wire())
            token_ref = ("etag", current.token_id)
        else:
            install(engine, *{requested.token_id: requested, current.token_id: current}.values())
            expected = encode_json(validate(requested, current, DATASET).to_wire())
            token_ref = ("etag", requested.token_id)
        first = engine.annotate(URL, None, token_ref)
        second = engine.annotate(URL, None, token_ref)
    assert first[0] == second[0] == 412
    assert as_body(first[2]) == as_body(second[2]) == expected
    assert json.loads(expected)["error_code"] == code


class TestCounting:
    def test_current_token_code_3_counts_on_every_hit(self, tmp_path):
        engine = make_engine(tmp_path, z=2)
        current = mint_token("vision", DATASET, refs.FIXTURE_RULES, [failed(NEW[0]), *NEW[1:]], T1)
        install(engine, current)
        fired = []
        engine.on_violation_threshold = lambda: fired.append(True)
        for _ in range(2):
            status, _, body = engine.annotate(URL, None, ("etag", current.token_id))
            assert (status, json.loads(body)["error_code"]) == (412, 3)
        assert engine.violations_since_run() == 2 and fired == [True]

    def test_predecessor_412_does_not_count_on_a_hit(self, tmp_path):
        engine = make_engine(tmp_path, z=1)
        predecessor = mint_token("vision", DATASET, refs.FIXTURE_RULES, OLD, T0)
        install(engine, predecessor, mint_token("vision", DATASET, refs.FIXTURE_RULES, NEW, T1))
        fired = []
        engine.on_violation_threshold = lambda: fired.append(True)
        for token_ref in [("etag", predecessor.token_id)] * 2 + [("date", T0)]:
            assert engine.annotate(URL, None, token_ref)[0] == 412
        assert engine.violations_since_run() == 0 and fired == []

    def test_rotation_serves_no_verdict_of_the_old_current_token(self, tmp_path):
        engine = make_engine(tmp_path)
        old = mint_token("vision", DATASET, refs.FIXTURE_RULES, OLD, T0)
        install(engine, old)
        assert engine.annotate(URL, None, ("etag", old.token_id))[0] == 200
        new = mint_token("vision", DATASET, refs.FIXTURE_RULES, NEW, T1)
        engine.store.store(new)
        status, _, body = engine.annotate(URL, None, ("etag", old.token_id))
        assert status == 412
        assert body == encode_json(validate(old, new, DATASET).to_wire())
        assert engine.annotate(URL, None, ("etag", new.token_id))[0] == 200
        assert engine.violations_since_run() == 0


class TestRestart:
    """A restarted engine reads predecessor tokens on first use; a client
    cannot tell that from the engine that minted them."""

    def history(self, storage):
        engine = make_engine(storage)
        old = mint_token("vision", DATASET, refs.FIXTURE_RULES, OLD, T0)
        current = mint_token("vision", DATASET, refs.FIXTURE_RULES, NEW, T1)
        install(engine, old, current)
        return engine, old, current

    def test_predecessor_412_bodies_are_byte_identical_after_restart(self, tmp_path):
        engine, old, _ = self.history(tmp_path)
        token_refs = [("etag", old.token_id), ("date", T0), ("date", T0 + timedelta(hours=1))]
        before = [engine.annotate(URL, None, token_ref) for token_ref in token_refs]
        restarted = make_engine(tmp_path)
        after = [restarted.annotate(URL, None, token_ref) for token_ref in token_refs]
        assert [status for status, _, _ in before + after] == [412] * 6
        assert [as_body(body) for *_, body in after] == [as_body(body) for *_, body in before]
        assert json.loads(as_body(after[0][2]))["error_code"] == 7

    @pytest.mark.parametrize("damage", ["corrupt", "rename"])
    def test_predecessor_damaged_after_restart_is_code_2(self, tmp_path, caplog, damage):
        caplog.set_level(logging.WARNING, logger="driftguard.token")
        _, old, _ = self.history(tmp_path)
        restarted = make_engine(tmp_path)
        path = restarted.store.path_for(old)
        if damage == "corrupt":
            path.write_bytes(path.read_bytes()[:-40])
        else:
            path.rename(path.with_name(f"{int(T0.timestamp())}-{'f' * 16}.token"))
        for token_ref in [("etag", old.token_id), ("date", T0)] * 2:
            status, _, body = restarted.annotate(URL, None, token_ref)
            assert (status, json.loads(as_body(body))["error_code"]) == (412, 2)
        warnings = [r.getMessage() for r in caplog.records if r.name == "driftguard.token"]
        assert len(warnings) == 1 and str(path) in warnings[0]


class TestStorageFiles:
    def test_token_and_dataset_files_are_canonical_json(self, tmp_path):
        engine = make_engine(tmp_path)
        token = mint_token("vision", DATASET, refs.FIXTURE_RULES, NEW, T1)
        engine.store.save_dataset(DATASET)
        path = engine.store.store(token)
        assert path.read_text(encoding="utf-8") == canonical_json(token.to_dict()) + "\n"
        dataset_text = dataset_file(tmp_path).read_text(encoding="utf-8")
        assert dataset_text == canonical_json(DATASET.to_dict()) + "\n"

    def test_indented_storage_directory_still_loads(self, tmp_path):
        # token files and dataset.json as earlier versions wrote them
        old = mint_token("vision", DATASET, refs.FIXTURE_RULES, OLD, T0)
        current = mint_token("vision", DATASET, refs.FIXTURE_RULES, NEW, T1)
        indented = lambda obj: json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2) + "\n"
        for token in (old, current):
            name = f"{int(token.created_at.timestamp())}-{token.token_id}.token"
            (tmp_path / name).write_text(indented(token.to_dict()), encoding="utf-8")
        (tmp_path / LEGACY_DATASET_FILE).write_text(indented(DATASET.to_dict()), encoding="utf-8")
        engine = make_engine(tmp_path)
        assert engine.initialized
        assert engine.store.baseline()[1] == DATASET
        assert [t.token_id for t in engine.store.history()] == [old.token_id, current.token_id]
        assert engine.store.current == current
        assert engine.annotate(URL, None, ("etag", current.token_id))[0] == 200
        assert engine.annotate(URL, None, ("etag", old.token_id))[0] == 412
        # read in place, never migrated
        assert [p.name for p in tmp_path.glob("dataset*")] == [LEGACY_DATASET_FILE]

    def test_wrong_typed_dataset_file_is_skipped_with_a_warning(self, tmp_path, caplog):
        current = mint_token("vision", DATASET, refs.FIXTURE_RULES, NEW, T1)
        install(make_engine(tmp_path), current)
        path = dataset_file(tmp_path)
        path.write_text('{"dataset_id": "x", "items": 5, "fingerprint": "y"}\n', encoding="utf-8")
        caplog.set_level(logging.WARNING, logger="driftguard.token")
        engine = make_engine(tmp_path)
        assert not engine.initialized
        status, _, body = engine.annotate(URL, None, ("etag", current.token_id))
        assert (status, body["error_code"]) == (412, 0)
        warnings = [r.getMessage() for r in caplog.records if r.name == "driftguard.token"]
        assert len(warnings) == 1 and str(path) in warnings[0]

    def test_dataset_of_another_token_is_not_initialized_after_restart(self, tmp_path):
        current = mint_token("vision", DATASET, refs.FIXTURE_RULES, NEW, T1)
        install(make_engine(tmp_path), current)
        dataset_file(tmp_path).unlink()
        other = BenchmarkDataset.create("other", refs.FIXTURE_ITEMS[:2])
        (tmp_path / LEGACY_DATASET_FILE).write_text(canonical_json(other.to_dict()) + "\n", encoding="utf-8")
        restarted = make_engine(tmp_path)
        assert restarted.store.current == current
        assert not restarted.initialized
        assert restarted.run_detection("manual").reason == "not_initialized"

    def test_torn_writes_leave_the_previous_files_whole(self, tmp_path, monkeypatch, caplog):
        clock = [T0]
        engine = make_engine(tmp_path, now_fn=lambda: clock[0])
        first = engine.initialize_benchmark(refs.FIXTURE_ITEMS, refs.FIXTURE_RULES)
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}

        real_open = pathlib.Path.open
        torn = []

        class TornFile:
            """Writes the first half of the payload, then fails."""

            def __init__(self, handle):
                self.handle = handle

            def write(self, text):
                self.handle.write(text[: len(text) // 2])
                self.handle.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

            def __getattr__(self, name):
                return getattr(self.handle, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

        def tearing_open(path, mode="r", *args, **kwargs):
            handle = real_open(path, mode, *args, **kwargs)
            if "w" in mode and torn and torn[0] in path.name:
                return TornFile(handle)
            return handle

        monkeypatch.setattr(pathlib.Path, "open", tearing_open)
        # a new dataset whose file write fails half-way
        torn[:] = ["dataset-"]
        with pytest.raises(OSError):
            engine.initialize_benchmark(refs.FIXTURE_ITEMS[:2], refs.FIXTURE_RULES)
        path = dataset_file(tmp_path)
        assert path.read_bytes() == before[path.name]
        # the same dataset again, a second later: its token write fails half-way
        torn[:] = [".token"]
        clock[0] = T0 + timedelta(seconds=1)
        with pytest.raises(OSError):
            engine.initialize_benchmark(refs.FIXTURE_ITEMS, refs.FIXTURE_RULES)
        monkeypatch.undo()

        after = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.suffix != ".tmp"}
        assert after == before
        assert engine.annotate(URL, None, ("etag", first.token_id))[0] == 200
        caplog.set_level(logging.WARNING, logger="driftguard.token")
        restarted = make_engine(tmp_path)
        # the stray temp files are not token files, so nothing reads them
        assert [r for r in caplog.records if r.name == "driftguard.token"] == []
        assert restarted.initialized and restarted.store.current == first
        assert restarted.annotate(URL, None, ("etag", first.token_id))[0] == 200

    def test_failed_reinitialisation_keeps_the_previous_baseline(self, tmp_path, monkeypatch):
        clock = [T0]
        engine = make_engine(tmp_path, now_fn=lambda: clock[0])
        first = engine.initialize_benchmark(refs.FIXTURE_ITEMS, refs.FIXTURE_RULES)
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        real_open = pathlib.Path.open

        def full_disk_for_tokens(path, mode="r", *args, **kwargs):
            if "w" in mode and ".token" in path.name:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_open(path, mode, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "open", full_disk_for_tokens)
        # a new dataset, a second later: its token cannot be written
        clock[0] = T0 + timedelta(seconds=1)
        with pytest.raises(OSError):
            engine.initialize_benchmark(refs.FIXTURE_ITEMS[:2], refs.FIXTURE_RULES)
        monkeypatch.undo()

        # the new dataset's file may be written; it is no baseline without its token
        after = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.suffix != ".tmp"}
        assert {name: after[name] for name in before} == before
        other = BenchmarkDataset.create("other", refs.FIXTURE_ITEMS[:2])
        assert set(after) - set(before) <= {dataset_file(tmp_path, other).name}
        for served in (engine, make_engine(tmp_path)):
            assert served.initialized and served.store.current == first
            assert served.annotate(URL, None, ("etag", first.token_id))[0] == 200

    def test_audit_records_are_stamped_by_the_engine_clock(self, tmp_path):
        engine = make_engine(tmp_path, now_fn=lambda: T1)
        current = mint_token("vision", DATASET, refs.FIXTURE_RULES, NEW, T1)
        assert engine.annotate(URL, None, ("etag", current.token_id))[0] == 412
        install(engine, current)
        assert engine.annotate(URL, None, ("etag", current.token_id))[0] == 200
        lines = (tmp_path / "audit.log").read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["kind"] for r in records] == ["precondition_failed", "annotate"]
        assert {r["ts"] for r in records} == {iso_ts(T1)}


class Crash(BaseException):
    """The process dies here: no `except Exception` in the engine stops it."""


class CrashPoints:
    """Counts the renames (`replace`) and directory fsyncs (`dir_fsync`)
    the store makes, and raises Crash in place of call number `crash_at`
    (from 0) of `kind`. Records the last token file renamed into place."""

    def __init__(self, monkeypatch, kind, crash_at=None):
        self.kind, self.crash_at = kind, crash_at
        self.calls = {"replace": 0, "dir_fsync": 0}
        self.committed = None
        real_replace, real_fsync = os.replace, os.fsync

        def replace(src, dst):
            self.reach("replace")
            real_replace(src, dst)
            if str(dst).endswith(".token"):
                self.committed = pathlib.Path(dst).name

        def fsync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                self.reach("dir_fsync")
            real_fsync(fd)

        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(os, "fsync", fsync)

    def reach(self, kind):
        if kind == self.kind and self.calls[kind] == self.crash_at:
            raise Crash(f"{kind} #{self.crash_at}")
        self.calls[kind] += 1


def init_at(moment, items=refs.FIXTURE_ITEMS, snapshot=None):
    def step(engine, clock):
        clock[0] = moment
        engine.client.snapshots[:] = [] if snapshot is None else [snapshot]
        engine.initialize_benchmark(items, refs.FIXTURE_RULES)

    return step


def rotate_at(moment, snapshot):
    def step(engine, clock):
        clock[0] = moment
        engine.client.snapshots[:] = [snapshot]
        assert engine.run_detection("manual").outcome == OUTCOME_ROTATED

    return step


SECOND = timedelta(seconds=1)
# name: (steps that commit before the crash window, steps cut at each point)
CRASH_WORKFLOWS = {
    "first init": ((), (init_at(T0),)),
    "re-init, same manifest": ((init_at(T0),), (init_at(T0 + SECOND),)),
    "re-init, another manifest": ((init_at(T0),), (init_at(T0 + SECOND, refs.FIXTURE_ITEMS[:2]),)),
    "rotation": ((init_at(T0, snapshot=OLD),), (rotate_at(T1, NEW),)),
    "two rotations in a second": (
        (init_at(T0, snapshot=OLD),),
        (rotate_at(T1, NEW), rotate_at(T1, OLD)),
    ),
}


class TestCrashStates:
    """Crash-state enumeration, after ALICE (Pillai et al., OSDI 2014) and
    CrashMonkey (Mohan et al., OSDI 2018): each workflow is cut at every
    rename and, separately, at every directory fsync. A fresh engine on
    what is left must start, and once a token has been committed it must
    serve the last committed one. A process death is what is simulated;
    power loss, which can drop a rename whose directory was not fsynced,
    is not."""

    @staticmethod
    def run(storage, monkeypatch, workflow, kind, crash_at=None):
        clock = [T0]
        engine = make_engine(storage, now_fn=lambda: clock[0])
        setup, steps = CRASH_WORKFLOWS[workflow]
        for step in setup:
            step(engine, clock)
        committed = engine.store.current and engine.store.path_for(engine.store.current).name
        with monkeypatch.context() as patch:
            points = CrashPoints(patch, kind, crash_at)
            try:
                for step in steps:
                    step(engine, clock)
            except Crash:
                assert crash_at is not None
        return points, points.committed or committed

    @pytest.mark.parametrize("kind", ["replace", "dir_fsync"])
    @pytest.mark.parametrize("workflow", CRASH_WORKFLOWS)
    def test_every_crash_state_restarts_on_the_last_committed_token(
        self, tmp_path, monkeypatch, workflow, kind
    ):
        points, _ = self.run(tmp_path / "whole", monkeypatch, workflow, kind)
        for crash_at in range(points.calls[kind] + 1):
            storage = tmp_path / str(crash_at)
            _, committed = self.run(storage, monkeypatch, workflow, kind, crash_at)
            fresh = make_engine(storage)
            if committed is None:
                assert not fresh.initialized, crash_at
                continue
            assert fresh.initialized, crash_at
            assert fresh.store.path_for(fresh.store.current).name == committed, crash_at
            token_id = fresh.store.current.token_id
            assert fresh.annotate(URL, None, ("etag", token_id))[0] == 200, crash_at

    @pytest.mark.parametrize("workflow", CRASH_WORKFLOWS)
    def test_every_rename_is_followed_by_a_directory_fsync(self, tmp_path, monkeypatch, workflow):
        points, _ = self.run(tmp_path, monkeypatch, workflow, "replace")
        assert points.calls["dir_fsync"] == points.calls["replace"] > 0
