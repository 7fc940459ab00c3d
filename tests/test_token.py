import json
import logging
import random
import sys
import threading
from dataclasses import replace
from datetime import timedelta

import pytest
from hypothesis import given
import hypothesis.strategies as st

from driftguard.token import (
    BehaviourToken,
    ETagParseError,
    TokenStore,
    ValidationError,
    compute_token_id,
    etag_of,
    mint_token,
    no_key_error,
    parse_etag,
    unknown_token_error,
    validate,
)
from driftguard.types import (
    ERROR_TYPES,
    BenchmarkDataset,
    BenchmarkItem,
    ContractError,
    LabelledResponse,
    ThresholdRules,
)

import naive_oracle
import reference_fixtures as refs
from gen_strategies import T0, T1, response_from_map


def make_dataset(items=None):
    return BenchmarkDataset.create("fixtures", items or refs.FIXTURE_ITEMS)


def make_token(snapshot=None, rules=refs.FIXTURE_RULES, dataset=None, now=T0, service="vision"):
    dataset = dataset or make_dataset()
    if snapshot is None:
        snapshot, _ = refs.fixture_snapshots()
    return mint_token(service, dataset, rules, snapshot, now)


# One changed value per token field the robustness checks compare.
RULE_PERTURBATIONS = {
    "min_confidence": 0.2,
    "max_delta_confidence": 0.5,
    "max_labels": 3,
    "max_delta_labels": 2,
    "expected_labels_global": frozenset({"organism"}),
}


def assert_robustness_error(requested, current, code, **fields):
    """validate() fails with `code`, and error_data holds both token
    summaries, then exactly `fields` in this order, then the reason."""
    error = validate(requested, current, make_dataset())
    assert error.error_code == code
    data = error.error_data
    assert list(data) == ["source_key", "violating_key", *fields, "reason"]
    assert data["source_key"] == requested.metadata()
    assert data["violating_key"] == current.metadata()
    assert {name: data[name] for name in fields} == fields


def failed_response(image_ref, at=T0):
    return LabelledResponse(image_ref=image_ref, annotations=(), captured_at=at, success=False)


class TestMint:
    def test_success_when_all_entries_succeed(self):
        assert make_token().success is True

    def test_failure_when_any_entry_failed(self):
        snapshot, _ = refs.fixture_snapshots()
        snapshot = [snapshot[0], failed_response(refs.SHEEP_URI), snapshot[2]]
        assert make_token(snapshot=snapshot).success is False

    def test_identical_inputs_identical_ids(self):
        assert make_token().token_id == make_token().token_id

    def test_id_shape(self):
        token_id = make_token().token_id
        assert len(token_id) == 16
        assert all(c in "0123456789abcdef" for c in token_id)

    def test_any_input_change_changes_id(self):
        base = make_token()
        assert make_token(now=T1).token_id != base.token_id
        assert make_token(service="other").token_id != base.token_id
        tighter = replace(refs.FIXTURE_RULES, max_delta_labels=4)
        assert make_token(rules=tighter).token_id != base.token_id
        _, new_snapshot = refs.fixture_snapshots()
        assert make_token(snapshot=new_snapshot).token_id != base.token_id

    def test_misaligned_snapshot_rejected(self):
        snapshot, _ = refs.fixture_snapshots()
        with pytest.raises(ContractError):
            make_token(snapshot=snapshot[:2])
        with pytest.raises(ContractError):
            make_token(snapshot=list(reversed(snapshot)))

    def test_created_at_truncated_to_seconds(self):
        token = make_token(now=T0 + timedelta(microseconds=999999))
        assert token.created_at == T0

    def test_token_round_trips_through_dict(self):
        token = make_token()
        assert BehaviourToken.from_dict(token.to_dict()) == token


class TestEtag:
    def test_wire_form(self):
        token = make_token()
        assert etag_of(token) == f'W/"{token.token_id}"'
        assert etag_of("a1b2c3d4e5f60718") == 'W/"a1b2c3d4e5f60718"'

    def test_round_trip(self):
        token = make_token()
        assert parse_etag(etag_of(token)) == token.token_id

    @pytest.mark.parametrize(
        "header",
        ['"a1b2c3d4e5f60718"', "a1b2c3d4e5f60718", 'W/"', 'W/""', 'W/"ab"cd"', ""],
    )
    def test_malformed_or_strong_rejected(self, header):
        with pytest.raises(ETagParseError):
            parse_etag(header)


class TestCodeTable:
    def test_bijection_is_total_and_stable(self):
        assert sorted(ERROR_TYPES) == list(range(10))
        expected = [
            "NO_KEY_YET",
            "SERVICE_MISMATCH",
            "DATASET_MISMATCH",
            "SUCCESS_MISMATCH",
            "MIN_CONFIDENCE_MISMATCH",
            "MAX_LABELS_MISMATCH",
            "RESPONSE_LENGTH_MISMATCH",
            "LABEL_DELTA_MISMATCH",
            "CONFIDENCE_DELTA_MISMATCH",
            "EXPECTED_LABELS_MISMATCH",
        ]
        assert [ERROR_TYPES[code] for code in range(10)] == expected
        assert len(set(ERROR_TYPES.values())) == 10

    def test_validation_error_enforces_mapping(self):
        with pytest.raises(ContractError):
            ValidationError(error_code=3, error_type="NO_KEY_YET", error_data={})


class TestValidateRobustness:
    def test_self_equivalence(self):
        token = make_token()
        assert validate(token, token, make_dataset()) is None

    def test_code_0_when_no_current_token(self):
        error = validate(make_token(), None, make_dataset())
        assert error.error_code == 0
        assert error.error_type == "NO_KEY_YET"

    def test_code_1_service_mismatch(self):
        assert_robustness_error(
            make_token(service="other"),
            make_token(),
            1,
            service_expected="vision",
            service_provided="other",
        )

    def test_code_2_dataset_mismatch(self):
        other_items = [refs.CAR_ITEM, refs.SHEEP_ITEM]
        other_dataset = BenchmarkDataset.create("other", other_items)
        old_snapshot, _ = refs.fixture_snapshots()
        requested = make_token(dataset=other_dataset, snapshot=old_snapshot[:2])
        assert_robustness_error(
            requested,
            make_token(),
            2,
            dataset_fingerprint_expected=make_dataset().fingerprint,
            dataset_fingerprint_provided=other_dataset.fingerprint,
            expected_labels_rule_expected=[],
            expected_labels_rule_provided=[],
        )

    def test_code_2_expected_labels_rule_mismatch(self):
        rules = replace(
            refs.FIXTURE_RULES, expected_labels_global=frozenset({"organism"})
        )
        assert_robustness_error(
            make_token(rules=rules),
            make_token(),
            2,
            dataset_fingerprint_expected=make_dataset().fingerprint,
            dataset_fingerprint_provided=make_dataset().fingerprint,
            expected_labels_rule_expected=[],
            expected_labels_rule_provided=["organism"],
        )

    def test_code_3_success_mismatch(self):
        snapshot, _ = refs.fixture_snapshots()
        broken = [snapshot[0], failed_response(refs.SHEEP_URI), snapshot[2]]
        assert_robustness_error(
            make_token(snapshot=broken), make_token(), 3, success_provided=False
        )

    def test_code_4_confidence_rules_mismatch(self):
        # both confidence rules are reported whichever of them differs
        current = make_token()
        assert_robustness_error(
            make_token(rules=replace(refs.FIXTURE_RULES, min_confidence=0.2)),
            current,
            4,
            min_confidence_expected=0.0,
            min_confidence_provided=0.2,
            max_delta_confidence_expected=0.01,
            max_delta_confidence_provided=0.01,
        )
        assert_robustness_error(
            make_token(rules=replace(refs.FIXTURE_RULES, max_delta_confidence=0.5)),
            current,
            4,
            min_confidence_expected=0.0,
            min_confidence_provided=0.0,
            max_delta_confidence_expected=0.01,
            max_delta_confidence_provided=0.5,
        )

    def test_code_5_label_rules_mismatch(self):
        current = make_token()
        assert_robustness_error(
            make_token(rules=replace(refs.FIXTURE_RULES, max_labels=3)),
            current,
            5,
            max_labels_expected=12,
            max_labels_provided=3,
            max_delta_labels_expected=5,
            max_delta_labels_provided=5,
        )
        assert_robustness_error(
            make_token(rules=replace(refs.FIXTURE_RULES, max_delta_labels=2)),
            current,
            5,
            max_labels_expected=12,
            max_labels_provided=12,
            max_delta_labels_expected=5,
            max_delta_labels_provided=2,
        )

    def test_code_6_response_length_mismatch(self):
        # same fingerprint but a hand-built token with a shorter snapshot
        current = make_token()
        snapshot, _ = refs.fixture_snapshots()
        requested = BehaviourToken(
            token_id="deadbeefdeadbeef",
            service_id="vision",
            dataset_fingerprint=current.dataset_fingerprint,
            created_at=T0,
            rules=refs.FIXTURE_RULES,
            snapshot=tuple(snapshot[:2]),
            success=True,
        )
        assert_robustness_error(
            requested, current, 6, response_length_expected=3, response_length_provided=2
        )

    @given(
        service=st.sampled_from(["vision", "other"]),
        other_dataset=st.booleans(),
        requested_failed=st.booleans(),
        current_failed=st.booleans(),
        rule_changes=st.lists(st.sampled_from(sorted(RULE_PERTURBATIONS)), unique=True),
        short=st.booleans(),
    )
    def test_code_precedence_matches_oracle(
        self, service, other_dataset, requested_failed, current_failed, rule_changes, short
    ):
        dataset = make_dataset()
        snapshot, _ = refs.fixture_snapshots()
        current_snapshot = list(snapshot)
        if current_failed:
            current_snapshot[1] = failed_response(refs.SHEEP_URI)
        current = make_token(snapshot=current_snapshot)
        if requested_failed:
            snapshot[0] = failed_response(refs.CAR_URI)
        if short:
            snapshot = snapshot[:2]
        fingerprint = dataset.fingerprint
        if other_dataset:
            fingerprint = BenchmarkDataset.create("other", [refs.CAR_ITEM]).fingerprint
        requested = BehaviourToken(
            token_id="0123456789abcdef",
            service_id=service,
            dataset_fingerprint=fingerprint,
            created_at=T0,
            rules=replace(refs.FIXTURE_RULES, **{k: RULE_PERTURBATIONS[k] for k in rule_changes}),
            snapshot=tuple(snapshot),
            success=all(r.success for r in snapshot),
        )
        expected = naive_oracle.robustness_code(requested, current)
        error = validate(requested, current, dataset)
        if expected is None:
            assert error is None or error.error_code >= 7
        else:
            assert error.error_code == expected

    def test_robustness_beats_benchmark_failures(self):
        # different dataset AND label drift: the dataset mismatch must win
        other_dataset = BenchmarkDataset.create("other", [refs.CAR_ITEM, refs.SHEEP_ITEM])
        old_snapshot, new_snapshot = refs.fixture_snapshots()
        requested = make_token(dataset=other_dataset, snapshot=old_snapshot[:2])
        current = make_token(snapshot=new_snapshot)
        error = validate(requested, current, make_dataset())
        assert error.error_code == 2


class TestValidateBenchmark:
    def test_sheep_pair_returns_code_8_with_reference_payload(self):
        old_snapshot, new_snapshot = refs.fixture_snapshots()
        dataset = BenchmarkDataset.create("sheep", [refs.SHEEP_ITEM])
        requested = make_token(dataset=dataset, snapshot=[old_snapshot[1]])
        current = make_token(dataset=dataset, snapshot=[new_snapshot[1]], now=T1)
        error = validate(requested, current, dataset)
        assert error.error_code == 8
        data = error.error_data
        assert data["delta_confidence_threshold"] == 0.01
        assert list(data["delta_confidences_detected"]) == [
            "sheep", "herd", "livestock", "terrestrial animal", "snout",
        ]
        for label, expected in refs.SHEEP_DELTAS.items():
            assert data["delta_confidences_detected"][label] == pytest.approx(expected, abs=1e-12)
        assert data["reason"] == refs.REASON_SHEEP
        assert data["uri"] == refs.SHEEP_URI
        assert data["source_key"]["token_id"] == requested.token_id
        assert data["violating_key"]["token_id"] == current.token_id
        assert "snapshot" not in data["source_key"]
        assert data["source_response"]["image_ref"] == refs.SHEEP_URI
        assert data["violating_response"]["image_ref"] == refs.SHEEP_URI

    def test_iguana_pair_isolated_to_code_9(self):
        # confidence threshold forced wide so only the expected-label check fires
        rules = replace(refs.FIXTURE_RULES, max_delta_confidence=0.5)
        old_snapshot, new_snapshot = refs.fixture_snapshots()
        dataset = BenchmarkDataset.create("iguana", [refs.IGUANA_ITEM])
        requested = make_token(dataset=dataset, snapshot=[old_snapshot[2]], rules=rules)
        current = make_token(dataset=dataset, snapshot=[new_snapshot[2]], rules=rules, now=T1)
        error = validate(requested, current, dataset)
        assert error.error_code == 9
        assert error.error_data["labels_missing"] == ["fauna"]
        assert error.error_data["expected_labels"] == ["fauna"]
        assert error.error_data["labels_detected"] == refs.IGUANA_LABELS_DETECTED
        assert error.error_data["reason"] == refs.REASON_IGUANA
        assert "additional_errors" not in error.error_data

    def test_multiple_violations_ride_in_additional_errors(self):
        old_snapshot, new_snapshot = refs.fixture_snapshots()
        dataset = make_dataset()
        requested = make_token(snapshot=old_snapshot)
        current = make_token(snapshot=new_snapshot, now=T1)
        error = validate(requested, current, dataset)
        assert error.error_code == 7  # car fires first in code order
        additional = error.error_data["additional_errors"]
        assert [e["error_code"] for e in additional] == [8, 9]
        assert additional[0]["error_type"] == "CONFIDENCE_DELTA_MISMATCH"
        assert additional[0]["error_data"]["uri"] == refs.SHEEP_URI
        assert additional[1]["error_data"]["uri"] == refs.IGUANA_URI

    def test_iguana_caught_twice_primary_is_label_delta(self):
        rules = replace(refs.FIXTURE_RULES, max_delta_labels=3, max_delta_confidence=0.5)
        old_snapshot, new_snapshot = refs.fixture_snapshots()
        dataset = BenchmarkDataset.create("iguana", [refs.IGUANA_ITEM])
        requested = make_token(dataset=dataset, snapshot=[old_snapshot[2]], rules=rules)
        current = make_token(dataset=dataset, snapshot=[new_snapshot[2]], rules=rules, now=T1)
        error = validate(requested, current, dataset)
        assert error.error_code == 7
        assert [e["error_code"] for e in error.error_data["additional_errors"]] == [9]

    def test_self_validation_ok_even_when_expected_label_absent(self):
        # A rotated-onto state may be missing an expected label; the token
        # representing that very state must stay usable (the rotation already
        # notified the operator), while older tokens keep getting code 9.
        _, new_snapshot = refs.fixture_snapshots()
        dataset = BenchmarkDataset.create("iguana", [refs.IGUANA_ITEM])
        current = make_token(dataset=dataset, snapshot=[new_snapshot[2]], now=T1)
        assert validate(current, current, dataset) is None
        old_snapshot, _ = refs.fixture_snapshots()
        stale = make_token(dataset=dataset, snapshot=[old_snapshot[2]], now=T0)
        assert validate(stale, current, dataset).error_code == 9

    def test_current_rules_decide_benchmark_checks(self):
        # requested and current share rules; drift below threshold passes
        relaxed = replace(refs.FIXTURE_RULES, max_delta_labels=100, max_delta_confidence=1.0)
        old_snapshot, new_snapshot = refs.fixture_snapshots()
        dataset = BenchmarkDataset.create("pair", [refs.CAR_ITEM, refs.SHEEP_ITEM])
        requested = make_token(dataset=dataset, snapshot=old_snapshot[:2], rules=relaxed)
        current = make_token(dataset=dataset, snapshot=new_snapshot[:2], rules=relaxed, now=T1)
        assert validate(requested, current, dataset) is None


class TestWireRoundTrip:
    def _errors(self):
        old_snapshot, new_snapshot = refs.fixture_snapshots()
        dataset = make_dataset()
        requested = make_token(snapshot=old_snapshot)
        current = make_token(snapshot=new_snapshot, now=T1)
        yield no_key_error()
        yield unknown_token_error("ffffffffffffffff", current)
        yield validate(make_token(service="other"), current, dataset)
        yield validate(requested, current, dataset)

    def test_every_error_payload_round_trips_losslessly(self):
        for error in self._errors():
            assert json.loads(json.dumps(error.to_wire())) == error.to_wire()


@st.composite
def random_successful_tokens(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    items = []
    snapshot = []
    for k in range(n):
        ref = f"http://images.test/{k}.jpg"
        label_map = draw(
            st.dictionaries(
                st.text(alphabet="abcdef", min_size=1, max_size=4),
                st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False),
                max_size=5,
            )
        )
        # expected labels may or may not be present in the snapshot; either
        # way the token must validate against itself
        expected = frozenset(draw(st.lists(st.sampled_from("abcxyz"), max_size=2)))
        items.append(BenchmarkItem(ref, "truth", expected))
        snapshot.append(response_from_map(ref, label_map))
    dataset = BenchmarkDataset.create("rand", items)
    rules = ThresholdRules(
        max_delta_labels=draw(st.integers(1, 8)),
        max_delta_confidence=draw(st.sampled_from([0.01, 0.1, 1.0])),
    )
    return mint_token("svc", dataset, rules, snapshot, T0), dataset


@given(random_successful_tokens())
def test_validate_self_is_ok_for_random_tokens(token_dataset):
    token, dataset = token_dataset
    assert validate(token, token, dataset) is None


class TestTokenStore:
    def test_store_then_load_current(self, tmp_path):
        store = TokenStore(tmp_path)
        token = make_token()
        store.store(token)
        assert store.current.token_id == token.token_id

    def test_fresh_store_has_no_current(self, tmp_path):
        assert TokenStore(tmp_path).current is None

    def test_history_ordered_by_created_at(self, tmp_path):
        store = TokenStore(tmp_path)
        first = make_token(now=T0)
        second = make_token(now=T1)
        store.store(first)
        store.store(second)
        assert [t.token_id for t in store.history()] == [first.token_id, second.token_id]
        assert store.current.token_id == second.token_id

    def test_survives_restart(self, tmp_path):
        store = TokenStore(tmp_path)
        first = make_token(now=T0)
        second = make_token(now=T1)
        store.store(first)
        store.store(second)
        reloaded = TokenStore(tmp_path)
        assert reloaded.current.token_id == second.token_id
        assert len(reloaded.history()) == 2
        assert reloaded.find(first.token_id).token_id == first.token_id

    def test_file_naming_and_canonical_bytes(self, tmp_path):
        store = TokenStore(tmp_path)
        token = make_token()
        path = store.store(token)
        unix = int(token.created_at.timestamp())
        assert path.name == f"{unix}-{token.token_id}.token"
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n") and "\r" not in text
        assert json.loads(text) == json.loads(
            json.dumps(token.to_dict(), sort_keys=True)
        )
        # byte-stable: storing the same token again writes identical bytes
        before = path.read_bytes()
        store.store(token)
        assert path.read_bytes() == before

    def test_newest_at_or_before(self, tmp_path):
        store = TokenStore(tmp_path)
        first = make_token(now=T0)
        second = make_token(now=T1)
        store.store(first)
        store.store(second)
        assert store.newest_at_or_before(T0).token_id == first.token_id
        assert store.newest_at_or_before(T1).token_id == second.token_id
        assert store.newest_at_or_before(T0 - timedelta(seconds=1)) is None

    def test_same_second_tokens_resolve_to_the_oldest(self, tmp_path):
        store = TokenStore(tmp_path)
        first = make_token(now=T0)
        second = make_token(now=T1, service="a")
        third = make_token(now=T1, service="b")
        later = make_token(now=T1 + timedelta(hours=1))
        for token in (first, second, third, later):
            store.store(token)
        assert store.newest_at_or_before(T1).token_id == second.token_id
        assert store.newest_at_or_before(T1 + timedelta(minutes=1)).token_id == second.token_id
        assert store.newest_at_or_before(later.created_at).token_id == later.token_id
        # a token stored after the one a request read as current is out of reach
        bounded = store.newest_at_or_before(later.created_at, upto=third)
        assert bounded.token_id == second.token_id

    def test_lock_admits_one_writer_at_a_time(self, tmp_path):
        with TokenStore.lock(tmp_path):
            with pytest.raises(ValueError, match=f"storage directory {tmp_path} is held"):
                with TokenStore.lock(tmp_path):
                    pass
        with TokenStore.lock(tmp_path):
            pass

    @pytest.mark.parametrize(
        "name", ["junk.token", "1704067200-0123456789ABCDEF.token", f"{'9' * 20}-{'0' * 16}.token"]
    )
    def test_token_file_with_another_name_is_refused(self, tmp_path, name):
        (tmp_path / name).write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match=f"{name} is not named"):
            TokenStore(tmp_path)


def count_body_reads(monkeypatch) -> list:
    """The token ids of every token body parsed from now on."""
    reads = []
    original = BehaviourToken.from_dict

    def counted(data):
        reads.append(data["token_id"])
        return original(data)

    monkeypatch.setattr(BehaviourToken, "from_dict", staticmethod(counted))
    return reads


def store_tokens(directory, count):
    store = TokenStore(directory)
    tokens = [make_token(now=T0 + timedelta(seconds=i)) for i in range(count)]
    for token in tokens:
        store.store(token)
    return tokens


def token_warnings(caplog) -> list:
    return [r.getMessage() for r in caplog.records if r.name == "driftguard.token"]


class TestLazyHistory:
    def test_restart_parses_only_the_current_token(self, tmp_path, monkeypatch):
        tokens = store_tokens(tmp_path, 5)
        reads = count_body_reads(monkeypatch)
        store = TokenStore(tmp_path)
        assert reads == [tokens[-1].token_id]
        assert store.current == tokens[-1]

    def test_predecessor_is_parsed_on_first_use_only(self, tmp_path, monkeypatch):
        tokens = store_tokens(tmp_path, 5)
        reads = count_body_reads(monkeypatch)
        store = TokenStore(tmp_path)
        assert store.find(tokens[1].token_id) == tokens[1]
        assert store.find(tokens[1].token_id) == tokens[1]
        assert store.newest_at_or_before(tokens[1].created_at) == tokens[1]
        assert store.newest_at_or_before(tokens[2].created_at) == tokens[2]
        assert reads == [tokens[-1].token_id, tokens[1].token_id, tokens[2].token_id]
        assert store.find("0123456789abcdef") is None
        assert len(reads) == 3

    def test_corrupt_predecessor_reads_as_absent_with_one_warning(self, tmp_path, caplog):
        caplog.set_level(logging.WARNING, logger="driftguard.token")
        tokens = store_tokens(tmp_path, 3)
        store = TokenStore(tmp_path)
        store.path_for(tokens[1]).write_text("{not json", encoding="utf-8")
        assert store.find(tokens[1].token_id) is None
        assert store.find(tokens[1].token_id) is None
        # the date that named it now names the token before it
        assert store.newest_at_or_before(tokens[1].created_at) == tokens[0]
        assert [t.token_id for t in store.history()] == [tokens[0].token_id, tokens[2].token_id]
        warnings = token_warnings(caplog)
        assert len(warnings) == 1
        assert "skipping unreadable token file" in warnings[0]
        assert str(store.path_for(tokens[1])) in warnings[0]

    def test_predecessor_gone_after_restart_reads_as_absent(self, tmp_path, caplog):
        caplog.set_level(logging.WARNING, logger="driftguard.token")
        tokens = store_tokens(tmp_path, 3)
        store = TokenStore(tmp_path)
        path = store.path_for(tokens[0])
        path.rename(path.with_name(f"{int(T0.timestamp())}-{'f' * 16}.token"))
        assert store.newest_at_or_before(tokens[0].created_at) is None
        assert store.find(tokens[0].token_id) is None
        assert len(token_warnings(caplog)) == 1

    def test_body_that_disagrees_with_its_name_is_skipped(self, tmp_path, caplog):
        caplog.set_level(logging.WARNING, logger="driftguard.token")
        tokens = store_tokens(tmp_path, 3)
        path = TokenStore(tmp_path).path_for(tokens[0])
        other = path.with_name(f"{int(T0.timestamp())}-{'f' * 16}.token")
        path.rename(other)
        store = TokenStore(tmp_path)
        assert store.find("f" * 16) is None
        assert store.find(tokens[0].token_id) is None
        assert store.newest_at_or_before(T0) is None
        warnings = token_warnings(caplog)
        assert len(warnings) == 1 and str(other) in warnings[0]
        assert tokens[0].token_id in warnings[0]

    @pytest.mark.parametrize("damage", ["truncated", "renamed"])
    def test_unreadable_newest_file_is_refused(self, tmp_path, damage):
        tokens = store_tokens(tmp_path, 3)
        newest = TokenStore(tmp_path).path_for(tokens[-1])
        if damage == "truncated":
            newest.write_text(newest.read_text(encoding="utf-8")[:100], encoding="utf-8")
        else:  # a body that disagrees with its name
            newest = newest.rename(newest.with_name(f"{int(T1.timestamp())}-{'f' * 16}.token"))
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        with pytest.raises(ValueError, match=f"unreadable token file {newest}"):
            TokenStore(tmp_path)
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_concurrent_first_uses_parse_each_body_once(self, tmp_path, monkeypatch, caplog):
        caplog.set_level(logging.WARNING, logger="driftguard.token")
        tokens = store_tokens(tmp_path, 6)
        TokenStore(tmp_path).path_for(tokens[0]).write_text("{", encoding="utf-8")
        predecessors = tokens[:-1]
        expected = {t.token_id: (t, t) for t in predecessors[1:]}
        expected[tokens[0].token_id] = (None, None)
        reads = count_body_reads(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):  # restarts, each with racing first uses
                reads.clear()
                caplog.clear()
                store = TokenStore(tmp_path)
                start = threading.Barrier(8)
                results, errors = [], []

                def resolve(worker):
                    try:
                        start.wait(10)
                        for token in predecessors[::-1] if worker % 2 else predecessors:
                            by_id = store.find(token.token_id)
                            by_date = store.newest_at_or_before(token.created_at)
                            results.append((token.token_id, by_id, by_date))
                    except Exception as exc:  # surfaced by the assertion below
                        errors.append(exc)

                workers = [threading.Thread(target=resolve, args=(i,)) for i in range(8)]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(10)
                assert not any(worker.is_alive() for worker in workers) and errors == []
                assert sorted(reads) == sorted(t.token_id for t in tokens[1:])
                assert len(token_warnings(caplog)) == 1
                assert len(results) == 8 * len(predecessors)
                assert all(expected[token_id] == (a, b) for token_id, a, b in results)
        finally:
            sys.setswitchinterval(interval)

    def test_indented_files_from_earlier_versions_load_lazily(self, tmp_path, monkeypatch):
        tokens = [make_token(now=T0 + timedelta(seconds=i)) for i in range(3)]
        for token in tokens:
            name = f"{int(token.created_at.timestamp())}-{token.token_id}.token"
            text = json.dumps(token.to_dict(), sort_keys=True, ensure_ascii=False, indent=2)
            (tmp_path / name).write_text(text + "\n", encoding="utf-8")
        reads = count_body_reads(monkeypatch)
        store = TokenStore(tmp_path)
        assert store.current == tokens[-1]
        assert store.find(tokens[0].token_id) == tokens[0]
        assert store.newest_at_or_before(tokens[1].created_at) == tokens[1]
        assert len(reads) == 3

    def test_file_without_the_standard_name_is_refused(self, tmp_path):
        store_tokens(tmp_path, 2)
        token = make_token(now=T1)
        (tmp_path / "copied.token").write_text(
            json.dumps(token.to_dict(), sort_keys=True) + "\n", encoding="utf-8"
        )
        with pytest.raises(ValueError, match="copied.token is not named"):
            TokenStore(tmp_path)


def test_compute_token_id_uses_all_fields():
    snapshot, _ = refs.fixture_snapshots()
    dataset = make_dataset()
    rng = random.Random(7)
    ids = {
        compute_token_id(
            f"svc{rng.random()}", dataset.fingerprint, T0, refs.FIXTURE_RULES, snapshot
        )
        for _ in range(50)
    }
    assert len(ids) == 50
