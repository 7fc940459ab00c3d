"""Acceptance criteria, one test per criterion.

Each test pins the tolerances it must hold; the terminal summary prints a
PASS/FAIL line per criterion.
"""

import json
import random
import time
from dataclasses import replace
from datetime import datetime, timezone

import pytest
import requests

from driftguard.cli import main
from driftguard.config import ProxyConfig
from driftguard.corpus import load_corpus_pair, write_corpus
from driftguard.diffing import evaluate_epochs, format_signed_mean
from driftguard.engine import GuardEngine
from driftguard.ontology import OntologyChangeKind, classify_ontology_change
from driftguard.proxy import ProxyServer
from driftguard.simulator import (
    SimulatorServer,
    corpus_for_epoch,
    parse_script,
    random_drift_script,
)
from driftguard.token import BehaviourToken, mint_token, validate
from driftguard.tuner import tune_thresholds
from driftguard.types import (
    BenchmarkDataset,
    BenchmarkItem,
    LabelledResponse,
    ThresholdRules,
)
from driftguard.upstream import UpstreamClient

import reference_fixtures as refs
import naive_oracle
from gen_strategies import response_from_map
from test_ontology import REFERENCE_TRANSITIONS, TOY, TOY_EDGES
from netutil import InFlightGauge
from test_proxy import DRIFT_SCRIPT, MANIFEST_ITEMS

T0 = datetime(2026, 1, 1, tzinfo=timezone.utc)
T1 = datetime(2026, 1, 9, tzinfo=timezone.utc)

CORPUS_SEED = 606
CORPUS_SIZE = 200


def single_item_error(pair, item, rules=refs.FIXTURE_RULES):
    old, new = pair
    dataset = BenchmarkDataset.create("one", [item])
    requested = mint_token("svc", dataset, rules, [old], T0)
    current = mint_token("svc", dataset, rules, [new], T1)
    return validate(requested, current, dataset)


def test_criterion_01_reference_error_payloads():
    started = time.monotonic()

    car = single_item_error(refs.car_pair(), refs.CAR_ITEM)
    assert car.error_code == 7
    assert car.error_type == "LABEL_DELTA_MISMATCH"
    assert car.error_data["delta_labels_threshold"] == 5
    assert car.error_data["delta_labels_detected"] == 8
    assert car.error_data["new_labels"] == ["transport", "building", "architecture", "house"]
    assert car.error_data["dropped_labels"] == ["car", "motor vehicle", "city", "road"]
    assert car.error_data["uri"] == refs.CAR_URI
    assert car.error_data["reason"] == (
        "Exceeded label count delta threshold ±5 (4 new labels + 4 dropped labels = 8)."
    )

    sheep = single_item_error(refs.sheep_pair(), refs.SHEEP_ITEM)
    assert sheep.error_code == 8
    assert sheep.error_type == "CONFIDENCE_DELTA_MISMATCH"
    assert sheep.error_data["delta_confidence_threshold"] == 0.01
    detected = sheep.error_data["delta_confidences_detected"]
    assert set(detected) == set(refs.SHEEP_DELTAS)
    for label, frozen in refs.SHEEP_DELTAS.items():
        assert detected[label] == pytest.approx(frozen, abs=1e-9)
    assert sheep.error_data["reason"] == (
        "Exceeded confidence delta threshold ±0.01 in 5 labels (delta mean=+0.1174)."
    )

    iguana = single_item_error(refs.iguana_pair(), refs.IGUANA_ITEM)
    assert iguana.error_code == 9
    assert iguana.error_type == "EXPECTED_LABELS_MISMATCH"
    assert iguana.error_data["expected_labels"] == ["fauna"]
    assert iguana.error_data["labels_missing"] == ["fauna"]
    assert iguana.error_data["labels_detected"] == refs.IGUANA_LABELS_DETECTED
    assert iguana.error_data["reason"] == (
        "The expected label(s) `fauna' are missing in the response."
    )

    assert time.monotonic() - started < 1.0


def test_criterion_02_sheep_mean_formats_half_even():
    deltas = [
        0.01936030388219212,
        0.15035879611968994,
        0.13112884759902954,
        0.1791478991508484,
        0.10682523250579834,
    ]
    mean = sum(deltas) / len(deltas)
    assert mean == pytest.approx(0.1173642158515117, abs=1e-12)
    assert format_signed_mean(mean) == "+0.1174"
    # the reported mean in the live payload agrees
    error = single_item_error(refs.sheep_pair(), refs.SHEEP_ITEM)
    assert "(delta mean=+0.1174)." in error.error_data["reason"]


def test_criterion_03_top_label_delta():
    old = response_from_map("http://images.test/boat.jpg", {"window": 0.559})
    new = response_from_map("http://images.test/boat.jpg", {"water transportation": 0.984})
    dataset = BenchmarkDataset.create("top", [BenchmarkItem("http://images.test/boat.jpg", "")])
    rules = ThresholdRules(max_delta_labels=10**6, max_delta_confidence=1.0)
    report = evaluate_epochs([old], [new], dataset, rules)
    delta = report.deltas[0]
    assert delta.top_label_old == "window"
    assert delta.top_label_new == "water transportation"
    assert delta.top_confidence_delta == pytest.approx(0.425, abs=1e-12)


def test_criterion_04_workflow_end_to_end(tmp_path):
    started = time.monotonic()
    with SimulatorServer(parse_script(DRIFT_SCRIPT, seed=4)) as sim:
        config = ProxyConfig(
            listen="127.0.0.1:0",
            upstream_url=sim.endpoint,
            service_id="vision-main",
            storage_path=str(tmp_path / "storage"),
            schedule_interval_secs=10_000,
            rules=ThresholdRules(max_labels=5),
        )
        engine = GuardEngine(
            config, client=UpstreamClient(sim.endpoint, timeout=5, retries=2, backoff_base=0.01)
        )
        with ProxyServer(config, engine=engine) as proxy:
            init = requests.post(
                f"{proxy.base_url}/benchmark", json={"items": MANIFEST_ITEMS}, timeout=10
            )
            assert init.status_code == 201
            stale_etag = init.headers["ETag"]
            assert stale_etag.startswith('W/"')

            pre = requests.post(
                f"{proxy.base_url}/annotate",
                json={"url": "http://images.test/a.jpg"},
                headers={"If-Match": stale_etag},
                timeout=10,
            )
            assert pre.status_code == 200

            sim.advance_epoch()
            tick = requests.post(f"{proxy.base_url}/admin/detect", timeout=30)
            assert tick.status_code == 202
            assert tick.json()["outcome"] == "token_rotated"

            post = requests.post(
                f"{proxy.base_url}/annotate",
                json={"url": "http://images.test/a.jpg"},
                headers={"If-Match": stale_etag},
                timeout=10,
            )
            assert post.status_code == 412
            assert post.json()["error_code"] >= 7

            fresh_etag = requests.get(f"{proxy.base_url}/token", timeout=5).headers["ETag"]
            fresh = requests.post(
                f"{proxy.base_url}/annotate",
                json={"url": "http://images.test/a.jpg"},
                headers={"If-Match": fresh_etag},
                timeout=10,
            )
            assert fresh.status_code == 200
    assert time.monotonic() - started < 10.0


def _random_token(rng, n_items=2):
    items = []
    snapshot = []
    for k in range(n_items):
        ref = f"http://images.test/{k}.jpg"
        labels = rng.sample("abcdefghijklmnop", rng.randint(1, 6))
        label_map = {label: round(rng.uniform(0.01, 0.99), 6) for label in labels}
        items.append(BenchmarkItem(ref, "truth", frozenset(rng.sample(labels, 1))))
        snapshot.append(response_from_map(ref, label_map))
    dataset = BenchmarkDataset.create("rand", items)
    rules = ThresholdRules(
        max_delta_labels=rng.randint(1, 8),
        max_delta_confidence=rng.choice([0.01, 0.1, 0.5]),
    )
    return mint_token("svc", dataset, rules, snapshot, T0), dataset


def test_criterion_05_validation_properties():
    rng = random.Random(505)
    for _ in range(1000):
        token, dataset = _random_token(rng)
        assert validate(token, token, dataset) is None

    # every robustness code reachable by a targeted fixture
    dataset = BenchmarkDataset.create("fixtures", refs.FIXTURE_ITEMS)
    old_snapshot, new_snapshot = refs.fixture_snapshots()
    current = mint_token("svc", dataset, refs.FIXTURE_RULES, old_snapshot, T0)

    assert validate(current, None, dataset).error_code == 0

    other = mint_token("other-svc", dataset, refs.FIXTURE_RULES, old_snapshot, T0)
    assert validate(other, current, dataset).error_code == 1

    small = BenchmarkDataset.create("small", refs.FIXTURE_ITEMS[:2])
    requested = mint_token("svc", small, refs.FIXTURE_RULES, old_snapshot[:2], T0)
    assert validate(requested, current, dataset).error_code == 2

    failed = LabelledResponse(
        image_ref=refs.SHEEP_URI, annotations=(), captured_at=T0, success=False
    )
    broken = mint_token(
        "svc", dataset, refs.FIXTURE_RULES, [old_snapshot[0], failed, old_snapshot[2]], T0
    )
    assert validate(broken, current, dataset).error_code == 3

    for tweak, expected_code in [
        ({"min_confidence": 0.3}, 4),
        ({"max_delta_confidence": 0.2}, 4),
        ({"max_labels": 4}, 5),
        ({"max_delta_labels": 3}, 5),
    ]:
        tweaked = mint_token(
            "svc", dataset, replace(refs.FIXTURE_RULES, **tweak), old_snapshot, T0
        )
        assert validate(tweaked, current, dataset).error_code == expected_code

    short = BehaviourToken(
        token_id="deadbeefdeadbeef",
        service_id="svc",
        dataset_fingerprint=current.dataset_fingerprint,
        created_at=T0,
        rules=refs.FIXTURE_RULES,
        snapshot=tuple(old_snapshot[:2]),
        success=True,
    )
    assert validate(short, current, dataset).error_code == 6

    # check order: dataset mismatch beats label drift
    drifted_current = mint_token("svc", dataset, refs.FIXTURE_RULES, new_snapshot, T1)
    assert validate(requested, drifted_current, dataset).error_code == 2


@pytest.fixture(scope="module")
def seeded_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    script, items = random_drift_script(seed=CORPUS_SEED, n_images=CORPUS_SIZE)
    old_paths = write_corpus(root / "old", corpus_for_epoch(script, 0))
    write_corpus(root / "new", corpus_for_epoch(script, 1))
    expected_by_name = {
        path.name: sorted(item.expected_labels)
        for path, item in zip(old_paths, sorted(items, key=lambda i: i.image_ref))
    }
    return root, items, expected_by_name


def test_criterion_06_oracle_equivalence(seeded_corpus):
    started = time.monotonic()
    root, items, expected_by_name = seeded_corpus
    rules = ThresholdRules(max_delta_labels=3, max_delta_confidence=0.05)
    dataset, old_snapshot, new_snapshot = load_corpus_pair(root / "old", root / "new", items)
    report = evaluate_epochs(old_snapshot, new_snapshot, dataset, rules)
    recount = naive_oracle.recount_totals(
        root / "old",
        root / "new",
        max_delta_labels=rules.max_delta_labels,
        max_delta_confidence=rules.max_delta_confidence,
        expected_by_name=expected_by_name,
    )
    assert report.totals_dict() == recount
    assert report.violating_images > 0  # the scripted drift really drifted
    assert time.monotonic() - started < 30.0


def test_criterion_07_tuner_monotonicity(seeded_corpus):
    root, items, expected_by_name = seeded_corpus
    label_grid, confidence_grid = [1, 3, 5, 8], [0.01, 0.05, 0.1, 0.3]
    dataset, old_snapshot, new_snapshot = load_corpus_pair(root / "old", root / "new", items)
    matrix = tune_thresholds(old_snapshot, new_snapshot, dataset, label_grid, confidence_grid)
    for row, next_row in zip(matrix.counts, matrix.counts[1:]):
        assert all(below <= above for above, below in zip(row, next_row))
    for row in matrix.counts:
        assert all(right <= left for left, right in zip(row, row[1:]))
    for a in label_grid:
        for b in confidence_grid:
            assert matrix.cell(a, b) == naive_oracle.count_cell(
                root / "old",
                root / "new",
                max_delta_labels=a,
                max_delta_confidence=b,
                expected_by_name=expected_by_name,
            )


def test_criterion_08_scheduler_triggers(tmp_path):
    with SimulatorServer(parse_script(DRIFT_SCRIPT, seed=4)) as sim:
        config = ProxyConfig(
            listen="127.0.0.1:0",
            upstream_url=sim.endpoint,
            service_id="vision-main",
            storage_path=str(tmp_path / "interval"),
            schedule_interval_secs=0.2,
            violation_trigger_z=3,
            rules=ThresholdRules(max_labels=5),
        )
        engine = GuardEngine(config, client=UpstreamClient(sim.endpoint, timeout=5, retries=1))
        items = [
            BenchmarkItem(e["image_ref"], e["ground_truth"], frozenset(e["expected_labels"]))
            for e in MANIFEST_ITEMS
        ]
        engine.initialize_benchmark(items, config.rules)
        gauge = InFlightGauge(engine.client)

        runs = []
        original = engine.run_detection
        engine.run_detection = lambda trigger: runs.append(trigger) or original(trigger)

        engine.start()
        time.sleep(1.0)
        engine.stop()
        assert len(runs) >= 3
        assert gauge.max_seen == 1

        # violation trigger: third 412 fires a run without waiting, from an
        # engine on the same storage and client whose interval never elapses
        runs.clear()
        engine = GuardEngine(replace(config, schedule_interval_secs=10_000), client=engine.client)
        original = engine.run_detection
        engine.run_detection = lambda trigger: runs.append(trigger) or original(trigger)
        engine.start()
        try:
            for _ in range(2):
                engine.annotate("http://images.test/a.jpg", None, ("etag", "f" * 16))
            time.sleep(0.25)
            assert runs == []
            engine.annotate("http://images.test/a.jpg", None, ("etag", "f" * 16))
            deadline = time.monotonic() + 5
            while not runs and time.monotonic() < deadline:
                time.sleep(0.02)
        finally:
            engine.stop()
        assert runs and runs[0] == "violation_threshold"
        assert gauge.max_seen == 1


def test_criterion_09_determinism(tmp_path, capsys):
    rules_path = tmp_path / "rules.conf"
    rules_path.write_text("max_delta_labels=3\nmax_delta_confidence=0.05\n", encoding="utf-8")

    outputs = []
    trees = []
    for run in ("first", "second"):
        root = tmp_path / run
        script, _ = random_drift_script(seed=CORPUS_SEED, n_images=40)
        write_corpus(root / "old", corpus_for_epoch(script, 0))
        write_corpus(root / "new", corpus_for_epoch(script, 1))
        code = main(
            [
                "replay",
                "--old", str(root / "old"),
                "--new", str(root / "new"),
                "--rules", str(rules_path),
            ]
        )
        assert code == 0
        outputs.append(capsys.readouterr().out)
        trees.append(root)

    first_files = sorted((trees[0]).rglob("*.json"))
    second_files = sorted((trees[1]).rglob("*.json"))
    assert [p.relative_to(trees[0]) for p in first_files] == [
        p.relative_to(trees[1]) for p in second_files
    ]
    for a, b in zip(first_files, second_files):
        assert a.read_bytes() == b.read_bytes()
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["totals"]["violating_images"] > 0


def test_criterion_10_ontology_classifier():
    assert len(TOY_EDGES) == 10
    observed = [classify_ontology_change(old, new, TOY) for old, new, _ in REFERENCE_TRANSITIONS]
    expected = [kind for _, _, kind in REFERENCE_TRANSITIONS]
    assert observed == expected
    from collections import Counter

    counts = Counter(observed)
    assert counts[OntologyChangeKind.SPECIALISATION] == 2
    assert counts[OntologyChangeKind.GENERALISATION] == 2
    assert counts[OntologyChangeKind.EMPHASIS_CHANGE] == 2
