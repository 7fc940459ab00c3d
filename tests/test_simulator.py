import hashlib
import json

import pytest
import requests

from driftguard.corpus import write_corpus
from driftguard.httpbase import encode_json
from driftguard.simulator import (
    DriftScript,
    ScriptError,
    SimulatorServer,
    Transformation,
    build_epoch_states,
    corpus_for_epoch,
    parse_script,
    random_drift_script,
    script_to_text,
)
from driftguard.types import canonical_json, sha256_hex

import reference_fixtures as refs

SHEEP_SCRIPT = """
# two-epoch confidence drift
[epoch 0]
add http://images.test/sheep.jpg sheep 0.9622207283939614
add http://images.test/sheep.jpg herd 0.7696412038803101

[epoch 1]
shift http://images.test/sheep.jpg sheep 0.01936030388219212
add http://images.test/sheep.jpg mammal 0.9890478253364563
"""

# Digests of the bodies served for random_drift_script(606, 200) and of its
# corpus files; see test_served_bytes_match_the_pinned_format.
SERVED_SHA256 = "3494461a2627c65fd935cecd9d7203fd8a36ad3ab31d7aca27b2031f4b854a35"
CORPUS_SHA256 = "bada0f49ede16019a8edd88f615b8b73f83e0e3b7179c8f28546cb41154a72c0"


class TestParse:
    def test_multiword_labels_and_values(self):
        script = parse_script(
            "[epoch 0]\n"
            "add u terrestrial animal 0.7\n"
            "[epoch 1]\n"
            "drop u terrestrial animal\n"
            "replace_top u motor vehicle 0.9534\n"
        )
        base = script.epochs[0]["u"]
        assert base[0] == Transformation("add", "terrestrial animal", 0.7)
        drift = script.epochs[1]["u"]
        assert drift[0] == Transformation("drop", "terrestrial animal")
        assert drift[1] == Transformation("replace_top", "motor vehicle", 0.9534)

    def test_replace_top_value_optional(self):
        script = parse_script("[epoch 0]\nadd u cat 0.9\n[epoch 1]\nreplace_top u dog\n")
        assert script.epochs[1]["u"][0] == Transformation("replace_top", "dog", None)

    def test_replace_top_without_a_trailing_number_takes_every_word_as_label(self):
        script = parse_script("[epoch 0]\nadd u cat 0.9\n[epoch 1]\nreplace_top u motor vehicle\n")
        assert script.epochs[1]["u"][0] == Transformation("replace_top", "motor vehicle", None)

    @pytest.mark.parametrize(
        "text,match",
        [
            ("add u x 0.5\n", "before any"),
            ("[epoch 1]\n", "out of order"),
            ("[epoch 0]\nwiggle u x\n", "unknown operation"),
            ("[epoch 0]\nadd u x\n", "needs a label and a value"),
            ("[epoch 0]\nadd u x abc\n", "not numeric"),
            ("[epoch zero]\n", "must be an integer"),
            ("", "no epochs"),
            ("[epoch 0\n", "unterminated section header"),
            ("[season 0]\n", r"expected \[epoch N\]"),
            ("[epoch 0]\ndrop u\n", "needs an image_ref and a label"),
        ],
    )
    def test_errors_carry_context(self, text, match):
        with pytest.raises(ScriptError, match=match):
            parse_script(text)

    def test_text_round_trip(self):
        script = parse_script(SHEEP_SCRIPT, seed=3)
        again = parse_script(script_to_text(script), seed=3)
        assert again == script


class TestStates:
    def test_epochs_are_cumulative(self):
        script = parse_script(SHEEP_SCRIPT)
        states = build_epoch_states(script)
        base = states[0]["http://images.test/sheep.jpg"]
        assert base == {
            "sheep": 0.9622207283939614,
            "herd": 0.7696412038803101,
        }
        drifted = states[1]["http://images.test/sheep.jpg"]
        assert drifted["sheep"] == pytest.approx(refs.SHEEP_NEW_CONFIDENCES["sheep"], abs=1e-12)
        assert "mammal" in drifted
        assert drifted["herd"] == base["herd"]

    def test_scripted_shift_reproduces_fixture_delta(self):
        script = parse_script(SHEEP_SCRIPT)
        states = build_epoch_states(script)
        ref = "http://images.test/sheep.jpg"
        delta = states[1][ref]["sheep"] - states[0][ref]["sheep"]
        assert delta == pytest.approx(refs.SHEEP_DELTAS["sheep"], abs=1e-12)

    def test_replace_top_switches_label(self):
        script = parse_script(
            "[epoch 0]\nadd u vehicle 0.9045\nadd u road 0.5\n"
            "[epoch 1]\nreplace_top u motorcycle 0.9534\n"
        )
        states = build_epoch_states(script)
        assert "vehicle" not in states[1]["u"]
        assert states[1]["u"]["motorcycle"] == 0.9534

    def test_invalid_operations_rejected(self):
        with pytest.raises(ScriptError, match="drop of unknown label"):
            build_epoch_states(parse_script("[epoch 0]\ndrop u ghost\n"))
        with pytest.raises(ScriptError, match="add of existing"):
            build_epoch_states(parse_script("[epoch 0]\nadd u x 0.5\nadd u x 0.6\n"))
        with pytest.raises(ScriptError, match="shift of unknown"):
            build_epoch_states(parse_script("[epoch 0]\nshift u ghost 0.1\n"))
        with pytest.raises(ScriptError, match="replace_top on an empty label set"):
            build_epoch_states(parse_script("[epoch 0]\nreplace_top u dog\n"))
        with pytest.raises(ScriptError, match="replace_top target 'dog' already present"):
            build_epoch_states(parse_script("[epoch 0]\nadd u cat 0.9\nadd u dog 0.5\nreplace_top u dog\n"))

    def test_shift_clamps_to_unit_interval(self):
        states = build_epoch_states(
            parse_script("[epoch 0]\nadd u x 0.95\n[epoch 1]\nshift u x 0.2\n")
        )
        assert states[1]["u"]["x"] == 1.0


class TestCorpusForEpoch:
    def test_deterministic_and_sorted(self):
        script, _ = random_drift_script(seed=11, n_images=5)
        first = corpus_for_epoch(script, 1)
        second = corpus_for_epoch(script, 1)
        assert first == second
        refs = [r.image_ref for r in first]
        assert refs == sorted(refs)

    def test_replace_top_transition_observable_in_reports(self):
        from driftguard.diffing import evaluate_epochs
        from driftguard.types import BenchmarkDataset, BenchmarkItem, ThresholdRules

        script = parse_script(
            "[epoch 0]\n"
            "add u vehicle 0.9045\n"
            "add u road 0.5\n"
            "[epoch 1]\n"
            "replace_top u motorcycle 0.9534\n"
        )
        dataset = BenchmarkDataset.create("one", [BenchmarkItem("u", "vehicle")])
        report = evaluate_epochs(
            corpus_for_epoch(script, 0),
            corpus_for_epoch(script, 1),
            dataset,
            ThresholdRules(max_delta_labels=10, max_delta_confidence=1.0),
        )
        delta = report.deltas[0]
        assert delta.top_label_old == "vehicle"
        assert delta.top_label_new == "motorcycle"
        assert delta.top_confidence_delta == pytest.approx(0.9534 - 0.9045, abs=1e-12)

    def test_seed_changes_only_ontology_ids(self):
        script_a, _ = random_drift_script(seed=11, n_images=3)
        script_b = DriftScript(epochs=script_a.epochs, seed=99)
        a = corpus_for_epoch(script_a, 0)
        b = corpus_for_epoch(script_b, 0)
        assert [r.labels() for r in a] == [r.labels() for r in b]
        assert [r.confidences() for r in a] == [r.confidences() for r in b]
        assert a[0].annotations[0].ontology_id != b[0].annotations[0].ontology_id


class TestServer:
    @pytest.fixture()
    def server(self):
        script = parse_script(SHEEP_SCRIPT, seed=5)
        with SimulatorServer(script) as sim:
            yield sim

    def annotate(self, server, url, max_results=10):
        return requests.post(
            server.endpoint, json={"url": url, "maxResults": max_results}, timeout=5
        )

    def test_serves_wire_format(self, server):
        reply = self.annotate(server, "http://images.test/sheep.jpg")
        assert reply.status_code == 200
        annotations = reply.json()["responses"][0]["label_annotations"]
        assert annotations[0]["description"] == "sheep"
        assert annotations[0]["score"] == 0.9622207283939614
        assert annotations[0]["topicality"] == annotations[0]["score"]
        assert annotations[0]["mid"].startswith("/sim/")

    def test_unknown_image_is_wire_404(self, server):
        assert self.annotate(server, "http://images.test/ghost.jpg").status_code == 404

    def test_get_of_an_unknown_path_is_404(self, server):
        assert requests.get(f"{server.base_url}/nowhere", timeout=5).status_code == 404

    @pytest.mark.parametrize(
        "body",
        [
            {"url": []},
            {"url": {}},
            {"url": 5},
            {"url": ""},
            {"url": "http://images.test/sheep.jpg", "maxResults": 0},
            {"url": "http://images.test/sheep.jpg", "maxResults": True},
        ],
        ids=["url-list", "url-object", "url-number", "url-empty", "max-zero", "max-bool"],
    )
    def test_malformed_request_is_400(self, server, body):
        reply = requests.post(server.endpoint, json=body, timeout=5)
        assert reply.status_code == 400
        assert isinstance(reply.json()["error"], str)
        assert "Traceback" not in reply.text

    def test_inconsistent_later_epoch_fails_at_construction(self):
        script = parse_script("[epoch 0]\nadd u x 0.5\n[epoch 1]\ndrop u ghost\n")
        with pytest.raises(ScriptError, match="epoch 1"):
            SimulatorServer(script)

    def test_max_results_respected(self, server):
        reply = self.annotate(server, "http://images.test/sheep.jpg", max_results=1)
        assert len(reply.json()["responses"][0]["label_annotations"]) == 1

    def test_advance_endpoint_flips_epoch(self, server):
        assert server.epoch == 0
        reply = requests.post(f"http://127.0.0.1:{server.port}/advance", timeout=5)
        assert reply.json() == {"epoch": 1}
        assert requests.get(f"http://127.0.0.1:{server.port}/epoch", timeout=5).json() == {
            "epoch": 1
        }
        top = self.annotate(server, "http://images.test/sheep.jpg").json()
        assert top["responses"][0]["label_annotations"][0]["description"] == "mammal"

    def test_advance_saturates_at_last_epoch(self, server):
        requests.post(f"http://127.0.0.1:{server.port}/advance", timeout=5)
        reply = requests.post(f"http://127.0.0.1:{server.port}/advance", timeout=5)
        assert reply.json() == {"epoch": 1}

    def test_same_seed_serves_byte_identical_bodies(self):
        script = parse_script(SHEEP_SCRIPT, seed=5)
        bodies = []
        for _ in range(2):
            with SimulatorServer(script) as sim:
                reply = requests.post(
                    sim.endpoint,
                    json={"url": "http://images.test/sheep.jpg", "maxResults": 10},
                    timeout=5,
                )
                bodies.append(reply.content)
        assert bodies[0] == bodies[1]

    def test_served_bytes_match_the_pinned_format(self):
        """Golden digests of every body the route serves for a fixed script,
        and of the corpus files built from it: the served format may not
        drift, whichever code path builds it."""
        script, items = random_drift_script(606, 200)
        refs_in_order = sorted(item.image_ref for item in items)
        served = hashlib.sha256()
        with SimulatorServer(script) as sim:
            for epoch in (0, 1):
                assert sim.epoch == epoch
                for max_results in (None, 1, 3, 10):
                    for ref in refs_in_order:
                        request = {"url": ref}
                        if max_results is not None:
                            request["maxResults"] = max_results
                        status, _, payload = sim._route("POST", "/annotate", request, {})
                        assert status == 200
                        served.update(encode_json(payload))
                sim.advance_epoch()
        corpus = [[r.to_dict() for r in corpus_for_epoch(script, e)] for e in (0, 1)]
        assert served.hexdigest() == SERVED_SHA256
        assert sha256_hex(canonical_json(corpus)) == CORPUS_SHA256


class TestRandomScript:
    def test_structure_is_seed_deterministic(self):
        a, items_a = random_drift_script(seed=42, n_images=20)
        b, items_b = random_drift_script(seed=42, n_images=20)
        assert a == b
        assert items_a == items_b

    def test_different_seeds_differ(self):
        a, _ = random_drift_script(seed=1, n_images=20)
        b, _ = random_drift_script(seed=2, n_images=20)
        assert a != b

    def test_states_build_cleanly_and_items_align(self):
        script, items = random_drift_script(seed=7, n_images=30)
        states = build_epoch_states(script)
        assert len(states) == 2
        assert sorted(states[0]) == sorted(i.image_ref for i in items)

    def test_corpus_files_are_valid_wire(self, tmp_path):
        script, _ = random_drift_script(seed=7, n_images=4)
        write_corpus(tmp_path, corpus_for_epoch(script, 0))
        for path in tmp_path.glob("*.json"):
            body = json.loads(path.read_text(encoding="utf-8"))
            assert body["responses"][0]["label_annotations"]


def test_responses_order_by_score_then_label():
    script = parse_script("[epoch 0]\nadd u b 0.5\nadd u a 0.5\nadd u c 0.9\n")
    (response,) = corpus_for_epoch(script, 0)
    labels = [a.label for a in response.annotations]
    assert labels == ["c", "a", "b"]
