"""Golden fence: sha256 digests of the bytes the guard writes and serves for
a fixed drift script, a fixed clock and a fixed demo corpus. A change to how
input is read or checked may not move any of them.

Run as a script, `python tests/test_golden.py OUT N` writes every artifact
for `random_drift_script(606, N)` under OUT, one file each, so two checkouts
can be compared with cmp at any size.
"""

import hashlib
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from unittest import mock

import requests

from driftguard.config import ProxyConfig
from driftguard.engine import OUTCOME_ROTATED, GuardEngine
from driftguard.httpbase import encode_json
from driftguard.proxy import ProxyServer
from driftguard.simulator import SimulatorServer, random_drift_script
from driftguard.token import etag_of
from driftguard.types import ThresholdRules
from driftguard.wire import parse_wire_response, serialize_wire

DEMO_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_demo_corpus.py"
T_EPOCH_0 = datetime(2026, 3, 1, 12, 0, 0, tzinfo=timezone.utc)
T_EPOCH_1 = datetime(2026, 3, 9, 12, 0, 0, tzinfo=timezone.utc)

# A wire body whose scores and topicalities are JSON integers.
INTEGER_WIRE = {
    "responses": [
        {
            "label_annotations": [
                {"mid": "/m/01", "description": "cat", "score": 1, "topicality": 1},
                {"mid": "/m/02", "description": "animal", "score": 0, "topicality": 0},
                {"description": "pet", "score": 0.5},
            ]
        }
    ]
}

GOLDEN_SHA256 = {
    "token_id_0": "a366a0df637d41f2317812706cc7119ea2afb6d42519a38d5e44a4440ae510c4",
    "token_id_1": "f17f90e5790814b755225654871fa1dbfc9f6c3a2f346b62a0b6baf8f05d7f99",
    "token_0": "6612820864d55b0bda896d2883e4a0ea2eb37e6bc66211106d018a61dc71020f",
    "token_1": "e46be493c7d66db6e6a5d4840d6fd45d0104194ce1ba57b0f0a64e8a06878a6e",
    "dataset": "374d6805b2d785a17e796d4cbc079adbbb97165d51e06203e5501bb85923065d",
    "stale_412": "abe6751b1c6351d52f75d703dac8e8fffb9404fa956720484d937122d9ab0f4b",
    "annotate_200": "02a88cccf66e7da8e96b1819900ad654e244af2dbc587e4349fdfabbfc4419c6",
    "replay_stdout": "6c6301200d3ade030731075bd24701444adc7e32ce9d5d1701e482cc1f732f58",
    "tune_stdout": "75b8ec5f6d322bd376bf3b89af18b543a4297fcd5408bfa50a7e9cb08fed5963",
    "integer_wire": "b7eb31ffe2d3c800cba6ac7564a93ff90b68604f982dc80ba8cd1e40bc8fc1ba",
}


def _cli_stdout(*argv) -> bytes:
    result = subprocess.run(
        [sys.executable, "-m", "driftguard", *argv], capture_output=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def artifacts(directory: Path, n_images: int) -> dict:
    """name -> bytes of every fenced artifact at `n_images` images."""
    out = {}
    script, items = random_drift_script(606, n_images)
    clock = [T_EPOCH_0]
    # the engine stamps tokens and the upstream client stamps responses
    with SimulatorServer(script) as sim, mock.patch(
        "driftguard.upstream.utc_now_second", lambda: clock[0]
    ):
        config = ProxyConfig(
            listen="127.0.0.1:0",
            upstream_url=sim.endpoint,
            service_id="vision-golden",
            storage_path=str(directory / "storage"),
            rules=ThresholdRules(max_labels=8),
        )
        engine = GuardEngine(config, now_fn=lambda: clock[0])
        with ProxyServer(config, engine) as proxy:
            first = engine.initialize_benchmark(items, config.rules)
            sim.advance_epoch()
            clock[0] = T_EPOCH_1
            assert engine.run_detection("manual").outcome == OUTCOME_ROTATED
            second = engine.store.current
            for name, token, status in (("stale_412", first, 412), ("annotate_200", second, 200)):
                reply = requests.post(
                    f"{proxy.base_url}/annotate",
                    json={"url": items[0].image_ref},
                    headers={"If-Match": etag_of(token)},
                    timeout=30,
                )
                assert reply.status_code == status
                out[name] = reply.content
    out["token_id_0"] = first.token_id.encode()
    out["token_id_1"] = second.token_id.encode()
    out["token_0"] = engine.store.path_for(first).read_bytes()
    out["token_1"] = engine.store.path_for(second).read_bytes()
    (dataset_file,) = (directory / "storage").glob("dataset-*.json")
    out["dataset"] = dataset_file.read_bytes()

    corpus = directory / "demo"
    subprocess.run(
        [sys.executable, str(DEMO_SCRIPT), "--out", str(corpus), "--images", str(n_images)],
        check=True, capture_output=True, timeout=120,
    )
    pair = ("--old", str(corpus / "epoch0"), "--new", str(corpus / "epoch1"),
            "--manifest", str(corpus / "benchmark.tsv"))
    out["replay_stdout"] = _cli_stdout("replay", *pair, "--rules", str(corpus / "rules.conf"))
    out["tune_stdout"] = _cli_stdout(
        "tune", *pair, "--labels", "1,3,5,8", "--confs", "0.01,0.05,0.1,0.3", "--pretty"
    )
    parsed = parse_wire_response(INTEGER_WIRE, "http://images.test/int.jpg", T_EPOCH_0)
    out["integer_wire"] = encode_json(serialize_wire(parsed))
    return out


def test_fenced_bytes_match_the_pinned_digests(tmp_path):
    digests = {
        name: hashlib.sha256(data).hexdigest() for name, data in artifacts(tmp_path, 200).items()
    }
    assert digests == GOLDEN_SHA256


if __name__ == "__main__":
    target = Path(sys.argv[1])
    target.mkdir(parents=True, exist_ok=True)
    for name, data in artifacts(target / "work", int(sys.argv[2])).items():
        (target / name).write_bytes(data)
