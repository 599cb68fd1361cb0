"""Lemma-1 campaign reports pinned bit for bit.

``data/campaign_reports_golden.json`` holds, for every instance of the
600-instance campaign at seed 2 run in process, the six floats of its bound
report and the SHA-256 of its violation record (``stable_json_dumps``). With
``DOMINANCE_SLACK`` patched to -10 every instance is a violation, so every
report is recorded, controls included. The campaign covers every
(scheme, d, m) the generator draws, pure and mixed inputs, and is longer
than two chunks of the stacked evaluation, so it crosses chunk boundaries.
The file was recorded from the one-instance-at-a-time evaluation that came
before it; every float and every record must come back exactly.

Rewrite the file with ``python tests/test_campaign_golden.py`` (from the
repository root, with ``src`` on ``PYTHONPATH``).
"""

import hashlib
import itertools
import json
from pathlib import Path

import pytest

import splitsim.harness
from splitsim.harness import lemma1_campaign, stable_json_dumps

GOLDEN_PATH = Path(__file__).parent / "data" / "campaign_reports_golden.json"
N_INSTANCES, SEED = 600, 2


def _records(mp) -> list[dict]:
    """Every instance's report floats and record digest, in index order."""
    mp.setattr(splitsim.harness, "DOMINANCE_SLACK", -10.0)
    mp.setattr(splitsim.harness, "_shard_count", lambda n: 1)
    out = []
    for record in lemma1_campaign(N_INSTANCES, SEED).violations:
        terms = record["termset"]["terms"]
        out.append({
            "index": record["index"],
            "scheme": record["scheme"],
            "d": record["termset"]["dim"],
            "m": len(terms),
            "report": record["report"],
            "sha256": hashlib.sha256(stable_json_dumps(record).encode()).hexdigest(),
        })
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def fresh():
    with pytest.MonkeyPatch.context() as mp:
        return json.loads(json.dumps(_records(mp)))


def test_golden_covers_every_instance_kind(golden):
    assert golden["n_instances"] == N_INSTANCES and golden["seed"] == SEED
    assert N_INSTANCES > 2 * splitsim.harness._CHUNK_INSTANCES
    cases = golden["instances"]
    assert [c["index"] for c in cases] == list(range(N_INSTANCES))
    random_keys = {(c["scheme"], c["d"], c["m"]) for c in cases if c["scheme"] != "control"}
    schemes = ("alg1", "alg2", "trotter", "strang")
    assert random_keys == set(itertools.product(schemes, range(2, 9), (2, 3)))
    assert {c["d"] for c in cases if c["scheme"] == "control"} == {2, 3, 4}
    mixed = {c["report"]["input_dist"] > 0.0 for c in cases if c["scheme"] != "control"}
    assert mixed == {False, True}


def test_every_report_and_record_is_unchanged(golden, fresh):
    assert len(fresh) == len(golden["instances"])
    for got, want in zip(fresh, golden["instances"]):
        assert got["report"] == want["report"], got["index"]
        assert got["sha256"] == want["sha256"], got["index"]
        assert got == want


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as mp:
        lines = [json.dumps(c, sort_keys=True) for c in _records(mp)]
    GOLDEN_PATH.write_text(
        f'{{"n_instances": {N_INSTANCES}, "seed": {SEED}, "instances": [\n'
        + ",\n".join(lines) + "\n]}\n"
    )
