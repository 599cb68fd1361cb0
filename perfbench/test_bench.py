"""Self-test of the benchmark: every workload at a tiny size.

Run from the repository root (about a minute):

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "perfbench"))
import spans  # noqa: E402


def _run(workload: str, trace: int, cwd: Path = ROOT):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return done


def _result(done) -> tuple[list, dict]:
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return lines, result


def _printed(lines: list, metrics: dict) -> None:
    for name, m in metrics.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {m['unit']}")
                   for line in lines), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_print_with_units(workload):
    lines, result = _result(_run(workload, 0))
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in result["metrics"].values())
    _printed(lines, result["metrics"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_call_counts_repeat(workload):
    lines, first = _result(_run(workload, 1))
    _, second = _result(_run(workload, 1))
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == wanted
    _printed(lines, first["metrics"])
    calls = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")}
             for r in (first, second)]
    assert calls[0] == calls[1]
    assert calls[0]["cli.main.calls"] >= 1


def test_per_layer_list_matches_tracer():
    assert [m["name"] for m in SPEC["per_layer"]] == list(spans.PER_LAYER)


def test_fails_without_the_package():
    done = _run(WORKLOADS[0], 0, cwd=ROOT / "perfbench")
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("k, products", [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (255, 14), (256, 8)])
def test_matrix_power_products(k, products):
    assert spans.matrix_power_products(k) == products
