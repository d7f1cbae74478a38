"""Smoke test of the benchmark itself: one short run of every workload.

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs once untraced and once traced with a tiny ``--seconds``
(so one pass per phase).  The test checks the last output line against
``BENCHMARK.json`` — every metric present with its declared unit — and that
the layers predicted idle on a workload read zero.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, completed.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def _check_units(result: dict, declared: list[dict]) -> None:
    metrics = result["metrics"]
    assert set(metrics) == {metric["name"] for metric in declared}
    for metric in declared:
        assert metrics[metric["name"]]["unit"] == metric["unit"], metric["name"]
        assert isinstance(metrics[metric["name"]]["value"], (int, float))


def test_declared_metrics_match_the_metrics_module():
    sys.path.insert(0, str(ROOT / "perfbench"))
    from metrics import END_TO_END, PER_LAYER

    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: unit for name, (unit, _, _) in END_TO_END.items()
    }
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (unit, _) in PER_LAYER.items()
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = _run(workload, 0)
    _check_units(result, SPEC["end_to_end"])
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    result = _run(workload, 1)
    _check_units(result, SPEC["per_layer"])
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert values["trace.overhead_ratio"] > 0
    assert values["typecheck.check_calls"] > 0
    rpc = [name for name in values if name.startswith("store.rpc.")]
    queue = [name for name in values if name.startswith("store.queue.")]
    if workload == "cold-corpus":
        assert all(values[name] == 0 for name in rpc)
        assert values["sfa.inclusion_calls"] > 0
    if workload == "warm-recheck":
        assert values["sfa.inclusion_calls"] == 0
        assert values["store.hit_ratio"] == 1.0
        assert values["engine.store_misses"] == 0
    if workload == "fleet-drain":
        assert values["store.queue.enqueued"] > 0
        assert values["worker.reemit_walks"] > 0
    else:
        assert all(values[name] == 0 for name in queue)
