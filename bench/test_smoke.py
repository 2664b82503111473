"""Smoke test of the benchmark itself, at the tiny size (seconds per workload).

    python3 -m pytest bench/test_smoke.py -q
"""

import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import SELF_METRICS, check_nesting  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def run(workload: str, trace: int) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), done.stdout


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics(workload):
    result, stdout = run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
        assert f" {name} " in stdout
    assert " failed_frac " in stdout


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_layer_metrics(workload):
    result, _ = run(workload, 1)
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name in SELF_METRICS + ("trace.unattributed_s",):
        assert metrics[name] >= 0.0, name
    total = sum(metrics[name] for name in SELF_METRICS) + metrics["trace.unattributed_s"]
    assert total == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    if workload != "flow-seeded":
        assert metrics["flow.steps"] == 0
    if workload == "fuzz":
        assert all(metrics[k] == 0 for k in metrics
                   if k.startswith("normalize.") and k.endswith(".calls"))

    with open(BENCH / "out" / f"spans-{workload}-seed{SEED}.csv", newline="") as fh:
        spans = [[r["name"], int(r["start_ns"]), int(r["end_ns"]), int(r["parent"])]
                 for r in csv.DictReader(fh)]
    assert spans
    check_nesting(spans, 0, len(spans))
