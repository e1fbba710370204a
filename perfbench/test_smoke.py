"""Smoke test of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/test_smoke.py

Runs each workload once untraced and once traced on a tiny seeded op list and
checks the result line against BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

TINY = {
    "entropy-table": [workloads.table1_op((0, 2), (0.5, 1.5), 0.7)],
    "thermo-sweep": [workloads.thermo_op((0.2, 0.3), 0.5, 3.0, 3, 2)],
    "field-emission": [
        workloads.density_op(1, 0.5, 0.7, "momentum", 201, "json"),
        workloads.entropy_density_op(2, (0.4, 1.2), 0.3, "position", 301, "csv"),
        workloads.heatmap_op(2, 0.5, 101, 0.0, 5.0, 3, "csv"),
    ],
}


@pytest.fixture(autouse=True)
def fewer_repeats(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "IMPORTTIME_REPEATS", 1)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_result_line_has_every_metric(workload, trace):
    result = run.run_workload(workload, seed=7, seconds=60, trace=trace, ops=TINY[workload])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(TINY[workload])
    declared = run.SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and got["value"] >= 0
    json.dumps(result)


def test_same_seed_same_ops():
    first = workloads.one_cycle("thermo-sweep", 3)
    assert first == workloads.one_cycle("thermo-sweep", 3)
    assert first != workloads.one_cycle("thermo-sweep", 4)


def test_fails_without_the_program():
    bare = run.WORK / "bare"  # holds only BENCHMARK.json and the benchmark
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "entropy-table",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
