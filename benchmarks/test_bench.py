"""Tests of the benchmark itself.

    python3 -m pytest benchmarks/test_bench.py -q
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bpcbench  # noqa: E402


@pytest.fixture(scope="module")
def expected():
    return bpcbench.load_expected()


@pytest.mark.parametrize("workload", bpcbench.WORKLOADS)
def test_quick_mode_passes_every_check(workload, expected):
    result, details = bpcbench.run_workload(workload, 3, 0, quick=True, expected=expected)
    assert result["correct"], details["failures"]
    assert details["unexpected"] == []
    known = {i for i, _ in details["failures"]}
    assert all(expected[i].get("known_defect") for i in known)
    assert result["attempted"] == details["answers"] * details["passes"] >= 1
    assert result["metrics"]["ok_frac"]["value"] == 1 - result["failed"] / result["attempted"]


def test_known_false_failures_are_counted(expected):
    result, details = bpcbench.run_workload("equiv", 0, 0, quick=True, expected=expected)
    assert "equiv/b/n4" in {i for i, _ in details["failures"]}
    assert result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1


@pytest.mark.parametrize("field", ["rank", "sha256"])
def test_wrong_expected_answer_is_a_failure(field, expected):
    wrong = copy.deepcopy(expected)
    entry = wrong["fill/n8/L2/R3"]
    entry[field] = entry[field] + 1 if field == "rank" else "0" * 64
    result, details = bpcbench.run_workload("fill", 0, 0, quick=True, expected=wrong)
    assert not result["correct"]
    assert details["unexpected"] == ["fill/n8/L2/R3"]
    assert result["failed"] == details["passes"]
    assert result["metrics"]["ok_frac"]["value"] < 1


def test_missing_expectation_is_a_failure(expected):
    partial = {k: v for k, v in expected.items() if k != "model/b/n8"}
    result, details = bpcbench.run_workload("model", 0, 0, quick=True, expected=partial)
    assert not result["correct"]
    assert details["unexpected"] == ["model/b/n8"]


def test_traced_run_reports_every_layer(expected):
    result, details = bpcbench.run_workload("model", 0, 0, trace=True, quick=True,
                                            expected=expected)
    metrics = result["metrics"]
    for layer in bpcbench.LAYERS:
        assert f"{layer}.s" in metrics and f"{layer}.calls" in metrics
    assert metrics["structures.reduce.calls"]["value"] == 3  # one per answer
    assert metrics["structures.reduce.s.n8"]["value"] > 0
    assert 0 < metrics["trace.accounted_frac"]["value"] <= 1
    assert "trace.overhead_s" in metrics


def test_same_seed_same_inputs():
    _, first = bpcbench.setup("fill", 7)
    _, second = bpcbench.setup("fill", 7)
    assert [a.id for a in first] == [a.id for a in second]


def test_slope_of_a_power_law():
    assert bpcbench._slope([(n, 3.0 * n**4.5) for n in (8, 16, 24)]) == pytest.approx(4.5)
    assert bpcbench._slope([(8, 1.0), (16, 0.0)]) == 0.0


def test_cli_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copytree(bpcbench.HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bpcbench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "fill", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_cli_prints_result_last():
    proc = subprocess.run(
        [sys.executable, str(bpcbench.HERE / "run.py"), "--workload", "model", "--seed", "2",
         "--seconds", "0", "--trace", "0", "--quick"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in _benchmark_json()["end_to_end"]}


def test_traced_cli_reports_per_layer_metrics():
    proc = subprocess.run(
        [sys.executable, str(bpcbench.HERE / "run.py"), "--workload", "fill", "--seed", "2",
         "--seconds", "0", "--trace", "1", "--quick"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result["metrics"]) == {m["name"] for m in _benchmark_json()["per_layer"]}


def _benchmark_json():
    return json.loads((bpcbench.ROOT / "BENCHMARK.json").read_text())
