"""Smoke test of the benchmark on tiny job lists, one per workload.

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py

It checks that every metric BENCHMARK.json names is printed with its unit,
that the work counters of a traced run repeat exactly for the same seed, and
that the benchmark refuses to run where the regvar sources are missing.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "0", "--trace", str(trace), "--scale", "0.05"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(record_line)["record"], json.loads(result_line)


def assert_metrics(res: dict, spec: list[dict]) -> None:
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["attempted"] >= 1 and res["failed"] == 0
    assert set(res["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        printed = res["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    record, res = result(run(workload, 0))
    assert_metrics(res, SPEC["end_to_end"])
    assert record["p90_samples"] * record["passes"] == res["attempted"]
    assert res["metrics"]["failed_frac"]["value"] > 0.0  # the known defects stay in the load


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat(workload):
    first, res = result(run(workload, 1))
    second, _ = result(run(workload, 1))
    assert_metrics(res, SPEC["per_layer"])
    assert first["counter_mismatch"] == []
    assert first["work_counters"] == second["work_counters"]


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_speed_clock_scales_and_drops_preempted_probes():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import speed

    assert speed.typical([30_000, 40_000, 50_000, 10**9]) == 40_000
    result, error, ns = speed.SpeedClock().call(sum, [1, 2, 3])
    assert (result, error) == (6, None) and ns > 0
