"""Smoke test of the benchmark: every workload at toy size, traced and
untraced, prints every metric BENCHMARK.json declares, with its unit.

    python3 -m pytest benchmarks/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH_DIR))
from run import WORKLOADS  # noqa: E402  (every workload, listed in BENCHMARK.json or not)


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / SPEC["command"][1]), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "toy"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180,
                          check=False)


def test_listed_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_prints_every_metric_with_its_unit(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: entry["unit"] for name, entry in result["metrics"].items()}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, a run fails and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    proc = run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
