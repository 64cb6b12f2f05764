"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest perfbench/selftest.py``
(the file name keeps it out of the package's tier-1 collection, like
``benchmarks/bench_*.py``).  Each workload runs once at smoke-test size,
untraced and traced; a corrupted record must raise the error rate.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def run_benchmark(cwd: Path, *arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *arguments], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric(workload: str, trace: int) -> None:
    completed = run_benchmark(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                              "--trace", str(trace), "--tiny")
    assert completed.returncode == 0, completed.stderr[-3000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
        completed.stdout[-3000:]
    expected = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == \
        {metric["name"]: metric["unit"] for metric in expected}
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_corrupted_record_raises_error_rate() -> None:
    from perfbench.common import Checker, check_sweep_records, make_spec
    from repro import Experiment

    spec = make_spec("single-source", 8, 2, 5)
    records = Experiment.from_specs([spec]).run().records()
    clean = Checker()
    check_sweep_records(clean, len(records), records)
    assert clean.attempted > 0 and clean.error_rate == 0

    corrupted = [dict(record) for record in records]
    corrupted[0]["total_messages"] += 1
    checker = Checker()
    check_sweep_records(checker, len(records), corrupted)
    assert checker.error_rate > 0


def test_refuses_to_run_without_the_package(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_benchmark(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                              "--seconds", "1", "--trace", "0")
    assert completed.returncode != 0
    assert "metrics" not in completed.stdout
