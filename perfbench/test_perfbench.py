"""The benchmark's own tests: quick mode (toy64) with every check on.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

from run import tail  # noqa: E402


def run_quick(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--quick", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def results(stdout: str) -> list[tuple[dict, dict]]:
    lines = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    return [(lines[i]["report"], lines[i + 1]) for i in range(0, len(lines), 2)]


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_quick_mode_reports_every_metric_and_passes_its_checks(trace, section):
    done = run_quick("--trace", trace, "--seed", "7")
    assert done.returncode == 0, done.stderr
    runs = results(done.stdout)
    assert [report["context"]["workload"] for report, _ in runs] == [
        workload["name"] for workload in BENCHMARK["workloads"]
    ]
    expected = {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}
    for report, result in runs:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, report["check_failures"]
        assert result["attempted"] >= 1
        assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
        assert report["failed_frac"] == 0.0


def test_injected_faults_are_rejected_or_retried_not_failed():
    # Seed 28's fault schedule corrupts archive blobs and response frames.
    done = run_quick("--seed", "28")
    report, result = results(done.stdout)[-1]
    assert report["context"]["workload"] == "catch_up"
    assert report["service_stats"]["rejected"] > 0
    assert report["service_stats"]["retries"] > 0
    assert result["correct"] and result["failed"] == 0


def test_same_seed_gives_same_wire_digest_and_op_counts():
    first, second = (results(run_quick("--seed", "3").stdout) for _ in range(2))
    for (report_a, _), (report_b, _) in zip(first, second):
        assert report_a["wire_digest"] == report_b["wire_digest"]
        assert report_a["op_counts_per_unit"] == report_b["op_counts_per_unit"]


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_flow",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = list(range(1, 42))  # 41 samples: index 30 has 10 above it
    assert tail(samples) == (31, 75.0, 41)
    assert tail([5.0, 1.0, 3.0]) == (5.0, 100.0, 3)
