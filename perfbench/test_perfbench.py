"""End-to-end check of the benchmark harness at toy size, with no timing
assertions: every workload the harness offers, untraced and traced, must run,
check its outputs and report exactly the metrics BENCHMARK.json declares.

    python -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_run_reports_declared_metrics(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] == (result["failed"] == 0)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace:
        assert result["metrics"]["cli.main.calls"]["value"] >= 1
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
    proc = _run(tmp_path, "study", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_missing_study_output_is_a_failed_operation(tmp_path):
    def check(_stdout):
        return workloads._study_outputs(tmp_path)

    ops = []
    assert workloads._op(ops, lambda argv: 0, ["study"], check) is None
    assert [op.error.split(":")[0] for op in ops] == ["FileNotFoundError"]
