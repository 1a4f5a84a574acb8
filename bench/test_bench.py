"""Smoke tests for the benchmark itself.

Run from the repository root:  python3 -m pytest bench/test_bench.py

Every workload runs at smoke size, untraced and traced, and the result
line must carry exactly the metrics BENCHMARK.json declares, each with
its unit.  The benchmark must also refuse to run without the censem
sources next to it.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc) -> tuple[dict, dict]:
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0])["detail"], json.loads(lines[-1])


def test_spec_matches_benchmark():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import run
    finally:
        sys.path.remove(str(BENCH_DIR))
    assert sorted(WORKLOADS) == sorted(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_schema(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    detail, result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]
    assert all(c["ok"] for c in detail["checks"])
    assert detail["environment"]["threads"]["OMP_NUM_THREADS"] == "1"


def test_reports_repeat_across_runs():
    first, _ = _result(_run("select-boot", 0, seed=5))
    second, _ = _result(_run("select-boot", 0, seed=5))
    assert first["report_sha256"] == second["report_sha256"]
    assert first["inputs"] == second["inputs"]


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("fit-large", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
