"""Smoke test of the benchmark's traced runs against the current sources.

The traced run wraps censem functions by the names censem looks up
(em_core.e_step, em_core.solve_bracketed, model_select.fit,
model_select.bootstrap_resample, ...), so a refactor that drops or
renames one of them makes it fail here.  em_core imports
solve_bracketed for that reason alone: the mle M-step takes one Newton
step per shape and calls no root solver, so the tracer's
rootfind.solve_bracketed metrics read 0 on every workload.  Each workload runs one pass at
smoke size, untimed: about nine seconds each for fit-large and
select-boot, five for profile-day.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["fit-large", "select-boot", "profile-day"])
def test_traced_smoke_run(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in spec["per_layer"]:
        value = result["metrics"][metric["name"]]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), metric["name"]
