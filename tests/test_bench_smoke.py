"""Smoke test of the benchmark's traced run against the current sources.

The traced run wraps censem functions by the names censem looks up
(em_core.e_step, em_core.solve_bracketed, model_select.fit, ...), so a
refactor that drops or renames one of them makes it fail here.  About
ten seconds: one fit-large pass at smoke size, untimed.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_fit_large_smoke_run():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fit-large", "--seed", "1",
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
