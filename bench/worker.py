"""Benchmark worker: one fresh interpreter per run.

Usage: python3 bench/worker.py CONFIG.json

Times the cold import of censem.cli, then calls cli.main on each
command of the workload manifest, round after round, until the
configured seconds are used up.  Between rounds (outside the timed
calls) it hashes every report, so the caller can check that reruns are
byte-identical, and times a fixed reference task that shows how fast the
host ran meanwhile.  With trace on, rounds alternate untraced and
traced; the traced ones run with tracing.Tracer wrappers installed.  The
result is written as JSON to the path named in the config.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _reference_s() -> float:
    """Seconds for a fixed task that mixes what censem spends its time on:
    scalar Python math, numpy calls on 200-element arrays and numpy
    kernels on 1e5-element arrays.  It does not touch censem, so a change
    in its time between runs means the host, not the program, changed
    speed."""
    import math

    import numpy as np  # after the timed censem.cli import, so already loaded

    x = np.linspace(1.0, 2.0, 100_000)
    t = time.perf_counter()
    acc = 0.0
    for i in range(6000):
        y = x[:200] * (1.0 + 1e-6 * i)
        acc += float(np.exp(-y).sum()) + math.log1p(i)
    for _ in range(100):
        acc += float(np.log(x).sum() + np.exp(-x).sum())
    return time.perf_counter() - t


def main(config_path: str) -> int:
    cfg = json.loads(Path(config_path).read_text())
    t0 = time.perf_counter()
    import censem.cli as cli

    import_s = time.perf_counter() - t0
    src = Path(cfg["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"censem.cli imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if cfg["trace"]:
        import censem.em_core as em_core
        import censem.model_select as model_select
        from tracing import Tracer

        tracer = Tracer()
        modules = {"cli": cli, "model_select": model_select, "em_core": em_core}

    rounds = []
    refs = []
    start = time.perf_counter()
    last = 0.0
    # A round starts only if it should end within the run's seconds, so
    # run length stays predictable however long one round takes.
    while (len(rounds) < cfg["min_rounds"]
           or time.perf_counter() - start + last <= cfg["seconds"]):
        began = time.perf_counter()
        refs.append(_reference_s())
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install(modules)
        walls, codes = [], []
        for argv in cfg["commands"]:
            t = time.perf_counter()
            code = tracer.span("cli.main", cli.main, argv) if traced else cli.main(argv)
            walls.append(time.perf_counter() - t)
            codes.append(code)
        if traced:
            tracer.uninstall()
        rounds.append({
            "traced": traced,
            "wall_s": walls,
            "exit_codes": codes,
            "hashes": [_sha256(p) for p in cfg["outputs"]],
        })
        last = time.perf_counter() - began

    result = {
        "import_s": import_s,
        "rounds": rounds,
        "reference_s": refs + [_reference_s()],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["trace"] = {
            "totals": tracer.totals,
            "fits": [vars(f) for f in tracer.fits],
            "fit_raised": tracer.fit_raised,
            "root_evals": tracer.root_evals,
        }
        Path(cfg["spans"]).write_text(json.dumps(
            {"columns": ["id", "parent", "name", "start", "end"], "spans": tracer.spans}
        ))
    Path(cfg["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
