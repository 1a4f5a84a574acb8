"""censem benchmark: drives the real CLI on seeded synthetic inputs.

Usage (from the repository root):

    python3 bench/run.py --workload fit-large --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload select-boot --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --workload profile-day --seed 1 --seconds 2 --trace 0 --smoke

Workloads (closed loop: each command starts after the previous returns):

* fit-large    one censored sample of 1e5 truth-mixture draws, fitted
               with shapes 1,1 (mle), 2,1 (mle) and 1,1 (direct).  Array
               kernels over a large workspace, file parsing and the
               final full-sample E-step dominate.
* select-boot  the bootstrap BIC/Welch tournament on 30k differences
               (48 ensembles x 4 shapes x 3 fits of 200 points): many
               warm-started tiny fits, where per-iteration Python
               overhead, bootstrap resampling, scalar root solves and
               special functions dominate.  Its cost is spread over many
               ensembles because one ensemble's cost varies a lot with
               its subsample (slow shapes run to hundreds of iterations).
* profile-day  a 10-minute-bucket intraday profile over four session
               files of ~1e5 stamps with a U-shaped arrival rate:
               cold-start mid-size fits plus parsing and bucketing.

A run generates the inputs from --seed (outside all timing), times
the cold import of censem.cli in several fresh interpreters (setup_s),
then starts one worker interpreter that repeats the workload's commands
for --seconds.  It checks the reports (accuracy, tally, bucket rows,
byte-identical reruns) and prints a detail JSON line, then the result
line: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1.  Operations in the result line are CLI commands.  A failed
check makes the exit code non-zero.  --smoke shrinks every input and
skips the two checks that need full-size samples to hold statistically.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")  # relative to ROOT, so report headers repeat
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SHAPES = ("1,1", "0,2", "3,0", "2,1")
DEADLINE_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "fits_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {
        "cli.read_s": "s",
        "cli.main.self_s": "s",
        "sample_data.bootstrap_resample.calls": "count",
        "sample_data.bootstrap_resample.s": "s",
        "sample_data.bucket_by_time.s": "s",
        "sample_data.diff_and_round.s": "s",
        "sample_data.build_sample.calls": "count",
        "sample_data.build_sample.s": "s",
        "sample_data.unique_ratio": "ratio",
        "em_core.fit.calls": "count",
        "em_core.fit.self_s": "s",
        "em_core.fit.ms.p50": "ms",
        "em_core.fit.ms.p99": "ms",
        "em_core.iter_ms": "ms",
    }
    for shape in SHAPES:
        key = shape.replace(",", "-")
        for stat in ("total", "p50", "p90"):
            units[f"em_core.iterations.s{key}.{stat}"] = "count"
    units.update({
        "em_core.converged.share": "share",
        "em_core.max_iter.share": "share",
        "em_core.degenerate.share": "share",
        "em_core.e_step.s": "s",
        "rootfind.solve_bracketed.calls": "count",
        "rootfind.solve_bracketed.s": "s",
        "rootfind.solve_bracketed.evals": "count",
        "rootfind.golden_max.calls": "count",
        "rootfind.golden_max.s": "s",
    })
    for fn in ("gamma_upper", "gamma_lower", "gamma_complete", "d_series"):
        units[f"special_fn.{fn}.calls"] = "count"
        units[f"special_fn.{fn}.s"] = "s"
    units.update({
        "model_select.run_selection.self_s": "s",
        "model_select.welch_t.calls": "count",
        "model_select.profile_intraday.self_s": "s",
    })
    for module in ("cli", "model_select", "sample_data", "em_core", "rootfind", "special_fn"):
        units[f"{module}.self_s"] = "s"
    units.update({
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
        "trace.overhead_share": "share",
    })
    return units


# ---------------------------------------------------------------------------
# workloads: inputs, manifest and output checks
# ---------------------------------------------------------------------------


def parse_report(path: Path) -> tuple[dict[str, str], dict[str, list[list[str]]]]:
    """key=value header and [section] tables (column-header line dropped)."""
    header: dict[str, str] = {}
    sections: dict[str, list[list[str]]] = {}
    current = None
    skip_columns = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], [])
            skip_columns = True
        elif current is None:
            key, _, value = line.partition("=")
            header[key] = value
        elif skip_columns:
            skip_columns = False
        else:
            current.append(line.split())
    return header, sections


class Check:
    def __init__(self):
        self.results: list[dict] = []

    def __call__(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append({"check": name, "ok": bool(ok), "detail": detail})

    def skip(self, name: str, reason: str) -> None:
        self.results.append({"check": name, "ok": True, "skipped": reason})

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.results)


class FitLarge:
    def __init__(self, work: Path, seed: int, smoke: bool):
        self.sample = work / "sample.txt"
        self.reports = [work / "fit-1-1.txt", work / "fit-2-1.txt", work / "fit-1-1-direct.txt"]
        self.seed = seed
        self.draws = 20_000 if smoke else 100_000
        self.smoke = smoke

    def prepare(self) -> dict:
        return gen.censored_sample_file(ROOT / self.sample, self.seed, self.draws)

    def commands(self) -> list[list[str]]:
        base = ["fit", "--input", str(self.sample), "--seed", str(self.seed)]
        return [
            base + ["--output", str(self.reports[0]), "--shape", "1,1"],
            base + ["--output", str(self.reports[1]), "--shape", "2,1"],
            base + ["--output", str(self.reports[2]), "--shape", "1,1", "--m-step", "direct"],
        ]

    def check(self, codes: list[int], check: Check) -> tuple[int, int, dict]:
        headers = []
        failed = 0
        for path, code in zip(self.reports, codes):
            header, sections = parse_report(ROOT / path)
            headers.append((header, sections))
            failed += code != 0 or header["degenerate"] == "true"
        mle, mle_sections = headers[0]
        direct = headers[2][0]
        check("fit 1,1 mle converged", mle["converged"] == "true")
        if self.smoke:
            check.skip("fit 1,1 within criterion-3 tolerances", "smoke-size sample")
        else:
            comps = {row[1]: row for row in mle_sections["components"]}
            w_exp = float(comps["exp"][2])
            a_exp = float(comps["exp"][3])
            a_wbl = float(comps["wbl"][3])
            beta = float(comps["wbl"][4])
            ok = (abs(beta - gen.BETA_WBL) <= 0.02 and abs(w_exp - gen.W_EXP) <= 0.02
                  and abs(a_exp / gen.ALPHA_EXP - 1) <= 0.05
                  and abs(a_wbl / gen.ALPHA_WBL - 1) <= 0.05)
            check("fit 1,1 within criterion-3 tolerances", ok,
                  f"w_exp={w_exp:.4f} alpha_exp={a_exp:.3f} alpha_wbl={a_wbl:.1f} beta={beta:.4f}")
        gap = abs(float(direct["loglik"]) - float(mle["loglik"]))
        check("direct loglik within 1e-3 of mle", gap <= 1e-3, f"gap={gap:.3g}")
        extras = {
            "avg_loglik": float(mle["avg_loglik"]),
            "iterations": {h["shape"] + "/" + h["m_step"]: int(h["iterations"]) for h, _ in headers},
        }
        return len(self.reports), failed, extras


class SelectBoot:
    def __init__(self, work: Path, seed: int, smoke: bool):
        self.diffs = work / "diffs.txt"
        self.report = work / "select.txt"
        self.reports = [self.report]
        self.seed = seed
        self.smoke = smoke
        self.n = 5_000 if smoke else 30_000
        self.days = 2 if smoke else 48
        self.boot = 2

    def prepare(self) -> dict:
        d = gen.diffs_file(ROOT / self.diffs, self.seed, self.n)
        d.update(days=self.days, boot=self.boot, subsample=200)
        return d

    def commands(self) -> list[list[str]]:
        return [[
            "select", "--input", str(self.diffs), "--output", str(self.report),
            "--shapes", ";".join(SHAPES), "--subsample", "200",
            "--days", str(self.days), "--boot", str(self.boot), "--seed", str(self.seed),
        ]]

    def check(self, codes: list[int], check: Check) -> tuple[int, int, dict]:
        header, sections = parse_report(ROOT / self.report)
        check("select exit code 0", codes[0] == 0, f"exit={codes[0]}")
        tally = {row[0]: float(row[1]) for row in sections["tally"]}
        total = sum(tally.values())
        check("tally sums to 1", abs(total - 1.0) <= 1e-9, f"sum={total!r}")
        if self.smoke:
            check.skip("1,1 tally share >= 0.5", "smoke-size tournament")
        else:
            check("1,1 tally share >= 0.5", tally["1,1"] >= 0.5, f"tally={tally}")
        attempted = self.days * len(SHAPES) * (self.boot + 1)
        rows = sections["bic"]
        check("one bic row per ensemble and shape", len(rows) == self.days * len(SHAPES),
              f"rows={len(rows)}")
        failed = sum(int(row[6]) for row in rows)
        extras = {"tally_baseline": tally["1,1"], "tally": tally,
                  "dropped_ensembles": int(header["dropped_ensembles"])}
        return attempted, failed, extras


class ProfileDay:
    def __init__(self, work: Path, seed: int, smoke: bool):
        self.days = [work / f"day{d}.txt" for d in range(1 if smoke else 4)]
        self.report = work / "profile.txt"
        self.reports = [self.report]
        self.seed = seed
        self.stamps = 20_000 if smoke else 100_000

    def prepare(self) -> dict:
        return gen.stamp_files([ROOT / p for p in self.days], self.seed, self.stamps)

    def commands(self) -> list[list[str]]:
        argv = ["profile", "--output", str(self.report), "--shape", "1,1",
                "--bucket-minutes", "10"]
        for path in self.days:
            argv += ["--input", str(path)]
        return [argv]

    def check(self, codes: list[int], check: Check) -> tuple[int, int, dict]:
        _, sections = parse_report(ROOT / self.report)
        check("profile exit code 0", codes[0] == 0, f"exit={codes[0]}")
        rows = sections["buckets"]
        n_buckets = (gen.SESSION_END_MS - gen.SESSION_START_MS) // gen.BUCKET_MS
        check("bucket count matches the session", len(rows) == n_buckets,
              f"rows={len(rows)} expected={n_buckets}")
        finite = all(math.isfinite(float(v)) for row in rows for v in row[2:6])
        check("every bucket row finite", finite)
        skipped = sections["skipped"]
        attempted = sum(int(row[6]) for row in rows) + len(skipped)
        extras = {"skipped": [" ".join(row) for row in skipped]}
        return attempted, len(skipped), extras


WORKLOADS = {"fit-large": FitLarge, "select-boot": SelectBoot, "profile-day": ProfileDay}


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


PROBE = (
    "import time; t = time.perf_counter(); import censem.cli as c; "
    "d = time.perf_counter() - t; print(d); print(c.__file__)"
)


def probe_import(env: dict[str, str], timeout: float) -> float:
    """Cold import of censem.cli in a fresh interpreter, in seconds."""
    out = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=timeout, check=True,
    ).stdout.split("\n")
    if SRC.resolve() not in Path(out[1]).resolve().parents:
        raise RuntimeError(f"censem.cli imported from {out[1]}, not from {SRC}")
    return float(out[0])


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: "1" for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


def layer_metrics(trace: dict, traced_walls: list[float], untraced_walls: list[float]) -> dict:
    """Per-round per-layer numbers from the worker's trace totals."""
    rounds = len(traced_walls)
    totals = {name: {"calls": t[0] / rounds, "s": t[1] / rounds, "self_s": t[2] / rounds}
              for name, t in trace["totals"].items()}
    zero = {"calls": 0.0, "s": 0.0, "self_s": 0.0}

    def get(name: str, stat: str) -> float:
        return totals.get(name, zero)[stat]

    def module_self(module: str) -> float:
        return sum(t["self_s"] for n, t in totals.items() if n.startswith(module + "."))

    fits = trace["fits"]
    n_fits = len(fits) + trace["fit_raised"]
    fit_ms = [f["ms"] for f in fits]
    iters = sum(f["iterations"] for f in fits)
    m = {
        "cli.read_s": get("cli.read_censored_sample", "s") + get("cli.read_integer_series", "s"),
        "cli.main.self_s": get("cli.main", "self_s"),
        "sample_data.bootstrap_resample.calls": get("sample_data.bootstrap_resample", "calls"),
        "sample_data.bootstrap_resample.s": get("sample_data.bootstrap_resample", "s"),
        "sample_data.bucket_by_time.s": get("sample_data.bucket_by_time", "s"),
        "sample_data.diff_and_round.s": get("sample_data.diff_and_round", "s"),
        "sample_data.build_sample.calls": get("sample_data.build_sample", "calls"),
        "sample_data.build_sample.s": get("sample_data.build_sample", "s"),
        "sample_data.unique_ratio": statistics.fmean(f["unique_ratio"] for f in fits) if fits else 0.0,
        "em_core.fit.calls": n_fits / rounds,
        "em_core.fit.self_s": get("em_core.fit", "self_s"),
        "em_core.fit.ms.p50": quantile(fit_ms, 0.5),
        "em_core.fit.ms.p99": quantile(fit_ms, 0.99),
        "em_core.iter_ms": sum(fit_ms) / iters if iters else 0.0,
    }
    for shape in SHAPES:
        key = shape.replace(",", "-")
        its = [f["iterations"] for f in fits if f["shape"] == key]
        m[f"em_core.iterations.s{key}.total"] = sum(its) / rounds
        m[f"em_core.iterations.s{key}.p50"] = quantile(its, 0.5)
        m[f"em_core.iterations.s{key}.p90"] = quantile(its, 0.9)
    degenerate = sum(f["degenerate"] for f in fits) + trace["fit_raised"]
    converged = sum(f["converged"] and not f["degenerate"] for f in fits)

    def share(k: int) -> float:
        return k / n_fits if n_fits else 0.0

    m.update({
        "em_core.converged.share": share(converged),
        "em_core.max_iter.share": share(n_fits - converged - degenerate),
        "em_core.degenerate.share": share(degenerate),
        "em_core.e_step.s": get("em_core.e_step", "s"),
        "rootfind.solve_bracketed.calls": get("rootfind.solve_bracketed", "calls"),
        "rootfind.solve_bracketed.s": get("rootfind.solve_bracketed", "s"),
        "rootfind.solve_bracketed.evals": trace["root_evals"] / rounds,
        "rootfind.golden_max.calls": get("rootfind.golden_max", "calls"),
        "rootfind.golden_max.s": get("rootfind.golden_max", "s"),
    })
    for fn in ("gamma_upper", "gamma_lower", "gamma_complete", "d_series"):
        m[f"special_fn.{fn}.calls"] = get(f"special_fn.{fn}", "calls")
        m[f"special_fn.{fn}.s"] = get(f"special_fn.{fn}", "s")
    m.update({
        "model_select.run_selection.self_s": get("model_select.run_selection", "self_s"),
        "model_select.welch_t.calls": get("model_select.welch_t", "calls"),
        "model_select.profile_intraday.self_s": get("model_select.profile_intraday", "self_s"),
    })
    for module in ("cli", "model_select", "sample_data", "em_core", "rootfind", "special_fn"):
        m[f"{module}.self_s"] = module_self(module)
    traced = statistics.median(traced_walls)
    untraced = statistics.median(untraced_walls)
    m.update({
        "trace.wall_s": traced,
        "trace.overhead_s": traced - untraced,
        "trace.overhead_share": (traced - untraced) / untraced,
    })
    return m


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def run(args) -> int:
    started = time.perf_counter()
    if not (SRC / "censem" / "cli.py").is_file():
        print(f"error: {SRC / 'censem'} not found; run from a censem checkout", file=sys.stderr)
        return 2
    work = WORK / args.workload
    shutil.rmtree(ROOT / work, ignore_errors=True)
    (ROOT / work).mkdir(parents=True)
    workload = WORKLOADS[args.workload](work, args.seed, args.smoke)
    descriptor = workload.prepare()

    env = child_env()
    probes = 1 if args.smoke else 4
    probe_import(env, timeout=60)  # fills bytecode caches; not counted
    setup = [probe_import(env, timeout=60) for _ in range(probes)]

    config = {
        "src": str(SRC),
        "commands": workload.commands(),
        "outputs": [str(p) for p in workload.reports],
        "seconds": args.seconds,
        # Traced runs alternate untraced and traced rounds; two pairs keep
        # the overhead estimate from resting on a single pair.
        "min_rounds": 4 if args.trace else 2,
        "trace": bool(args.trace),
        "spans": str(work / "spans.json"),
        "result": str(work / "worker.json"),
    }
    (ROOT / work / "config.json").write_text(json.dumps(config))
    timeout = DEADLINE_S - (time.perf_counter() - started)
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), str(work / "config.json")],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads((ROOT / work / "worker.json").read_text())
    setup.append(result["import_s"])
    rounds = result["rounds"]

    check = Check()
    for i, path in enumerate(workload.reports):
        hashes = {r["hashes"][i] for r in rounds}
        check(f"byte-identical reruns of {path.name}", len(hashes) == 1,
              f"{len(rounds)} rounds, {len(hashes)} distinct")
    codes = [r["exit_codes"] for r in rounds]
    check("same exit codes every round", all(c == codes[0] for c in codes))
    fits, fits_failed, extras = workload.check(codes[0], check)

    untraced = [sum(r["wall_s"]) for r in rounds if not r["traced"]]
    traced = [sum(r["wall_s"]) for r in rounds if r["traced"]]
    wall = statistics.median(untraced)
    reference = statistics.median(result["reference_s"])
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "environment": environment(),
        "inputs": descriptor,
        "commands": config["commands"],
        "report_sha256": {p.name: rounds[0]["hashes"][i] for i, p in enumerate(workload.reports)},
        "checks": check.results,
        "rounds": len(untraced),
        "wall_s_samples": untraced,
        "command_wall_s": [statistics.median(r["wall_s"][i] for r in rounds if not r["traced"])
                           for i in range(len(config["commands"]))],
        "setup_s_samples": setup,
        "reference_s_samples": result["reference_s"],
        "fits_per_round": fits,
        "fail_share": fits_failed / fits,
        **extras,
    }
    print(json.dumps({"detail": detail}))

    if args.trace:
        units = per_layer_units()
        values = layer_metrics(result["trace"], traced, untraced)
    else:
        units = END_TO_END
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "fits_per_s": fits / wall,
            "peak_rss_mb": result["peak_rss_mb"],
        }
    printed = {name: (values[name], unit) for name, unit in units.items()}
    if not args.trace:
        # Figures that are not declared metrics (sample counts, the host
        # speed diagnostic, quality figures that may be 0) are printed for
        # reading but stay out of the result line.
        printed["wall_s.samples"] = (len(untraced), "count")
        printed["reference_s"] = (reference, "s")
        printed["fail_share"] = (detail["fail_share"], "share")
        for key, unit in (("avg_loglik", "nats"), ("tally_baseline", "share")):
            if key in extras:
                printed[key] = (extras[key], unit)
    for name, (value, unit) in printed.items():
        print(f"{name:42s} {value:.6g} {unit}")
    # An operation is one CLI command: it fails on a non-zero exit code.
    # Fits that a command skipped by design (degenerate bootstrap replicas,
    # profile buckets) show in fail_share and em_core.degenerate.share.
    n_rounds = len(traced) if args.trace else len(untraced)
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": len(config["commands"]) * n_rounds,
        "failed": sum(code != 0 for code in codes[0]) * n_rounds + check.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 1 if check.failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for testing the benchmark")
    args = parser.parse_args(argv)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
