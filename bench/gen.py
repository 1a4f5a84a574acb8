"""Seeded input generator for the benchmark workloads.

Every input file is written here with plain numpy, before any timing
starts; the program under test only ever reads the files.  The same
seed gives byte-identical files.  Each generator returns a descriptor
dict (sizes, censored counts, compression) that goes into the result.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# The paper's truth mixture: 0.2 Exp(17 ms) + 0.8 Weibull(2500 ms, 0.57).
W_EXP = 0.2
ALPHA_EXP = 17.0
ALPHA_WBL = 2500.0
BETA_WBL = 0.57

SESSION_START_MS = 9 * 3_600_000
SESSION_END_MS = 17 * 3_600_000 + 30 * 60_000
BUCKET_MS = 10 * 60_000


def mixture_draws(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    """n draws from the truth mixture with both scales multiplied by `scale`."""
    is_exp = rng.random(n) < W_EXP
    exp_part = rng.exponential(ALPHA_EXP * scale, n)
    wbl_part = ALPHA_WBL * scale * rng.weibull(BETA_WBL, n)
    return np.where(is_exp, exp_part, wbl_part)


def round_ms(x: np.ndarray) -> np.ndarray:
    """The exchange clock: [0, 0.5) -> 0, [0.5, 1.5) -> 1, ..."""
    return np.floor(x + 0.5).astype(np.int64)


def _write_lines(path: Path, header: list[str], values: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in header:
            fh.write(line + "\n")
        fh.write("\n".join(map(str, values.tolist())))
        fh.write("\n")


def censored_sample_file(path: Path, seed: int, n: int) -> dict:
    """Censored-sample file of n rounded truth-mixture draws; zeros go
    to the single interval [0, 0.5)."""
    rng = np.random.default_rng([seed, 1])
    diffs = round_ms(mixture_draws(rng, n))
    exact = diffs[diffs > 0]
    zeros = int(diffs.size - exact.size)
    _write_lines(path, [f"n={exact.size}", "L=1", f"interval 0 0.5 {zeros}"], exact)
    unique = int(np.unique(exact).size)
    return {
        "draws": n,
        "exact": int(exact.size),
        "censored": zeros,
        "unique_exact": unique,
        "unique_ratio": unique / exact.size,
    }


def diffs_file(path: Path, seed: int, n: int) -> dict:
    """n rounded truth-mixture differences, one integer per line."""
    rng = np.random.default_rng([seed, 2])
    diffs = round_ms(mixture_draws(rng, n))
    _write_lines(path, [f"# {n} rounded truth-mixture differences, seed {seed}"], diffs)
    exact = diffs[diffs > 0]
    return {
        "draws": n,
        "censored": int(diffs.size - exact.size),
        "unique_ratio": int(np.unique(exact).size) / exact.size,
    }


def _intensity(t_ms: np.ndarray) -> np.ndarray:
    """Intraday U-shape: five times busier at the open and close than at
    midday."""
    mid = 0.5 * (SESSION_START_MS + SESSION_END_MS)
    half = 0.5 * (SESSION_END_MS - SESSION_START_MS)
    x = (t_ms - mid) / half
    return 1.0 + 4.0 * x * x


def day_stamps(rng: np.random.Generator, stamps_per_day: int) -> np.ndarray:
    """One session of sorted ms timestamps with about stamps_per_day events.

    Gaps are truth-mixture draws in operational time, mapped to clock
    time through the cumulative intensity, so busy periods get shorter
    gaps (and more zeros) without changing the mixture's shape.
    """
    grid = np.linspace(SESSION_START_MS, SESSION_END_MS, 30_601)
    lam = _intensity(grid)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (lam[1:] + lam[:-1]) * np.diff(grid))])
    span = cum[-1]
    mean_gap = W_EXP * ALPHA_EXP + (1 - W_EXP) * ALPHA_WBL * math.gamma(1 + 1 / BETA_WBL)
    scale = span / stamps_per_day / mean_gap
    tau = np.cumsum(mixture_draws(rng, int(stamps_per_day * 1.2) + 100, scale))
    tau = tau[tau < span]
    clock = np.interp(tau, cum, grid)
    stamps = round_ms(clock)
    return stamps[(stamps >= SESSION_START_MS) & (stamps < SESSION_END_MS)]


def stamp_files(paths: list[Path], seed: int, stamps_per_day: int) -> dict:
    """One timestamp file per day; returns stamps per day and the range of
    10-minute bucket sizes."""
    n_buckets = (SESSION_END_MS - SESSION_START_MS) // BUCKET_MS
    per_day = []
    sizes = []
    for day, path in enumerate(paths):
        rng = np.random.default_rng([seed, 3, day])
        stamps = day_stamps(rng, stamps_per_day)
        _write_lines(path, [f"# session stamps, seed {seed}, day {day}"], stamps)
        per_day.append(int(stamps.size))
        sizes.append(np.bincount((stamps - SESSION_START_MS) // BUCKET_MS, minlength=n_buckets))
    sizes = np.concatenate(sizes)
    return {
        "days": len(paths),
        "stamps_per_day": per_day,
        "buckets": n_buckets,
        "bucket_size_min": int(sizes.min()),
        "bucket_size_max": int(sizes.max()),
    }
