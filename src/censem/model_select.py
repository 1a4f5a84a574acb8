"""Model comparison: average log-likelihood, BIC, bootstrap ensembles,
Welch tests, winner tallies and intraday parameter profiles.

The selection procedure mirrors how the fitting is meant to be used on
stationary stretches of a trading day: draw a random-start contiguous
subsample, bootstrap it, fit every candidate shape on every replica,
and ask whether any alternative's BIC distribution significantly beats
the baseline mixture of one exponential and one Weibull.

Each ensemble's subsample and replicas are drawn once and reused for
every shape.  Each shape is fitted to all the ensembles' subsamples in
one batched EM call (em_core.fit_batch), then to all replicas in
another, each warm-started from its own ensemble's fit.  The intraday
profile makes one fit_batch call per trading day: a day's eligible
buckets are fitted together and summarised as soon as they return.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import stdtr

from .components import dof as dof_fn
from .em_core import EmConfig, FitResult, fit_batch
# Unused here, but kept importable: the benchmark's tracer wraps the name
# model_select.fit, and fails where it is missing.
from .em_core import fit  # noqa: F401
from .errors import DomainError
from .sample_data import (
    BucketSpec,
    CensoredSample,
    CensoringInterval,
    TimestampSeries,
    bootstrap_resample,
    bucket_by_time,
    build_sample,
    diff_and_round,
    subsample,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True, order=True)
class ModelShape:
    """p exponential + r Weibull components."""

    p: int
    r: int

    def __post_init__(self):
        if self.p < 0 or self.r < 0 or self.p + self.r < 1:
            raise DomainError(f"invalid shape ({self.p}, {self.r})")

    @property
    def dof(self) -> int:
        return dof_fn(self.p, self.r)

    @property
    def key(self) -> str:
        return f"{self.p},{self.r}"

    @classmethod
    def parse(cls, text: str) -> "ModelShape":
        try:
            p_str, r_str = text.split(",")
            return cls(int(p_str), int(r_str))
        except (ValueError, TypeError) as exc:
            raise DomainError(f"cannot parse shape {text!r}; expected 'p,r'") from exc


def avg_loglik(loglik: float, n_obs: int) -> float:
    """Log-likelihood per event (the negative entropy per arrival)."""
    if n_obs < 1:
        raise DomainError("average log-likelihood needs N >= 1")
    return loglik / n_obs


def bic(loglik: float, d: int, n_obs: int) -> float:
    """Bayesian information criterion: -2 log L + d ln N (natural log)."""
    if d < 1:
        raise DomainError("BIC needs d >= 1")
    if n_obs < 1:
        raise DomainError("BIC needs N >= 1")
    return -2.0 * loglik + d * math.log(n_obs)


class WelchResult(NamedTuple):
    t: float
    dof: float
    significant: bool
    p_value: float
    degenerate: bool


def welch_t(
    samples_a,
    samples_b,
    alpha_level: float = 0.05,
    two_sided: bool = False,
) -> WelchResult:
    """Welch's unequal-variance t-test of mean(a) against mean(b).

    One-sided by default: significant means a's mean is credibly LOWER
    than b's at alpha_level (the direction that matters when a and b
    are BIC samples).  Degenerate (both variances zero) is flagged; the
    test then reduces to comparing the two constants.
    """
    a = np.asarray(samples_a, dtype=float)
    b = np.asarray(samples_b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise DomainError("welch_t needs at least two observations per sample")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DomainError("welch_t requires finite samples")
    ma, mb = float(a.mean()), float(b.mean())
    va, vb = float(a.var(ddof=1)), float(b.var(ddof=1))
    qa, qb = va / a.size, vb / b.size
    se2 = qa + qb
    if se2 == 0.0:
        t_stat = 0.0 if ma == mb else math.copysign(math.inf, ma - mb)
        d = float(a.size + b.size - 2)
        if two_sided:
            significant = math.isinf(t_stat)
        else:
            significant = t_stat == -math.inf
        return WelchResult(t_stat, d, significant, 0.0 if significant else 1.0, True)
    t_stat = (ma - mb) / math.sqrt(se2)
    d = se2 * se2 / (qa * qa / (a.size - 1) + qb * qb / (b.size - 1))
    # Student's t distribution function straight from scipy.special:
    # scipy.stats would add about a second to the CLI's cold import.
    if two_sided:
        p = 2.0 * float(stdtr(d, -abs(t_stat)))
    else:
        p = float(stdtr(d, t_stat))
    return WelchResult(t_stat, d, p < alpha_level, p, False)


@dataclass
class BicStats:
    shape: ModelShape
    samples: np.ndarray
    skipped: int

    @property
    def mean(self) -> float:
        return float(self.samples.mean()) if self.samples.size else math.nan

    @property
    def sd(self) -> float:
        return float(self.samples.std(ddof=1)) if self.samples.size > 1 else math.nan


@dataclass
class WelchTest:
    shape_a: ModelShape
    shape_b: ModelShape
    t: float
    dof: float
    significant: bool


@dataclass
class EnsembleResult:
    index: int
    start_index: int
    stats: dict[ModelShape, BicStats]
    tests: list[WelchTest]
    winner: ModelShape


@dataclass
class SelectionReport:
    shapes: list[ModelShape]
    baseline: ModelShape
    n_boot: int
    subsample_size: int
    ensembles: list[EnsembleResult]
    winner_tally: dict[ModelShape, float]
    dropped_ensembles: int = 0

    def pooled_samples(self, shape: ModelShape) -> np.ndarray:
        parts = [e.stats[shape].samples for e in self.ensembles if shape in e.stats]
        return np.concatenate(parts) if parts else np.empty(0)

    def tests_flat(self) -> list[tuple[int, WelchTest]]:
        return [(e.index, t) for e in self.ensembles for t in e.tests]


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _bic_of(
    res: FitResult | DomainError, shape: ModelShape, sample: CensoredSample
) -> float | None:
    """The fit's BIC, or None for a skipped (rejected or degenerate) fit."""
    if isinstance(res, DomainError) or res.degenerate:
        return None
    return bic(res.loglik, shape.dof, sample.total)


def run_selection(
    diffs,
    shapes: Sequence[ModelShape],
    n_boot: int,
    subsample_size: int,
    days: int,
    rng_seed: int,
    censor_spec: list[CensoringInterval] | None = None,
    config: EmConfig | None = None,
    alpha_level: float = 0.05,
    two_sided: bool = False,
) -> SelectionReport:
    """Bootstrap BIC tournament over candidate shapes.

    For each of `days` ensembles: draw a seeded random-start contiguous
    subsample of the differences, build the censored sample, fit every
    shape on it and on n_boot bootstrap replicas (warm-started from the
    original fit), collect the n_boot+1 BIC values per shape, Welch-test
    each alternative against the baseline (1,1, or the first shape where
    1,1 is not a candidate), and record the ensemble winner.  The
    baseline wins unless some alternative significantly beats it; among
    significant beaters the lowest mean BIC wins.

    Deterministic in rng_seed: every replica derives its seed from
    (rng_seed, ensemble, replica).
    """
    diffs = np.asarray(diffs)
    shapes = list(shapes)
    if not shapes:
        raise DomainError("run_selection needs at least one candidate shape")
    repeated = sorted({s.key for s in shapes if shapes.count(s) > 1})
    if repeated:
        raise DomainError(f"candidate shapes listed more than once: {', '.join(repeated)}")
    base_shape = ModelShape(1, 1) if ModelShape(1, 1) in shapes else shapes[0]
    cfg = config or EmConfig()
    if subsample_size < 1:
        raise DomainError(f"subsample_size must be at least 1, got {subsample_size}")
    # a sample must outnumber a shape's free parameters (fit_batch)
    smallest = min(shapes, key=lambda s: s.dof)
    if subsample_size < smallest.dof + 1:
        raise DomainError(
            f"subsample_size {subsample_size} is too small for every candidate shape: "
            f"the smallest, {smallest.key}, needs at least {smallest.dof + 1}"
        )
    if diffs.size < subsample_size:
        raise DomainError(
            f"{diffs.size} differences cannot supply subsamples of {subsample_size}"
        )
    if days < 1:
        raise DomainError(f"days must be at least 1, got {days}")
    if n_boot < 1:
        # each shape's Welch test needs two BIC values per ensemble
        raise DomainError(f"n_boot must be at least 1, got {n_boot}")
    if not 0.0 < alpha_level < 1.0:
        raise DomainError(f"alpha_level must lie in (0, 1), got {alpha_level}")

    # Each ensemble's original and replicas are drawn once and fitted with
    # every shape.
    starts, originals, replicas, owner = [], [], [], []
    for e in range(days):
        rng = np.random.default_rng(_derived_seed(rng_seed, e))
        start = int(rng.integers(0, diffs.size - subsample_size + 1))
        original = build_sample(subsample(diffs, start, subsample_size), censor_spec)
        starts.append(start)
        originals.append(original)
        for b in range(1, n_boot + 1):
            replicas.append(bootstrap_resample(original, _derived_seed(rng_seed, e, b)))
            owner.append(e)

    # values[shape][e]: the ensemble's BICs, original first, then the
    # replicas in order; skipped[shape][e]: its fits left out.
    values = {shape: [[] for _ in range(days)] for shape in shapes}
    skipped = {shape: [0] * days for shape in shapes}
    for shape in shapes:
        pr = (shape.p, shape.r)
        fits0 = fit_batch(originals, pr, cfg, [None] * days)
        bic0 = [_bic_of(res, shape, s) for res, s in zip(fits0, originals)]
        # a replica starts from its ensemble's original fit when that one counts
        warm = [None if b is None else res.model for res, b in zip(fits0, bic0)]
        fits = fit_batch(replicas, pr, cfg, [warm[e] for e in owner])
        bics = bic0 + [_bic_of(res, shape, s) for res, s in zip(fits, replicas)]
        for e, b in zip(list(range(days)) + owner, bics):
            if b is None:
                skipped[shape][e] += 1
            else:
                values[shape][e].append(b)

    ensembles: list[EnsembleResult] = []
    dropped = 0
    for e, start in enumerate(starts):
        stats = {
            shape: BicStats(shape, np.asarray(values[shape][e], dtype=float), skipped[shape][e])
            for shape in shapes
        }

        if stats[base_shape].samples.size < 2:
            dropped += 1
            log.warning("ensemble %d dropped: baseline produced <2 usable fits", e)
            continue
        tests = []
        beaters = []
        for shape in shapes:
            if shape == base_shape:
                continue
            st = stats[shape]
            if st.samples.size < 2:
                continue
            w = welch_t(st.samples, stats[base_shape].samples, alpha_level, two_sided)
            tests.append(WelchTest(shape, base_shape, w.t, w.dof, w.significant))
            if w.significant and st.mean < stats[base_shape].mean:
                beaters.append(shape)
        if beaters:
            winner = min(beaters, key=lambda sh: stats[sh].mean)
        else:
            winner = base_shape
        ensembles.append(EnsembleResult(e, start, stats, tests, winner))

    if not ensembles:
        raise DomainError("all ensembles degenerate; nothing to report")
    tally = {shape: 0.0 for shape in shapes}
    for ens in ensembles:
        tally[ens.winner] += 1.0
    for shape in tally:
        tally[shape] /= len(ensembles)
    return SelectionReport(
        shapes=shapes,
        baseline=base_shape,
        n_boot=n_boot,
        subsample_size=subsample_size,
        ensembles=ensembles,
        winner_tally=tally,
        dropped_ensembles=dropped,
    )


@dataclass(frozen=True)
class BucketProfile:
    bucket_id: int
    start_ms: int
    alpha_wbl: float | None
    alpha_exp: float | None
    beta: float | None
    weight_exp: float | None
    day_count: int
    sample_count: int


@dataclass
class IntradayProfile:
    spec: BucketSpec
    shape: ModelShape
    buckets: list[BucketProfile]
    skipped: list[tuple[int, int, str]]  # (day, bucket_id, reason)


def _fit_summary(res: FitResult) -> dict[str, float]:
    """Family-level parameter summary robust to label switching: scales
    and shapes are averaged within a family weighted by component
    weight.  The fit must not be degenerate, so every weight is at least
    WEIGHT_FLOOR and no family's weights sum to 0."""
    m = res.model
    w = np.asarray(m.weights)
    exp_idx = [i for i, c in enumerate(m.components) if c.kind.value == "exp"]
    wbl_idx = [i for i, c in enumerate(m.components) if c.kind.value == "wbl"]
    out: dict[str, float] = {}
    if exp_idx:
        we = w[exp_idx]
        out["weight_exp"] = float(we.sum())
        out["alpha_exp"] = float(sum(w[i] * m.components[i].alpha for i in exp_idx) / we.sum())
    if wbl_idx:
        denom = float(w[wbl_idx].sum())
        out["alpha_wbl"] = float(sum(w[i] * m.components[i].alpha for i in wbl_idx) / denom)
        out["beta"] = float(sum(w[i] * m.components[i].beta for i in wbl_idx) / denom)
    return out


def _bucket_outcome(res: FitResult | DomainError) -> dict[str, float] | str:
    """A bucket fit's parameter summary, or the reason it is skipped."""
    if isinstance(res, DomainError):
        return str(res)
    if res.degenerate:
        return res.error or "degenerate fit"
    return _fit_summary(res)


def profile_intraday(
    days_ts: Sequence[TimestampSeries],
    spec: BucketSpec,
    shape: ModelShape,
    config: EmConfig | None = None,
    censor_spec: list[CensoringInterval] | None = None,
    min_bucket_size: int = 10,
) -> IntradayProfile:
    """Fit the shape per (day, bucket) and average parameters per bucket
    across days.

    Buckets whose censored sample is smaller than min_bucket_size (or
    the shape's parameter count) are skipped and listed, as are fits
    that are rejected or end degenerate, in (day, bucket) order.
    Differences are always taken within a bucket, never across bucket
    boundaries.  Each day's eligible buckets are fitted together, in one
    fit_batch call, and summarised before the next day starts.  A
    negative min_bucket_size raises DomainError before any fit.
    """
    if min_bucket_size < 0:
        raise DomainError(f"min_bucket_size must be >= 0, got {min_bucket_size}")
    cfg = config or EmConfig()
    acc: dict[int, list[dict[str, float]]] = {}
    sizes: dict[int, int] = {}
    skipped: list[tuple[int, int, str]] = []
    for day, ts in enumerate(days_ts):
        # per bucket, in bucket order: its skip reason, or None if it is fitted
        plan: list[tuple[int, str | None]] = []
        samples: list[CensoredSample] = []
        for bucket_id, series in bucket_by_time(ts, spec):
            if len(series) < 2:
                if len(series):
                    plan.append((bucket_id, "fewer than two timestamps"))
                continue
            sample = build_sample(diff_and_round(series), censor_spec)
            if sample.total < max(min_bucket_size, shape.dof + 1):
                plan.append((bucket_id, f"sample too small (N={sample.total})"))
                continue
            plan.append((bucket_id, None))
            samples.append(sample)
        # summarised as the day's fits return: no FitResult outlives its day.
        # One batch for all days is no faster (fewer but wider passes) and
        # lifts profile-day's peak RSS from 65 to 77 MB.
        outcomes = [_bucket_outcome(res) for res in fit_batch(samples, (shape.p, shape.r), cfg)]
        fitted = iter(zip(samples, outcomes))
        for bucket_id, reason in plan:
            if reason is None:
                sample, out = next(fitted)
                if isinstance(out, str):
                    reason = out
                else:
                    acc.setdefault(bucket_id, []).append(out)
                    sizes[bucket_id] = sizes.get(bucket_id, 0) + sample.total
                    continue
            skipped.append((day, bucket_id, reason))
    buckets = []
    for bucket_id in sorted(acc):
        rows = acc[bucket_id]

        def mean_of(key: str) -> float | None:
            vals = [r[key] for r in rows if key in r]
            return float(np.mean(vals)) if vals else None

        buckets.append(
            BucketProfile(
                bucket_id=bucket_id,
                start_ms=spec.bucket_start_ms(bucket_id),
                alpha_wbl=mean_of("alpha_wbl"),
                alpha_exp=mean_of("alpha_exp"),
                beta=mean_of("beta"),
                weight_exp=mean_of("weight_exp"),
                day_count=len(rows),
                sample_count=sizes[bucket_id],
            )
        )
    return IntradayProfile(spec=spec, shape=shape, buckets=buckets, skipped=skipped)
