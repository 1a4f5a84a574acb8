"""Zero-inflated censored samples and the transforms that produce them.

The exchange feed delivers millisecond timestamps, so consecutive
differences are already integers: every sub-millisecond gap shows up as
a 0.  Building a sample therefore means sorting each integer difference
either into a censoring interval (by default the single interval
[0, 0.5), which captures exactly the zeros) or into the exact-value
pool.  Downstream fitting never sees an exact observation at 0, which
matters because the beta < 1 log-density diverges there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .components import CensoringInterval, MixtureModel, sample as mixture_sample
from .errors import DomainError

DEFAULT_CENSOR_BOUNDS: tuple[tuple[float, float], ...] = ((0.0, 0.5),)


def default_censor_spec() -> list[CensoringInterval]:
    return [CensoringInterval(lo, hi) for lo, hi in DEFAULT_CENSOR_BOUNDS]


@dataclass
class CensoredSample:
    """n exact observations plus L censoring intervals with counts.

    Intervals must be disjoint and sorted; exact observations must be
    positive and lie outside every interval.  Empty samples (N = 0) are
    permitted so that pipelines can pass them through; fitting enforces
    its own minimum size.
    """

    uncensored: np.ndarray
    intervals: list[CensoringInterval] = field(default_factory=list)

    def __post_init__(self):
        self.uncensored = np.asarray(self.uncensored, dtype=float)
        self.intervals = list(self.intervals)
        if self.uncensored.ndim != 1:
            raise DomainError("uncensored observations must be a flat vector")
        if self.uncensored.size and (
            np.any(self.uncensored <= 0.0) or not np.all(np.isfinite(self.uncensored))
        ):
            raise DomainError("uncensored observations must be positive and finite")
        for prev, cur in zip(self.intervals, self.intervals[1:]):
            if cur.lo < prev.hi:
                raise DomainError("censoring intervals must be sorted and disjoint")
        for iv in self.intervals:
            inside = (self.uncensored >= iv.lo) & (self.uncensored < iv.hi)
            if np.any(inside):
                raise DomainError(
                    f"exact observation inside censoring interval [{iv.lo}, {iv.hi})"
                )

    @property
    def n(self) -> int:
        return int(self.uncensored.size)

    @property
    def total(self) -> int:
        """N = n + sum of interval counts."""
        return self.n + sum(iv.count for iv in self.intervals)


@dataclass
class TimestampSeries:
    """Sorted non-negative integer timestamps (ms)."""

    stamps: np.ndarray

    def __post_init__(self):
        self.stamps = np.asarray(self.stamps, dtype=np.int64)
        if self.stamps.ndim != 1:
            raise DomainError("timestamps must be a flat vector")
        if self.stamps.size and self.stamps[0] < 0:
            raise DomainError("timestamps must be non-negative")
        if self.stamps.size > 1 and np.any(np.diff(self.stamps) < 0):
            raise DomainError("timestamps must be non-decreasing")

    def __len__(self) -> int:
        return int(self.stamps.size)


@dataclass(frozen=True)
class BucketSpec:
    """Time-of-day bucketing: [session_start, session_end) split into
    equal buckets of width_minutes."""

    session_start_ms: int
    session_end_ms: int
    width_ms: int

    def __post_init__(self):
        if self.width_ms <= 0:
            raise DomainError("bucket width must be positive")
        length = self.session_end_ms - self.session_start_ms
        if length <= 0:
            raise DomainError("session must have positive length")
        if length % self.width_ms != 0:
            raise DomainError("bucket width must divide the session length")

    @classmethod
    def from_hhmm(cls, start: str, end: str, width_minutes: int) -> "BucketSpec":
        return cls(_hhmm_to_ms(start), _hhmm_to_ms(end), width_minutes * 60_000)

    @property
    def n_buckets(self) -> int:
        return (self.session_end_ms - self.session_start_ms) // self.width_ms

    def bucket_start_ms(self, bucket_id: int) -> int:
        return self.session_start_ms + bucket_id * self.width_ms


def _hhmm_to_ms(text: str) -> int:
    hh, mm = text.split(":")
    return (int(hh) * 60 + int(mm)) * 60_000


def ms_to_hhmm(ms: int) -> str:
    minutes = ms // 60_000
    return f"{minutes // 60:02d}:{minutes % 60:02d}"


def diff_and_round(ts: TimestampSeries) -> np.ndarray:
    """Consecutive timestamp differences.

    The feed is already rounded to milliseconds, so this is a plain
    difference with validation: at least two stamps, no negative gaps.
    """
    if len(ts) < 2:
        raise DomainError("need at least two timestamps to form differences")
    diffs = np.diff(ts.stamps)
    if np.any(diffs < 0):
        raise DomainError("timestamps are not sorted")
    return diffs


def build_sample(
    diffs, censor_spec: list[CensoringInterval] | None = None
) -> CensoredSample:
    """Sort integer differences into censoring intervals and exact values.

    A difference equal to c lands in the interval containing the real
    value c; anything not covered stays an exact observation at value c.
    With the default spec [0, 0.5) that censors exactly the zeros.
    """
    spec = default_censor_spec() if censor_spec is None else list(censor_spec)
    diffs = np.asarray(diffs)
    if diffs.size and np.any(diffs < 0):
        raise DomainError("differences must be non-negative")
    values = diffs.astype(float)
    counts = []
    censored_mask = np.zeros(values.shape, dtype=bool)
    for iv in spec:
        inside = (values >= iv.lo) & (values < iv.hi)
        counts.append(int(np.count_nonzero(inside)))
        censored_mask |= inside
    uncensored = values[~censored_mask]
    intervals = [iv.with_count(cnt) for iv, cnt in zip(spec, counts)]
    return CensoredSample(uncensored, intervals)


def subsample(diffs, start_index: int, size: int) -> np.ndarray:
    """Contiguous slice diffs[start_index : start_index + size]."""
    diffs = np.asarray(diffs)
    if start_index < 0 or size < 0 or start_index + size > diffs.size:
        raise DomainError(
            f"subsample [{start_index}, {start_index + size}) out of range "
            f"for {diffs.size} differences"
        )
    return diffs[start_index : start_index + size].copy()


def bootstrap_resample(s: CensoredSample, rng_seed: int) -> CensoredSample:
    """Resample N observation-level atoms with replacement.

    Censored observations are resampled as atoms labelled by their
    interval, so the result is again a valid censored sample of the
    same total size.  Deterministic in rng_seed.
    """
    total = s.total
    if total < 1:
        raise DomainError("cannot bootstrap an empty sample")
    rng = np.random.default_rng(rng_seed)
    idx = rng.integers(0, total, size=total)
    n = s.n
    uncensored = s.uncensored[idx[idx < n]]
    bounds = np.cumsum([n] + [iv.count for iv in s.intervals])
    intervals = []
    for k, iv in enumerate(s.intervals):
        cnt = int(np.count_nonzero((idx >= bounds[k]) & (idx < bounds[k + 1])))
        intervals.append(iv.with_count(cnt))
    return CensoredSample(np.sort(uncensored), intervals)


def bucket_by_time(
    ts: TimestampSeries, spec: BucketSpec
) -> list[tuple[int, TimestampSeries]]:
    """Partition session-clock stamps into consecutive fixed-width buckets.

    Returns one (bucket_id, series) pair per bucket, empties included,
    so differences are only ever formed within a bucket.  Stamps outside
    [session_start, session_end) are rejected; filter beforehand if the
    feed spans more than the session.
    """
    stamps = ts.stamps
    if stamps.size and (
        stamps[0] < spec.session_start_ms or stamps[-1] >= spec.session_end_ms
    ):
        raise DomainError("timestamps fall outside the bucketed session window")
    edges = spec.session_start_ms + spec.width_ms * np.arange(1, spec.n_buckets)
    parts = np.split(stamps, np.searchsorted(stamps, edges))
    return [(b, TimestampSeries(part)) for b, part in enumerate(parts)]


def generate_synthetic(m: MixtureModel, n: int, rng_seed: int) -> np.ndarray:
    """n mixture draws pushed through the millisecond rounding map.

    Values in [0, 0.5) become 0, [0.5, 1.5) becomes 1, and so on, which
    reproduces what the exchange clock does to real inter-arrival times.
    Deterministic in rng_seed.
    """
    draws = mixture_sample(m, n, rng_seed)
    return np.floor(draws + 0.5).astype(np.int64)
