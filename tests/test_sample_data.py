import math

import numpy as np
import pytest

from censem import (
    BucketSpec,
    CensoringInterval,
    ComponentSpec,
    MixtureModel,
    TimestampSeries,
    bootstrap_resample,
    bucket_by_time,
    build_sample,
    diff_and_round,
    generate_synthetic,
    interval_prob,
    subsample,
)
from censem.errors import DomainError
from censem.sample_data import CensoredSample, default_censor_spec, ms_to_hhmm


# --- CensoredSample type ------------------------------------------------------


def test_sample_rejects_observation_inside_interval():
    with pytest.raises(DomainError):
        CensoredSample(np.array([0.2]), [CensoringInterval(0.0, 0.5, 1)])


def test_sample_rejects_nonpositive_observations():
    with pytest.raises(DomainError):
        CensoredSample(np.array([0.0, 1.0]), [])


def test_sample_rejects_overlapping_intervals():
    with pytest.raises(DomainError):
        CensoredSample(
            np.empty(0),
            [CensoringInterval(0.0, 1.0, 1), CensoringInterval(0.5, 2.0, 1)],
        )


def test_sample_total():
    s = CensoredSample(np.array([3.0, 7.0]), [CensoringInterval(0.0, 0.5, 2)])
    assert s.n == 2 and s.total == 4


# --- diff_and_round -----------------------------------------------------------


def test_diff_basic():
    ts = TimestampSeries(np.array([0, 0, 3, 3, 10]))
    assert diff_and_round(ts).tolist() == [0, 3, 0, 7]


def test_diff_too_short():
    with pytest.raises(DomainError):
        diff_and_round(TimestampSeries(np.array([5])))


def test_diff_count_preserved():
    rng = np.random.default_rng(0)
    stamps = np.cumsum(rng.integers(0, 50, size=1000))
    diffs = diff_and_round(TimestampSeries(stamps))
    assert diffs.size == 999


def test_timestamps_must_be_sorted():
    with pytest.raises(DomainError):
        TimestampSeries(np.array([5, 3]))


# --- build_sample -------------------------------------------------------------


def test_build_sample_default_spec():
    s = build_sample(np.array([0, 0, 3, 7]))
    assert s.uncensored.tolist() == [3.0, 7.0]
    assert s.intervals[0].count == 2
    assert s.intervals[0].lo == 0.0 and s.intervals[0].hi == 0.5


def test_build_sample_empty():
    s = build_sample(np.array([], dtype=np.int64))
    assert s.total == 0 and s.n == 0


def test_build_sample_counting_is_exact():
    rng = np.random.default_rng(3)
    diffs = rng.integers(0, 5, size=10_000)
    s = build_sample(diffs)
    assert s.intervals[0].count == int((diffs == 0).sum())
    assert s.total == diffs.size


def test_build_sample_multi_interval():
    spec = [CensoringInterval(0.0, 0.5), CensoringInterval(0.5, 1.5)]
    s = build_sample(np.array([0, 1, 2, 3]), spec)
    assert [iv.count for iv in s.intervals] == [1, 1]
    assert s.uncensored.tolist() == [2.0, 3.0]


def test_build_sample_zero_outside_spec_is_invalid():
    # a 0 difference kept as an exact observation violates positivity
    with pytest.raises(DomainError):
        build_sample(np.array([0, 2]), [CensoringInterval(2.5, 3.5)])


def test_roundtrip_count_conservation():
    rng = np.random.default_rng(9)
    for trial in range(20):
        diffs = rng.integers(0, 30, size=rng.integers(1, 500))
        s = build_sample(diffs)
        assert s.total == diffs.size


# --- subsample ------------------------------------------------------------------


def test_subsample_whole_vector():
    v = np.arange(10)
    assert subsample(v, 0, 10).tolist() == list(range(10))


@pytest.mark.parametrize("size", [200, 100])
def test_subsample_reference_sizes(size):
    v = np.arange(1000)
    out = subsample(v, 37, size)
    assert out.size == size
    assert out[0] == 37


def test_subsample_out_of_range():
    with pytest.raises(DomainError):
        subsample(np.arange(10), 5, 6)


# --- bootstrap_resample ---------------------------------------------------------


def test_bootstrap_single_element_sample():
    s = CensoredSample(np.array([4.0]), [])
    r = bootstrap_resample(s, rng_seed=1)
    assert r.uncensored.tolist() == [4.0] and r.total == 1


def test_bootstrap_preserves_total():
    s = build_sample(np.array([0, 0, 1, 2, 3, 5, 8]))
    for seed in range(25):
        assert bootstrap_resample(s, seed).total == s.total


def test_bootstrap_deterministic():
    s = build_sample(np.array([0, 1, 2, 3, 4]))
    a = bootstrap_resample(s, 7)
    b = bootstrap_resample(s, 7)
    assert np.array_equal(a.uncensored, b.uncensored)
    assert [iv.count for iv in a.intervals] == [iv.count for iv in b.intervals]


def test_bootstrap_multinomial_frequencies():
    # three distinguishable atoms resampled 1e5 times: each slot's mean
    # count must sit within 3 sigma of the multinomial expectation
    s = CensoredSample(np.array([1.0, 2.0]), [CensoringInterval(0.0, 0.5, 1)])
    n_rep = 100_000
    counts = {1.0: 0, 2.0: 0, "cens": 0}
    for seed in range(n_rep):
        r = bootstrap_resample(s, seed)
        counts[1.0] += int((r.uncensored == 1.0).sum())
        counts[2.0] += int((r.uncensored == 2.0).sum())
        counts["cens"] += r.intervals[0].count
    total_draws = 3 * n_rep
    p = 1.0 / 3.0
    sigma = math.sqrt(total_draws * p * (1 - p))
    for key, c in counts.items():
        assert abs(c - total_draws * p) <= 3.0 * sigma, (key, c)


def test_bootstrap_output_valid_on_random_inputs():
    rng = np.random.default_rng(11)
    for trial in range(50):
        diffs = rng.integers(0, 12, size=int(rng.integers(1, 200)))
        s = build_sample(diffs)
        r = bootstrap_resample(s, int(rng.integers(0, 2**31)))
        # constructor re-validates every invariant; total must match
        assert r.total == s.total
        assert np.all(r.uncensored > 0)


def test_bootstrap_empty_sample_rejected():
    with pytest.raises(DomainError):
        bootstrap_resample(CensoredSample(np.empty(0), []), 0)


# --- bucket_by_time -------------------------------------------------------------


def _spec(width_minutes):
    return BucketSpec.from_hhmm("09:00", "17:30", width_minutes)


def test_bucket_counts_ten_minutes():
    assert _spec(10).n_buckets == 51
    ts = TimestampSeries(np.array([9 * 3600_000 + 1, 9 * 3600_000 + 2]))
    assert len(bucket_by_time(ts, _spec(10))) == 51


def test_bucket_counts_thirty_minutes():
    assert _spec(30).n_buckets == 17


def test_bucket_single_nonempty():
    ts = TimestampSeries(np.array([9 * 3600_000 + 5, 9 * 3600_000 + 100]))
    buckets = bucket_by_time(ts, _spec(10))
    nonempty = [(b, s) for b, s in buckets if len(s)]
    assert len(nonempty) == 1 and nonempty[0][0] == 0


def test_bucket_partition_is_exact():
    rng = np.random.default_rng(4)
    start, end = 9 * 3600_000, 17 * 3600_000 + 1800_000
    stamps = np.sort(rng.integers(start, end, size=5000))
    buckets = bucket_by_time(TimestampSeries(stamps), _spec(10))
    assert sum(len(s) for _, s in buckets) == stamps.size
    covered = np.concatenate([s.stamps for _, s in buckets])
    assert np.array_equal(np.sort(covered), stamps)


def _bucket_by_mask(ts, spec):
    """Reference bucketing: one full-day mask per bucket."""
    ids = (ts.stamps - spec.session_start_ms) // spec.width_ms
    return [(b, ts.stamps[ids == b]) for b in range(spec.n_buckets)]


@pytest.mark.parametrize("width_minutes", [10, 30])
def test_bucket_cut_equals_mask_form(width_minutes):
    spec = _spec(width_minutes)
    rng = np.random.default_rng(11)
    edges = spec.session_start_ms + spec.width_ms * np.arange(spec.n_buckets)
    days = [
        rng.integers(spec.session_start_ms, spec.session_end_ms, size=20_000),
        # stamps on every bucket edge, one ms either side of it, and the last ms
        np.concatenate([edges, edges[1:] - 1, edges + 1, [spec.session_end_ms - 1]]),
        # a burst inside one bucket, so the other buckets are empty
        np.full(7, edges[3] + 5),
        np.array([], dtype=np.int64),
    ]
    for stamps in days:
        ts = TimestampSeries(np.sort(stamps))
        got = bucket_by_time(ts, spec)
        want = _bucket_by_mask(ts, spec)
        assert [b for b, _ in got] == [b for b, _ in want]
        for (_, series), (_, ref) in zip(got, want):
            assert series.stamps.dtype == np.int64
            assert np.array_equal(series.stamps, ref)


def test_bucket_out_of_session_rejected():
    ts = TimestampSeries(np.array([0, 9 * 3600_000]))
    with pytest.raises(DomainError):
        bucket_by_time(ts, _spec(10))


def test_bucket_spec_width_must_divide():
    with pytest.raises(DomainError):
        BucketSpec.from_hhmm("09:00", "17:30", 7)


def test_ms_to_hhmm():
    assert ms_to_hhmm(9 * 3600_000) == "09:00"
    assert ms_to_hhmm(17 * 3600_000 + 1800_000) == "17:30"


# --- generate_synthetic ----------------------------------------------------------


def test_generate_empty():
    m = MixtureModel([1.0], [ComponentSpec.exponential(1.0)])
    assert generate_synthetic(m, 0, 1).size == 0


def test_generate_mostly_zeros_for_tiny_scale():
    m = MixtureModel([1.0], [ComponentSpec.exponential(0.1)])
    out = generate_synthetic(m, 10_000, rng_seed=6)
    frac = float((out == 0).mean())
    expected = 1.0 - math.exp(-5.0)  # P(X < 0.5), scale 0.1
    sigma = math.sqrt(expected * (1 - expected) / out.size)
    assert abs(frac - expected) <= 4.0 * sigma


def test_generate_zero_fraction_reference_model(reference_mixture):
    out = generate_synthetic(reference_mixture, 100_000, rng_seed=12)
    frac = float((out == 0).mean())
    expected = sum(
        w * interval_prob(c, CensoringInterval(0.0, 0.5))
        for w, c in zip(reference_mixture.weights, reference_mixture.components)
    )
    assert expected == pytest.approx(0.0121, abs=2e-4)
    sigma = math.sqrt(expected * (1 - expected) / out.size)
    assert abs(frac - expected) <= 3.0 * sigma


def test_generate_then_build_preserves_count(reference_mixture):
    out = generate_synthetic(reference_mixture, 5000, rng_seed=13)
    s = build_sample(out)
    assert s.total == 5000
    assert np.all(s.uncensored >= 1.0)  # no exact zeros can survive


def test_default_censor_spec_is_zero_bin():
    spec = default_censor_spec()
    assert len(spec) == 1 and spec[0].lo == 0.0 and spec[0].hi == 0.5
