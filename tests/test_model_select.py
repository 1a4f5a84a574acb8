import math
import os
import re

import numpy as np
import pytest

from censem import ComponentSpec, MixtureModel, censored_log_likelihood, cli, em_core, fit
from censem.em_core import EmConfig, MStepVariant, fit_batch
from censem.errors import DomainError
import censem.model_select as model_select
from censem.model_select import (
    ModelShape,
    avg_loglik,
    bic,
    profile_intraday,
    run_selection,
    welch_t,
)
from censem.sample_data import (
    BucketSpec,
    TimestampSeries,
    bucket_by_time,
    build_sample,
    diff_and_round,
    generate_synthetic,
)


# --- ModelShape ---------------------------------------------------------------


def test_shape_parse_and_dof():
    s = ModelShape.parse("2,1")
    assert (s.p, s.r) == (2, 1) and s.dof == 6 and s.key == "2,1"


def test_shape_validation():
    with pytest.raises(DomainError):
        ModelShape(0, 0)
    with pytest.raises(DomainError):
        ModelShape.parse("banana")


# --- avg_loglik ----------------------------------------------------------------


def test_avg_loglik_reference_row():
    # total loglik -1671.4 over 200 events gives -8.357 per event
    assert avg_loglik(-1671.4, 200) == pytest.approx(-8.357, abs=1e-12)


def test_avg_loglik_zero():
    assert avg_loglik(0.0, 5) == 0.0


def test_avg_loglik_recomputation(reference_mixture):
    s = build_sample(generate_synthetic(reference_mixture, 3000, rng_seed=2))
    res = fit(s, (1, 1))
    direct = censored_log_likelihood(res.model, s) / s.total
    assert avg_loglik(res.loglik, s.total) == pytest.approx(direct, abs=1e-12)


def test_avg_loglik_domain():
    with pytest.raises(DomainError):
        avg_loglik(-1.0, 0)


# --- bic -----------------------------------------------------------------------


def test_bic_reference_cell():
    # -8.357 per event, 200 events, 4 parameters
    assert bic(-8.357 * 200, 4, 200) == pytest.approx(3363.99, abs=0.05)


def test_bic_trivial():
    assert bic(0.0, 1, 1) == 0.0


def test_bic_penalty_monotone_in_dof():
    vals = [bic(-100.0, d, 50) for d in range(1, 10)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_bic_domain():
    with pytest.raises(DomainError):
        bic(-1.0, 0, 10)
    with pytest.raises(DomainError):
        bic(-1.0, 2, 0)


# --- welch_t ---------------------------------------------------------------------


def test_welch_identical_samples():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    res = welch_t(a, a.copy())
    assert res.t == 0.0 and not res.significant


def test_welch_constant_shift_significant():
    rng = np.random.default_rng(1)
    b = rng.normal(0.0, 1.0, size=1000)
    a = b - 100.0
    res = welch_t(a, b, alpha_level=0.05)
    assert res.significant and res.t < -100


def test_welch_textbook_formula():
    rng = np.random.default_rng(7)
    a = rng.normal(10.0, 2.0, size=40)
    b = rng.normal(11.0, 3.0, size=55)
    res = welch_t(a, b)
    # independent evaluation with plain Python floats
    ma = sum(a) / len(a)
    mb = sum(b) / len(b)
    va = sum((v - ma) ** 2 for v in a) / (len(a) - 1)
    vb = sum((v - mb) ** 2 for v in b) / (len(b) - 1)
    qa, qb = va / len(a), vb / len(b)
    t_direct = (ma - mb) / math.sqrt(qa + qb)
    dof_direct = (qa + qb) ** 2 / (qa ** 2 / (len(a) - 1) + qb ** 2 / (len(b) - 1))
    assert res.t == pytest.approx(t_direct, rel=1e-12)
    assert res.dof == pytest.approx(dof_direct, rel=1e-12)


def test_welch_antisymmetric():
    rng = np.random.default_rng(9)
    a = rng.normal(size=30)
    b = rng.normal(size=45) + 0.3
    assert welch_t(a, b).t == -welch_t(b, a).t


def test_welch_zero_variance_degenerate():
    a = np.full(5, 2.0)
    b = np.full(7, 3.0)
    res = welch_t(a, b)
    assert res.degenerate and res.significant and res.t == -math.inf
    same = welch_t(a, a.copy())
    assert same.degenerate and not same.significant


def test_welch_two_sided_flag():
    rng = np.random.default_rng(13)
    base = rng.normal(size=500)
    higher = base + 1.0
    one_sided = welch_t(higher, base, 0.05, two_sided=False)
    two_sided = welch_t(higher, base, 0.05, two_sided=True)
    assert not one_sided.significant  # wrong direction for "lower mean"
    assert two_sided.significant


def test_welch_needs_two_observations():
    with pytest.raises(DomainError):
        welch_t([1.0], [1.0, 2.0])


@pytest.mark.parametrize("two_sided", [False, True])
def test_welch_p_value_equals_scipy_stats(two_sided):
    """welch_t calls scipy.special.stdtr directly; its p-values are
    scipy.stats' t distribution function, bit for bit, over a grid of t
    (shifts from far below to far above) and dof (sample sizes 2 to 400,
    equal and unequal spreads)."""
    from scipy import stats

    rng = np.random.default_rng(17)
    seen_dof = []
    for n_a, n_b, spread in [(2, 2, 1.0), (3, 7, 0.1), (12, 5, 4.0), (40, 55, 1.0),
                             (400, 9, 25.0), (150, 150, 1.0)]:
        a0 = rng.normal(0.0, 1.0, n_a)
        b0 = rng.normal(0.0, spread, n_b)
        for shift in (-1e3, -20.0, -3.0, -0.5, -1e-3, 0.0, 1e-3, 0.5, 3.0, 20.0, 1e3):
            res = welch_t(a0 + shift, b0, two_sided=two_sided)
            if two_sided:
                expected = 2.0 * float(stats.t.sf(abs(res.t), res.dof))
            else:
                expected = float(stats.t.cdf(res.t, res.dof))
            assert res.p_value == expected
            assert res.significant == (expected < 0.05)
        seen_dof.append(res.dof)
    assert min(seen_dof) < 2.0 and max(seen_dof) > 100.0


def test_cli_import_leaves_scipy_stats_out():
    """A fresh `import censem.cli` does not pull in scipy.stats (and with
    it scipy.optimize and scipy.spatial), about a second of cold start."""
    import subprocess
    import sys

    code = ("import sys, censem.cli; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.optimize', 'scipy.spatial') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert out.stdout.strip() == "[]"


# --- run_selection -----------------------------------------------------------------


def test_selection_single_shape_tally(reference_mixture):
    diffs = generate_synthetic(reference_mixture, 3000, rng_seed=15)
    rep = run_selection(diffs, [ModelShape(1, 1)], n_boot=5, subsample_size=150,
                        days=2, rng_seed=4)
    assert rep.winner_tally[ModelShape(1, 1)] == 1.0


def test_selection_sample_counts(reference_mixture):
    diffs = generate_synthetic(reference_mixture, 3000, rng_seed=16)
    rep = run_selection(diffs, [ModelShape(1, 1), ModelShape(0, 2)], n_boot=7,
                        subsample_size=120, days=2, rng_seed=5)
    for ens in rep.ensembles:
        for shape, st in ens.stats.items():
            assert st.samples.size + st.skipped == 8  # original + 7 replicas


def test_selection_deterministic(reference_mixture):
    diffs = generate_synthetic(reference_mixture, 4000, rng_seed=17)
    shapes = [ModelShape(1, 1), ModelShape(0, 2)]
    a = run_selection(diffs, shapes, n_boot=6, subsample_size=150, days=2, rng_seed=11)
    b = run_selection(diffs, shapes, n_boot=6, subsample_size=150, days=2, rng_seed=11)
    assert a.winner_tally == b.winner_tally
    for ea, eb in zip(a.ensembles, b.ensembles):
        assert ea.start_index == eb.start_index and ea.winner == eb.winner
        for shape in shapes:
            assert np.array_equal(ea.stats[shape].samples, eb.stats[shape].samples)


def test_selection_tally_sums_to_one(reference_mixture):
    diffs = generate_synthetic(reference_mixture, 4000, rng_seed=18)
    shapes = [ModelShape(1, 1), ModelShape(3, 0)]
    rep = run_selection(diffs, shapes, n_boot=4, subsample_size=120, days=3, rng_seed=6)
    assert sum(rep.winner_tally.values()) == pytest.approx(1.0, abs=1e-12)
    assert all(v >= 0 for v in rep.winner_tally.values())


def scalar_fit_batch(samples, shape, config, inits):
    """fit_batch's contract met by one batch of one per sample."""
    return [em_core.fit_batch([s], shape, config, [start])[0]
            for s, start in zip(samples, inits)]


def test_selection_batched_matches_scalar_fits(reference_mixture, monkeypatch):
    diffs = generate_synthetic(reference_mixture, 4000, rng_seed=21)
    shapes = [ModelShape(1, 1), ModelShape(0, 2), ModelShape(2, 1)]
    kwargs = dict(n_boot=5, subsample_size=150, days=3, rng_seed=8)
    monkeypatch.setattr(em_core, "BATCH_MEMBERS", 4)  # several batches per shape
    batched = run_selection(diffs, shapes, **kwargs)
    monkeypatch.setattr(model_select, "fit_batch", scalar_fit_batch)
    scalar = run_selection(diffs, shapes, **kwargs)
    assert batched.winner_tally == scalar.winner_tally
    for eb, es in zip(batched.ensembles, scalar.ensembles):
        assert (eb.start_index, eb.winner) == (es.start_index, es.winner)
        for shape in shapes:
            assert eb.stats[shape].skipped == es.stats[shape].skipped
            np.testing.assert_allclose(eb.stats[shape].samples, es.stats[shape].samples,
                                       rtol=1e-10)


def test_selection_draws_each_replica_once(reference_mixture, monkeypatch):
    calls = []
    draw = model_select.bootstrap_resample
    monkeypatch.setattr(model_select, "bootstrap_resample",
                        lambda s, seed: calls.append(seed) or draw(s, seed))
    diffs = generate_synthetic(reference_mixture, 3000, rng_seed=22)
    shapes = [ModelShape(1, 1), ModelShape(0, 2), ModelShape(3, 0)]
    run_selection(diffs, shapes, n_boot=4, subsample_size=120, days=2, rng_seed=9)
    assert len(calls) == 2 * 4 and len(set(calls)) == 8


def test_selection_direct_variant_runs_through_fit_batch(reference_mixture, monkeypatch):
    calls, results = [], []
    batched = model_select.fit_batch
    monkeypatch.setattr(model_select, "fit_batch", lambda samples, shape, cfg, inits: (
        calls.append((len(samples), cfg, inits))
        or results.append(batched(samples, shape, cfg, inits)) or results[-1]))
    diffs = generate_synthetic(reference_mixture, 3000, rng_seed=23)
    cfg = EmConfig(m_step_variant=MStepVariant.DIRECT_OBJECTIVE, max_iter=20)
    rep = run_selection(diffs, [ModelShape(1, 0)], n_boot=2, subsample_size=100, days=2,
                        rng_seed=10, config=cfg)
    # the originals in one batch, then the replicas in another
    assert [(n, c) for n, c, _ in calls] == [(2, cfg), (4, cfg)]
    assert all(st.samples.size + st.skipped == 3 for e in rep.ensembles for st in e.stats.values())
    # replicas start from their ensemble's original fit, ensemble by ensemble
    assert calls[0][2] == [None, None]
    assert calls[1][2] == [r.model for r in results[0] for _ in range(2)]


def test_selection_requires_enough_data(reference_mixture):
    diffs = generate_synthetic(reference_mixture, 100, rng_seed=19)
    with pytest.raises(DomainError):
        run_selection(diffs, [ModelShape(1, 1)], n_boot=2, subsample_size=200,
                      days=1, rng_seed=1)


@pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.05, math.nan])
def test_selection_rejects_alpha_level_outside_unit_interval(reference_mixture, monkeypatch,
                                                            level):
    monkeypatch.setattr(model_select, "fit_batch", None)  # fails if anything is fitted
    diffs = generate_synthetic(reference_mixture, 500, rng_seed=19)
    with pytest.raises(DomainError, match="alpha_level"):
        run_selection(diffs, [ModelShape(1, 1), ModelShape(0, 2)], n_boot=2,
                      subsample_size=100, days=1, rng_seed=1, alpha_level=level)


@pytest.mark.parametrize("n_boot, size, message", [
    (0, 100, "n_boot must be at least 1, got 0"),
    (-3, 100, "n_boot must be at least 1, got -3"),
    (2, 0, "subsample_size must be at least 1, got 0"),
    (2, -5, "subsample_size must be at least 1, got -5"),
])
def test_selection_rejects_no_replicas_or_empty_subsamples(reference_mixture, monkeypatch,
                                                          n_boot, size, message):
    # with no replica each shape has one BIC value per ensemble, too few for
    # a Welch test, so every ensemble would be fitted and then dropped
    for name in ("fit_batch", "subsample", "bootstrap_resample"):
        monkeypatch.setattr(model_select, name, None)  # fails if anything is drawn or fitted
    diffs = generate_synthetic(reference_mixture, 500, rng_seed=19)
    with pytest.raises(DomainError) as info:
        run_selection(diffs, [ModelShape(1, 1), ModelShape(0, 2)], n_boot=n_boot,
                      subsample_size=size, days=2, rng_seed=1)
    assert str(info.value) == message


@pytest.mark.parametrize("shapes, size, message", [
    ("1,1;2,1", 3, "subsample_size 3 is too small for every candidate shape: "
                   "the smallest, 1,1, needs at least 5"),
    ("2,1;0,2;1,0", 1, "subsample_size 1 is too small for every candidate shape: "
                       "the smallest, 1,0, needs at least 2"),
])
def test_selection_rejects_a_subsample_too_small_for_every_shape(reference_mixture, monkeypatch,
                                                                shapes, size, message):
    for name in ("fit_batch", "subsample", "bootstrap_resample"):
        monkeypatch.setattr(model_select, name, None)  # fails if anything is drawn or fitted
    diffs = generate_synthetic(reference_mixture, 500, rng_seed=19)
    with pytest.raises(DomainError) as info:
        run_selection(diffs, [ModelShape.parse(t) for t in shapes.split(";")], n_boot=5,
                      subsample_size=size, days=4, rng_seed=1)
    assert str(info.value) == message


def test_selection_runs_a_subsample_that_fits_only_the_smallest_shape(reference_mixture):
    """A size too small for 2,1 (7 points) but enough for 1,1 (5): the
    check lets it through, and the 2,1 fits are each skipped."""
    diffs = generate_synthetic(reference_mixture, 500, rng_seed=19)
    rep = run_selection(diffs, [ModelShape(1, 1), ModelShape(2, 1)], n_boot=2,
                        subsample_size=6, days=1, rng_seed=1)
    assert rep.ensembles[0].stats[ModelShape(2, 1)].skipped == 3


def test_selection_rejects_repeated_shape(reference_mixture):
    # counted twice, a shape's BIC samples, Welch tests and tally row would double
    diffs = generate_synthetic(reference_mixture, 500, rng_seed=19)
    shapes = [ModelShape(1, 1), ModelShape(0, 2), ModelShape(1, 1)]
    with pytest.raises(DomainError, match="1,1"):
        run_selection(diffs, shapes, n_boot=2, subsample_size=100, days=1, rng_seed=1)


# --- profile_intraday ----------------------------------------------------------------


def _day_from_model(model, n, seed, start_ms):
    d = generate_synthetic(model, n, seed)
    stamps = start_ms + np.cumsum(d)
    return stamps


def test_profile_single_day_single_bucket_equals_fit(reference_mixture):
    """One bucket on one day: its row is fit_batch's fit of that bucket
    (the engine profile runs), and the scalar fit's within fit_batch's
    contract (loglik 1e-8, parameters 1e-6 relative)."""
    spec = BucketSpec.from_hhmm("09:00", "09:30", 30)
    model = MixtureModel([0.3, 0.7], [ComponentSpec.exponential(5.0),
                                      ComponentSpec.weibull(40.0, 0.8)])
    stamps = _day_from_model(model, 2000, 21, spec.session_start_ms)
    stamps = stamps[stamps < spec.session_end_ms]
    ts = TimestampSeries(stamps)
    prof = profile_intraday([ts], spec, ModelShape(1, 1))
    assert len(prof.buckets) == 1
    b = prof.buckets[0]
    s = build_sample(diff_and_round(ts))
    (batched,) = fit_batch([s], (1, 1))
    assert b.day_count == 1
    assert b.alpha_exp == pytest.approx(batched.model.components[0].alpha, rel=1e-12)
    assert b.alpha_wbl == pytest.approx(batched.model.components[1].alpha, rel=1e-12)
    assert b.beta == pytest.approx(batched.model.components[1].beta, rel=1e-12)
    assert b.weight_exp == pytest.approx(float(batched.model.weights[0]), rel=1e-12)
    scalar = fit(s, (1, 1))
    assert batched.loglik == pytest.approx(scalar.loglik, rel=1e-8)
    assert b.alpha_exp == pytest.approx(scalar.model.components[0].alpha, rel=1e-6)
    assert b.alpha_wbl == pytest.approx(scalar.model.components[1].alpha, rel=1e-6)
    assert b.beta == pytest.approx(scalar.model.components[1].beta, rel=1e-6)
    assert b.weight_exp == pytest.approx(float(scalar.model.weights[0]), rel=1e-6)


def test_profile_skips_small_buckets():
    spec = BucketSpec.from_hhmm("09:00", "10:00", 30)
    # five stamps in the first bucket only
    ts = TimestampSeries(spec.session_start_ms + np.array([0, 10, 25, 40, 60]))
    prof = profile_intraday([ts], spec, ModelShape(1, 1), min_bucket_size=10)
    assert not prof.buckets
    assert any("small" in reason for _, _, reason in prof.skipped)


def test_profile_recovers_constant_shape():
    model = MixtureModel([0.2, 0.8], [ComponentSpec.exponential(4.0),
                                      ComponentSpec.weibull(60.0, 0.57)])
    spec = BucketSpec.from_hhmm("09:00", "10:00", 30)
    days = []
    for seed in (31, 32, 33):
        stamps = _day_from_model(model, 60_000, seed, spec.session_start_ms)
        days.append(TimestampSeries(stamps[stamps < spec.session_end_ms]))
    prof = profile_intraday(days, spec, ModelShape(1, 1), min_bucket_size=200)
    assert len(prof.buckets) == 2
    for b in prof.buckets:
        assert b.day_count == 3
        assert abs(b.beta - 0.57) <= 0.05


# --- profile_intraday against the per-bucket loop -----------------------------------


def reference_profile(days_ts, spec, shape, config=None, censor_spec=None, min_bucket_size=10):
    """profile_intraday as one scalar fit per (day, bucket)."""
    cfg = config or EmConfig()
    acc, sizes, skipped = {}, {}, []
    for day, ts in enumerate(days_ts):
        for bucket_id, series in bucket_by_time(ts, spec):
            if len(series) < 2:
                if len(series):
                    skipped.append((day, bucket_id, "fewer than two timestamps"))
                continue
            sample = build_sample(diff_and_round(series), censor_spec)
            if sample.total < max(min_bucket_size, shape.dof + 1):
                skipped.append((day, bucket_id, f"sample too small (N={sample.total})"))
                continue
            try:
                res = fit(sample, (shape.p, shape.r), cfg)
            except DomainError as exc:
                skipped.append((day, bucket_id, str(exc)))
                continue
            if res.degenerate or not math.isfinite(res.loglik):
                skipped.append((day, bucket_id, res.error or "degenerate fit"))
                continue
            acc.setdefault(bucket_id, []).append(model_select._fit_summary(res))
            sizes[bucket_id] = sizes.get(bucket_id, 0) + sample.total
    buckets = [
        model_select.BucketProfile(
            bucket_id=b, start_ms=spec.bucket_start_ms(b),
            **{key: float(np.mean([r[key] for r in rows]))
               for key in ("alpha_wbl", "alpha_exp", "beta", "weight_exp")},
            day_count=len(rows), sample_count=sizes[b],
        )
        for b, rows in sorted(acc.items())
    ]
    return model_select.IntradayProfile(spec=spec, shape=shape, buckets=buckets, skipped=skipped)


PROFILE_SPEC = BucketSpec.from_hhmm("09:00", "11:00", 30)
PROFILE_MIX = MixtureModel([0.3, 0.7], [ComponentSpec.exponential(5.0),
                                        ComponentSpec.weibull(40.0, 0.8)])
# a weight floor the single-Weibull bucket's exponential component falls through
PROFILE_FLOOR = 0.05


def _bucket_stamps(model, n, seed, bucket):
    start = PROFILE_SPEC.session_start_ms + bucket * PROFILE_SPEC.width_ms
    stamps = start + np.cumsum(generate_synthetic(model, n, seed))
    return stamps[stamps < start + PROFILE_SPEC.width_ms]


def profile_days():
    """Three days of four 30-minute buckets.  Day 0: a mixture bucket, a
    too-small bucket, a one-stamp bucket and a single-Weibull bucket whose
    (1,1) fit ends degenerate; day 1: four mixture buckets; day 2: no
    eligible bucket."""
    start, width = PROFILE_SPEC.session_start_ms, PROFILE_SPEC.width_ms
    day0 = np.concatenate([
        _bucket_stamps(PROFILE_MIX, 1500, 61, 0),
        start + width + np.array([0.0, 10.0, 25.0, 40.0, 60.0]),
        [start + 2 * width + 7.0],
        _bucket_stamps(MixtureModel([1.0], [ComponentSpec.weibull(40.0, 2.0)]), 800, 70, 3),
    ])
    day1 = np.concatenate([_bucket_stamps(PROFILE_MIX, 1200 + 100 * b, 80 + b, b)
                           for b in range(4)])
    day2 = start + np.array([3.0, 9.0, 20.0])
    return [TimestampSeries(d) for d in (day0, day1, day2)]


_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def assert_same_skips(got, want):
    """Same (day, bucket) order and reason text; a number inside a reason
    (an error's den=... or f(lo)=...) may move by rounding, as the fitted
    parameters do."""
    assert [(d, b) for d, b, _ in got] == [(d, b) for d, b, _ in want]
    for (_, _, r_got), (_, _, r_want) in zip(got, want):
        assert _NUMBER.sub("#", r_got) == _NUMBER.sub("#", r_want)
        np.testing.assert_allclose([float(v) for v in _NUMBER.findall(r_got)],
                                   [float(v) for v in _NUMBER.findall(r_want)], rtol=1e-6)


def test_profile_batched_matches_reference_loop(monkeypatch):
    monkeypatch.setattr(em_core, "BATCH_MEMBERS", 3)  # day 1 spans two batches
    monkeypatch.setattr(em_core, "WEIGHT_FLOOR", PROFILE_FLOOR)
    days = profile_days()
    got = profile_intraday(days, PROFILE_SPEC, ModelShape(1, 1))
    want = reference_profile(days, PROFILE_SPEC, ModelShape(1, 1))

    reasons = [reason for _, _, reason in want.skipped]
    assert [(d, b) for d, b, _ in want.skipped] == [(0, 1), (0, 2), (0, 3), (2, 0)]
    assert reasons[0].startswith("sample too small") and reasons[3].startswith("sample too small")
    assert reasons[1] == "fewer than two timestamps"
    assert reasons[2].startswith("DegenerateComponentError")
    assert_same_skips(got.skipped, want.skipped)

    assert [b.bucket_id for b in got.buckets] == [b.bucket_id for b in want.buckets] == [0, 1, 2, 3]
    for bg, bw in zip(got.buckets, want.buckets):
        assert (bg.start_ms, bg.day_count, bg.sample_count) == (
            bw.start_ms, bw.day_count, bw.sample_count)
        for key in ("alpha_wbl", "alpha_exp", "beta", "weight_exp"):
            assert getattr(bg, key) == pytest.approx(getattr(bw, key), rel=1e-6), key
    assert [b.day_count for b in got.buckets] == [2, 1, 1, 1]


def test_profile_direct_variant_report_equals_reference_loop(tmp_path, monkeypatch):
    """With the direct M-step a batch member's sums run over its own
    unpadded slices, so the report bytes equal those of the per-bucket
    loop."""
    from censem import cli

    width = 600_000  # --bucket-minutes 10 from the 09:00 session start
    paths = []
    for day in range(2):
        draws = [generate_synthetic(PROFILE_MIX, 300, 90 + 3 * day + b) for b in range(3)]
        stamps = np.concatenate([9 * 3600_000 + b * width + np.cumsum(d)
                                 for b, d in enumerate(draws)])
        paths.append(tmp_path / f"day{day}.txt")
        paths[-1].write_text("\n".join(str(int(v)) for v in stamps) + "\n")
    argv = ["profile", "--output", None, "--shape", "1,1", "--bucket-minutes", "10",
            "--m-step", "direct", "--max-iter", "40"]
    for p in paths:
        argv += ["--input", str(p)]
    argv[2] = str(tmp_path / "batched.txt")
    assert cli.main(argv) == 0
    monkeypatch.setattr(cli, "profile_intraday", reference_profile)
    argv[2] = str(tmp_path / "reference.txt")
    assert cli.main(argv) == 0
    assert (tmp_path / "batched.txt").read_bytes() == (tmp_path / "reference.txt").read_bytes()


# --- the EM work behind a tournament and a profile ------------------------------------


def test_selection_and_profile_em_work_is_pinned(reference_mixture, monkeypatch):
    """The EM work of a small seeded tournament and profile: E-pass calls,
    member-passes (members iterating at each call, summed) and summed fit
    iterations.  Every timing rests on these counts; a change that moves
    them does different work, and has to say so."""
    work = {"calls": 0, "members": 0, "iterations": 0}
    e_pass = em_core._Batch.e_pass

    def counted(self):
        work["calls"] += 1
        work["members"] += int(self.ids.size)
        return e_pass(self)

    def summed(*args):
        out = fit_batch(*args)
        work["iterations"] += sum(r.iterations for r in out if isinstance(r, em_core.FitResult))
        return out

    monkeypatch.setattr(em_core._Batch, "e_pass", counted)
    monkeypatch.setattr(model_select, "fit_batch", summed)
    diffs = generate_synthetic(reference_mixture, 3000, rng_seed=31)
    run_selection(diffs, [ModelShape(1, 1), ModelShape(0, 2), ModelShape(3, 0), ModelShape(2, 1)],
                  n_boot=2, subsample_size=150, days=2, rng_seed=12)
    assert work == {"calls": 865, "members": 1786, "iterations": 1762}

    work.update(calls=0, members=0, iterations=0)
    spec = BucketSpec.from_hhmm("09:00", "10:00", 20)
    days = []
    for seed in (41, 42):
        stamps = _day_from_model(reference_mixture, 3000, seed, spec.session_start_ms)
        days.append(TimestampSeries(stamps[stamps < spec.session_end_ms]))
    prof = profile_intraday(days, spec, ModelShape(1, 1))
    assert len(prof.buckets) == 3 and not prof.skipped
    assert work == {"calls": 48, "members": 120, "iterations": 114}


def test_tournament_em_work_per_shape_is_pinned(reference_mixture, monkeypatch):
    """Per candidate shape, the E-pass calls, member-passes and summed fit
    iterations of a small seeded tournament on 200-point subsamples, as
    the batched pass made them before its per-call cost was trimmed: a
    speed change that moves the iteration schedule of any shape fails
    here."""
    work = {}  # shape: [E-pass calls, member-passes, summed iterations]
    current = []
    e_pass = em_core._Batch.e_pass

    def counted(self):
        current[-1][0] += 1
        current[-1][1] += int(self.ids.size)
        return e_pass(self)

    def batched(samples, shape, config, inits):
        current.append(work.setdefault("%d,%d" % shape, [0, 0, 0]))
        out = fit_batch(samples, shape, config, inits)
        current[-1][2] += sum(r.iterations for r in out if isinstance(r, em_core.FitResult))
        return out

    monkeypatch.setattr(em_core._Batch, "e_pass", counted)
    monkeypatch.setattr(model_select, "fit_batch", batched)
    diffs = generate_synthetic(reference_mixture, 4000, rng_seed=37)
    run_selection(diffs, [ModelShape(1, 1), ModelShape(0, 2), ModelShape(3, 0), ModelShape(2, 1)],
                  n_boot=2, subsample_size=200, days=3, rng_seed=14)
    assert work == {"1,1": [91, 260, 251], "0,2": [171, 470, 461],
                    "3,0": [253, 614, 605], "2,1": [455, 1297, 1288]}


def test_select_profile_and_fit_command_never_expand_responsibilities(
        reference_mixture, monkeypatch, tmp_path):
    """A fit keeps its final responsibilities on its unique values, and
    select, profile and the fit command never build the per-observation
    rows: with that expansion made to raise, all three run."""
    def expand(self):
        raise AssertionError("per-observation responsibilities were built")

    monkeypatch.setattr(em_core._Expanding, "z", property(expand))
    diffs = generate_synthetic(reference_mixture, 3000, rng_seed=47)
    run_selection(diffs, [ModelShape(1, 1)], n_boot=2, subsample_size=150, days=2, rng_seed=3)
    profile_intraday(profile_days()[:2], PROFILE_SPEC, ModelShape(1, 1))
    sample = tmp_path / "sample.txt"
    cli.write_censored_sample(str(sample), build_sample(diffs[:400]))
    argv = ["fit", "--shape", "1,1", "--input", str(sample), "--output", str(tmp_path / "fit.txt")]
    assert cli.main(argv) == 0
