"""Acceptance gate: one test per release criterion, each at its pinned
tolerance, printing a PASS line (run with -s or -v to see them).

The reference tables frozen below come from a published benchmark of
market-order inter-arrival fits for four LSE tickers (RIO, BARC, RRLN,
ABFLN).  Criterion 1 reconstructs the BIC table from the average
log-likelihood table; note that the published N=100 columns embed a
log(200) penalty (demonstrated by test_bic_table_penalty_quirk), so the
as-stated N=100 reconstruction is expected to fail and is marked
strict-xfail rather than silently loosened.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from censem import (
    CensoringInterval,
    ComponentSpec,
    MixtureModel,
    build_sample,
    dof,
    fit,
    gamma_complete,
    gamma_upper,
    generate_synthetic,
    interval_prob,
)
from censem.cli import main as cli_main
from censem.em_core import (
    EmConfig,
    MStepVariant,
    _interval_terms,
    _shape_bracket2_array,
    _shape_series_bracket,
    censored_weibull_expected_logpdf,
    censored_weibull_shape_term,
    truncated_mean_exp,
)
from censem.model_select import ModelShape, bic, run_selection
from censem.special_fn import d_series

from conftest import d_series_decimal


def _report(num: int, name: str, detail: str = ""):
    print(f"ACCEPTANCE {num:02d} {name}: PASS {detail}".rstrip())


# ---------------------------------------------------------------------------
# frozen reference tables (four tickers: RIO, BARC, RRLN, ABFLN)
# ---------------------------------------------------------------------------

STOCKS = ("RIO", "BARC", "RRLN", "ABFLN")
STOCK_N = (200, 200, 100, 100)

# (p, r) -> average log-likelihood per event, one column per ticker
AVG_LOGLIK_TABLE = {
    (1, 1): (-8.357, -8.294, -9.510, -10.074),
    (0, 2): (-8.349, -8.288, -9.492, -10.060),
    (3, 0): (-8.422, -8.394, -9.792, -10.323),
    (2, 1): (-8.350, -8.290, -9.494, -10.061),
    (1, 2): (-8.348, -8.288, -9.489, -10.057),
    (4, 0): (-8.360, -8.300, -9.511, -10.081),
    (0, 3): (-8.348, -8.288, -9.489, -10.054),
    (3, 1): (-8.349, -8.289, -9.491, -10.055),
    (5, 0): (-8.351, -8.291, -9.497, -10.063),
}

BIC_TABLE = {
    (1, 1): (3363.99, 3338.79, 1923.19, 2035.99),
    (0, 2): (3366.09, 3341.69, 1924.89, 2038.49),
    (3, 0): (3395.29, 3384.09, 1984.89, 2091.09),
    (2, 1): (3371.79, 3347.79, 1930.59, 2043.99),
    (1, 2): (3376.29, 3352.29, 1934.89, 2048.49),
    (4, 0): (3381.09, 3357.09, 1939.29, 2053.29),
    (0, 3): (3381.59, 3357.59, 1940.19, 2053.19),
    (3, 1): (3381.99, 3357.99, 1940.59, 2053.39),
    (5, 0): (3388.08, 3364.08, 1947.08, 2060.28),
}

RECOVERY_TRUTH = MixtureModel(
    [0.2, 0.8], [ComponentSpec.exponential(17.0), ComponentSpec.weibull(2500.0, 0.57)]
)
RECOVERY_SEEDS = tuple(range(20))
RECOVERY_N = 100_000


# ---------------------------------------------------------------------------
# criterion 1: BIC table reconstruction
# ---------------------------------------------------------------------------


def test_criterion_1_bic_table_big_stocks():
    for shape, avgs in AVG_LOGLIK_TABLE.items():
        d = dof(*shape)
        for col in (0, 1):  # the N=200 tickers
            n = STOCK_N[col]
            got = bic(avgs[col] * n, d, n)
            assert got == pytest.approx(BIC_TABLE[shape][col], abs=0.05), (shape, STOCKS[col])
    _report(1, "BIC table reconstruction (N=200 columns)", "18/18 cells within 0.05")


@pytest.mark.xfail(
    strict=True,
    reason="the published N=100 columns embed a log(200) penalty: every cell "
    "differs from -2*avg*100 + d*log(100) by exactly d*log(2); see "
    "test_criterion_1_bic_table_penalty_quirk",
)
def test_criterion_1_bic_table_small_stocks_as_stated():
    for shape, avgs in AVG_LOGLIK_TABLE.items():
        d = dof(*shape)
        for col in (2, 3):  # the N=100 tickers
            n = STOCK_N[col]
            got = bic(avgs[col] * n, d, n)
            assert got == pytest.approx(BIC_TABLE[shape][col], abs=0.05), (shape, STOCKS[col])


def test_criterion_1_bic_table_penalty_quirk():
    # all 36 cells reproduce once the penalty term uses N=200 throughout,
    # i.e. the likelihood is scaled by the ticker's own sample size but
    # the complexity penalty is not
    for shape, avgs in AVG_LOGLIK_TABLE.items():
        d = dof(*shape)
        for col in range(4):
            got = -2.0 * (avgs[col] * STOCK_N[col]) + d * math.log(200.0)
            assert got == pytest.approx(BIC_TABLE[shape][col], abs=0.05), (shape, STOCKS[col])
    _report(1, "BIC table reconstruction (penalty quirk documented)", "36/36 cells with log(200) penalty")


# ---------------------------------------------------------------------------
# criterion 2: parameter-count table
# ---------------------------------------------------------------------------


def test_criterion_2_dof_table():
    expected = {(1, 1): 4, (0, 2): 5, (3, 0): 5, (2, 1): 6, (1, 2): 7,
                (4, 0): 7, (0, 3): 8, (3, 1): 8, (5, 0): 9}
    for (p, r), d in expected.items():
        assert dof(p, r) == d == 2 * p + 3 * r - 1
    _report(2, "dof table", "9/9 rows exact")


# ---------------------------------------------------------------------------
# criteria 3 / 5 / 9 share the synthetic recovery datasets
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def recovery_runs():
    t0 = time.monotonic()
    samples = {}
    fits = {}
    for seed in RECOVERY_SEEDS:
        s = build_sample(generate_synthetic(RECOVERY_TRUTH, RECOVERY_N, seed))
        samples[seed] = s
        fits[seed] = fit(s, (1, 1))
    elapsed = time.monotonic() - t0
    return samples, fits, elapsed


def test_criterion_3_parameter_recovery(recovery_runs):
    samples, fits, elapsed = recovery_runs
    passes = 0
    worst = {"beta": 0.0, "w": 0.0, "a1": 0.0, "a2": 0.0}
    for seed in RECOVERY_SEEDS:
        res = fits[seed]
        w_exp = float(res.model.weights[0])
        c_exp, c_wbl = res.model.components
        err_beta = abs(c_wbl.beta - 0.57)
        err_w = abs(w_exp - 0.2)
        err_a1 = abs(c_exp.alpha - 17.0) / 17.0
        err_a2 = abs(c_wbl.alpha - 2500.0) / 2500.0
        worst = {
            "beta": max(worst["beta"], err_beta),
            "w": max(worst["w"], err_w),
            "a1": max(worst["a1"], err_a1),
            "a2": max(worst["a2"], err_a2),
        }
        if res.converged and err_beta <= 0.02 and err_w <= 0.02 and err_a1 <= 0.05 and err_a2 <= 0.05:
            passes += 1
    assert passes >= 18, (passes, worst)
    assert elapsed < 60.0, f"recovery runtime {elapsed:.1f}s exceeds 60s"
    _report(3, "parameter recovery", f"{passes}/20 seeds, {elapsed:.1f}s, worst={worst}")


def test_criterion_5_variant_agreement(recovery_runs):
    samples, fits, _ = recovery_runs
    cfg = EmConfig(m_step_variant=MStepVariant.DIRECT_OBJECTIVE)
    worst = 0.0
    for seed in RECOVERY_SEEDS:
        direct = fit(samples[seed], (1, 1), cfg)
        gap = abs(direct.loglik - fits[seed].loglik)
        worst = max(worst, gap)
        assert gap <= 1e-3, (seed, gap)
    _report(5, "M-step variant agreement", f"worst |dloglik| = {worst:.2e}")


def test_criterion_9_zero_inflation_bookkeeping(recovery_runs):
    samples, _, _ = recovery_runs
    q = sum(
        w * interval_prob(c, CensoringInterval(0.0, 0.5))
        for w, c in zip(RECOVERY_TRUTH.weights, RECOVERY_TRUTH.components)
    )
    sigma = math.sqrt(q * (1.0 - q) / RECOVERY_N)
    for seed in RECOVERY_SEEDS:
        s = samples[seed]
        frac = (s.total - s.n) / s.total
        assert abs(frac - q) <= 3.0 * sigma, (seed, frac, q)
    _report(9, "zero-inflation bookkeeping", f"target {q:.5f}, 3 sigma = {3*sigma:.5f}")


# ---------------------------------------------------------------------------
# criterion 4: generalized-EM monotonicity of the direct variant
# ---------------------------------------------------------------------------


def _instance_model(k: int) -> tuple[tuple[int, int], MixtureModel]:
    shape = [(1, 0), (1, 1), (0, 2)][k % 3]
    if shape == (1, 0):
        return shape, MixtureModel([1.0], [ComponentSpec.exponential(2.0 + (k % 7))])
    if shape == (1, 1):
        return shape, MixtureModel(
            [0.25, 0.75],
            [
                ComponentSpec.exponential(3.0 + 0.5 * (k % 5)),
                ComponentSpec.weibull(60.0 + 15.0 * (k % 4), 0.55 + 0.05 * (k % 5)),
            ],
        )
    return shape, MixtureModel(
        [0.35, 0.65],
        [
            ComponentSpec.weibull(4.0 + 0.5 * (k % 3), 1.3 + 0.1 * (k % 4)),
            ComponentSpec.weibull(150.0 + 40.0 * (k % 5), 0.6 + 0.04 * (k % 6)),
        ],
    )


def test_criterion_4_em_monotonicity_direct():
    cfg = EmConfig(m_step_variant=MStepVariant.DIRECT_OBJECTIVE)
    worst = 0.0
    for k in range(100):
        shape, truth = _instance_model(k)
        s = build_sample(generate_synthetic(truth, 400, rng_seed=10_000 + k))
        res = fit(s, shape, cfg)
        deltas = np.diff(res.loglik_trace)
        worst = min(worst, float(deltas.min())) if deltas.size else worst
        assert np.all(deltas >= -1e-9), (k, shape, float(deltas.min()))
    _report(4, "EM monotonicity (direct M-step)", f"100 instances, worst delta {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 6: censored-term oracles
# ---------------------------------------------------------------------------


def _expected_logpdf_quad(prev, alpha, beta, iv):
    a = 0.0 if iv.lo == 0.0 else (iv.lo / prev.alpha) ** prev.beta
    b = (iv.hi / prev.alpha) ** prev.beta
    la_prev = math.log(prev.alpha)

    def integrand(u):
        rel = la_prev + math.log(u) / prev.beta - math.log(alpha)
        return (math.log(beta) - math.log(alpha) + (beta - 1.0) * rel
                - math.exp(beta * rel)) * math.exp(-u)

    val, _ = quad(integrand, a, b, epsabs=1e-14, epsrel=1e-13, limit=400)
    return val / (math.exp(-a) - math.exp(-b))


def _cond_mean_exp_quad(alpha, iv):
    num, _ = quad(lambda y: y * math.exp(-y / alpha) / alpha, iv.lo, iv.hi,
                  epsabs=1e-14, epsrel=1e-13, limit=200)
    den, _ = quad(lambda y: math.exp(-y / alpha) / alpha, iv.lo, iv.hi,
                  epsabs=1e-14, epsrel=1e-13, limit=200)
    return num / den


GRID_ALPHAS = (1.0, 10.0, 300.0, 2500.0)
GRID_BETAS = (0.4, 0.57, 1.0, 1.8)
GRID_INTERVALS = (
    CensoringInterval(0.0, 0.5),
    CensoringInterval(0.5, 1.5),
    CensoringInterval(1.0, 4.0),
)


def test_criterion_6_censored_term_oracles():
    checked = 0
    for alpha in GRID_ALPHAS:
        for iv in GRID_INTERVALS:
            c_val = truncated_mean_exp(alpha, iv)
            assert c_val == pytest.approx(_cond_mean_exp_quad(alpha, iv), abs=1e-9, rel=1e-9)
        for beta in GRID_BETAS:
            prev = ComponentSpec.weibull(alpha, beta)
            cand_alpha, cand_beta = 1.15 * alpha, 0.9 * beta
            for iv in GRID_INTERVALS:
                terms = _interval_terms(iv, prev.alpha, prev.beta)
                got = censored_weibull_expected_logpdf(prev, cand_alpha, cand_beta, terms)
                want = _expected_logpdf_quad(prev, cand_alpha, cand_beta, iv)
                assert got == pytest.approx(want, abs=1e-8, rel=1e-8), (alpha, beta, iv)

                d_got = censored_weibull_shape_term(prev, cand_alpha, cand_beta, terms)
                h = 1e-4 * cand_beta

                def fd(step):
                    hi = _expected_logpdf_quad(prev, cand_alpha, cand_beta + step, iv)
                    lo = _expected_logpdf_quad(prev, cand_alpha, cand_beta - step, iv)
                    return (hi - lo) / (2.0 * step)

                deriv = (4.0 * fd(h / 2.0) - fd(h)) / 3.0  # Richardson-extrapolated
                want_d = (deriv - 1.0 / cand_beta - math.log(prev.alpha / cand_alpha)) * terms.mass
                assert d_got == pytest.approx(want_d, abs=1e-7, rel=1e-7), (alpha, beta, iv)
                checked += 1
    _report(6, "censored-term oracles", f"{checked} grid points")


def _bracket2_quad(lo, hi):
    """int_lo^hi t e^-t log t dt, the s = 2 shape-score bracket."""
    val, _ = quad(lambda t: t * math.exp(-t) * math.log(t), lo, hi,
                  epsabs=0.0, epsrel=1e-13, limit=400)
    return val


@pytest.mark.parametrize("z", [5.0, 10.0, 30.0, 60.0, 100.0, 300.0])
def test_criterion_6_shape_bracket_oracle_at_large_zeta(z):
    """The s = 2 bracket of the self-consistent shape score where the
    alternating series has lost its digits: intervals [z, 2z), [z, inf)
    and [0, z), scalar and batched."""
    for lo, hi in ((z, 2.0 * z), (z, math.inf), (0.0, z)):
        want = _bracket2_quad(lo, hi)
        got = _shape_series_bracket(2.0, lo, hi)
        assert got == pytest.approx(want, rel=1e-11), (lo, hi)
        batched = _shape_bracket2_array(np.array([[lo]]), np.array([[hi]]), np.array([[True]]))
        assert batched[0, 0] == pytest.approx(want, rel=1e-11), (lo, hi)


# ---------------------------------------------------------------------------
# criterion 7: special-function identities
# ---------------------------------------------------------------------------


def test_criterion_7_special_function_identities():
    svals = np.linspace(0.1, 10.0, 50)
    xvals = np.geomspace(0.01, 30.0, 50)
    for s in svals:
        for x in xvals:
            lhs = gamma_upper(s + 1.0, x)
            rhs = s * gamma_upper(s, x) + x ** s * math.exp(-x)
            assert abs(lhs - rhs) <= 1e-10 * lhs
    for x in xvals:
        assert gamma_upper(1.0, x) == pytest.approx(math.exp(-x), rel=1e-10)
    for s in svals:
        assert gamma_upper(s, 0.0) == pytest.approx(gamma_complete(s), rel=1e-12)
    for a in (0.1, 0.5, 1.0, 2.0, 5.0):
        for z in (0.05, 0.5, 1.0, 2.5, 5.0):
            assert d_series(a, z) == pytest.approx(d_series_decimal(a, z), rel=1e-10)
    _report(7, "special-function identities", "recurrence, survivals, series oracle")


# ---------------------------------------------------------------------------
# criterion 8: model-selection sanity on data truly from the baseline
# ---------------------------------------------------------------------------


def test_criterion_8_model_selection_prefers_true_shape():
    diffs = generate_synthetic(RECOVERY_TRUTH, 30_000, rng_seed=777)
    shapes = [ModelShape(1, 1), ModelShape(0, 2), ModelShape(3, 0), ModelShape(2, 1)]
    t0 = time.monotonic()
    report = run_selection(
        diffs, shapes, n_boot=200, subsample_size=200, days=20, rng_seed=2718
    )
    elapsed = time.monotonic() - t0
    tally = report.winner_tally
    assert tally[ModelShape(1, 1)] >= 0.5, tally
    assert tally[ModelShape(2, 1)] == 0.0, tally
    assert elapsed < 600.0, f"selection runtime {elapsed:.0f}s exceeds 10 min"
    _report(
        8,
        "model selection sanity",
        f"tally {{{', '.join(f'{s.key}: {tally[s]:.2f}' for s in shapes)}}}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# criterion 10: CLI determinism
# ---------------------------------------------------------------------------


def _run_cli(*argv):
    assert cli_main(list(argv)) == 0


def test_criterion_10_cli_determinism(tmp_path):
    pairs = []

    sim = [str(tmp_path / f"sim{i}.txt") for i in (0, 1)]
    for out in sim:
        _run_cli("simulate", "--component", "exp,0.2,17",
                 "--component", "wbl,0.8,2500,0.57", "--n", "6000",
                 "--seed", "4242", "--output", out)
    pairs.append(("simulate", *sim))

    pre = [str(tmp_path / f"pre{i}.txt") for i in (0, 1)]
    for out in pre:
        _run_cli("preprocess", "--input", sim[0], "--output", out, "--pre-diffed")
    pairs.append(("preprocess", *pre))

    fits = [str(tmp_path / f"fit{i}.txt") for i in (0, 1)]
    for out in fits:
        _run_cli("fit", "--input", pre[0], "--output", out, "--shape", "1,1",
                 "--seed", "4242")
    pairs.append(("fit", *fits))

    sels = [str(tmp_path / f"sel{i}.txt") for i in (0, 1)]
    for out in sels:
        _run_cli("select", "--input", sim[0], "--output", out, "--shapes", "1,1;0,2",
                 "--boot", "8", "--subsample", "150", "--days", "2", "--seed", "4242")
    pairs.append(("select", *sels))

    day = tmp_path / "day.txt"
    d = generate_synthetic(RECOVERY_TRUTH, 30_000, rng_seed=31415)
    stamps = 9 * 3600_000 + np.cumsum(d)
    stamps = stamps[stamps < 17 * 3600_000 + 1800_000]
    day.write_text("\n".join(str(int(t)) for t in stamps) + "\n", encoding="utf-8")
    profs = [str(tmp_path / f"prof{i}.txt") for i in (0, 1)]
    for out in profs:
        _run_cli("profile", "--input", str(day), "--output", out,
                 "--bucket-minutes", "30", "--min-bucket", "30")
    pairs.append(("profile", *profs))

    for name, a, b in pairs:
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read(), f"{name} output not byte-identical"
    _report(10, "CLI determinism", "all five commands byte-identical on rerun")
