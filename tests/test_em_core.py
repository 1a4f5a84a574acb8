import dataclasses
import decimal
import math
import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from censem import (
    CensoringInterval,
    ComponentSpec,
    Kind,
    MixtureModel,
    censored_log_likelihood,
    dof,
    e_step,
    fit,
    interval_prob,
    log_pdf,
    m_step_direct,
    q_objective,
    sample,
    update_weights,
)
from censem import em_core
from censem.em_core import (
    BETA_BRACKET,
    EmConfig,
    FitResult,
    MStepVariant,
    Responsibilities,
    _interval_terms,
    censored_weibull_expected_logpdf,
    censored_weibull_shape_term,
    m_step_exponential,
    m_step_weibull_alpha,
    m_step_weibull_beta,
    truncated_mean_exp,
    _wbl_shape_equation,
    _interval_pass,
    _row_pass,
    _shape_bracket2_array,
    _shape_score,
    _shape_series_bracket,
    _shape_step,
    default_init,
    fit_batch,
)
from censem.components import (
    _log_mixture_interval,
    _log_mixture_matrix,
    _logsumexp,
    log_interval_prob,
)
from censem.errors import (
    BracketError,
    DegenerateComponentError,
    DomainError,
    NonConvergenceError,
    ResponsibilityUnderflowError,
)
from censem.rootfind import golden_max
from censem.sample_data import (
    CensoredSample,
    bootstrap_resample,
    build_sample,
    generate_synthetic,
)


def resp(z_rows, zt_rows):
    return Responsibilities(
        z=np.asarray(z_rows, dtype=float).reshape(-1, np.asarray(z_rows).shape[-1] if np.asarray(z_rows).size else 1),
        z_tilde=np.asarray(zt_rows, dtype=float),
    )


# --- quadrature oracles -------------------------------------------------------


def expected_logpdf_quad(prev: ComponentSpec, alpha: float, beta: float, iv: CensoringInterval) -> float:
    """E[log f(Y|alpha,beta) | Y in iv] under prev, by quadrature in the
    unit-exponential variable of the previous parameters."""
    a = 0.0 if iv.lo == 0.0 else (iv.lo / prev.alpha) ** prev.beta
    b = (iv.hi / prev.alpha) ** prev.beta
    la_prev = math.log(prev.alpha)

    def integrand(u):
        log_y = la_prev + math.log(u) / prev.beta
        rel = log_y - math.log(alpha)
        return (math.log(beta) - math.log(alpha) + (beta - 1.0) * rel
                - math.exp(beta * rel)) * math.exp(-u)

    val, _ = quad(integrand, a, b, epsabs=1e-13, epsrel=1e-12, limit=400)
    mass = math.exp(-a) - math.exp(-b)
    return val / mass


def cond_mean_exp_quad(alpha: float, iv: CensoringInterval) -> float:
    num, _ = quad(lambda y: y * math.exp(-y / alpha) / alpha, iv.lo, iv.hi,
                  epsabs=1e-14, epsrel=1e-13)
    den, _ = quad(lambda y: math.exp(-y / alpha) / alpha, iv.lo, iv.hi,
                  epsabs=1e-14, epsrel=1e-13)
    return num / den


# --- e_step --------------------------------------------------------------------


def test_e_step_symmetric_components():
    c = ComponentSpec.exponential(2.0)
    m = MixtureModel([0.5, 0.5], [c, c])
    s = CensoredSample(np.array([1.0, 3.0]), [CensoringInterval(0.0, 0.5, 2)])
    r = e_step(m, s)
    assert np.allclose(r.z, 0.5, atol=1e-14)
    assert np.allclose(r.z_tilde, 0.5, atol=1e-14)


def test_e_step_two_exponentials_formula():
    m = MixtureModel([0.5, 0.5], [ComponentSpec.exponential(1.0), ComponentSpec.exponential(2.0)])
    s = CensoredSample(np.array([1.0]), [])
    r = e_step(m, s)
    f1, f2 = math.exp(-1.0), 0.5 * math.exp(-0.5)
    assert r.z[0, 0] == pytest.approx(f1 / (f1 + f2), rel=1e-12)
    assert r.z[0, 0] == pytest.approx(0.5481, abs=5e-5)


def test_e_step_zero_weight_component():
    m = MixtureModel([0.0, 1.0], [ComponentSpec.exponential(1.0), ComponentSpec.exponential(2.0)])
    s = CensoredSample(np.array([1.0, 2.0, 3.0]), [])
    r = e_step(m, s)
    assert np.all(r.z[:, 0] == 0.0)


def test_e_step_rows_sum_to_one(reference_mixture):
    s = build_sample(generate_synthetic(reference_mixture, 500, rng_seed=3))
    r = e_step(reference_mixture, s)
    assert np.allclose(r.z.sum(axis=1), 1.0, atol=1e-10)
    assert np.allclose(r.z_tilde.sum(axis=1), 1.0, atol=1e-10)


def test_e_step_underflow_raises_with_index():
    m = MixtureModel([1.0], [ComponentSpec.weibull(1.0, 2.0)])
    s = CensoredSample(np.array([5.0, 1e300]), [])
    with pytest.raises(ResponsibilityUnderflowError) as err:
        e_step(m, s)
    assert err.value.index == 1


def test_e_step_interval_underflow_gets_uniform_row(caplog):
    m = MixtureModel([0.5, 0.5], [ComponentSpec.exponential(1.0), ComponentSpec.weibull(1.0, 2.0)])
    s = CensoredSample(np.array([1.0]), [CensoringInterval(1e290, 1e295, 2)])
    with caplog.at_level("WARNING"):
        r = e_step(m, s)
    assert np.allclose(r.z_tilde[0], 0.5)
    assert any("underflow" in rec.message for rec in caplog.records)


# --- update_weights -------------------------------------------------------------


def test_update_weights_uniform_responsibilities():
    s = CensoredSample(np.array([1.0, 2.0]), [CensoringInterval(0.0, 0.5, 2)])
    r = resp(np.full((2, 2), 0.5), np.full((1, 2), 0.5))
    w = update_weights(r, s)
    assert np.allclose(w, [0.5, 0.5], atol=1e-15)


def test_update_weights_single_component():
    s = CensoredSample(np.array([1.0]), [])
    r = resp(np.ones((1, 1)), np.empty((0, 1)))
    assert update_weights(r, s).tolist() == [1.0]


def test_update_weights_simplex_property_random():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        z = rng.random((n, m))
        z /= z.sum(axis=1, keepdims=True)
        zt = rng.random((1, m))
        zt /= zt.sum()
        counts = int(rng.integers(0, 9))
        s = CensoredSample(
            rng.random(n) + 0.6, [CensoringInterval(0.0, 0.5, counts)]
        )
        w = update_weights(resp(z, zt), s)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert np.all(w >= 0.0)


# --- truncated exponential mean ---------------------------------------------------


def test_truncated_mean_full_range_is_scale():
    assert truncated_mean_exp(1.0, CensoringInterval(0.0, 1e9)) == pytest.approx(1.0, abs=1e-12)


def test_truncated_mean_zero_bin_vs_quadrature():
    iv = CensoringInterval(0.0, 0.5)
    v = truncated_mean_exp(1.0, iv)
    assert v == pytest.approx(cond_mean_exp_quad(1.0, iv), abs=1e-12)
    # frozen from the quadrature oracle above
    assert v == pytest.approx(0.2292529587, abs=1e-9)


def test_truncated_mean_inside_interval():
    rng = np.random.default_rng(5)
    for _ in range(50):
        alpha = float(rng.uniform(0.1, 50.0))
        lo = float(rng.uniform(0.0, 10.0))
        hi = lo + float(rng.uniform(0.01, 20.0))
        v = truncated_mean_exp(alpha, CensoringInterval(lo, hi))
        assert lo < v < hi


# --- exponential M-step ------------------------------------------------------------


def test_exp_m_step_uncensored_is_mean():
    x = np.array([1.0, 2.0, 6.0])
    s = CensoredSample(x, [])
    r = resp(np.ones((3, 1)), np.empty((0, 1)))
    assert m_step_exponential(r, s, 0, alpha_prev=2.0) == pytest.approx(x.mean(), rel=1e-14)


def test_exp_m_step_fully_censored_is_conditional_mean():
    iv = CensoringInterval(0.0, 0.5, 10)
    s = CensoredSample(np.empty(0), [iv])
    r = resp(np.empty((0, 1)), np.ones((1, 1)))
    assert m_step_exponential(r, s, 0, alpha_prev=1.0) == pytest.approx(
        truncated_mean_exp(1.0, iv), rel=1e-14
    )


def test_exp_m_step_matches_block_maximizer():
    # hand-set two-component responsibilities; golden-section maximization
    # of the exponential conditional-expectation block is the oracle
    x = np.array([0.7, 1.3, 4.0, 9.0])
    iv = CensoringInterval(0.0, 0.5, 6)
    s = CensoredSample(x, [iv])
    z = np.array([[0.9, 0.1], [0.7, 0.3], [0.2, 0.8], [0.05, 0.95]])
    zt = np.array([[0.6, 0.4]])
    r = resp(z, zt)
    alpha_prev = 2.0
    got = m_step_exponential(r, s, 0, alpha_prev)
    C = truncated_mean_exp(alpha_prev, iv)
    wsum = z[:, 0].sum() + 6 * zt[0, 0]
    bsum = (z[:, 0] * x).sum() + 6 * zt[0, 0] * C

    def block(alpha):
        return -wsum * math.log(alpha) - bsum / alpha

    a_star, _ = golden_max(block, got / 10.0, got * 10.0, xtol=1e-12)
    assert got == pytest.approx(a_star, rel=1e-6)


# --- Weibull scale M-step ------------------------------------------------------------


def test_wbl_alpha_beta_one_equals_exponential():
    x = np.array([1.0, 2.0, 6.0])
    s = CensoredSample(x, [])
    r = resp(np.ones((3, 1)), np.empty((0, 1)))
    prev = ComponentSpec.weibull(2.0, 1.0)
    assert m_step_weibull_alpha(r, s, 0, prev) == pytest.approx(
        m_step_exponential(r, s, 0, 2.0), rel=1e-13
    )


def test_wbl_alpha_uncensored_fixed_shape_mle():
    x = np.array([0.5, 1.5, 2.5, 8.0])
    beta = 1.7
    s = CensoredSample(x, [])
    r = resp(np.ones((4, 1)), np.empty((0, 1)))
    prev = ComponentSpec.weibull(3.0, beta)
    expected = (np.mean(x ** beta)) ** (1.0 / beta)
    assert m_step_weibull_alpha(r, s, 0, prev) == pytest.approx(expected, rel=1e-13)


def test_wbl_alpha_censored_matches_score_root():
    # oracle: bracketed root of the scale score with the shape pinned,
    # using the closed form Gamma(2,x) = (1+x) e^(-x)
    x = np.array([1.0, 2.0, 3.0, 10.0, 40.0])
    iv = CensoringInterval(0.0, 0.5, 7)
    s = CensoredSample(x, [iv])
    z = np.array([[1.0], [1.0], [1.0], [1.0], [1.0]])
    zt = np.array([[1.0]])
    r = resp(z, zt)
    prev = ComponentSpec.weibull(5.0, 0.8)
    got = m_step_weibull_alpha(r, s, 0, prev)

    zl = (iv.lo / prev.alpha) ** prev.beta
    zh = (iv.hi / prev.alpha) ** prev.beta
    mass = math.exp(-zl) - math.exp(-zh)
    g2 = lambda t: (1.0 + t) * math.exp(-t)
    G = (g2(zl) - g2(zh)) / mass

    def residual(alpha):
        t1 = np.sum(-1.0 + (x / alpha) ** prev.beta)
        t2 = 7.0 * (-1.0 + (prev.alpha / alpha) ** prev.beta * G)
        return t1 + t2

    root = brentq(residual, 1e-3, 1e4, xtol=1e-12, rtol=1e-15)
    assert got == pytest.approx(root, rel=1e-8)


# --- Weibull shape M-step -------------------------------------------------------------


def test_wbl_beta_equation_reduces_to_textbook_form():
    x = np.array([0.4, 1.1, 2.2, 5.0])
    w = np.ones(4)
    alpha = 1.9
    f = _wbl_shape_equation(x, w, np.empty(0), [], alpha, beta_prev=1.0)
    for beta in (0.3, 0.8, 1.5, 3.0):
        l = np.log(x / alpha)
        direct = x.size / beta + l.sum() - np.sum((x / alpha) ** beta * l)
        assert f(np.array([beta]))[0][0] == pytest.approx(direct, rel=1e-12)


def test_wbl_beta_consistency_large_sample():
    xs = sample(MixtureModel([1.0], [ComponentSpec.weibull(3.0, 2.0)]), 100_000, rng_seed=17)
    s = CensoredSample(xs, [])
    res = fit(s, (0, 1))
    assert res.converged
    assert res.model.components[0].beta == pytest.approx(2.0, abs=0.03)


def test_wbl_beta_censoring_vanishes_continuously():
    xs = sample(MixtureModel([1.0], [ComponentSpec.weibull(1.0, 0.8)]), 3000, rng_seed=23)
    base = fit(CensoredSample(np.sort(xs), []), (0, 1)).model.components[0].beta
    deviations = []
    for cut in (0.3, 0.1, 0.03, 0.01, 0.003):
        censored = xs[xs >= cut]
        count = int((xs < cut).sum())
        s = CensoredSample(np.sort(censored), [CensoringInterval(0.0, cut, count)])
        beta_hat = fit(s, (0, 1)).model.components[0].beta
        deviations.append(abs(beta_hat - base))
    assert deviations[-1] < 0.01
    assert deviations[-1] <= deviations[0] + 1e-9


def test_wbl_beta_bracket_failure_reports_endpoints():
    """Zero spread: the score is 4 / beta > 0 everywhere, so there is no
    root.  From 15 the step (to the cap 2 beta = 30) leaves the bracket,
    and the ends show no sign change."""
    x = np.array([2.0, 2.0, 2.0, 2.0])
    s = CensoredSample(x, [])
    r = resp(np.ones((4, 1)), np.empty((0, 1)))
    prev = ComponentSpec.weibull(2.0, 15.0)
    with pytest.raises(BracketError) as err:
        m_step_weibull_beta(r, s, 0, prev, alpha_new=2.0)
    lo, hi = BETA_BRACKET
    assert (err.value.f_lo, err.value.f_hi) == pytest.approx((4.0 / lo, 4.0 / hi), rel=1e-15)
    assert str(err.value) == (f"shape root not bracketed in [{lo}, {hi}]: "
                              f"f(lo)={err.value.f_lo}, f(hi)={err.value.f_hi}")


def random_shape_scores(rows: int, seed: int):
    """Strictly decreasing shape scores A / beta + B - sum wl e^(beta l),
    with wl = w l and w > 0, as the batched M-step builds them.  The
    spread of l varies by row, so the roots spread over (1e-2, 1e2)."""
    rng = np.random.default_rng(seed)
    spread = np.exp(rng.uniform(np.log(0.02), np.log(20.0), (rows, 1)))
    l_rel = rng.normal(0.0, 1.0, (rows, 25)) * spread
    w = rng.exponential(1.0, l_rel.shape)
    wl = w * l_rel
    a_mass = w.sum(axis=1) + rng.exponential(1.0, rows)
    b_const = wl.sum(axis=1) + rng.normal(0.0, 1.0, rows) * spread[:, 0]
    return l_rel, wl, a_mass, b_const


def counting(score, n):
    """score, and the number of times each row was evaluated."""
    calls = np.zeros(n, dtype=int)

    def counted(beta, rows=...):
        calls[np.arange(n)[rows]] += 1
        return score(beta, rows)

    return counted, calls


def test_batch_shape_step_matches_scalar_step():
    """_shape_step over 300 rows at once against the same rule on each row
    alone: a row's step does not depend on the others, value for value and
    failure for failure."""
    rows = 300
    l_rel, wl, a_mass, b_const = random_shape_scores(rows, seed=41)
    start = np.exp(np.random.default_rng(43).uniform(np.log(0.03), np.log(30.0), rows))
    steps, ok, f_lo, f_hi = _shape_step(_shape_score(l_rel, wl, a_mass, b_const), start)
    for k in range(rows):
        one = _shape_step(_shape_score(l_rel[k:k + 1], wl[k:k + 1], a_mass[k:k + 1],
                                       b_const[k:k + 1]), start[k:k + 1])
        np.testing.assert_allclose([steps[k], f_lo[k], f_hi[k]], [v[0] for v in (one[0], *one[2:])],
                                   rtol=1e-13)
        assert ok[k] == one[1][0]
    assert 0 < (~ok).sum() < rows // 2
    assert np.isnan(steps[~ok]).all()


def test_shape_step_is_capped_newton_step():
    """Inside the bracket the step is beta - f / f', capped to [beta / 2,
    2 beta], and costs one evaluation per row; f' is the score's slope."""
    l_rel, wl, a_mass, b_const = random_shape_scores(200, seed=5)
    score = _shape_score(l_rel, wl, a_mass, b_const)
    beta = np.exp(np.random.default_rng(6).uniform(np.log(0.2), np.log(5.0), 200))
    f, df = score(beta)
    h = 1e-6 * beta
    np.testing.assert_allclose(df, (score(beta + h)[0] - score(beta - h)[0]) / (2.0 * h), rtol=1e-6)
    counted, calls = counting(score, 200)
    steps, ok, f_lo, f_hi = _shape_step(counted, beta)
    expect = np.clip(beta - f / df, 0.5 * beta, 2.0 * beta)
    inside = (BETA_BRACKET[0] <= expect) & (expect <= BETA_BRACKET[1])
    assert inside.sum() > 150
    assert ok[inside].all() and np.isnan(f_lo[inside]).all() and np.isnan(f_hi[inside]).all()
    np.testing.assert_array_equal(steps[inside], expect[inside])
    assert (calls[inside] == 1).all() and (calls[~inside] == 3).all()
    capped = expect != beta - f / df
    assert capped.any() and not capped.all()


def test_shape_step_clamps_into_bracket_or_fails():
    """A step that leaves the bracket is clamped onto its end where the
    scores at the ends change sign, and fails with both end values where
    they do not.  Rows 0-4 and 6 score f(beta) = root / beta - 1, whose
    Newton step beta (2 - beta / root) never passes the root; row 5 scores
    about 1 - e^(beta - 19), whose step from 15 overshoots its root 19 to
    the cap 30.  The rows whose step stays inside are unaffected."""
    lo, hi = BETA_BRACKET
    root = np.array([0.01, 0.5, 30.0, 2.0, 0.04, 1e-9, 0.06])
    start = np.array([0.08, 0.5, 15.0, 1.5, 0.06, 15.0, 0.09])
    n = root.size
    l_rel, wl, b_const = np.zeros((n, 1)), np.zeros((n, 1)), np.full(n, -1.0)
    l_rel[5], wl[5], b_const[5] = 1.0, math.exp(-19.0), 1.0
    score = _shape_score(l_rel, wl, root, b_const)
    steps, ok, f_lo, f_hi = _shape_step(score, start)
    assert ok.tolist() == [False, True, False, True, False, True, True]
    assert steps[1] == 0.5 and steps[3] == pytest.approx(1.875, rel=1e-15)
    assert steps[5] == hi and steps[6] == lo
    assert np.isnan(steps[~ok]).all()
    np.testing.assert_allclose(f_lo[~ok], root[~ok] / lo - 1.0, rtol=1e-15)
    np.testing.assert_allclose(f_hi[~ok], root[~ok] / hi - 1.0, rtol=1e-15)
    assert np.isnan(f_lo[[1, 3]]).all() and np.isnan(f_hi[[1, 3]]).all()
    assert f_lo[5] > 0.0 > f_hi[5] and f_lo[6] > 0.0 > f_hi[6]


def test_shape_step_non_finite_step_takes_the_cap():
    """Where f and f' both overflow to -inf the step is NaN; it goes to the
    cap end that the sign of f points to, beta / 2.  A NaN score fails
    its row only, with the end values for the diagnostics."""
    l_rel = np.array([[800.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    wl = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    b_const = np.array([0.0, 0.5, math.nan])
    score = _shape_score(l_rel, wl, np.ones(3), b_const)
    beta = np.array([2.0, 1.0, 1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        f, df = score(beta)
        assert f[0] == -math.inf and df[0] == -math.inf
    steps, ok, f_lo, f_hi = _shape_step(score, beta)
    assert ok.tolist() == [True, True, False]
    assert steps[0] == 1.0
    assert steps[1] == pytest.approx(1.0 - (1.5 - math.e) / (-1.0 - math.e), rel=1e-15)
    assert np.isnan(steps[2]) and np.isnan(f_lo[2]) and np.isnan(f_hi[2])
    assert np.isnan(f_lo[:2]).all() and np.isnan(f_hi[:2]).all()


def test_shape_step_fixed_point_is_the_score_root():
    """A 1,1 fit run to a tight epsilon ends where m_step_weibull_beta
    returns the model's own shape: EM's fixed points survive the one step."""
    truth = MixtureModel([0.3, 0.7], [ComponentSpec.exponential(5.0),
                                      ComponentSpec.weibull(2000.0, 1.5)])
    s = build_sample(generate_synthetic(truth, 4000, rng_seed=29))
    res = fit(s, (1, 1), EmConfig(epsilon=1e-12, max_iter=5000))
    assert res.converged and not res.degenerate
    m = res.model
    r = e_step(m, s)
    prev = m.components[1]
    alpha_new = m_step_weibull_alpha(r, s, 1, prev)
    assert alpha_new == pytest.approx(prev.alpha, rel=1e-8)
    assert m_step_weibull_beta(r, s, 1, prev, alpha_new) == pytest.approx(prev.beta, rel=1e-8)


def test_batch_bracket_failure_text_matches_reference_loop():
    """Data whose shape root lies above BETA_BRACKET: the batch names the
    reference loop's BracketError at the same iteration, with the same
    text up to the digits of f(lo) and f(hi)."""
    xs = sample(MixtureModel([1.0], [ComponentSpec.weibull(1.0, 30.0)]), 500, rng_seed=47)
    s = CensoredSample(xs, [])
    res, ref = fit(s, (0, 1)), reference_fit(s, (0, 1))
    assert res.degenerate and not res.converged
    assert res.error.startswith("BracketError: shape root not bracketed in [0.05, 20.0]: f(lo)=")
    assert res.iterations == ref.iterations
    number = re.compile(r"-?\d+\.\d+(?:e[-+]\d+)?")
    assert number.sub("#", res.error) == number.sub("#", ref.error)
    np.testing.assert_allclose([float(v) for v in number.findall(res.error)],
                               [float(v) for v in number.findall(ref.error)], rtol=1e-8)


# --- residuals of the score equations at the returned updates --------------------------


def test_score_residuals_at_m_step_solution(reference_mixture):
    s = build_sample(generate_synthetic(reference_mixture, 4000, rng_seed=29))
    r = e_step(reference_mixture, s)
    prev = reference_mixture.components[1]
    alpha_new = m_step_weibull_alpha(r, s, 1, prev)
    beta_new = m_step_weibull_beta(r, s, 1, prev, alpha_new)

    x = s.uncensored
    z = r.z[:, 1]
    iv = s.intervals[0]
    nzt = iv.count * r.z_tilde[0, 1]
    zl = (iv.lo / prev.alpha) ** prev.beta
    zh = (iv.hi / prev.alpha) ** prev.beta
    mass = math.exp(-zl) - math.exp(-zh)
    g2 = lambda t: (1.0 + t) * math.exp(-t)
    G = (g2(zl) - g2(zh)) / mass

    pos_scale = float(np.sum(z * (x / alpha_new) ** prev.beta) + nzt * (prev.alpha / alpha_new) ** prev.beta * G)
    resid_alpha = float(np.sum(z * (-1.0 + (x / alpha_new) ** prev.beta))
                        + nzt * (-1.0 + (prev.alpha / alpha_new) ** prev.beta * G))
    assert abs(resid_alpha) <= 1e-8 * pos_scale

    # the shape update is one Newton step beta_prev - f / f', with f' taken
    # here by a central difference of the score
    score = _wbl_shape_equation(
        x, z, np.array([nzt]),
        [_interval_terms(iv, prev.alpha, prev.beta)],
        alpha_new, prev.beta,
    )
    f = lambda beta: float(score(np.array([beta]))[0][0])
    h = 1e-5 * prev.beta
    slope = (f(prev.beta + h) - f(prev.beta - h)) / (2.0 * h)
    assert 0.5 * prev.beta < beta_new < 2.0 * prev.beta
    assert beta_new == pytest.approx(prev.beta - f(prev.beta) / slope, rel=1e-8)


# --- censored conditional expectations vs quadrature ------------------------------------


CENSORED_TERM_CASES = [
    (ComponentSpec.weibull(1.0, 0.8), 1.3, 0.9, CensoringInterval(0.0, 0.5)),
    (ComponentSpec.weibull(2500.0, 0.57), 2000.0, 0.5, CensoringInterval(0.0, 0.5)),
    (ComponentSpec.weibull(3.0, 1.4), 3.5, 1.8, CensoringInterval(0.5, 1.5)),
    (ComponentSpec.weibull(10.0, 0.6), 8.0, 0.75, CensoringInterval(1.0, 4.0)),
    (ComponentSpec.weibull(1.0, 0.8), 1.1, 0.9, CensoringInterval(5.0, math.inf)),
]


@pytest.mark.parametrize("prev,alpha,beta,iv", CENSORED_TERM_CASES)
def test_expected_logpdf_matches_quadrature(prev, alpha, beta, iv):
    terms = _interval_terms(iv, prev.alpha, prev.beta)
    got = censored_weibull_expected_logpdf(prev, alpha, beta, terms)
    want = expected_logpdf_quad(prev, alpha, beta, iv)
    assert got == pytest.approx(want, rel=1e-8, abs=1e-8)


@pytest.mark.parametrize("prev,alpha,beta,iv", CENSORED_TERM_CASES)
def test_shape_term_matches_quadrature_derivative(prev, alpha, beta, iv):
    terms = _interval_terms(iv, prev.alpha, prev.beta)
    got = censored_weibull_shape_term(prev, alpha, beta, terms)
    h = 1e-5 * beta
    e_plus = expected_logpdf_quad(prev, alpha, beta + h, iv)
    e_minus = expected_logpdf_quad(prev, alpha, beta - h, iv)
    d_expect = (e_plus - e_minus) / (2 * h)
    want = (d_expect - 1.0 / beta - math.log(prev.alpha / alpha)) * terms.mass
    assert got == pytest.approx(want, rel=2e-7, abs=2e-7)


def _bracket_quad(s, z_lo, z_hi):
    """int_{z_lo}^{z_hi} t^(s-1) e^-t log t dt, split at 1 (where log t
    changes sign), at z_lo + 1, and toward the log singularity at 0."""
    cuts = {1.0, z_lo + 1.0}
    if math.isfinite(z_hi):
        cuts |= {1e-3 * z_hi, 0.1 * z_hi, 0.5 * z_hi}
    ends = [z_lo] + sorted(c for c in cuts if z_lo < c < z_hi) + [z_hi]
    return sum(quad(lambda t: t ** (s - 1.0) * math.exp(-t) * math.log(t), a, b,
                    epsabs=0.0, epsrel=1e-13, limit=400)[0]
               for a, b in zip(ends, ends[1:]))


@pytest.mark.parametrize("s", [1.5, 2.7])
@pytest.mark.parametrize("z_lo", [0.0, 0.5, 2.0, 4.0])
def test_shape_bracket_open_tail_matches_quadrature(s, z_lo):
    """The bracket of the full-ratio shape term for [z_lo, inf) is
    int_{z_lo}^inf t^(s-1) e^-t log t dt."""
    want = _bracket_quad(s, z_lo, math.inf)
    assert _shape_series_bracket(s, z_lo, math.inf) == pytest.approx(want, rel=1e-11)


BRACKET_Z_HI = (1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.9, 3.0, math.inf)


@pytest.mark.parametrize("s,z_hi", [(s, z_hi) for s in (1.5, 2.0, 2.7, 4.0)
                                    for z_hi in BRACKET_Z_HI] + [(2.0, 40.0)])
def test_shape_bracket_matches_quadrature(s, z_hi):
    """The bracket keeps its relative accuracy on intervals from 0, from
    a third of z_hi and from 0.9 z_hi, down to z_hi = 1e-12, where a
    form that subtracts Gamma(s, z) log z from Gamma(s) log z cancels.
    For s = 2 the scalar bracket is the batch kernel's value."""
    lows = (0.0, 0.5, 4.0) if math.isinf(z_hi) else (0.0, z_hi / 3.0, 0.9 * z_hi)
    for z_lo in lows:
        got = _shape_series_bracket(s, z_lo, z_hi)
        assert got == pytest.approx(_bracket_quad(s, z_lo, z_hi), rel=1e-10, abs=0.0), z_lo
        if s == 2.0:
            batched = _shape_bracket2_array(np.array([[z_lo]]), np.array([[z_hi]]),
                                            np.array([[True]]))
            assert got == batched[0, 0], z_lo


def test_shape_bracket2_at_zero_equals_its_entries_in_a_mixed_call():
    """A call whose reached entries all have z_lo = 0, as under the default
    censoring, skips the z_lo > 0 form; its entries still equal, bit for
    bit, the same entries of a call that also holds z_lo > 0, z_hi >= 1
    and z_hi = inf entries."""
    z_hi = np.array([[1e-9, 0.03, 0.5, 0.99], [0.2, 1.0, 7.0, math.inf]])
    reach = np.array([[True, True, True, True], [True, True, False, True]])
    alone = _shape_bracket2_array(np.zeros(z_hi.shape), z_hi, reach)
    mixed = _shape_bracket2_array(
        np.hstack([np.zeros(z_hi.shape), [[0.1, 0.4, 2.0], [0.3, 5.0, 1.5]]]),
        np.hstack([z_hi, [[0.6, 3.0, math.inf], [0.9, 9.0, math.inf]]]),
        np.hstack([reach, np.ones((2, 3), dtype=bool)]),
    )
    assert np.all(mixed[:, 4:] != 0.0)
    assert np.array_equal(alone, mixed[:, :4])


ELOG_Z_HI = (1e-30, 1e-12, 1e-9, 1e-6, 1e-3, 0.5, 1.0, 3.0, 40.0, math.inf)


def _elog_reference(z_lo: float, z_hi: float) -> float:
    """int_{z_lo}^{z_hi} e^-t log t dt in 60-digit decimal arithmetic, as
    G(z_hi) - G(z_lo) with G(z) = (1 - e^-z) log z - Ein(z) and Ein(z) =
    sum_{k>=1} (-1)^(k+1) z^k / (k k!); G(inf) = -gamma_E."""

    def g(z: float) -> decimal.Decimal:
        if z == 0.0:
            return decimal.Decimal(0)
        if math.isinf(z):
            return -decimal.Decimal("0.577215664901532860606512090082402431042159335939923598805767")
        zd = decimal.Decimal(z)
        ein, power, k = decimal.Decimal(0), decimal.Decimal(1), 0
        while k < zd or power > decimal.Decimal(10) ** -70:
            k += 1
            power = power * zd / k
            ein += (power if k % 2 else -power) / k
        return (1 - (-zd).exp()) * zd.ln() - ein

    with decimal.localcontext() as ctx:
        ctx.prec = 60
        return float(g(z_hi) - g(z_lo))


def test_elog_numerator_matches_reference_series():
    """Both E[log U] numerator kernels on [0, z_hi) and [z_hi / 3, z_hi),
    down to z_hi = 1e-30, where -gamma_E - e^-z log z - E1(z) cancels."""
    cases = [(z_lo, z_hi) for z_hi in ELOG_Z_HI
             for z_lo in ((0.0,) if math.isinf(z_hi) else (0.0, z_hi / 3.0))]
    want = np.array([_elog_reference(z_lo, z_hi) for z_lo, z_hi in cases])
    scalar = np.array([em_core._elog_numerator(z_lo, z_hi) for z_lo, z_hi in cases])
    z_lo, z_hi = np.array(cases).T
    batched = em_core._elog_numerator_array(z_lo, z_hi)
    for got in (scalar, batched):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_shape_bracket_open_tail_raises_where_series_loses_digits():
    """Above z_lo = 5 the series in the open-tail limit misses quadrature
    by more than 1e-11, so the bracket raises instead of answering."""
    with pytest.raises(DomainError):
        _shape_series_bracket(1.5, 6.0, math.inf)
    prev = ComponentSpec.weibull(1.0, 0.8)
    terms = _interval_terms(CensoringInterval(10.0, math.inf), prev.alpha, prev.beta)
    assert terms.z_lo > 5.0
    with pytest.raises(DomainError):
        censored_weibull_shape_term(prev, 1.1, 0.9, terms)


# --- q_objective ---------------------------------------------------------------------


def test_q_objective_uncensored_is_weighted_logpdf(reference_mixture):
    s = CensoredSample(np.array([1.0, 40.0, 900.0]), [])
    r = e_step(reference_mixture, s)
    comps = reference_mixture.components
    got = q_objective(comps, r, s, comps)
    want = 0.0
    for j, x in enumerate(s.uncensored):
        for i, c in enumerate(comps):
            want += r.z[j, i] * log_pdf(c, float(x))
    assert got == pytest.approx(want, rel=1e-12)


def test_q_objective_censored_only_matches_quadrature():
    prev = ComponentSpec.weibull(2.0, 0.7)
    iv = CensoringInterval(0.0, 0.5, 9)
    s = CensoredSample(np.empty(0), [iv])
    r = resp(np.empty((0, 1)), np.array([[1.0]]))
    got = q_objective([prev], r, s, [prev])
    want = 9.0 * expected_logpdf_quad(prev, prev.alpha, prev.beta, iv)
    assert got == pytest.approx(want, rel=1e-8)


def test_q_objective_kind_mismatch_rejected():
    r = resp(np.empty((0, 1)), np.empty((0, 1)))
    s = CensoredSample(np.empty(0), [])
    with pytest.raises(DomainError):
        q_objective([ComponentSpec.exponential(1.0)], r, s, [ComponentSpec.weibull(1.0, 1.0)])


# --- direct M-step ----------------------------------------------------------------------


def _two_component_setup(seed=37):
    truth = MixtureModel(
        [0.3, 0.7], [ComponentSpec.exponential(5.0), ComponentSpec.weibull(60.0, 0.9)]
    )
    s = build_sample(generate_synthetic(truth, 1500, rng_seed=seed))
    r = e_step(truth, s)
    return truth, s, r


def test_direct_exp_agrees_with_closed_form():
    truth, s, r = _two_component_setup()
    out = m_step_direct(r, s, truth.components)
    assert out[0].alpha == m_step_exponential(r, s, 0, truth.components[0].alpha)


def test_direct_weibull_uncensored_agrees_with_mle():
    xs = sample(MixtureModel([1.0], [ComponentSpec.weibull(4.0, 1.3)]), 4000, rng_seed=41)
    s = CensoredSample(xs, [])
    r = resp(np.ones((xs.size, 1)), np.empty((0, 1)))
    prev = ComponentSpec.weibull(3.0, 1.0)
    out = m_step_direct(r, s, [prev])

    # textbook MLE oracle: profile the shape equation, closed-form scale
    def shape_eq(beta):
        l = np.log(xs)
        ab = np.mean(xs ** beta)
        return 1.0 / beta + l.mean() - np.sum(xs ** beta * l) / (xs.size * ab)

    beta_star = brentq(shape_eq, 0.2, 5.0, xtol=1e-13)
    alpha_star = np.mean(xs ** beta_star) ** (1.0 / beta_star)
    assert out[0].beta == pytest.approx(beta_star, rel=2e-4)
    assert out[0].alpha == pytest.approx(alpha_star, rel=2e-4)


def test_direct_solution_is_local_max_of_q():
    truth, s, r = _two_component_setup(seed=43)
    out = m_step_direct(r, s, truth.components)
    q0 = q_objective(out, r, s, truth.components)
    for i, c in enumerate(out):
        for field_name in ("alpha", "beta"):
            if c.kind.value == "exp" and field_name == "beta":
                continue
            for sign in (+1.0, -1.0):
                cand = list(out)
                if field_name == "alpha":
                    cand[i] = (ComponentSpec.exponential(c.alpha * (1 + 1e-3 * sign))
                               if c.kind.value == "exp"
                               else ComponentSpec.weibull(c.alpha * (1 + 1e-3 * sign), c.beta))
                else:
                    cand[i] = ComponentSpec.weibull(c.alpha, c.beta * (1 + 1e-3 * sign))
                assert q_objective(cand, r, s, truth.components) < q0


CENSOR_SPECS = {
    "default": None,
    "two-with-empty": [CensoringInterval(0.0, 0.5), CensoringInterval(0.5, 0.75)],
}

# censoring intervals with z_lo > 0: a bounded one and an open tail [lo, inf)
DIRECT_SPECS = {
    **CENSOR_SPECS,
    "inner": [CensoringInterval(0.0, 0.5), CensoringInterval(40.5, 60.5)],
    "open-tail": [CensoringInterval(0.0, 0.5), CensoringInterval(3000.0, math.inf)],
}


def tight_coordinate_search(r, s, i, prev, bracket=(0.05, 20.0)):
    """Component i's block maximized by coordinate-wise golden sections in
    log alpha and log beta, to xtol 1e-12 and until a sweep stops moving;
    beta stays in the direct step's bracket [max(lo, beta/4), min(hi, 4 beta)]."""
    r_i = resp(r.z[:, [i]], r.z_tilde[:, [i]])

    def block(alpha, beta):
        cand = (ComponentSpec.exponential(alpha) if prev.kind == Kind.EXPONENTIAL
                else ComponentSpec.weibull(alpha, beta))
        return q_objective([cand], r_i, s, [prev])

    blo = math.log(max(bracket[0], prev.beta / 4.0))
    bhi = math.log(min(bracket[1], 4.0 * prev.beta))
    alpha, beta = prev.alpha, prev.beta
    best = block(alpha, beta)
    for _ in range(200):
        start = (alpha, beta)
        la, qa = golden_max(lambda u: block(math.exp(u), beta),
                            math.log(alpha) - 2.0, math.log(alpha) + 2.0, xtol=1e-12)
        if qa > best:
            alpha, best = math.exp(la), qa
        if prev.kind == Kind.WEIBULL:
            lb, qb = golden_max(lambda u: block(alpha, math.exp(u)), blo, bhi, xtol=1e-12)
            if qb > best:
                beta, best = math.exp(lb), qb
        if (alpha, beta) == start:
            break
    return best, block


@pytest.mark.parametrize("spec", sorted(DIRECT_SPECS))
@pytest.mark.parametrize("shape", [(1, 1), (0, 2)])
def test_direct_step_reaches_tight_coordinate_search(reference_mixture, shape, spec):
    """Each component's block at the ECM point is at least its value at a
    tight coordinate-wise search, up to the rounding of the block."""
    s = build_sample(generate_synthetic(reference_mixture, 1500, rng_seed=281), DIRECT_SPECS[spec])
    if spec in ("inner", "open-tail"):
        assert s.intervals[1].count > 0
    prev = fit(s, shape, EmConfig(max_iter=2)).model
    r = e_step(prev, s)
    out = m_step_direct(r, s, prev.components)
    for i, c in enumerate(prev.components):
        best, block = tight_coordinate_search(r, s, i, c)
        assert block(out[i].alpha, out[i].beta) >= best - 1e-14 * abs(best)


def test_direct_zero_mass_component_keeps_previous_parameters():
    truth, s, _ = _two_component_setup()
    zeros = resp(np.zeros((s.n, 1)), np.zeros((len(s.intervals), 1)))
    for prev in truth.components:
        assert m_step_direct(zeros, s, [prev]) == [prev]


# --- fit ---------------------------------------------------------------------------------


def test_fit_single_exponential_recovery():
    xs = sample(MixtureModel([1.0], [ComponentSpec.exponential(5.0)]), 20_000, rng_seed=51)
    s = CensoredSample(xs, [])
    res = fit(s, (1, 0))
    assert res.converged and res.iterations <= 5
    se = 5.0 / math.sqrt(xs.size)
    assert res.model.components[0].alpha == pytest.approx(xs.mean(), abs=1e-9)
    assert abs(res.model.components[0].alpha - 5.0) <= 2 * se


def test_fit_huge_epsilon_stops_after_one_iteration(reference_mixture):
    s = build_sample(generate_synthetic(reference_mixture, 500, rng_seed=53))
    res = fit(s, (1, 1), EmConfig(epsilon=1e18))
    assert res.converged and res.iterations == 1
    assert res.loglik_trace.size == 2


def test_fit_recovers_reference_model(reference_mixture):
    s = build_sample(generate_synthetic(reference_mixture, 30_000, rng_seed=59))
    res = fit(s, (1, 1))
    assert res.converged and not res.degenerate
    w_exp = float(res.model.weights[0])
    c_exp, c_wbl = res.model.components
    assert abs(w_exp - 0.2) <= 0.03
    assert abs(c_exp.alpha - 17.0) / 17.0 <= 0.08
    assert abs(c_wbl.alpha - 2500.0) / 2500.0 <= 0.08
    assert abs(c_wbl.beta - 0.57) <= 0.03


def test_fit_trace_matches_independent_loglik(reference_mixture):
    s = build_sample(generate_synthetic(reference_mixture, 2000, rng_seed=61))
    res = fit(s, (1, 1))
    assert res.loglik == pytest.approx(censored_log_likelihood(res.model, s), abs=1e-9)
    assert res.converged
    assert abs(res.loglik_trace[-1] - res.loglik_trace[-2]) <= 1e-5


def test_fit_responsibility_rows_sum_to_one(reference_mixture):
    s = build_sample(generate_synthetic(reference_mixture, 1000, rng_seed=67))
    res = fit(s, (1, 1))
    r = res.final_responsibilities
    assert np.allclose(r.z.sum(axis=1), 1.0, atol=1e-10)
    assert np.allclose(r.z_tilde.sum(axis=1), 1.0, atol=1e-10)
    assert abs(res.model.weights.sum() - 1.0) <= 1e-12


def test_fit_exchangeable_under_init_permutation():
    truth = MixtureModel(
        [0.4, 0.6], [ComponentSpec.weibull(2.0, 1.5), ComponentSpec.weibull(50.0, 0.8)]
    )
    xs = sample(truth, 4000, rng_seed=71)
    s = CensoredSample(xs, [])
    start_a = MixtureModel([0.5, 0.5], [ComponentSpec.weibull(2.5, 1.0),
                                        ComponentSpec.weibull(40.0, 1.0)])
    start_b = MixtureModel([0.5, 0.5], start_a.components[::-1])
    res_a, res_b = fit_batch([s, s], (0, 2), inits=[start_a, start_b])
    assert res_a.loglik == pytest.approx(res_b.loglik, abs=1e-9)
    order_a = np.argsort([c.alpha for c in res_a.model.components])
    order_b = np.argsort([c.alpha for c in res_b.model.components])
    for ia, ib in zip(order_a, order_b):
        assert res_a.model.components[ia].alpha == pytest.approx(
            res_b.model.components[ib].alpha, rel=1e-6
        )


def test_fit_zeta_transform_consistency(reference_mixture):
    for c in reference_mixture.components:
        iv = CensoringInterval(0.0, 0.5)
        t = _interval_terms(iv, c.alpha, c.beta)
        assert interval_prob(c, iv) == pytest.approx(t.mass, abs=1e-12)


def test_fit_monotone_trace_direct_variant(reference_mixture):
    s = build_sample(generate_synthetic(reference_mixture, 1500, rng_seed=73))
    res = fit(s, (1, 1), EmConfig(m_step_variant=MStepVariant.DIRECT_OBJECTIVE))
    assert np.all(np.diff(res.loglik_trace) >= -1e-9)


def test_fit_sample_too_small_rejected():
    s = CensoredSample(np.array([1.0, 2.0]), [])
    with pytest.raises(DomainError):
        fit(s, (1, 1))


def test_fit_all_censored_flags_degenerate():
    s = CensoredSample(np.empty(0), [CensoringInterval(0.0, 0.5, 50)])
    res = fit(s, (1, 0), EmConfig(max_iter=50))
    assert res.degenerate or not res.converged


# --- fit: one E-step pass per model ------------------------------------------------------


def two_pass_loglik(m: MixtureModel, s: CensoredSample) -> float:
    """Collapsed-sample log-likelihood by the separate two-pass formula: a
    log-sum-exp over the unique-value log matrix weighted by
    multiplicity, then the count-weighted interval terms in order."""
    values, counts = np.unique(s.uncensored, return_counts=True)
    total = 0.0
    if values.size:
        rows = _logsumexp(_log_mixture_matrix(m, values), axis=1)
        if not np.all(np.isfinite(rows)):
            return -math.inf
        total += float(counts.astype(float) @ rows)
    for iv in s.intervals:
        if iv.count == 0:
            continue
        lp = _logsumexp(_log_mixture_interval(m, iv))
        if not math.isfinite(lp):
            return -math.inf
        total += iv.count * lp
    return total


@pytest.mark.parametrize("spec", sorted(CENSOR_SPECS))
@pytest.mark.parametrize("n", [200, 10_000])
@pytest.mark.parametrize("shape", [(1, 1), (0, 2), (3, 0), (2, 1)])
def test_fit_single_pass_matches_e_step_and_two_pass_loglik(reference_mixture, shape, n, spec):
    s = build_sample(generate_synthetic(reference_mixture, n, rng_seed=101), CENSOR_SPECS[spec])
    if spec == "two-with-empty":
        assert [iv.count for iv in s.intervals][1] == 0
    res = fit(s, shape)
    ref = e_step(res.model, s)
    assert np.array_equal(res.final_responsibilities.z, ref.z)
    assert np.array_equal(res.final_responsibilities.z_tilde, ref.z_tilde)
    assert res.loglik == two_pass_loglik(res.model, s)


THREE_INTERVALS = [CensoringInterval(0.0, 0.5), CensoringInterval(0.5, 0.75),
                   CensoringInterval(40.5, 60.5)]


@pytest.mark.parametrize("spec", [None, THREE_INTERVALS], ids=["default", "three"])
@pytest.mark.parametrize("shape", [(1, 1), (0, 2), (2, 1)])
def test_cold_start_pass_matches_e_step_and_two_pass_loglik(reference_mixture, shape, spec):
    """The first pass of a batch started from default_init, whose Weibull
    components have beta = 1, is e_step's pass bit for bit: a Weibull at
    beta = 1 is evaluated as a Weibull on both paths.  own_sums keeps each
    member's log-likelihood sum off the padded width, which rounds with it."""
    samples = [build_sample(generate_synthetic(reference_mixture, n, rng_seed=n), spec)
               for n in (300, 1200, 700)]
    models = [default_init(s, *shape) for s in samples]
    with np.errstate(all="ignore"):  # as fit_batch runs it
        st = em_core._Batch(samples, models, shape[0], own_sums=True)
        st.e_pass()
    assert (st.bad < 0).all()
    for pos, (model, s) in enumerate(zip(models, samples)):
        assert [c.beta for c in model.components[shape[0]:]] == [1.0] * shape[1]
        got = em_core._Expanding(st.z[:, pos, : st.nu[pos]].T, st.zt[:, pos, : st.nl[pos]].T,
                                 s.uncensored)
        ref = e_step(model, s)
        assert np.array_equal(got.z, ref.z)
        assert np.array_equal(got.z_tilde, ref.z_tilde)
        assert st.ll[pos] == two_pass_loglik(model, s)


@pytest.mark.parametrize("shape", [(1, 1), (0, 2), (3, 0), (2, 1)])
def test_pass_kernels_match_logsumexp_bitwise(reference_mixture, shape):
    """Each row's and each interval's log mixture mass equals the
    components._logsumexp value exactly, not just to rounding: the
    loglik total alone would absorb a last-ulp change in one term."""
    s = build_sample(
        generate_synthetic(reference_mixture, 2000, rng_seed=103),
        [CensoringInterval(0.0, 0.5), CensoringInterval(0.5, 0.75), CensoringInterval(40.5, 60.5)],
    )
    model = fit(s, shape, EmConfig(max_iter=5)).model
    values, _ = np.unique(s.uncensored, return_counts=True)
    logmat = _log_mixture_matrix(model, values)
    rows, _, bad = _row_pass(logmat)
    assert bad is None
    assert np.array_equal(rows, _logsumexp(logmat, axis=1))
    _, log_mass = _interval_pass(model, s.intervals)
    assert log_mass == [_logsumexp(_log_mixture_interval(model, iv)) for iv in s.intervals]


def test_fit_exact_row_underflow_ends_degenerate_without_responsibilities():
    s = CensoredSample(np.array([1.0, 2.0, 5.0, 1e300]), [])
    (res,) = fit_batch([s], (0, 1), inits=[MixtureModel([1.0], [ComponentSpec.weibull(1.0, 2.0)])])
    assert res.degenerate and not res.converged
    assert res.iterations == 0
    assert res.final_responsibilities is None
    assert res.loglik == -math.inf
    assert res.error.startswith("ResponsibilityUnderflowError")


@pytest.mark.parametrize("count", [0, 1])
def test_fit_interval_underflow_falls_back_to_uniform_row(caplog, count):
    truth = MixtureModel([0.5, 0.5], [ComponentSpec.exponential(0.05), ComponentSpec.exponential(0.3)])
    s = CensoredSample(sample(truth, 300, rng_seed=7), [CensoringInterval(1e308, math.inf, count)])
    with caplog.at_level("WARNING"):
        res = fit(s, (2, 0))
    assert any("underflow" in rec.message for rec in caplog.records)
    assert np.array_equal(res.final_responsibilities.z_tilde, np.full((1, 2), 0.5))
    assert res.loglik == two_pass_loglik(res.model, s)
    if count:
        assert res.degenerate and res.error == "log-likelihood became non-finite"
        assert res.loglik == -math.inf
    else:
        assert res.converged and not res.degenerate


def test_config_validation():
    with pytest.raises(DomainError):
        EmConfig(epsilon=0.0)
    with pytest.raises(DomainError):
        EmConfig(max_iter=0)
    assert [f.name for f in dataclasses.fields(EmConfig)] == ["epsilon", "max_iter",
                                                              "m_step_variant"]


@pytest.mark.parametrize("knob", [{"weight_floor": 1e-8}, {"beta_bracket": (0.05, 20.0)},
                                  {"init": None}])
def test_config_takes_no_floor_bracket_or_start(knob):
    with pytest.raises(TypeError):
        EmConfig(**knob)


# --- the reference EM loop --------------------------------------------------------------

UNDERFLOW_MSG = ("interval [%s, %s) mass underflows for every component; "
                 "using a uniform responsibility row")


def reference_fit(s: CensoredSample, shape, cfg: EmConfig = EmConfig(),
                  start: MixtureModel | None = None) -> FitResult:
    """The censored EM loop built from the public uncompressed operations
    and censored_log_likelihood, from default_init or the start model: the
    oracle fit and fit_batch are held to.  It rejects a sample they reject
    with a DomainError, stops by the same rule, and gives the same flags,
    warnings and named errors; it keeps no final responsibilities."""
    p, r = shape
    if s.total < dof(p, r) + 1:
        raise DomainError("the fit cannot run")
    model = default_init(s, p, r) if start is None else MixtureModel(
        start.weights / start.weights.sum(), start.components)
    warnings, warned = [], set()

    def e_pass(m):
        """m's loglik, and its responsibilities or the error to stop with.
        An interval whose mass underflows is warned about once per fit."""
        try:
            resp = e_step(m, s)
        except ResponsibilityUnderflowError as exc:
            value = float(s.uncensored[exc.index])
            resp = ResponsibilityUnderflowError(
                f"mixture density underflows at observation value {value!r}")
        else:
            for k, iv in enumerate(s.intervals):
                lw = m.log_weights + [log_interval_prob(c, iv) for c in m.components]
                if k not in warned and not np.isfinite(lw.max()):
                    warned.add(k)
                    warnings.append(UNDERFLOW_MSG % (iv.lo, iv.hi))
        return censored_log_likelihood(m, s), resp

    def mle_component(resp, i, c):
        if c.kind == Kind.EXPONENTIAL:
            return ComponentSpec.exponential(
                m_step_exponential(resp, s, i, c.alpha))
        alpha = m_step_weibull_alpha(resp, s, i, c)
        return ComponentSpec.weibull(alpha, m_step_weibull_beta(resp, s, i, c, alpha))

    ll, resp = e_pass(model)
    trace, iterations, converged, degenerate, error = [ll], 0, False, False, None
    for _ in range(cfg.max_iter):
        try:
            if isinstance(resp, ResponsibilityUnderflowError):
                raise resp
            weights = update_weights(resp, s)
            hits = [i for i, w in enumerate(weights) if w < em_core.WEIGHT_FLOOR]
            if hits and not degenerate:
                degenerate = True
                warnings.append(f"component(s) {hits} fell below the weight floor "
                                f"{em_core.WEIGHT_FLOOR}; fit continues with them flagged")
            if cfg.m_step_variant == MStepVariant.DIRECT_OBJECTIVE:
                comps = m_step_direct(resp, s, model.components)
            else:
                comps = [mle_component(resp, i, c) for i, c in enumerate(model.components)]
            model = MixtureModel(weights, comps)
        except (BracketError, DegenerateComponentError, NonConvergenceError, OverflowError,
                ResponsibilityUnderflowError) as exc:
            degenerate, error = True, f"{type(exc).__name__}: {exc}"
            warnings.append(f"stopped at iteration {iterations + 1}: {error}")
            break
        iterations += 1
        ll, resp = e_pass(model)
        trace.append(ll)
        if not math.isfinite(ll):
            degenerate, error = True, "log-likelihood became non-finite"
            warnings.append(error)
            break
        if abs(ll - trace[-2]) <= cfg.epsilon:
            converged = True
            break
    return FitResult(model, np.asarray(trace), iterations, converged, None,
                     degenerate, warnings, error)


def params(res: FitResult) -> np.ndarray:
    m = res.model
    return np.concatenate(
        [m.weights, [c.alpha for c in m.components], [c.beta for c in m.components]]
    )


def assert_matches_reference(res: FitResult, ref: FitResult) -> None:
    """A fit against the reference loop: same flags, stopping iteration,
    error and warnings, loglik to 1e-8 and parameters to 1e-6 relative."""
    assert (res.converged, res.degenerate, res.iterations) == (
        ref.converged, ref.degenerate, ref.iterations)
    assert res.error == ref.error
    assert res.warnings == ref.warnings
    assert res.loglik == pytest.approx(ref.loglik, rel=1e-8)
    np.testing.assert_allclose(params(res), params(ref), rtol=1e-6)
    assert res.loglik_trace.size == ref.loglik_trace.size


# --- fit: overflow and underflow bookkeeping ---------------------------------------------


def overflow_sample() -> CensoredSample:
    """300 exponential draws and an empty interval so far out that
    (bound/alpha)^beta overflows once the Weibull shape starts at 2."""
    xs = sample(MixtureModel([1.0], [ComponentSpec.exponential(1.0)]), 300, rng_seed=1)
    return CensoredSample(xs, [CensoringInterval(1e290, 1e295, 0)])


def weibull_shapes_at(s: CensoredSample, shape, beta: float) -> MixtureModel:
    """default_init's model with every Weibull shape set to beta."""
    m = default_init(s, *shape)
    return MixtureModel(m.weights, [c if c.kind == Kind.EXPONENTIAL
                                    else ComponentSpec.weibull(c.alpha, beta)
                                    for c in m.components])


@pytest.mark.parametrize("shape", [(1, 1), (0, 2), (0, 1)])
def test_fit_zeta_overflow_ends_degenerate(shape):
    start = weibull_shapes_at(overflow_sample(), shape, 2.0)
    (res,) = fit_batch([overflow_sample()], shape, inits=[start])
    assert res.degenerate and not res.converged
    assert res.error == "OverflowError: math range error"
    assert res.iterations == 0
    assert res.warnings[-1] == "stopped at iteration 1: OverflowError: math range error"
    assert_matches_reference(res, reference_fit(overflow_sample(), shape, start=start))


def underflow_sample() -> CensoredSample:
    x = np.random.default_rng(3).exponential(0.5, 300) + 1e-3
    return CensoredSample(x, [CensoringInterval(1e308, math.inf, 0)])


def test_interval_underflow_warned_once_per_fit(caplog):
    message = UNDERFLOW_MSG % (1e308, math.inf)
    with caplog.at_level("WARNING", logger="censem.em_core"):
        res = fit(underflow_sample(), (2, 0))
    assert res.converged and res.iterations == 32
    assert [rec.getMessage() for rec in caplog.records] == [message]
    assert res.warnings == [message]
    caplog.clear()
    with caplog.at_level("WARNING", logger="censem.em_core"):
        batched = fit_batch([underflow_sample(), underflow_sample()], (2, 0))
    assert [rec.getMessage() for rec in caplog.records] == [message, message]
    ref = reference_fit(underflow_sample(), (2, 0))
    for b in batched:
        assert_matches_reference(b, ref)
    # a member with no intervals gets the padding interval [0, inf), which
    # never underflows: only the other member's real interval is warned about
    caplog.clear()
    plain = CensoredSample(underflow_sample().uncensored, [])
    with caplog.at_level("WARNING", logger="censem.em_core"):
        mixed = fit_batch([underflow_sample(), plain], (2, 0))
    assert [rec.getMessage() for rec in caplog.records] == [message]
    for b, s in zip(mixed, [underflow_sample(), plain]):
        assert_matches_reference(b, reference_fit(s, (2, 0)))


# --- fit_batch ---------------------------------------------------------------------------


@pytest.mark.parametrize("start", ["cold", "warm"])
@pytest.mark.parametrize("spec", sorted(CENSOR_SPECS))
@pytest.mark.parametrize("n", [200, 2000])
@pytest.mark.parametrize("shape", [(1, 1), (0, 2), (3, 0), (2, 1)])
def test_fit_batch_matches_scalar_fit(reference_mixture, shape, n, spec, start):
    """Each member against the scalar reference loop.  Cold: three samples
    of different sizes in one batch.  Warm: three bootstrap replicas
    started from the original's fit, as the tournament runs them."""
    spec_ivs = CENSOR_SPECS[spec]
    if start == "cold":
        samples = [build_sample(generate_synthetic(reference_mixture, n + 37 * k, rng_seed=211 + k),
                                spec_ivs) for k in range(3)]
        model = None
    else:
        original = build_sample(generate_synthetic(reference_mixture, n, rng_seed=223), spec_ivs)
        model = fit(original, shape).model
        samples = [bootstrap_resample(original, rng_seed=227 + k) for k in range(3)]
    if spec == "two-with-empty":
        assert all(s.intervals[1].count == 0 for s in samples)
    for batched, s in zip(fit_batch(samples, shape, inits=[model] * 3), samples):
        assert_matches_reference(batched, reference_fit(s, shape, start=model))


@pytest.mark.parametrize("shape", [(1, 1), (0, 2), (2, 1)])
def test_fit_batch_direct_matches_reference_loop(reference_mixture, shape):
    """The direct M-step in a batch of two samples of about 200 points."""
    cfg = EmConfig(m_step_variant=MStepVariant.DIRECT_OBJECTIVE, max_iter=60)
    samples = [build_sample(generate_synthetic(reference_mixture, 200 + 37 * k, rng_seed=241 + k))
               for k in range(2)]
    for batched, s in zip(fit_batch(samples, shape, cfg), samples):
        assert_matches_reference(batched, reference_fit(s, shape, cfg))


def test_fit_batch_direct_member_equals_batch_of_one(reference_mixture):
    """With the direct M-step a member's sums run over its own unpadded
    slices, so its numbers do not depend on its batch mates: each member
    equals fit on its sample alone, bit for bit."""
    cfg = EmConfig(m_step_variant=MStepVariant.DIRECT_OBJECTIVE, max_iter=30)
    specs = [None, CENSOR_SPECS["two-with-empty"],
             [CensoringInterval(0.0, 0.5), CensoringInterval(0.5, 0.75),
              CensoringInterval(40.5, 60.5)]]
    samples = [build_sample(generate_synthetic(reference_mixture, n, rng_seed=271 + k), spec)
               for k, (n, spec) in enumerate(zip((150, 420, 260), specs))]
    for batched, s in zip(fit_batch(samples, (1, 1), cfg), samples):
        alone = fit(s, (1, 1), cfg)
        assert np.array_equal(batched.loglik_trace, alone.loglik_trace)
        assert np.array_equal(batched.model.weights, alone.model.weights)
        assert [(c.alpha, c.beta) for c in batched.model.components] == [
            (c.alpha, c.beta) for c in alone.model.components]


def test_fit_batch_direct_failure_stops_only_its_member(reference_mixture):
    cfg = EmConfig(m_step_variant=MStepVariant.DIRECT_OBJECTIVE, max_iter=5)
    members = [overflow_sample(), build_sample(generate_synthetic(reference_mixture, 200, 269))]
    inits = [weibull_shapes_at(members[0], (1, 1), 2.0), None]
    out = fit_batch(members, (1, 1), cfg, inits)
    assert out[0].error == "OverflowError: math range error" and out[0].iterations == 0
    assert out[1].iterations == 5 and not out[1].degenerate
    for res, s, start in zip(out, members, inits):
        assert_matches_reference(res, reference_fit(s, (1, 1), cfg, start))


def test_fit_batch_runs_accepted_members_in_chunks(reference_mixture, monkeypatch):
    """fit_batch cuts its accepted members, not its slots, into batches of
    at most BATCH_MEMBERS; a rejected sample holds its DomainError in its
    own slot, and with the direct M-step every member equals fit on its
    sample alone, bit for bit."""
    monkeypatch.setattr(em_core, "BATCH_MEMBERS", 2)
    sizes = []
    loop = em_core._batch_loop
    monkeypatch.setattr(em_core, "_batch_loop",
                        lambda samples, *rest: sizes.append(len(samples)) or loop(samples, *rest))
    cfg = EmConfig(m_step_variant=MStepVariant.DIRECT_OBJECTIVE, max_iter=30)
    samples = [build_sample(generate_synthetic(reference_mixture, n, rng_seed=281 + n))
               for n in (150, 260, 200, 310, 180)]
    samples.insert(2, CensoredSample(np.array([1.0, 2.0]), []))
    inits = [None] * 6
    inits[3] = MixtureModel([1.0], [ComponentSpec.exponential(5.0)])
    out = fit_batch(samples, (1, 1), cfg, inits)
    assert sizes == [2, 2]
    assert isinstance(out[2], DomainError)
    assert str(out[2]) == "sample of size 2 cannot support a shape with 4 free parameters"
    assert isinstance(out[3], DomainError)
    assert str(out[3]) == "start model components do not match the shape (1, 1)"
    for k in (0, 1, 4, 5):
        alone = fit(samples[k], (1, 1), cfg)
        assert np.array_equal(out[k].loglik_trace, alone.loglik_trace)
        assert np.array_equal(params(out[k]), params(alone))
        assert (out[k].iterations, out[k].converged, out[k].warnings) == (
            alone.iterations, alone.converged, alone.warnings)
        assert np.array_equal(out[k].final_responsibilities.z, alone.final_responsibilities.z)


def test_fit_batch_member_order_invariant(reference_mixture):
    samples = [build_sample(generate_synthetic(reference_mixture, n, rng_seed=229 + n))
               for n in (150, 400, 220, 900, 300)]
    inits = [None, MixtureModel([0.5, 0.5], [ComponentSpec.exponential(5.0),
                                             ComponentSpec.weibull(900.0, 1.0)]),
             None, None, weibull_shapes_at(samples[4], (1, 1), 0.7)]
    forward = fit_batch(samples, (1, 1), inits=inits)
    order = [3, 0, 4, 2, 1]
    permuted = fit_batch([samples[k] for k in order], (1, 1), inits=[inits[k] for k in order])
    for k, res in zip(order, permuted):
        ref = forward[k]
        assert np.array_equal(res.loglik_trace, ref.loglik_trace)
        assert np.array_equal(params(res), params(ref))
        assert (res.iterations, res.converged, res.degenerate) == (
            ref.iterations, ref.converged, ref.degenerate)
        assert np.array_equal(res.final_responsibilities.z, ref.final_responsibilities.z)
        assert np.array_equal(res.final_responsibilities.z_tilde,
                              ref.final_responsibilities.z_tilde)


def test_fit_batch_mixed_members_keep_their_own_state(reference_mixture):
    """One batch, four outcomes: converged, max_iter, rejected, overflow."""
    big = build_sample(generate_synthetic(reference_mixture, 2000, rng_seed=233))
    at_optimum = fit(big, (1, 1)).model
    slow = build_sample(generate_synthetic(reference_mixture, 500, rng_seed=239))
    tiny = CensoredSample(np.array([1.0, 2.0]), [])
    overflow = weibull_shapes_at(overflow_sample(), (1, 1), 2.0)
    cfg = EmConfig(max_iter=5)
    members = [big, slow, tiny, overflow_sample()]
    inits = [at_optimum, None, None, overflow]
    out = fit_batch(members, (1, 1), cfg, inits)

    assert out[0].converged and not out[0].degenerate and out[0].iterations <= 2
    assert not out[1].converged and not out[1].degenerate and out[1].iterations == 5
    assert isinstance(out[2], DomainError)
    with pytest.raises(DomainError):
        reference_fit(tiny, (1, 1), cfg)
    with pytest.raises(DomainError):
        fit(tiny, (1, 1), cfg)
    assert out[3].degenerate and out[3].error == "OverflowError: math range error"
    for res, s, start in zip(out, members, inits):
        if s is not tiny:
            assert_matches_reference(res, reference_fit(s, (1, 1), cfg, start))


def failure_order_members(reference_mixture, shape):
    """(samples, starts, expected errors) for one mle batch whose members
    fail at the first M-step, in different components of a family, plus a
    healthy last member.  A zero start weight fails that component's scale
    update; a Weibull shape of 2 overflows the empty interval of
    overflow_sample.  One member fails in two components, where the block
    reaches the higher (component, stage) key first."""
    plain = CensoredSample(
        sample(MixtureModel([1.0], [ComponentSpec.exponential(1.0)]), 300, rng_seed=5), [])
    lost = "DegenerateComponentError: {} scale update lost its mass (den=0.0)"
    overflow = "OverflowError: math range error"
    exps = [ComponentSpec.exponential(a) for a in (0.3, 1.0, 3.0)]
    if shape == (0, 2):
        wbl = [ComponentSpec.weibull(0.5, 1.0), ComponentSpec.weibull(2.0, 2.0)]
        members = [
            (overflow_sample(), wbl, [0.0, 1.0], lost.format("Weibull")),  # and comp 1 overflows
            (overflow_sample(), wbl, [1.0, 1.0], overflow),
            (overflow_sample(), wbl[::-1], [1.0, 1.0], overflow),
        ]
    elif shape == (3, 0):
        members = [(plain, exps, [1.0, 1.0, 0.0], lost.format("exponential")),
                   (plain, exps, [0.0, 1.0, 0.0], lost.format("exponential")),
                   (plain, exps, [0.0, 1.0, 1.0], lost.format("exponential"))]
    else:
        comps = exps[:2] + [ComponentSpec.weibull(1.0, 2.0)]
        members = [
            (overflow_sample(), comps, [1.0, 0.0, 1.0], lost.format("exponential")),
            (plain, comps, [0.0, 1.0, 1.0], lost.format("exponential")),
            (overflow_sample(), comps, [1.0, 1.0, 1.0], overflow),
        ]
    samples = [m[0] for m in members]
    starts = [MixtureModel(np.array(m[2]) / sum(m[2]), m[1]) for m in members]
    healthy = CensoredSample(sample(reference_mixture, 600, rng_seed=7), [])
    return samples + [healthy], starts + [None], [m[3] for m in members]


@pytest.mark.parametrize("shape", [(0, 2), (3, 0), (2, 1)], ids=["0,2", "3,0", "2,1"])
def test_fit_batch_failure_order_across_family_blocks(reference_mixture, shape):
    """The exponential and the Weibull components each update as one block,
    and a member still reports its own first (component, stage) failure:
    the reference loop's error, iteration and warnings, whether its batch
    mate fails in an earlier component of the same family or not at all.
    The healthy member equals its own batch of one."""
    cfg = EmConfig(max_iter=5)
    samples, starts, errors = failure_order_members(reference_mixture, shape)
    out = fit_batch(samples, shape, cfg, starts)
    number = re.compile(r"-?\d+\.\d+(?:e[-+]\d+)?")
    for res, s, start, error in zip(out, samples, starts, errors):
        ref = reference_fit(s, shape, cfg, start)
        assert res.error == error and res.degenerate and not res.converged
        assert res.iterations == ref.iterations == 0
        assert number.sub("#", res.error) == number.sub("#", ref.error)
        assert res.warnings == ref.warnings
        assert res.warnings[-1] == f"stopped at iteration 1: {error}"
    healthy = out[-1]
    (alone,) = fit_batch(samples[-1:], shape, cfg)
    assert (healthy.iterations, healthy.converged, healthy.degenerate) == (
        alone.iterations, alone.converged, alone.degenerate)
    assert healthy.iterations == 5 and healthy.error is None
    assert np.array_equal(healthy.loglik_trace, alone.loglik_trace)
    assert np.array_equal(params(healthy), params(alone))


def scale_overflow_member():
    """Three exact values and 300 counts in [1e305, inf) under a start
    Weibull(1e300, 0.05): the scale update's mass is fine, but its
    alpha^beta of about 3e15, raised to 1 / 0.05, overflows."""
    s = CensoredSample(np.array([1.0, 2.0, 3.0]), [CensoringInterval(1e305, math.inf, 300)])
    return s, ComponentSpec.weibull(1e300, 0.05)


def power_overflow_member():
    """300 Exp(1) draws under a start Weibull(1e300, 3): alpha_prev^beta
    overflows before the scale update's mass is checked."""
    xs = sample(MixtureModel([1.0], [ComponentSpec.exponential(1.0)]), 300, rng_seed=1)
    return CensoredSample(xs, []), ComponentSpec.weibull(1e300, 3.0)


@pytest.mark.parametrize("mate", [False, True], ids=["alone", "with-healthy-mate"])
@pytest.mark.parametrize("member", [scale_overflow_member, power_overflow_member],
                         ids=["scale-overflow", "power-overflow"])
def test_fit_batch_overflow_stages_match_reference_loop(reference_mixture, member, mate):
    """The two overflow checks of the Weibull scale update that no other
    test reaches: the member stops at the first M-step with the reference
    loop's error and warnings, and a healthy batch mate is untouched."""
    cfg = EmConfig(max_iter=5)
    s, comp = member()
    start = MixtureModel([1.0], [comp])
    samples, starts = [s], [start]
    if mate:
        samples.append(CensoredSample(sample(reference_mixture, 600, rng_seed=7), []))
        starts.append(None)
    out = fit_batch(samples, (0, 1), cfg, starts)
    ref = reference_fit(s, (0, 1), cfg, start)
    assert out[0].error == ref.error == "OverflowError: math range error"
    assert out[0].iterations == ref.iterations == 0
    assert out[0].warnings == ref.warnings
    assert_matches_reference(out[0], ref)
    if mate:
        (alone,) = fit_batch(samples[1:], (0, 1), cfg)
        assert out[1].iterations == alone.iterations == 5 and out[1].error is None
        assert np.array_equal(out[1].loglik_trace, alone.loglik_trace)
        assert np.array_equal(params(out[1]), params(alone))


@pytest.mark.parametrize("shape", [(1, 1), (0, 2), (2, 1)])
def test_fit_batch_default_censoring_fits_the_same_on_either_interval_route(
        reference_mixture, shape):
    """A batch whose intervals all start at 0 leaves the lower interval
    transform out of its passes and M-steps; a mate with an interval off 0
    sends the whole batch down the general route.  A member under the
    default censoring [0, 0.5) fits the same in both batches: the same
    iterations, flags, error and warnings, and its parameters and
    log-likelihood trace within 1e-12."""
    diffs = generate_synthetic(reference_mixture, 400, rng_seed=307)
    member = build_sample(diffs[:200])
    fits = {}
    for spec in sorted(CENSOR_SPECS):
        mate = build_sample(diffs[200:], CENSOR_SPECS[spec])
        models = [default_init(s, *shape) for s in (member, mate)]
        with np.errstate(all="ignore"):  # as fit_batch runs it
            route = em_core._Batch([member, mate], models, shape[0]).from_zero
        assert route == (spec == "default")
        fits[spec] = fit_batch([member, mate], shape)[0]
    got, ref = fits["two-with-empty"], fits["default"]
    assert ref.iterations > 5 and ref.converged
    assert (got.iterations, got.converged, got.degenerate) == (
        ref.iterations, ref.converged, ref.degenerate)
    assert (got.error, got.warnings) == (ref.error, ref.warnings)
    np.testing.assert_allclose(params(got), params(ref), rtol=1e-12)
    np.testing.assert_allclose(got.loglik_trace, ref.loglik_trace, rtol=1e-12)


@pytest.mark.parametrize("spec", [[CensoringInterval(0.0, 0.5, 100)],
                                  [CensoringInterval(0.0, 0.5, 100),
                                   CensoringInterval(0.5, 0.75, 0)]], ids=["from-0", "general"])
def test_fit_batch_interval_transform_overflow_matches_reference_loop(spec):
    """No exact value and a start Weibull(1e-160, 2): (0.5 / alpha)^beta
    overflows, where the reference loop's scale update raises, though
    alpha^beta, the new scale and the shape score stay finite.  On either
    interval route the member stops at the first M-step with the
    reference loop's error and warnings."""
    cfg = EmConfig(max_iter=5)
    s = CensoredSample(np.empty(0), spec)
    start = MixtureModel([1.0], [ComponentSpec.weibull(1e-160, 2.0)])
    (res,) = fit_batch([s], (0, 1), cfg, [start])
    ref = reference_fit(s, (0, 1), cfg, start)
    assert res.error == ref.error == "OverflowError: math range error"
    assert res.iterations == ref.iterations == 0
    assert_matches_reference(res, ref)


def test_fit_batch_takes_one_e_pass_per_lockstep_iteration(reference_mixture, monkeypatch):
    """Members advance in lockstep: a mixed 2,1 batch makes one E-step pass
    for the start and one per iteration of its slowest member."""
    calls = []
    e_pass = em_core._Batch.e_pass
    monkeypatch.setattr(em_core._Batch, "e_pass", lambda self: calls.append(1) or e_pass(self))
    samples = [build_sample(generate_synthetic(reference_mixture, n, rng_seed=281 + n))
               for n in (150, 400, 260)]
    samples.append(CensoredSample(np.array([1.0, 2.0]), []))
    out = fit_batch(samples, (2, 1))
    fits = [res for res in out if isinstance(res, FitResult)]
    assert isinstance(out[-1], DomainError) and len(fits) == 3
    assert len({res.iterations for res in fits}) > 1
    assert len(calls) == 1 + max(res.iterations for res in fits)


def test_fit_batch_exact_row_underflow_matches_scalar():
    """Against the scalar reference loop, with a well-behaved member in
    the same batch."""
    s = CensoredSample(np.array([1.0, 2.0, 5.0, 1e300]), [])
    ok = CensoredSample(np.array([1.0, 2.0, 5.0, 3.0, 4.0]), [])
    start = MixtureModel([1.0], [ComponentSpec.weibull(1.0, 2.0)])
    bad, good = fit_batch([s, ok], (0, 1), inits=[start, start])
    ref = reference_fit(s, (0, 1), start=start)
    assert bad.final_responsibilities is None and bad.loglik == -math.inf
    assert (bad.error, bad.warnings, bad.iterations) == (ref.error, ref.warnings, 0)
    assert_matches_reference(good, reference_fit(ok, (0, 1), start=start))


@pytest.mark.parametrize("n_inits", [1, 3])
def test_fit_batch_rejects_inits_of_another_length(reference_mixture, n_inits):
    samples = [build_sample(generate_synthetic(reference_mixture, 200, rng_seed=k))
               for k in (1, 2)]
    with pytest.raises(DomainError, match="inits"):
        fit_batch(samples, (1, 1), inits=[None] * n_inits)


@pytest.mark.parametrize("variant", [MStepVariant.SELF_CONSISTENT_MLE,
                                     MStepVariant.DIRECT_OBJECTIVE])
def test_fit_batch_start_of_another_shape_fails_only_its_slot(reference_mixture, variant):
    """A start model whose components are not the shape's p exponentials
    then r Weibulls gets a DomainError in its slot and never joins the
    arrays: its batch mates fit bit for bit as in a batch without it."""
    cfg = EmConfig(m_step_variant=variant, max_iter=20)
    a, b = [build_sample(generate_synthetic(reference_mixture, n, rng_seed=n)) for n in (180, 260)]
    exp, wbl = ComponentSpec.exponential(5.0), ComponentSpec.weibull(900.0, 0.7)
    swapped = MixtureModel([0.5, 0.5], [wbl, exp])
    short = MixtureModel([1.0], [exp])
    out = fit_batch([a, a, b, b], (1, 1), cfg, [swapped, None, short, None])
    alone = fit_batch([a, b], (1, 1), cfg)
    for k in (0, 2):
        assert isinstance(out[k], DomainError)
        assert str(out[k]) == "start model components do not match the shape (1, 1)"
    for res, ref in zip(out[1::2], alone):
        assert np.array_equal(res.loglik_trace, ref.loglik_trace)
        assert np.array_equal(params(res), params(ref))
        assert (res.iterations, res.converged, res.warnings) == (
            ref.iterations, ref.converged, ref.warnings)


def open_tail_sample() -> CensoredSample:
    """The draws of Exp(1) below 5, plus an occupied censoring interval
    [5, inf) with count 3."""
    xs = sample(MixtureModel([1.0], [ComponentSpec.exponential(1.0)]), 300, rng_seed=1)
    return CensoredSample(xs[xs < 5.0], [CensoringInterval(5.0, math.inf, 3)])


def test_fit_with_occupied_open_tail_interval_converges():
    s = open_tail_sample()
    res = fit(s, (1, 1))
    assert res.converged and not res.degenerate and res.error is None
    assert math.isfinite(res.loglik)
    assert_matches_reference(res, reference_fit(s, (1, 1)))


# --- invariances the maths guarantees ----------------------------------------------------


VARIANTS = [MStepVariant.SELF_CONSISTENT_MLE, MStepVariant.DIRECT_OBJECTIVE]


def scaled(s: CensoredSample, c: float) -> CensoredSample:
    return CensoredSample(s.uncensored * c, [CensoringInterval(iv.lo * c, iv.hi * c, iv.count)
                                             for iv in s.intervals])


@pytest.mark.parametrize("variant", VARIANTS)
def test_fit_scale_equivariance(reference_mixture, variant):
    """Scaling the data and the intervals by 1024 scales every alpha by
    1024, keeps beta and the weights, and shifts the loglik by
    -n_exact log 1024."""
    s = build_sample(generate_synthetic(reference_mixture, 400, rng_seed=251))
    cfg = EmConfig(m_step_variant=variant, max_iter=100)
    res, big = fit(s, (1, 1), cfg), fit(scaled(s, 1024.0), (1, 1), cfg)
    assert big.iterations == res.iterations and big.converged == res.converged
    np.testing.assert_allclose(big.model.weights, res.model.weights, rtol=1e-6)
    for cb, c in zip(big.model.components, res.model.components):
        assert cb.alpha == pytest.approx(1024.0 * c.alpha, rel=1e-6)
        assert cb.beta == pytest.approx(c.beta, rel=1e-6)
    assert big.loglik == pytest.approx(res.loglik - s.n * math.log(1024.0), rel=1e-8)


@pytest.mark.parametrize("variant", VARIANTS)
def test_fit_permutation_invariance(reference_mixture, variant):
    s = build_sample(generate_synthetic(reference_mixture, 400, rng_seed=257))
    perm = np.random.default_rng(5).permutation(s.n)
    shuffled = CensoredSample(s.uncensored[perm], s.intervals)
    cfg = EmConfig(m_step_variant=variant, max_iter=100)
    res, other = fit(s, (1, 1), cfg), fit(shuffled, (1, 1), cfg)
    assert np.array_equal(other.loglik_trace, res.loglik_trace)
    assert np.array_equal(params(other), params(res))
    assert (other.iterations, other.converged) == (res.iterations, res.converged)
    assert np.array_equal(other.final_responsibilities.z, res.final_responsibilities.z[perm])


@pytest.mark.parametrize("variant", VARIANTS)
def test_fit_loglik_equals_uncompressed_objective(reference_mixture, variant):
    s = build_sample(generate_synthetic(reference_mixture, 400, rng_seed=263))
    res = fit(s, (1, 1), EmConfig(m_step_variant=variant, max_iter=100))
    assert res.loglik == pytest.approx(censored_log_likelihood(res.model, s), rel=1e-12)


# --- the lean mle pass: E-pass quantities in the M-step, responsibilities on read ----


def lean_m_step_batch(reference_mixture, cold: bool):
    """(samples, starts) of a 1,1 batch: a plain member, a member whose
    shape step leaves BETA_BRACKET, an overflow member, a member whose
    (x / alpha)^beta overflows at values where its Weibull responsibility
    is 0 and, with cold, a cold-started member (beta = 1).  At alpha_new
    the fourth member's powers are finite, so its step runs on the score
    afresh, as the public operations take it."""
    plain = build_sample(generate_synthetic(reference_mixture, 600, rng_seed=271))
    steep = CensoredSample(
        sample(MixtureModel([1.0], [ComponentSpec.weibull(1.0, 30.0)]), 500, rng_seed=47), [])
    small = sample(MixtureModel([1.0], [ComponentSpec.weibull(1e-3, 2.0)]), 200, rng_seed=5)
    huge = CensoredSample(np.concatenate([small, 7e27 * (1.0 + 0.001 * np.arange(20))]), [])
    samples = [plain, steep, overflow_sample(), huge]
    starts = [weibull_shapes_at(plain, (1, 1), 0.7),
              MixtureModel([0.5, 0.5], [ComponentSpec.exponential(0.5),
                                        ComponentSpec.weibull(1.0, 15.0)]),
              weibull_shapes_at(overflow_sample(), (1, 1), 2.0),
              MixtureModel([0.5, 0.5], [ComponentSpec.exponential(7e27),
                                        ComponentSpec.weibull(1e-3, 10.0)])]
    if cold:
        fresh = build_sample(generate_synthetic(reference_mixture, 300, rng_seed=277))
        samples.append(fresh)
        starts.append(default_init(fresh, 1, 1))
    return samples, starts


def fresh_m_step(r: Responsibilities, s: CensoredSample, prev: MixtureModel):
    """The member's M-step by the public operations, which exponentiate
    x^beta and e^(beta l_rel) afresh: the [alpha, beta] of each component
    as far as they get (beta None where it is not reached), and the
    exception of the first one that fails, or None."""
    reached = []
    try:
        for i, c in enumerate(prev.components):
            if c.kind == Kind.EXPONENTIAL:
                reached.append([m_step_exponential(r, s, i, c.alpha), 1.0])
            else:
                reached.append([m_step_weibull_alpha(r, s, i, c), None])
                reached[-1][1] = m_step_weibull_beta(r, s, i, c, reached[-1][0])
    except (BracketError, DegenerateComponentError, OverflowError) as exc:
        return reached, exc
    return reached, None


@pytest.mark.parametrize("cold", [False, True])
def test_batch_m_step_matches_fresh_exponentials(reference_mixture, cold):
    """The batched mle M-step takes x^beta and the shape score at beta_prev
    from the E-pass's powers.  Against the public operations, which
    exponentiate afresh, each new scale and shape agrees to 1e-12, and
    each member fails at the same stage with the same named error.  With
    a cold-started member (beta = 1) the batch forms the interval
    transforms anew; without one it takes them from the E-pass."""
    samples, starts = lean_m_step_batch(reference_mixture, cold)
    with np.errstate(all="ignore"):  # as fit_batch runs it
        st = em_core._Batch(samples, starts, 1)
        st.e_pass()
        assert (st.bad < 0).all() and np.isinf(st.pw[0, 3]).any()
        st.weights_from_pass()
        alpha, beta, errors = st.m_step()
    number = re.compile(r"-?\d+\.\d+(?:e[-+]\d+)?")
    named = []
    for pos, (s, start) in enumerate(zip(samples, starts)):
        r = em_core._Expanding(st.z[:, pos, :st.nu[pos]].T, st.zt[:, pos, :st.nl[pos]].T,
                               s.uncensored)
        reached, exc = fresh_m_step(r, s, start)
        for i, (a, b) in enumerate(reached):
            assert alpha[i, pos] == pytest.approx(a, rel=1e-12)
            if b is not None:
                assert beta[i, pos] == pytest.approx(b, rel=1e-12)
        got = errors.get(pos)
        assert type(got) is type(exc)
        if exc is not None:
            assert number.sub("#", str(got)) == number.sub("#", str(exc))
            np.testing.assert_allclose([float(v) for v in number.findall(str(got))],
                                       [float(v) for v in number.findall(str(exc))], rtol=1e-8)
        named.append(None if exc is None else type(exc).__name__)
    assert named == [None, "BracketError", "OverflowError", None] + [None] * cold


def test_final_responsibilities_expand_on_first_read(reference_mixture):
    """A fit keeps its last responsibilities on its unique exact values and
    expands them on the first read, bit for bit e_step's under the final
    model: for mle members of unequal sizes in one batch and for a direct
    fit.  A member whose first pass underflows has none, and a second
    read gives the same arrays."""
    samples = [build_sample(generate_synthetic(reference_mixture, n, rng_seed=283 + n))
               for n in (150, 900, 400)]
    bad = CensoredSample(np.array([1.0, 2.0, 5.0, 1e300]), [])
    start = MixtureModel([1.0], [ComponentSpec.weibull(1.0, 2.0)])
    out = fit_batch(samples + [bad], (0, 1), inits=[None, None, None, start])
    assert out[3].final_responsibilities is None
    direct = fit(samples[1], (1, 1), EmConfig(m_step_variant=MStepVariant.DIRECT_OBJECTIVE,
                                              max_iter=30))
    for res, s in [*zip(out, samples), (direct, samples[1])]:
        first = res.final_responsibilities
        ref = e_step(res.model, s)
        assert np.array_equal(first.z, ref.z)
        assert np.array_equal(first.z_tilde, ref.z_tilde)
        again = res.final_responsibilities
        assert np.array_equal(again.z, first.z) and np.array_equal(again.z_tilde, first.z_tilde)
