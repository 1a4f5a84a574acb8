import math

import numpy as np
import pytest
from scipy.integrate import quad

from censem import (
    CensoringInterval,
    ComponentSpec,
    MixtureModel,
    censored_log_likelihood,
    dof,
    interval_prob,
    log_pdf,
    mixture_pdf,
    pdf,
    sample,
)
from censem.components import log_interval_prob
from censem.errors import DomainError
from censem.sample_data import CensoredSample

from conftest import weibull_pdf_direct


def quad_pdf(c, lo, hi):
    """Quadrature of the density, split at the scale to tame the
    beta < 1 endpoint singularity."""
    f = lambda t: weibull_pdf_direct(t, c.alpha, c.beta)
    if hi <= c.alpha or lo >= c.alpha:
        v, _ = quad(f, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)
        return v
    a, _ = quad(f, lo, c.alpha, epsabs=1e-13, epsrel=1e-12, limit=200)
    b, _ = quad(f, c.alpha, hi, epsabs=1e-13, epsrel=1e-12, limit=200)
    return a + b


# --- component construction --------------------------------------------------


def test_component_validation():
    with pytest.raises(DomainError):
        ComponentSpec.exponential(0.0)
    with pytest.raises(DomainError):
        ComponentSpec.weibull(1.0, -2.0)
    with pytest.raises(DomainError):
        ComponentSpec("exp", 1.0, 2.0)  # exponential must keep beta = 1


def test_mixture_validation():
    c = ComponentSpec.exponential(1.0)
    with pytest.raises(DomainError, match=r"^weights must sum to 1, got 1\.1$"):  # any numpy
        MixtureModel([0.5, 0.6], [c, c])
    with pytest.raises(DomainError):
        MixtureModel([], [])
    with pytest.raises(DomainError):
        MixtureModel([-0.2, 1.2], [c, c])


def test_censoring_interval_validation():
    with pytest.raises(DomainError):
        CensoringInterval(1.0, 1.0)
    with pytest.raises(DomainError):
        CensoringInterval(-0.5, 1.0)
    with pytest.raises(DomainError):
        CensoringInterval(0.0, 0.5, -1)


# --- pdf / log_pdf -----------------------------------------------------------


def test_pdf_known_values():
    assert pdf(ComponentSpec.weibull(1.0, 2.0), 1.0) == pytest.approx(2 * math.exp(-1), rel=1e-12)
    assert pdf(ComponentSpec.exponential(2.0), 2.0) == pytest.approx(0.5 * math.exp(-1), rel=1e-12)


def test_pdf_normalizes_on_grid():
    # upper limit where the survival function is ~e^-50, far below tolerance;
    # beta < 1 tails are heavy, so the cut must scale like 50^(1/beta)
    for alpha in (0.1, 1.0, 10.0, 2500.0):
        for beta in (0.3, 0.57, 1.0, 2.0):
            c = ComponentSpec.weibull(alpha, beta)
            total = quad_pdf(c, 0.0, alpha * 50.0 ** (1.0 / beta))
            assert total == pytest.approx(1.0, abs=1e-8), (alpha, beta)


def test_log_pdf_known_values():
    assert log_pdf(ComponentSpec.exponential(1.0), 1.0) == pytest.approx(-1.0, abs=1e-12)
    assert log_pdf(ComponentSpec.weibull(1.0, 2.0), 1.0) == pytest.approx(
        math.log(2.0) - 1.0, abs=1e-12
    )


def test_log_pdf_matches_log_of_pdf_where_representable():
    c = ComponentSpec.weibull(2500.0, 0.57)
    for x in (0.5, 1.0, 100.0, 5000.0):
        assert log_pdf(c, x) == pytest.approx(math.log(pdf(c, x)), abs=1e-12)


def test_log_pdf_deep_in_the_spike_vs_extended_precision():
    # near 0 with beta < 1 the density grows; check against a 50-digit
    # Decimal evaluation of the same expression
    from decimal import Decimal, getcontext

    getcontext().prec = 50
    alpha, beta, x = 2500.0, 0.57, 0.001
    la, lx, b = Decimal(alpha).ln(), Decimal(x).ln(), Decimal(beta)
    expected = b.ln() - la + (b - 1) * (lx - la) - (b * (lx - la)).exp()
    v = log_pdf(ComponentSpec.weibull(alpha, beta), x)
    assert math.isfinite(v)
    assert v == pytest.approx(float(expected), abs=1e-12)


def test_log_pdf_domain():
    with pytest.raises(DomainError):
        log_pdf(ComponentSpec.exponential(1.0), 0.0)
    with pytest.raises(DomainError):
        pdf(ComponentSpec.exponential(1.0), -1.0)


# --- interval_prob -----------------------------------------------------------


def test_interval_prob_total_mass():
    c = ComponentSpec.exponential(1.0)
    assert interval_prob(c, CensoringInterval(0.0, 1e9)) == pytest.approx(1.0, abs=1e-12)


def test_interval_prob_exponential_survival_difference():
    c = ComponentSpec.exponential(1.0)
    expected = math.exp(-0.5) - math.exp(-1.5)
    assert interval_prob(c, CensoringInterval(0.5, 1.5)) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(0.3834005, abs=5e-8)


def test_interval_prob_weibull_zero_bin():
    c = ComponentSpec.weibull(2500.0, 0.57)
    iv = CensoringInterval(0.0, 0.5)
    p = interval_prob(c, iv)
    assert p == pytest.approx(quad_pdf(c, 0.0, 0.5), rel=1e-7)
    assert p == pytest.approx(0.00777, abs=5e-5)


def test_interval_prob_additivity():
    c = ComponentSpec.weibull(3.0, 0.7)
    ab = interval_prob(c, CensoringInterval(0.5, 2.0))
    bc = interval_prob(c, CensoringInterval(2.0, 7.0))
    ac = interval_prob(c, CensoringInterval(0.5, 7.0))
    assert ab + bc == pytest.approx(ac, abs=1e-12)


def test_interval_prob_matches_quadrature_grid():
    for alpha in (0.5, 1.0, 40.0):
        for beta in (0.4, 1.0, 2.0):
            c = ComponentSpec.weibull(alpha, beta)
            for lo, hi in ((0.0, 0.5), (0.5, 1.5), (1.0, 4.0)):
                p = interval_prob(c, CensoringInterval(lo, hi))
                assert p == pytest.approx(quad_pdf(c, lo, hi), abs=1e-9)


def test_log_interval_prob_consistent():
    c = ComponentSpec.weibull(2500.0, 0.57)
    iv = CensoringInterval(0.0, 0.5)
    assert log_interval_prob(c, iv) == pytest.approx(math.log(interval_prob(c, iv)), abs=1e-12)


# --- exponential as beta=1 Weibull -------------------------------------------


def test_beta_one_weibull_equals_exponential_pointwise():
    e = ComponentSpec.exponential(3.7)
    w = ComponentSpec.weibull(3.7, 1.0)
    for x in (0.01, 0.5, 1.0, 10.0, 100.0):
        assert abs(pdf(e, x) - pdf(w, x)) <= 1e-12 * pdf(e, x)
    for iv in (CensoringInterval(0.0, 0.5), CensoringInterval(1.0, 5.0)):
        assert abs(interval_prob(e, iv) - interval_prob(w, iv)) <= 1e-12


def test_beta_one_weibull_samples_identical_paired_seed():
    e = MixtureModel([1.0], [ComponentSpec.exponential(3.7)])
    w = MixtureModel([1.0], [ComponentSpec.weibull(3.7, 1.0)])
    xs_e = sample(e, 100_000, rng_seed=314)
    xs_w = sample(w, 100_000, rng_seed=314)
    # identical draw path, so Kolmogorov distance is exactly zero
    assert np.array_equal(xs_e, xs_w)


# --- mixture_pdf -------------------------------------------------------------


def test_mixture_pdf_degenerate_single():
    c = ComponentSpec.weibull(2.0, 1.3)
    m = MixtureModel([1.0], [c])
    assert mixture_pdf(m, 1.7) == pytest.approx(pdf(c, 1.7), rel=1e-14)


def test_mixture_pdf_identical_components():
    c = ComponentSpec.exponential(2.0)
    m = MixtureModel([0.5, 0.5], [c, c])
    assert mixture_pdf(m, 0.9) == pytest.approx(pdf(c, 0.9), rel=1e-14)


def test_mixture_pdf_two_term_sum(reference_mixture):
    x = 10.0
    direct = 0.2 * pdf(reference_mixture.components[0], x) + 0.8 * pdf(
        reference_mixture.components[1], x
    )
    assert mixture_pdf(reference_mixture, x) == pytest.approx(direct, rel=1e-13)


def test_mixture_pdf_nonnegative_everywhere(reference_mixture):
    xs = np.geomspace(1e-3, 1e6, 200)
    assert np.all(mixture_pdf(reference_mixture, xs) >= 0.0)


# --- censored_log_likelihood --------------------------------------------------


def test_loglik_single_exponential_closed_form():
    m = MixtureModel([1.0], [ComponentSpec.exponential(1.0)])
    s = CensoredSample(np.array([1.0, 2.0]), [])
    assert censored_log_likelihood(m, s) == pytest.approx(-3.0, abs=1e-12)


def test_loglik_empty_sample_is_zero(reference_mixture):
    s = CensoredSample(np.empty(0), [CensoringInterval(0.0, 0.5, 0)])
    assert censored_log_likelihood(reference_mixture, s) == 0.0


def _direct_loglik(m, s):
    """Second, deliberately naive implementation (linear space, fsum)."""
    parts = []
    for x in s.uncensored:
        dens = 0.0
        for w, c in zip(m.weights, m.components):
            dens += w * (c.beta / c.alpha) * (x / c.alpha) ** (c.beta - 1.0) * math.exp(
                -((x / c.alpha) ** c.beta)
            )
        parts.append(math.log(dens))
    for iv in s.intervals:
        if iv.count:
            mass = 0.0
            for w, c in zip(m.weights, m.components):
                mass += w * (
                    math.exp(-((iv.lo / c.alpha) ** c.beta))
                    - math.exp(-((iv.hi / c.alpha) ** c.beta))
                )
            parts.append(iv.count * math.log(mass))
    return math.fsum(parts)


def test_loglik_matches_independent_implementation(reference_mixture):
    from censem.sample_data import build_sample, generate_synthetic

    diffs = generate_synthetic(reference_mixture, 1000, rng_seed=5)
    s = build_sample(diffs)
    mine = censored_log_likelihood(reference_mixture, s)
    assert mine == pytest.approx(_direct_loglik(reference_mixture, s), rel=1e-12)


def test_loglik_weight_perturbation_off_simplex_decreases(reference_mixture):
    from censem.sample_data import build_sample, generate_synthetic

    s = build_sample(generate_synthetic(reference_mixture, 2000, rng_seed=8))
    base = censored_log_likelihood(reference_mixture, s)
    for delta in (0.05, -0.05):
        w = np.array([0.2 + delta, 0.8 - delta])
        bumped = MixtureModel(w, reference_mixture.components)
        assert censored_log_likelihood(bumped, s) < base


def test_loglik_minus_inf_on_interval_underflow():
    m = MixtureModel([1.0], [ComponentSpec.weibull(1.0, 2.0)])
    s = CensoredSample(np.empty(0), [CensoringInterval(1e200, 2e200, 3)])
    assert censored_log_likelihood(m, s) == -math.inf


# --- sampling ----------------------------------------------------------------


def test_sample_empty():
    m = MixtureModel([1.0], [ComponentSpec.exponential(1.0)])
    assert sample(m, 0, rng_seed=1).size == 0


def test_sample_deterministic(reference_mixture):
    a = sample(reference_mixture, 5000, rng_seed=77)
    b = sample(reference_mixture, 5000, rng_seed=77)
    assert np.array_equal(a, b)
    assert np.all(a > 0)


def test_sample_exponential_law_of_large_numbers():
    m = MixtureModel([1.0], [ComponentSpec.exponential(1.0)])
    xs = sample(m, 100_000, rng_seed=2024)
    assert abs(xs.mean() - 1.0) <= 3.0 / math.sqrt(xs.size)


def test_sample_weibull_mean_matches_gamma_formula():
    beta = 0.57
    m = MixtureModel([1.0], [ComponentSpec.weibull(1.0, beta)])
    xs = sample(m, 100_000, rng_seed=31)
    mean = math.gamma(1.0 + 1.0 / beta)
    var = math.gamma(1.0 + 2.0 / beta) - mean ** 2
    se = math.sqrt(var / xs.size)
    assert abs(xs.mean() - mean) <= 3.0 * se


# --- dof ----------------------------------------------------------------------


REFERENCE_DOF_ROWS = [
    (1, 1, 4),
    (0, 2, 5),
    (3, 0, 5),
    (2, 1, 6),
    (1, 2, 7),
    (4, 0, 7),
    (0, 3, 8),
    (3, 1, 8),
    (5, 0, 9),
]


@pytest.mark.parametrize("p,r,expected", REFERENCE_DOF_ROWS)
def test_dof_reference_rows(p, r, expected):
    assert dof(p, r) == expected


def test_dof_domain():
    with pytest.raises(DomainError):
        dof(0, 0)
    with pytest.raises(DomainError):
        dof(-1, 2)
