import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.integrate import quad

from censem.errors import DomainError, NonConvergenceError
from censem.special_fn import (
    EULER_GAMMA,
    d_series,
    d_series1_array,
    e1_array,
    euler_gamma,
    gamma_complete,
    gamma_lower,
    gamma_lower2_array,
    gamma_upper,
    gamma_upper2_array,
)

from conftest import d_series_decimal

SQRT_PI = 1.7724538509055159


# --- independent oracles ----------------------------------------------------


def gamma_quad(s: float) -> float:
    """Adaptive quadrature of the defining integral, split at t=1."""
    f = lambda t: t ** (s - 1.0) * math.exp(-t)
    a, _ = quad(f, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
    b, _ = quad(f, 1.0, np.inf, epsabs=1e-13, epsrel=1e-13)
    return a + b


def gamma_upper_quad(s: float, x: float) -> float:
    """Quadrature of the defining integral with relative accuracy from
    x = 1e-150 to 600: from x = 1 on as e^-x int_0^inf (x+u)^(s-1) e^-u du,
    below 1 as Gamma(s, 1) plus int_x^1 taken in u = log t."""
    if x >= 1.0:
        v, _ = quad(lambda u: (x + u) ** (s - 1.0) * math.exp(-u), 0.0, np.inf,
                    epsabs=0.0, epsrel=1e-13)
        return math.exp(-x) * v
    v, _ = quad(lambda u: math.exp(s * u - math.exp(u)), math.log(x), 0.0,
                epsabs=0.0, epsrel=1e-13, limit=200)
    return v + gamma_upper_quad(s, 1.0)


def gamma_lower_decimal(s: float, x: float, terms: int = 30) -> float:
    """x^s e^-x sum_n x^n / (s (s+1) ... (s+n)) at 60 digits, for small x."""
    with localcontext() as ctx:
        ctx.prec = 60
        sd, xd = Decimal(s), Decimal(x)
        term = 1 / sd
        total = term
        for n in range(1, terms):
            term = term * xd / (sd + n)
            total += term
        return float(total * (sd * xd.ln() - xd).exp())


def gamma2_decimal(x: float) -> tuple[float, float]:
    """(gamma(2, x), Gamma(2, x)) from the closed forms 1 - (1 + x) e^-x and
    (1 + x) e^-x, at enough digits to survive the cancellation down to
    x = 1e-150."""
    with localcontext() as ctx:
        ctx.prec = 400
        xd = Decimal(x)
        upper = (1 + xd) * (-xd).exp()
        return float(1 - upper), float(upper)


# --- gamma_complete ---------------------------------------------------------


def test_gamma_complete_factorial():
    assert gamma_complete(1.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma_complete(5.0) == pytest.approx(24.0, rel=1e-14)


def test_gamma_complete_half():
    assert gamma_complete(0.5) == pytest.approx(SQRT_PI, rel=1e-13)


def test_gamma_complete_vs_quadrature():
    s = 2.7526
    assert gamma_complete(s) == pytest.approx(gamma_quad(s), rel=1e-10)


def test_gamma_complete_domain():
    with pytest.raises(DomainError):
        gamma_complete(0.0)
    with pytest.raises(DomainError):
        gamma_complete(-1.5)


def test_gamma_complete_saturates():
    assert gamma_complete(200.0) == math.inf


# --- gamma_upper ------------------------------------------------------------


def test_gamma_upper_order_one_is_survival():
    assert gamma_upper(1.0, 0.7) == pytest.approx(math.exp(-0.7), rel=1e-13)


def test_gamma_upper_at_zero_is_complete():
    assert gamma_upper(0.5, 0.0) == pytest.approx(SQRT_PI, rel=1e-13)


def test_gamma_upper_order_zero_vs_quadrature():
    v, _ = quad(lambda t: math.exp(-t) / t, 1.0, np.inf, epsabs=1e-14)
    assert gamma_upper(0.0, 1.0) == pytest.approx(v, rel=1e-11)
    assert gamma_upper(0.0, 1.0) == pytest.approx(0.2193839, abs=5e-8)


def test_gamma_upper_order_zero_small_x_branch():
    # E1 on both sides of x = 1
    for x in (0.2, 0.8, 0.999, 1.0, 1.001, 3.0):
        assert gamma_upper(0.0, x) == pytest.approx(gamma_upper_quad(0.0, x), rel=1e-10)


def test_gamma_upper_domain():
    with pytest.raises(DomainError):
        gamma_upper(0.0, 0.0)
    with pytest.raises(DomainError):
        gamma_upper(-0.1, 1.0)
    with pytest.raises(DomainError):
        gamma_upper(1.0, -0.1)


def test_gamma_upper_random_spot_checks_vs_quadrature():
    rng = np.random.default_rng(42)
    for _ in range(25):
        s = float(rng.uniform(0.05, 9.0))
        x = float(rng.uniform(0.01, 25.0))
        assert gamma_upper(s, x) == pytest.approx(gamma_upper_quad(s, x), rel=1e-9)


# --- property grids (recurrence, complementarity, monotonicity) -------------


def _grid(n=50):
    return (
        np.linspace(0.1, 10.0, n),
        np.geomspace(0.01, 30.0, n),
    )


def test_recurrence_grid():
    # Gamma(s+1, x) = s Gamma(s, x) + x^s e^(-x)
    svals, xvals = _grid()
    worst = 0.0
    for s in svals:
        for x in xvals:
            lhs = gamma_upper(s + 1.0, x)
            rhs = s * gamma_upper(s, x) + x ** s * math.exp(-x)
            worst = max(worst, abs(lhs - rhs) / lhs)
    assert worst <= 1e-10


def test_complementarity_grid():
    for s in np.linspace(0.1, 10.0, 50):
        assert gamma_upper(s, 0.0) == pytest.approx(gamma_complete(s), rel=1e-12)


def test_lower_plus_upper_is_complete():
    for s in (0.1, 0.7, 1.0, 3.3, 9.5):
        for x in (0.01, 0.5, 1.0, 4.0, 25.0):
            total = gamma_lower(s, x) + gamma_upper(s, x)
            assert total == pytest.approx(gamma_complete(s), rel=1e-12)


def test_monotone_decreasing_in_x():
    # Strict decrease wherever the analytic decrement gamma(s,b)-gamma(s,a)
    # is representable at double resolution; never an increase anywhere.
    svals, xvals = _grid()
    for s in svals[::7]:
        prev_x = xvals[0]
        prev = gamma_upper(s, prev_x)
        for x in xvals[1:]:
            cur = gamma_upper(s, x)
            decrement = gamma_lower(s, x) - gamma_lower(s, prev_x)
            if decrement > 1e-12 * prev:
                assert cur < prev
            else:
                assert cur <= prev
            prev, prev_x = cur, x


def test_outputs_finite_on_domain():
    svals, xvals = _grid(20)
    for s in svals:
        for x in xvals:
            assert math.isfinite(gamma_upper(s, x))
            assert math.isfinite(gamma_lower(s, x))


# --- euler_gamma ------------------------------------------------------------


def test_euler_gamma_value():
    assert euler_gamma() == pytest.approx(0.5772156649015329, abs=1e-15)
    assert euler_gamma() == pytest.approx(0.5772157, abs=5e-8)


def test_euler_gamma_as_e1_limit():
    # -(e^(-z) log z + Gamma(0, z)) -> euler gamma as z -> 0+
    z = 1e-8
    approx = -(math.exp(-z) * math.log(z) + gamma_upper(0.0, z))
    assert approx == pytest.approx(EULER_GAMMA, abs=1e-6)


def test_e1_series_expansion_consistency():
    z = 1e-8
    assert gamma_upper(0.0, z) + math.log(z) + EULER_GAMMA == pytest.approx(0.0, abs=1e-6)


# --- d_series ---------------------------------------------------------------


def test_d_series_zero_argument():
    assert d_series(1.0, 0.0) == 0.0


def test_d_series_vs_decimal_oracle_single():
    assert d_series(1.0, 0.5) == pytest.approx(d_series_decimal(1.0, 0.5), rel=1e-12)


def test_d_series_vs_decimal_oracle_grid():
    for a in (0.1, 0.5, 1.0, 2.0, 5.0):
        for z in (0.1, 0.5, 1.0, 2.0, 5.0):
            assert d_series(a, z) == pytest.approx(d_series_decimal(a, z), rel=1e-10), (a, z)


def test_d_series_vs_order_derivative_of_gamma_upper():
    # d_series(a, z) = d/ds Gamma(s, z)|_{s=a+1} - Gamma'(a+1) + gamma_lower(a+1, z) log z
    a, z = 0.5, 2.0
    h = 1e-5
    s = a + 1.0
    dgu = (gamma_upper(s + h, z) - gamma_upper(s - h, z)) / (2 * h)
    dgc = (gamma_complete(s + h) - gamma_complete(s - h)) / (2 * h)
    lower = gamma_complete(s) - gamma_upper(s, z)
    expected = dgu - dgc + lower * math.log(z)
    assert d_series(a, z) == pytest.approx(expected, rel=1e-6)


def test_d_series_non_convergence_for_huge_z():
    with pytest.raises(NonConvergenceError):
        d_series(1.0, 200.0)


def test_d_series_domain():
    with pytest.raises(DomainError):
        d_series(0.0, 1.0)
    with pytest.raises(DomainError):
        d_series(1.0, -1.0)


# --- array kernels -------------------------------------------------------------

ARRAY_GRID = np.concatenate([np.geomspace(1e-150, 1e-3, 40), np.geomspace(1e-3, 600.0, 400)])


def relative_gap(array_values, scalar_fn, xs):
    scalar = np.array([scalar_fn(float(x)) for x in xs])
    return np.max(np.abs(array_values - scalar) / np.abs(scalar))


def test_e1_array_matches_scalar():
    """e1_array and the scalar gamma_upper(0, .) against quadrature."""
    oracle = lambda x: gamma_upper_quad(0.0, x)
    assert relative_gap(e1_array(ARRAY_GRID), oracle, ARRAY_GRID) < 1e-13
    scalar = np.array([gamma_upper(0.0, float(x)) for x in ARRAY_GRID])
    assert relative_gap(scalar, oracle, ARRAY_GRID) < 1e-13
    assert e1_array(np.array([0.0, np.inf])).tolist() == [np.inf, 0.0]


def test_gamma2_arrays_match_scalar():
    """The order-2 array kernels against their Decimal closed forms."""
    assert relative_gap(gamma_lower2_array(ARRAY_GRID), lambda x: gamma2_decimal(x)[0],
                        ARRAY_GRID) < 1e-13
    assert relative_gap(gamma_upper2_array(ARRAY_GRID), lambda x: gamma2_decimal(x)[1],
                        ARRAY_GRID) < 1e-13
    assert gamma_lower2_array(np.array([0.0, np.inf])).tolist() == [0.0, 1.0]
    assert gamma_upper2_array(np.array([0.0, 1e300, np.inf])).tolist() == [1.0, 0.0, 0.0]


@pytest.mark.parametrize("s", [1.25, 2.0, 5.0])
def test_gamma_lower_keeps_relative_accuracy_near_zero(s):
    """_gamma_upper_diff takes tiny intervals near 0 as a difference of
    lower gammas, so gamma_lower must not lose digits there."""
    for x in np.geomspace(1e-100, 1e-3, 300):
        want = gamma_lower_decimal(s, float(x))
        got = gamma_lower(s, float(x))
        if want < sys.float_info.min:
            # below the normal range only the absolute size is kept
            assert abs(got - want) <= sys.float_info.min, (x, want, got)
            continue
        # x^s e^-x is formed as exp(s log x - x), whose rounding grows with
        # the size of that exponent: about eps per unit of |log want|.
        tol = max(1e-13, 2.0 * sys.float_info.epsilon * abs(math.log(want)))
        assert abs(got - want) <= tol * want, (x, want, got)


def test_large_order_gives_no_nan():
    # Gamma(s) saturates to inf above s ~ 171.6, while the regularized
    # ratio underflows to 0 far out in the tail.
    assert gamma_upper(200.0, 1e4) == 0.0
    assert gamma_lower(200.0, 1e-3) == 0.0
    for s in (171.0, 172.0, 200.0, 1e3):
        for x in (1e-300, 1e-3, 1.0, 50.0, 1e4, 1e300, math.inf):
            assert not math.isnan(gamma_upper(s, x)), (s, x)
            assert not math.isnan(gamma_lower(s, x)), (s, x)


def test_d_series1_array_matches_scalar_where_the_series_is_accurate():
    zs = ARRAY_GRID[ARRAY_GRID <= 4.0]
    assert relative_gap(d_series1_array(zs), lambda z: d_series(1.0, z), zs) < 1e-12
    assert d_series1_array(np.array([0.0])).tolist() == [0.0]


def test_d_series1_array_powers_by_multiplication_match_float_powers():
    """Below 1 the kernel builds the powers of -z by repeated
    multiplication; the float powers of a negative base give the same sum
    to 1e-15 relative."""
    z = np.random.default_rng(61).uniform(0.0, 1.0, 10_000)
    coeffs = np.array([1.0 / (math.factorial(p) * (p + 2) ** 2) for p in range(21)])
    want = z * z * (np.power.outer(-z, np.arange(21.0)) @ coeffs)
    got = d_series1_array(z)
    assert np.max(np.abs(got - want) / want) <= 1e-15
    assert d_series1_array(z.reshape(100, 100)).ravel().tolist() == got.tolist()


@pytest.mark.parametrize("z", [5.0, 30.0, 60.0, 300.0])
def test_d_series1_array_large_z_matches_quadrature(z):
    """d_series(1, z) = int_0^z t e^-t log(z/t) dt; the closed form holds
    where the alternating scalar series has lost its digits."""
    val, _ = quad(lambda t: t * math.exp(-t) * math.log(z / t), 0.0, z,
                  epsabs=1e-14, epsrel=1e-13, limit=200)
    assert d_series1_array(np.array([z]))[0] == pytest.approx(val, rel=1e-11)


def test_d_series_underflowing_leading_term_is_zero():
    # z^2 / 4 underflows below z ~ 1e-162; the series then sums to 0, as
    # the array kernel gives, instead of running out of terms.
    assert d_series(1.0, 1e-200) == 0.0
    assert d_series1_array(np.array([1e-200])).tolist() == [0.0]
