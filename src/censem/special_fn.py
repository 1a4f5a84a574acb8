"""Special-function kernels.

Provides the complete, lower and upper incomplete gamma functions for
real non-negative order (including order 0, where the upper incomplete
gamma is the exponential integral E1), the Euler-Mascheroni constant,
and the alternating series

    d_series(a, z) = sum_{p>=0} (-1)^p / p! * z^(a+1+p) / (a+1+p)^2

that shows up when differentiating incomplete-gamma expressions with
respect to their order.

The incomplete gammas are scalar calls of scipy.special (exp1 and the
regularized gammainc / gammaincc, DLMF 8.2); d_series has no scipy
equivalent and is summed directly, to a relative tolerance of 1e-12.
The scalar functions are pure and thread-safe.

The array functions at the end (e1_array, ein_array, gamma_lower2_array,
gamma_upper2_array, d_series1_array) evaluate the fixed-order cases that
em_core's censored-term kernels need elementwise over numpy arrays,
backed by scipy.special, closed forms and fixed-length power series.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

from .errors import DomainError, NonConvergenceError

EULER_GAMMA = 0.5772156649015329

# Largest argument for which Gamma(s) is representable in a double.
_GAMMA_OVERFLOW = 171.62437695630272

# d_series stops once past its hump and a term is below this share of the
# partial sum, and gives up after this many terms.
_D_SERIES_REL_TOL = 1e-12
_D_SERIES_MAX_TERMS = 200


def euler_gamma() -> float:
    """The Euler-Mascheroni constant."""
    return EULER_GAMMA


def gamma_complete(s: float) -> float:
    """Gamma(s) for s > 0.  Saturates to +inf beyond the double range."""
    if not (s > 0.0) or math.isnan(s):
        raise DomainError(f"gamma_complete requires s > 0, got {s}")
    if s > _GAMMA_OVERFLOW:
        return math.inf
    return math.gamma(s)


def _unregularize(s: float, ratio: float) -> float:
    # Gamma(s) saturates to inf for large s; a ratio of 0 stays 0, not inf * 0.
    return 0.0 if ratio == 0.0 else gamma_complete(s) * ratio


def gamma_upper(s: float, x: float) -> float:
    """Upper incomplete gamma Gamma(s, x) = int_x^inf t^(s-1) e^(-t) dt.

    Valid for s >= 0 and x >= 0, except (s=0, x=0) where the integral
    diverges.  For s = 0 this is the exponential integral E1(x).
    """
    if math.isnan(s) or math.isnan(x) or s < 0.0 or x < 0.0:
        raise DomainError(f"gamma_upper requires s >= 0 and x >= 0, got s={s}, x={x}")
    if x == 0.0:
        if s == 0.0:
            raise DomainError("gamma_upper(0, 0) diverges")
        return gamma_complete(s)
    if s == 0.0:
        return float(_sp.exp1(x))
    return _unregularize(s, float(_sp.gammaincc(s, x)))


def gamma_lower(s: float, x: float) -> float:
    """Lower incomplete gamma gamma(s, x) = int_0^x t^(s-1) e^(-t) dt, s > 0.

    Tiny values near x = 0 keep their relative accuracy down to the
    normal double range (the complementary difference Gamma(s) - Gamma(s, x)
    would cancel catastrophically there), which _gamma_upper_diff in
    em_core relies on.
    """
    if not (s > 0.0) or math.isnan(x) or x < 0.0:
        raise DomainError(f"gamma_lower requires s > 0 and x >= 0, got s={s}, x={x}")
    return _unregularize(s, float(_sp.gammainc(s, x)))


def d_series(a: float, z: float) -> float:
    """sum_{p>=0} (-1)^p / p! * z^(a+1+p) / (a+1+p)^2 for a > 0, z >= 0.

    Terms are built by the recursion t_{p+1} = -t_p * z/(p+1) *
    ((s+p)/(s+p+1))^2 with s = a+1, which never forms z^p or p!
    explicitly, and the final sum is exact over the rounded terms
    (math.fsum).  The alternating tail is truncated once past the hump
    (|t| decreasing) and |t| <= 1e-12 * |partial sum|.
    """
    if not (a > 0.0) or math.isnan(z) or z < 0.0 or math.isinf(z):
        raise DomainError(f"d_series requires a > 0 and finite z >= 0, got a={a}, z={z}")
    if z == 0.0:
        return 0.0
    s = a + 1.0
    t = math.exp(s * math.log(z)) / (s * s)
    if not math.isfinite(t):
        raise NonConvergenceError(f"d_series leading term overflows for a={a}, z={z}")
    if t == 0.0:  # z < 1 here, so the sum is below its underflowed leading term
        return 0.0
    terms = [t]
    running = t
    prev_abs = abs(t)
    for p in range(1, _D_SERIES_MAX_TERMS + 1):
        t *= -z / p * ((s + p - 1.0) / (s + p)) ** 2
        if not math.isfinite(t):
            raise NonConvergenceError(f"d_series term overflow at p={p} for a={a}, z={z}")
        terms.append(t)
        running += t
        decreasing = abs(t) < prev_abs
        prev_abs = abs(t)
        if decreasing and abs(t) <= _D_SERIES_REL_TOL * abs(running):
            return math.fsum(terms)
    raise NonConvergenceError(
        f"d_series did not converge within {_D_SERIES_MAX_TERMS} terms for a={a}, z={z}"
    )


# ---------------------------------------------------------------------------
# array kernels for fixed orders
# ---------------------------------------------------------------------------

# d_series(1, z) = z^2 sum_p c_p (-z)^p with c_p = 1 / (p! (p+2)^2); 21
# terms leave the truncation below 1e-18 relative for z < 1.
_D1_COEFFS = np.array([1.0 / (math.factorial(p) * (p + 2) ** 2) for p in range(21)])

# Ein(z) = z sum_p e_p (-z)^p with e_p = 1 / ((p+1) (p+1)!); 18 terms leave
# the truncation below 1e-18 relative for z < 1.
_EIN_COEFFS = np.array([1.0 / ((p + 1) * math.factorial(p + 1)) for p in range(18)])


def e1_array(x) -> np.ndarray:
    """E1(x) = Gamma(0, x) elementwise for x >= 0 (inf at 0, 0 at inf)."""
    return _sp.exp1(np.asarray(x, dtype=float))


def ein_array(z) -> np.ndarray:
    """Ein(z) = int_0^z (1 - e^(-t)) / t dt elementwise for 0 <= z < 1, the
    entire part of E1(z) = -gamma_E - log z + Ein(z), summed as its power
    series sum_{p>=1} (-1)^(p+1) z^p / (p p!), whose terms fall at least
    fourfold from one to the next, so it keeps relative accuracy down to
    the underflow limit."""
    z = np.asarray(z, dtype=float)
    return z * (np.vander(-z.ravel(), _EIN_COEFFS.size, increasing=True)
                @ _EIN_COEFFS).reshape(z.shape)


def gamma_lower2_array(x) -> np.ndarray:
    """gamma(2, x) = 1 - (1 + x) e^(-x) elementwise for x >= 0, without the
    cancellation of that form near 0 (Gamma(2) = 1, so the regularized
    function is the plain one)."""
    return _sp.gammainc(2.0, np.asarray(x, dtype=float))


def gamma_upper2_array(x) -> np.ndarray:
    """Gamma(2, x) = (1 + x) e^(-x) elementwise for x >= 0 (0 at inf)."""
    # Clamping keeps inf out of (1 + x) * 0; e^(-800) is already 0.
    x = np.minimum(np.asarray(x, dtype=float), 800.0)
    return (1.0 + x) * np.exp(-x)


def d_series1_array(z) -> np.ndarray:
    """d_series(1, z) elementwise for finite z >= 0.

    Below z = 1 the power series runs as a fixed-length sum of 21 terms, which
    keeps relative accuracy down to z^2 near the underflow limit; the powers
    of -z come from repeated multiplication (np.vander), not from a float
    power of a negative base.  From
    z = 1 on it uses the closed form

        d_series(1, z) = log z + gamma_E - 1 + E1(z) + e^(-z),

    which follows from d_series(1, z) = int_0^z t e^(-t) log(z / t) dt and
    has no cancellation worse than a factor of about 13 at z = 1.  Unlike
    the scalar series it stays accurate for large z.
    """
    z = np.asarray(z, dtype=float)
    small = z < 1.0
    zs = np.where(small, z, 0.0)
    out = zs * zs * (np.vander(-zs.ravel(), _D1_COEFFS.size, increasing=True)
                     @ _D1_COEFFS).reshape(zs.shape)
    if not small.all():
        zl = np.where(small, 1.0, z)
        large = np.log(zl) + (EULER_GAMMA - 1.0) + _sp.exp1(zl) + np.exp(-zl)
        out = np.where(small, out, large)
    return out
