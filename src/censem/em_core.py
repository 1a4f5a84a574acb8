"""Censored EM for exponential/Weibull mixtures.

The E-step computes posterior component responsibilities for exact
observations and for censoring intervals.  The M-step has two variants:

* self-consistent MLE (default): the scale update is closed-form once
  the shape ratio inside the censored terms is pinned to its previous
  value, and the shape update is one safeguarded Newton step on the
  score equation in beta, with the scale/shape ratios inside the
  censored terms likewise set to 1 (Lange's EM gradient algorithm,
  J. R. Statist. Soc. B 57 (1995) 425-437: the next E-step moves the
  score anyway, so it is not solved to a root).  Fast, and its
  fixed points are exact stationary points of the censored
  log-likelihood: at a fixed point the pinned ratios equal 1
  identically, and the Newton step is zero only where the score is.
* direct objective: one exact ECM step per component on the exact
  conditional-expectation objective (closed-form scales, one profiled
  shape search per Weibull).  Slower, but a genuine generalized-EM step,
  so the log-likelihood trace is non-decreasing; used as a cross-check.

Censored-term bookkeeping uses the unit-exponential transform
u = (y/alpha)^beta, under which an interval [lo, hi) maps to
[zeta_lo, zeta_hi) and every censored expectation becomes an
incomplete-gamma expression.

There is one EM loop, `fit_batch`; `fit` is a batch of one.  The
samples are collapsed to unique values and padded into shared arrays,
every iteration is one array E-step and weight update plus the M-step
(for mle one array scale update and one array shape step), and a
member leaves the arrays when it converges, reaches max_iter or fails.
The mle M-step computes nothing the pass already holds: it takes the
weight update's sums of count * z, and the E-step's (x/alpha)^beta,
log(x/alpha) and interval transforms, so it exponentiates no value; the
shape score at the previous shape comes from four weighted sums over
them, and is evaluated afresh only where a step leaves BETA_BRACKET.
An M-step tests its results at once; only when that test fails does it
mark each (component, member) with the first check it fails, and a
failed member stops with the exception of its lowest failing component
at that check.
The public uncompressed operations (e_step, update_weights, the m_step_*
functions, q_objective) are the readable reference: an EM loop built
from them stops at the same iteration, with the same flags and named
error, and its numbers differ from fit_batch's only by rounding.  Both
take the shape step by the one rule, _shape_step, but they form the
censored shape constant apart: the reference as E[log U] minus the
s = 2 bracket, whose kernels are checked against quadrature and a
decimal series, fit_batch in closed form (_tlog_diff_array), so the two
loops cross-check the score.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.special import digamma

from .components import (
    CensoringInterval,
    ComponentSpec,
    Kind,
    MixtureModel,
    WEIGHT_SUM_TOL,
    _log_mixture_interval,
    _log_mixture_matrix,
    dof,
)
from .errors import (
    BracketError,
    CensemError,
    DegenerateComponentError,
    DomainError,
    NonConvergenceError,
    ResponsibilityUnderflowError,
)
from .rootfind import golden_max
# Unused here, but kept importable: the benchmark's tracer wraps the name
# em_core.solve_bracketed, and fails where it is missing.
from .rootfind import solve_bracketed  # noqa: F401
from .sample_data import CensoredSample
from .special_fn import (
    EULER_GAMMA,
    d_series,
    d_series1_array,
    e1_array,
    ein_array,
    gamma_complete,
    gamma_lower,
    gamma_lower2_array,
    gamma_upper,
    gamma_upper2_array,
)

log = logging.getLogger(__name__)

# A component whose weight falls below WEIGHT_FLOOR flags the fit degenerate
# (the fit goes on), and a scale update whose mass is at most WEIGHT_FLOOR
# times the sample size fails.  Every Weibull shape step stays in BETA_BRACKET.
WEIGHT_FLOOR = 1e-8
BETA_BRACKET = (0.05, 20.0)


class MStepVariant(str, Enum):
    SELF_CONSISTENT_MLE = "mle"
    DIRECT_OBJECTIVE = "direct"


@dataclass(frozen=True)
class EmConfig:
    epsilon: float = 1e-5
    max_iter: int = 500
    m_step_variant: MStepVariant = MStepVariant.SELF_CONSISTENT_MLE

    def __post_init__(self):
        if not (self.epsilon > 0.0):
            raise DomainError("epsilon must be positive")
        if self.max_iter < 1:
            raise DomainError("max_iter must be >= 1")


@dataclass
class Responsibilities:
    """Posterior membership probabilities: z for exact observations
    (n x M), z_tilde for censoring intervals (L x M).  Rows sum to 1."""

    z: np.ndarray
    z_tilde: np.ndarray


class _Expanding(Responsibilities):
    """Responsibilities kept on a sample's sorted unique exact values (the
    rows z_unique, nu x M) and expanded to every observation on the first
    read of z."""

    def __init__(self, z_unique: np.ndarray, z_tilde: np.ndarray, observations: np.ndarray):
        self.z_unique = z_unique
        self.z_tilde = z_tilde
        self.observations = observations

    @cached_property
    def z(self) -> np.ndarray:
        # each observation's row among the sorted unique values; on 1e5
        # observations this is faster than np.searchsorted on the row
        return self.z_unique[np.unique(self.observations, return_inverse=True)[1]]


@dataclass
class FitResult:
    """Outcome of one EM run.

    final_responsibilities belong to `model` and come from the fit
    loop's last E-step pass; they are None when an exact observation's
    mixture density underflows under `model`.  The fit keeps z on the
    sample's unique exact values and expands it to every observation on
    the first read of `final_responsibilities.z`.
    """

    model: MixtureModel
    loglik_trace: np.ndarray
    iterations: int
    converged: bool
    final_responsibilities: Responsibilities | None = None
    degenerate: bool = False
    warnings: list[str] = field(default_factory=list)
    error: str | None = None

    @property
    def loglik(self) -> float:
        return float(self.loglik_trace[-1])


# ---------------------------------------------------------------------------
# scalar censored-term kernels
#
# These run the M-step math on (values, weights) pairs, one censoring
# interval at a time.  They serve the uncompressed public operations and
# the direct M-step, which fit_batch runs on each member's own collapsed
# values; the batched mle M-step has array twins at the end of the module.
# ---------------------------------------------------------------------------


def _zeta(bound: float, alpha: float, beta: float) -> float:
    """(bound/alpha)^beta with the 0 and +inf edges handled exactly."""
    if bound == 0.0:
        return 0.0
    if math.isinf(bound):
        return math.inf
    return math.exp(beta * (math.log(bound) - math.log(alpha)))


def _gamma_upper_diff(s: float, z_lo: float, z_hi: float) -> float:
    """Gamma(s, z_lo) - Gamma(s, z_hi) without catastrophic cancellation.

    Equal to gamma_lower(s, z_hi) - gamma_lower(s, z_lo); the lower
    form is used whenever both arguments sit below s + 1, where the
    lower values are the small ones, so tiny intervals near 0 keep
    relative accuracy.
    """
    if z_hi < s + 1.0:
        lo_part = 0.0 if z_lo == 0.0 else gamma_lower(s, z_lo)
        return gamma_lower(s, z_hi) - lo_part
    hi_part = 0.0 if math.isinf(z_hi) else gamma_upper(s, z_hi)
    return gamma_upper(s, z_lo) - hi_part


def _elog_numerator(z_lo: float, z_hi: float) -> float:
    """Numerator of E[log U | U in [z_lo, z_hi)] for unit-exponential U,
    int_{z_lo}^{z_hi} e^(-t) log t dt: _elog_numerator_array's value."""
    return float(_elog_numerator_array(np.array(z_lo), np.array(z_hi)))


def _shape_series_bracket(s: float, z_lo: float, z_hi: float) -> float:
    """The order-derivative bracket appearing in the censored shape score,

        int_{z_lo}^{z_hi} t^(s-1) e^(-t) log t dt = F(z_hi) - F(z_lo),

    which equals d/ds [Gamma(s, z_lo) - Gamma(s, z_hi)] up to sign
    bookkeeping handled by the caller.  By parts, the integral from 0 is
    F(z) = gamma(s, z) log z - d_series(s - 1, z), with F(0) = 0 and
    F(inf) = Gamma(s) psi(s).  For s = 2 the value is
    _shape_bracket2_array's, which stays accurate at any z; for other s,
    z_hi = inf raises DomainError above z_lo = 5, where d_series loses
    its digits.
    """
    if s == 2.0:
        return float(_shape_bracket2_array(np.array([[z_lo]]), np.array([[z_hi]]),
                                           np.ones((1, 1), dtype=bool))[0, 0])

    def head(z: float) -> float:
        return 0.0 if z == 0.0 else gamma_lower(s, z) * math.log(z) - d_series(s - 1.0, z)

    if math.isinf(z_hi):
        if z_lo > 5.0:
            # beyond here d_series(s - 1, z_lo) misses quadrature by more than 1e-11
            raise DomainError(f"open-tail shape bracket needs z_lo <= 5, got {z_lo}")
        return gamma_complete(s) * float(digamma(s)) - head(z_lo)
    return head(z_hi) - head(z_lo)


@dataclass
class _IntervalTerms:
    """Per-interval censored-term constants for one component at the
    previous parameter values."""

    z_lo: float
    z_hi: float
    mass: float          # e^(-z_lo) - e^(-z_hi)
    elog_num: float      # numerator of E[log U | interval]


def _interval_terms(iv: CensoringInterval, alpha: float, beta: float) -> _IntervalTerms:
    z_lo = _zeta(iv.lo, alpha, beta)
    z_hi = _zeta(iv.hi, alpha, beta)
    mass = math.exp(-z_lo) * (-math.expm1(z_lo - z_hi))  # accurate for narrow, tiny intervals
    return _IntervalTerms(z_lo, z_hi, mass, _elog_numerator(z_lo, z_hi))


def truncated_mean_exp(alpha_prev: float, iv: CensoringInterval) -> float:
    """Conditional mean of Exp(alpha_prev) on [lo, hi):

        alpha + (lo e^(-lo/a) - hi e^(-hi/a)) / (e^(-lo/a) - e^(-hi/a)).

    Tiny intervals degrade gracefully to the midpoint (the exact limit)
    instead of dividing 0 by 0.
    """
    if not (alpha_prev > 0.0):
        raise DomainError("alpha_prev must be positive")
    a, b = iv.lo, iv.hi
    if math.isinf(b):
        return a + alpha_prev
    width = (b - a) / alpha_prev
    em = -math.expm1(-width)
    if em == 0.0:
        return 0.5 * (a + b)
    return alpha_prev + ((a - b) - b * math.expm1(-width)) / em


def _exp_scale_update(
    x: np.ndarray,
    w: np.ndarray,
    cens_w: np.ndarray,
    cens_mean: np.ndarray,
    floor: float,
) -> float:
    num = float(w @ x) + float(cens_w @ cens_mean)
    den = float(w.sum()) + float(cens_w.sum())
    if den <= floor or not math.isfinite(num) or num <= 0.0:
        raise DegenerateComponentError(
            f"exponential scale update lost its mass (den={den})"
        )
    return num / den


def _wbl_scale_update(
    x: np.ndarray,
    w: np.ndarray,
    cens_w: np.ndarray,
    terms: list[_IntervalTerms],
    alpha_prev: float,
    beta_prev: float,
    floor: float,
) -> float:
    """Closed-form scale update with the shape pinned to beta_prev.

    alpha^beta = [sum w x^beta + sum cens_w alpha_prev^beta G_l] / [sum w + sum cens_w]
    with G_l = (Gamma(2, z_lo) - Gamma(2, z_hi)) / (e^(-z_lo) - e^(-z_hi)).
    """
    if x.size:
        num = float(w @ np.exp(beta_prev * np.log(x)))
    else:
        num = 0.0
    den = float(w.sum()) + float(cens_w.sum())
    ab = math.exp(beta_prev * math.log(alpha_prev))
    for cw, t in zip(cens_w, terms):
        if cw <= 0.0 or t.mass <= 0.0:
            continue
        g = _gamma_upper_diff(2.0, t.z_lo, t.z_hi) / t.mass
        num += cw * ab * g
    if den <= floor or not math.isfinite(num) or num <= 0.0:
        raise DegenerateComponentError(f"Weibull scale update lost its mass (den={den})")
    return math.exp(math.log(num / den) / beta_prev)


def _shape_d_constant(terms: _IntervalTerms, beta_prev: float) -> float:
    """Censored shape-score constant with both parameter ratios set to 1:

        D = (elog_num - bracket(s=2)) / beta_prev
    """
    return (terms.elog_num - _shape_series_bracket(2.0, terms.z_lo, terms.z_hi)) / beta_prev


def _wbl_shape_equation(
    x: np.ndarray,
    w: np.ndarray,
    cens_w: np.ndarray,
    terms: list[_IntervalTerms],
    alpha_new: float,
    beta_prev: float,
):
    """Score equation in beta after the scale update, as the one-row
    _shape_score:

    F(beta) = A / beta + B - sum_j w_j l_j e^(beta l_j),  l_j = log(x_j / alpha_new)

    with A the total effective mass and B collecting log terms plus the
    censored D constants.
    """
    if x.size:
        l = np.log(x) - math.log(alpha_new)
    else:
        l = np.empty(0)
    wl = w * l
    a_mass = float(w.sum())
    b_const = float(wl.sum())
    for cw, t in zip(cens_w, terms):
        if cw <= 0.0 or t.mass <= 0.0:
            continue
        a_mass += float(cw)
        b_const += float(cw) * _shape_d_constant(t, beta_prev) / t.mass
    return _shape_score(l[None], wl[None], np.array([a_mass]), np.array([b_const]))


def _shape_score(l_rel: np.ndarray, wl: np.ndarray, a_mass: np.ndarray, b_const: np.ndarray):
    """Row k's shape score f(beta) = a_mass[k] / beta + b_const[k]
    - sum_u wl[k, u] e^(beta l_rel[k, u]), as score(beta, rows) -> (f, f')
    on the rows that `rows` picks (all by default).  With a_mass > 0 and
    wl * l_rel >= 0 its slope -a_mass / beta^2 - sum_u wl l_rel e^(beta l_rel),
    which reuses the score's exponentials, is negative, so f is strictly
    decreasing.
    """
    def score(beta: np.ndarray, rows=...):
        lr = l_rel[rows]
        terms = np.exp(beta[:, None] * lr)
        terms *= wl[rows]
        am = a_mass[rows]
        value = am / beta + b_const[rows] - terms.sum(axis=1)
        slope = -am / (beta * beta) - np.multiply(terms, lr, out=terms).sum(axis=1)
        return value, slope

    return score


def _shape_step(score, beta: np.ndarray, first=None):
    """One safeguarded Newton step per row from its previous shape beta:
    beta - f / f' with (f, f') = score(beta), or `first` where the caller
    has evaluated it already, capped to [beta / 2, 2 beta].  A NaN step
    from a score that is not NaN (f and f' both overflowed) goes to the
    cap end that the sign of f points to.  Where the step leaves
    BETA_BRACKET, the scores at both ends decide: with a sign change the
    step is clamped into the bracket, without one, or with a NaN score,
    the row fails.

    Returns (beta_new, ok, f(lo), f(hi)); a failed row's beta_new is NaN,
    and the end values are NaN on the rows whose step stayed inside.
    The score runs with numpy's divide, invalid and overflow warnings off.
    """
    lo, hi = BETA_BRACKET
    f_lo = np.full(beta.shape, math.nan)
    f_hi = f_lo.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f, df = score(beta) if first is None else first
        half, twice = 0.5 * beta, 2.0 * beta
        x = np.minimum(np.maximum(beta - f / df, half), twice)  # a NaN stays NaN
        inside = (lo <= x) & (x <= hi)
        if inside.all():
            return x, inside, f_lo, f_hi
        x = np.where(np.isnan(x) & ~np.isnan(f), np.where(f > 0.0, twice, half), x)
        out = ~((lo <= x) & (x <= hi))
        if not out.any():
            return x, ~out, f_lo, f_hi
        rows = np.flatnonzero(out)
        f_lo[rows] = score(np.full(rows.size, lo), rows)[0]
        f_hi[rows] = score(np.full(rows.size, hi), rows)[0]
    ok = ~out | ((f_lo >= 0.0) & (f_hi <= 0.0) & ~np.isnan(x))
    return np.where(ok, np.clip(x, lo, hi), math.nan), ok, f_lo, f_hi


def _bracket_error(f_lo: float, f_hi: float) -> BracketError:
    lo, hi = BETA_BRACKET
    return BracketError(
        f"shape root not bracketed in [{lo}, {hi}]: f(lo)={f_lo}, f(hi)={f_hi}",
        lo=lo, hi=hi, f_lo=f_lo, f_hi=f_hi,
    )


# ---------------------------------------------------------------------------
# conditional-expectation objective (exact censored terms, full ratios)
# ---------------------------------------------------------------------------


def _q_block_exp(
    alpha: float,
    x: np.ndarray,
    w: np.ndarray,
    cens_w: np.ndarray,
    cens_mean: np.ndarray,
) -> float:
    la = math.log(alpha)
    total = float(w @ (-la - x / alpha)) if x.size else 0.0
    for cw, c in zip(cens_w, cens_mean):
        if cw > 0.0:
            total += cw * (-la - c / alpha)
    return total


def censored_weibull_expected_logpdf(
    prev: ComponentSpec,
    alpha: float,
    beta: float,
    terms: _IntervalTerms,
) -> float:
    """E[log f(Y | alpha, beta)] for Y conditioned on one censoring
    interval under the previous parameters.

    In the unit-exponential variable the expectation is

        log(beta/alpha) + (beta - 1) log(alpha_prev/alpha)
        + (beta - 1)/beta_prev * E[log U]
        - (alpha_prev/alpha)^beta * (Gamma(q+1, z_lo) - Gamma(q+1, z_hi)) / mass

    with q = beta / beta_prev.
    """
    if terms.mass <= 0.0:
        raise DegenerateComponentError("censoring interval has zero mass")
    q = beta / prev.beta
    log_ratio = math.log(prev.alpha) - math.log(alpha)
    ratio_pow = math.exp(beta * log_ratio)
    gdiff = _gamma_upper_diff(q + 1.0, terms.z_lo, terms.z_hi)
    return (
        math.log(beta) - math.log(alpha)
        + (beta - 1.0) * log_ratio
        + (beta - 1.0) / prev.beta * (terms.elog_num / terms.mass)
        - ratio_pow * gdiff / terms.mass
    )


def censored_weibull_shape_term(
    prev: ComponentSpec,
    alpha: float,
    beta: float,
    terms: _IntervalTerms,
) -> float:
    """The censored shape-score quantity D such that

        d/dbeta E[log f(Y | alpha, beta)] = 1/beta + log(alpha_prev/alpha) + D / mass.

    Full-ratio form; the self-consistent update uses its ratios-to-1
    reduction (_shape_d_constant).
    """
    q = beta / prev.beta
    s = q + 1.0
    log_ratio = math.log(prev.alpha) - math.log(alpha)
    ratio_pow = math.exp(beta * log_ratio)
    bracket = _shape_series_bracket(s, terms.z_lo, terms.z_hi)
    gdiff = _gamma_upper_diff(s, terms.z_lo, terms.z_hi)
    return (
        terms.elog_num / prev.beta
        - ratio_pow * bracket / prev.beta
        - log_ratio * ratio_pow * gdiff
    )


def _q_block_wbl(
    alpha: float,
    beta: float,
    x: np.ndarray,
    w: np.ndarray,
    cens_w: np.ndarray,
    terms: list[_IntervalTerms],
    prev: ComponentSpec,
    log_x: np.ndarray | None = None,
) -> float:
    total = 0.0
    if x.size:
        rel = (np.log(x) if log_x is None else log_x) - math.log(alpha)
        with np.errstate(over="ignore"):
            total += float(
                w @ (math.log(beta) - math.log(alpha) + (beta - 1.0) * rel - np.exp(beta * rel))
            )
    for cw, t in zip(cens_w, terms):
        if cw > 0.0 and t.mass > 0.0:
            total += cw * censored_weibull_expected_logpdf(prev, alpha, beta, t)
    return total


# ---------------------------------------------------------------------------
# public operations (uncompressed, per the module contract)
# ---------------------------------------------------------------------------


def e_step(m: MixtureModel, s: CensoredSample) -> Responsibilities:
    """Posterior responsibilities under the current model.

    z_ij = w_i f_i(x_j) / sum_i w_i f_i(x_j); z_tilde uses interval
    masses instead of densities.  Computed in log space with row-max
    subtraction.  An exact observation whose mixture density underflows
    entirely raises (with its index); an interval whose mass underflows
    for every component gets a uniform row and a warning.
    """
    x = np.asarray(s.uncensored, dtype=float)
    _, z, bad = _row_pass(_log_mixture_matrix(m, x))
    if bad is not None:
        raise ResponsibilityUnderflowError(
            f"mixture density underflows at observation index {bad}", index=bad
        )
    zt, log_mass = _interval_pass(m, s.intervals)
    for iv, lp in zip(s.intervals, log_mass):
        if lp == -math.inf:
            _warn_underflow(iv)
    return Responsibilities(z=z, z_tilde=zt)


def _row_pass(
    logw: np.ndarray,
) -> tuple[np.ndarray | None, np.ndarray | None, int | None]:
    """Row log-sum-exp and responsibilities from one exp(logw - row max).

    Returns (log mixture density per row, z, None), or (None, None, j)
    when row j is the first whose mixture density underflows entirely.
    """
    if logw.shape[0] == 0:
        return np.empty(0), np.empty(logw.shape), None
    mx = logw.max(axis=1, keepdims=True)
    dead = ~np.isfinite(mx[:, 0])
    if np.any(dead):
        return None, None, int(np.argmax(dead))
    p = np.exp(logw - mx)
    rowsum = p.sum(axis=1, keepdims=True)
    return mx[:, 0] + np.log(rowsum[:, 0]), p / rowsum, None


def _interval_pass(
    m: MixtureModel, intervals: Sequence[CensoringInterval]
) -> tuple[np.ndarray, list[float]]:
    """z_tilde rows and log mixture masses, one _log_mixture_interval per
    interval.  An interval whose mass underflows for every component gets
    a uniform row and log mass -inf; the caller warns about it."""
    rows = []
    log_mass = []
    for iv in intervals:
        lw = _log_mixture_interval(m, iv)
        mx = lw.max()
        if not math.isfinite(mx):
            rows.append(np.full(m.m, 1.0 / m.m))
            log_mass.append(-math.inf)
            continue
        p = np.exp(lw - mx)
        psum = p.sum()
        rows.append(p / psum)
        log_mass.append(float(mx + np.log(psum)))
    zt = np.array(rows) if rows else np.empty((0, m.m))
    return zt, log_mass


_UNDERFLOW_MSG = (
    "interval [%s, %s) mass underflows for every component; using a uniform responsibility row"
)


def _warn_underflow(iv: CensoringInterval, warnings: list[str] | None = None) -> None:
    """Log the uniform-row fallback for `iv`; also record it on a fit's
    warnings when given them."""
    log.warning(_UNDERFLOW_MSG, iv.lo, iv.hi)
    if warnings is not None:
        warnings.append(_UNDERFLOW_MSG % (iv.lo, iv.hi))


def update_weights(r: Responsibilities, s: CensoredSample) -> np.ndarray:
    """New weights: (sum_j z_ij + sum_l N_l z_tilde_il) / N."""
    total = s.total
    if total < 1:
        raise DomainError("cannot update weights on an empty sample")
    counts = np.array([iv.count for iv in s.intervals], dtype=float)
    acc = r.z.sum(axis=0) if r.z.size else np.zeros(r.z.shape[1])
    if counts.size:
        acc = acc + counts @ r.z_tilde
    w = acc / total
    return w / w.sum()


def _weighted(r: Responsibilities, s: CensoredSample, i: int):
    """Component i's exact values x, their weights z and the intervals' count * z_tilde."""
    w = r.z[:, i] if r.z.size else np.empty(0)
    counts = np.array([iv.count for iv in s.intervals], dtype=float)
    return np.asarray(s.uncensored, dtype=float), w, (
        counts * r.z_tilde[:, i] if counts.size else np.empty(0))


def m_step_exponential(
    r: Responsibilities,
    s: CensoredSample,
    comp_index: int,
    alpha_prev: float,
) -> float:
    """Closed-form exponential scale update (responsibility-weighted mean,
    censored atoms contributing their conditional means)."""
    x, w, cens_w = _weighted(r, s, comp_index)
    means = np.array([truncated_mean_exp(alpha_prev, iv) for iv in s.intervals])
    return _exp_scale_update(x, w, cens_w, means, WEIGHT_FLOOR * s.total)


def m_step_weibull_alpha(
    r: Responsibilities,
    s: CensoredSample,
    comp_index: int,
    theta_prev: ComponentSpec,
) -> float:
    """Closed-form Weibull scale update with the shape held at its
    previous value."""
    x, w, cens_w = _weighted(r, s, comp_index)
    terms = [_interval_terms(iv, theta_prev.alpha, theta_prev.beta) for iv in s.intervals]
    return _wbl_scale_update(
        x, w, cens_w, terms, theta_prev.alpha, theta_prev.beta, WEIGHT_FLOOR * s.total
    )


def m_step_weibull_beta(
    r: Responsibilities,
    s: CensoredSample,
    comp_index: int,
    theta_prev: ComponentSpec,
    alpha_new: float,
) -> float:
    """Shape update: one safeguarded Newton step (_shape_step) from
    theta_prev.beta on the score equation with the censored-term
    parameter ratios set to 1."""
    x, w, cens_w = _weighted(r, s, comp_index)
    terms = [_interval_terms(iv, theta_prev.alpha, theta_prev.beta) for iv in s.intervals]
    score = _wbl_shape_equation(x, w, cens_w, terms, alpha_new, theta_prev.beta)
    beta, ok, f_lo, f_hi = _shape_step(score, np.array([theta_prev.beta]))
    if not ok[0]:
        raise _bracket_error(float(f_lo[0]), float(f_hi[0]))
    return float(beta[0])


def q_objective(
    theta_candidate: Sequence[ComponentSpec],
    r: Responsibilities,
    s: CensoredSample,
    theta_prev: Sequence[ComponentSpec],
) -> float:
    """The conditional-expectation objective the M-step maximizes
    (weight-entropy part excluded): responsibility-weighted exact
    log-densities plus censored conditional expectations of the
    log-density under the previous parameters."""
    if len(theta_candidate) != len(theta_prev):
        raise DomainError("candidate/previous component lists differ in length")
    total = 0.0
    for i, (cand, prev) in enumerate(zip(theta_candidate, theta_prev)):
        if cand.kind != prev.kind:
            raise DomainError(f"component {i}: candidate kind differs from previous kind")
        x, w, cens_w = _weighted(r, s, i)
        if cand.kind == Kind.EXPONENTIAL:
            means = np.array([truncated_mean_exp(prev.alpha, iv) for iv in s.intervals])
            total += _q_block_exp(cand.alpha, x, w, cens_w, means)
        else:
            terms = [_interval_terms(iv, prev.alpha, prev.beta) for iv in s.intervals]
            total += _q_block_wbl(cand.alpha, cand.beta, x, w, cens_w, terms, prev)
    return total


def m_step_direct(
    r: Responsibilities,
    s: CensoredSample,
    theta_prev: Sequence[ComponentSpec],
) -> list[ComponentSpec]:
    """Per-component maximization of the exact objective by one exact ECM
    step (Meng & Rubin, Biometrika 80 (1993) 267-278): a closed-form scale,
    profiled out for a Weibull, whose shape comes from one golden-section
    search over log beta on BETA_BRACKET cut to [beta/4, 4 beta].  A
    component with no mass, or whose new values would lower its block,
    keeps its previous ones, so the step is a genuine generalized-EM move.
    """
    return [_direct_component(*_weighted(r, s, i), s.intervals, prev)
            for i, prev in enumerate(theta_prev)]


_DIRECT_XTOL = 1e-8  # golden_max's xtol on log beta in the direct M-step


def _direct_component(
    x: np.ndarray,
    w: np.ndarray,
    cens_w: np.ndarray,
    intervals: Sequence[CensoringInterval],
    prev: ComponentSpec,
    log_x: np.ndarray | None = None,
) -> ComponentSpec:
    """One component's ECM step; see m_step_direct.

    At a Weibull shape beta, with q = beta / beta_prev, the best scale is
    alpha^beta = S(beta) / den: S(beta) = sum w x^beta + sum cw
    alpha_prev^beta (Gamma(q+1, z_lo) - Gamma(q+1, z_hi)) / mass and
    den = sum w + sum cw, over the occupied intervals.  The profiled block,

        Q(beta) = den (log beta - log S(beta) + log den - 1) + (beta - 1) C,
        C = sum w log x + sum cw (log alpha_prev + elog_num / (mass beta_prev)),

    takes one exponential pass over the values, scaled by the largest
    x^beta or alpha_prev^beta so that none can overflow.
    """
    if prev.kind == Kind.EXPONENTIAL:
        means = np.array([truncated_mean_exp(prev.alpha, iv) for iv in intervals])
        if not math.isfinite(_q_block_exp(prev.alpha, x, w, cens_w, means)):
            raise DegenerateComponentError("objective not finite at the previous parameters")
        try:
            return ComponentSpec.exponential(_exp_scale_update(x, w, cens_w, means, 0.0))
        except (DegenerateComponentError, DomainError):  # no mass, or an infinite scale
            return prev

    terms = [_interval_terms(iv, prev.alpha, prev.beta) for iv in intervals]
    log_x = np.log(x) if log_x is None else log_x

    def block(alpha: float, beta: float) -> float:
        try:
            return _q_block_wbl(alpha, beta, x, w, cens_w, terms, prev, log_x=log_x)
        except (NonConvergenceError, DegenerateComponentError, OverflowError):
            return -math.inf

    q_prev = block(prev.alpha, prev.beta)
    if not math.isfinite(q_prev):
        raise DegenerateComponentError("objective not finite at the previous parameters")
    occupied = [(float(cw), t) for cw, t in zip(cens_w, terms) if cw > 0.0 and t.mass > 0.0]
    den = float(w.sum()) + sum(cw for cw, _ in occupied)
    if not den > 0.0:
        return prev
    w_pos, lx_pos = w[w > 0.0], log_x[w > 0.0]
    la_prev = math.log(prev.alpha)
    top = float(np.max(lx_pos, initial=la_prev))
    shifted = lx_pos - top
    c_const = float(w_pos @ lx_pos) + sum(
        cw * (la_prev + t.elog_num / (t.mass * prev.beta)) for cw, t in occupied)

    def log_s(beta: float) -> float:
        s = float(w_pos @ np.exp(beta * shifted)) + math.exp(beta * (la_prev - top)) * sum(
            cw * _gamma_upper_diff(beta / prev.beta + 1.0, t.z_lo, t.z_hi) / t.mass
            for cw, t in occupied)
        return beta * top + math.log(s) if s > 0.0 else math.inf

    def profile(u: float) -> float:  # -inf where S(beta) is 0 or not finite
        return den * (u - log_s(math.exp(u)) + math.log(den) - 1.0) + (math.exp(u) - 1.0) * c_const

    u, _ = golden_max(profile, math.log(max(BETA_BRACKET[0], prev.beta / 4.0)),
                      math.log(min(BETA_BRACKET[1], 4.0 * prev.beta)), xtol=_DIRECT_XTOL)
    beta = math.exp(u)
    log_alpha = (log_s(beta) - math.log(den)) / beta
    if log_alpha < 709.0 and block(math.exp(log_alpha), beta) >= q_prev:
        return ComponentSpec.weibull(math.exp(log_alpha), beta)
    return prev


# ---------------------------------------------------------------------------
# the fit loop
# ---------------------------------------------------------------------------


def default_init(s: CensoredSample, p: int, r: int) -> MixtureModel:
    """Starting model: uniform weights, beta = 1, scales from the data.

    With one exponential its scale starts at the mean of the smallest
    decile of exact observations (the fast component lives there); a
    lone Weibull starts at the overall mean.  Multiple components of a
    family spread over quantile-block means so no two start identical.
    """
    x = np.sort(np.asarray(s.uncensored, dtype=float))
    if x.size == 0:
        base = max((iv.hi for iv in s.intervals if math.isfinite(iv.hi)), default=1.0)
        x = np.array([base])

    def block_means(k: int) -> list[float]:
        blocks = np.array_split(x, k)
        return [float(b.mean()) if b.size else float(x.mean()) for b in blocks]

    if p == 1:
        decile = x[: max(1, x.size // 10)]
        exp_alphas = [float(decile.mean())]
    else:
        exp_alphas = block_means(p) if p else []
    wbl_alphas = [float(x.mean())] if r == 1 else (block_means(r) if r else [])
    comps = [ComponentSpec.exponential(a) for a in exp_alphas]
    comps += [ComponentSpec.weibull(a, 1.0) for a in wbl_alphas]
    return MixtureModel(np.full(p + r, 1.0 / (p + r)), comps)


def fit(
    s: CensoredSample,
    model_shape: tuple[int, int],
    config: EmConfig | None = None,
) -> FitResult:
    """Run the censored EM loop for a p-exponential + r-Weibull mixture.

    Iterates E-step, weight update and per-component M-steps until the
    absolute log-likelihood change drops to config.epsilon or max_iter
    is hit (converged=False then, no exception).  Numerical degeneracies
    (component death, shape-bracket failures, responsibility underflow)
    are surfaced on the result with the last valid state rather than
    raised; a sample the fit cannot run raises DomainError.  This is
    fit_batch on a batch of one.
    """
    (res,) = fit_batch([s], model_shape, config)
    if isinstance(res, DomainError):
        raise res
    return res


# ---------------------------------------------------------------------------
# the batched fit loop
#
# fit_batch runs the EM for many samples at once on padded arrays: exact
# values as (B, U), intervals as (B, L) and the parameters, z and z_tilde
# with the component axis first, as (M, B), (M, B, U) and (M, B, L).  The
# padded rows are the only copy of each member's collapsed sample.  All
# members advance in lockstep, so they share one iteration counter; a
# member leaves the arrays when it stops.  The E-step is one array pass;
# the mle M-step is array arithmetic, the direct M-step runs
# _direct_component on each member's own slices of the rows.
# ---------------------------------------------------------------------------

# Most samples fitted in one batch: fit_batch runs its accepted members in
# chunks of at most BATCH_MEMBERS.  It bounds the batched EM's (M, B, U)
# working arrays: 512 members of about 170 unique values and 3 components
# make about 2 MB per array.
BATCH_MEMBERS = 512

# Failure stages inside one component's M-step, in the order the public
# m_step_* operations reach them, and _ST_OK, above them all, for none.  An
# M-step keeps the lowest failing stage of each (component, member), and a
# member fails with its lowest failing component's exception, the one an
# EM loop built from those operations raises first (_m_step_errors).
(_ST_ZETA, _ST_POW, _ST_MASS, _ST_ALPHA, _ST_BRACKET, _ST_SPEC, _ST_OK) = range(7)


class _Batch:
    """Working arrays of the members still iterating, and their last E-step
    pass (ll, z, zt, bad).  ids maps each row back to its member.  A
    member's sample is collapsed to its unique exact values with their
    multiplicities, in rows of (B, U) arrays, and to its intervals with
    their counts, in rows of (B, L) arrays; its own slices are the first
    nu values and the first nl intervals of its rows.

    Padding rows repeat the member's first exact value with count 0, and
    padding intervals are [0, inf) with count 0, so every padded entry is
    finite and drops out of each count-weighted sum; the exact-row
    underflow test masks padding values out, and a padding interval has
    mass 1 under every component.  A sum over the padded axis still
    rounds with the padded width; with own_sums the log-likelihood and
    weight sums run over each member's own slices instead, so a member's
    numbers do not depend on its batch mates.

    Besides z and zt, a pass keeps what the mle M-step would otherwise
    recompute: for the Weibull components rel = log(x / alpha) and
    pw = (x / alpha)^beta over the values, (r, B, U), and for every
    component each interval's transforms zlo, zhi and tail = 1 - e^(zlo - zhi),
    (M, B, L).  When every interval of the batch starts at 0, as the
    default censoring [0, 0.5) and the padding do, zlo is 0 throughout:
    from_zero is set, zlo is None, and the pass and the M-step leave its
    terms out.  weights_from_pass keeps cw, the (M, B, L) interval counts
    times z_tilde, wsum, the (M, B) sums of count * z, and den, those
    plus the interval sums.  cv = count * value is the exponential
    scale's constant row.  Each pass writes over the last pass's arrays,
    which are spent by then.
    """

    # What take moves, with each array's member axis.  The small arrays of
    # one width are stacked, so that one copy moves each group (_unpack
    # names the parts): ivs holds the rows lo, hi, loglo, loghi and ccnt,
    # zz the pass's z and zt side by side, rp its rel and pw, and zs its
    # zhi, tail and (but for intervals [0, hi)) zlo.  The (B, U) rows stay
    # apart: on wide members one copy of the four costs more than four.
    _MOVED = (("ids", 0), ("nu", 0), ("nl", 0), ("total", 0), ("ll", 0), ("bad", 0),
              ("vals", 0), ("logv", 0), ("cnt", 0), ("cv", 0), ("ivs", 1), ("w", 1),
              ("alpha", 1), ("beta", 1), ("zz", 1), ("rp", 2), ("zs", 2))

    def __init__(
        self, samples: list[CensoredSample], models: list[MixtureModel], p: int,
        own_sums: bool = False
    ):
        b = len(samples)
        uniques = [np.unique(s.uncensored, return_counts=True) for s in samples]
        self.p = p
        self.own_sums = own_sums
        self.ids = np.arange(b)
        self.nu = np.array([values.size for values, _ in uniques])
        self.nl = np.array([len(s.intervals) for s in samples])
        self.vals = np.ones((b, self.nu.max()))
        self.cnt = np.zeros(self.vals.shape)
        self.ivs = np.empty((5, b, self.nl.max()))
        self.zz = self.rp = self.zs = None  # before the first pass
        self._unpack()
        self.lo[:] = 0.0
        self.hi[:] = math.inf
        self.ccnt[:] = 0.0
        for j, ((values, counts), s) in enumerate(zip(uniques, samples)):
            if values.size:
                self.vals[j] = values[0]
                self.vals[j, : values.size] = values
                self.cnt[j, : values.size] = counts
            for l, iv in enumerate(s.intervals):
                self.lo[j, l], self.hi[j, l], self.ccnt[j, l] = iv.lo, iv.hi, iv.count
        self.logv = np.log(self.vals)
        self.cv = self.cnt * self.vals
        np.log(self.lo, out=self.loglo)
        np.log(self.hi, out=self.loghi)
        # every interval is [0, hi), the default censoring's [0, 0.5) and the
        # padding [0, inf) included: then the lower transform zlo is 0 for
        # every component, and the pass and the M-step skip its terms
        self.from_zero = not self.lo.any()
        self.total = np.array([s.total for s in samples], dtype=float)
        self.w = np.array([m.weights for m in models]).T
        self.alpha = np.array([[c.alpha for c in m.components] for m in models]).T
        self.beta = np.array([[c.beta for c in m.components] for m in models]).T

    def _unpack(self) -> None:
        """Name the parts of the stacked arrays."""
        self.lo, self.hi, self.loglo, self.loghi, self.ccnt = self.ivs
        if self.zz is None:  # before the first pass
            self.z = self.zt = self.rel = self.pw = self.zhi = self.tail = self.zlo = None
            return
        nu = self.vals.shape[1]
        self.z, self.zt = self.zz[:, :, :nu], self.zz[:, :, nu:]
        self.rel, self.pw = self.rp
        self.zhi, self.tail = self.zs[0], self.zs[1]
        self.zlo = None if self.from_zero else self.zs[2]

    def take(self, keep: np.ndarray) -> None:
        rows = np.flatnonzero(keep)
        for name, axis in self._MOVED:
            setattr(self, name, getattr(self, name).take(rows, axis=axis))
        self._unpack()

    def model(self, pos: int) -> MixtureModel:
        comps = [
            ComponentSpec.exponential(a) if i < self.p else ComponentSpec.weibull(a, bt)
            for i, (a, bt) in enumerate(zip(self.alpha[:, pos], self.beta[:, pos]))
        ]
        return MixtureModel(self.w[:, pos].copy(), comps)

    # -- E-step ---------------------------------------------------------------

    def e_pass(self) -> np.ndarray | None:
        """One E-step pass of every member's model over its collapsed
        sample: sets ll (B,), z (M, B, U), zt (M, B, L) and bad, the first
        underflowing exact row per member (-1 for none), and returns the
        underflowing intervals (B, L), or None where there are none.  The
        exact values' log densities and the intervals' log masses fill one
        log matrix, whose column max and exp(logmat - max) serve both the
        log-likelihood and z and zt.  The exponential components fill it
        as one block and the Weibull components as another."""
        m, p = self.w.shape[0], self.p
        nu = self.vals.shape[1]
        # the last pass is spent: this one writes over its arrays, which
        # saves the page faults that fresh arrays of their size cost
        if self.zz is None:
            b, nl = self.lo.shape
            self.zz = np.empty((m, b, nu + nl))
            self.rp = np.empty((2, m - p, b, nu))
            self.zs = np.empty((2 if self.from_zero else 3, m, b, nl))
            self._unpack()
        logmat = self.zz
        logw = np.log(self.w)[:, :, None]
        a = self.alpha[:, :, None]
        la = np.log(a)
        # each interval [lo, hi) mapped to [u, v) by the component's transform;
        # on intervals [0, hi) u is 0 and left out
        u, v = self.zlo, self.zhi
        if p:
            # exponential block: logw + (-la - x / alpha), built in place
            ex = logmat[:p, :, :nu]
            np.divide(self.vals, a[:p], out=ex)
            np.subtract(-la[:p], ex, out=ex)
            ex += logw[:p]
            if u is not None:
                np.divide(self.lo, a[:p], out=u[:p])
            np.divide(self.hi, a[:p], out=v[:p])
        if p < m:
            # Weibull block: logw + ((log(beta) - la) + (beta - 1) rel - exp(beta rel)),
            # built in place
            bt = self.beta[p:, :, None]
            wbl = logmat[p:, :, :nu]
            rel = np.subtract(self.logv, la[p:], out=self.rel)  # log(x / alpha)
            pw = np.exp(np.multiply(bt, rel, out=self.pw), out=self.pw)  # (x / alpha)^beta
            np.multiply(rel, bt - 1.0, out=wbl)
            wbl += np.log(bt) - la[p:]
            np.subtract(wbl, pw, out=wbl)
            wbl += logw[p:]
            if u is not None:
                np.exp(bt * (self.loglo - la[p:]), out=u[p:])
            np.exp(bt * (self.loghi - la[p:]), out=v[p:])
        # interval log masses -u + log(tail), tail = 1 - e^(u - v), in the
        # last columns
        np.negative(np.expm1(-v if u is None else u - v), out=self.tail)
        lw = np.log(self.tail, out=logmat[:, :, nu:])
        if u is not None:
            lw -= u
        lw += logw
        mx = logmat.max(axis=0)
        finite = np.isfinite(mx).all()
        self.bad = np.full(mx.shape[0], -1)
        idead = None
        if not finite:
            dead = ~np.isfinite(mx[:, :nu]) & (self.cnt > 0.0)
            if dead.any():
                self.bad = np.where(dead.any(axis=1), dead.argmax(axis=1), -1)
            idead = ~np.isfinite(mx[:, nu:])
            if not idead.any():
                idead = None
        pz = np.exp(np.subtract(logmat, mx, out=logmat), out=logmat)
        colsum = pz.sum(axis=0)
        np.divide(pz, colsum, out=pz)  # z and zt
        # each column's log mixture density or mass mx + log(colsum), in
        # place; then counts @ rows for each member, reduced as a dot product
        # is: a batch of one gives counts @ rows bit for bit, which the
        # multiply-and-sum form does not
        rows = np.add(mx, np.log(colsum, out=colsum), out=mx)
        if self.own_sums:
            ll = np.array([self.cnt[pos, :u] @ rows[pos, :u] for pos, u in enumerate(self.nu)])
        else:
            ll = np.matmul(self.cnt[:, None, :], rows[:, :nu, None])[:, 0, 0]
        log_mass = rows[:, nu:]
        if idead is not None:
            self.zt[:, idead] = 1.0 / m
            log_mass[idead] = -math.inf
        ll = _sum_l(np.where(self.ccnt > 0.0, self.ccnt * log_mass, 0.0), ll)
        self.ll = ll if finite else np.where(self.bad >= 0, -math.inf, ll)
        return idead

    def weights_from_pass(self) -> np.ndarray:
        if self.own_sums:
            acc = np.empty(self.w.shape)
            for pos, (u, nl) in enumerate(zip(self.nu, self.nl)):
                acc[:, pos] = (self.z[:, pos, :u] * self.cnt[pos, :u]).sum(axis=1) + (
                    self.zt[:, pos, :nl] * self.ccnt[pos, :nl]).sum(axis=1)
        else:
            # the M-step's interval weights, exact-value masses and total masses
            self.cw = self.ccnt * self.zt
            self.wsum = acc = np.einsum("mbu,bu->mb", self.z, self.cnt)
            if self.ccnt.shape[1]:
                acc = acc + self.cw.sum(axis=2)
            self.den = acc
        w = acc / self.total
        return w / w.sum(axis=0)

    # -- M-step ---------------------------------------------------------------

    def m_step(self):
        """The mle M-step: new (alphas, betas) from the last pass, and
        {row: exception} for the members that fail.  The exponential
        components update as one (p, B) block and the Weibull components
        as one (r, B) block, whose rows that get as far as their shape
        take one _shape_step together.

        One test over the results (the scales, the masses against the
        floor, alpha_prev^beta_prev, the shape scores and the interval
        transforms) tells whether any check can fail; only then do the
        checks run one by one.  Each lowers the stage of the (component,
        member) entries it fails to its own, in the order
        m_step_exponential, m_step_weibull_alpha, m_step_weibull_beta and
        the ComponentSpec check reach them, so each entry keeps its first
        failing stage; a failed member is named by its lowest failing
        component (_m_step_errors), and its new values mean nothing."""
        p, m = self.p, self.alpha.shape[0]
        floor = WEIGHT_FLOOR * self.total
        cw, w_sum, den = self.cw, self.wsum, self.den
        z_lo = self.zlo  # None on intervals [0, hi)
        alpha = np.empty(self.alpha.shape)
        beta = self.beta.copy()
        f_ends = None  # the shape scores at the bracket ends, where a step fails

        if p:
            # 1 - e^(-(hi - lo) / alpha), the E-pass's tail where lo is 0
            em = (self.tail[:p] if z_lo is None
                  else -np.expm1(-(self.hi - self.lo) / self.alpha[:p, :, None]))
            means = _truncated_mean_exp_array(self.alpha[:p, :, None], self.lo, self.hi, em)
            num_e = np.einsum("mbu,bu->mb", self.z[:p], self.cv) + _sum_l(cw[:p] * means)
            np.divide(num_e, den[:p], out=alpha[:p])
        # the values the one test takes; log(x) is finite exactly where 0 < x < inf
        checks = [np.log(den - floor)]
        if p < m:
            cw, w_sum, den_w = cw[p:], w_sum[p:], den[p:]
            a_prev, b_prev = self.alpha[p:], self.beta[p:]
            la, bt = np.log(a_prev)[:, :, None], b_prev[:, :, None]
            z_hi, mass = self.zhi[p:], self.tail[p:]
            if z_lo is not None:
                z_lo = z_lo[p:]
                mass = np.exp(-z_lo) * mass
                checks.append(z_lo)
            # z_hi is infinite on an open interval, and overflowed elsewhere
            # where _zeta's math.exp raises
            checks.append(np.where(np.isinf(self.hi), 0.0, z_hi))
            ab = np.exp(b_prev * la[:, :, 0])
            occupied = (cw > 0.0) & (mass > 0.0)
            # The sums over the values that the scale and the shape score take,
            # from the E-pass's rel = log(x / alpha) and pw = e^(beta rel):
            # s_0 = sum w pw, so that sum w x^beta = s_0 alpha^beta, and
            # s_r = sum w rel, s_1 = sum w pw rel, s_2 = sum w pw rel^2.
            rel = self.rel
            t = self.cnt * self.z[p:]
            s_r = np.einsum("mbu,mbu->mb", t, rel)
            t *= self.pw
            s_0 = t.sum(axis=2)
            s_1 = np.einsum("mbu,mbu->mb", t, rel)
            t *= rel
            s_2 = np.einsum("mbu,mbu->mb", t, rel)
            num_w = s_0 * ab
            # x^beta afresh where that product is not finite and positive (a
            # power over- or underflowed)
            fresh = ~(np.isfinite(num_w) & (num_w > 0.0))
            if fresh.any():
                num_w = np.where(fresh, (self.cnt * self.z[p:] * np.exp(bt * self.logv)).sum(axis=2),
                                 num_w)
            g = _gamma2_diff_array(z_lo, z_hi) / mass
            num_w = num_w + _sum_l(np.where(occupied, cw * ab[:, :, None] * g, 0.0))
            alpha_new = np.exp(np.log(num_w / den_w) / b_prev)
            alpha[p:] = alpha_new

            # The shape score f(beta) = a_mass / beta + b_const - sum w l e^(beta l)
            # and its slope at beta_prev, with l = log(x / alpha_new) = rel + delta:
            # there e^(beta l) = pw rho with rho = e^(beta_prev delta), so
            # sum w l e^(beta l) = rho (s_1 + delta s_0) and
            # sum w l^2 e^(beta l) = rho (s_2 + delta (2 s_1 + delta s_0)).
            d_const = (_tlog_diff_array(z_lo, z_hi) - mass) / bt
            delta = la[:, :, 0] - np.log(alpha_new)
            rho = np.exp(b_prev * delta)
            a_mass = _sum_l(np.where(occupied, cw, 0.0), w_sum)
            b_const = _sum_l(np.where(occupied, cw * d_const / mass, 0.0), s_r + delta * w_sum)
            f = a_mass / b_prev + b_const - rho * (s_1 + delta * s_0)
            df = -a_mass / (b_prev * b_prev) - rho * (s_2 + delta * (2.0 * s_1 + delta * s_0))
            checks += [ab, f, df]
        checks.append(np.log(alpha))

        stage = None
        if not np.isfinite(np.concatenate(checks, axis=None)).all():
            stage = np.full(alpha.shape, _ST_OK)
            if p:
                np.minimum(stage[:p], _ST_MASS, out=stage[:p],
                           where=(den[:p] <= floor) | ~np.isfinite(num_e) | (num_e <= 0.0))
            if p < m:
                stage_w = stage[p:]
                over = np.isinf(z_hi) & np.isfinite(self.hi)
                if z_lo is not None:
                    over |= np.isinf(z_lo) & np.isfinite(self.lo)
                np.minimum(stage_w, _ST_ZETA, out=stage_w, where=over.any(axis=2))
                np.minimum(stage_w, _ST_POW, out=stage_w, where=np.isinf(ab))
                np.minimum(stage_w, _ST_MASS, out=stage_w,
                           where=(den_w <= floor) | ~np.isfinite(num_w) | (num_w <= 0.0))
                np.minimum(stage_w, _ST_ALPHA, out=stage_w, where=np.isinf(alpha_new))

        if p < m:
            # the shape step, for the rows that have not failed; a row whose
            # member failed in an earlier component steps too, but the member
            # stops, so its step reaches no result
            todo = np.ones(b_prev.shape, dtype=bool) if stage is None else stage[p:] == _ST_OK
            if todo.any():
                def score(beta, rows):
                    """The score afresh on the given rows of the step, row j
                    being the j-th todo (component, member) in C order."""
                    c, k = (i[rows] for i in np.nonzero(todo))
                    l_rel = self.logv[k] - np.log(alpha_new[c, k])[:, None]
                    wl = self.cnt[k] * self.z[p + c, k] * l_rel
                    return _shape_score(l_rel, wl, a_mass[c, k], b_const[c, k])(beta)

                first = (f[todo], df[todo])
                b_todo = b_prev[todo]
                if stage is not None:
                    # afresh on a row where the sums did not give a finite score
                    redo = np.flatnonzero(~(np.isfinite(first[0]) & np.isfinite(first[1])))
                    if redo.size:
                        first[0][redo], first[1][redo] = score(b_todo[redo], redo)
                steps, ok, f_lo, f_hi = _shape_step(score, b_todo, first)
                beta[p:][todo] = steps
                if not ok.all():
                    if stage is None:
                        stage = np.full(alpha.shape, _ST_OK)
                    f_ends = np.full((2,) + stage.shape, math.nan)
                    f_ends[0, p:][todo], f_ends[1, p:][todo] = f_lo, f_hi
                    unbracketed = np.zeros(todo.shape, dtype=bool)
                    unbracketed[todo] = ~ok
                    stage[p:][unbracketed] = _ST_BRACKET
        if stage is None:
            return alpha, beta, {}
        np.minimum(stage, _ST_SPEC, out=stage, where=~((alpha > 0.0) & np.isfinite(alpha)))
        if stage.min() == _ST_OK:
            return alpha, beta, {}
        return alpha, beta, _m_step_errors(stage, p, den, alpha, f_ends)

    def direct_m_step(self, samples: list[CensoredSample]):
        """The direct M-step: _direct_component per member and component on
        the member's own slices and its sample's intervals (samples[member]),
        as m_step_direct runs it.  A component's exception is its member's
        failure, and the member's later components are not run."""
        errors: dict[int, Exception] = {}
        alpha = self.alpha.copy()
        beta = self.beta.copy()
        for pos, (member, u, nl) in enumerate(zip(self.ids, self.nu, self.nl)):
            for i, prev in enumerate(self.model(pos).components):
                try:
                    c = _direct_component(
                        self.vals[pos, :u], self.cnt[pos, :u] * self.z[i, pos, :u],
                        self.ccnt[pos, :nl] * self.zt[i, pos, :nl], samples[member].intervals,
                        prev, self.logv[pos, :u])
                except (CensemError, OverflowError) as exc:
                    errors[pos] = exc
                    break
                alpha[i, pos], beta[i, pos] = c.alpha, c.beta
        return alpha, beta, errors


def _m_step_errors(stage: np.ndarray, p: int, den: np.ndarray, alpha: np.ndarray,
                   f_ends: np.ndarray | None) -> dict[int, Exception]:
    """{row: exception} for the members with a failing (component, member)
    stage: the exception the public operations raise at the first failing
    stage of the member's lowest failing component.  den holds the scale
    updates' masses, alpha the new scales and f_ends the shape scores at
    the bracket ends, all with the component axis first."""
    failed = stage != _ST_OK
    errors: dict[int, Exception] = {}
    for k in np.flatnonzero(failed.any(axis=0)):
        c = int(np.argmax(failed[:, k]))
        code = stage[c, k]
        if code == _ST_MASS:
            family = "exponential" if c < p else "Weibull"
            exc = DegenerateComponentError(
                f"{family} scale update lost its mass (den={float(den[c, k])})")
        elif code == _ST_BRACKET:
            exc = _bracket_error(float(f_ends[0, c, k]), float(f_ends[1, c, k]))
        elif code == _ST_SPEC:
            exc = DomainError(f"alpha must be positive and finite, got {float(alpha[c, k])}")
        else:  # zeta, alpha^beta or the new scale overflowed, where math.exp raises
            exc = OverflowError("math range error")
        errors[int(k)] = exc
    return errors


def _sum_l(terms: np.ndarray, acc=0.0):
    """acc plus the sum over the last (interval) axis in interval order, as
    the public operations' loops add."""
    for l in range(terms.shape[-1]):
        acc = acc + terms[..., l]
    return acc


def _truncated_mean_exp_array(alpha: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                              em: np.ndarray) -> np.ndarray:
    """truncated_mean_exp elementwise, given em = 1 - e^(-(hi - lo) / alpha)."""
    mean = np.where(em == 0.0, 0.5 * (lo + hi), alpha + ((lo - hi) + hi * em) / em)
    return np.where(np.isinf(hi), lo + alpha, mean)


def _gamma2_diff_array(z_lo: np.ndarray | None, z_hi: np.ndarray) -> np.ndarray:
    """_gamma_upper_diff(2, ., .) elementwise; z_lo None stands for 0."""
    lower = gamma_lower2_array(z_hi)
    if z_lo is not None:
        lower = lower - gamma_lower2_array(z_lo)
    small = z_hi < 3.0
    if small.all():
        return lower
    upper = 1.0 if z_lo is None else gamma_upper2_array(z_lo)  # Gamma(2, 0) = 1
    return np.where(small, lower, upper - gamma_upper2_array(z_hi))


def _tlog_diff_array(z_lo: np.ndarray | None, z_hi: np.ndarray) -> np.ndarray:
    """z_hi e^(-z_hi) log z_hi - z_lo e^(-z_lo) log z_lo elementwise, with
    the term 0 at z = 0 and z = inf; z_lo None stands for 0.

    Since (1 - t) e^(-t) = d/dt (t e^(-t)), integrating by parts gives
    elog_num - bracket(s=2) = int (1 - t) e^(-t) log t dt over [z_lo, z_hi)
    = this difference minus the interval mass e^(-z_lo) - e^(-z_hi): the
    censored shape-score constant D times beta_prev in closed form.  From
    [0, z_hi) both parts are negative below z_hi = 1, so nothing cancels.
    """
    def term(z):
        z = np.where((z > 0.0) & (z < math.inf), z, 1.0)  # log 1 = 0 at the ends
        return z * np.exp(-z) * np.log(z)

    if z_lo is None:
        return term(z_hi)
    return term(z_hi) - term(z_lo)


def _elog_head_array(z: np.ndarray) -> np.ndarray:
    """G(z) = int_0^z e^(-t) log t dt = -expm1(-z) log z - Ein(z) elementwise
    for 0 <= z < 1, where both terms are negative; G(0) = 0."""
    return -np.expm1(-z) * np.log(np.where(z > 0.0, z, 1.0)) - ein_array(z)


def _elog_numerator_array(z_lo: np.ndarray, z_hi: np.ndarray) -> np.ndarray:
    """int_{z_lo}^{z_hi} e^(-t) log t dt elementwise, the numerator of
    E[log U | U in [z_lo, z_hi)] for unit-exponential U.

    Below z_hi = 1 it is G(z_hi) - G(z_lo) (_elog_head_array).  From 1 on
    it is e^(-z_lo) log z_lo - e^(-z_hi) log z_hi + E1(z_lo) - E1(z_hi),
    with the z_lo = 0 reduction -gamma_E - e^(-z_hi) log z_hi - E1(z_hi),
    which cancels only below 1.
    """
    low = z_hi < 1.0
    out = _elog_head_array(np.where(low, z_hi, 0.0))
    if not (z_lo == 0.0).all():  # never under the default censoring [0, 0.5)
        out = out - _elog_head_array(np.where(low, z_lo, 0.0))
    if low.all():
        return out
    fin = np.isfinite(z_hi)
    zh = np.where(fin, z_hi, 1.0)
    hi_term = np.where(fin, np.exp(-zh) * np.log(zh), 0.0)
    g_hi = np.where(fin, e1_array(zh), 0.0)
    at0 = z_lo == 0.0
    from_zero = -EULER_GAMMA - hi_term - g_hi
    zl = np.where(at0, 1.0, z_lo)
    inner = np.exp(-zl) * np.log(zl) - hi_term + e1_array(zl) - g_hi
    return np.where(low, out, np.where(at0, from_zero, inner))


def _bracket2_head_array(z: np.ndarray) -> np.ndarray:
    """F(z) = int_0^z t e^(-t) log t dt = gamma(2, z) log z - d_series(1, z)
    elementwise for 0 <= z < 1, where both terms are negative; F(0) = 0."""
    return gamma_lower2_array(z) * np.log(np.where(z > 0.0, z, 1.0)) - d_series1_array(z)


def _bracket2_tail_array(z: np.ndarray) -> np.ndarray:
    """T(z) = int_z^inf t e^(-t) log t dt elementwise, T(inf) = 0.

    From z = 1 on, the closed form d_series(1, z) = log z + gamma_E - 1
    + E1(z) + e^(-z) gives T(z) = E1(z) + e^(-z) + Gamma(2, z) log z, a
    sum of positive terms.  Below 1, T(z) = (1 - gamma_E) - F(z), since
    T(0) = Gamma(2) psi(2) = 1 - gamma_E.
    """
    big = z >= 1.0
    # e^(-800) is already 0, so clipping keeps inf out of 0 * log(inf)
    zb = np.clip(z, 1.0, 800.0)
    tail = e1_array(zb) + np.exp(-zb) + gamma_upper2_array(zb) * np.log(zb)
    if big.all():
        return tail
    return np.where(big, tail, (1.0 - EULER_GAMMA) - _bracket2_head_array(np.where(big, 0.0, z)))


def _shape_bracket2_array(z_lo: np.ndarray, z_hi: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """The s = 2 shape-score bracket int_{z_lo}^{z_hi} t e^(-t) log t dt on
    the entries in `reach`, 0 elsewhere: F(z_hi) - F(z_lo) below z_hi = 1,
    T(z_lo) - T(z_hi) from 1 on."""
    out = np.zeros(z_lo.shape)
    zl, zh = z_lo[reach], z_hi[reach]
    if zl.size == 0:
        return out
    tails = zh >= 1.0
    bracket = _bracket2_head_array(np.where(tails, 0.0, zh))
    if not (zl == 0.0).all():  # never under the default censoring [0, 0.5)
        bracket = bracket - _bracket2_head_array(np.where(tails, 0.0, zl))
    if tails.any():
        bracket = np.where(tails, _bracket2_tail_array(zl) - _bracket2_tail_array(zh), bracket)
    out[reach] = bracket
    return out


def fit_batch(
    samples: Sequence[CensoredSample],
    model_shape: tuple[int, int],
    config: EmConfig | None = None,
    inits: Sequence[MixtureModel | None] | None = None,
) -> list[FitResult | DomainError]:
    """The censored EM for many samples at once, with either M-step.

    Member j starts from the model inits[j], its weights rescaled to sum
    to 1, or from default_init where that is None or inits is not given.
    Its stopping rule, iteration count, warnings
    and named error are those of an EM loop built from e_step,
    update_weights and the m_step_* operations, and its numbers differ
    from that loop's only by rounding.  With the mle M-step that rounding
    also moves with the other members' sizes, through the padded sums;
    a direct-variant member equals fit on its sample alone.  A sample that cannot be
    fitted, or whose start model's components are not p exponentials then
    r Weibulls, gets the DomainError that says why in its slot instead of
    a FitResult.  An inits list whose length differs from samples' raises.
    The accepted members run as batches of at most BATCH_MEMBERS, in order.
    """
    cfg = config or EmConfig()
    if inits is not None and len(inits) != len(samples):
        raise DomainError(f"got {len(inits)} inits for {len(samples)} samples")
    p, r = int(model_shape[0]), int(model_shape[1])
    d = dof(p, r)
    kinds = [Kind.EXPONENTIAL] * p + [Kind.WEIBULL] * r
    results: list[FitResult | DomainError | None] = [None] * len(samples)
    slots, models = [], []
    for j, s in enumerate(samples):
        start = None if inits is None else inits[j]
        if s.total < d + 1:
            results[j] = DomainError(
                f"sample of size {s.total} cannot support a shape with {d} free parameters"
            )
        elif start is not None and [c.kind for c in start.components] != kinds:
            results[j] = DomainError(f"start model components do not match the shape ({p}, {r})")
        else:
            models.append(default_init(s, p, r) if start is None else
                          MixtureModel(start.weights / start.weights.sum(), start.components))
            slots.append(j)
    with np.errstate(all="ignore"):
        for k in range(0, len(slots), BATCH_MEMBERS):
            batch = slots[k : k + BATCH_MEMBERS]
            starts = models[k : k + BATCH_MEMBERS]
            for m, res in _batch_loop([samples[j] for j in batch], starts, p, cfg):
                results[batch[m]] = res
    return results


def _batch_loop(
    samples: list[CensoredSample], models: list[MixtureModel], p: int, cfg: EmConfig
):
    """Yield (member, FitResult or DomainError) as members stop."""
    mle = cfg.m_step_variant == MStepVariant.SELF_CONSISTENT_MLE
    # the direct M-step loops over the members anyway, so its sums can
    # run per member at little cost
    st = _Batch(samples, models, p, own_sums=not mle)
    n = len(samples)
    warnings: list[list[str]] = [[] for _ in samples]
    flagged = np.zeros(n, dtype=bool)
    warned = np.zeros((n, st.lo.shape[1]), dtype=bool)
    history = np.empty((n, 64))  # loglik per member and iteration
    iterations = 0

    def e_pass() -> None:
        """st.e_pass, plus the trace and the once-per-fit underflow warnings."""
        nonlocal history
        idead = st.e_pass()
        if iterations == history.shape[1]:
            history = np.concatenate([history, np.empty_like(history)], axis=1)
        history[st.ids, iterations] = st.ll
        if idead is None:
            return
        # e_step raises at an underflowing row before the intervals
        fresh = idead & ~warned[st.ids] & (st.bad < 0)[:, None]
        for pos, l in zip(*np.nonzero(fresh)):
            m = st.ids[pos]
            warned[m, l] = True
            _warn_underflow(samples[m].intervals[l], warnings[m])

    def result(pos: int, converged: bool, error: str | None = None):
        """(member, FitResult) from the model and the pass at row pos."""
        m = int(st.ids[pos])
        resp = None
        if st.bad[pos] < 0:
            u, nl = st.nu[pos], st.nl[pos]
            resp = _Expanding(st.z[:, pos, :u].T.copy(), st.zt[:, pos, :nl].T.copy(),
                              samples[m].uncensored)
        return m, FitResult(
            model=st.model(pos), loglik_trace=history[m, : iterations + 1].copy(),
            iterations=iterations, converged=converged, final_responsibilities=resp,
            degenerate=bool(flagged[m] or error is not None), warnings=warnings[m], error=error,
        )

    def stop(pos: int, exc: Exception):
        m = int(st.ids[pos])
        error = f"{type(exc).__name__}: {exc}"
        warnings[m].append(f"stopped at iteration {iterations + 1}: {error}")
        return result(pos, False, error)

    e_pass()
    # A member whose first pass underflows stops before its first M-step.
    underflow = st.bad >= 0
    for pos in np.flatnonzero(underflow):
        value = float(st.vals[pos, st.bad[pos]])
        yield stop(pos, ResponsibilityUnderflowError(
            f"mixture density underflows at observation value {value!r}"))
    if underflow.any():
        st.take(~underflow)

    while st.ids.size:
        weights = st.weights_from_pass()
        # one test each for the weight floor and the MixtureModel checks
        # below; the per-member work runs only where it fails
        low = weights.min()
        if not low >= WEIGHT_FLOOR:
            hits = weights < WEIGHT_FLOOR
            for pos in np.flatnonzero(hits.any(axis=0)):
                m = int(st.ids[pos])
                if not flagged[m]:
                    flagged[m] = True
                    floor_hits = [int(i) for i in np.flatnonzero(hits[:, pos])]
                    warnings[m].append(
                        f"component(s) {floor_hits} fell below the weight floor "
                        f"{WEIGHT_FLOOR}; fit continues with them flagged"
                    )
        alpha, beta, errors = st.m_step() if mle else st.direct_m_step(samples)
        # the MixtureModel checks on the new weights come after every
        # component's, so a member's component error wins
        wsum = weights.sum(axis=0)
        if not (low >= 0.0 and np.abs(wsum - 1.0).max() <= WEIGHT_SUM_TOL):
            bad_w = ~np.all(np.isfinite(weights) & (weights >= 0.0), axis=0)
            for pos in np.flatnonzero(bad_w | (np.abs(wsum - 1.0) > WEIGHT_SUM_TOL)):
                errors.setdefault(int(pos), DomainError(
                    "weights must be finite and non-negative" if bad_w[pos]
                    else f"weights must sum to 1, got {float(wsum[pos])!r}"))
        for pos, exc in sorted(errors.items()):
            yield (int(st.ids[pos]), exc) if isinstance(exc, DomainError) else stop(pos, exc)
        st.w, st.alpha, st.beta = weights, alpha, beta
        if errors:
            keep = np.ones(st.ids.size, dtype=bool)
            keep[list(errors)] = False
            st.take(keep)
            if not st.ids.size:
                break

        iterations += 1
        ll_prev = st.ll
        e_pass()
        # a non-finite log-likelihood is never within epsilon of the last
        converged = np.abs(st.ll - ll_prev) <= cfg.epsilon
        finished = converged | ~np.isfinite(st.ll)
        if iterations >= cfg.max_iter:
            finished[:] = True
        if not finished.any():
            continue
        for pos in np.flatnonzero(finished):
            error = None
            if not math.isfinite(st.ll[pos]):
                error = "log-likelihood became non-finite"
                warnings[st.ids[pos]].append(error)
            yield result(pos, bool(converged[pos]), error)
        st.take(~finished)
