"""Censored EM for exponential/Weibull mixtures.

The E-step computes posterior component responsibilities for exact
observations and for censoring intervals.  The M-step has two variants:

* self-consistent MLE (default): the scale update is closed-form once
  the shape ratio inside the censored terms is pinned to its previous
  value, and the shape update becomes a 1-D root problem after the
  scale/shape ratios inside the censored terms are likewise set to 1.
  Fast, and its fixed points are exact stationary points of the
  censored log-likelihood (at a fixed point the pinned ratios equal 1
  identically).
* direct objective: per-component coordinate-wise bracketed 1-D
  maximization of the exact conditional-expectation objective.  Slower
  but a genuine generalized-EM step, so the log-likelihood trace is
  non-decreasing; used as a cross-check.

Censored-term bookkeeping uses the unit-exponential transform
u = (y/alpha)^beta, under which an interval [lo, hi) maps to
[zeta_lo, zeta_hi) and every censored expectation becomes an
incomplete-gamma expression.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .components import (
    CensoringInterval,
    ComponentSpec,
    Kind,
    MixtureModel,
    _log_mixture_interval,
    _log_mixture_matrix,
    dof,
)
from .errors import (
    BracketError,
    DegenerateComponentError,
    DomainError,
    NonConvergenceError,
    ResponsibilityUnderflowError,
)
from .rootfind import golden_max, solve_bracketed
from .sample_data import CensoredSample
from .special_fn import (
    EULER_GAMMA,
    d_series,
    gamma_complete,
    gamma_lower,
    gamma_upper,
)

log = logging.getLogger(__name__)


class MStepVariant(str, Enum):
    SELF_CONSISTENT_MLE = "mle"
    DIRECT_OBJECTIVE = "direct"


@dataclass(frozen=True)
class InitSpec:
    """Optional starting values; anything left None uses the data-driven
    defaults (uniform weights, beta = 1, quantile-block means for the
    scales)."""

    weights: tuple[float, ...] | None = None
    alphas: tuple[float, ...] | None = None
    betas: tuple[float, ...] | None = None


@dataclass(frozen=True)
class EmConfig:
    epsilon: float = 1e-5
    max_iter: int = 500
    m_step_variant: MStepVariant = MStepVariant.SELF_CONSISTENT_MLE
    weight_floor: float = 1e-8
    beta_bracket: tuple[float, float] = (0.05, 20.0)
    root_tol: float = 1e-10
    init: InitSpec = field(default_factory=InitSpec)
    direct_sweeps: int = 2
    direct_xtol: float = 1e-8

    def __post_init__(self):
        if not (self.epsilon > 0.0):
            raise DomainError("epsilon must be positive")
        if self.max_iter < 1:
            raise DomainError("max_iter must be >= 1")
        if not (0.0 <= self.weight_floor < 1.0):
            raise DomainError("weight_floor must be in [0, 1)")
        lo, hi = self.beta_bracket
        if not (0.0 < lo < hi):
            raise DomainError("beta_bracket must satisfy 0 < lo < hi")
        if not (self.root_tol > 0.0):
            raise DomainError("root_tol must be positive")


@dataclass
class Responsibilities:
    """Posterior membership probabilities: z for exact observations
    (n x M), z_tilde for censoring intervals (L x M).  Rows sum to 1."""

    z: np.ndarray
    z_tilde: np.ndarray


@dataclass
class FitResult:
    """Outcome of one EM run.

    final_responsibilities belong to `model` and come from the fit
    loop's last E-step pass, expanded from the unique exact values back
    to every observation; they are None when an exact observation's
    mixture density underflows under `model`.
    """

    model: MixtureModel
    loglik_trace: np.ndarray
    iterations: int
    converged: bool
    final_responsibilities: Responsibilities | None
    degenerate: bool = False
    warnings: list[str] = field(default_factory=list)
    error: str | None = None

    @property
    def loglik(self) -> float:
        return float(self.loglik_trace[-1])


# ---------------------------------------------------------------------------
# internal weighted-data engine
#
# All M-step math runs on (values, weights) pairs so the fit loop can
# collapse duplicated observations (integer-rounded data compresses a
# lot) without changing any result.  Each model visited by the fit loop
# gets exactly one E-step pass over the collapsed sample (_ws_e_pass),
# which yields its log-likelihood, z and z_tilde together.  The public
# uncompressed e_step shares the row and interval kernels of that pass;
# the fit loop itself no longer calls it.
# ---------------------------------------------------------------------------


def _zeta(bound: float, alpha: float, beta: float) -> float:
    """(bound/alpha)^beta with the 0 and +inf edges handled exactly."""
    if bound == 0.0:
        return 0.0
    if math.isinf(bound):
        return math.inf
    return math.exp(beta * (math.log(bound) - math.log(alpha)))


def _interval_mass_unit(z_lo: float, z_hi: float) -> float:
    """e^(-z_lo) - e^(-z_hi), accurate for narrow and tiny intervals."""
    return math.exp(-z_lo) * (-math.expm1(z_lo - z_hi))


def _gamma_upper_diff(s: float, z_lo: float, z_hi: float) -> float:
    """Gamma(s, z_lo) - Gamma(s, z_hi) without catastrophic cancellation.

    Equal to gamma_lower(s, z_hi) - gamma_lower(s, z_lo); the lower
    form is used whenever both arguments sit in the series regime, so
    tiny intervals near 0 keep relative accuracy.
    """
    if z_hi < s + 1.0:
        lo_part = 0.0 if z_lo == 0.0 else gamma_lower(s, z_lo)
        return gamma_lower(s, z_hi) - lo_part
    hi_part = 0.0 if math.isinf(z_hi) else gamma_upper(s, z_hi)
    return gamma_upper(s, z_lo) - hi_part


def _elog_numerator(z_lo: float, z_hi: float) -> float:
    """Numerator of E[log U | U in [z_lo, z_hi)] for unit-exponential U:

        e^(-z_lo) log z_lo - e^(-z_hi) log z_hi + Gamma(0, z_lo) - Gamma(0, z_hi)

    with the well-behaved z_lo = 0 reduction -gamma_E - e^(-z_hi) log z_hi
    - Gamma(0, z_hi).
    """
    hi_term = 0.0 if math.isinf(z_hi) else math.exp(-z_hi) * math.log(z_hi)
    g_hi = 0.0 if math.isinf(z_hi) else gamma_upper(0.0, z_hi)
    if z_lo == 0.0:
        return -EULER_GAMMA - hi_term - g_hi
    return math.exp(-z_lo) * math.log(z_lo) - hi_term + gamma_upper(0.0, z_lo) - g_hi


def _shape_series_bracket(s: float, z_lo: float, z_hi: float) -> float:
    """The order-derivative bracket appearing in the censored shape score:

        [S(s, z_lo) - S(s, z_hi)] - Gamma(s)(log z_lo - log z_hi)
            + Gamma(s, z_lo) log z_lo - Gamma(s, z_hi) log z_hi

    where S(s, x) = sum_p (-1)^p x^(s+p) / (p! (s+p)^2) = d_series(s-1, x).
    Equals d/ds [Gamma(s, z_lo) - Gamma(s, z_hi)] up to sign bookkeeping
    handled by the caller.  z_lo = 0 uses the finite limit.
    """
    log_hi = math.log(z_hi)
    if z_lo == 0.0:
        return (
            -d_series(s - 1.0, z_hi)
            + gamma_complete(s) * log_hi
            - gamma_upper(s, z_hi) * log_hi
        )
    log_lo = math.log(z_lo)
    return (
        d_series(s - 1.0, z_lo)
        - d_series(s - 1.0, z_hi)
        - gamma_complete(s) * (log_lo - log_hi)
        + gamma_upper(s, z_lo) * log_lo
        - gamma_upper(s, z_hi) * log_hi
    )


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
    return _IntervalTerms(z_lo, z_hi, _interval_mass_unit(z_lo, z_hi), _elog_numerator(z_lo, z_hi))


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
    log_x: np.ndarray | None = None,
) -> float:
    """Closed-form scale update with the shape pinned to beta_prev.

    alpha^beta = [sum w x^beta + sum cens_w alpha_prev^beta G_l] / [sum w + sum cens_w]
    with G_l = (Gamma(2, z_lo) - Gamma(2, z_hi)) / (e^(-z_lo) - e^(-z_hi)).
    """
    if x.size:
        lx = np.log(x) if log_x is None else log_x
        num = float(w @ np.exp(beta_prev * lx))
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
    log_x: np.ndarray | None = None,
) -> Callable[[float], float]:
    """Score equation in beta after the scale update.

    F(beta) = A / beta + B - sum_j w_j l_j e^(beta l_j),  l_j = log(x_j / alpha_new)

    with A the total effective mass and B collecting log terms plus the
    censored D constants.  F is strictly decreasing, so the root in the
    bracket is unique when it exists.
    """
    if x.size:
        l = (np.log(x) if log_x is None else log_x) - math.log(alpha_new)
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

    def f(beta: float) -> float:
        tail = float(wl @ np.exp(beta * l)) if l.size else 0.0
        return a_mass / beta + b_const - tail

    return f


def _solve_shape(
    f: Callable[[float], float],
    bracket: tuple[float, float],
    start: float,
    xtol: float,
) -> float:
    """Root of the strictly decreasing shape score inside `bracket`.

    The root rarely moves far between EM iterations, so the bracket is
    grown geometrically around the previous shape and the configured
    bracket endpoints are only touched as a last resort.
    """
    lo, hi = bracket
    start = min(max(start, lo), hi)
    a = max(lo, 0.8 * start)
    b = min(hi, 1.25 * start)
    fa = f(a)
    fb = f(b)
    grow = 2.0
    for _ in range(64):
        if fa < 0.0 and a > lo:  # root is further left
            b, fb = a, fa
            a = max(lo, a / grow)
            fa = f(a)
        elif fb > 0.0 and b < hi:  # root is further right
            a, fa = b, fb
            b = min(hi, b * grow)
            fb = f(b)
        else:
            break
    if not (fa > 0.0 > fb or fa == 0.0 or fb == 0.0):
        g_lo = fa if a == lo else f(lo)
        g_hi = fb if b == hi else f(hi)
        raise BracketError(
            f"shape root not bracketed in [{lo}, {hi}]: f(lo)={g_lo}, f(hi)={g_hi}",
            lo=lo, hi=hi, f_lo=g_lo, f_hi=g_hi,
        )
    return solve_bracketed(f, a, b, xtol=xtol, f_lo=fa, f_hi=fb)


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
    _, z, bad = _row_pass(_log_weighted_matrix(m, x))
    if bad is not None:
        raise ResponsibilityUnderflowError(
            f"mixture density underflows at observation index {bad}", index=bad
        )
    zt, _ = _interval_pass(m, s.intervals)
    return Responsibilities(z=z, z_tilde=zt)


def _log_weighted_matrix(m: MixtureModel, x: np.ndarray) -> np.ndarray:
    if x.size == 0:
        return np.empty((0, m.m))
    return _log_mixture_matrix(m, x)


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
    a uniform row, a warning and log mass -inf."""
    rows = []
    log_mass = []
    for iv in intervals:
        lw = _log_mixture_interval(m, iv)
        mx = lw.max()
        if not math.isfinite(mx):
            log.warning("interval [%s, %s) mass underflows for every component; "
                        "using a uniform responsibility row", iv.lo, iv.hi)
            rows.append(np.full(m.m, 1.0 / m.m))
            log_mass.append(-math.inf)
            continue
        p = np.exp(lw - mx)
        psum = p.sum()
        rows.append(p / psum)
        log_mass.append(float(mx + np.log(psum)))
    zt = np.array(rows) if rows else np.empty((0, m.m))
    return zt, log_mass


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


def m_step_exponential(
    r: Responsibilities,
    s: CensoredSample,
    comp_index: int,
    alpha_prev: float,
    weight_floor: float = 0.0,
) -> float:
    """Closed-form exponential scale update (responsibility-weighted mean,
    censored atoms contributing their conditional means)."""
    x = np.asarray(s.uncensored, dtype=float)
    w = r.z[:, comp_index] if r.z.size else np.empty(0)
    counts = np.array([iv.count for iv in s.intervals], dtype=float)
    cens_w = counts * r.z_tilde[:, comp_index] if counts.size else np.empty(0)
    means = np.array([truncated_mean_exp(alpha_prev, iv) for iv in s.intervals])
    return _exp_scale_update(x, w, cens_w, means, weight_floor * s.total)


def m_step_weibull_alpha(
    r: Responsibilities,
    s: CensoredSample,
    comp_index: int,
    theta_prev: ComponentSpec,
    weight_floor: float = 0.0,
) -> float:
    """Closed-form Weibull scale update with the shape held at its
    previous value."""
    x = np.asarray(s.uncensored, dtype=float)
    w = r.z[:, comp_index] if r.z.size else np.empty(0)
    counts = np.array([iv.count for iv in s.intervals], dtype=float)
    cens_w = counts * r.z_tilde[:, comp_index] if counts.size else np.empty(0)
    terms = [_interval_terms(iv, theta_prev.alpha, theta_prev.beta) for iv in s.intervals]
    return _wbl_scale_update(
        x, w, cens_w, terms, theta_prev.alpha, theta_prev.beta, weight_floor * s.total
    )


def m_step_weibull_beta(
    r: Responsibilities,
    s: CensoredSample,
    comp_index: int,
    theta_prev: ComponentSpec,
    alpha_new: float,
    config: EmConfig | None = None,
) -> float:
    """Shape update: root of the score equation with the censored-term
    parameter ratios set to 1, found inside config.beta_bracket."""
    cfg = config or EmConfig()
    x = np.asarray(s.uncensored, dtype=float)
    w = r.z[:, comp_index] if r.z.size else np.empty(0)
    counts = np.array([iv.count for iv in s.intervals], dtype=float)
    cens_w = counts * r.z_tilde[:, comp_index] if counts.size else np.empty(0)
    terms = [_interval_terms(iv, theta_prev.alpha, theta_prev.beta) for iv in s.intervals]
    f = _wbl_shape_equation(x, w, cens_w, terms, alpha_new, theta_prev.beta)
    return _solve_shape(f, cfg.beta_bracket, theta_prev.beta, cfg.root_tol)


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
    x = np.asarray(s.uncensored, dtype=float)
    counts = np.array([iv.count for iv in s.intervals], dtype=float)
    total = 0.0
    for i, (cand, prev) in enumerate(zip(theta_candidate, theta_prev)):
        if cand.kind != prev.kind:
            raise DomainError(f"component {i}: candidate kind differs from previous kind")
        w = r.z[:, i] if r.z.size else np.empty(0)
        cens_w = counts * r.z_tilde[:, i] if counts.size else np.empty(0)
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
    config: EmConfig | None = None,
) -> list[ComponentSpec]:
    """Per-component coordinate-wise maximization of the exact objective.

    Scale (and shape, for Weibulls) are maximized alternately by
    golden-section search on log-scale brackets re-centred each sweep.
    A candidate is only accepted when it does not lower the component's
    block, so the step is a genuine generalized-EM move.
    """
    cfg = config or EmConfig()
    x = np.asarray(s.uncensored, dtype=float)
    counts = np.array([iv.count for iv in s.intervals], dtype=float)
    out = []
    for i, prev in enumerate(theta_prev):
        w = r.z[:, i] if r.z.size else np.empty(0)
        cens_w = counts * r.z_tilde[:, i] if counts.size else np.empty(0)
        out.append(_direct_component(x, w, cens_w, s.intervals, prev, cfg))
    return out


def _direct_component(
    x: np.ndarray,
    w: np.ndarray,
    cens_w: np.ndarray,
    intervals: Sequence[CensoringInterval],
    prev: ComponentSpec,
    cfg: EmConfig,
    log_x: np.ndarray | None = None,
) -> ComponentSpec:
    if prev.kind == Kind.EXPONENTIAL:
        means = np.array([truncated_mean_exp(prev.alpha, iv) for iv in intervals])

        def block(alpha: float, _beta: float) -> float:
            return _q_block_exp(alpha, x, w, cens_w, means)

    else:
        terms = [_interval_terms(iv, prev.alpha, prev.beta) for iv in intervals]

        def block(alpha: float, beta: float) -> float:
            try:
                return _q_block_wbl(alpha, beta, x, w, cens_w, terms, prev, log_x=log_x)
            except (NonConvergenceError, DegenerateComponentError, OverflowError):
                return -math.inf

    alpha, beta = prev.alpha, prev.beta
    best_q = block(alpha, beta)
    if not math.isfinite(best_q):
        raise DegenerateComponentError("objective not finite at the previous parameters")
    span = math.log(8.0)
    for _ in range(max(1, cfg.direct_sweeps)):
        moved = 0.0
        la, qa = golden_max(
            lambda u: block(math.exp(u), beta),
            math.log(alpha) - span,
            math.log(alpha) + span,
            xtol=cfg.direct_xtol,
        )
        if qa > best_q:
            moved = max(moved, abs(la - math.log(alpha)))
            alpha, best_q = math.exp(la), qa
        if prev.kind == Kind.WEIBULL:
            blo = max(cfg.beta_bracket[0], beta / 4.0)
            bhi = min(cfg.beta_bracket[1], beta * 4.0)
            lb, qb = golden_max(
                lambda u: block(alpha, math.exp(u)),
                math.log(blo),
                math.log(bhi),
                xtol=cfg.direct_xtol,
            )
            if qb > best_q:
                moved = max(moved, abs(lb - math.log(beta)))
                beta, best_q = math.exp(lb), qb
        if moved < 1e-12:
            break
    if prev.kind == Kind.EXPONENTIAL:
        return ComponentSpec.exponential(alpha)
    return ComponentSpec.weibull(alpha, beta)


# ---------------------------------------------------------------------------
# the fit loop
# ---------------------------------------------------------------------------


def default_init(
    s: CensoredSample, p: int, r: int, init: InitSpec | None = None
) -> MixtureModel:
    """Starting model: uniform weights, beta = 1, scales from the data.

    With one exponential its scale starts at the mean of the smallest
    decile of exact observations (the fast component lives there); a
    lone Weibull starts at the overall mean.  Multiple components of a
    family spread over quantile-block means so no two start identical.
    """
    m = p + r
    spec = init or InitSpec()
    x = np.sort(np.asarray(s.uncensored, dtype=float))
    if x.size == 0:
        base = max((iv.hi for iv in s.intervals if math.isfinite(iv.hi)), default=1.0)
        x = np.array([base])

    def block_means(k: int) -> list[float]:
        blocks = np.array_split(x, k)
        return [float(b.mean()) if b.size else float(x.mean()) for b in blocks]

    alphas: list[float]
    if spec.alphas is not None:
        if len(spec.alphas) != m:
            raise DomainError("init alphas length must equal the component count")
        alphas = [float(a) for a in spec.alphas]
    else:
        if p == 1:
            decile = x[: max(1, x.size // 10)]
            exp_alphas = [float(decile.mean())]
        else:
            exp_alphas = block_means(p) if p else []
        wbl_alphas = [float(x.mean())] if r == 1 else (block_means(r) if r else [])
        alphas = exp_alphas + wbl_alphas
    if spec.betas is not None:
        if len(spec.betas) != m:
            raise DomainError("init betas length must equal the component count")
        betas = [float(b) for b in spec.betas]
    else:
        betas = [1.0] * m
    if spec.weights is not None:
        if len(spec.weights) != m:
            raise DomainError("init weights length must equal the component count")
        weights = np.asarray(spec.weights, dtype=float)
        weights = weights / weights.sum()
    else:
        weights = np.full(m, 1.0 / m)
    comps = [ComponentSpec.exponential(alphas[i]) for i in range(p)]
    comps += [ComponentSpec.weibull(alphas[p + i], betas[p + i]) for i in range(r)]
    return MixtureModel(weights, comps)


@dataclass
class _Workspace:
    """Sample collapsed to unique exact values with multiplicities."""

    values: np.ndarray
    log_values: np.ndarray
    counts: np.ndarray
    inverse: np.ndarray
    intervals: list[CensoringInterval]
    cens_counts: np.ndarray
    total: float


def _workspace(s: CensoredSample) -> _Workspace:
    x = np.asarray(s.uncensored, dtype=float)
    if x.size:
        values, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    else:
        values = np.empty(0)
        inverse = np.empty(0, dtype=np.intp)
        counts = np.empty(0)
    cens_counts = np.array([iv.count for iv in s.intervals], dtype=float)
    return _Workspace(
        values=values,
        log_values=np.log(values) if values.size else np.empty(0),
        counts=counts.astype(float),
        inverse=inverse,
        intervals=list(s.intervals),
        cens_counts=cens_counts,
        total=float(counts.sum() + cens_counts.sum()),
    )


def _ws_log_matrix(ws: _Workspace, model: MixtureModel) -> np.ndarray:
    """log(weight_i) + log pdf_i over the unique values, from cached logs.

    Branches exactly like components.log_pdf so the reported trace
    matches a censored_log_likelihood recomputation bit for bit.
    """
    if ws.values.size == 0:
        return np.empty((0, model.m))
    logw = model.log_weights
    cols = []
    for i, c in enumerate(model.components):
        la = math.log(c.alpha)
        if c.beta == 1.0:
            cols.append(logw[i] + (-la - ws.values / c.alpha))
        else:
            rel = ws.log_values - la
            cols.append(
                logw[i] + (math.log(c.beta) - la + (c.beta - 1.0) * rel - np.exp(c.beta * rel))
            )
    return np.stack(cols, axis=1)


def _ws_e_pass(
    ws: _Workspace, model: MixtureModel
) -> tuple[float, np.ndarray | None, np.ndarray | None, int | None]:
    """One E-step pass of `model` over the workspace.

    Returns (log-likelihood, z over the unique values, z_tilde, None),
    or (-inf, None, None, j) when the mixture density of unique value j
    underflows.  The log matrix, its row max and exp(logmat - max) serve
    both the log-likelihood and z; each interval's log masses serve both
    its log-likelihood term and its z_tilde row.
    """
    rows, z, bad = _row_pass(_ws_log_matrix(ws, model))
    if bad is not None:
        return -math.inf, None, None, bad
    total = 0.0
    if ws.values.size:
        total += float(ws.counts @ rows)
    zt, log_mass = _interval_pass(model, ws.intervals)
    for iv, lp in zip(ws.intervals, log_mass):
        if iv.count:
            total += iv.count * lp
    return total, z, zt, None


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
    raised.
    """
    cfg = config or EmConfig()
    p, r = int(model_shape[0]), int(model_shape[1])
    d = dof(p, r)
    if s.total < d + 1:
        raise DomainError(
            f"sample of size {s.total} cannot support a shape with {d} free parameters"
        )
    m_count = p + r
    if cfg.weight_floor >= 1.0 / m_count:
        raise DomainError("weight_floor must be below 1/M")

    model = default_init(s, p, r, cfg.init)
    ws = _workspace(s)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _fit_loop(ws, model, cfg, warnings=[])


def _fit_loop(
    ws: _Workspace,
    model: MixtureModel,
    cfg: EmConfig,
    warnings: list[str],
) -> FitResult:
    """EM iterations on the collapsed sample.

    Every model gets one _ws_e_pass: its log-likelihood feeds the trace
    and the stopping test, and its z and z_tilde feed the next M-step.
    The last pass also gives final_responsibilities, as z[ws.inverse].
    """
    degenerate = False
    error: str | None = None

    ll_prev, z, zt, bad = _ws_e_pass(ws, model)
    trace = [ll_prev]
    converged = False
    iterations = 0

    for _ in range(cfg.max_iter):
        try:
            if bad is not None:
                raise ResponsibilityUnderflowError(
                    "mixture density underflows at observation value "
                    f"{ws.values[bad]!r}",
                    index=int(np.argmax(ws.inverse == bad)),
                )
            weights = _weights_from(z, zt, ws)
            floor_hits = [i for i, wt in enumerate(weights) if wt < cfg.weight_floor]
            if floor_hits and not degenerate:
                degenerate = True
                warnings.append(
                    f"component(s) {floor_hits} fell below the weight floor "
                    f"{cfg.weight_floor}; fit continues with them flagged"
                )
            if cfg.m_step_variant == MStepVariant.DIRECT_OBJECTIVE:
                comps = _direct_m_step_ws(ws, model, z, zt, cfg)
            else:
                comps = _mle_m_step_ws(ws, model, z, zt, cfg)
            model = MixtureModel(weights, comps)
        except (
            DegenerateComponentError,
            BracketError,
            ResponsibilityUnderflowError,
            NonConvergenceError,
        ) as exc:
            degenerate = True
            error = f"{type(exc).__name__}: {exc}"
            warnings.append(f"stopped at iteration {iterations + 1}: {error}")
            break
        iterations += 1
        ll, z, zt, bad = _ws_e_pass(ws, model)
        trace.append(ll)
        if not math.isfinite(ll):
            degenerate = True
            error = "log-likelihood became non-finite"
            warnings.append(error)
            break
        if abs(ll - ll_prev) <= cfg.epsilon:
            converged = True
            ll_prev = ll
            break
        ll_prev = ll

    return FitResult(
        model=model,
        loglik_trace=np.asarray(trace, dtype=float),
        iterations=iterations,
        converged=converged,
        final_responsibilities=(
            None if bad is not None else Responsibilities(z[ws.inverse], zt)
        ),
        degenerate=degenerate,
        warnings=warnings,
        error=error,
    )


def _weights_from(z: np.ndarray, zt: np.ndarray, ws: _Workspace) -> np.ndarray:
    acc = ws.counts @ z if ws.values.size else np.zeros(zt.shape[1] if zt.size else z.shape[1])
    if ws.cens_counts.size:
        acc = acc + ws.cens_counts @ zt
    w = acc / ws.total
    return w / w.sum()


def _mle_m_step_ws(
    ws: _Workspace,
    model: MixtureModel,
    z: np.ndarray,
    zt: np.ndarray,
    cfg: EmConfig,
) -> list[ComponentSpec]:
    comps = []
    floor = cfg.weight_floor * ws.total
    for i, prev in enumerate(model.components):
        w = ws.counts * z[:, i] if ws.values.size else np.empty(0)
        cens_w = ws.cens_counts * zt[:, i] if ws.cens_counts.size else np.empty(0)
        if prev.kind == Kind.EXPONENTIAL:
            means = np.array(
                [truncated_mean_exp(prev.alpha, iv) for iv in ws.intervals]
            )
            comps.append(
                ComponentSpec.exponential(
                    _exp_scale_update(ws.values, w, cens_w, means, floor)
                )
            )
        else:
            terms = [_interval_terms(iv, prev.alpha, prev.beta) for iv in ws.intervals]
            alpha_new = _wbl_scale_update(
                ws.values, w, cens_w, terms, prev.alpha, prev.beta, floor,
                log_x=ws.log_values,
            )
            f = _wbl_shape_equation(
                ws.values, w, cens_w, terms, alpha_new, prev.beta, log_x=ws.log_values
            )
            beta_new = _solve_shape(f, cfg.beta_bracket, prev.beta, cfg.root_tol)
            comps.append(ComponentSpec.weibull(alpha_new, beta_new))
    return comps


def _direct_m_step_ws(
    ws: _Workspace,
    model: MixtureModel,
    z: np.ndarray,
    zt: np.ndarray,
    cfg: EmConfig,
) -> list[ComponentSpec]:
    comps = []
    for i, prev in enumerate(model.components):
        w = ws.counts * z[:, i] if ws.values.size else np.empty(0)
        cens_w = ws.cens_counts * zt[:, i] if ws.cens_counts.size else np.empty(0)
        comps.append(
            _direct_component(
                ws.values, w, cens_w, ws.intervals, prev, cfg, log_x=ws.log_values
            )
        )
    return comps
