"""Mixture component distributions and censored likelihood.

An exponential component is carried as its own kind (with beta pinned to
1) rather than as a beta=1 Weibull, because parameter counting and the
closed-form scale update treat the two families differently.  The kind
alone picks the formula: a Weibull at beta = 1 is evaluated as a
Weibull.  All density work that feeds the EM loop happens in log space:
for beta < 1 the density blows up as x -> 0 and linear-space evaluation
overflows.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError

if TYPE_CHECKING:
    from .sample_data import CensoredSample

log = logging.getLogger(__name__)

WEIGHT_SUM_TOL = 1e-12


class Kind(str, Enum):
    EXPONENTIAL = "exp"
    WEIBULL = "wbl"


@dataclass(frozen=True)
class ComponentSpec:
    """One mixture component: scale alpha (ms) and shape beta."""

    kind: Kind
    alpha: float
    beta: float = 1.0

    def __post_init__(self):
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise DomainError(f"alpha must be positive and finite, got {self.alpha}")
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise DomainError(f"beta must be positive and finite, got {self.beta}")
        if self.kind == Kind.EXPONENTIAL and self.beta != 1.0:
            raise DomainError("exponential components have beta fixed to 1")

    @classmethod
    def exponential(cls, alpha: float) -> "ComponentSpec":
        return cls(Kind.EXPONENTIAL, float(alpha), 1.0)

    @classmethod
    def weibull(cls, alpha: float, beta: float) -> "ComponentSpec":
        return cls(Kind.WEIBULL, float(alpha), float(beta))


@dataclass(frozen=True)
class CensoringInterval:
    """Half-open interval [lo, hi) in which only the observation count is known."""

    lo: float
    hi: float
    count: int = 0

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi):
            raise DomainError(f"need 0 <= lo < hi, got [{self.lo}, {self.hi})")
        if self.count < 0:
            raise DomainError(f"interval count must be >= 0, got {self.count}")

    def with_count(self, count: int) -> "CensoringInterval":
        return CensoringInterval(self.lo, self.hi, int(count))


@dataclass
class MixtureModel:
    """Weights on the simplex plus the component specs they multiply."""

    weights: np.ndarray
    components: list[ComponentSpec]

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.components = list(self.components)
        if len(self.components) < 1:
            raise DomainError("a mixture needs at least one component")
        if self.weights.shape != (len(self.components),):
            raise DomainError("weights and components lengths differ")
        if np.any(self.weights < 0.0) or not np.all(np.isfinite(self.weights)):
            raise DomainError("weights must be finite and non-negative")
        if abs(float(self.weights.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise DomainError(f"weights must sum to 1, got {float(self.weights.sum())!r}")
        with np.errstate(divide="ignore"):
            self._log_weights = np.log(self.weights)

    @property
    def m(self) -> int:
        return len(self.components)

    @property
    def log_weights(self) -> np.ndarray:
        return self._log_weights


def _upow(c: ComponentSpec, x):
    """(x/alpha)^beta, overflow-safe for x >= 0 via exp(beta*log(x/alpha)).

    x = 0 gives 0 and x = inf gives inf, as does a far tail whose power
    saturates, which downstream code treats as zero survival mass.
    """
    with np.errstate(divide="ignore", over="ignore"):
        if c.kind == Kind.EXPONENTIAL:
            return x / c.alpha
        return np.exp(c.beta * (np.log(x) - math.log(c.alpha)))


def pdf(c: ComponentSpec, x):
    """Density (beta/alpha) (x/alpha)^(beta-1) exp(-(x/alpha)^beta), x > 0."""
    return np.exp(log_pdf(c, x))


def log_pdf(c: ComponentSpec, x):
    """log pdf, evaluated without ever forming the density in linear space."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise DomainError("log_pdf requires x > 0")
    la = math.log(c.alpha)
    if c.kind == Kind.EXPONENTIAL:
        out = -la - arr / c.alpha
    else:
        lx = np.log(arr)
        # overflow of the exp saturates the log-density to -inf, which is
        # the correct limit deep in the upper tail
        with np.errstate(over="ignore"):
            out = math.log(c.beta) - la + (c.beta - 1.0) * (lx - la) - np.exp(c.beta * (lx - la))
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def interval_prob(c: ComponentSpec, iv: CensoringInterval) -> float:
    """P(X in [lo, hi)) through the survival-function difference.

    exp(-u) - exp(-v) is formed as exp(-u) * (-expm1(u - v)) so narrow
    or far-tail intervals keep relative accuracy.
    """
    u, v = float(_upow(c, iv.lo)), float(_upow(c, iv.hi))
    return math.exp(-u) * (-math.expm1(u - v))


def log_interval_prob(c: ComponentSpec, iv: CensoringInterval) -> float:
    """log P(X in [lo, hi)); -inf when the mass underflows entirely."""
    u, v = float(_upow(c, iv.lo)), float(_upow(c, iv.hi))
    tail = -math.expm1(u - v)
    if tail <= 0.0:
        return -math.inf
    return -u + math.log(tail)


def mixture_pdf(m: MixtureModel, x):
    """sum_i weight_i * pdf_i(x) for x > 0."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError("mixture_pdf requires x > 0")
    total = np.zeros_like(arr, dtype=float)
    for w, c in zip(m.weights, m.components):
        if w > 0.0:
            total = total + w * pdf(c, arr)
    return float(total) if np.isscalar(x) or arr.ndim == 0 else total


def _log_mixture_matrix(m: MixtureModel, x: np.ndarray) -> np.ndarray:
    """(len(x), M) matrix of log(weight_i) + log pdf_i(x_j)."""
    logw = m.log_weights
    cols = [logw[i] + log_pdf(c, x) for i, c in enumerate(m.components)]
    return np.stack(cols, axis=1)


def _log_mixture_interval(m: MixtureModel, iv: CensoringInterval) -> np.ndarray:
    """(M,) vector of log(weight_i) + log P_i(interval)."""
    return m.log_weights + np.array([log_interval_prob(c, iv) for c in m.components])


def _logsumexp(a: np.ndarray, axis=None):
    mx = np.max(a, axis=axis, keepdims=True)
    mx_safe = np.where(np.isfinite(mx), mx, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.squeeze(mx_safe, axis=axis) + np.log(
            np.sum(np.exp(a - mx_safe), axis=axis)
        )
    if axis is None:
        return float(out)
    return np.where(np.squeeze(np.isfinite(mx), axis=axis), out, -np.inf)


def censored_log_likelihood(m: MixtureModel, s: "CensoredSample") -> float:
    """Log of the censored likelihood: exact observations contribute
    log f(x_j), each censoring interval contributes count * log of its
    mixture mass.

    Returns -inf (and logs a warning) if an exact observation is
    non-positive or an occupied interval's mixture mass underflows to
    zero.
    """
    total = 0.0
    x = np.asarray(s.uncensored, dtype=float)
    if x.size:
        if np.any(x <= 0.0):
            log.warning("censored_log_likelihood: non-positive exact observation")
            return -math.inf
        rows = _logsumexp(_log_mixture_matrix(m, x), axis=1)
        if not np.all(np.isfinite(rows)):
            log.warning("censored_log_likelihood: density underflow at an observation")
            return -math.inf
        total += float(np.sum(rows))
    for iv in s.intervals:
        if iv.count == 0:
            continue
        lp = _logsumexp(_log_mixture_interval(m, iv))
        if not math.isfinite(lp):
            log.warning("censored_log_likelihood: interval mass underflow in %s", iv)
            return -math.inf
        total += iv.count * lp
    return total


def sample(m: MixtureModel, n: int, rng_seed: int) -> np.ndarray:
    """n i.i.d. draws from the mixture, deterministic in rng_seed.

    A component index is drawn per observation from the weights, then
    the value comes from the Weibull inverse CDF x = alpha * (-log U)^(1/beta).
    """
    if n < 0:
        raise DomainError(f"sample size must be >= 0, got {n}")
    rng = np.random.default_rng(rng_seed)
    if n == 0:
        return np.empty(0, dtype=float)
    if m.m == 1:
        idx = np.zeros(n, dtype=np.intp)
    else:
        idx = rng.choice(m.m, size=n, p=m.weights / m.weights.sum())
    u = rng.random(n)
    u[u == 0.0] = 2.0 ** -53  # rng.random() can return 0; keep draws positive
    alphas = np.array([c.alpha for c in m.components])
    betas = np.array([c.beta for c in m.components])
    return alphas[idx] * (-np.log(u)) ** (1.0 / betas[idx])


def dof(p: int, r: int) -> int:
    """Free parameters of a p-exponential + r-Weibull mixture: 2p + 3r - 1.

    p scale parameters, 2r Weibull parameters, and p + r - 1 free weights.
    """
    if p < 0 or r < 0 or p + r < 1:
        raise DomainError(f"need p, r >= 0 with p + r >= 1, got p={p}, r={r}")
    return 2 * p + 3 * r - 1
