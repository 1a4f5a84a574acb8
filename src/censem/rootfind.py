"""Bracketed 1-D root finding and maximization used by the M-step solvers.

solve_bracketed (Illinois secant) serves the scalar shape root solve of
the public M-step operations, and golden_max the direct M-step's one
profiled shape search per Weibull component; solve_newton_array
(safeguarded Newton) solves many roots at once for the batched EM.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import BracketError, DomainError, NonConvergenceError

_GOLDEN = 0.6180339887498949  # (sqrt(5) - 1) / 2
_MAX_ITER = 200  # iteration bound of solve_bracketed and golden_max


def solve_bracketed(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    xtol: float = 1e-10,
    f_lo: float | None = None,
    f_hi: float | None = None,
) -> float:
    """Root of f inside [lo, hi] by a hybrid secant/bisection scheme.

    Requires a sign change over the bracket (raises BracketError
    otherwise, carrying the endpoint values as diagnostics).  Secant
    steps are taken when they land strictly inside the current bracket;
    anything suspect (outside, non-finite values) falls back to
    bisection, so convergence is guaranteed.
    """
    a, b = float(lo), float(hi)
    fa = float(f(a)) if f_lo is None else float(f_lo)
    fb = float(f(b)) if f_hi is None else float(f_hi)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if math.isnan(fa) or math.isnan(fb) or (fa > 0.0) == (fb > 0.0):
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f(lo)={fa}, f(hi)={fb}",
            lo=lo, hi=hi, f_lo=fa, f_hi=fb,
        )
    side = 0
    for _ in range(_MAX_ITER):
        width = b - a
        if width <= xtol * max(1.0, abs(a) + abs(b)):
            break
        if math.isfinite(fa) and math.isfinite(fb):
            # Illinois-weighted secant: halving the retained endpoint's
            # value whenever the same side survives twice keeps the
            # step from stalling the way plain regula falsi does.
            x = (a * fb - b * fa) / (fb - fa)
            if not (a < x < b):
                x = 0.5 * (a + b)
        else:
            x = 0.5 * (a + b)
        fx = float(f(x))
        if fx == 0.0 or math.isnan(fx):
            return x
        if (fx > 0.0) == (fa > 0.0):
            a, fa = x, fx
            if side == -1 and math.isfinite(fb):
                fb *= 0.5
            side = -1
        else:
            b, fb = x, fx
            if side == 1 and math.isfinite(fa):
                fa *= 0.5
            side = 1
    return 0.5 * (a + b)


def golden_max(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    xtol: float = 1e-8,
) -> tuple[float, float]:
    """Golden-section maximization of f over [lo, hi].

    Returns (x_best, f(x_best)) where x_best is the best point actually
    evaluated, so the reported value never exceeds a true evaluation.
    """
    if not (lo < hi):
        raise NonConvergenceError(f"invalid maximization bracket [{lo}, {hi}]")
    a, b = float(lo), float(hi)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = float(f(x1))
    f2 = float(f(x2))
    best_x, best_f = (x1, f1) if f1 >= f2 else (x2, f2)
    for _ in range(_MAX_ITER):
        if (b - a) <= xtol * max(1.0, abs(a) + abs(b)):
            break
        if f1 < f2 or math.isnan(f1):
            a = x1
            x1, f1 = x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = float(f(x2))
            if f2 > best_f or math.isnan(best_f):
                best_x, best_f = x2, f2
        else:
            b = x2
            x2, f2 = x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = float(f(x1))
            if f1 > best_f or math.isnan(best_f):
                best_x, best_f = x1, f1
    return best_x, best_f


def solve_newton_array(
    fdf: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    lo: float,
    hi: float,
    start,
    xtol: float = 1e-10,
    max_iter: int = 200,
):
    """Roots in [lo, hi], 0 < lo < hi, of many strictly decreasing
    functions at once by safeguarded Newton (rtsafe, Press et al.,
    Numerical Recipes, 3rd ed., section 9.4).

    fdf(x, idx) returns the values and derivatives at x of the functions
    numbered idx (a sorted index array, the same object for as long as
    the set of open rows does not change).  Row k starts at start[k] and
    keeps the bracket [a, b] that the signs it has seen give it.  A
    Newton step that leaves the bracket, is not finite, or is more than
    half the step before last (Newton crawling, as down the exponential
    tail of a score) becomes a bisection or, while only one side is
    known, a doubling or halving toward the unknown end.  With
    tol = xtol * max(1, 2|x|), a row ends at an exact zero, at a Newton
    step s_k of at most tol (x minus the step, kept inside the bracket),
    at a step s_k that lands inside the bracket right after a Newton step
    s_(k-1), with s_k^2 <= x tol, and predicts the next one, |s_k|^3 /
    s_(k-1)^2 under quadratic convergence, to be at most tol (x minus the
    step), or at a bracket narrower than tol (its midpoint).

    Returns (roots, ok, f(lo), f(hi)).  ok is False where f is positive
    at hi or negative at lo, so that [lo, hi] holds no sign change, where
    f is NaN, or where max_iter evaluations end before both signs were
    seen (a row that has seen both ends at its bracket's midpoint); the
    failed rows' roots are NaN and their endpoint values are evaluated
    for the diagnostics (NaN on the other rows).  The steps run, fdf's
    calls included, with numpy's divide, invalid and overflow warnings
    off.
    """
    if not 0.0 < lo < hi:
        raise DomainError(f"solve_newton_array needs 0 < lo < hi, got [{lo}, {hi}]")
    x = np.minimum(np.maximum(np.asarray(start, dtype=float), lo), hi)
    n = x.size
    roots = np.empty(n)  # every row gets its root, or NaN where it fails
    # Working arrays hold the open rows only; idx maps them back.  a, b and
    # the seen flags become arrays at the first evaluation.
    idx = np.arange(n)
    a, b = lo, hi
    seen_a = seen_b = False  # f(a) > 0 was seen, not just a = lo; f(b) < 0 was seen
    last = before = np.full(n, math.inf)  # the last step taken, and the one before
    prev = None  # the last step where it was a Newton step, else 0 (None before any step)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(max_iter):
            fx, dfx = fdf(x, idx)
            pos, neg = fx > 0.0, fx < 0.0
            a = np.where(pos, x, a)
            b = np.where(neg, x, b)
            seen_a = seen_a | pos
            seen_b = seen_b | neg
            step = fx / dfx
            xn = x - step
            size = np.abs(step)
            tol = np.maximum(xtol, (2.0 * xtol) * x)  # xtol * max(1, 2|x|), as x > 0
            inside = (a < xn) & (xn < b)
            small = size <= tol
            if prev is not None:
                # Newton converges quadratically, so the step after this one
                # is about size^3 / prev^2, and a row ends once that is
                # within tol too.  A lucky step from far off can make that
                # estimate too small, so it counts only once size^2 <= x tol.
                small |= inside & (size * size <= tol * x) & (size ** 3 <= tol * prev ** 2)
            if small.all() and not ((a >= hi) | (b <= lo)).any():
                # every row ends at its step, as below; a zero's step is 0
                roots[idx] = np.minimum(np.maximum(xn, a), b)
                break
            newton = inside & (size <= 0.5 * before)
            if newton.all() and not small.any():
                # A Newton step inside the bracket ends no row: the bracket
                # then holds x and the step, so it is wider than tol.
                before = last
                last = prev = size
                x = xn
                continue
            both = seen_a & seen_b
            # a reaches hi only where f(hi) > 0, b reaches lo only where f(lo) < 0
            fail = np.isnan(fx) | (a >= hi) | (b <= lo)
            zero = fx == 0.0
            done = fail | zero | small | (both & (b - a <= tol))
            if done.any():
                # The tolerance test comes first: a step that rounds back to
                # x or onto a bracket end still ends the row.
                end = done & ~fail
                roots[idx[end]] = np.where(zero, x, np.where(
                    small, np.minimum(np.maximum(xn, a), b), 0.5 * (a + b)))[end]
                roots[idx[fail]] = math.nan
                keep = ~done
                if not keep.any():
                    break
                idx, x, xn, a, b, pos, both = (v[keep] for v in (idx, x, xn, a, b, pos, both))
                seen_a, seen_b, last, newton = (v[keep] for v in (seen_a, seen_b, last, newton))
            grow = np.where(pos, np.minimum(hi, 2.0 * x), np.maximum(lo, 0.5 * x))
            x_next = np.where(newton, xn, np.where(both, 0.5 * (a + b), grow))
            before, last = last, np.abs(x_next - x)
            prev = np.where(newton, last, 0.0)
            x = x_next
        else:
            # out of iterations: a row whose sign change was seen ends at the
            # midpoint of its bracket; one that never saw both signs fails
            both = seen_a & seen_b
            roots[idx] = np.where(both, 0.5 * (a + b), math.nan)
    ok = ~np.isnan(roots)
    f_lo = np.full(n, math.nan)
    f_hi = f_lo.copy()
    if not ok.all():
        bad = np.flatnonzero(~ok)
        f_lo[bad] = fdf(np.full(bad.size, lo), bad)[0]
        f_hi[bad] = fdf(np.full(bad.size, hi), bad)[0]
    return roots, ok, f_lo, f_hi
