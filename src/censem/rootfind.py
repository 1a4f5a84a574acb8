"""Bracketed 1-D root finding and maximization.

golden_max serves the direct M-step's one profiled shape search per
Weibull component.  The mle M-step takes one Newton step per shape
(em_core._shape_step) and solves no root, so solve_bracketed (Illinois
secant) has no caller in the package; it stays a tested utility, and
em_core keeps its name importable for the benchmark's tracer.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import BracketError, NonConvergenceError

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
