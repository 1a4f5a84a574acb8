"""Bracketed 1-D root finding and maximization used by the M-step solvers.

solve_bracketed_array runs the same root search over many brackets at
once, for the batched EM.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import BracketError, NonConvergenceError

_GOLDEN = 0.6180339887498949  # (sqrt(5) - 1) / 2


def solve_bracketed(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    xtol: float = 1e-10,
    max_iter: int = 200,
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
    for _ in range(max_iter):
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
    max_iter: int = 200,
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
    for _ in range(max_iter):
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


def solve_bracketed_array(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo,
    hi,
    xtol: float = 1e-10,
    max_iter: int = 200,
    f_lo=None,
    f_hi=None,
) -> np.ndarray:
    """solve_bracketed over many independent brackets at once.

    f(x, idx) returns the values at x of the functions numbered idx (a
    sorted index array), so each step evaluates only the brackets still
    open.  Every bracket takes exactly the steps solve_bracketed would
    take on it, Illinois halving included; the loop runs until the
    slowest one is done.  Raises BracketError, for the first offending
    bracket, when any bracket lacks a sign change.
    """
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    every = np.arange(a.size)
    fa = np.array(f(a, every) if f_lo is None else f_lo, dtype=float)
    fb = np.array(f(b, every) if f_hi is None else f_hi, dtype=float)
    out = np.where(fa == 0.0, a, b)
    open_ = (fa != 0.0) & (fb != 0.0)
    bad = open_ & (np.isnan(fa) | np.isnan(fb) | ((fa > 0.0) == (fb > 0.0)))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise BracketError(
            f"no sign change on [{a[k]}, {b[k]}]: f(lo)={fa[k]}, f(hi)={fb[k]}",
            lo=float(a[k]), hi=float(b[k]), f_lo=float(fa[k]), f_hi=float(fb[k]),
        )
    # Working arrays hold the open brackets only; idx maps them back.
    idx = np.flatnonzero(open_)
    a, b, fa, fb = a[idx], b[idx], fa[idx], fb[idx]
    side = np.zeros(idx.size, dtype=np.int8)
    for _ in range(max_iter):
        narrow = (b - a) <= xtol * np.maximum(1.0, np.abs(a) + np.abs(b))
        if narrow.any():
            out[idx[narrow]] = 0.5 * (a[narrow] + b[narrow])
            keep = ~narrow
            idx, a, b, fa, fb, side = idx[keep], a[keep], b[keep], fa[keep], fb[keep], side[keep]
        if idx.size == 0:
            return out
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            x = (a * fb - b * fa) / (fb - fa)
            # fa and fb have opposite signs, so their sum is finite
            # exactly when both are.
            secant = np.isfinite(fa + fb) & (a < x) & (x < b)
        x = np.where(secant, x, 0.5 * (a + b))
        fx = np.asarray(f(x, idx), dtype=float)
        # Illinois-weighted secant, as in solve_bracketed: when the same
        # side survives twice, the retained endpoint's value halves (a
        # no-op on an infinite value, which the scalar code skips).
        left = (fx > 0.0) == (fa > 0.0)
        fb_kept = np.where(side == -1, 0.5 * fb, fb)
        fa_kept = np.where(side == 1, 0.5 * fa, fa)
        a, fa = np.where(left, x, a), np.where(left, fx, fa_kept)
        b, fb = np.where(left, b, x), np.where(left, fb_kept, fx)
        side = np.where(left, -1, 1).astype(np.int8)
        stop = (fx == 0.0) | np.isnan(fx)
        if stop.any():
            out[idx[stop]] = x[stop]
            keep = ~stop
            idx, a, b, fa, fb, side = idx[keep], a[keep], b[keep], fa[keep], fb[keep], side[keep]
    out[idx] = 0.5 * (a + b)
    return out
