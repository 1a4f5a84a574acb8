import math

import numpy as np
import pytest

from censem.errors import BracketError
from censem.rootfind import solve_bracketed, solve_bracketed_array


def family(k: np.ndarray):
    """Strictly decreasing test functions with roots spread over (0.05, 20):
    f_k(x) = c_k / x + d_k - x^p_k."""
    c = 0.5 + 0.37 * k
    d = np.sin(k) + 0.2
    p = 0.5 + 0.25 * (k % 7)

    def f(x, idx):
        return c[idx] / x + d[idx] - x ** p[idx]

    def scalar(j):
        return lambda x: c[j] / x + d[j] - x ** p[j]

    return f, scalar


def test_array_solve_matches_scalar_solve_within_xtol():
    k = np.arange(60.0)
    f, scalar = family(k)
    lo = np.full(k.size, 0.05)
    hi = 20.0 - 0.1 * k
    xtol = 1e-10
    roots = solve_bracketed_array(f, lo, hi, xtol=xtol)
    for j in range(k.size):
        ref = solve_bracketed(scalar(j), lo[j], hi[j], xtol=xtol)
        assert abs(roots[j] - ref) <= xtol * max(1.0, abs(lo[j]) + abs(hi[j]))


def test_array_solve_takes_the_scalar_steps():
    """Given the same function values the array solver reproduces the scalar
    Illinois path, so the roots agree exactly and cost the same evaluations."""
    k = np.arange(25.0)
    f, scalar = family(k)
    lo, hi = np.full(k.size, 0.1), np.full(k.size, 15.0)
    calls = np.zeros(k.size, dtype=int)

    def counted(x, idx):
        calls[idx] += 1
        return f(x, idx)

    roots = solve_bracketed_array(counted, lo, hi)
    for j in range(k.size):
        n = 0

        def g(x):
            nonlocal n
            n += 1
            return float(f(np.array([x]), np.array([j]))[0])

        assert roots[j] == solve_bracketed(g, lo[j], hi[j])
        assert calls[j] == n


def test_array_solve_endpoint_roots_and_bracket_errors():
    f = lambda x, idx: 1.0 - x
    assert solve_bracketed_array(f, np.array([1.0, 0.0]), np.array([2.0, 1.0])).tolist() == [1.0, 1.0]
    with pytest.raises(BracketError):
        solve_bracketed_array(f, np.array([0.0, 2.0]), np.array([3.0, 5.0]))
