import math

import numpy as np
import pytest

from censem.errors import DomainError
from censem.rootfind import solve_bracketed, solve_newton_array


def family(k: np.ndarray):
    """Strictly decreasing test functions with roots spread over (0.05, 20):
    f_k(x) = c_k / x + d_k - x^p_k.  f(x, idx) gives values and derivatives."""
    c = 0.5 + 0.37 * k
    d = np.sin(k) + 0.2
    p = 0.5 + 0.25 * (k % 7)

    def f(x, idx):
        return c[idx] / x + d[idx] - x ** p[idx], -c[idx] / x**2 - p[idx] * x ** (p[idx] - 1.0)

    def scalar(j):
        return lambda x: c[j] / x + d[j] - x ** p[j]

    return f, scalar


def counting(f, n):
    """f, and the number of times each row was evaluated."""
    calls = np.zeros(n, dtype=int)

    def counted(x, idx):
        calls[idx] += 1
        return f(x, idx)

    return counted, calls


def test_newton_solve_matches_scalar_solve_within_xtol():
    k = np.arange(60.0)
    f, scalar = family(k)
    xtol = 1e-10
    for lo, hi in ((0.05, 20.0), (0.05, 14.0), (0.1, 30.0)):
        for start in (1.0, lo, hi, 0.5 * (lo + hi)):
            roots, ok, f_lo, f_hi = solve_newton_array(f, lo, hi, np.full(k.size, start), xtol=xtol)
            assert ok.all() and np.isnan(f_lo).all() and np.isnan(f_hi).all()
            for j in range(k.size):
                ref = solve_bracketed(scalar(j), lo, hi, xtol=xtol)
                assert abs(roots[j] - ref) <= xtol * max(1.0, abs(lo) + abs(hi))


def test_newton_solve_warm_start_takes_at_most_two_calls():
    """Started within 1e-3 relative of its root, every row ends after at
    most 2 evaluations: the second step's predicted successor is within
    the tolerance, and a step that rounds back onto x or onto a bracket
    end must end its row rather than fall back to bisection."""
    k = np.arange(60.0)
    f, scalar = family(k)
    ref = np.array([solve_bracketed(scalar(j), 0.05, 20.0) for j in range(k.size)])
    for rel in (1e-3, -1e-3, 1e-6, 0.0):
        counted, calls = counting(f, k.size)
        roots, ok, _, _ = solve_newton_array(counted, 0.05, 20.0, ref * (1.0 + rel))
        assert ok.all()
        assert calls.max() <= 2
        np.testing.assert_allclose(roots, ref, rtol=0.0, atol=1e-9)


def test_newton_solve_endpoint_roots_are_exact():
    f = lambda x, idx: (1.0 - x, np.full(x.size, -1.0))
    for lo, hi in ((1.0, 2.0), (0.5, 1.0), (1.0, 3.0)):
        roots, ok, _, _ = solve_newton_array(f, lo, hi, np.array([0.5 * (lo + hi), lo, hi]))
        assert ok.all()
        assert roots.tolist() == [1.0, 1.0, 1.0]


def test_newton_solve_reports_rows_without_sign_change():
    """Rows whose root lies outside [lo, hi] end with ok False and the
    endpoint values for the diagnostics; the other rows are unaffected."""
    k = np.arange(6.0)
    root = np.array([0.01, 0.5, 30.0, 2.0, 0.04, 25.0])
    f = lambda x, idx: (root[idx] - x, np.full(x.size, -1.0))
    lo, hi = 0.05, 20.0
    counted, calls = counting(f, k.size)
    roots, ok, f_lo, f_hi = solve_newton_array(counted, lo, hi, np.full(k.size, 1.0))
    bad = (root < lo) | (root > hi)
    assert ok.tolist() == (~bad).tolist()
    np.testing.assert_array_equal(roots[~bad], root[~bad])
    assert np.isnan(roots[bad]).all()
    np.testing.assert_array_equal(f_lo[bad], root[bad] - lo)
    np.testing.assert_array_equal(f_hi[bad], root[bad] - hi)
    assert np.isnan(f_lo[~bad]).all() and np.isnan(f_hi[~bad]).all()
    assert calls.max() <= 8


def test_newton_solve_nan_ends_its_row_only():
    k = np.arange(40.0)
    f, scalar = family(k)
    poisoned = 7

    def g(x, idx):
        value, slope = f(x, idx)
        return np.where(idx == poisoned, math.nan, value), slope

    counted, calls = counting(g, k.size)
    roots, ok, f_lo, f_hi = solve_newton_array(counted, 0.05, 20.0, np.full(k.size, 1.0))
    assert ok.tolist() == [j != poisoned for j in range(k.size)]
    assert np.isnan(roots[poisoned]) and np.isnan(f_lo[poisoned]) and np.isnan(f_hi[poisoned])
    # one evaluation ends the poisoned row; the two after it are its diagnostics
    assert calls[poisoned] == 3
    for j in range(k.size):
        if j != poisoned:
            assert abs(roots[j] - solve_bracketed(scalar(j), 0.05, 20.0)) <= 1e-10 * 20.05


def test_newton_solve_out_of_iterations():
    """A row still open after max_iter evaluations ends at the midpoint of
    its bracket where it has seen both signs, and fails where it has not."""
    f = lambda x, idx: (8.0 - x**3, -3.0 * x**2)
    # From 1, Newton overshoots the root 2 to 10/3; from 4 it stays above.
    roots, ok, f_lo, f_hi = solve_newton_array(f, 0.5, 10.0, np.array([1.0, 4.0]), max_iter=2)
    assert ok.tolist() == [True, False]
    assert roots[0] == pytest.approx(0.5 * (1.0 + 10.0 / 3.0), rel=1e-15)
    assert np.isnan(roots[1])
    assert (f_lo[1], f_hi[1]) == (8.0 - 0.125, 8.0 - 1000.0)


def test_newton_solve_rejects_a_bad_bracket():
    f = lambda x, idx: (1.0 - x, -np.ones(x.size))
    for lo, hi in ((0.0, 1.0), (2.0, 1.0), (-1.0, 1.0)):
        with pytest.raises(DomainError):
            solve_newton_array(f, lo, hi, np.array([0.5]))
