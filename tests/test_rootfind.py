import numpy as np
import pytest
from scipy.optimize import brentq

from censem.errors import BracketError
from censem.rootfind import solve_bracketed


def family(k: np.ndarray):
    """Strictly decreasing test functions with roots spread over (0.05, 20):
    f_k(x) = c_k / x + d_k - x^p_k."""
    c = 0.5 + 0.37 * k
    d = np.sin(k) + 0.2
    p = 0.5 + 0.25 * (k % 7)
    return [lambda x, j=j: c[j] / x + d[j] - x ** p[j] for j in range(k.size)]


def test_bracketed_solve_matches_brentq_within_xtol():
    xtol = 1e-10
    for lo, hi in ((0.05, 20.0), (0.05, 14.0), (0.1, 30.0)):
        for f in family(np.arange(60.0)):
            ref = brentq(f, lo, hi, xtol=1e-14, rtol=1e-15)
            assert abs(solve_bracketed(f, lo, hi, xtol=xtol) - ref) <= xtol * max(1.0, lo + hi)


def test_bracketed_solve_endpoint_roots_are_exact():
    f = lambda x: 1.0 - x
    for lo, hi in ((1.0, 2.0), (0.5, 1.0)):
        assert solve_bracketed(f, lo, hi) == 1.0


def test_bracketed_solve_reports_no_sign_change():
    with pytest.raises(BracketError) as err:
        solve_bracketed(lambda x: 30.0 - x, 0.05, 20.0)
    assert (err.value.f_lo, err.value.f_hi) == (30.0 - 0.05, 10.0)
