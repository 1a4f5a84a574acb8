from decimal import Decimal, localcontext

import numpy as np
import pytest

from censem import ComponentSpec, MixtureModel


@pytest.fixture
def reference_mixture() -> MixtureModel:
    """The workhorse two-component model used across the suite:
    20% exponential (17 ms) + 80% Weibull (2500 ms, shape 0.57)."""
    return MixtureModel(
        [0.2, 0.8],
        [ComponentSpec.exponential(17.0), ComponentSpec.weibull(2500.0, 0.57)],
    )


def weibull_pdf_direct(x, alpha, beta):
    """Plain linear-space density for quadrature oracles."""
    x = np.asarray(x, dtype=float)
    return (beta / alpha) * (x / alpha) ** (beta - 1.0) * np.exp(-((x / alpha) ** beta))


def d_series_decimal(a: float, z: float, terms: int = 200) -> float:
    """Brute-force 200-term summation of d_series at 60-digit precision."""
    with localcontext() as ctx:
        ctx.prec = 60
        s = Decimal(a) + 1
        log_z = Decimal(z).ln()
        total = Decimal(0)
        fact = Decimal(1)
        for p in range(terms):
            if p:
                fact *= p
            exponent = s + p
            term = (log_z * exponent).exp() / (fact * exponent * exponent)
            total += term if p % 2 == 0 else -term
        return float(total)
