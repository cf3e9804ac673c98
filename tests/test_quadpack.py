"""The quadrature under darkmatter.g_of_t: its 16- and 32-node Gauss-Legendre
rules, mapped to [0, 1] and applied panel by panel as g_of_t applies them."""

import numpy as np
import pytest

from catscope import darkmatter


def test_qk21_integrates_degree_31_exactly():
    # the 16-node rule, like the 21-point Kronrod rule this test is named
    # for, is exact for polynomials up to degree 31; the 32-node rule too
    x = np.linspace(0.0, 1.0, 5)
    lo, h = x[:-1, None], np.diff(x)[:, None]
    values = 32.0 * (lo + h * darkmatter._NODES) ** 31
    # _WEIGHTS carries g's factor 2, so half of it integrates over [0, 1]
    result = 0.5 * h * (values @ darkmatter._WEIGHTS)
    for rule in range(2):
        assert result[:, rule] == pytest.approx(np.diff(x**32), rel=1e-14)
