"""scipy.special as an oracle: the x log y terms of the fits' binomial
log-likelihood must be the same floats as SciPy's xlogy, and the
independent Poisson tail of the Fock-space oracles (oracles.poisson_sf) the
same values as pdtrc to 1e-9."""

import numpy as np
import pytest
from oracles import poisson_sf
from scipy import special as sc

from catscope import fits


def test_xlogy_equals_scipy():
    rng = np.random.default_rng(9)
    x = rng.integers(0, 2000, 20000).astype(float)
    x[::7] = 0.0
    y = rng.uniform(0.0, 1.0, 20000)
    y[::11] = 0.0
    y[::13] = 1.0
    y[::17] = 1e-300
    mine = [fits._xlogy(a, b) for a, b in zip(x.tolist(), y.tolist())]
    assert np.array_equal(mine, sc.xlogy(x, y))
    assert np.isnan(fits._xlogy(0.0, np.nan)) and np.isnan(fits._xlogy(1.0, -1.0))
    # the likelihood sums the terms of each point in SciPy's order
    n = x + rng.integers(0, 2000, 20000)
    for i in range(0, 20000, 10):
        k_, n_, p_ = x[i : i + 10], n[i : i + 10], y[i : i + 10]
        want = float(np.sum(sc.xlogy(k_, p_) + sc.xlogy(n_ - k_, 1.0 - p_)))
        assert fits._binom_ll(k_, n_, p_) == want


@pytest.mark.parametrize("m", [1e-8, 1e-3, 0.1, 1.0, 4.0, 12.0, 30.0, 144.0, 400.0, 2500.0])
def test_poisson_sf_matches_pdtrc(m):
    ks = np.unique(
        np.concatenate([np.arange(60), np.linspace(0, m + 50 * np.sqrt(m) + 80, 60).astype(int)])
    )
    for k in ks.tolist():
        ref = sc.pdtrc(k, m)
        got = poisson_sf(k, m)
        if ref < 1e-290:
            assert got < 1e-280, (k, m)
        else:
            assert got == pytest.approx(ref, rel=1e-9, abs=0.0), (k, m)
    assert poisson_sf(3, 0.0) == 0.0
