"""catscope.special against scipy.special: the ports must return the same
floats, and the independent Poisson tail of the Fock-space oracles
(oracles.poisson_sf) the same values to 1e-9."""

import numpy as np
import pytest
from oracles import poisson_sf
from scipy import special as sc

from catscope import special


def test_ndtr_equals_scipy():
    rng = np.random.default_rng(5)
    x = np.concatenate(
        [
            np.linspace(-40.0, 40.0, 80001),
            rng.normal(0.0, 3.0, 50000),
            # both sides of each branch: |a|/sqrt(2) at 1/sqrt(2), 1 and 8
            rng.uniform(-1.6, 1.6, 50000),
            rng.uniform(10.0, 12.5, 10000),
            -rng.uniform(10.0, 12.5, 10000),
            rng.normal(0.0, 1e-3, 10000),
            [0.0, -0.0, 1.0, -1.0, np.sqrt(2.0), -np.sqrt(2.0), -38.5, -37.5, 38.5],
        ]
    )
    mine = np.array([special.ndtr(v) for v in x.tolist()])
    assert np.array_equal(mine, sc.ndtr(x))
    assert np.isnan(special.ndtr(float("nan")))


def test_xlogy_equals_scipy():
    rng = np.random.default_rng(9)
    x = rng.integers(0, 2000, 20000).astype(float)
    x[::7] = 0.0
    y = rng.uniform(0.0, 1.0, 20000)
    y[::11] = 0.0
    y[::13] = 1.0
    y[::17] = 1e-300
    assert np.array_equal(special.xlogy(x, y), sc.xlogy(x, y))
    grid = special.xlogy([[0.0], [2.0]], [0.0, 0.5, 1.0])
    assert np.array_equal(grid, sc.xlogy([[0.0], [2.0]], [0.0, 0.5, 1.0]))
    assert np.isnan(special.xlogy(0.0, np.nan)) and np.isnan(special.xlogy(1.0, -1.0))


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
