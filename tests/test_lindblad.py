import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import (
    EvolutionResult,
    LossChannel,
    coherent_state,
    lindblad_evolve,
    to_density,
)

from catscope.errors import InvalidIndex
from catscope.fock import CatSpec, cat_state, required_dim
from catscope.lindblad import cat_transition_probability, transition_curves_to_csv


def test_loss_channel_validation():
    with pytest.raises(ValueError):
        LossChannel(kappa=0.0)
    with pytest.raises(ValueError):
        LossChannel(kappa=1.0, n_thermal=-0.1)
    ch = LossChannel(kappa=2.0, n_thermal=0.01)
    assert ch.kappa == 2.0


def test_zero_time_is_identity():
    rho = to_density(coherent_state(1.0, 20))
    res = lindblad_evolve(rho, LossChannel(kappa=1.0), 0.0)
    assert res.steps == 0
    assert res.rho_t is rho


def test_coherent_amplitude_decay():
    # |alpha> stays coherent with amplitude alpha e^{-kappa t/2}
    alpha, kt = 2.0, 0.2
    dim = 30
    rho0 = to_density(coherent_state(alpha, dim))
    res = lindblad_evolve(rho0, LossChannel(kappa=1.0), kt)
    target = coherent_state(alpha * np.exp(-kt / 2.0), dim).amps
    fid = float(np.real(np.vdot(target, res.rho_t.elements @ target)))
    assert fid > 1.0 - 1e-6
    assert res.steps > 0


def test_mean_photon_exponential_decay():
    ch = LossChannel(kappa=1.0)
    for rho0 in (
        to_density(coherent_state(1.5, 24)),
        to_density(cat_state(CatSpec(2.0, 4, 0), 30)),
    ):
        n0 = rho0.mean_photon()
        for kt in (0.1, 0.5, 1.0):
            res = lindblad_evolve(rho0, ch, kt)
            assert res.rho_t.mean_photon() == pytest.approx(
                n0 * np.exp(-kt), rel=1e-6
            )


def test_evolution_preserves_state_validity():
    rho0 = to_density(cat_state(CatSpec(2.0, 4, 1), 30))
    res = lindblad_evolve(rho0, LossChannel(kappa=1.0), 0.5)
    rho = res.rho_t.elements
    assert_allclose(np.trace(rho).real, 1.0, atol=1e-10)
    assert np.max(np.abs(rho - rho.conj().T)) == 0.0
    assert np.min(np.linalg.eigvalsh(rho)) > -1e-8


def test_thermal_occupation_approach():
    # with the heating dissipator at rate kappa*n_th the photon number obeys
    # d<n>/dt = -kappa(1 - n_th)<n> + kappa n_th
    nth = 0.05
    ch = LossChannel(kappa=1.0, n_thermal=nth)
    rho0 = to_density(coherent_state(0.0, 12))
    n_ss = nth / (1.0 - nth)
    for t in (0.5, 2.0):
        res = lindblad_evolve(rho0, ch, t)
        expected = n_ss * (1.0 - np.exp(-(1.0 - nth) * t))
        assert res.rho_t.mean_photon() == pytest.approx(expected, abs=1e-8)


def test_transition_probability_identity_at_zero_time():
    for j in range(4):
        for l in range(4):
            p = cat_transition_probability(4, j, l, np.sqrt(10.0), 1.0, 0.0)
            assert p == pytest.approx(1.0 if j == l else 0.0, abs=1e-12)


def test_transition_probability_oracle_against_integrator():
    # closed-form finite sum vs numerical propagation, all 16 sector pairs
    alpha = 2.0
    dim = required_dim(alpha)
    ch = LossChannel(kappa=1.0)
    cats = [cat_state(CatSpec(alpha, 4, l), dim) for l in range(4)]
    for j in range(4):
        rho0 = to_density(cats[j])
        for kt in (0.01, 0.1, 0.5):
            rho_t = lindblad_evolve(rho0, ch, kt).rho_t.elements
            for l in range(4):
                numeric = float(
                    np.real(np.vdot(cats[l].amps, rho_t @ cats[l].amps))
                )
                closed = cat_transition_probability(4, j, l, alpha, 1.0, kt)
                assert closed == pytest.approx(numeric, abs=1e-6)


def test_small_time_laws():
    alpha = np.sqrt(10.0)
    a2 = 10.0
    # sector survival: 1 - P00 = |alpha|^2 kappa t within 3%
    lam = 0.02
    t = lam / a2
    p00 = cat_transition_probability(4, 0, 0, alpha, 1.0, t)
    assert (1.0 - p00) == pytest.approx(lam, rel=0.03)
    # one loss lands in sector 3
    p03 = cat_transition_probability(4, 0, 3, alpha, 1.0, t)
    assert p03 == pytest.approx(lam, rel=0.05)
    # three losses reach sector 1: cubic onset
    lam = 0.05
    t = lam / a2
    p01 = cat_transition_probability(4, 0, 1, alpha, 1.0, t)
    assert p01 == pytest.approx(lam**3 / 6.0, rel=0.10)


def test_transition_closure_and_leakage():
    alpha = np.sqrt(10.0)
    sums = []
    for kt in (0.0, 0.01, 0.1, 0.5):
        s = sum(
            cat_transition_probability(4, 0, l, alpha, 1.0, kt) for l in range(4)
        )
        assert s <= 1.0 + 1e-9
        sums.append(s)
    assert sums[0] == pytest.approx(1.0, abs=1e-12)
    # leakage out of the original-amplitude cat manifold grows with time
    assert sums[0] >= sums[1] >= sums[2] >= sums[3]


def test_trace_distance_to_vacuum_monotone():
    dim = 24
    rho = to_density(cat_state(CatSpec(1.5, 4, 0), dim))
    vac = np.zeros((dim, dim), dtype=complex)
    vac[0, 0] = 1.0
    ch = LossChannel(kappa=1.0)
    dists = []
    for t in np.linspace(0.0, 3.0, 7):
        r = lindblad_evolve(rho, ch, float(t)).rho_t.elements
        dists.append(0.5 * np.sum(np.abs(np.linalg.eigvalsh(r - vac))))
    diffs = np.diff(dists)
    assert np.all(diffs <= 1e-9)


def test_transition_probability_index_errors():
    with pytest.raises(InvalidIndex):
        cat_transition_probability(4, 4, 0, 2.0, 1.0, 0.1)
    with pytest.raises(InvalidIndex):
        cat_transition_probability(4, 0, -1, 2.0, 1.0, 0.1)
    with pytest.raises(InvalidIndex):
        cat_transition_probability(1, 0, 0, 2.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        cat_transition_probability(4, 0, 0, 2.0, 1.0, -0.1)


def test_transition_curves_csv():
    text = transition_curves_to_csv(4, 2.0, 1.0, np.array([0.0, 0.1]))
    lines = text.strip().split("\n")
    assert lines[0] == "t,j,l,p"
    assert len(lines) == 1 + 2 * 16
    t, j, l, p = lines[1].split(",")
    assert float(t) == 0.0 and int(j) == 0 and int(l) == 0
    assert float(p) == pytest.approx(1.0, abs=1e-12)
