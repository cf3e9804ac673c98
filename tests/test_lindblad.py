import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from oracles import (
    EvolutionResult,
    LossChannel,
    cat_state,
    cat_transition_probability,
    coherent_state,
    lindblad_evolve,
    required_dim,
    to_density,
    transition_curves_to_csv_reference,
)

from catscope import fock
from catscope.errors import InvalidIndex, NonFinite
from catscope.fock import CatSpec
from catscope.lindblad import transition_curves_to_csv


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


@pytest.mark.parametrize("a2", [1.0, 4.0, 12.0, 20.0])
def test_transition_curves_match_scalar_cells_bit_for_bit(a2):
    # the per-time blocks keep every product and the pairwise order of each
    # 256-term sum, so each cell equals the one-cell oracle exactly
    alpha = np.sqrt(a2)
    kappa = 1.0 / 3.0e-4
    times = np.linspace(0.0, 0.25 / kappa, 51)
    lines = ["t,j,l,p"]
    for t in times:
        for j in range(4):
            for l in range(4):
                p = cat_transition_probability(4, j, l, alpha, kappa, float(t))
                lines.append(f"{float(t)!r},{j},{l},{p!r}")
    assert transition_curves_to_csv(4, alpha, kappa, times) == "\n".join(lines) + "\n"


def test_transition_curves_argument_errors():
    with pytest.raises(InvalidIndex):
        transition_curves_to_csv(1, 2.0, 1.0, np.array([0.1]))
    with pytest.raises(ValueError, match="kappa"):
        transition_curves_to_csv(4, 2.0, -1.0, np.array([0.1]))
    with pytest.raises(ValueError, match="t must be"):
        transition_curves_to_csv(4, 2.0, 1.0, np.array([0.1, -0.1]))


def test_transition_curves_refuse_rounded_out_probabilities():
    # at |alpha|^2 = 0.02 the smallest sector's normalization is about 2e-5,
    # and the sums round a probability to 1.0000017; the 1e-9 tolerance
    # holds, and the failure is a catscope error, not a ValueError
    kappa = 1.0 / 4.6e-3
    times = np.linspace(0.0, 0.25 / kappa, 51)
    with pytest.raises(NonFinite, match=r"outside \[0, 1\]"):
        transition_curves_to_csv(4, np.sqrt(0.02), kappa, times)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("a2, kappa", [(4.0, 0.0), (4.0, 1.0 / 3.0e-4), (0.3, 2.0), (20.0, 1.0)])
def test_transition_curves_match_per_time_oracle(m, a2, kappa):
    # t = 0 twice, a repeated time and times out of order, each row its own
    scale = 1.0 / kappa if kappa else 1.0
    times = scale * np.array([0.0, 0.25, 0.0, 1e-6, 0.25, 0.05, 3.0])
    got = transition_curves_to_csv(m, np.sqrt(a2), kappa, times)
    assert got == transition_curves_to_csv_reference(m, np.sqrt(a2), kappa, times)
    assert got.count("\n") == 1 + times.size * m * m


def test_transition_curves_clamp_like_per_time_oracle():
    # at m = 3 and |alpha|^2 = 0.005 the sums round some probabilities to
    # about -2e-12, inside the 1e-9 tolerance, and both writers clamp them
    # to 0.0
    args = (3, np.sqrt(0.005), 1.0, np.array([0.0, 0.3, 0.3]))
    got = transition_curves_to_csv(*args)
    assert got == transition_curves_to_csv_reference(*args)
    ps = [float(row.split(",")[3]) for row in got.splitlines()[1:]]
    assert min(ps) == 0.0


def test_transition_curves_keep_negative_zero_like_per_time_oracle(monkeypatch):
    # normalizations of 1e300 underflow N_j N_l to 0.0, so a sum that rounds
    # below 0 gives p = -0.0; Python's min/max clamp keeps its sign, and so
    # must the array clamp (np.maximum(-0.0, 0.0) would not)
    def huge(m, j, a2):
        return 1e300

    monkeypatch.setattr(fock, "_sector_norm", huge)
    monkeypatch.setattr(oracles, "_sector_norm", huge)
    args = (3, np.sqrt(0.005), 1.0, np.array([0.0, 0.3]))
    got = transition_curves_to_csv(*args)
    assert got == transition_curves_to_csv_reference(*args)
    assert ",-0.0\n" in got and ",0.0\n" in got


@pytest.mark.parametrize(
    "m, a2, refusal",
    [
        (3, 0.001, r"outside \[0, 1\]"),
        (4, 0.001, r"sector j=3 .* normalization 2\.66"),
        (4, 0.02, r"outside \[0, 1\]"),
    ],
    ids=["3-0.001", "4-0.001", "4-0.02"],
)
def test_transition_curves_refuse_like_per_time_oracle(m, a2, refusal):
    # past the tolerance (about -1.1e-8 at m = 3 and |alpha|^2 = 0.001, and
    # at m = 4 and 0.02) both writers name the first such cell in row order;
    # at m = 4 and 0.001 sector 3's normalization, 2.7e-9, is refused first
    args = (m, np.sqrt(a2), 1.0, np.array([0.0, 0.3]))
    with pytest.raises(NonFinite) as ref:
        transition_curves_to_csv_reference(*args)
    with pytest.raises(NonFinite, match=refusal) as got:
        transition_curves_to_csv(*args)
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("m, alpha, sector", [(4, 1e-5, 1), (2, 3e-4, 1), (3, 0.0, 1)])
def test_transition_curves_refuse_a_vanishing_sector_normalization(m, alpha, sector):
    # a normalization at or below fock._MIN_CAT_NORM, which rounding
    # dominates, is a catscope error naming the first such sector.  At
    # alpha = 1e-5 and 0 one rounds to 0, where 1/N once raised a bare
    # ZeroDivisionError; at m = 2 and alpha = 3e-4 (N = 3.6e-7) rounding
    # took a probability to 1.00057 instead
    args = (m, alpha, 1.0, np.array([0.0, 1.0]))
    pattern = rf"sector j={sector} of the {m}-component cat .* normalization"
    with pytest.raises(NonFinite, match=pattern) as got:
        transition_curves_to_csv(*args)
    with pytest.raises(NonFinite) as ref:
        transition_curves_to_csv_reference(*args)
    assert str(got.value) == str(ref.value)


def test_transition_curves_scratch_stays_bounded():
    # one time's (m^2, m^4) block at a time: the figure's 51 times at m = 4
    # hold about 64 KB of block and 35 KB of text
    kappa = 1.0 / 3.0e-4
    times = np.linspace(0.0, 0.25 / kappa, 51)
    tracemalloc.start()
    try:
        text = transition_curves_to_csv(4, 2.0, kappa, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count("\n") == 1 + 51 * 16
    assert peak <= 2**20, peak / 2**10
