import numpy as np
import pytest
from numpy.testing import assert_allclose
from oracles import (
    NegativeProbability,
    coherent_state,
    displacement_operator,
    population_fidelity,
    transition_probability,
)

from catscope.errors import DimMismatch, TruncationTooSmall
from catscope.fock import (
    CatSpec,
    PhaseGrid,
    StateVector,
    annihilation_operator,
    cat_state,
    required_dim,
    wigner,
    wigner_to_csv,
)


def test_required_dim_examples():
    # |alpha|^2 = 16 -> 16 + 28 + 10
    assert required_dim(4.0) == 54
    assert required_dim(0.0) == 10


def test_coherent_vacuum_population():
    psi = coherent_state(2.0, 64)
    # P_0 = e^{-|alpha|^2}
    assert_allclose(psi.populations()[0], np.exp(-4.0), rtol=1e-9)


def test_coherent_mean_photon():
    alpha = np.sqrt(12.0)
    psi = coherent_state(alpha, required_dim(alpha))
    assert abs(psi.mean_photon() - 12.0) < 1e-6


def test_coherent_norm_and_phase():
    psi = coherent_state(1.5 * np.exp(0.7j), 48)
    assert_allclose(np.sum(psi.populations()), 1.0, atol=1e-12)
    # amplitude phases follow n * arg(alpha)
    ratio = psi.amps[3] / abs(psi.amps[3])
    assert_allclose(ratio, np.exp(3 * 0.7j), atol=1e-10)


def test_coherent_truncation_guard():
    with pytest.raises(TruncationTooSmall):
        coherent_state(4.0, 20)


def test_coherent_overlap_closed_form():
    # <beta|gamma> = exp(-|b|^2/2 - |g|^2/2 + conj(b) g)
    b, g = 1.2, 0.4 + 0.9j
    dim = 48
    vb = coherent_state(b, dim).amps
    vg = coherent_state(g, dim).amps
    expected = np.exp(-abs(b) ** 2 / 2 - abs(g) ** 2 / 2 + np.conj(b) * g)
    assert_allclose(np.vdot(vb, vg), expected, atol=1e-10)


def test_displacement_on_vacuum_is_coherent():
    beta = 0.8 - 0.3j
    dim = 40
    d = displacement_operator(beta, dim)
    vac = np.zeros(dim, dtype=complex)
    vac[0] = 1.0
    moved = d @ vac
    ref = coherent_state(beta, dim).amps
    assert_allclose(moved[: dim // 2], ref[: dim // 2], atol=1e-8)
    # <0|D(1)|0> = e^{-1/2}
    d1 = displacement_operator(1.0, dim)
    assert_allclose(d1[0, 0], np.exp(-0.5), atol=1e-10)


def test_displacement_unitary_inner_half():
    d = displacement_operator(0.7 + 0.2j, 36)
    prod = d.conj().T @ d
    half = 18
    assert_allclose(prod[:half, :half], np.eye(36)[:half, :half], atol=1e-8)


def test_displacement_composition_phase():
    # D(b) D(g) = exp((b conj(g) - conj(b) g)/2) D(b+g)
    b, g = 0.3, 0.5j
    dim = 40
    lhs = displacement_operator(b, dim) @ displacement_operator(g, dim)
    phase = np.exp((b * np.conj(g) - np.conj(b) * g) / 2.0)
    rhs = phase * displacement_operator(b + g, dim)
    half = dim // 2
    assert_allclose(lhs[:half, :half], rhs[:half, :half], atol=1e-8)


def test_single_photon_transfer_probability():
    # |<1|D(0.1)|0>|^2 = 0.01 e^{-0.01}
    dim = 24
    d = displacement_operator(0.1, dim)
    assert_allclose(abs(d[1, 0]) ** 2, 0.01 * np.exp(-0.01), rtol=1e-9)


def test_cat_modular_support():
    alpha = np.sqrt(10.0)
    dim = required_dim(alpha)
    for j in range(4):
        psi = cat_state(CatSpec(alpha, 4, j), dim)
        pops = psi.populations()
        n = np.arange(dim)
        assert np.all(pops[n % 4 != j] == 0.0)
        assert pops[n % 4 == j].sum() == pytest.approx(1.0, abs=1e-12)


def test_cat_exact_normalization_differs_from_equal_weight():
    # for moderate alpha the four coherent components are not orthogonal,
    # so the exact constant differs measurably from 1/sqrt(M)
    alpha = 2.0
    dim = 42
    psi = cat_state(CatSpec(alpha, 4, 0), dim)
    coh = coherent_state(alpha, dim).amps
    # exact construction: renormalized sector restriction of |alpha>
    sector = np.where(np.arange(dim) % 4 == 0, coh, 0.0)
    assert_allclose(psi.amps, sector / np.linalg.norm(sector), atol=1e-12)
    sector_mass = np.sum(np.abs(sector) ** 2)
    assert abs(sector_mass - 0.25) > 1e-4


def test_cat_ladder_steps_down():
    # a |phi_j> lands on the j-1 (mod 4) cat up to normalization
    alpha = np.sqrt(10.0)
    dim = required_dim(alpha)
    a = annihilation_operator(dim)
    for j in range(4):
        src = cat_state(CatSpec(alpha, 4, j), dim)
        dst = cat_state(CatSpec(alpha, 4, (j - 1) % 4), dim)
        lowered = a @ src.amps
        lowered /= np.linalg.norm(lowered)
        overlap = abs(np.vdot(dst.amps, lowered))
        assert overlap == pytest.approx(1.0, abs=1e-9)


def test_cat_alpha_zero_limit():
    psi = cat_state(CatSpec(0.0, 4, 2), 12)
    expected = np.zeros(12)
    expected[2] = 1.0
    assert_allclose(psi.populations(), expected, atol=1e-15)


def test_wigner_vacuum_peak_and_gaussian():
    dim = 36
    vac = coherent_state(0.0, dim)
    grid = PhaseGrid(-1.0, 1.0, 5, -1.0, 1.0, 5)
    w = wigner(vac, grid)
    # center point: W(0) = 2/pi
    assert_allclose(w[2, 2], 2.0 / np.pi, rtol=1e-8)
    # W(z) = (2/pi) exp(-2|z|^2)
    zs = grid.points()
    assert_allclose(w, 2.0 / np.pi * np.exp(-2.0 * np.abs(zs) ** 2), rtol=1e-6)


def test_wigner_coherent_peak_location():
    alpha = 1.0
    dim = 64
    psi = coherent_state(alpha, dim)
    grid = PhaseGrid(0.0, 2.0, 21, -1.0, 1.0, 21)
    w = wigner(psi, grid)
    i, k = np.unravel_index(np.argmax(w), w.shape)
    z_peak = grid.points()[i, k]
    assert abs(z_peak - alpha) < 0.11
    assert w[i, k] == pytest.approx(2.0 / np.pi, rel=1e-6)


def _expm_wigner(rho, zs):
    """W on the points zs from expm-built displacement operators:
    (2/pi) Tr[P D(-z) rho D(-z)^dag], one operator per point."""
    dim = rho.shape[0]
    parity = np.diag((-1.0) ** np.arange(dim))
    w = np.zeros(zs.shape)
    for idx, z in np.ndenumerate(zs):
        d = displacement_operator(-z, dim)
        w[idx] = 2.0 / np.pi * np.real(np.trace(parity @ d @ rho @ d.conj().T))
    return w


def test_wigner_matches_expm_route():
    # the row-batched spectral displacement inside wigner() agrees with the
    # expm-built operator at every point of a non-square, off-centre grid,
    # so a swapped or transposed axis cannot pass
    dim = 48
    psi = coherent_state(0.9 - 0.4j, dim)
    grid = PhaseGrid(-0.7, 0.5, 3, 0.2, 1.3, 4)
    got = wigner(psi, grid)
    assert got.shape == (3, 4)
    expected = _expm_wigner(np.outer(psi.amps, psi.amps.conj()), grid.points())
    assert_allclose(got, expected, atol=1e-10)


def test_wigner_even_cat_fringe_period():
    # interference fringes along Im z at the origin oscillate with period
    # pi / (2 alpha) for the two-component even cat
    alpha = np.sqrt(10.0)
    dim = 60
    coh_p = coherent_state(alpha, dim).amps
    coh_m = coherent_state(-alpha, dim).amps
    even = coh_p + coh_m
    even /= np.linalg.norm(even)
    psi = StateVector(dim, even)
    period = np.pi / (2.0 * alpha)
    ys = np.linspace(0.0, 2.0 * period, 33)
    grid = PhaseGrid(0.0, 1e-9, 2, ys[0], ys[-1], 33)
    w = wigner(psi, grid)[0, :]
    # W(iy) ~ 2 e^{-2 y^2} cos(4 alpha y) / pi x (1 + e^{-2 alpha^2})
    envelope = np.exp(-2.0 * ys**2)
    model = 2.0 / np.pi * envelope * np.cos(4.0 * alpha * ys) / (
        1.0 + np.exp(-2.0 * alpha**2)
    )
    assert_allclose(w, model, atol=5e-4)
    # after dividing out the envelope, the first trough sits half a period
    # out at y = pi / (4 alpha): sample index 8 of 32 on this grid
    fringes = w / envelope
    assert int(np.argmin(fringes[:17])) == 8


def test_wigner_normalization_and_marginal():
    alpha = 1.0
    dim = 96
    psi = coherent_state(alpha, dim)
    span = 3.2
    grid = PhaseGrid(alpha - span, alpha + span, 49, -span, span, 49)
    w = wigner(psi, grid)
    dx = grid.re_axis()[1] - grid.re_axis()[0]
    dy = grid.im_axis()[1] - grid.im_axis()[0]
    total = np.trapezoid(np.trapezoid(w, dx=dy, axis=1), dx=dx)
    assert abs(total - 1.0) < 0.02
    # marginal over Im z reproduces the x-quadrature law
    # sqrt(2/pi) exp(-2 (x - alpha)^2)
    marg = np.trapezoid(w, dx=dy, axis=1)
    xs = grid.re_axis()
    expected = np.sqrt(2.0 / np.pi) * np.exp(-2.0 * (xs - alpha) ** 2)
    assert np.max(np.abs(marg - expected)) < 0.01


def test_wigner_budget_guard():
    psi = coherent_state(1.0, 16)
    grid = PhaseGrid(-3.0, 3.0, 5, -3.0, 3.0, 5)
    with pytest.raises(TruncationTooSmall):
        wigner(psi, grid)


def test_cat_displacement_sector_transfer():
    # a small displacement leaks |phi_0> into the neighboring sectors with
    # probability ~ |beta|^2 |alpha|^2 each
    alpha = np.sqrt(10.0)
    beta = 0.05
    dim = required_dim(alpha) + 4
    d = displacement_operator(beta, dim)
    src = cat_state(CatSpec(alpha, 4, 0), dim)
    dst = cat_state(CatSpec(alpha, 4, 1), dim)
    p = transition_probability(dst, d, src)
    assert p == pytest.approx(abs(beta) ** 2 * alpha**2, rel=0.05)


def test_cat_displacement_small_beta_scaling():
    # p / |beta|^2 converges to |alpha|^2 as beta -> 0
    alpha = np.sqrt(10.0)
    dim = required_dim(alpha) + 4
    src = cat_state(CatSpec(alpha, 4, 0), dim)
    dst = cat_state(CatSpec(alpha, 4, 1), dim)
    ratios = []
    for beta in (0.04, 0.02, 0.01):
        d = displacement_operator(beta, dim)
        ratios.append(transition_probability(dst, d, src) / beta**2)
    errs = [abs(r - alpha**2) for r in ratios]
    assert errs[2] < errs[1] < errs[0]
    assert ratios[2] == pytest.approx(alpha**2, rel=2e-3)


def test_transition_probability_dim_guard():
    a = coherent_state(0.5, 16)
    b = coherent_state(0.5, 20)
    with pytest.raises(DimMismatch):
        transition_probability(a, np.eye(16), b)


def test_population_fidelity_basics():
    p = np.array([0.5, 0.5])
    assert population_fidelity(p, p) == pytest.approx(1.0, abs=1e-14)
    assert population_fidelity([1.0, 0.0], [0.0, 1.0]) == 0.0
    # padding: shorter vector treated as zero beyond its length
    assert population_fidelity([1.0], [1.0, 0.0]) == pytest.approx(1.0)
    with pytest.raises(NegativeProbability):
        population_fidelity([-0.2, 0.6], [0.5, 0.5])


def test_population_fidelity_clips_rounding_noise():
    f = population_fidelity([1.0 - 1e-13, -1e-13], [1.0, 0.0])
    assert 0.0 <= f <= 1.0


def test_wigner_csv_layout():
    grid = PhaseGrid(0.0, 1.0, 2, 0.0, 2.0, 3)
    w = np.arange(6.0).reshape(2, 3)
    text = wigner_to_csv(grid, w)
    lines = text.strip().split("\n")
    assert lines[0] == "re_z,im_z,w"
    assert len(lines) == 7
    # row-major: Re outer, Im inner
    first = lines[1].split(",")
    second = lines[2].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0
    assert float(second[0]) == 0.0 and float(second[1]) == 1.0
    assert float(lines[6].split(",")[2]) == 5.0


def test_dim_property_random_states():
    rng = np.random.default_rng(11)
    for _ in range(20):
        dim = int(rng.integers(2, 30))
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        s = StateVector(dim, v)
        assert s.dim == dim
        assert_allclose(np.sum(s.populations()), 1.0, atol=1e-12)
