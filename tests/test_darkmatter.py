import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import g_integrand_reference, g_of_t_reference
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from catscope.darkmatter import (
    C_KM_S,
    GEV_TO_RAD_PER_S,
    HaloParams,
    SearchPoint,
    coherence_time,
    excitation_probability,
    g_curve_to_csv,
    g_of_t,
    halo_speed_pdf,
    lineshape,
    lineshape_to_csv,
    omega_m,
    rho_m_veff,
)
from catscope.errors import QuadratureFailure

M_REF = 2.0 * np.pi * 6.442e9  # rad/s, the cavity band probed in the search


def test_halo_pdf_basics():
    halo = HaloParams()
    assert halo_speed_pdf(0.0, halo) == 0.0
    assert halo_speed_pdf(300.0, halo) > 0.0
    total, err = quad(lambda v: halo_speed_pdf(v, halo), 0.0, 3000.0)
    assert abs(total - 1.0) < 1e-6


def test_most_probable_signal_speed():
    # the energy-distribution peak (speed pdf over the 1/v phase-space
    # factor) sits at 237 km/s; the bare speed pdf peaks higher, near 311
    halo = HaloParams()
    res = minimize_scalar(
        lambda v: -halo_speed_pdf(v, halo) / v, bounds=(50.0, 600.0), method="bounded"
    )
    assert abs(res.x - 237.0) < 1.0
    mode = minimize_scalar(
        lambda v: -halo_speed_pdf(v, halo), bounds=(50.0, 600.0), method="bounded"
    )
    assert 250.0 < mode.x < 350.0


def test_halo_params_validation():
    with pytest.raises(ValueError):
        HaloParams(rho_dm=0.0)
    with pytest.raises(ValueError):
        HaloParams(v_vir=-1.0)


def test_lineshape_zero_below_mass():
    pt = SearchPoint(m_dm=M_REF)
    assert lineshape(0.999 * M_REF, pt) == 0.0
    assert lineshape(M_REF, pt) == 0.0
    assert lineshape(omega_m(M_REF), pt) > 0.0


def test_lineshape_peak_value_and_location():
    pt = SearchPoint(m_dm=M_REF)
    peak = lineshape(omega_m(M_REF), pt)
    assert peak * M_REF == pytest.approx(0.98e6, rel=0.02)
    # scanning around the nominal peak must not find anything much larger
    rels = np.linspace(1e-8, 1e-6, 400)
    vals = lineshape(M_REF * (1.0 + rels), pt)
    assert np.max(vals) <= peak * 1.01
    assert abs(rels[np.argmax(vals)] - 3e-7) < 5e-8


def test_lineshape_normalization():
    pt = SearchPoint(m_dm=M_REF)
    halo = HaloParams()
    hi = M_REF * (1.0 + ((halo.v_g + 6 * halo.v_vir) / C_KM_S) ** 2 / 2.0)
    total, err = quad(
        lambda w: lineshape(w, pt, halo), M_REF, hi, epsabs=0.0, epsrel=1e-9, limit=500
    )
    assert abs(total - 1.0) < 1e-6


def test_lineshape_scale_covariance():
    halo = HaloParams()
    k = 2.0
    pt1 = SearchPoint(m_dm=M_REF)
    pt2 = SearchPoint(m_dm=k * M_REF)
    for rel in (5e-8, 3e-7, 1e-6):
        w = M_REF * (1.0 + rel)
        f1 = lineshape(w, pt1, halo)
        f2 = lineshape(k * w, pt2, halo)
        assert f1 == pytest.approx(k * f2, rel=1e-6)


def test_coherence_time_reference_value():
    pt = SearchPoint(m_dm=M_REF)
    tau = coherence_time(pt)
    assert tau == pytest.approx(152e-6, rel=0.02)
    assert tau * M_REF / (2.0 * np.pi) == pytest.approx(0.98e6, rel=0.02)


def test_coherence_time_mass_scaling():
    t1 = coherence_time(SearchPoint(m_dm=M_REF))
    t2 = coherence_time(SearchPoint(m_dm=2.0 * M_REF))
    assert t1 / t2 == pytest.approx(2.0, rel=1e-6)


def test_g_of_t_asymptotes():
    pt = SearchPoint(m_dm=M_REF)
    tau = coherence_time(pt)
    early = g_of_t(tau / 100.0, pt)
    assert early / (tau / 100.0) ** 2 == pytest.approx(1.0, abs=0.05)
    late = g_of_t(20.0 * tau, pt)
    assert late / (tau * 20.0 * tau) == pytest.approx(1.0, abs=0.10)


def test_g_of_t_monotone():
    pt = SearchPoint(m_dm=M_REF)
    tau = coherence_time(pt)
    ts = tau * np.array([0.01, 0.1, 0.5, 1.0, 3.0, 10.0])
    gs = [g_of_t(float(t), pt) for t in ts]
    assert gs[0] == pytest.approx((tau * 0.01) ** 2, rel=0.05)
    assert np.all(np.diff(gs) > 0.0)
    assert g_of_t(0.0, pt) == 0.0


def test_g_of_t_asymptote_crossover_near_tau():
    pt = SearchPoint(m_dm=M_REF)
    tau = coherence_time(pt)
    c2 = g_of_t(tau / 100.0, pt) / (tau / 100.0) ** 2
    c1 = g_of_t(20.0 * tau, pt) / (20.0 * tau)
    crossing = c1 / c2
    assert tau / 2.0 < crossing < 2.0 * tau


def test_g_of_t_matches_quad_reference():
    # bit for bit against scipy.integrate.quad over the same breakpoints,
    # on the sensitivity-growth times and the default search tau grid
    from catscope import pipeline

    cfg = pipeline.default_config()
    point = pipeline.build_point(cfg)
    halo = pipeline.build_halo(cfg)
    tau = coherence_time(point, halo)
    times = [float(t) for t in np.geomspace(tau / 100.0, 20.0 * tau, 81)]
    times += [float(t) for t in cfg["search"]["tau_grid"]]
    expected = [g_of_t_reference(t, point, halo) for t in times]
    for t, ref in zip(times, expected):
        assert g_of_t(t, point, halo) == ref, t
    # all times in one call, as figures and search integrate them
    assert g_of_t(times, point, halo) == expected
    assert g_of_t([0.0] + times[::-7], point, halo) == [0.0] + expected[::-7]


@pytest.mark.parametrize(
    "halo",
    # the default, and a v_vir whose Python square 211.015**2 is one ulp
    # above the product 211.015 * 211.015
    [HaloParams(), HaloParams(v_vir=211.015, v_g=247.9)],
)
def test_g_integrand_reference_is_halo_speed_pdf_route(halo):
    # the oracle that g_of_t matches is the public speed pdf on arrays (as
    # g_of_t evaluates it) times t^2 sinc^2, bit for bit, across the whole
    # speed range
    from catscope import pipeline

    cfg = pipeline.default_config()
    point = pipeline.build_point(cfg)
    m, wc = point.m_dm, point.effective_omega_c()
    vmax = (halo.v_g + 6.0 * halo.v_vir) / C_KM_S
    vs = np.linspace(0.0, vmax, 301)
    f_v = (halo_speed_pdf(vs * C_KM_S, halo) * C_KM_S).tolist()
    tau = coherence_time(point, halo)
    for t in [tau / 100.0, tau, 20.0 * tau] + list(cfg["search"]["tau_grid"]):
        integrand = g_integrand_reference(t, point, halo)
        for v, f in zip(vs.tolist(), f_v):
            y = np.pi * ((m * (1.0 + v * v / 2.0) - wc) * t / 2.0 / np.pi)
            sinc = math.sin(y) / y if y else 1.0
            assert integrand(v) == f * t * t * (sinc * sinc), (t, v)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    t_over_tau=st.floats(1e-2, 20.0),
    m_ghz=st.floats(1.0, 20.0),
    detuning=st.one_of(st.none(), st.floats(-1e-6, 3e-6)),
    v_vir=st.floats(150.0, 300.0),
    v_g=st.floats(150.0, 300.0),
)
def test_g_of_t_matches_quad_reference_anywhere(t_over_tau, m_ghz, detuning, v_vir, v_g):
    m = 2.0 * np.pi * 1e9 * m_ghz
    wc = None if detuning is None else m * (1.0 + detuning)
    point = SearchPoint(m_dm=m, omega_c=wc)
    halo = HaloParams(v_vir=v_vir, v_g=v_g)
    t = t_over_tau * coherence_time(point, halo)
    ref = g_of_t_reference(t, point, halo)
    assert g_of_t(t, point, halo) == ref
    # and within a batch, beside shorter times
    assert g_of_t([t / 10.0, t, t / 3.0], point, halo)[1] == ref


def test_g_of_t_fails_quietly_on_extreme_inputs():
    # a mass of 1e-300 rad/s overflows the integrand; the quadrature carries
    # inf and NaN to the error check, which raises, with no numpy warning
    pt = SearchPoint(m_dm=1e-300)
    t = coherence_time(pt) / 100.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureFailure, match="accumulated quadrature error"):
            g_of_t(t, pt)


def test_excitation_probability_prefactor_anchor():
    # rho_DM * m_DM * V_eff for the defaults lands on the published
    # 1.10e35 1/s^2 (we keep more digits than the rounded table value)
    pt = SearchPoint(m_dm=M_REF)
    anchor = rho_m_veff(pt)
    assert anchor == pytest.approx(1.0946e35, rel=1e-3)
    assert anchor == pytest.approx(1.10e35, rel=0.01)


def test_excitation_probability_scalings():
    pt = SearchPoint(m_dm=M_REF)
    halo = HaloParams()
    tau = coherence_time(pt)
    t = 5.0 * tau
    base = excitation_probability(3e-16, pt, halo, t)
    assert base > 0.0
    assert excitation_probability(0.0, pt, halo, t) == 0.0
    assert excitation_probability(6e-16, pt, halo, t) == pytest.approx(
        4.0 * base, rel=1e-12
    )
    assert excitation_probability(3e-16, pt, halo, t, alpha_sq=12.0) == pytest.approx(
        12.0 * base, rel=1e-12
    )
    # the time dependence rides entirely on g(t)
    t2 = 12.0 * tau
    ratio = excitation_probability(3e-16, pt, halo, t2) / base
    assert ratio == pytest.approx(g_of_t(t2, pt, halo) / g_of_t(t, pt, halo), rel=1e-9)


def test_excitation_probability_perturbative_warning():
    pt = SearchPoint(m_dm=M_REF)
    tau = coherence_time(pt)
    with pytest.warns(UserWarning):
        excitation_probability(1e-13, pt, HaloParams(), 20.0 * tau)


def test_search_point_omega_default():
    pt = SearchPoint(m_dm=M_REF)
    assert pt.effective_omega_c() == omega_m(M_REF)
    pinned = SearchPoint(m_dm=M_REF, omega_c=M_REF * 1.0000001)
    assert pinned.effective_omega_c() == M_REF * 1.0000001


def test_csv_emitters():
    pt = SearchPoint(m_dm=M_REF)
    ws = M_REF * (1.0 + np.array([0.0, 3e-7, 1e-6]))
    text = lineshape_to_csv(ws, pt)
    lines = text.strip().split("\n")
    assert lines[0] == "omega,f"
    assert len(lines) == 4
    assert float(lines[1].split(",")[1]) == 0.0

    tau = coherence_time(pt)
    text = g_curve_to_csv([tau / 10.0, tau], pt)
    lines = text.strip().split("\n")
    assert lines[0] == "t,g,coherent_t_sq,incoherent_tau_t"
    t, g, c2, c1 = (float(x) for x in lines[1].split(","))
    assert g > 0.0 and c2 == pytest.approx(t * t) and c1 == pytest.approx(tau * t)


def test_gev_conversion_constant():
    # 1 GeV in rad/s: 1e9 * elementary charge / hbar
    assert GEV_TO_RAD_PER_S == pytest.approx(1.5192674e24, rel=1e-7)


def test_si_constants_match_scipy():
    # the exact SI literals are bit-equal to scipy.constants
    import scipy.constants

    from catscope import darkmatter

    assert darkmatter._E_CHARGE == scipy.constants.e
    assert darkmatter._HBAR == scipy.constants.hbar
    assert GEV_TO_RAD_PER_S == 1e9 * scipy.constants.e / scipy.constants.hbar
