"""Statistics layer: calibration and search fits, limits, subtraction."""

from __future__ import annotations

import functools
import json
import math

import numpy as np
import pytest
from conftest import records_of
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import xlogy
from scipy.stats import truncnorm

from catscope import pipeline
from catscope.darkmatter import SearchPoint, coherence_time, g_of_t, rho_m_veff
from catscope.errors import (
    ConfigError,
    DegenerateDesign,
    SingleBin,
    ZeroBaseline,
    ZeroEfficiency,
    ZeroSignalDenominator,
)
from catscope.fits import (
    BackgroundResult,
    CalibrationCurve,
    ExclusionPoint,
    FitResult,
    FrequencyBin,
    SearchSeries,
    _truncated_gauss_q90,
    background_subtract,
    calibrate_detector,
    enhancement_factor,
    epsilon_limit,
    exclusion_to_csv,
    fit_result_to_json,
    search_fit,
    sweep_to_csv,
    threshold_sweep,
)
from catscope.fock import CatSpec
from catscope.hmm import build_model
from catscope.measurement import (
    CampaignResult,
    DeviceParams,
    Records,
    TrialConfig,
    run_campaign,
)

POINT = SearchPoint(m_dm=2.0 * math.pi * 6.442e9)

# published joint-fit values used to seed the synthetic generators
A0_REF = 3.441e4
B_REF = (-2.759, 0.889, 3.542, 6.913, 13.215)
C_REF = (1.130e-3, 1.158e-3, 1.645e-3, 2.244e-3, 3.142e-3)
ALPHAS = (4.0, 6.0, 8.0, 10.0, 12.0)
ETAS = (0.62, 0.66, 0.69, 0.71, 0.72)


# ---------------------------------------------------------------------------
# type validation


def test_calibration_curve_validation():
    CalibrationCurve(((0.0, 5, 100), (0.01, 8, 100), (0.02, 11, 100)), alpha_sq=10.0)
    with pytest.raises(ConfigError):
        CalibrationCurve((), alpha_sq=10.0)
    with pytest.raises(ConfigError):
        CalibrationCurve(((0.01, 101, 100),), alpha_sq=10.0)
    with pytest.raises(ConfigError):
        CalibrationCurve(((-0.01, 5, 100),), alpha_sq=10.0)
    with pytest.raises(ConfigError):
        CalibrationCurve(((0.01, 5, 100),), alpha_sq=0.0)


def test_fit_result_validation():
    good = FitResult({"a": 1.0, "b": 2.0}, np.eye(2), -10.0)
    assert good.stderr("b") == 1.0
    with pytest.raises(ConfigError):
        FitResult({"a": 1.0}, np.eye(2), -10.0)
    with pytest.raises(ConfigError):
        FitResult({"a": 1.0, "b": 2.0}, np.array([[1.0, 0.5], [0.0, 1.0]]), -10.0)
    with pytest.raises(ConfigError):
        FitResult({"a": 1.0, "b": 2.0}, np.array([[1.0, 2.0], [2.0, 1.0]]), -10.0)
    with pytest.raises(ConfigError):
        FitResult({"a": 1.0}, np.array([[np.nan]]), -10.0)


def test_exclusion_point_validation():
    p = ExclusionPoint(1.0, 2.0e-16, 1.0e-16, 2.0e-16 + 1.28e-16)
    assert p.eps90 > p.epsilon0
    with pytest.raises(ConfigError):
        ExclusionPoint(1.0, 2.0e-16, 1.0e-16, 4.0e-16)
    with pytest.raises(ConfigError):
        ExclusionPoint(1.0, -2.0e-16, 1.0e-16, -2.0e-16 + 1.28e-16)


def test_frequency_bin_validation():
    FrequencyBin(1.0e10, 5, 100, 0.5, 4.6e-3)
    with pytest.raises(ZeroEfficiency):
        FrequencyBin(1.0e10, 5, 100, 0.0, 4.6e-3)
    with pytest.raises(ZeroEfficiency):
        FrequencyBin(1.0e10, 5, 100, 1.5, 4.6e-3)
    with pytest.raises(ConfigError):
        FrequencyBin(1.0e10, 101, 100, 0.5, 4.6e-3)
    with pytest.raises(ConfigError):
        FrequencyBin(1.0e10, 5, 100, 0.5, 0.0)


def test_search_series_validation():
    s = SearchSeries(4.0, (1e-5, 2e-5), (3, 4), (100, 100))
    assert s.taus == (1e-5, 2e-5)
    with pytest.raises(ConfigError):
        SearchSeries(4.0, (1e-5,), (3, 4), (100, 100))
    with pytest.raises(ConfigError):
        SearchSeries(4.0, (1e-5, 2e-5), (300, 4), (100, 100))
    with pytest.raises(ConfigError):
        SearchSeries(0.0, (1e-5, 2e-5), (3, 4), (100, 100))


# ---------------------------------------------------------------------------
# calibration fit


def test_calibrate_recovers_known_rates():
    rng = np.random.default_rng(11)
    eta, delta, a2 = 0.3, 1e-3, 10.0
    n_inj = np.array([0.0, 0.002, 0.005, 0.01, 0.02, 0.04])
    n = 100000
    p = eta * a2 * n_inj + delta
    k = rng.binomial(n, p)
    curve = CalibrationCurve(tuple((x, int(c), n) for x, c in zip(n_inj, k)), a2)
    fit = calibrate_detector(curve)
    assert abs(fit.params["eta"] - eta) < 3.0 * fit.stderr("eta")
    assert abs(fit.params["delta"] - delta) < 3.0 * fit.stderr("delta")
    assert fit.stderr("eta") < 0.05 * eta
    assert np.isfinite(fit.log_likelihood)


def test_calibrate_flat_data_gives_eta_near_zero():
    rng = np.random.default_rng(12)
    n_inj = np.array([0.0, 0.01, 0.02, 0.04])
    n = 50000
    k = rng.binomial(n, 2e-3 * np.ones_like(n_inj))
    curve = CalibrationCurve(tuple((x, int(c), n) for x, c in zip(n_inj, k)), 10.0)
    fit = calibrate_detector(curve)
    assert abs(fit.params["eta"]) < 3.0 * fit.stderr("eta")
    assert abs(fit.params["delta"] - 2e-3) < 3.0 * fit.stderr("delta")


def test_calibrate_requires_three_injection_levels():
    curve = CalibrationCurve(((0.0, 5, 1000), (0.01, 35, 1000), (0.01, 33, 1000)), 10.0)
    with pytest.raises(DegenerateDesign):
        calibrate_detector(curve)


def test_enhancement_factor():
    assert_allclose(enhancement_factor(0.54, 12.0, 0.8), 8.1, rtol=1e-12)
    with pytest.raises(ZeroBaseline):
        enhancement_factor(0.5, 12.0, 0.0)


# ---------------------------------------------------------------------------
# joint search fit


def _make_search_series(rng, a0, taus, trials_per_point):
    series = []
    for i, a2 in enumerate(ALPHAS):
        gv = np.array([g_of_t(t, POINT) for t in taus])
        p = np.clip(a0 * ETAS[i] * a2 * gv + B_REF[i] * taus + C_REF[i], 0.0, 1.0)
        k = rng.binomial(trials_per_point, p)
        series.append(
            SearchSeries(a2, tuple(taus), tuple(int(x) for x in k), (trials_per_point,) * len(taus))
        )
    return series


def _binomial_ll(k, n, p):
    k, n = np.asarray(k, dtype=float), np.asarray(n, dtype=float)
    return float(np.sum(xlogy(k, p) + xlogy(n - k, 1.0 - p)))


def _search_ll(series, g, eta_alpha, a0, bs, cs):
    """Joint search log-likelihood, rate clipped to [0, 1], without the
    combinatorial constant."""
    total = 0.0
    for s, eta, b, c in zip(series, eta_alpha, bs, cs):
        taus = np.array(s.taus)
        gv = np.array([g(t) for t in taus])
        total += _binomial_ll(
            s.k_pos, s.n_trials, np.clip(a0 * eta * s.alpha_sq * gv + b * taus + c, 0.0, 1.0)
        )
    return total


def _assert_no_better_neighbour(ll_at, theta, widths, rng, nonneg_first=False):
    """No small feasible step along a coordinate or a random direction
    raises the log-likelihood.  It is concave, so this makes theta the
    global maximum."""
    theta = np.asarray(theta, dtype=float)
    best = ll_at(theta)
    directions = list(np.eye(theta.size)) + list(rng.normal(size=(2, theta.size)))
    for d in directions:
        for step in (1e-2, 1e-4, 1e-6, -1e-6, -1e-4, -1e-2):
            trial = theta + step * d * widths
            if nonneg_first and trial[0] < 0.0:
                continue
            assert ll_at(trial) <= best + 1e-9 * (1.0 + abs(best)), (d, step)


def test_search_fit_recovers_reference_parameters():
    rng = np.random.default_rng(21)
    # the grid must straddle the coherence-time knee; below it the signal
    # shape is indistinguishable from the per-series linear background
    taus = np.geomspace(2e-5, 6e-4, 8)
    series = _make_search_series(rng, A0_REF, taus, 6000)
    g = lambda t: g_of_t(t, POINT)
    fit = search_fit(series, g, ETAS)
    assert not fit.boundary_hit
    assert abs(fit.params["a0"] - A0_REF) < 3.0 * fit.stderr("a0")
    for i, a2 in enumerate(ALPHAS):
        assert abs(fit.params[f"b_{a2:g}"] - B_REF[i]) < 3.0 * fit.stderr(f"b_{a2:g}")
        assert abs(fit.params[f"c_{a2:g}"] - C_REF[i]) < 3.0 * fit.stderr(f"c_{a2:g}")


def test_search_fit_order_and_rebinning_invariance():
    rng = np.random.default_rng(22)
    taus = np.geomspace(3e-5, 5e-4, 6)
    series = _make_search_series(rng, A0_REF, taus, 4000)
    g = lambda t: g_of_t(t, POINT)
    fit = search_fit(series, g, ETAS)

    a0 = fit.params["a0"]
    bs = [fit.params[f"b_{a2:g}"] for a2 in ALPHAS]
    cs = [fit.params[f"c_{a2:g}"] for a2 in ALPHAS]

    # the likelihood itself must not care about dataset order
    order = [3, 0, 4, 1, 2]
    shuffled = [series[i] for i in order]
    ll_shuffled = _search_ll(
        shuffled, g, [ETAS[i] for i in order], a0, [bs[i] for i in order], [cs[i] for i in order]
    )
    assert abs(ll_shuffled - fit.log_likelihood) < 1e-9 * max(1.0, abs(fit.log_likelihood))

    # nor about splitting a tau point's trials in two at the same rate
    rebinned = []
    for s in series:
        taus2, k2, n2 = [], [], []
        for t, k, n in zip(s.taus, s.k_pos, s.n_trials):
            taus2 += [t, t]
            k2 += [k // 2, k - k // 2]
            n2 += [n // 2, n - n // 2]
        rebinned.append(SearchSeries(s.alpha_sq, tuple(taus2), tuple(k2), tuple(n2)))
    ll_rebinned = _search_ll(rebinned, g, ETAS, a0, bs, cs)
    assert abs(ll_rebinned - fit.log_likelihood) < 1e-9 * max(1.0, abs(fit.log_likelihood))

    # and the fitted optimum agrees to the same precision
    fit2 = search_fit(shuffled, g, [ETAS[i] for i in order])
    assert abs(fit2.log_likelihood - fit.log_likelihood) < 1e-7 * max(
        1.0, abs(fit.log_likelihood)
    )
    assert_allclose(fit2.params["a0"], fit.params["a0"], rtol=1e-3)

    # g does not depend on the probe, so the fit evaluates it once per
    # distinct tau, also when a tau repeats within a series
    calls = []
    fit3 = search_fit(rebinned, lambda t: calls.append(t) or g(t), ETAS)
    assert sorted(calls) == sorted(set(taus))
    assert fit3.log_likelihood == pytest.approx(fit.log_likelihood, rel=1e-7)


def test_search_fit_zero_signal_is_consistent_with_zero():
    rng = np.random.default_rng(23)
    taus = np.geomspace(3e-5, 5e-4, 6)
    series = _make_search_series(rng, 0.0, taus, 4000)
    g = lambda t: g_of_t(t, POINT)
    fit = search_fit(series, g, ETAS)
    assert fit.params["a0"] >= 0.0
    assert fit.params["a0"] < 3.0 * fit.stderr("a0")


def test_search_fit_sparse_counts_converge():
    # a 100-trial toy search (planted eps = 2e-15, supplied calibration):
    # sparse counts, several k = 0 rows on the clip kink at the optimum
    cfg = pipeline.default_config()
    point, halo = pipeline.build_point(cfg), pipeline.build_halo(cfg)
    taus = tuple(float(t) for t in cfg["search"]["tau_grid"])
    series = [
        SearchSeries(1.0, taus, (0, 0, 1, 2, 2, 2), (93, 96, 97, 99, 94, 98)),
        SearchSeries(12.0, taus, (0, 0, 1, 0, 0, 8), (94, 95, 97, 97, 96, 95)),
    ]
    etas = (0.6817656641694978, 0.689713184364616)
    g = lambda t: g_of_t(t, point, halo)
    fit = search_fit(series, g, etas)
    theta = np.array(list(fit.params.values()))

    def ll_at(th):
        return _search_ll(series, g, etas, th[0], th[1::2], th[2::2])

    assert abs(ll_at(theta) - fit.log_likelihood) < 1e-9 * abs(fit.log_likelihood)
    pooled = [sum(s.k_pos) / sum(s.n_trials) for s in series]
    assert fit.log_likelihood > _search_ll(series, g, etas, 0.0, [0.0, 0.0], pooled)
    coef = max(e * s.alpha_sq * g(t) for e, s in zip(etas, series) for t in taus)
    widths = np.array([1.0 / coef] + [1.0 / max(taus), 1.0] * 2)
    _assert_no_better_neighbour(ll_at, theta, widths, np.random.default_rng(97), True)


TAU_GRID = tuple(float(t) for t in np.geomspace(2e-5, 1.4e-4, 6))


@functools.lru_cache(maxsize=None)
def _g_cached(t):
    return g_of_t(t, POINT)


def _draw_counts(data, size, min_n):
    """(k, n) rows with n in [min_n, 150] and k often on 0 or n; one table
    in three is all zeros."""
    n = data.draw(st.lists(st.integers(min_n, 150), min_size=size, max_size=size))
    if data.draw(st.integers(0, 2)) == 0:
        return [0] * size, n
    k = [data.draw(st.one_of(st.just(0), st.just(m), st.integers(0, m))) for m in n]
    return k, n


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_search_fit_is_the_constrained_maximum(data):
    alphas = data.draw(st.permutations([1.0, 4.0, 12.0]))[: data.draw(st.integers(1, 3))]
    series, etas = [], []
    for a2 in alphas:
        taus = TAU_GRID[: data.draw(st.integers(2, 6))]
        k, n = _draw_counts(data, len(taus), 0)
        series.append(SearchSeries(a2, taus, tuple(k), tuple(n)))
        etas.append(data.draw(st.floats(0.05, 1.0)))
    fit = search_fit(series, _g_cached, etas)
    theta = np.array(list(fit.params.values()))

    def ll_at(th):
        return _search_ll(series, _g_cached, etas, th[0], th[1::2], th[2::2])

    assert abs(ll_at(theta) - fit.log_likelihood) <= 1e-9 * (1.0 + abs(fit.log_likelihood))
    assert theta[0] >= 0.0
    if fit.boundary_hit:
        assert theta[0] == 0.0
    coef = max(e * s.alpha_sq * _g_cached(t) for e, s in zip(etas, series) for t in s.taus)
    widths = np.array([1.0 / coef] + [1.0 / max(TAU_GRID), 1.0] * len(series))
    _assert_no_better_neighbour(ll_at, theta, widths, np.random.default_rng(0), True)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_calibrate_is_the_maximum(data):
    levels = data.draw(
        st.lists(st.sampled_from([0.0, 0.002, 0.005, 0.01, 0.02, 0.04]),
                 min_size=3, max_size=6, unique=True)
    )
    a2 = data.draw(st.sampled_from([1.0, 4.0, 12.0]))
    k, n = _draw_counts(data, len(levels), 1)
    fit = calibrate_detector(CalibrationCurve(tuple(zip(levels, k, n)), a2))
    theta = np.array([fit.params["eta"], fit.params["delta"]])
    x = a2 * np.array(levels)

    def ll_at(th):
        return _binomial_ll(k, n, np.clip(th[0] * x + th[1], 0.0, 1.0))

    assert abs(ll_at(theta) - fit.log_likelihood) <= 1e-9 * (1.0 + abs(fit.log_likelihood))
    widths = np.array([1.0 / x.max(), 1.0])
    _assert_no_better_neighbour(ll_at, theta, widths, np.random.default_rng(0))


def test_search_fit_validation():
    s = SearchSeries(4.0, (1e-5, 2e-5), (3, 4), (100, 100))
    g = lambda t: t * t
    with pytest.raises(ConfigError):
        search_fit([s], g, [0.5, 0.5])
    with pytest.raises(ConfigError):
        search_fit([s, s], g, [0.5, 0.5])
    bad = SearchSeries(4.0, (1e-5, 1e-5), (3, 4), (100, 100))
    with pytest.raises(DegenerateDesign):
        search_fit([bad], g, [0.5])


# ---------------------------------------------------------------------------
# exclusion limits


def test_epsilon_limit_reference_numbers():
    lim = epsilon_limit(3.441e4, 1.660e4, POINT, rho_m_v=1.10e35)
    assert_allclose(lim.eps90, 7.32e-16, rtol=5e-3)
    assert_allclose(lim.epsilon0, math.sqrt(3.441e4 / 1.10e35), rtol=1e-12)
    # the computed denominator sits within a percent of the rounded one
    lim2 = epsilon_limit(3.441e4, 1.660e4, POINT)
    assert_allclose(lim2.eps90, 7.32e-16, rtol=5e-3)


def test_epsilon_limit_scaling_and_edges():
    base = epsilon_limit(1.0e4, 2.0e3, POINT)
    quad = epsilon_limit(4.0e4, 8.0e3, POINT)
    assert_allclose(quad.epsilon0, 2.0 * base.epsilon0, rtol=1e-12)
    assert_allclose(quad.eps90, 2.0 * base.eps90, rtol=1e-12)

    exact = epsilon_limit(1.0e4, 0.0, POINT)
    assert exact.sigma_eps == 0.0
    assert exact.eps90 == exact.epsilon0

    fallback = epsilon_limit(0.0, 1.0e4, POINT)
    assert fallback.epsilon0 == 0.0
    assert_allclose(fallback.eps90, math.sqrt(1.28 * 1.0e4 / rho_m_veff(POINT)), rtol=1e-12)

    with pytest.raises(ZeroSignalDenominator):
        epsilon_limit(0.0, 0.0, POINT)
    with pytest.raises(ConfigError):
        epsilon_limit(-1.0, 1.0, POINT)


# ---------------------------------------------------------------------------
# threshold sweep


def _mixed_campaign(n_each=120):
    device = DeviceParams()
    spec = CatSpec(alpha=2.0, j=0)
    inj = run_campaign(
        n_each,
        TrialConfig(init=spec, injected_beta=0.15, repeats=20, rng_seed=31),
        device,
    )
    bg = run_campaign(
        n_each,
        TrialConfig(init=spec, repeats=20, rng_seed=32),
        device,
    )
    columns = ("symbols", "trial_ids", "init_sector", "injected", "sectors", "qubits")
    merged = {
        name: np.concatenate([getattr(inj.records, name), getattr(bg.records, name)])
        for name in columns
    }
    return CampaignResult(Records(mode="compass", **merged)), device


def test_threshold_sweep_monotone():
    campaign, device = _mixed_campaign()
    model = build_model(device, alpha_sq=4.0, mode="compass")
    rows = threshold_sweep(campaign, model, thresholds=(1e3, 0.5, 84.0, 2.0, 10.0))
    ths = [r.threshold for r in rows]
    assert ths == sorted(ths)
    etas = np.array([r.eta for r in rows])
    deltas = np.array([r.delta for r in rows])
    assert np.all(np.diff(etas) <= 1e-12)
    assert np.all(np.diff(deltas) <= 1e-12)
    assert np.all(deltas <= etas + 1e-12)
    for r in rows:
        if r.eta > 0.0:
            assert_allclose(r.ratio, r.delta / r.eta, rtol=1e-12)


def test_threshold_sweep_needs_truth():
    campaign = CampaignResult(records_of("GGG"))
    device = DeviceParams()
    model = build_model(device, alpha_sq=4.0)
    with pytest.raises(ConfigError):
        threshold_sweep(campaign, model, (1.0,))


# ---------------------------------------------------------------------------
# background subtraction


def _uniform_bins(rng, n_bins=16, n=50000, eta=0.5, rate=1e-3, signal=None):
    omega = POINT.effective_omega_c()
    bins = []
    for i in range(n_bins):
        r = rate
        if signal is not None and i == signal[0]:
            r = rate + signal[1]
        k = int(rng.binomial(n, eta * r))
        bins.append(FrequencyBin(omega, k, n, eta, 4.6e-3))
    return bins


def test_background_subtract_eta_fit_and_identical_bins():
    omega = POINT.effective_omega_c()
    bins = [FrequencyBin(omega, 50, 50000, 0.5, 4.6e-3) for _ in range(16)]
    res = background_subtract(bins, POINT)
    assert_allclose(res.eta_fit, 0.9375, rtol=1e-12)
    assert res.sigma_n == 0.0
    for b in res.bins:
        assert b.p_i == 0.0
        assert b.eps90 > 0.0


def test_background_subtract_common_offset_invariance():
    rng = np.random.default_rng(41)
    bins = _uniform_bins(rng)
    res = background_subtract(bins, POINT)
    # shift every bin's normalized rate by the same amount: +10 counts at
    # eta=0.5, n=50000 is exactly +4e-4 in n_i for every bin
    shifted = [
        FrequencyBin(b.omega_i, b.n_meas_i + 10, b.n_trials_i, b.eta_i, b.t1c_i)
        for b in bins
    ]
    res2 = background_subtract(shifted, POINT)
    p1 = np.array([b.p_i for b in res.bins])
    p2 = np.array([b.p_i for b in res2.bins])
    assert_allclose(p2, p1, rtol=1e-12, atol=0.0)


def test_background_subtract_recovers_injected_signal():
    rng = np.random.default_rng(42)
    eps_true = 1.5e-16
    s_unit = rho_m_veff(POINT) * 4.6e-3 * coherence_time(POINT)
    bump = eps_true**2 * s_unit
    bins = _uniform_bins(rng, signal=(5, bump))
    res = background_subtract(bins, POINT)
    p = np.array([b.p_i for b in res.bins])
    assert int(np.argmax(p)) == 5
    hot = res.bins[5]
    assert abs(hot.p_i - eps_true**2) < 3.0 * hot.sigma_p
    assert hot.eps90 > eps_true * 0.8


def test_background_subtract_zero_signal_coverage():
    rng = np.random.default_rng(43)
    covered = 0
    total = 0
    for _ in range(200):
        bins = _uniform_bins(rng, n=20000)
        res = background_subtract(bins, POINT)
        for b in res.bins:
            total += 1
            if b.p_i + 1.28 * b.sigma_p >= 0.0:
                covered += 1
    rate = covered / total
    assert 0.85 <= rate <= 0.95


def test_background_subtract_per_bin_mass():
    # bins spread across a band: under a single trial mass everything below
    # it has no response, but testing each bin against its own resonant mass
    # gives every bin a finite limit
    center = POINT.effective_omega_c()
    spacing = 2.0 * math.pi * 6e3
    bins = [
        FrequencyBin(center + (i - 7.5) * spacing, 50, 50000, 0.5, 4.6e-3)
        for i in range(16)
    ]
    with pytest.raises(ZeroSignalDenominator):
        background_subtract(bins, POINT)
    res = background_subtract(bins, POINT, per_bin_mass=True)
    assert len(res.bins) == 16
    for b in res.bins:
        assert b.p_i == 0.0
        assert math.isfinite(b.eps90) and b.eps90 > 0.0
    # every bin sits at the peak of its own line, so the reference signal is
    # nearly flat across the band and the limits are nearly equal
    e = np.array([b.eps90 for b in res.bins])
    assert e.max() / e.min() < 1.001


def test_background_subtract_errors():
    omega = POINT.effective_omega_c()
    with pytest.raises(SingleBin):
        background_subtract([FrequencyBin(omega, 5, 100, 0.5, 4.6e-3)], POINT)
    low = FrequencyBin(POINT.m_dm * 0.999, 5, 100, 0.5, 4.6e-3)
    ok = FrequencyBin(omega, 5, 100, 0.5, 4.6e-3)
    with pytest.raises(ZeroSignalDenominator):
        background_subtract([low, ok], POINT)


def test_truncated_quantile_against_scipy():
    for mu, sigma in [(2.0, 1.0), (0.0, 1.0), (-1.5, 0.5), (3e-32, 1e-32)]:
        want = truncnorm.ppf(0.9, a=(0.0 - mu) / sigma, b=np.inf, loc=mu, scale=sigma)
        got = _truncated_gauss_q90(mu, sigma)
        assert_allclose(got, want, rtol=1e-9)


# ---------------------------------------------------------------------------
# serialization


def test_fit_result_json_roundtrip():
    fit = FitResult({"a0": 3.0, "b_4": -2.0}, np.diag([1.0, 2.0]), -55.5)
    doc = json.loads(fit_result_to_json(fit))
    assert doc["params"]["a0"] == 3.0
    assert doc["covariance"][1][1] == 2.0
    assert doc["log_likelihood"] == -55.5
    assert doc["boundary_hit"] is False


def test_exclusion_csv_format():
    pts = [
        ExclusionPoint(2.0 * math.pi * 6.442e9, 5e-16, 1e-16, 5e-16 + 1.28e-16),
        ExclusionPoint(2.0 * math.pi * 6.443e9, 0.0, 1e-16, 1.28e-16),
    ]
    text = exclusion_to_csv(pts)
    lines = text.strip().split("\n")
    assert lines[0] == "m_dm_hz,eps90"
    first = lines[1].split(",")
    assert_allclose(float(first[0]), 6.442e9, rtol=1e-12)
    assert_allclose(float(first[1]), 5e-16 + 1.28e-16, rtol=1e-12)


def test_sweep_csv_format():
    campaign, device = _mixed_campaign(n_each=25)
    model = build_model(device, alpha_sq=4.0)
    rows = threshold_sweep(campaign, model, (1.0, 84.0))
    text = sweep_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "threshold,eta,delta,delta_over_eta"
    assert len(lines) == 3
    assert float(lines[1].split(",")[0]) == 1.0
