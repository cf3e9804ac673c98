"""Acceptance gate: end-to-end checks of the numbers the package must
reproduce, each with an explicit tolerance and a wall-clock budget."""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest
from conftest import enumerate_posterior
from oracles import (
    LossChannel,
    displacement_operator,
    forward_backward,
    lindblad_evolve,
    population_fidelity,
    prepare_compass,
    record_rows,
    threshold_complement,
    to_density,
    transition_probability,
)

from catscope import pipeline
from catscope.darkmatter import (
    HaloParams,
    SearchPoint,
    coherence_time,
    g_of_t,
    lineshape,
    omega_m,
    rho_m_veff,
)
from catscope.fits import (
    FrequencyBin,
    background_subtract,
    epsilon_limit,
    threshold_sweep,
)
from catscope.fock import CatSpec, cat_state, required_dim
from catscope.hmm import build_model
from catscope.lindblad import cat_transition_probability
from catscope.measurement import DeviceParams, TrialConfig, run_campaign

POINT = SearchPoint(m_dm=2.0 * math.pi * 6.442e9, v_eff=4.45)
T1C = 4.6e-3


def test_mixing_limit_from_quoted_fit():
    t0 = time.monotonic()
    res = epsilon_limit(3.441e4, 1.660e4, POINT, rho_m_v=1.10e35)
    assert abs(res.eps90 - 7.32e-16) / 7.32e-16 < 5e-3
    assert time.monotonic() - t0 < 1.0


def test_coherence_time_and_lineshape_peak():
    t0 = time.monotonic()
    tau = coherence_time(POINT)
    assert abs(tau - 152e-6) / 152e-6 < 0.02
    m = POINT.m_dm
    peak = float(lineshape(omega_m(m), POINT)) * m
    assert abs(peak - 0.98e6) / 0.98e6 < 0.02
    assert time.monotonic() - t0 < 1.0


def test_signal_accumulation_regimes():
    t0 = time.monotonic()
    tau = coherence_time(POINT)
    early = tau / 100.0
    assert 0.95 <= g_of_t(early, POINT) / early**2 <= 1.05
    late = 20.0 * tau
    assert 0.9 <= g_of_t(late, POINT) / (tau * late) <= 1.1
    assert time.monotonic() - t0 < 10.0


def test_cat_enhancement_overlap_and_end_to_end(tmp_path):
    t0 = time.monotonic()
    beta = 0.05
    for a2 in (4.0, 6.0, 8.0, 10.0, 12.0):
        a = math.sqrt(a2)
        dim = required_dim(a + 1.0)
        c0 = cat_state(CatSpec(a, 4, 0), dim)
        c1 = cat_state(CatSpec(a, 4, 1), dim)
        d = displacement_operator(beta, dim)
        ratio = transition_probability(c1, d, c0) / (a2 * beta**2)
        assert 0.9 <= ratio <= 1.1, f"alpha^2={a2}: overlap ratio {ratio}"

    # the simulated detector shows the same gain end to end: slope of the
    # positive rate against injected occupation, cat probe over vacuum probe
    cfg = pipeline.apply_overrides(pipeline.default_config(), seed=11)
    cfg["calibration"]["trials"] = 10000
    final, _ = pipeline.run_command("calibrate", cfg, out_root=tmp_path)
    cal = json.loads((final / "calibration.json").read_text())
    assert 6.0 <= cal["enhancement"]["a12"] <= 12.0
    assert time.monotonic() - t0 < 300.0


def test_posterior_recursion_matches_path_enumeration():
    t0 = time.monotonic()
    dev = DeviceParams(p_leak=0.0)  # keep every symbol in the oracle alphabet
    records = []
    for init, reps_seed in ((CatSpec(2.0), 1000), (None, 2000)):
        for rep in (1, 2, 3, 4, 5, 6):
            camp = run_campaign(
                90,
                TrialConfig(
                    init=init, injected_beta=0.1, repeats=rep, rng_seed=reps_seed + rep
                ),
                dev,
            )
            records.extend(record_rows(camp.records))
    assert len(records) >= 1000

    for mode, a2 in (("compass", 4.0), ("vacuum", 1.0)):
        model = build_model(dev, alpha_sq=a2, mode=mode)
        worst = 0.0
        for r in records:
            p = np.array(forward_backward(model, r).p_phi)
            q = enumerate_posterior(model, r.symbols)
            worst = max(worst, float(np.max(np.abs(p - q) / np.maximum(q, 1e-300))))
        assert worst < 1e-12, f"{mode}: worst relative error {worst}"
    assert time.monotonic() - t0 < 60.0


def test_transition_closed_form_against_propagator():
    t0 = time.monotonic()
    kappa = 1.0 / T1C
    for a in (math.sqrt(2.0), 2.0):
        dim = required_dim(abs(a))
        cats = [cat_state(CatSpec(a, 4, j), dim) for j in range(4)]
        projs = [to_density(c).elements for c in cats]
        for t in (2e-4, 1e-3, 4e-3):
            for j in range(4):
                evolved = lindblad_evolve(to_density(cats[j]), LossChannel(kappa), t)
                for l in range(4):
                    p_num = float(
                        np.real(np.trace(evolved.rho_t.elements @ projs[l]))
                    )
                    p_cf = cat_transition_probability(4, j, l, a, kappa, t)
                    assert abs(p_num - p_cf) < 1e-6, (a, t, j, l)

    # short-time laws at the operating amplitudes: survival decays at the
    # photon rate; the three-loss transition opens at third order
    kt = 1e-3
    for a2 in (8.0, 12.0):
        a = math.sqrt(a2)
        p00 = cat_transition_probability(4, 0, 0, a, kappa, kt / kappa)
        assert abs((1.0 - p00) / (a2 * kt) - 1.0) < 0.03
        p01 = cat_transition_probability(4, 0, 1, a, kappa, kt / kappa)
        assert abs(p01 / ((a2 * kt) ** 3 / 6.0) - 1.0) < 0.10
    assert time.monotonic() - t0 < 120.0


def test_threshold_posterior_mapping_and_roc():
    t0 = time.monotonic()
    assert abs(threshold_complement(84.0) - 0.0118) < 1e-4

    dev = DeviceParams()
    camp = run_campaign(
        10000,
        TrialConfig(init=CatSpec(2.0), injected_beta=0.15, repeats=20, rng_seed=4242),
        dev,
    )
    model = build_model(dev, alpha_sq=4.0, mode="compass")
    rows = threshold_sweep(camp, model, np.geomspace(1e-2, 1e6, 25))
    eta = np.array([r.eta for r in rows])
    delta = np.array([r.delta for r in rows])
    assert np.all(np.diff(eta) <= 0.0)
    assert np.all(np.diff(delta) <= 0.0)
    # the detection band actually separates signal from background
    mid = [r for r in rows if r.threshold <= 84.0][-1]
    assert mid.eta > 10.0 * mid.delta > 0.0
    assert time.monotonic() - t0 < 60.0


def _binomial_bins(rng, n_bins=16, n=20000, eta=0.5, rate=1e-3, signal=None):
    omega = POINT.effective_omega_c()
    bins = []
    for i in range(n_bins):
        r = rate
        if signal is not None and i == signal[0]:
            r = rate + signal[1]
        k = int(rng.binomial(n, eta * r))
        bins.append(FrequencyBin(omega, k, n, eta, T1C))
    return bins


def test_scan_subtraction_recovery_and_coverage():
    t0 = time.monotonic()
    rng = np.random.default_rng(8)

    eps_true = 1.5e-16
    bump = eps_true**2 * rho_m_veff(POINT) * T1C * coherence_time(POINT)
    res = background_subtract(
        _binomial_bins(rng, n=50000, signal=(5, bump)), POINT
    )
    assert res.eta_fit == 1.0 - 1.0 / 16.0 == 0.9375
    p = np.array([b.p_i for b in res.bins])
    assert int(np.argmax(p)) == 5
    hot = res.bins[5]
    assert abs(hot.p_i - eps_true**2) < 3.0 * hot.sigma_p

    covered = 0
    total = 0
    for _ in range(200):
        clean = background_subtract(_binomial_bins(rng), POINT)
        for b in clean.bins:
            total += 1
            covered += b.p_i + 1.28 * b.sigma_p >= 0.0
    assert 0.85 <= covered / total <= 0.95
    assert time.monotonic() - t0 < 600.0


def test_prepared_cat_population_fidelity():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260818)
    dev = DeviceParams()
    a = math.sqrt(12.0)
    successes = 0
    while successes < 3:
        state, ok = prepare_compass(a, dev, rng)
        if not ok:
            continue
        successes += 1
        ideal = cat_state(CatSpec(a, 4, 0), state.dim)
        fid = population_fidelity(np.abs(state.amps) ** 2, np.abs(ideal.amps) ** 2)
        assert fid >= 0.88
    assert time.monotonic() - t0 < 60.0


def test_pipeline_runs_are_byte_identical(tmp_path):
    t0 = time.monotonic()
    cfg = pipeline.apply_overrides(pipeline.default_config(), seed=5, trials=300)
    trees = []
    for tag in ("first", "second"):
        root = tmp_path / tag
        for command in ("calibrate", "search", "tune-scan"):
            pipeline.run_command(command, cfg, out_root=root)
        pipeline.run_command("figures", cfg, out_root=root, which=["all"])
        tree = {}
        for p in sorted((root / "results").rglob("*")):
            if p.is_file():
                tree[str(p.relative_to(root))] = p.read_bytes()
        trees.append(tree)
    assert trees[0].keys() == trees[1].keys()
    for name in trees[0]:
        assert trees[0][name] == trees[1][name], f"{name} differs between runs"
    assert time.monotonic() - t0 < 300.0
