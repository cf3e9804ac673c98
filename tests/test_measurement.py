import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from conftest import noiseless_device
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from oracles import (
    PrepFailed,
    ReadoutRecord,
    displacement_operator,
    population_fidelity,
    prepare_compass,
    record_rows,
    simulate_record,
    transition_probability,
)
from scipy.stats import chi2

from catscope import measurement as ms
from catscope.darkmatter import SearchPoint, coherence_time, excitation_probability
from catscope.errors import ConfigError, InvalidMode
from catscope.fock import CatSpec, cat_state, required_dim


def test_device_defaults():
    d = ms.DeviceParams()
    assert d.chi == pytest.approx(2 * math.pi * 0.6e6)
    assert d.T1c == 4.6e-3
    assert d.t_m == 1.9e-6
    assert d.p_d == 0.013
    assert d.p_leak == 0.002


def test_device_validation():
    with pytest.raises(ConfigError):
        ms.DeviceParams(t_m=0.0)
    with pytest.raises(ConfigError):
        ms.DeviceParams(p_d=1.5)
    with pytest.raises(ConfigError):
        ms.DeviceParams(chi=0.0)
    with pytest.raises(ConfigError):
        ms.DeviceParams(n_q=-0.1)


def test_trial_config_validation():
    with pytest.raises(ConfigError):
        ms.TrialConfig(init=CatSpec(2.0), injected_beta=0.1, p_signal=0.01)
    for p in (-0.1, 1.5, math.nan):
        with pytest.raises(ConfigError, match="p_signal"):
            ms.TrialConfig(init=CatSpec(2.0), p_signal=p)
    with pytest.raises(ConfigError):
        ms.TrialConfig(repeats=0)
    with pytest.raises(ConfigError):
        ms.TrialConfig(init=CatSpec(2.0, m=2))
    assert ms.TrialConfig(init=CatSpec(2.0)).mode == "compass"
    assert ms.TrialConfig().mode == "vacuum"


def test_readout_record_validation():
    with pytest.raises(ConfigError):
        ReadoutRecord("GEX")
    r = ReadoutRecord("GEL", trial_id=3)
    assert r.leaked
    assert not ReadoutRecord("GE").leaked


def test_transition_rows_sum_to_one():
    d = ms.DeviceParams()
    for mode, size in (("compass", 8), ("vacuum", 4)):
        t = ms.build_transition_matrix(d, alpha_sq=12.0, mode=mode)
        assert t.shape == (size, size)
        assert np.all(t >= 0.0)
        assert_allclose(t.sum(axis=1), np.ones(size), atol=1e-12)


def test_invalid_mode():
    with pytest.raises(InvalidMode):
        ms.build_transition_matrix(ms.DeviceParams(), mode="squeezed")
    with pytest.raises(InvalidMode):
        ms.build_emission_matrix(ms.DeviceParams(), mode="squeezed")
    with pytest.raises(ConfigError):
        ms.build_transition_matrix(ms.DeviceParams(), alpha_sq=0.0, mode="compass")


def test_compass_loss_probability_value():
    # single-photon loss per check at twelve photons: 1 - exp(-12 t_m / T1c)
    t = ms.build_transition_matrix(ms.DeviceParams(), alpha_sq=12.0, mode="compass")
    p_down = t[0, 6] + t[0, 7]  # sector 0 -> 3, either qubit outcome
    assert p_down == pytest.approx(4.944e-3, rel=1e-3)


def test_qubit_factor_values():
    p_gg, p_ge, p_eg, p_ee = ms._qubit_factors(ms.DeviceParams())
    assert p_eg == pytest.approx(0.0142636, rel=1e-3)
    assert p_ge == pytest.approx(3.6237e-3, rel=1e-3)
    assert p_gg + p_ge == pytest.approx(1.0, abs=1e-15)
    assert p_ee + p_eg == pytest.approx(1.0, abs=1e-15)


def test_compass_matrix_structure():
    d = ms.DeviceParams()
    t = ms.build_transition_matrix(d, alpha_sq=8.0, mode="compass")
    p_gg, p_ge, p_eg, p_ee = ms._qubit_factors(d)
    for i in range(8):
        # even destination sectors split as a fair coin
        assert t[i, 0] == pytest.approx(t[i, 1], abs=1e-15)
        assert t[i, 4] == pytest.approx(t[i, 5], abs=1e-15)
    # no two-sector hops: phi_0 cannot reach phi_2 in one step
    assert t[0, 4] == 0.0 and t[1, 5] == 0.0
    # destination sector 1 flips the qubit ideally, sector 3 holds it
    p01 = t[0, 2] + t[0, 3]
    p03 = t[0, 6] + t[0, 7]
    assert t[0, 3] == pytest.approx(p01 * p_gg, rel=1e-12)
    assert t[0, 2] == pytest.approx(p01 * p_ge, rel=1e-12)
    assert t[0, 6] == pytest.approx(p03 * p_gg, rel=1e-12)
    assert t[1, 6] == pytest.approx(p03 * p_eg, rel=1e-12)
    assert t[1, 7] == pytest.approx(p03 * p_ee, rel=1e-12)


def test_vacuum_matrix_structure():
    d = ms.DeviceParams()
    t = ms.build_transition_matrix(d, mode="vacuum")
    p_gg, p_ge, p_eg, p_ee = ms._qubit_factors(d)
    p10 = 1.0 - math.exp(-d.t_m / d.T1c)
    p01 = d.n_c * p10
    # photon 0 keeps the qubit, photon 1 flips it
    assert t[0, 0] == pytest.approx((1 - p01) * p_gg, rel=1e-12)
    assert t[0, 3] == pytest.approx(p01 * p_gg, rel=1e-12)
    assert t[2, 0] == pytest.approx(p10 * p_gg, rel=1e-12)
    assert t[3, 1] == pytest.approx(p10 * p_ee, rel=1e-12)
    assert t[2, 3] == pytest.approx((1 - p10) * p_gg, rel=1e-12)


def test_short_interval_freezes_cavity():
    d = ms.DeviceParams(t_m=1e-30)
    t = ms.build_transition_matrix(d, alpha_sq=12.0, mode="compass")
    sector = t.reshape(4, 2, 4, 2).sum(axis=3)  # marginal over qubit outcome
    for q in range(2):
        assert_allclose(sector[:, q, :], np.eye(4), atol=1e-12)
    # with dephasing removed as well, the odd-sector kernels are deterministic
    d2 = ms.DeviceParams(t_m=1e-30, T2q=math.inf, n_q=0.0)
    t2 = ms.build_transition_matrix(d2, alpha_sq=12.0, mode="compass")
    assert t2[6, 6] == pytest.approx(1.0, abs=1e-12)  # phi_3 g stays put


def test_no_heating_closes_upward_hops():
    d = ms.DeviceParams(n_c=0.0)
    t = ms.build_transition_matrix(d, alpha_sq=6.0, mode="compass")
    for j in range(4):
        up = (j + 1) % 4
        assert t[2 * j, 2 * up] == 0.0
        assert t[2 * j, 2 * up + 1] == 0.0


def test_emission_matrices():
    d = ms.DeviceParams()
    e = ms.build_emission_matrix(d, mode="compass")
    assert e.shape == (8, 2)
    assert_allclose(e.sum(axis=1), np.ones(8), atol=1e-12)
    assert_allclose(e[0], [0.99, 0.01])
    assert_allclose(e[1], [0.01, 0.99])
    ev = ms.build_emission_matrix(d, mode="vacuum")
    assert ev.shape == (4, 2)
    assert_allclose(ev, 0.5 * e[:4], atol=1e-15)
    perfect = ms.build_emission_matrix(
        ms.DeviceParams(readout_Fge=0.0, readout_Fge_inv=0.0), mode="compass"
    )
    assert_allclose(perfect[::2], np.tile([1.0, 0.0], (4, 1)))
    assert_allclose(perfect[1::2], np.tile([0.0, 1.0], (4, 1)))


def test_noiseless_patterns():
    d = noiseless_device()
    alt = simulate_record(
        ms.TrialConfig(init=CatSpec(math.sqrt(12), j=1), repeats=20, rng_seed=7), d
    )
    assert alt.symbols == "GE" * 10
    const = simulate_record(
        ms.TrialConfig(init=CatSpec(math.sqrt(12), j=3), repeats=20, rng_seed=7), d
    )
    assert const.symbols == "G" * 20
    # vacuum probe with a large displacement sits in photon 1: alternating
    vac = simulate_record(
        ms.TrialConfig(injected_beta=10.0, repeats=12, rng_seed=7), d
    )
    assert vac.symbols == "GE" * 6
    empty = simulate_record(ms.TrialConfig(repeats=12, rng_seed=7), d)
    assert empty.symbols == "G" * 12


def test_fair_coin_flip_rate():
    d = noiseless_device()
    n_steps = 100_001
    rec = simulate_record(
        ms.TrialConfig(init=CatSpec(math.sqrt(12), j=0), repeats=n_steps, rng_seed=11),
        d,
    )
    s = np.frombuffer(rec.symbols.encode(), dtype=np.uint8)
    flips = float(np.mean(s[1:] != s[:-1]))
    sigma = math.sqrt(0.25 / (n_steps - 1))
    assert abs(flips - 0.5) < 5 * sigma


def test_demolition_scrambles_sectors():
    d = noiseless_device(p_d=1.0)
    rec = simulate_record(
        ms.TrialConfig(init=CatSpec(math.sqrt(12), j=3), repeats=200, rng_seed=3), d
    )
    assert set(rec.truth["sectors"]) == {0, 1, 2, 3}


def test_mimic_injection_matches_overlap():
    alpha, beta = 2.0, 0.1
    dim = required_dim(alpha + beta)
    target = cat_state(CatSpec(alpha, j=1), dim)
    start = cat_state(CatSpec(alpha, j=0), dim)
    p_ref = transition_probability(target, displacement_operator(beta, dim), start)

    cfg = ms.TrialConfig(
        init=CatSpec(alpha), injected_beta=beta, repeats=2, rng_seed=19
    )
    res = ms.run_campaign(20_000, cfg, noiseless_device())
    frac = int((res.records.init_sector == 1).sum()) / 20_000
    sigma = math.sqrt(p_ref * (1 - p_ref) / 20_000)
    assert abs(frac - p_ref) < 3 * sigma


def test_dm_injection_truth_fraction():
    point = SearchPoint(m_dm=2 * math.pi * 6.442e9)
    p = excitation_probability(3e-16, point, t=coherence_time(point), alpha_sq=12.0)
    assert 1e-3 < p < 0.1
    cfg = ms.TrialConfig(
        init=CatSpec(math.sqrt(12)), p_signal=p, repeats=2, rng_seed=23
    )
    res = ms.run_campaign(10_000, cfg, noiseless_device())
    frac = int(res.records.injected.sum()) / 10_000
    sigma = math.sqrt(p * (1 - p) / 10_000)
    assert abs(frac - p) < 3 * sigma


def test_leak_fraction():
    cfg = ms.TrialConfig(init=CatSpec(math.sqrt(4)), repeats=20, rng_seed=5)
    res = ms.run_campaign(10_000, cfg, ms.DeviceParams())
    p = 1.0 - (1.0 - 0.002) ** 20
    frac = int(res.records.leaked.sum()) / 10_000
    sigma = math.sqrt(p * (1 - p) / 10_000)
    assert abs(frac - p) < 3 * sigma


def test_campaign_determinism():
    cfg = ms.TrialConfig(init=CatSpec(2.0), injected_beta=0.05, repeats=8, rng_seed=42)
    d = ms.DeviceParams()
    a = ms.run_campaign(200, cfg, d)
    b = ms.run_campaign(200, cfg, d)
    rows_a, rows_b = record_rows(a.records), record_rows(b.records)
    assert [r.symbols for r in rows_a] == [r.symbols for r in rows_b]
    assert [r.trial_id for r in rows_a] == list(range(200))
    assert a.records.injected.sum() == b.records.injected.sum()
    assert a.records.leaked.sum() == b.records.leaked.sum()
    assert np.array_equal(
        np.bincount(a.records.init_sector, minlength=4),
        np.bincount(b.records.init_sector, minlength=4),
    )


# ---------------------------------------------------------------------------
# per-trial streams against numpy's own generator


def _numpy_streams(rng_seed, n_trials, n_draws):
    """Row k: Generator(PCG64([rng_seed, k])).random(n_draws), one
    generator per trial as numpy builds it."""
    return np.array(
        [
            np.random.Generator(np.random.PCG64([rng_seed, k])).random(n_draws)
            for k in range(n_trials)
        ]
    )


def _vector_streams(rng_seed, n_trials, repeats):
    """_trial_uniforms with every warning raised: its uint64 arithmetic
    must wrap silently, without numpy's overflow warnings."""
    cfg = ms.TrialConfig(repeats=repeats, rng_seed=rng_seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return ms._trial_uniforms(cfg, n_trials)


@pytest.mark.parametrize("repeats", [1, 20, 32])
@pytest.mark.parametrize("n_trials", [1, 127, 128, 129, 257])
@pytest.mark.parametrize("rng_seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_trial_uniforms_match_numpy_streams(rng_seed, n_trials, repeats):
    # seeds of one and two uint32 words, k = 0 and both sides of the tile
    # edges (128 trials, 128 draws: repeats 32 gives 129 draws); a change
    # to numpy's SeedSequence or PCG64 also trips this
    got = _vector_streams(rng_seed, n_trials, repeats)
    assert got.shape == (n_trials, 1 + 4 * repeats)
    assert np.array_equal(got, _numpy_streams(rng_seed, n_trials, 1 + 4 * repeats))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    rng_seed=st.integers(0, 2**64 - 1),
    n_trials=st.integers(1, 300),
    repeats=st.integers(1, 40),
)
def test_trial_uniforms_match_numpy_for_any_seed(rng_seed, n_trials, repeats):
    expected = _numpy_streams(rng_seed, n_trials, 1 + 4 * repeats)
    assert np.array_equal(_vector_streams(rng_seed, n_trials, repeats), expected)


def test_campaign_rejects_trial_ids_beyond_uint32(monkeypatch):
    # trial ids are single uint32 entropy words; the guard must fire before
    # the draws (terabytes at this size) are built, which the stub refuses
    def refuse(cfg, n_trials):
        raise AssertionError(f"drawing {n_trials} trials")

    monkeypatch.setattr(ms, "_trial_uniforms", refuse)
    cfg = ms.TrialConfig(init=CatSpec(2.0), repeats=20)
    with pytest.raises(ConfigError, match="n_trials"):
        ms.run_campaign(2**32 + 1, cfg, ms.DeviceParams())


def test_prepare_ideal_lands_on_cat():
    rng = np.random.default_rng(0)
    d = noiseless_device()
    alpha = math.sqrt(10)
    ideal = cat_state(CatSpec(alpha), required_dim(alpha))
    got = None
    for _ in range(200):
        state, ok = prepare_compass(alpha, d, rng)
        if ok:
            got = state
            break
    assert got is not None
    overlap = abs(np.vdot(ideal.amps, got.amps)) ** 2
    assert overlap > 1.0 - 1e-6


def test_prepare_vacuum_always_succeeds():
    rng = np.random.default_rng(1)
    d = noiseless_device()
    for _ in range(100):
        state, ok = prepare_compass(0.0, d, rng)
        assert ok
        assert abs(state.amps[0]) ** 2 > 1.0 - 1e-9


def test_prepare_postselection_misses_happen():
    rng = np.random.default_rng(2)
    d = noiseless_device()
    flags = [prepare_compass(math.sqrt(10), d, rng)[1] for _ in range(100)]
    assert any(flags) and not all(flags)


def test_prepare_leak_raises():
    rng = np.random.default_rng(3)
    with pytest.raises(PrepFailed):
        prepare_compass(2.0, noiseless_device(p_leak=1.0), rng)


def test_prepare_noisy_population_fidelity():
    rng = np.random.default_rng(4)
    d = ms.DeviceParams()
    alpha = math.sqrt(12)
    ideal = cat_state(CatSpec(alpha), required_dim(alpha))
    pops = []
    attempts = 0
    while len(pops) < 150 and attempts < 3000:
        attempts += 1
        try:
            state, ok = prepare_compass(alpha, d, rng)
        except PrepFailed:
            continue
        if ok:
            pops.append(state.populations())
    assert len(pops) >= 150
    mean_pops = np.mean(pops, axis=0)
    fid = population_fidelity(mean_pops, ideal.populations())
    assert 0.88 <= fid < 1.0


def test_mimic_populations_cached_and_normalized():
    pops = ms._mimic_sector_populations(2.0, 4, 0, 0.1)
    assert len(pops) == 4
    assert sum(pops) == pytest.approx(1.0, abs=1e-12)
    assert pops[0] > 0.9
    again = ms._mimic_sector_populations(2.0, 4, 0, 0.1)
    assert pops == again


# ---------------------------------------------------------------------------
# batched campaign against the scalar oracle

_POINT = SearchPoint(m_dm=2 * math.pi * 6.442e9)
# keyword arguments by the probe's |alpha|^2; the signal probability is the
# excitation probability at that |alpha|^2, as the commands compute it
_INJECTIONS = {
    "none": lambda a2: {},
    "beta": lambda a2: {"injected_beta": 0.3},
    "dm": lambda a2: {
        "p_signal": excitation_probability(
            2e-15, _POINT, t=coherence_time(_POINT), alpha_sq=a2
        )
    },
}


@pytest.mark.parametrize("repeats", [1, 20])
@pytest.mark.parametrize("p_d", [0.0, 0.013])
@pytest.mark.parametrize("injection", sorted(_INJECTIONS))
@pytest.mark.parametrize("probe", ["compass", "vacuum"])
def test_campaign_matches_simulate_record(probe, injection, p_d, repeats):
    init = CatSpec(math.sqrt(12)) if probe == "compass" else None
    a2 = abs(init.alpha) ** 2 if init is not None else 1.0
    cfg = ms.TrialConfig(
        init=init,
        repeats=repeats,
        rng_seed=2**63 + 12345,
        **_INJECTIONS[injection](a2),
    )
    device = ms.DeviceParams(p_d=p_d, p_leak=0.05)
    res = ms.run_campaign(150, cfg, device)
    assert len(res.records) == 150
    for k, got in enumerate(record_rows(res.records)):
        ref = simulate_record(cfg, device, trial_id=k)
        assert (got.symbols, got.trial_id, got.truth) == (
            ref.symbols,
            ref.trial_id,
            ref.truth,
        )


def _hop_p_value(records, transition):
    """Chi-square p-value of the joint (sector, qubit) hop counts against a
    transition matrix; cells expecting fewer than 5 hops are pooled per row."""
    n = transition.shape[0]
    state = 2 * records.sectors.astype(int) + records.qubits
    counts = np.zeros((n, n))
    np.add.at(counts, (state[:, :-1].ravel(), state[:, 1:].ravel()), 1.0)
    assert np.all(counts[transition == 0.0] == 0.0), "hop the matrix forbids"
    expected = counts.sum(axis=1, keepdims=True) * transition
    stat, dof = 0.0, 0
    for obs, exp in zip(counts, expected):
        big = exp >= 5.0
        o = np.append(obs[big], obs[~big].sum())
        e = np.append(exp[big], exp[~big].sum())
        used = e > 0.0
        stat += float(np.sum((o[used] - e[used]) ** 2 / e[used]))
        dof += max(int(used.sum()) - 1, 0)
    return float(chi2.sf(stat, dof))


@pytest.mark.parametrize("probe", ["compass", "vacuum"])
def test_campaign_hops_follow_transition_matrix(probe):
    # fast cavity and qubit rates, so every hop is visited many times
    fast = dict(T1c=2e-5, n_c=0.2, T1q=2e-5, n_q=0.2, T2q=1e-4, p_leak=0.0)
    device = ms.DeviceParams(p_d=0.0, **fast)
    init = CatSpec(2.0) if probe == "compass" else None
    cfg = ms.TrialConfig(init=init, repeats=20, rng_seed=77)
    records = ms.run_campaign(3000, cfg, device).records
    t = ms.build_transition_matrix(device, alpha_sq=4.0, mode=probe)
    assert _hop_p_value(records, t) > 1e-3
    # the test sees a 25% error in the cavity lifetime
    wrong = ms.build_transition_matrix(
        ms.DeviceParams(p_d=0.0, **{**fast, "T1c": 2.5e-5}), alpha_sq=4.0, mode=probe
    )
    assert _hop_p_value(records, wrong) < 1e-6


# ---------------------------------------------------------------------------
# columnar records and the JSONL boundary


def test_records_indexing_matches_iteration():
    cfg = ms.TrialConfig(init=CatSpec(2.0), injected_beta=0.2, repeats=7, rng_seed=3)
    recs = ms.run_campaign(40, cfg, ms.DeviceParams(p_leak=0.05)).records
    rows = record_rows(recs)
    assert recs.symbols.dtype == np.uint8 and recs.symbols.shape == (40, 7)
    assert record_rows(recs[5:6]) == [rows[5]]
    assert record_rows(recs[-1:]) == [rows[-1]]
    mask = recs.leaked
    assert [r.symbols for r in record_rows(recs[mask])] == [
        r.symbols for r in rows if r.leaked
    ]
    assert record_rows(recs[10:13]) == rows[10:13]
    with pytest.raises(TypeError):
        iter(recs)  # rows come from record_rows, never from iterating


@pytest.mark.parametrize("probe", ["compass", "vacuum"])
def test_jsonl_matches_json_dumps(probe):
    init = CatSpec(2.0) if probe == "compass" else None
    cfg = ms.TrialConfig(init=init, injected_beta=0.4, repeats=9, rng_seed=8)
    recs = ms.run_campaign(120, cfg, ms.DeviceParams(p_leak=0.05)).records
    bare = ms.Records(recs.symbols, recs.trial_ids)
    # with truth columns the truth key is written, without them it is not
    for records, has_truth in ((recs, True), (bare, False)):
        objs = []
        for r in record_rows(records):
            obj = {"trial_id": r.trial_id, "symbols": r.symbols}
            if has_truth:
                obj["truth"] = r.truth
            objs.append(json.dumps(obj, sort_keys=True))
        assert ms.records_to_jsonl(records) == "\n".join(objs) + "\n"
