import math

import numpy as np
import pytest
from conftest import enumerate_posterior, noiseless_device, records_of
from numpy.testing import assert_allclose
from oracles import Posterior, forward_backward, record_rows, threshold_complement

from catscope import hmm
from catscope import measurement as ms
from catscope.errors import (
    ConfigError,
    DimMismatch,
    InvalidMode,
    LeakageSymbol,
    NonConvergence,
)
from catscope.fock import CatSpec


def test_ground_prior():
    p = hmm.ground_prior(8)
    assert_allclose(p, [0.25, 0, 0.25, 0, 0.25, 0, 0.25, 0])
    assert_allclose(hmm.ground_prior(4), [0.5, 0, 0.5, 0])
    with pytest.raises(DimMismatch):
        hmm.ground_prior(7)


def test_build_model_defaults():
    m = hmm.build_model(ms.DeviceParams(), alpha_sq=12.0)
    assert m.n_states == 8 and m.n_sectors == 4
    v = hmm.build_model(ms.DeviceParams(), mode="vacuum")
    assert v.n_states == 4 and v.n_sectors == 2
    # the mode check is build_transition_matrix's, with its documented error
    with pytest.raises(InvalidMode):
        hmm.build_model(ms.DeviceParams(), mode="squeezed")


def test_model_validation():
    t = np.eye(4)
    e = np.tile([0.9, 0.1], (4, 1))
    p = np.array([0.5, 0, 0.5, 0])
    hmm.HmmModel(t, e, p)
    with pytest.raises(ConfigError):
        hmm.HmmModel(t, e, p * 0.9)
    with pytest.raises(DimMismatch):
        hmm.HmmModel(t, e[:3], p)
    with pytest.raises(DimMismatch):
        hmm.HmmModel(np.eye(3), np.tile([1.0, 0.0], (3, 1)), np.ones(3) / 3)
    with pytest.raises(ConfigError):
        hmm.HmmModel(2 * t, e, p)


def test_single_symbol_posterior_tracks_prior():
    # fully scrambled readout carries no information
    device = ms.DeviceParams(readout_Fge=0.5, readout_Fge_inv=0.5)
    base = hmm.build_model(device, alpha_sq=4.0)
    model = hmm.HmmModel(base.transition, base.emission, np.full(8, 0.125))
    post = forward_backward(model, "G")
    assert_allclose(post.p_phi, [0.25] * 4, atol=1e-12)
    assert post.lam == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_noiseless_alternating_record():
    model = hmm.build_model(noiseless_device(), alpha_sq=12.0)
    post = forward_backward(model, "GE" * 10)
    expected = 1.0 / (1.0 + 2.0**-18)
    assert post.p_phi[1] == pytest.approx(expected, rel=1e-12)
    # the tiny denominator picks up log-domain rounding at the 1e-11 level
    assert post.lam == pytest.approx(2.0**18, rel=1e-9)
    assert post.lam > 84.0


def test_noiseless_constant_record():
    model = hmm.build_model(noiseless_device(), alpha_sq=12.0)
    post = forward_backward(model, "G" * 20)
    assert post.p_phi[3] == pytest.approx(1.0 / (1.0 + 2.0**-18), rel=1e-12)
    assert post.lam == 0.0


def test_noiseless_vacuum_sentinels():
    model = hmm.build_model(noiseless_device(), mode="vacuum")
    alt = forward_backward(model, "GE" * 10)
    assert math.isinf(alt.lam)
    assert alt.p_phi[1] == pytest.approx(1.0)
    assert alt.lam > 1e5
    const = forward_backward(model, "G" * 20)
    assert const.lam == 0.0


def test_record_input_errors():
    model = hmm.build_model(ms.DeviceParams(), alpha_sq=4.0)
    with pytest.raises(LeakageSymbol):
        forward_backward(model, "GEL")
    with pytest.raises(ConfigError):
        forward_backward(model, "")
    with pytest.raises(ConfigError):
        forward_backward(model, "GXE")
    # a record the model cannot produce at all
    strict = hmm.build_model(noiseless_device(), mode="vacuum")
    with pytest.raises(NonConvergence):
        forward_backward(strict, "E")


def test_forward_backward_matches_enumeration_compass():
    rng = np.random.default_rng(7)
    model = hmm.build_model(ms.DeviceParams(), alpha_sq=12.0)
    worst = 0.0
    for _ in range(700):
        length = int(rng.integers(1, 7))
        symbols = "".join(rng.choice(["G", "E"], size=length))
        post = forward_backward(model, symbols)
        ref = enumerate_posterior(model, symbols)
        worst = max(worst, float(np.max(np.abs(np.array(post.p_phi) - ref) / ref)))
        lam_ref = ref[1] / (1.0 - ref[1])
        assert post.lam == pytest.approx(lam_ref, rel=1e-11)
    assert worst <= 1e-12


def test_forward_backward_matches_enumeration_vacuum():
    rng = np.random.default_rng(8)
    model = hmm.build_model(ms.DeviceParams(), mode="vacuum")
    worst = 0.0
    for _ in range(400):
        length = int(rng.integers(1, 7))
        symbols = "".join(rng.choice(["G", "E"], size=length))
        post = forward_backward(model, symbols)
        ref = enumerate_posterior(model, symbols)
        worst = max(worst, float(np.max(np.abs(np.array(post.p_phi) - ref) / ref)))
    assert worst <= 1e-12


def test_long_record_stays_finite():
    rng = np.random.default_rng(9)
    model = hmm.build_model(ms.DeviceParams(), alpha_sq=8.0)
    symbols = "".join(rng.choice(["G", "E"], size=1000))
    post = forward_backward(model, symbols)
    assert np.all(np.isfinite(post.p_phi))
    assert sum(post.p_phi) == pytest.approx(1.0, abs=1e-9)
    assert post.lam >= 0.0


def test_permutation_equivariance():
    rng = np.random.default_rng(10)
    model = hmm.build_model(ms.DeviceParams(), alpha_sq=6.0)
    sector_perm = [2, 0, 3, 1]  # new sector k holds old sector sector_perm[k]
    state_perm = [2 * s + q for s in sector_perm for q in (0, 1)]
    permuted = hmm.HmmModel(
        model.transition[np.ix_(state_perm, state_perm)],
        model.emission[state_perm],
        model.prior[state_perm],
    )
    symbols = "".join(rng.choice(["G", "E"], size=8))
    base = forward_backward(model, symbols)
    moved = forward_backward(permuted, symbols)
    for new_sector, old_sector in enumerate(sector_perm):
        assert moved.p_phi[new_sector] == pytest.approx(
            base.p_phi[old_sector], rel=1e-12
        )


def test_posterior_consistency_check():
    Posterior((0.1, 0.6, 0.2, 0.1), 1.5)
    with pytest.raises(ConfigError):
        Posterior((0.1, 0.6, 0.2, 0.1), 2.0)
    with pytest.raises(ConfigError):
        Posterior((0.7, 0.6, -0.2, -0.1), 1.0)
    with pytest.raises(DimMismatch):
        Posterior((0.4, 0.3, 0.3), 0.5)


def test_threshold_complement():
    val = threshold_complement(84.0)
    assert val == pytest.approx(1.0 / 85.0, rel=1e-15)
    assert abs(val - 0.0118) < 1e-4


def test_postselect():
    recs = records_of("GEGG", "GLGE", "EEEE")
    kept, dropped = hmm.postselect(recs)
    assert dropped == 1
    assert kept.trial_ids.tolist() == [0, 2]
    kept, dropped = hmm.postselect(records_of("LLL"))
    assert len(kept) == 0 and dropped == 1
    kept, dropped = hmm.postselect(recs[:1])
    assert dropped == 0


def test_postselect_on_campaign_matches_truth():
    cfg = ms.TrialConfig(init=CatSpec(2.0), repeats=20, rng_seed=31)
    res = ms.run_campaign(2000, cfg, ms.DeviceParams())
    kept, dropped = hmm.postselect(res.records)
    assert dropped == int(res.records.leaked.sum())
    assert len(kept) + dropped == 2000


def test_roc_monotonicity():
    device = ms.DeviceParams()
    model = hmm.build_model(device, alpha_sq=4.0)
    sig_cfg = ms.TrialConfig(
        init=CatSpec(2.0), injected_beta=0.15, repeats=20, rng_seed=101
    )
    bg_cfg = ms.TrialConfig(init=CatSpec(2.0), repeats=20, rng_seed=102)
    lam_sets = []
    for cfg in (sig_cfg, bg_cfg):
        recs, _ = hmm.postselect(ms.run_campaign(300, cfg, device).records)
        lam_sets.append([forward_backward(model, r).lam for r in record_rows(recs)])
    for lams in lam_sets:
        counts = [
            sum(lam > th for lam in lams)
            for th in (0.5, 2.0, 10.0, 84.0, 1e3)
        ]
        assert counts == sorted(counts, reverse=True)
    # the injected set must actually fire at the working threshold
    assert sum(lam > 84.0 for lam in lam_sets[0]) > 0


def test_batch_posteriors_matches_scalar():
    device = ms.DeviceParams()
    for mode, init, thr in (
        ("compass", CatSpec(alpha=2.0), 84.0),
        ("vacuum", None, 1e5),
    ):
        model = hmm.build_model(device, alpha_sq=4.0, mode=mode)
        cfg = ms.TrialConfig(init=init, injected_beta=0.1, repeats=20, rng_seed=5)
        recs, _ = hmm.postselect(ms.run_campaign(200, cfg, device).records)
        p_all, lam_all = hmm.batch_posteriors(model, recs)
        assert p_all.shape == (len(recs), model.n_sectors)
        for i, r in enumerate(record_rows(recs)):
            ref = forward_backward(model, r)
            assert_allclose(p_all[i], ref.p_phi, rtol=1e-12, atol=1e-15)
            if math.isinf(ref.lam):
                assert math.isinf(lam_all[i])
            else:
                assert_allclose(lam_all[i], ref.lam, rtol=1e-12)
    p_e, lam_e = hmm.batch_posteriors(model, recs[:0])
    assert p_e.shape == (0, 2) and lam_e.shape == (0,)


def test_batch_posteriors_rejects_bad_records():
    model = hmm.build_model(ms.DeviceParams(), alpha_sq=4.0)
    with pytest.raises(LeakageSymbol):
        hmm.batch_posteriors(model, records_of("GEG" + ms.SYMBOL_LEAK))
    noiseless = hmm.build_model(noiseless_device(), alpha_sq=4.0)
    with pytest.raises(NonConvergence):
        # the prior pins the first readout to G when the readout is perfect
        hmm.batch_posteriors(noiseless, records_of("GEGE", "EGGG"))


def _random_model(rng, n_states):
    t = rng.random((n_states, n_states))
    prior = rng.random(n_states)
    return hmm.HmmModel(
        t / t.sum(axis=1, keepdims=True),
        rng.random((n_states, 2)),
        prior / prior.sum(),
    )


@pytest.mark.parametrize("n_states", [4, 8])
def test_batch_posteriors_on_codes_matches_oracles(n_states):
    rng = np.random.default_rng(600 + n_states)
    for length in (1, 2, 5):
        model = _random_model(rng, n_states)
        codes = rng.integers(0, 2, size=(40, length), dtype=np.uint8)
        recs = ms.Records(codes, np.arange(40))
        p_all, lam_all = hmm.batch_posteriors(model, recs)
        assert p_all.shape == (40, n_states // 2)
        for i, r in enumerate(record_rows(recs)):
            ref = forward_backward(model, r)
            assert_allclose(p_all[i], ref.p_phi, rtol=1e-12, atol=1e-15)
            assert_allclose(lam_all[i], ref.lam, rtol=1e-12)
            assert_allclose(p_all[i], enumerate_posterior(model, r.symbols), rtol=1e-11)
    with pytest.raises(LeakageSymbol):
        hmm.batch_posteriors(model, records_of("GEL"))

