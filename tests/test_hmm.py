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
    p = hmm.build_model(ms.DeviceParams(), alpha_sq=12.0, mode="compass").prior
    assert_allclose(p, [0.25, 0, 0.25, 0, 0.25, 0, 0.25, 0])
    p = hmm.build_model(ms.DeviceParams(), mode="vacuum").prior
    assert_allclose(p, [0.5, 0, 0.5, 0])


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


def test_model_copies_callers_arrays():
    # the model's arrays are read-only copies: the caller's stay writable,
    # and writing to them leaves the model as it was built
    base = hmm.build_model(ms.DeviceParams(), alpha_sq=4.0)
    t, e, p = np.array(base.transition), np.array(base.emission), np.array(base.prior)
    model = hmm.HmmModel(t, e, p)
    for callers, models in ((t, model.transition), (e, model.emission), (p, model.prior)):
        assert callers.flags.writeable and not models.flags.writeable
        before = models.copy()
        callers[0] = 0.5
        assert np.array_equal(models, before)
    with pytest.raises(ValueError, match="read-only"):
        model.transition[0, 0] = 0.5


def test_models_compare_by_identity():
    # a field-wise __eq__ would raise on the array fields
    a = hmm.build_model(ms.DeviceParams())
    b = hmm.build_model(ms.DeviceParams())
    assert a == a and not a == b and a != b
    assert a in [b, a] and len({a, b}) == 2


def test_single_symbol_posterior_tracks_prior():
    # fully scrambled readout carries no information
    device = ms.DeviceParams(readout_Fge=0.5, readout_Fge_inv=0.5)
    base = hmm.build_model(device, alpha_sq=4.0)
    model = hmm.HmmModel(base.transition, base.emission, np.full(8, 0.125))
    post = forward_backward(model, "G")
    assert_allclose(post.p_phi, [0.25] * 4, atol=1e-12)
    assert post.lam == pytest.approx(1.0 / 3.0, rel=1e-12)


def _both_paths(model, symbols):
    """(p_phi, lam) of one record from the oracle and from the batch."""
    post = forward_backward(model, symbols)
    p, lam = hmm.batch_posteriors(model, records_of(symbols))
    return [(post.p_phi, post.lam), (p[0], lam[0])]


def test_noiseless_alternating_record():
    model = hmm.build_model(noiseless_device(), alpha_sq=12.0)
    expected = 1.0 / (1.0 + 2.0**-18)
    for p_phi, lam in _both_paths(model, "GE" * 10):
        assert p_phi[1] == pytest.approx(expected, rel=1e-12)
        # the tiny denominator picks up log-domain rounding at the 1e-11 level
        assert lam == pytest.approx(2.0**18, rel=1e-9)
        assert lam > 84.0


def test_noiseless_constant_record():
    model = hmm.build_model(noiseless_device(), alpha_sq=12.0)
    for p_phi, lam in _both_paths(model, "G" * 20):
        assert p_phi[3] == pytest.approx(1.0 / (1.0 + 2.0**-18), rel=1e-12)
        assert lam == 0.0


def test_noiseless_vacuum_sentinels():
    model = hmm.build_model(noiseless_device(), mode="vacuum")
    for p_phi, lam in _both_paths(model, "GE" * 10):
        assert math.isinf(lam)
        assert p_phi[1] == pytest.approx(1.0)
        assert lam > 1e5
    for _, lam in _both_paths(model, "G" * 20):
        assert lam == 0.0


def test_lam_past_the_double_range_reads_inf():
    # p0 is subnormal (9.9e-321), so p1/p0 overflows: lam reads inf, with
    # no overflow warning, as a zero denominator does
    device = ms.DeviceParams(readout_Fge_inv=1e-200, n_c=0.0, n_q=1e-300, T2q=1e300)
    model = hmm.build_model(device, mode="vacuum")
    p, lam = hmm.batch_posteriors(model, records_of("GE" * 10))
    assert 0.0 < p[0, 0] < 1e-300 and math.isinf(lam[0])


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
    # 3,000 slots: without the per-slot column rescaling the batch's
    # products underflow and it raises NonConvergence.  The tolerance fits
    # the earlier log-domain batch too, which read up to 7.7e-12 from the
    # oracle on 3,000-symbol records
    symbols = "".join(rng.choice(["G", "E"], size=3000))
    ref = forward_backward(model, symbols)
    p, lam = hmm.batch_posteriors(model, records_of(symbols))
    assert_allclose(p[0], ref.p_phi, rtol=1e-11)
    assert_allclose(lam[0], ref.lam, rtol=1e-11)


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


_HOSTILE_TRIALS = 1  # the oracle's scalar recursion sets the cost: 576 records
_FIDELITIES = (0.01, 1e-200, 5e-324, 0.0)
_HOSTILE_DEVICES = [
    dict(readout_Fge=fge, readout_Fge_inv=fge_inv, n_c=n_c, n_q=n_q, T2q=t2q)
    for fge in _FIDELITIES
    for fge_inv in _FIDELITIES
    for n_c in (1e-4, 1e-300, 0.0)
    for n_q in (0.013, 1e-300, 0.0)
    for t2q in (119.4e-6, 1e300)
]


@pytest.mark.parametrize(
    "overrides", _HOSTILE_DEVICES, ids=lambda d: "-".join(f"{v:g}" for v in d.values())
)
def test_batch_posteriors_matches_scalar_on_hostile_devices(overrides):
    # readout errors and thermal rates at, below and far below the smallest
    # normal double, for both probes: zero model entries and extreme ratios
    device = ms.DeviceParams(**overrides)
    for mode, init, alpha_sq, thr in (
        ("compass", CatSpec(math.sqrt(12.0)), 12.0, 84.0),
        ("vacuum", None, 1.0, 1e5),
    ):
        model = hmm.build_model(device, alpha_sq=alpha_sq, mode=mode)
        cfg = ms.TrialConfig(init=init, p_signal=0.2, rng_seed=7)
        recs, _ = hmm.postselect(ms.run_campaign(_HOSTILE_TRIALS, cfg, device).records)
        p_all, lam_all = hmm.batch_posteriors(model, recs)
        with np.errstate(over="ignore"):  # the oracle's lam overflows as the batch's does
            refs = [forward_backward(model, r) for r in record_rows(recs)]
        for i, ref in enumerate(refs):
            assert_allclose(p_all[i], ref.p_phi, rtol=1e-12, atol=1e-15)
            # a subnormal denominator rounds the oracle's own lam, so there
            # lam is checked through the posterior alone
            den = ref.p_phi[0] + sum(ref.p_phi[2:])
            if math.isinf(ref.lam):
                assert math.isinf(lam_all[i])
            elif den >= np.finfo(float).tiny:
                assert_allclose(lam_all[i], ref.lam, rtol=1e-12)
        assert int(np.sum(lam_all > thr)) == sum(ref.lam > thr for ref in refs)


@pytest.mark.parametrize("mode", ["compass", "vacuum"])
def test_batch_posteriors_of_a_batch_equal_its_campaigns(mode):
    # the pipeline classifies a call's campaigns together: each campaign's
    # lam must keep every bit of its own call's
    device = ms.DeviceParams(p_leak=0.05)
    init = CatSpec(math.sqrt(12)) if mode == "compass" else None
    model = hmm.build_model(device, alpha_sq=12.0 if init is not None else 1.0, mode=mode)
    signals = ({"p_signal": 0.2}, {"injected_beta": 0.3}, {}, {})
    cfgs = [
        ms.TrialConfig(init=init, rng_seed=seed, **signal)
        for seed, signal in zip((3, 2**40 + 1, 2**32 - 1, 9), signals)
    ]
    n = 100
    kept, _ = hmm.postselect(ms.run_campaign(n, cfgs, device).records)
    p_all, lam_all = hmm.batch_posteriors(model, kept)
    own = [hmm.postselect(ms.run_campaign(n, c, device).records)[0] for c in cfgs]
    own = [hmm.batch_posteriors(model, records) for records in own]
    assert np.array_equal(lam_all, np.concatenate([lam for _, lam in own]))
    assert np.array_equal(p_all, np.concatenate([p for p, _ in own]))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the batch keeps a dynamic range of one double per slot; the oracle's is unbounded",
)
def test_batch_posteriors_keeps_the_oracles_range():
    # Both sector hypotheses of this record need two factors near 1e-300,
    # at different slots, so between them the state weights part by more
    # than the double range: the batch rounds sector 0 to 0 and reads
    # lam = inf, where the log-domain oracle gives 4.1e-4.
    device = noiseless_device(T1c=4.6e-3, T1q=175.3e-6, n_q=1e-300, p_d=0.013)
    model = hmm.build_model(device, mode="vacuum")
    (_, ref), (_, lam) = _both_paths(model, "G" * 16 + "EGEG")
    assert ref == pytest.approx(4.13e-4, rel=1e-2)
    assert lam == pytest.approx(ref, rel=1e-9)


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

