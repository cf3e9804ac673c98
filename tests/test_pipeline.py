"""End-to-end tests for the campaign pipeline and the command line."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from catscope import cli, darkmatter, pipeline
from catscope.darkmatter import (
    HaloParams,
    SearchPoint,
    coherence_time,
    excitation_probability,
    g_of_t,
    rho_m_veff,
)
from catscope.errors import (
    ConfigError,
    MissingArtifact,
    MissingCalibration,
)


def _small_cfg(seed=11, trials=200):
    cfg = pipeline.apply_overrides(pipeline.default_config(), seed=seed, trials=trials)
    return cfg


def _supplied_calibration(cfg, tmp_path, report=None):
    """cfg reading a calibration.json written to tmp_path, by default
    _SMALL_SEARCH_CALIBRATION: a test that needs a clean search or tune-scan
    run takes one, since a self-calibration's efficiencies at 40-60 trials
    rest on the seed (a non-positive one at 63 of 200 seeds at 40 trials)."""
    if report is None:
        report = _SMALL_SEARCH_CALIBRATION
    cal = tmp_path / "calibration.json"
    cal.write_text(json.dumps(report))
    cfg["calibration"]["path"] = str(cal)
    return cfg


def _run_id(cfg, command):
    return pipeline.run_id(pipeline.canonical_config_text(cfg), command)


def _read_csv(path):
    return list(csv.DictReader(io.StringIO(path.read_text())))


def _tree_bytes(root):
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = p.read_bytes()
    return out


# ---------------------------------------------------------------------------
# config machinery


def test_default_config_validates():
    cfg = pipeline.default_config()
    pipeline.validate_config(cfg)
    # canonical text is stable and key-sorted, so the hash is reproducible
    txt = pipeline.canonical_config_text(cfg)
    assert txt == pipeline.canonical_config_text(pipeline.default_config())
    assert pipeline.config_sha256(txt) == hashlib.sha256(txt.encode()).hexdigest()
    # the run id folds in the command, so sibling commands get distinct dirs
    assert pipeline.run_id(txt, "search") != pipeline.run_id(txt, "calibrate")
    assert len(pipeline.run_id(txt, "search")) == 12


def test_default_run_ids_are_pinned():
    # the run id hashes the canonical config text, defaults included, so a
    # drifted default value (DeviceParams, HaloParams, ...) shows here
    txt = pipeline.canonical_config_text(pipeline.default_config())
    assert {c: pipeline.run_id(txt, c) for c in pipeline.COMMANDS} == {
        "calibrate": "1cd5a6f0b44a",
        "search": "8a1327746e6a",
        "tune-scan": "0da5180aae3d",
        "figures": "4cfa04db5158",
        "simulate-record": "8fcc607746d7",
    }


def test_load_config_overlay_and_unknown_keys(tmp_path):
    p = tmp_path / "ok.yaml"
    p.write_text("master_seed: 99\nsearch:\n  trials: 7\n")
    cfg = pipeline.load_config(p)
    assert cfg["master_seed"] == 99
    assert cfg["search"]["trials"] == 7
    # untouched sections keep their defaults
    assert cfg["scan"]["bins"] == pipeline.default_config()["scan"]["bins"]

    bad = tmp_path / "bad.yaml"
    bad.write_text("search:\n  nonsense: 1\n")
    with pytest.raises(ConfigError, match="search.nonsense"):
        pipeline.load_config(bad)

    notyaml = tmp_path / "broken.yaml"
    notyaml.write_text("search: [unclosed\n")
    with pytest.raises(ConfigError):
        pipeline.load_config(notyaml)

    # YAML reads an empty file as null, which overlays nothing
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    cfg = pipeline.load_config(empty)
    want = pipeline.canonical_config_text(pipeline.default_config())
    assert pipeline.canonical_config_text(cfg) == want
    for command in pipeline.COMMANDS:
        assert _run_id(cfg, command) == pipeline.run_id(want, command)


def test_apply_overrides():
    cfg = pipeline.default_config()
    out = pipeline.apply_overrides(
        cfg, seed=5, threshold=50.0, trials=9, bins=4, tau_max=5e-5
    )
    assert out["master_seed"] == 5
    assert out["thresholds"]["compass"] == 50.0
    for section in ("calibration", "search", "scan", "records"):
        assert out[section]["trials"] == 9
    assert out["scan"]["bins"] == 4
    assert max(out["search"]["tau_grid"]) <= 5e-5
    # the original is not mutated
    assert cfg["master_seed"] == pipeline.default_config()["master_seed"]

    with pytest.raises(ConfigError, match="no search times"):
        pipeline.apply_overrides(cfg, tau_max=1e-9)


def test_validate_rejects_bad_values():
    cfg = pipeline.default_config()
    cfg["search"]["trials"] = 0
    with pytest.raises(ConfigError, match="search.trials"):
        pipeline.validate_config(cfg)

    cfg = pipeline.default_config()
    cfg["scan"]["bins"] = 1
    with pytest.raises(ConfigError):
        pipeline.validate_config(cfg)

    cfg = pipeline.default_config()
    cfg["probes"] = []
    with pytest.raises(ConfigError):
        pipeline.validate_config(cfg)


def test_only_search_warns_past_coherence_time(tmp_path):
    # the warning is about search times, so only the search command gives
    # it; validate_config once gave it for every command
    cfg = _supplied_calibration(_small_cfg(seed=1, trials=40), tmp_path)
    tau_dm = coherence_time(SearchPoint(**cfg["point"]), HaloParams(**cfg["halo"]))
    cfg["search"]["tau_grid"] = [tau_dm / 2.0, 2.0 * tau_dm]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pipeline.validate_config(cfg)
        pipeline.run_command("figures", cfg, out_root=tmp_path)
    assert not caught, [str(w.message) for w in caught]
    with pytest.warns(UserWarning, match="coherence time"):
        pipeline.run_search(cfg)


def test_search_past_coherence_time_warns_once(tmp_path):
    # run_search flags the schedule; the fit once warned a second time
    cfg = _supplied_calibration(_small_cfg(seed=1, trials=40), tmp_path)
    cfg["search"]["tau_grid"] = [2.0e-5, 1.0e-3, 3.0e-3]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pipeline.run_command("search", cfg, out_root=tmp_path)
    texts = [str(w.message) for w in caught if issubclass(w.category, UserWarning)]
    assert len([t for t in texts if "coherence time" in t]) == 1, texts


@pytest.mark.parametrize(
    "command, section", [("search", "search"), ("tune-scan", "scan")]
)
def test_injection_checked_before_calibration(monkeypatch, tmp_path, command, section):
    # an epsilon whose p_signal leaves [0, 1] fails on the config, before
    # the self-calibration spends its campaigns
    def refuse(cfg):
        raise AssertionError("calibration ran before the injection check")

    monkeypatch.setattr(pipeline, "_load_calibration", refuse)
    cfg = _small_cfg(seed=1, trials=40)
    cfg["scan"]["inject_bin"] = 3
    for eps in (1.0e-12, 1.0e200):
        cfg[section]["inject_epsilon"] = eps
        with pytest.raises(ConfigError, match=f"{section}.inject_epsilon"):
            pipeline.run_command(command, cfg, out_root=tmp_path)


def test_accepted_injection_keeps_its_warnings(monkeypatch):
    # an injection past the perturbative regime with every p_signal <= 1 is
    # accepted, and warns once per campaign above p = 0.1: at this epsilon
    # the compass probe's last three search times
    class Checked(Exception):
        pass

    def stop(cfg):
        raise Checked

    monkeypatch.setattr(pipeline, "_load_calibration", stop)
    cfg = pipeline.default_config()
    cfg["search"]["inject_epsilon"] = 6.0e-15
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(Checked):
            pipeline.run_search(cfg)
    texts = [str(w.message) for w in caught]
    assert len(texts) == 3, texts
    assert all("outside the perturbative regime" in t for t in texts), texts


def test_commands_check_what_they_derive_before_any_campaign(monkeypatch):
    # validate_config checks only the config's own values; each command
    # checks what it derives itself, so a direct call refuses these before
    # its first campaign, as run_command does.  The calibration checks the
    # compass probe's drives before the vacuum probe's campaigns run
    def refuse(*args, **kwargs):
        raise AssertionError("a campaign ran before the check")

    monkeypatch.setattr(pipeline, "run_campaign", refuse)
    compass = [{"kind": "vacuum"}, {"kind": "compass", "alpha_sq": 0.001}]
    cases = [
        (pipeline.run_calibrate, "probes", compass, "probes[1].alpha_sq"),
        (pipeline.run_search, "probes", compass, "probes[1].alpha_sq"),
        (pipeline.run_simulate_record, "records.injected_beta", 1.0e300, None),
        (pipeline.run_search, "search.tau_grid", [1.0e-300, 2.0e-300], None),
        (pipeline.run_tune_scan, "scan.spacing_hz", 1.0e10, None),
        (pipeline.run_tune_scan, "scan.t1c", 1.0e300, None),
    ]
    for run, leaf, value, named in cases:
        cfg = _small_cfg(seed=1, trials=40)
        cfg["scan"].update(inject_epsilon=1.0e-16, inject_bin=3)
        *path, key = leaf.split(".")
        section = cfg
        for part in path:
            section = section[part]
        section[key] = value
        pipeline.validate_config(cfg)  # every leaf is within its own bounds
        with pytest.raises(ConfigError, match=f"^{re.escape(named or leaf)} must be"):
            run(cfg)
    # a lifetime that the compass probe's model refuses: calibrate, and a
    # search on a supplied calibration, once refused it only after the
    # vacuum probe's campaigns
    cal = str(Path(__file__).resolve().parents[1] / "perfbench" / "calibration.json")
    runs = [pipeline.run_calibrate, pipeline.run_search, pipeline.run_tune_scan]
    for run, path in itertools.product(runs, (None, cal)):
        cfg = _small_cfg(seed=1, trials=40)
        cfg["device"]["T1c"] = 1.0e-300
        cfg["calibration"]["path"] = path
        pipeline.validate_config(cfg)
        with pytest.raises(ConfigError, match=r"^device\.T1c, device\.t_m and device\.n_c"):
            run(cfg)
    cfg = _small_cfg(seed=1, trials=40)
    cfg["probes"][1]["alpha_sq"] = 480.0
    with pytest.raises(ConfigError, match=r"^probes\[1\]\.alpha_sq must be"):
        pipeline.run_figures(cfg, pipeline.canonical_config_text(cfg), ["readout-roc"])
    # the lineshape peaks at tau_DM / 2 pi, which a subnormal mass takes to
    # inf: the figure alone checks tau_DM too
    cfg = _small_cfg(seed=1, trials=40)
    cfg["point"]["m_dm"] = 1.0e-310
    with pytest.raises(ConfigError, match="^DM coherence time must be finite"):
        pipeline.run_figures(cfg, pipeline.canonical_config_text(cfg), ["lineshape"])


def test_derive_seed_is_stage_and_index_dependent():
    a = pipeline.derive_seed(1234, "search", 0, 1)
    assert a == pipeline.derive_seed(1234, "search", 0, 1)
    assert a != pipeline.derive_seed(1234, "search", 0, 2)
    assert a != pipeline.derive_seed(1234, "calibrate", 0, 1)
    assert a != pipeline.derive_seed(1235, "search", 0, 1)
    with pytest.raises(ConfigError):
        pipeline.derive_seed(1234, "no-such-stage")


# ---------------------------------------------------------------------------
# calibrate


def test_calibrate_artifacts_and_enhancement(tmp_path):
    # at 8000 trials every assertion below held at 200 of 200 seeds (1-200);
    # at 800 they held at 142 (the enhancement fell outside [6, 12] at 53)
    cfg = _small_cfg(trials=8000)
    final, summary = pipeline.run_command("calibrate", cfg, out_root=tmp_path)
    assert final == tmp_path / "results" / _run_id(cfg, "calibrate")
    assert (final / "manifest.json").exists()

    cal = json.loads((final / "calibration.json").read_text())
    labels = {p["label"]: p for p in cal["probes"]}
    assert set(labels) == {"vacuum", "a12"}
    for p in labels.values():
        assert 0.0 < p["eta"] <= 1.2
        assert p["eta_err"] > 0.0
        assert abs(p["delta"]) < 0.1
    # the cat probe buys roughly an order of magnitude over the vacuum probe
    assert 6.0 <= cal["enhancement"]["a12"] <= 12.0

    rows = _read_csv(final / "calibration.csv")
    betas = cfg["calibration"]["betas"]
    assert len(rows) == len(cfg["probes"]) * len(betas)
    for r in rows:
        assert int(r["k_pos"]) <= int(r["n_kept"]) <= cfg["calibration"]["trials"]

    man = json.loads((final / "manifest.json").read_text())
    assert man["command"] == "calibrate"
    txt = pipeline.canonical_config_text(cfg)
    assert man["config_sha256"] == pipeline.config_sha256(txt)
    assert "wall_clock_s" not in man
    assert set(man["files"]) == {"calibration.json", "calibration.csv"}


def test_search_clips_a_calibrated_eta_to_one(tmp_path):
    # a slope fit to few trials can calibrate above the physical bound 1;
    # search scales the signal rate by the clipped value, as tune-scan does,
    # and keeps an efficiency below 1 as it is
    etas = {"vacuum": 0.68, "a12": 2.0}
    report = {"probes": [{"label": k, "eta": v} for k, v in etas.items()]}
    cfg = _supplied_calibration(_small_cfg(seed=1, trials=40), tmp_path, report)
    final, _ = pipeline.run_command("search", cfg, out_root=tmp_path)
    rows = _read_csv(final / "rates.csv")
    assert {r["probe"] for r in rows} == set(etas)
    for r in rows:
        assert float(r["eta"]) == min(etas[r["probe"]], 1.0), r


def test_search_requires_calibration(tmp_path):
    cfg = _small_cfg(trials=50)
    cfg["calibration"]["self_calibrate"] = False
    with pytest.raises(MissingCalibration):
        pipeline.run_command("search", cfg, out_root=tmp_path)

    cfg["calibration"]["path"] = str(tmp_path / "absent.json")
    with pytest.raises(MissingCalibration):
        pipeline.run_command("search", cfg, out_root=tmp_path)


def test_search_rejects_nonpositive_efficiency(tmp_path, monkeypatch, capsys):
    report = {
        "probes": [
            {"label": "vacuum", "mode": "vacuum", "alpha_sq": 1.0, "eta": 0.6},
            {"label": "a12", "mode": "compass", "alpha_sq": 12.0, "eta": -0.1026},
        ]
    }
    cal = tmp_path / "calibration.json"
    cal.write_text(json.dumps(report))
    overlay = tmp_path / "cfg.yaml"
    overlay.write_text(f"calibration:\n  path: {str(cal)!r}\n  self_calibrate: false\n")
    calls = []
    monkeypatch.setattr(pipeline, "search_fit", lambda *a, **k: calls.append("fit"))
    monkeypatch.setattr(pipeline, "run_campaign", lambda *a, **k: calls.append("sim"))
    rc = cli.main(["search", "--config", str(overlay), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "'a12'" in err and "-0.1026" in err
    assert calls == []
    assert not (tmp_path / "out" / "results").exists()


# ---------------------------------------------------------------------------
# search


def test_search_zero_signal_sets_finite_limit(tmp_path):
    cfg = _small_cfg(trials=300)
    final, _ = pipeline.run_command("search", cfg, out_root=tmp_path)
    fit = json.loads((final / "fit.json").read_text())
    assert fit["params"]["a0"] >= 0.0
    rows = _read_csv(final / "limits.csv")
    assert len(rows) == 1
    eps90 = float(rows[0]["eps90"])
    assert math.isfinite(eps90) and eps90 > 0.0
    if fit["boundary_hit"]:
        # a0 on its bound takes the pure-sigma limit, not a0 -> 0 in eps0
        assert fit["params"]["a0"] == 0.0
        sigma = math.sqrt(fit["covariance"][0][0])
        rmv = rho_m_veff(SearchPoint(**cfg["point"]), HaloParams(**cfg["halo"]))
        assert abs(eps90 - math.sqrt(1.28 * sigma / rmv)) <= 1e-9 * eps90

    rates = _read_csv(final / "rates.csv")
    taus = [float(r["tau"]) for r in rates]
    assert sorted(taus) == taus or len(set(taus)) < len(taus)
    assert (final / "records.jsonl").read_text().count("\n") > 0


def test_search_recovers_injected_signal(tmp_path):
    eps = 1e-15
    cfg = _small_cfg(seed=11, trials=600)
    cfg["search"]["inject_epsilon"] = eps
    # span the knee of the accumulation law so the overall scale and the
    # per-probe nuisance terms cannot trade against each other
    cfg["search"]["tau_grid"] = [float(t) for t in np.geomspace(2e-5, 6e-4, 6)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        final, _ = pipeline.run_command("search", cfg, out_root=tmp_path)

    fit = json.loads((final / "fit.json").read_text())
    a0_hat = fit["params"]["a0"]
    sigma = math.sqrt(fit["covariance"][0][0])
    point, halo = SearchPoint(**cfg["point"]), HaloParams(**cfg["halo"])
    a0_true = eps**2 * rho_m_veff(point, halo)
    assert abs(a0_hat - a0_true) < 3.0 * sigma

    eps90 = float(_read_csv(final / "limits.csv")[0]["eps90"])
    assert eps90 > eps  # the quoted limit cannot exclude the injected value


def test_injected_search_integrates_each_tau_once(monkeypatch, tmp_path):
    # both probes and the fit share one g(t) quadrature per search time,
    # all in one batched call; only the probe's alpha_sq differs between
    # their excitation probabilities.  run_search checks that batch itself,
    # so run_command integrates nothing more (validate_config once
    # integrated the grid's two ends in a call of its own)
    cfg = _small_cfg(seed=11, trials=50)
    cfg["calibration"]["trials"] = 200
    cfg["search"]["inject_epsilon"] = 1e-15
    cfg["search"]["tau_grid"] = [float(t) for t in np.geomspace(3e-5, 1.3e-4, 6)]
    calls = []

    def counting(t, point, halo=darkmatter.HaloParams()):
        calls.append([t] if np.ndim(t) == 0 else list(t))
        return g_of_t(t, point, halo)

    monkeypatch.setattr(darkmatter, "g_of_t", counting)
    monkeypatch.setattr(pipeline, "g_of_t", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        pipeline.run_search(cfg)
        assert calls == [cfg["search"]["tau_grid"]]
        # nothing is cached across commands: a repeated command in the same
        # process integrates afresh, as a run in a new process would
        for _ in range(2):
            calls.clear()
            pipeline.run_command("search", cfg, out_root=tmp_path)
            assert calls == [cfg["search"]["tau_grid"]]


def test_injected_signal_uses_the_simulated_probe(monkeypatch):
    # each injected campaign's p_signal is the excitation probability at the
    # |alpha|^2 of the probe the simulator runs, abs(sqrt(12))**2 =
    # 11.999999999999998 for alpha_sq 12, not the config's value
    cfg = _small_cfg(seed=3, trials=20)
    cfg["search"]["inject_epsilon"] = 1e-15
    cfg["search"]["tau_grid"] = [2e-5, 1.4e-4]
    seen = []
    real = pipeline.TrialConfig

    def recording(**kwargs):
        seen.append((kwargs["init"], kwargs["p_signal"]))
        return real(**kwargs)

    monkeypatch.setattr(pipeline, "TrialConfig", recording)
    monkeypatch.setattr(
        pipeline, "_load_calibration", lambda cfg: ({"vacuum": 0.5, "a12": 0.5}, {})
    )
    pipeline.run_search(cfg)
    point, halo = SearchPoint(**cfg["point"]), HaloParams(**cfg["halo"])
    expected = [
        excitation_probability(1e-15, point, halo, g_of_t(tau, point, halo), a2)
        for a2 in (1.0, math.sqrt(12.0) ** 2)
        for tau in cfg["search"]["tau_grid"]
    ]
    assert [p for _, p in seen] == expected
    # the config's 12.0 would give other bits (at tau = 2e-5 s here)
    grid = cfg["search"]["tau_grid"]
    assert expected[2:] != [
        excitation_probability(1e-15, point, halo, g_of_t(tau, point, halo), 12.0)
        for tau in grid
    ]


# ---------------------------------------------------------------------------
# tune-scan


def test_tune_scan_localizes_injection(tmp_path):
    cfg = _small_cfg(seed=11)
    cfg["calibration"]["trials"] = 800
    cfg["scan"]["trials"] = 600
    cfg["scan"]["inject_epsilon"] = 2e-16
    cfg["scan"]["inject_bin"] = 5
    final, _ = pipeline.run_command("tune-scan", cfg, out_root=tmp_path)

    rows = _read_csv(final / "bins.csv")
    assert len(rows) == cfg["scan"]["bins"] == 16
    p = np.array([float(r["p_i"]) for r in rows])
    assert int(np.argmax(p)) == 5
    assert p[5] > 2.0 * np.delete(p, 5).max()

    omegas = np.array([float(r["omega_hz"]) for r in rows])
    assert np.all(np.diff(omegas) > 0.0)
    spacing = cfg["scan"]["spacing_hz"]
    np.testing.assert_allclose(np.diff(omegas), spacing, rtol=1e-9)

    limits = _read_csv(final / "limits.csv")
    assert len(limits) == 16
    eps90 = np.array([float(r["eps90"]) for r in limits])
    assert np.all(np.isfinite(eps90)) and np.all(eps90 > 0.0)
    # the hot bin is the one whose limit degrades
    assert int(np.argmax(eps90)) == 5


def test_tune_scan_recovers_the_injected_epsilon_sq():
    # the simulator's signal carries the probe's alpha_sq and the scan's
    # reference response must carry it too: a compass scan once reported
    # p_i = 11.7 eps^2 +- 1.7 eps^2 here.  The injection sits in the top
    # bin, since the line extends above its mass and would put about 30%
    # of its signal into a bin above, and so into the background mean;
    # the supplied calibration's efficiency is known to about 15%
    cal = Path(__file__).resolve().parents[1] / "perfbench" / "calibration.json"
    cfg = pipeline.default_config()
    cfg["calibration"].update(path=str(cal), self_calibrate=False)
    eps = 2e-16
    cfg["scan"].update(bins=4, trials=4000, inject_epsilon=eps, inject_bin=3)
    files, _ = pipeline.run_tune_scan(cfg)
    rows = list(csv.DictReader(io.StringIO(files["bins.csv"])))
    p, sigma = float(rows[3]["p_i"]), float(rows[3]["sigma_p"])
    assert sigma < 0.2 * eps**2
    assert abs(p - eps**2) < 3.0 * sigma


def test_tune_scan_rejects_non_finite_signal_response(tmp_path, capsys):
    # each leaf passes its bound, but the epsilon = 1 signal expectation of
    # a bin overflows; with n_ref = inf every residual and its error were 0,
    # so the scan once printed a RuntimeWarning and exited 0 with
    # "median eps90 = 0", and then exited 1 naming the bin, not a leaf.
    # The response is known only after the campaigns, so they run, but no
    # run directory is written.  A mass or cavity frequency of 1e300 (a
    # tau_DM of 6e-294 s, a detuning of 1e300 rad/s) fails the same way
    leaves = ["halo.rho_dm", "point.v_eff", "scan.t1c", "point.m_dm", "point.omega_c"]
    for leaf in leaves:
        out = tmp_path / leaf
        cfg_file = _overlay(tmp_path, leaf, 1.0e300)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            args = ["tune-scan", "--trials", "40", "--config", str(cfg_file)]
            rc = cli.main([*args, "--out", str(out)])
        assert rc == 2, leaf
        err = capsys.readouterr().err
        assert "non-finite signal response" in err, leaf
        assert err.startswith("error: halo.rho_dm, halo.v_vir, halo.v_g, point.m_dm")
        assert leaf in err, leaf
        assert "RuntimeWarning" not in err and not caught, leaf
        assert not (out / "results").exists(), leaf


# ---------------------------------------------------------------------------
# simulate-record


def test_simulate_record_artifact(tmp_path):
    cfg = _small_cfg(trials=16)
    final, _ = pipeline.run_command("simulate-record", cfg, out_root=tmp_path)
    lines = (final / "records.jsonl").read_text().splitlines()
    assert len(lines) == 16
    first = json.loads(lines[0])
    assert set(first) >= {"trial_id", "symbols"}
    assert set(first["symbols"]) <= set("GEL")


# ---------------------------------------------------------------------------
# determinism


def test_rerun_is_byte_identical(tmp_path):
    cfg = _small_cfg(trials=120)
    a, _ = pipeline.run_command("search", cfg, out_root=tmp_path / "a")
    b, _ = pipeline.run_command("search", cfg, out_root=tmp_path / "b")
    ta, tb = _tree_bytes(a), _tree_bytes(b)
    assert ta.keys() == tb.keys()
    for name in ta:
        assert ta[name] == tb[name], f"{name} differs between reruns"


# manifest "files" of every command at seed 1 with 40 trials and 800
# calibration trials (where both efficiencies were > 0 at 200 of 200 seeds,
# so search and tune-scan exit 0 whatever the stream), recorded with the
# versions below; any change to an artifact byte shows here
_GOLDEN_VERSIONS = {"numpy": "2.4.6", "python": "3.11.7"}
_GOLDEN_FILES = {
    "calibrate": {
        "calibration.csv": (
            "f71922981e430225036addf56757d3a5975291e138103ee9a29af1008a4d96cc"
        ),
        "calibration.json": (
            "7b0e94f1bd62262b0072c72e8f9082529cd7aa2cbe07cf36663a3551a35f1fa1"
        ),
    },
    "search": {
        "calibration.csv": (
            "f71922981e430225036addf56757d3a5975291e138103ee9a29af1008a4d96cc"
        ),
        "calibration.json": (
            "7b0e94f1bd62262b0072c72e8f9082529cd7aa2cbe07cf36663a3551a35f1fa1"
        ),
        "fit.json": (
            "23eb5c448870f8d326024b9dd6efbe7f907acf3662463a65c58e865e58e3465a"
        ),
        "limits.csv": (
            "561bef9c6b5f69d96635cd4e94ebb490f49360505d057374f40397341aee71b5"
        ),
        "rates.csv": (
            "9ae0c11f6dc4b6fe2353332d9f88fb8797faca69d7799bd4c63bb1d14451c7dc"
        ),
        "records.jsonl": (
            "395aed0d6cd04bd64ecbc5f1288145de217cfb879682059a5bb84bd08e692da7"
        ),
    },
    "tune-scan": {
        "bins.csv": (
            "20555a004fea8c70c52cc1e7205e4b9fb6228d18383ff634ed1c047ca03ebe90"
        ),
        "calibration.csv": (
            "f71922981e430225036addf56757d3a5975291e138103ee9a29af1008a4d96cc"
        ),
        "calibration.json": (
            "7b0e94f1bd62262b0072c72e8f9082529cd7aa2cbe07cf36663a3551a35f1fa1"
        ),
        "limits.csv": (
            "2b2fb1022675ce004d795e7ecc98ab8b20cf66194601e743f7b0daa1767cb943"
        ),
    },
    "figures": {
        "cat-wigner.csv": (
            "0434f4b36e87277944d3536ce63d634d75f7a6c669a91fad2fb563fba4a8f6e1"
        ),
        "lineshape.csv": (
            "074ebce262fc21295e221bb8a12cb7ff1ee42fc67aa99eb20790702aea21fe4b"
        ),
        "readout-roc.csv": (
            "7cc54a56c4b3a38376e4dbbb4a5189feb52f70a0519590ab578ce2bd52dc9270"
        ),
        "sensitivity-growth.csv": (
            "63b726c58d9273ac889acdc8610ebbefe2d0a8fc6b5c1094b564c5fbd334fa61"
        ),
        "transition-curves.csv": (
            "a3e56976909d67234cfe55ba88040fea0655fb9e3a2ed24dfe483a9c8a30e4f5"
        ),
    },
    "simulate-record": {
        "records.jsonl": (
            "3ca0fc7345e41b3d94b52c6423c08380a4fb035312c87e8f61975d81e168d8c0"
        ),
    },
}


# manifest "files" of the injected runs, recorded the same way: they pin the
# p_signal bits.  search runs at seed 3 with search.inject_epsilon 1e-15,
# tune-scan at seed 1 with scan.inject_epsilon 2e-16 in bin 5 and 400 scan
# trials, enough that the injection moves bins 5 and 6's positive counts;
# both at 800 calibration trials
_GOLDEN_INJECTED_FILES = {
    "search": {
        "calibration.csv": (
            "58c14092facc3e2ca1a6ef6b5c8548111d9a758ea335fc78d61339aa9d13b897"
        ),
        "calibration.json": (
            "67f52ed76fed817d24c5b7f6d498f4919b793ca3cc2442170574a634a581f57f"
        ),
        "fit.json": (
            "3a7ee8038b36eb99386bb22bf2c4967b797ddb62afb1507a49bb65a4e97c37e1"
        ),
        "limits.csv": (
            "d5d06064998e945679511e739516683d3b08af05209be4a964c23dcac21b1f7f"
        ),
        "rates.csv": (
            "aaf81d38b986351b8c0e79a1b4aa2c0ef64931d40a9d1bd37e2199d92e0e54fd"
        ),
        "records.jsonl": (
            "55f94533e3a36ed278a13c40d0b9cc1f17a1128b9cf56c433618d8781f1d0e9a"
        ),
    },
    "tune-scan": {
        **_GOLDEN_FILES["calibrate"],
        "bins.csv": (
            "610cf4b216d24163b14dae71de9111693224cff4525e08851afb99d50e6cd7e9"
        ),
        "limits.csv": (
            "0ad1f864b3b054120aa1c1a917f4bef5b812f6aac3a2ec18c0bb885a31f0df08"
        ),
    },
}


def test_artifact_hashes_match_recorded_table(tmp_path):
    versions = pipeline.module_versions()
    if any(versions[k] != v for k, v in _GOLDEN_VERSIONS.items()):
        pytest.skip(
            f"hashes recorded with {_GOLDEN_VERSIONS}, running {versions}: "
            "floating-point results may legitimately differ"
        )
    cfg = _small_cfg(seed=1, trials=40)
    cfg["calibration"]["trials"] = 800
    for command, files in _GOLDEN_FILES.items():
        final, _ = pipeline.run_command(command, cfg, out_root=tmp_path)
        man = json.loads((final / "manifest.json").read_text())
        assert man["files"] == files, command

    search = _small_cfg(seed=3, trials=40)
    search["calibration"]["trials"] = 800
    search["search"]["inject_epsilon"] = 1e-15
    scan = _small_cfg(seed=1, trials=40)
    scan["calibration"]["trials"] = 800
    scan["scan"]["trials"] = 400
    scan["scan"]["inject_epsilon"] = 2e-16
    scan["scan"]["inject_bin"] = 5
    # a pin the injection does not move pins no p_signal bit: the same run
    # without it must give other counts
    for command, cfg, section, table in (
        ("search", search, "search", "rates.csv"),
        ("tune-scan", scan, "scan", "bins.csv"),
    ):
        final, _ = pipeline.run_command(command, cfg, out_root=tmp_path)
        man = json.loads((final / "manifest.json").read_text())
        assert man["files"] == _GOLDEN_INJECTED_FILES[command], f"injected {command}"
        cfg[section]["inject_epsilon"] = None
        final, _ = pipeline.run_command(command, cfg, out_root=tmp_path)
        man = json.loads((final / "manifest.json").read_text())
        assert man["files"][table] != _GOLDEN_INJECTED_FILES[command][table], command


# manifest "files" of search at 100 trials on a supplied calibration, per
# (seed, search.inject_epsilon), recorded the same way.  A probe's six
# campaigns share one run_campaign call; with one campaign per call
# (CALL_DRAWS = 0) the files hash the same, so these pin that batching moves
# no byte.  Seeds 1 and 5 fit at the a0 = 0 boundary, seed 2 inside it
_SMALL_SEARCH_CALIBRATION = {
    "probes": [{"label": "vacuum", "eta": 0.68}, {"label": "a12", "eta": 0.69}]
}
_GOLDEN_SMALL_SEARCH_FILES = {
    (1, None): {
        "fit.json": (
            "7871a78044237ea1a48b4346e51f030187071dddc771ca1e3203087e5ce8575e"
        ),
        "limits.csv": (
            "360ef41f82bea5708b5e2904a09e0302ee22a75b706f04855dca901ec7b31763"
        ),
        "rates.csv": (
            "77feff31f9a9d3a8ddb8e776c653cbcdc90ebe1447b7a5f3c2c0d783ce09560b"
        ),
        "records.jsonl": (
            "e123febca6bff44c93225efa138746d1b90854651f80d73aef907771a9239117"
        ),
    },
    (2, None): {
        "fit.json": (
            "d804db49e23cef88f17849cc6dc275c9b0f02936a5fcf2f41cb0058b9da4facc"
        ),
        "limits.csv": (
            "2e73eca096d4a632226e5a5909e7b5f3f7f19f5348dd6934183aad9f7e9a711f"
        ),
        "rates.csv": (
            "7fc21dc9e61b34db06ed03980d16e8eec578a236c5121f0bb7f740d75dd190b8"
        ),
        "records.jsonl": (
            "27db4da98ae63869a1165210e3bcfedbf65534c380bfab99eed4b7d239fb3968"
        ),
    },
    (5, 2.0e-15): {
        "fit.json": (
            "db565c337391b243ee59ba25ffd30008e51a83049b20ca8953869ced9ad478ab"
        ),
        "limits.csv": (
            "300a975e4e430e060421099a5e1b72af24f3b3183c8ba88341e8466dc7c7bac4"
        ),
        "rates.csv": (
            "2aa4facde6fe867db1edc58686c3502fcc06e72bdd9bea0e6a1e7b7ddf706aaf"
        ),
        "records.jsonl": (
            "324757fe71ed9e5902e66873daf0c0898bad8a0cc4e9c064a1ca766b57f950f2"
        ),
    },
}


def test_small_trial_search_hashes_match_recorded_table(tmp_path):
    versions = pipeline.module_versions()
    if any(versions[k] != v for k, v in _GOLDEN_VERSIONS.items()):
        pytest.skip(f"hashes recorded with {_GOLDEN_VERSIONS}, running {versions}")
    cal = tmp_path / "calibration.json"
    cal.write_text(json.dumps(_SMALL_SEARCH_CALIBRATION))
    for (seed, eps), files in _GOLDEN_SMALL_SEARCH_FILES.items():
        cfg = _small_cfg(seed=seed, trials=100)
        cfg["calibration"]["path"] = str(cal)
        cfg["search"]["inject_epsilon"] = eps
        final, _ = pipeline.run_command("search", cfg, out_root=tmp_path)
        man = json.loads((final / "manifest.json").read_text())
        assert man["files"] == files, (seed, eps)


@pytest.mark.parametrize(
    "command, trials, per_call",
    [
        ("search", 100, [6, 6]),
        ("search", None, [1] * 12),
        ("calibrate", None, [1] * 10),
        ("tune-scan", None, [2] * 8),
    ],
)
def test_small_campaigns_of_a_probe_share_a_call(
    monkeypatch, tmp_path, command, trials, per_call
):
    # a call holds a probe's consecutive campaigns while its uniforms stay
    # within max(one campaign, CALL_DRAWS): all six 100-trial search points
    # of a probe, one default search or calibration campaign (81 x 1200,
    # 81 x 1500), two default scan bins (81 x 800 each)
    cfg = pipeline.apply_overrides(pipeline.default_config(), seed=1, trials=trials)
    if command != "calibrate":
        cal = tmp_path / "calibration.json"
        cal.write_text(json.dumps(_SMALL_SEARCH_CALIBRATION))
        cfg["calibration"]["path"] = str(cal)
    widths, real = [], pipeline.run_campaign

    def counting(n_trials, cfgs, device):
        widths.append(len(cfgs))
        return real(n_trials, cfgs, device)

    monkeypatch.setattr(pipeline, "run_campaign", counting)
    pipeline.run_command(command, cfg, out_root=tmp_path)
    assert widths == per_call


def test_promote_replaces_stale_run(tmp_path):
    cfg = _small_cfg(trials=16)
    final, _ = pipeline.run_command("simulate-record", cfg, out_root=tmp_path)
    (final / "stale.txt").write_text("left over\n")
    final2, _ = pipeline.run_command("simulate-record", cfg, out_root=tmp_path)
    assert final2 == final
    assert not (final / "stale.txt").exists()
    assert not any((tmp_path / "quarantine").iterdir())


def test_interleaved_writers_of_one_run_id(tmp_path):
    # two runs of one config stage side by side; the later promote wins
    # and results/<run-id> holds exactly one run's files
    rid = "0123456789ab"
    a = pipeline.RunWriter(tmp_path, rid)
    b = pipeline.RunWriter(tmp_path, rid)
    a.write("x.csv", "from a\n")
    b.write("x.csv", "from b\n")
    b.write("y.csv", "only in b\n")
    for w in (a, b):
        man = pipeline.RunManifest("figures", rid, "0" * 64, 1, {}, dict(w.hashes))
        w.write("manifest.json", man.to_json())
    assert b.promote() == tmp_path / "results" / rid
    final = a.promote()
    assert final == tmp_path / "results" / rid
    files = json.loads((final / "manifest.json").read_text())["files"]
    assert files == {"x.csv": hashlib.sha256(b"from a\n").hexdigest()}
    assert sorted(p.name for p in final.iterdir()) == ["manifest.json", "x.csv"]
    assert not any((tmp_path / "quarantine").iterdir())


def test_writer_slices_keep_the_bytes_and_hash(tmp_path):
    # the writer encodes and hashes in slices; multi-byte characters on
    # both sides of the slice edges, an empty file and a short one come out
    # as one whole-text encode would give them
    rid = "0123456789ab"
    w = pipeline.RunWriter(tmp_path, rid)
    texts = {
        "big.txt": "ab\u00e9\u20ac\U0001d11e\n" * 70_000,
        "empty.txt": "",
        "short.txt": "x\n",
    }
    for name, text in texts.items():
        w.write(name, text)
        data = (w.stage_dir / name).read_bytes()
        assert data == text.encode("utf-8"), name
        assert w.hashes[name] == hashlib.sha256(data).hexdigest(), name
    assert len(texts["big.txt"]) > 1 << 18


def test_manifest_text_is_pinned():
    # the golden tables compare only the files map; this pins the rest of
    # the bytes RunManifest.to_json writes
    man = pipeline.RunManifest(
        command="search",
        run_id="0123456789ab",
        config_sha256="f" * 64,
        master_seed=7,
        versions={"python": "3.11.7", "numpy": "2.4.6", "catscope": "0.1.0"},
        files={"rates.csv": "a" * 64, "fit.json": "b" * 64},
    )
    assert man.to_json() == (
        "{\n"
        '  "command": "search",\n'
        '  "config_sha256": '
        '"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",\n'
        '  "files": {\n'
        '    "fit.json": '
        '"bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb",\n'
        '    "rates.csv": '
        '"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"\n'
        "  },\n"
        '  "master_seed": 7,\n'
        '  "run_id": "0123456789ab",\n'
        '  "versions": {\n'
        '    "catscope": "0.1.0",\n'
        '    "numpy": "2.4.6",\n'
        '    "python": "3.11.7"\n'
        "  }\n"
        "}\n"
    )


_PROMOTE_LOOP = """
import sys
from catscope import pipeline
root, rid, tag, n = sys.argv[1:]
for i in range(int(n)):
    w = pipeline.RunWriter(root, rid)
    for name in ("a.csv", "b.csv"):
        w.write(name, f"{tag} {i}\\n")
    man = pipeline.RunManifest("figures", rid, "0" * 64, 1, {}, dict(w.hashes))
    w.write("manifest.json", man.to_json())
    w.promote()
"""


def test_concurrent_processes_promote_one_run_id(tmp_path):
    # more writer processes than cores, all promoting one run id in a loop
    rid = "0123456789ab"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(Path(pipeline.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", _PROMOTE_LOOP, str(tmp_path), rid]
    procs = [
        subprocess.Popen(argv + [str(k), "100"], env=env, stderr=subprocess.PIPE)
        for k in range(3)
    ]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()
    final = tmp_path / "results" / rid
    files = json.loads((final / "manifest.json").read_text())["files"]
    assert sorted(p.name for p in final.iterdir()) == ["a.csv", "b.csv", "manifest.json"]
    for name, digest in files.items():
        assert hashlib.sha256((final / name).read_bytes()).hexdigest() == digest
    assert (final / "a.csv").read_text() == (final / "b.csv").read_text()
    assert not any((tmp_path / "quarantine").iterdir())


_ALL_COMMANDS = """
import sys
from catscope import cli
for command in ("calibrate", "search", "tune-scan", "figures", "simulate-record"):
    assert cli.main([command, "--trials", "200", "--out", sys.argv[1]]) == 0, command
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


def test_commands_never_import_scipy(tmp_path):
    # scipy is a test dependency only: after all five commands ran in one
    # fresh interpreter, not even a lazy import may have loaded it
    src = str(Path(pipeline.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _ALL_COMMANDS, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


_SEARCH_WITHOUT_CONFIG = """
import sys
import catscope.cli
loaded = "yaml" in sys.modules
assert catscope.cli.main(["search", "--trials", "40", "--out", sys.argv[1]]) == 0
print(loaded, "yaml" in sys.modules)
"""


def test_runs_without_a_config_file_never_import_yaml(tmp_path):
    # PyYAML reads config files only: importing the CLI and running a search
    # with no --config, in a fresh interpreter, leave it unloaded
    src = str(Path(pipeline.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _SEARCH_WITHOUT_CONFIG, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False False"


_IMPORT_MEASUREMENT = """
import sys
import catscope.measurement
print(sorted(m for m in sys.modules if m.startswith("catscope.")))
"""


def test_simulator_loads_no_halo_physics():
    # the record simulator takes the signal as a probability: importing it
    # loads no halo model
    src = str(Path(pipeline.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_MEASUREMENT],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.splitlines()[-1]
    assert "catscope.measurement" in loaded
    assert "catscope.darkmatter" not in loaded


# ---------------------------------------------------------------------------
# figures


def test_figures_default_set(tmp_path):
    cfg = _small_cfg(trials=60)
    final, _ = pipeline.run_command("figures", cfg, out_root=tmp_path)
    names = {p.name for p in final.iterdir()}
    expected = {f"{fid}.csv" for fid in pipeline._CONFIG_FIGURES}
    assert expected < names and "manifest.json" in names
    for fname in expected:
        rows = (final / fname).read_text().splitlines()
        assert len(rows) > 2  # header plus data


def test_cat_wigner_figure_at_large_amplitude(tmp_path):
    # |alpha|^2 = 400 is within MAX_MIMIC_AMPLITUDE; there a dyad's overlap
    # underflows where its Gaussian overflows, which a product of the two
    # would write as NaN
    cfg = _small_cfg(trials=60)
    cfg["probes"] = [{"kind": "vacuum"}, {"kind": "compass", "alpha_sq": 400.0}]
    final, _ = pipeline.run_command(
        "figures", cfg, out_root=tmp_path, which=["cat-wigner"]
    )
    w = np.array([float(r["w"]) for r in _read_csv(final / "cat-wigner.csv")])
    assert w.size == 61 * 61
    assert np.all(np.isfinite(w))
    assert np.max(np.abs(w)) <= 2.0 / np.pi * (1.0 + 1e-12)


def test_figures_check_the_cat_amplitude(tmp_path, capsys):
    # the transition-curves sums once rounded a probability to 1.0000017 at
    # alpha_sq 0.02 and ended in a ValueError traceback; every small
    # amplitude now either renders or exits 2 naming the probe
    for a2 in (0.0075, 0.02, 0.04, 0.07):
        cfg_file = _overlay(
            tmp_path, "probes", [{"kind": "vacuum"}, {"kind": "compass", "alpha_sq": a2}]
        )
        rc = cli.main(["figures", "--config", str(cfg_file), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc in (0, 2), (a2, err)
        assert rc == 0 or err.startswith("error: probes[1].alpha_sq must be"), err
    # the readout-roc campaign displaces the cat by 0.15, which takes
    # |alpha| = 21.9 past MAX_MIMIC_AMPLITUDE; it once ran regardless
    cfg_file = _overlay(
        tmp_path, "probes", [{"kind": "vacuum"}, {"kind": "compass", "alpha_sq": 480.0}]
    )
    argv = ["figures", "readout-roc", "--config", str(cfg_file), "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: probes[1].alpha_sq must be small")


def test_config_text_is_dumped_once_per_command(monkeypatch, tmp_path):
    # run_id, config_sha256 and the artifact lookups share one canonical text
    calls = []
    dump = pipeline.canonical_config_text

    def counted(*args, **kwargs):
        calls.append(1)
        return dump(*args, **kwargs)

    monkeypatch.setattr(pipeline, "canonical_config_text", counted)
    cfg = _supplied_calibration(_small_cfg(seed=1, trials=40), tmp_path)
    final, _ = pipeline.run_command("search", cfg, out_root=tmp_path)
    assert len(calls) == 1
    assert final.name == _run_id(cfg, "search")


def test_figures_artifact_flow(tmp_path):
    cfg = _small_cfg(trials=60)
    # the enhancement table needs both efficiencies > 0: at 800 trials they
    # were at 200 of 200 seeds (1-200)
    cfg["calibration"]["trials"] = 800
    with pytest.raises(MissingArtifact, match="calibration.csv"):
        pipeline.run_command(
            "figures", cfg, out_root=tmp_path, which=["calibration-curve"]
        )
    pipeline.run_command("calibrate", cfg, out_root=tmp_path)
    final, _ = pipeline.run_command(
        "figures", cfg, out_root=tmp_path, which=["calibration-curve", "enhancement"]
    )
    assert (final / "calibration-curve.csv").exists()
    rows = _read_csv(final / "enhancement.csv")
    assert {r["probe"] for r in rows} == {"vacuum", "a12"}

    with pytest.raises(ConfigError, match="unknown figure"):
        pipeline.run_command("figures", cfg, out_root=tmp_path, which=["nope"])

    # a source its run's manifest.json does not vouch for is refused
    cal_dir = tmp_path / "results" / _run_id(cfg, "calibrate")
    source = cal_dir / "calibration.csv"
    original = source.read_bytes()
    source.write_bytes(original + b"vacuum,0.5,1,1,1\n")
    with pytest.raises(MissingArtifact, match="calibration.csv.*SHA-256"):
        pipeline.run_command(
            "figures", cfg, out_root=tmp_path, which=["calibration-curve"]
        )
    source.write_bytes(original)
    manifest_path = cal_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["versions"]["numpy"] = "0.0"
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(MissingArtifact, match="calibration.csv.*versions"):
        pipeline.run_command(
            "figures", cfg, out_root=tmp_path, which=["calibration-curve"]
        )
    manifest_path.unlink()
    with pytest.raises(MissingArtifact, match="calibration.json.*manifest"):
        pipeline.run_command("figures", cfg, out_root=tmp_path, which=["enhancement"])


def test_enhancement_figure_without_a_vacuum_probe(tmp_path):
    # with no vacuum probe there is no reference efficiency: no compass
    # probe has an enhancement, and the table holds its header alone
    cfg = _small_cfg(seed=1, trials=40)
    cfg["probes"] = [{"kind": "compass", "alpha_sq": a2} for a2 in (12.0, 4.0)]
    pipeline.run_command("calibrate", cfg, out_root=tmp_path)
    final, _ = pipeline.run_command(
        "figures", cfg, out_root=tmp_path, which=["enhancement"]
    )
    assert (final / "enhancement.csv").read_text() == "probe,alpha_sq,eta,enhancement\n"


# ---------------------------------------------------------------------------
# command line


def test_cli_search_and_timing(tmp_path, capsys):
    rc = cli.main(
        ["search", "--trials", "120", "--seed", "7", "--out", str(tmp_path)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    cfg = pipeline.apply_overrides(pipeline.default_config(), seed=7, trials=120)
    rid = _run_id(cfg, "search")
    assert (tmp_path / "results" / rid / "fit.json").exists()
    timing = (tmp_path / "logs" / f"{rid}-timing.txt").read_text()
    assert timing.startswith(f"search {rid} wall_clock_s=")


def test_records_line_sums_the_campaign_tables(tmp_path, capsys):
    # the summary and the timing sidecar end with the records simulated,
    # dropped for leakage and classified positive, over every campaign
    # table the command wrote (search and tune-scan self-calibrate, at 800
    # trials, where both efficiencies were > 0 at 200 of 200 seeds)
    trials = {"calibration.csv": 800, "rates.csv": 60, "bins.csv": 60}
    overlay = tmp_path / "trials.yaml"
    overlay.write_text(
        "calibration: {trials: 800}\nsearch: {trials: 60}\nscan: {trials: 60}\n"
    )
    tables = {
        "calibrate": ["calibration.csv"],
        "search": ["calibration.csv", "rates.csv"],
        "tune-scan": ["calibration.csv", "bins.csv"],
    }
    for command, names in tables.items():
        argv = [command, "--seed", "4", "--config", str(overlay), "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out.splitlines()
        final = Path(out[0].removeprefix("wrote "))
        read = {name: _read_csv(final / name) for name in names}
        rows = [r for name in names for r in read[name]]
        dropped = sum(int(r["n_dropped"]) for r in rows)
        simulated = sum(int(r["n_kept"]) for r in rows) + dropped
        positive = sum(int(r["k_pos"]) for r in rows)
        line = (
            f"records: {simulated} simulated, {dropped} dropped for leakage, "
            f"{positive} classified positive"
        )
        assert simulated == sum(trials[name] * len(read[name]) for name in names)
        assert dropped > 0 and positive > 0
        assert out[-1] == f"  {line}", command
        timing = (tmp_path / "logs" / f"{final.name}-timing.txt").read_text()
        assert timing.splitlines()[-1] == line, command


def test_timing_sidecar_holds_the_printed_summary(tmp_path, capsys):
    # the sidecar is the wall-clock line followed by the printed summary,
    # whose fit lines report the iterations the artifacts record; search
    # reads a supplied calibration
    fits = {
        "calibrate": lambda d: json.loads((d / "calibration.json").read_text())["probes"][0],
        "search": lambda d: json.loads((d / "fit.json").read_text()),
        "figures": None,
    }
    overlay = tmp_path / "cfg.yaml"
    overlay.write_text(yaml.safe_dump(_supplied_calibration({"calibration": {}}, tmp_path)))
    for command, fit in fits.items():
        argv = [command, "--trials", "60", "--seed", "4", "--config", str(overlay)]
        assert cli.main([*argv, "--out", str(tmp_path)]) == 0
        wrote, *summary = capsys.readouterr().out.splitlines()
        final = Path(wrote.removeprefix("wrote "))
        timing = (tmp_path / "logs" / f"{final.name}-timing.txt").read_text()
        first, *rest = timing.splitlines()
        assert re.fullmatch(rf"{command} {final.name} wall_clock_s=\d+\.\d{{3}}", first)
        assert rest == [line.removeprefix("  ") for line in summary], command
        if fit is not None:
            assert rest[0].endswith(f" ({fit(final)['iterations']} iterations)"), rest


def test_leaked_data_is_a_runtime_error_naming_the_leak_leaves(tmp_path, capsys):
    # with every record dropped for leakage, search on a supplied
    # calibration once exited 0 with a0 = 0 +- 9.9e12 (the covariance's
    # eigenvalue floor) and a limit; self-calibration exited 2 ("n_trials
    # must be >= 1") and figures exited 2, naming no leaf
    cal = Path(__file__).resolve().parents[1] / "perfbench" / "calibration.json"
    runs = [
        ("calibrate", ""),
        ("search", ""),
        ("search", f"calibration:\n  path: {cal}\n"),
        ("figures", ""),
    ]
    for command, extra in runs:
        path = tmp_path / "leak.yaml"
        path.write_text("device:\n  p_leak: 1.0\n" + extra)
        out = tmp_path / "out"
        argv = [command, "--config", str(path), "--trials", "40", "--out", str(out)]
        assert cli.main(argv) == 1, (command, extra)
        err = capsys.readouterr().err
        assert "device.p_leak" in err and "repeats" in err, (command, err)
        assert "Traceback" not in err
        assert not (out / "results").exists() or not any((out / "results").iterdir())


def test_cli_exit_codes(tmp_path, capsys):
    # config problems are exit 2
    rc = cli.main(["search", "--trials", "0", "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err

    rc = cli.main(["figures", "nope", "--out", str(tmp_path)])
    assert rc == 2
    # 'all' beside other ids once exited 2 with "unknown figure 'all';
    # valid ids: ..., or 'all'"
    capsys.readouterr()
    rc = cli.main(["figures", "all", "cat-wigner", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'all' must stand alone" in err and "unknown figure" not in err

    # a missing upstream artifact is a runtime failure, exit 1
    rc = cli.main(["figures", "exclusion", "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err

    # bad values from a config file are exit 2 too, and name the leaf; the
    # last four once ran (a boolean frequency) or ended in a traceback
    tiny_betas = "[0.0, 1.0e-300, 2.0e-300]"
    cases = [
        ("figures", "halo.rho_dm", "halo:\n  rho_dm: -1\n"),
        ("figures", "point.m_dm", "point:\n  m_dm: -5\n"),
        ("figures", "halo.v_vir", "halo:\n  v_vir: .nan\n"),
        ("figures", "device.chi", "device:\n  chi: true\n"),
        (
            "simulate-record",
            "records.injected_beta",
            "records:\n  injected_beta: .inf\n",
        ),
        ("figures", "halo.v_g", "halo:\n  v_g: .inf\n"),
        ("calibrate", "calibration.betas", "calibration:\n  betas: [0.0, 0.1, .inf]\n"),
        # finite, but beyond any truncation the simulator should allocate;
        # both once ended in an OverflowError traceback
        (
            "simulate-record",
            "records.injected_beta",
            "records:\n  injected_beta: 1.0e+300\n",
        ),
        (
            "calibrate",
            "calibration.betas",
            "calibration:\n  betas: [0.0, 0.1, 1.0e+300]\n  trials: 20\n",
        ),
        # modest betas, but divided by a tiny compass amplitude: 20 / 1e-3
        # would need about 4e8 Fock levels
        (
            "calibrate",
            "calibration.betas",
            "probes:\n  - {kind: vacuum}\n  - {kind: compass, alpha_sq: 1.0e-6}\n"
            "calibration:\n  betas: [0.0, 0.1, 20.0]\n  trials: 20\n",
        ),
        # a mimic displacement on a compass probe whose smallest sector
        # normalization (about 2.7e-9 here) is lost to rounding; calibrate
        # once exited 0 with eta = -2.9 +- 20
        (
            "calibrate",
            "probes[1].alpha_sq",
            "probes:\n  - {kind: vacuum}\n  - {kind: compass, alpha_sq: 0.001}\n"
            "calibration:\n  trials: 20\n",
        ),
        (
            "simulate-record",
            "records.probe.alpha_sq",
            "records:\n  probe: {kind: compass, alpha_sq: 0.001}\n"
            "  injected_beta: 0.1\n",
        ),
        # a campaign's uniforms once asked numpy for 186 TiB
        ("simulate-record", "repeats", "repeats: 100000000000\n"),
        # an injection whose p_signal exceeds 1 once exited 2 naming no
        # leaf, after the whole self-calibration; one that overflows it
        # ended in an OverflowError traceback.  Each once printed the
        # perturbative-regime warnings of its campaigns before the error:
        # at 1e-13 the first two vacuum campaigns pass and the third fails
        ("search", "search.inject_epsilon", "search:\n  inject_epsilon: 1.0e-12\n"),
        ("search", "search.inject_epsilon", "search:\n  inject_epsilon: 1.0e-13\n"),
        ("search", "search.inject_epsilon", "search:\n  inject_epsilon: 1.0e+200\n"),
        (
            "tune-scan",
            "scan.inject_epsilon",
            "scan:\n  inject_epsilon: 1.0e-12\n  inject_bin: 3\n",
        ),
        (
            "tune-scan",
            "scan.inject_epsilon",
            "scan:\n  inject_epsilon: 1.0e+200\n  inject_bin: 3\n",
        ),
        # a coherence time whose sensitivity-growth times square past the
        # float range once failed the g(t) quadrature, exit 1
        ("figures", "point.m_dm", "point:\n  m_dm: 1.0e-300\n"),
        ("figures", "point.m_dm", "point:\n  m_dm: 1.0e-200\n"),
        # a g(tau) that underflows to 0 leaves the fit's a0 column empty and
        # once ended in a LinAlgError traceback after two RuntimeWarnings;
        # times far past tau_DM once exited 1 naming no leaf ("produces
        # 9e304 oscillation nodes"), as did an injected scan at such a t1c
        ("search", "search.tau_grid", "search:\n  tau_grid: [1.0e-300, 2.0e-300]\n"),
        ("search", "search.tau_grid", "search:\n  tau_grid: [1.0e+300, 2.0e+300]\n"),
        # g at the largest time so small that the search fit's 1 / g^2
        # overflows: the first once ended in a LinAlgError traceback after
        # six RuntimeWarnings, the second exited 1 naming no leaf
        ("search", "search.tau_grid", "search:\n  tau_grid: [1.0e-155, 2.0e-155]\n"),
        ("search", "search.tau_grid", "search:\n  tau_grid: [1.0e-100, 2.0e-100]\n"),
        (
            "tune-scan",
            "scan.t1c",
            "scan:\n  t1c: 1.0e+300\n  inject_epsilon: 1.0e-16\n  inject_bin: 3\n",
        ),
        # (beta / alpha)^2 underflows to 0 for every drive, which once exited
        # 1 ("need at least 3 distinct n_inj values") after the vacuum
        # probe's campaigns; at 1e-160 the n_inj are distinct but subnormal,
        # and once overflowed the fit's column scale into a LinAlgError
        # traceback; search and tune-scan self-calibrate by default
        *[
            (command, "calibration.betas", f"calibration:\n  betas: {betas}\n")
            for command in ("calibrate", "search", "tune-scan")
            for betas in (tiny_betas, "[0.0, 1.0e-160, 2.0e-160]")
        ],
        # distinct but tiny n_inj overflow the calibration fit's covariance,
        # or its information matrix, in the parameters' units; they once
        # exited 2 ("covariance contains NaN/inf") and 1 ("information
        # matrix is not finite"), naming no leaf
        *[
            ("calibrate", "calibration.betas", f"calibration:\n  betas: {b}\n  trials: 40\n")
            for b in ("[0.0, 5.0e-77, 1.0e-76]", "[0.0, 1.0e-78, 2.0e-78]")
        ],
        # a cavity this far from the mass would need 1e9 panels for g(t)
        ("figures", "point.omega_c", "point:\n  omega_c: 1.0e+11\n"),
        # bins at or below 0 Hz once ran every campaign and then exited 2
        # naming no leaf; with an injected bin they ended in a traceback
        ("tune-scan", "scan.spacing_hz", "scan:\n  spacing_hz: 1.0e+10\n"),
        (
            "tune-scan",
            "scan.spacing_hz",
            "scan:\n  spacing_hz: 1.0e+10\n  inject_epsilon: 1.0e-16\n"
            "  inject_bin: 0\n",
        ),
        # a scan probe that self-calibration does not cover once exited 1
        # after the whole self-calibration
        (
            "tune-scan",
            "scan.alpha_sq",
            "calibration:\n  path: null\nscan:\n  alpha_sq: 8.0\n",
        ),
        # the shape of the config itself; a leaf with a space in it is the
        # whole start of the error, {p} the config file (None: not written)
        ("figures", "config key 'device' must be a mapping", "device: 3\n"),
        ("figures", "config file not found: {p}", None),
        ("figures", "config file {p} must hold a mapping", "- 1\n"),
        ("figures", "probes[0]", "probes: [3]\n"),
        ("figures", "probes[0].kind", "probes: [{kind: squeezed}]\n"),
        ("figures", "probes[0] has unknown keys ['beta']", "probes: [{kind: vacuum, beta: 1}]\n"),
        ("figures", "probes", "probes: [{kind: vacuum}, {kind: vacuum}]\n"),
    ]
    for i, (command, leaf, text) in enumerate(cases):
        p = tmp_path / f"bad{i}.yaml"
        if text is not None:
            p.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main([command, "--config", str(p), "--out", str(tmp_path)])
        assert rc == 2, leaf
        err = capsys.readouterr().err
        want = leaf.format(p=p) if " " in leaf else f"{leaf} must be"
        assert f"error: {want}" in err, (leaf, err)
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert not caught, (text, [str(w.message) for w in caught])

    # a g above that floor whose fit covariance still overflows is refused
    # without the RuntimeWarning it once printed from fits._invert_information,
    # naming the leaf ("covariance contains NaN/inf" once named none)
    p = tmp_path / "tiny-tau.yaml"
    p.write_text("search:\n  tau_grid: [1.0e-77, 2.0e-77]\n")
    rc = cli.main(["search", "--config", str(p), "--trials", "40", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: search.tau_grid must be" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    # a tiny smallest time is fine while the largest keeps g above the floor
    p.write_text("search:\n  tau_grid: [1.0e-100, 1.0e-4]\n")
    rc = cli.main(["search", "--config", str(p), "--trials", "40", "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()

    # bins that carry no limit are a runtime failure: one with no kept
    # trials once ended in a ZeroDivisionError traceback, one with every
    # kept trial positive printed a RuntimeWarning and exited 0.  Only the
    # first names the leaves that set the leakage
    cal = Path(__file__).resolve().parents[1] / "perfbench" / "calibration.json"
    cal = json.dumps(str(cal))  # a YAML string, whatever the path holds
    no_limit = [
        ("device:\n  p_leak: 1.0\n", [], "has no kept trials; too few records "
         "survive post-selection, and device.p_leak and repeats set the share"),
        ("", ["--threshold", "1.0e-300"], "has no spread to set a limit"),
    ]
    for i, (text, extra, why) in enumerate(no_limit):
        p = tmp_path / f"no-limit{i}.yaml"
        p.write_text(f"calibration:\n  path: {cal}\n{text}")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(
                ["tune-scan", "--config", str(p), "--trials", "40", *extra,
                 "--out", str(tmp_path)]
            )
        assert rc == 1, text
        err = capsys.readouterr().err
        assert "error: bin at omega=" in err and why in err
        assert ("device.p_leak" in err) == (i == 0), err
        assert "Traceback" not in err
        assert not caught, (text, [str(w.message) for w in caught])

    # with calibration.path set, the file is the runtime input: a scan
    # probe it lacks stays a missing calibration, exit 1
    p = tmp_path / "scan-probe.yaml"
    p.write_text(f"calibration:\n  path: {cal}\nscan:\n  alpha_sq: 8.0\n")
    rc = cli.main(["tune-scan", "--config", str(p), "--out", str(tmp_path)])
    assert rc == 1
    assert "error: calibration has no entry for probe 'a8'" in capsys.readouterr().err

    # the small-amplitude guard applies only to a displaced probe
    p = tmp_path / "small-probe.yaml"
    p.write_text("records:\n  probe: {kind: compass, alpha_sq: 0.001}\n  trials: 4\n")
    rc = cli.main(["simulate-record", "--config", str(p), "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()

    # one search time leaves the joint fit no design; it once exited 1 with
    # DegenerateDesign after the whole self-calibration
    p = tmp_path / "one-tau.yaml"
    p.write_text("search:\n  tau_grid: [5.0e-5, 5.0e-5]\n")
    for extra in (["--config", str(p)], ["--tau-max", "2.5e-5"]):
        rc = cli.main(["search", *extra, "--out", str(tmp_path)])
        assert rc == 2, extra
        err = capsys.readouterr().err
        assert "error: search.tau_grid needs at least 2 distinct values" in err

    # the cavity frequency is the search point's; device has no omega_c
    p = tmp_path / "device-omega.yaml"
    p.write_text("device:\n  omega_c: 1.0\n")
    rc = cli.main(["figures", "--config", str(p), "--out", str(tmp_path)])
    assert rc == 2
    assert "error: unknown config key 'device.omega_c'" in capsys.readouterr().err

    # extreme halo speeds pass every leaf bound but leave a coherence time
    # of 0 s, which once ended in a traceback from np.geomspace (or, for
    # v_vir 1e300, an OverflowError squaring it); a subnormal mass leaves
    # an infinite one, after a RuntimeWarning from the lineshape it once
    # printed
    extreme = [
        "halo:\n  v_g: 1.0e+300\n",
        "halo:\n  v_vir: 1.0e-300\n",
        "halo:\n  v_vir: 1.0e+300\n",
        "point:\n  m_dm: 1.0e-310\n",
    ]
    for i, text in enumerate(extreme):
        p = tmp_path / f"tau{i}.yaml"
        p.write_text(text)
        rc = cli.main(["figures", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 2, text
        err = capsys.readouterr().err
        assert "error: DM coherence time must be finite and > 0" in err
        assert "Traceback" not in err
        assert "RuntimeWarning" not in err

    # argparse handles unknown flags itself
    with pytest.raises(SystemExit) as exc:
        cli.main(["search", "--no-such-flag"])
    assert exc.value.code == 2
    # simulation runs in one process; there is no worker pool to size
    with pytest.raises(SystemExit) as exc:
        cli.main(["search", "--workers", "2"])
    assert exc.value.code == 2


def test_parser_takes_each_option_on_its_own_commands(capsys):
    # every command takes the common options; --tau-max, --bins and figure
    # ids belong to search, tune-scan and figures alone
    ap = cli.build_parser()
    common = "--config c.yaml --seed 3 --threshold 2.5 --trials 7 --out o".split()
    own = {
        "search": (["--tau-max", "1e-4"], "tau_max", 1e-4),
        "tune-scan": (["--bins", "3"], "bins", 3),
        "figures": (["cat-wigner"], "which", ["cat-wigner"]),
    }
    for command in pipeline.COMMANDS:
        args = ap.parse_args([command, *common])
        got = (args.command, args.config, args.seed, args.threshold, args.trials, args.out)
        assert got == (command, "c.yaml", 3, 2.5, 7, "o")
        for owner, (argv, dest, value) in own.items():
            if owner == command:
                assert getattr(ap.parse_args([command, *argv]), dest) == value
                continue
            with pytest.raises(SystemExit) as exc:
                ap.parse_args([command, *argv])
            assert exc.value.code == 2, (command, argv)
    capsys.readouterr()


def test_unreadable_inputs_and_outputs_fail_cleanly(tmp_path, capsys, monkeypatch):
    # each once ended in a traceback (IsADirectoryError, UnicodeDecodeError,
    # NotADirectoryError after the command's work, LinAlgError) or, for
    # tune-scan on an infinite efficiency, exited 0 with eta clipped to 1; a
    # huge finite one made search warn of an overflow and blame
    # search.tau_grid, and tune-scan clip it
    def refuse(*args, **kwargs):
        raise AssertionError("a campaign ran before the check")

    monkeypatch.setattr(pipeline, "run_campaign", refuse)
    monkeypatch.chdir(tmp_path)
    a_dir = tmp_path / "a-dir"
    a_dir.mkdir()
    not_utf8 = tmp_path / "not-utf8.yaml"
    not_utf8.write_bytes(b"\xff\xfe: 1")
    a_file = tmp_path / "a-file"
    a_file.write_text("")
    cal = tmp_path / "inf-eta.json"
    # JSON reads 1e400 as inf
    probes = '[{"label": "vacuum", "eta": 0.5}, {"label": "a12", "eta": 1e400}]'
    cal.write_text(f'{{"probes": {probes}}}')
    huge = tmp_path / "huge-eta.json"
    huge.write_text(f'{{"probes": {probes.replace("1e400", "1e300")}}}')

    def config(path):
        p = tmp_path / f"{Path(path).name}.yaml"
        p.write_text(f"calibration:\n  path: {path}\n")
        return ["--config", str(p)]

    runs = [
        (["figures", "--config", str(a_dir)], 2, f"error: config file {a_dir} cannot"),
        (["figures", "--config", str(not_utf8)], 2, f"error: config file {not_utf8}"),
        (["search", *config(a_dir)], 1, f"error: calibration file {a_dir}"),
        (["calibrate", "--out", str(a_file)], 2, f"error: output root {a_file} must"),
        (["calibrate", "--out", str(a_file / "sub")], 2, f"error: output root {a_file}"),
        (["search", *config(cal)], 1, "error: calibrated efficiency for 'a12' is inf"),
        (["tune-scan", *config(cal)], 1, "error: calibrated efficiency for 'a12' is inf"),
        (["search", *config(huge)], 1, "for 'a12' is 1e+300, above 100;"),
        (["tune-scan", *config(huge)], 1, "for 'a12' is 1e+300, above 100;"),
    ]
    for argv, code, want in runs:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(argv) == code, argv
        assert not caught, (argv, [str(w.message) for w in caught])
        err = capsys.readouterr().err
        assert want in err and "Traceback" not in err, (argv, err)
    monkeypatch.setenv("CATSCOPE_OUT", str(a_file))
    assert cli.main(["calibrate"]) == 2
    assert f"error: output root {a_file} must" in capsys.readouterr().err
    assert not any(tmp_path.rglob("results"))


@pytest.mark.parametrize(
    "command, mode, value",
    [
        ("search", "compass", "1.0e+300"),
        ("tune-scan", "compass", "1.0e-300"),
        ("search", "vacuum", "1.0e-300"),
    ],
)
def test_zero_efficiency_names_the_threshold(tmp_path, capsys, command, mode, value):
    # a threshold that classifies every record alike calibrates eta = 0,
    # which more trials cannot mend; the message once advised only those
    p = tmp_path / "threshold.yaml"
    p.write_text(f"thresholds:\n  {mode}: {value}\n")
    rc = cli.main([command, "--config", str(p), "--trials", "40", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: calibrated efficiency for" in err and "is 0.0" in err
    assert f"thresholds.{mode}" in err


@pytest.mark.parametrize(
    "section, key",
    [
        (None, "repeats"),
        ("calibration", "trials"),
        ("search", "trials"),
        ("scan", "trials"),
        ("scan", "bins"),
        ("scan", "inject_bin"),
        ("records", "trials"),
    ],
)
def test_cli_rejects_bool_counts(tmp_path, capsys, section, key):
    # YAML true is a bool, not a count, although bool subclasses int
    text = f"{key}: true\n" if section is None else f"{section}:\n  {key}: true\n"
    p = tmp_path / "cfg.yaml"
    p.write_text(text)
    rc = cli.main(["simulate-record", "--config", str(p), "--out", str(tmp_path)])
    assert rc == 2
    assert "must be" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config schema


def _overlay(tmp_path, path, value):
    """A config file that sets one leaf, given as a dotted path."""
    for key in reversed(path.split(".")):
        value = {key: value}
    p = tmp_path / "cfg.yaml"
    p.write_text(yaml.safe_dump(value))
    return p


def test_default_config_is_fresh_on_every_call():
    # _merge overlays a loaded file onto the tree in place, so no call may
    # hand out a list or mapping that another call also holds
    expected = pipeline.canonical_config_text(pipeline.default_config())
    cfg = pipeline.default_config()
    cfg["calibration"]["betas"].append(0.3)
    cfg["search"]["tau_grid"][0] = 1.0
    cfg["probes"][1]["alpha_sq"] = 5.0
    cfg["probes"].append({"kind": "vacuum"})
    cfg["records"]["probe"]["alpha_sq"] = 9.0
    assert pipeline.canonical_config_text(pipeline.default_config()) == expected


class _ReadLog(dict):
    """A config tree that logs the dotted path of every key read."""

    def __init__(self, tree, reads, prefix=""):
        super().__init__(
            (k, _ReadLog(v, reads, f"{prefix}{k}.") if isinstance(v, dict) else v)
            for k, v in tree.items()
        )
        self.reads, self.prefix = reads, prefix

    def __getitem__(self, key):
        self.reads.add(self.prefix + key)
        return super().__getitem__(key)


def _watched(obj, prefix, reads):
    """obj, from now on logging each read of one of its dataclass fields as
    prefix.field; its construction has already read them all."""
    names = {f.name for f in dataclasses.fields(obj)}

    class Watched(type(obj)):
        def __getattribute__(self, name):
            if name in names:
                reads.add(f"{prefix}.{name}")
            return object.__getattribute__(self, name)

    object.__setattr__(obj, "__class__", Watched)
    return obj


def test_every_config_leaf_is_read_by_a_command(monkeypatch):
    # a leaf that only validation and the canonical text read changes the
    # run id but nothing a command does.  The device, halo and point leaves
    # count when a command reads the dataclass attribute, not when the
    # command passes them all to the constructor; the point's omega_c is
    # read, so a search by name cannot tell a device omega_c from it
    reads, fields = set(), set()
    base = _small_cfg(seed=1, trials=40)
    # search and tune-scan self-calibrate: at 800 trials both efficiencies
    # were > 0 at 200 of 200 seeds (1-200)
    base["calibration"]["trials"] = 800
    for section, name in (
        ("device", "DeviceParams"),
        ("halo", "HaloParams"),
        ("point", "SearchPoint"),
    ):

        def build(*args, cls=getattr(pipeline, name), section=section, **kwargs):
            # watch only the object built from the config's own section:
            # tune-scan builds its injection points with SearchPoint too
            obj = cls(*args, **kwargs)
            if args or kwargs != base[section]:
                return obj
            return _watched(obj, section, fields)

        monkeypatch.setattr(pipeline, name, build)
    base["scan"].update(inject_epsilon=2e-16, inject_bin=3)
    base["records"]["injected_beta"] = 0.1
    config_text = pipeline.canonical_config_text(base)
    cfg = _ReadLog(base, reads)
    pipeline.run_search(cfg)  # self-calibrates
    pipeline.run_tune_scan(cfg)
    pipeline.run_simulate_record(cfg)
    pipeline.run_figures(cfg, config_text)
    dict_read = {r for r in reads if r.split(".")[0] not in ("device", "halo", "point")}
    unread = set(pipeline.CONFIG_SCHEMA) - dict_read - fields
    assert not unread, sorted(unread)


HOSTILE = [0, -1, math.nan, math.inf, -math.inf, "x", True, None, [1.0]]

# Which hostile values each leaf may legitimately take, written out here
# rather than read from the schema under test.
ZERO_OK = {
    "master_seed",
    "device.n_c",
    "device.n_q",
    "device.readout_Fge",
    "device.readout_Fge_inv",
    "device.p_d",
    "device.p_leak",
    "search.inject_epsilon",
    "scan.inject_epsilon",
    "scan.inject_bin",
    "records.injected_beta",
}
NULL_OK = {
    "point.omega_c",
    "calibration.path",
    "search.inject_epsilon",
    "scan.inject_epsilon",
    "scan.inject_bin",
}


def _accepts(leaf, value):
    if value is None:
        return leaf in NULL_OK
    if leaf == "calibration.self_calibrate":
        return value is True
    if leaf == "calibration.path":
        return value == "x"
    if leaf in ("calibration.betas", "search.tau_grid"):
        return value == [1.0]
    return type(value) is int and value == 0 and leaf in ZERO_OK


@pytest.mark.parametrize("leaf", sorted(pipeline.CONFIG_SCHEMA))
def test_config_schema_rejects_hostile_values(tmp_path, capsys, leaf):
    for value in HOSTILE:
        if _accepts(leaf, value):
            cfg = pipeline.load_config(_overlay(tmp_path, leaf, value))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                try:
                    pipeline.validate_config(cfg)
                except ConfigError as exc:
                    # only a rule spanning several leaves may still object
                    assert not str(exc).startswith(f"{leaf} must be"), value
            continue
        cfg_file = _overlay(tmp_path, leaf, value)
        rc = cli.main(
            ["simulate-record", "--config", str(cfg_file), "--out", str(tmp_path)]
        )
        err = capsys.readouterr().err
        assert rc == 2, value
        assert err.startswith(f"error: {leaf} must be"), (value, err)
        assert "Traceback" not in err


def test_config_probe_alpha_sq_rejects_hostile_values(tmp_path, capsys):
    overlays = {
        "probes[1].alpha_sq": lambda v: _overlay(
            tmp_path, "probes", [{"kind": "vacuum"}, {"kind": "compass", "alpha_sq": v}]
        ),
        "records.probe.alpha_sq": lambda v: _overlay(
            tmp_path, "records.probe.alpha_sq", v
        ),
    }
    for leaf, overlay in overlays.items():
        for value in HOSTILE:
            cfg_file = overlay(value)
            rc = cli.main(
                ["simulate-record", "--config", str(cfg_file), "--out", str(tmp_path)]
            )
            assert rc == 2, (leaf, value)
            assert capsys.readouterr().err.startswith(f"error: {leaf} must be"), value


def test_cli_env_out_root(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CATSCOPE_OUT", str(tmp_path))
    rc = cli.main(["simulate-record", "--trials", "8", "--seed", "3"])
    assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "results").is_dir()


def test_cli_config_file_and_flag_precedence(tmp_path, capsys):
    p = tmp_path / "cfg.yaml"
    p.write_text("master_seed: 21\nrecords:\n  trials: 4\n")
    rc = cli.main(
        [
            "simulate-record",
            "--config",
            str(p),
            "--trials",
            "6",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    cfg = pipeline.load_config(p)
    cfg = pipeline.apply_overrides(cfg, trials=6)
    rid = _run_id(cfg, "simulate-record")
    lines = (tmp_path / "results" / rid / "records.jsonl").read_text().splitlines()
    assert len(lines) == 6  # the flag wins over the file
