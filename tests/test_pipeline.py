"""End-to-end tests for the campaign pipeline and the command line."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from catscope import cli, darkmatter, pipeline
from catscope.darkmatter import (
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
    assert pipeline.config_sha256(cfg) == pipeline.config_sha256(cfg)
    # the run id folds in the command, so sibling commands get distinct dirs
    assert pipeline.run_id(cfg, "search") != pipeline.run_id(cfg, "calibrate")
    assert len(pipeline.run_id(cfg, "search")) == 12


def test_default_run_ids_are_pinned():
    # the run id hashes the canonical config text, defaults included, so a
    # drifted default value (DeviceParams, HaloParams, ...) shows here
    cfg = pipeline.default_config()
    assert {c: pipeline.run_id(cfg, c) for c in pipeline.COMMANDS} == {
        "calibrate": "7c7686bc9a36",
        "search": "82ff19e008cf",
        "tune-scan": "de41767841a9",
        "figures": "681068d23162",
        "simulate-record": "508ab857a559",
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


def test_validate_warns_past_coherence_time():
    cfg = pipeline.default_config()
    point = pipeline.build_point(cfg)
    halo = pipeline.build_halo(cfg)
    tau_dm = coherence_time(point, halo)
    cfg["search"]["tau_grid"] = [tau_dm / 2.0, 2.0 * tau_dm]
    with pytest.warns(UserWarning, match="coherence time"):
        pipeline.validate_config(cfg)


def test_search_past_coherence_time_warns_once(tmp_path):
    # validate_config flags the schedule; the fit once warned a second time
    cfg = _small_cfg(seed=1, trials=40)
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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the perturbative one
            with pytest.raises(ConfigError, match=f"{section}.inject_epsilon"):
                pipeline.run_command(command, cfg, out_root=tmp_path)


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
    cfg = _small_cfg(trials=800)
    final, summary = pipeline.run_command("calibrate", cfg, out_root=tmp_path)
    assert final == tmp_path / "results" / pipeline.run_id(cfg, "calibrate")
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
    assert man["config_sha256"] == pipeline.config_sha256(cfg)
    assert "wall_clock_s" not in man
    assert set(man["files"]) == {"calibration.json", "calibration.csv"}


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
        rmv = rho_m_veff(pipeline.build_point(cfg), pipeline.build_halo(cfg))
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
    a0_true = eps**2 * rho_m_veff(pipeline.build_point(cfg), pipeline.build_halo(cfg))
    assert abs(a0_hat - a0_true) < 3.0 * sigma

    eps90 = float(_read_csv(final / "limits.csv")[0]["eps90"])
    assert eps90 > eps  # the quoted limit cannot exclude the injected value


def test_injected_search_integrates_each_tau_once(monkeypatch, tmp_path):
    # both probes and the fit share one g(t) quadrature per search time,
    # all in one batched call; only the probe's alpha_sq differs between
    # their excitation probabilities
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
    point, halo = pipeline.build_point(cfg), pipeline.build_halo(cfg)
    expected = [
        excitation_probability(1e-15, point, halo, tau, a2)
        for a2 in (1.0, math.sqrt(12.0) ** 2)
        for tau in cfg["search"]["tau_grid"]
    ]
    assert [p for _, p in seen] == expected
    assert expected[3] != excitation_probability(1e-15, point, halo, 1.4e-4, 12.0)


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


# manifest "files" of every command at seed 1 with 40 trials, recorded with
# the versions below; any change to an artifact byte shows here
_GOLDEN_VERSIONS = {"numpy": "2.4.6", "python": "3.11.7"}
_GOLDEN_FILES = {
    "calibrate": {
        "calibration.csv": (
            "876ffb7109bffb980a32a720f87a4bd850398feb3b3487927e14d24c21fede00"
        ),
        "calibration.json": (
            "babfb7c80bcda79d4c37234ad93d915a0dcfb9c75cbd2095f155be7c7509c5df"
        ),
    },
    "search": {
        "calibration.csv": (
            "876ffb7109bffb980a32a720f87a4bd850398feb3b3487927e14d24c21fede00"
        ),
        "calibration.json": (
            "babfb7c80bcda79d4c37234ad93d915a0dcfb9c75cbd2095f155be7c7509c5df"
        ),
        "fit.json": (
            "afca10a2599834a48682a00cfa42c3b9a90b0a1951cc3f0092d6de6351e48579"
        ),
        "limits.csv": (
            "a1dac3002fa14c7cb1e38e67bad6ca25d3ceabafa601e9df6c809357dcfcf7c7"
        ),
        "rates.csv": (
            "900e26938e883e42d109b47c07e624e73475d5ade64ce41f591ff602d2d2e6b2"
        ),
        "records.jsonl": (
            "e12d32a6160731673abf811985326cbc5822418d8e6ab4d635305a54b299e055"
        ),
    },
    "tune-scan": {
        "bins.csv": (
            "bae210dd7951c1513c02bf3ca702e81ca8d6fa0918299ed12cafef5d07d330aa"
        ),
        "calibration.csv": (
            "876ffb7109bffb980a32a720f87a4bd850398feb3b3487927e14d24c21fede00"
        ),
        "calibration.json": (
            "babfb7c80bcda79d4c37234ad93d915a0dcfb9c75cbd2095f155be7c7509c5df"
        ),
        "limits.csv": (
            "44fe1e2b646a25d3280f8e0c33434418e2422d2eb008f4cd2d652a022c1a44ca"
        ),
    },
    "figures": {
        "cat-wigner.csv": (
            "fa3dbdcec2d51948fe5affbe1ac793e014647a1c965876d890dee054b4afb41e"
        ),
        "lineshape.csv": (
            "31f5e3cbf51a7eedc566562708dbd69835fe8eebc19816c648b8ae43ecae22f5"
        ),
        "readout-roc.csv": (
            "79279df17b2e55c07ba28c7c8e01d9fb0529aba07dac4280e248f7e31e6e0e47"
        ),
        "sensitivity-growth.csv": (
            "d12103db60061a58032e9bfac78c38949741a219bd322e24834e32b773d3f03e"
        ),
        "transition-curves.csv": (
            "a3e56976909d67234cfe55ba88040fea0655fb9e3a2ed24dfe483a9c8a30e4f5"
        ),
    },
    "simulate-record": {
        "records.jsonl": (
            "a8536d429106ec1061c05bf6d396d578c83cab45b5459c5f28e2a81febbc0d38"
        ),
    },
}


# manifest "files" of the injected runs, recorded the same way: they pin the
# p_signal bits.  search runs at seed 3 with search.inject_epsilon 1e-15 and
# 800 calibration trials (the fewest of 40, 200, 400, 800 at which seed 3
# calibrates a positive vacuum efficiency); tune-scan runs at seed 1 with
# scan.inject_epsilon 2e-16 in bin 5
_GOLDEN_INJECTED_FILES = {
    "search": {
        "calibration.csv": (
            "44973017965de9bfc745a6f5c2282884e3e60fb6d136d00578dc064ba78851a0"
        ),
        "calibration.json": (
            "c65d13427fca52c8cbf3ae57710a296dc6cd534bf01f8d26542f16a1ec4a5a91"
        ),
        "fit.json": (
            "47f3b3ecd5a430b01e8a8d42530d635f71b42699681c69fc52d33c9490be0e06"
        ),
        "limits.csv": (
            "bf5ce6f23413570cf20a8fe9939f077c4a7cc7e904e5c63dc11ae0a4f7e73745"
        ),
        "rates.csv": (
            "8e4ae2c2a34af6c2fc30842264978a942a233a32a4cef0119c1972199a03ab59"
        ),
        "records.jsonl": (
            "69b7e6af8ed448841af051e75adcaf2b5898d6dfabc1e7ffaed63d0e37b6f14b"
        ),
    },
    "tune-scan": {
        **_GOLDEN_FILES["calibrate"],
        "bins.csv": (
            "85aeed4ac6fc6d3fdb0cf8abe44a0db4a800c38f11b252682152957063f8ab42"
        ),
        "limits.csv": (
            "c5f0cbfb889ca52aa4a307a43b616ea27a7c5dd2a5fd01051270dfa2025213f0"
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
    for command, files in _GOLDEN_FILES.items():
        final, _ = pipeline.run_command(command, cfg, out_root=tmp_path)
        man = json.loads((final / "manifest.json").read_text())
        assert man["files"] == files, command

    search = _small_cfg(seed=3, trials=40)
    search["calibration"]["trials"] = 800
    search["search"]["inject_epsilon"] = 1e-15
    scan = _small_cfg(seed=1, trials=40)
    scan["scan"]["inject_epsilon"] = 2e-16
    scan["scan"]["inject_bin"] = 5
    for command, cfg in (("search", search), ("tune-scan", scan)):
        final, _ = pipeline.run_command(command, cfg, out_root=tmp_path)
        man = json.loads((final / "manifest.json").read_text())
        assert man["files"] == _GOLDEN_INJECTED_FILES[command], f"injected {command}"


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


_IMPORT_MEASUREMENT = """
import sys
import catscope.measurement
print(sorted(m for m in sys.modules if m.startswith("catscope.")))
"""


def test_simulator_loads_no_halo_physics():
    # the record simulator takes the signal as a probability: importing it
    # loads neither the halo model nor its quadrature
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
    assert "catscope.quadpack" not in loaded


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


def test_figures_artifact_flow(tmp_path):
    cfg = _small_cfg(trials=60)
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
    cal_dir = tmp_path / "results" / pipeline.run_id(cfg, "calibrate")
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
    rid = pipeline.run_id(cfg, "search")
    assert (tmp_path / "results" / rid / "fit.json").exists()
    timing = (tmp_path / "logs" / f"{rid}-timing.txt").read_text()
    assert timing.startswith(f"search {rid} wall_clock_s=")


def test_cli_exit_codes(tmp_path, capsys):
    # config problems are exit 2
    rc = cli.main(["search", "--trials", "0", "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err

    rc = cli.main(["figures", "nope", "--out", str(tmp_path)])
    assert rc == 2

    # a missing upstream artifact is a runtime failure, exit 1
    rc = cli.main(["figures", "exclusion", "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err

    # bad values from a config file are exit 2 too, and name the leaf; the
    # last four once ran (a boolean frequency) or ended in a traceback
    cases = [
        ("figures", "halo.rho_dm", "halo:\n  rho_dm: -1\n"),
        ("figures", "point.m_dm", "point:\n  m_dm: -5\n"),
        ("figures", "halo.v_vir", "halo:\n  v_vir: .nan\n"),
        ("figures", "device.omega_c", "device:\n  omega_c: true\n"),
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
        # a campaign's uniforms once asked numpy for 186 TiB
        ("simulate-record", "repeats", "repeats: 100000000000\n"),
        # an injection whose p_signal exceeds 1 once exited 2 naming no
        # leaf, after the whole self-calibration; one that overflows it
        # ended in an OverflowError traceback
        ("search", "search.inject_epsilon", "search:\n  inject_epsilon: 1.0e-12\n"),
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
    ]
    for i, (command, leaf, text) in enumerate(cases):
        p = tmp_path / f"bad{i}.yaml"
        p.write_text(text)
        rc = cli.main([command, "--config", str(p), "--out", str(tmp_path)])
        assert rc == 2, leaf
        err = capsys.readouterr().err
        assert f"error: {leaf} must be" in err
        assert "Traceback" not in err

    # extreme halo speeds pass every leaf bound but leave a coherence time
    # of 0 s, which once ended in a traceback from np.geomspace (or, for
    # v_vir 1e300, an OverflowError squaring it)
    extreme = [
        "halo:\n  v_g: 1.0e+300\n",
        "halo:\n  v_vir: 1.0e-300\n",
        "halo:\n  v_vir: 1.0e+300\n",
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


def _leaf_paths(tree, prefix=""):
    for key, val in tree.items():
        if isinstance(val, dict):
            yield from _leaf_paths(val, f"{prefix}{key}.")
        else:
            yield prefix + key


def _overlay(tmp_path, path, value):
    """A config file that sets one leaf, given as a dotted path."""
    for key in reversed(path.split(".")):
        value = {key: value}
    p = tmp_path / "cfg.yaml"
    p.write_text(yaml.safe_dump(value))
    return p


def test_config_schema_covers_every_default_leaf():
    leaves = {
        p
        for p in _leaf_paths(pipeline.DEFAULT_CONFIG)
        if p != "probes" and not p.startswith("records.probe.")
    }
    assert set(pipeline.CONFIG_SCHEMA) == leaves


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
    rid = pipeline.run_id(cfg, "simulate-record")
    lines = (tmp_path / "results" / rid / "records.jsonl").read_text().splitlines()
    assert len(lines) == 6  # the flag wins over the file
