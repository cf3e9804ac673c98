"""End-to-end tests for the campaign pipeline and the command line."""

from __future__ import annotations

import csv
import io
import json
import math
import warnings

import numpy as np
import pytest

from catscope import cli, pipeline
from catscope.darkmatter import coherence_time, rho_m_veff
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


def test_promote_replaces_stale_run(tmp_path):
    cfg = _small_cfg(trials=16)
    final, _ = pipeline.run_command("simulate-record", cfg, out_root=tmp_path)
    (final / "stale.txt").write_text("left over\n")
    final2, _ = pipeline.run_command("simulate-record", cfg, out_root=tmp_path)
    assert final2 == final
    assert not (final / "stale.txt").exists()
    assert not any((tmp_path / "quarantine").iterdir())


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

    # out-of-range halo and point values from a config file are exit 2 too
    for i, text in enumerate(
        ("halo:\n  rho_dm: -1\n", "point:\n  m_dm: -5\n", "halo:\n  v_vir: .nan\n")
    ):
        p = tmp_path / f"bad{i}.yaml"
        p.write_text(text)
        rc = cli.main(["figures", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 2
        assert "error: config section" in capsys.readouterr().err

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
