"""Campaign orchestration: configs, deterministic run directories, and the
work behind each CLI command.

A run is fully specified by one hierarchical config: built-in defaults
overlaid with an optional YAML file and then with CLI flags.  Every random
draw derives from master_seed through a labeled SeedSequence path, so two
runs of the same command from the same config produce byte-identical
artifacts.  Outputs are staged under quarantine/ and promoted to
results/<run-id> only once every file is written; the run id hashes the
canonical config text together with the command name, so different commands
from one config land in sibling directories.
"""

from __future__ import annotations

import contextlib
import copy
import errno
import hashlib
import itertools
import json
import math
import platform
import shutil
import sys
import tempfile
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .darkmatter import (
    OMEGA_M_OFFSET,
    HaloParams,
    SearchPoint,
    coherence_time,
    excitation_probability,
    g_curve_to_csv,
    g_of_t,
    lineshape_to_csv,
)
from .errors import ConfigError, MissingArtifact, MissingCalibration, UnitOverflow
from .fits import (
    CalibrationCurve,
    ExclusionPoint,
    FrequencyBin,
    SearchSeries,
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
from .fock import (
    CatSpec,
    PhaseGrid,
    cat_state,
    required_dim,
    wigner,
    wigner_to_csv,
)
from .hmm import batch_posteriors, build_model, postselect
from .lindblad import transition_curves_to_csv
from .measurement import DeviceParams, TrialConfig, records_to_jsonl, run_campaign

COMMANDS = ("calibrate", "search", "tune-scan", "figures", "simulate-record")

DEFAULT_CONFIG = {
    "master_seed": 20260818,
    "device": asdict(DeviceParams()),
    "halo": asdict(HaloParams()),
    "point": {"m_dm": 2.0 * math.pi * 6.442e9, "omega_c": None, "v_eff": 4.45},
    "probes": [
        {"kind": "vacuum"},
        {"kind": "compass", "alpha_sq": 12.0},
    ],
    "repeats": 20,
    "thresholds": {"compass": 84.0, "vacuum": 1e5},
    "calibration": {
        "trials": 1500,
        "betas": [0.0, 0.05, 0.1, 0.15, 0.2],
        "self_calibrate": True,
        "path": None,
    },
    "search": {
        "trials": 1200,
        "tau_grid": [float(t) for t in np.geomspace(2e-5, 1.4e-4, 6)],
        "inject_epsilon": None,
    },
    "scan": {
        "trials": 800,
        "bins": 16,
        "spacing_hz": 6.0e3,
        "t1c": 4.6e-3,
        "alpha_sq": 12.0,
        "inject_epsilon": None,
        "inject_bin": None,
    },
    "records": {
        "trials": 64,
        "probe": {"kind": "compass", "alpha_sq": 4.0},
        "injected_beta": 0.0,
    },
}


# ---------------------------------------------------------------------------
# config handling


def default_config() -> dict:
    return copy.deepcopy(DEFAULT_CONFIG)


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        where = f"{path}{key}"
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        cur = base[key]
        if isinstance(cur, dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config key {where!r} must be a mapping")
            out[key] = _merge(cur, val, where + ".")
        else:
            out[key] = copy.deepcopy(val)
    return out


def load_config(path=None) -> dict:
    """Defaults overlaid with a YAML file; unknown keys are rejected."""
    cfg = default_config()
    if path is None:
        return cfg
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        loaded = yaml.safe_load(p.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {p} is not valid YAML: {exc}") from None
    if loaded is None:
        return cfg
    if not isinstance(loaded, dict):
        raise ConfigError(f"config file {p} must hold a mapping at the top level")
    return _merge(cfg, loaded)


_TRIAL_SECTIONS = ("calibration", "search", "scan", "records")


def apply_overrides(
    cfg: dict,
    seed=None,
    threshold=None,
    trials=None,
    bins=None,
    tau_max=None,
) -> dict:
    """Fold CLI flags into a loaded config; flags win over the file."""
    out = copy.deepcopy(cfg)
    if seed is not None:
        out["master_seed"] = int(seed)
    if threshold is not None:
        out["thresholds"]["compass"] = float(threshold)
    if trials is not None:
        for section in _TRIAL_SECTIONS:
            out[section]["trials"] = int(trials)
    if bins is not None:
        out["scan"]["bins"] = int(bins)
    if tau_max is not None:
        kept = [t for t in out["search"]["tau_grid"] if t <= float(tau_max)]
        if not kept:
            raise ConfigError(f"tau-max {tau_max!r} leaves no search times")
        out["search"]["tau_grid"] = kept
    return out


# Every config leaf outside the probe lists: path -> (kind, bound).  A kind
# ending in "?" also admits null; a list kind applies the bound to each item.
CONFIG_SCHEMA = {
    "master_seed": ("int", ">= 0"),
    **{
        f"device.{k}": ("num", "> 0")
        for k in ("omega_c", "chi", "T1c", "T1q", "T2q", "t_m")
    },
    **{
        f"device.{k}": ("num", "in [0, 1]")
        for k in ("n_c", "n_q", "readout_Fge", "readout_Fge_inv", "p_d", "p_leak")
    },
    **{f"halo.{k}": ("num", "> 0") for k in ("rho_dm", "v_vir", "v_g")},
    "point.m_dm": ("num", "> 0"),
    "point.omega_c": ("num?", "> 0"),
    "point.v_eff": ("num", "> 0"),
    "repeats": ("int", ">= 1"),
    "thresholds.compass": ("num", "> 0"),
    "thresholds.vacuum": ("num", "> 0"),
    "calibration.trials": ("int", ">= 1"),
    "calibration.betas": ("nums", ">= 0"),
    "calibration.self_calibrate": ("bool", None),
    "calibration.path": ("str?", None),
    "search.trials": ("int", ">= 1"),
    "search.tau_grid": ("nums", "> 0"),
    "search.inject_epsilon": ("num?", ">= 0"),
    "scan.trials": ("int", ">= 1"),
    "scan.bins": ("int", ">= 2"),
    "scan.spacing_hz": ("num", "> 0"),
    "scan.t1c": ("num", "> 0"),
    "scan.alpha_sq": ("num", "> 0"),
    "scan.inject_epsilon": ("num?", ">= 0"),
    "scan.inject_bin": ("int?", ">= 0"),
    "records.trials": ("int", ">= 1"),
    "records.injected_beta": ("num", ">= 0"),
}


def _is_finite(x) -> bool:
    # bool subclasses int but is never a number here; the float-range test
    # also rejects NaN, infinities and integers too large to convert
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


_KINDS = {
    "int": ("an integer", lambda x: type(x) is int),
    "num": ("a finite number", _is_finite),
    "nums": (
        "a non-empty list of finite numbers",
        lambda x: isinstance(x, list) and bool(x) and all(map(_is_finite, x)),
    ),
    "bool": ("true or false", lambda x: isinstance(x, bool)),
    "str": ("a string", lambda x: isinstance(x, str)),
}
_BOUNDS = {
    "> 0": lambda x: x > 0,
    ">= 0": lambda x: x >= 0,
    ">= 1": lambda x: x >= 1,
    ">= 2": lambda x: x >= 2,
    "in [0, 1]": lambda x: 0 <= x <= 1,
}


def _check_leaf(where: str, value, kind: str, bound) -> None:
    base = kind.rstrip("?")
    nullable = base != kind
    if value is None and nullable:
        return
    text, is_kind = _KINDS[base]
    ok = is_kind(value)
    if ok and bound is not None:
        ok = all(map(_BOUNDS[bound], value if base == "nums" else [value]))
    if not ok:
        rule = " ".join(filter(None, (text, bound, "or null" if nullable else "")))
        raise ConfigError(f"{where} must be {rule}, got {value!r}")


def _check_probe(p, where: str) -> None:
    if not isinstance(p, dict):
        raise ConfigError(f"{where} must be a mapping")
    kind = p.get("kind")
    if kind not in ("vacuum", "compass"):
        raise ConfigError(f"{where}.kind must be 'vacuum' or 'compass', got {kind!r}")
    extra = set(p) - {"kind", "alpha_sq"}
    if extra:
        raise ConfigError(f"{where} has unknown keys {sorted(extra)}")
    if kind == "compass":
        _check_leaf(f"{where}.alpha_sq", p.get("alpha_sq"), "num", "> 0")


# A mimic displacement beta on a probe of amplitude alpha is simulated on
# fock.required_dim(|alpha| + |beta|) levels with a dense eigenbasis; this
# amplitude, 648 levels, is the most the simulator should allocate, far
# above the drives a calibration uses (|beta| <= 0.2).
MAX_MIMIC_AMPLITUDE = 22.0


def _check_mimic(where: str, beta: float, probe: dict, applied: float) -> None:
    """Reject a displacement whose truncation exceeds MAX_MIMIC_AMPLITUDE;
    applied is the displacement the simulator uses for config value beta."""
    if beta == 0.0:
        return  # no displacement is simulated
    _, _, label, a2 = _probe_parts(probe)
    alpha = math.sqrt(a2) if probe["kind"] == "compass" else 0.0
    if not alpha + applied <= MAX_MIMIC_AMPLITUDE:
        dim = required_dim(MAX_MIMIC_AMPLITUDE)
        raise ConfigError(
            f"{where} must be small enough that |alpha| + |beta| <= "
            f"{MAX_MIMIC_AMPLITUDE:g} ({dim} Fock levels); on probe {label}, "
            f"{beta!r} displaces by {applied!r}"
        )


# A campaign of n trials draws its n x (1 + 4 repeats) uniforms up front
# (measurement._trial_uniforms), 8 bytes each; this many, 1 GiB, is the most
# one campaign should allocate, about 1,000 times the default calibration
# campaign's 1500 x 81.
MAX_CAMPAIGN_DRAWS = 2**27
ROC_TRIALS = 800  # trials of the readout-roc figure's campaign


def build_device(cfg: dict) -> DeviceParams:
    return DeviceParams(**cfg["device"])


def build_halo(cfg: dict) -> HaloParams:
    return HaloParams(**cfg["halo"])


def build_point(cfg: dict) -> SearchPoint:
    return SearchPoint(**cfg["point"])


def validate_config(cfg: dict) -> None:
    """Raise ConfigError on a bad config; warn when the search schedule
    reaches beyond the DM coherence time (allowed, but worth flagging).

    Each leaf is checked against CONFIG_SCHEMA; only the rules that span
    several fields are spelled out here."""
    for where, (kind, bound) in CONFIG_SCHEMA.items():
        value = cfg
        for key in where.split("."):
            value = value[key]
        _check_leaf(where, value, kind, bound)
    probes = cfg["probes"]
    if not (isinstance(probes, list) and probes):
        raise ConfigError("probes must be a non-empty list")
    for i, p in enumerate(probes):
        _check_probe(p, f"probes[{i}]")
    labels = [_probe_parts(p)[2] for p in probes]
    if len(set(labels)) != len(labels):
        raise ConfigError("probes must be distinct")
    _check_probe(cfg["records"]["probe"], "records.probe")
    betas = cfg["calibration"]["betas"]
    if len(set(betas)) < 3:
        raise ConfigError("calibration.betas needs at least 3 distinct values")
    for p in probes:
        a2 = _probe_parts(p)[3]
        for beta in betas:
            _check_mimic("calibration.betas", beta, p, beta / math.sqrt(a2))
    beta = cfg["records"]["injected_beta"]
    _check_mimic("records.injected_beta", beta, cfg["records"]["probe"], beta)
    draws = 1 + 4 * cfg["repeats"]
    trials = max([cfg[s]["trials"] for s in _TRIAL_SECTIONS] + [ROC_TRIALS])
    if trials * draws > MAX_CAMPAIGN_DRAWS:
        raise ConfigError(
            f"repeats must be small enough that every campaign's trials x "
            f"(1 + 4 repeats) <= {MAX_CAMPAIGN_DRAWS} (1 GiB of uniforms), "
            f"got {trials} x {draws}"
        )
    jbin = cfg["scan"]["inject_bin"]
    if jbin is not None and jbin >= cfg["scan"]["bins"]:
        raise ConfigError(
            f"scan.inject_bin must be a bin index below scan.bins, got {jbin!r}"
        )
    tau_dm = coherence_time(build_point(cfg), build_halo(cfg))
    if not (math.isfinite(tau_dm) and tau_dm > 0.0):
        raise ConfigError(f"DM coherence time must be finite and > 0, got {tau_dm!r}")
    worst = max(cfg["search"]["tau_grid"])
    if worst >= tau_dm:
        warnings.warn(
            f"search times reach {worst:.3g} s, at or beyond the DM "
            f"coherence time {tau_dm:.3g} s; the signal shape saturates there"
        )


def canonical_config_text(cfg: dict) -> str:
    """Stable textual form of a config: sorted keys, plain scalars."""
    return yaml.safe_dump(cfg, sort_keys=True, default_flow_style=False)


def config_sha256(cfg: dict) -> str:
    return hashlib.sha256(canonical_config_text(cfg).encode("utf-8")).hexdigest()


def run_id(cfg: dict, command: str) -> str:
    """Directory name for one (config, command) pair."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    text = canonical_config_text(cfg) + f"command: {command}\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


_STAGE_IDS = {"calibrate": 1, "search": 2, "tune": 3, "figures": 4, "records": 5}


def derive_seed(master: int, stage: str, *indices) -> int:
    """Labeled child seed.  Each (stage, indices) path owns its own stream,
    so enlarging one campaign never shifts the draws of another."""
    try:
        sid = _STAGE_IDS[stage]
    except KeyError:
        raise ConfigError(f"unknown seed stage {stage!r}") from None
    ss = np.random.SeedSequence([int(master), sid, *[int(i) for i in indices]])
    return int(ss.generate_state(1, np.uint64)[0] >> np.uint64(1))


# ---------------------------------------------------------------------------
# run directories


def module_versions() -> dict:
    return {
        "catscope": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


@dataclass(frozen=True)
class RunManifest:
    """What produced a run directory: the command, the config hash, the seed,
    library versions, and a name -> sha256 registry of the artifacts."""

    command: str
    run_id: str
    config_sha256: str
    master_seed: int
    versions: dict
    files: dict

    def to_json(self) -> str:
        body = {
            "command": self.command,
            "run_id": self.run_id,
            "config_sha256": self.config_sha256,
            "master_seed": self.master_seed,
            "versions": dict(self.versions),
            "files": dict(self.files),
        }
        return json.dumps(body, sort_keys=True, indent=2) + "\n"


class RunWriter:
    """Stage artifacts under quarantine/, promote to results/<run-id> on
    success.

    Each writer stages in a directory of its own, so concurrent runs of one
    config never touch each other's files.  A failure mid-run leaves the
    staged files behind for inspection and never touches results/."""

    def __init__(self, out_root, run_id: str):
        self.out_root = Path(out_root)
        self.run_id = run_id
        self.final_dir = self.out_root / "results" / run_id
        self.hashes: dict[str, str] = {}
        quarantine = self.out_root / "quarantine"
        quarantine.mkdir(parents=True, exist_ok=True)
        # mkdtemp makes a mode-0700 holder, so the staged directory inside it
        # is made with plain mkdir and keeps the umask's permissions; the
        # holder also receives the result this run replaces
        self._holder = Path(tempfile.mkdtemp(prefix=f"{run_id}-", dir=quarantine))
        self.stage_dir = self._holder / run_id
        self.stage_dir.mkdir()

    def write(self, name: str, text: str) -> None:
        if "/" in name or name.startswith("."):
            raise ConfigError(f"bad artifact name {name!r}")
        data = text.encode("utf-8")
        (self.stage_dir / name).write_bytes(data)
        self.hashes[name] = hashlib.sha256(data).hexdigest()

    def promote(self) -> Path:
        """Rename the staged directory to results/<run-id>.  A previous
        result is first renamed aside and deleted only afterwards, so the
        directory never holds a partial or mixed set of files; between
        concurrent promotes of one run id the last one wins."""
        self.final_dir.parent.mkdir(parents=True, exist_ok=True)
        for attempt in itertools.count():
            try:
                self.stage_dir.rename(self.final_dir)
                break
            except OSError as exc:
                if exc.errno not in (errno.ENOTEMPTY, errno.EEXIST):
                    raise
            # a concurrent promote may move the old result first
            with contextlib.suppress(FileNotFoundError):
                self.final_dir.rename(self._holder / f"replaced-{attempt}")
        shutil.rmtree(self._holder)
        return self.final_dir


# ---------------------------------------------------------------------------
# shared pieces


def _probe_parts(p: dict):
    """(init state, hmm mode, label, alpha_sq) for one probe entry."""
    if p["kind"] == "vacuum":
        return None, "vacuum", "vacuum", 1.0
    a2 = float(p["alpha_sq"])
    return CatSpec(alpha=math.sqrt(a2)), "compass", f"a{a2:g}", a2


def _count_positives(model, threshold: float, campaign):
    """(k_pos, n_kept, n_dropped) after post-selection and classification."""
    kept, dropped = postselect(campaign.records)
    if not kept:
        return 0, 0, dropped
    _, lam = batch_posteriors(model, kept)
    return int(np.sum(lam > threshold)), len(kept), dropped


def _signal_probability(where: str, eps: float, point, halo, t, alpha_sq, g=None):
    """p_signal of one injected campaign, checked before any campaign runs:
    an epsilon (the config value at where) that overflows p or takes it
    past 1 is a config error."""
    try:
        p = excitation_probability(eps, point, halo, t, alpha_sq, g)
    except (OverflowError, UnitOverflow):
        p = math.inf
    if not p <= 1.0:
        raise ConfigError(
            f"{where} must be small enough that every injected campaign's "
            f"p_signal <= 1, got {eps!r} (p_signal {p:.3g} at t = {t!r} s)"
        )
    return p


def _calibrated_eta(etas_by_label: dict, label: str, hint: str = "") -> float:
    """The probe's calibrated efficiency; a missing or non-positive one
    cannot scale a signal rate."""
    if label not in etas_by_label:
        raise MissingCalibration(f"calibration has no entry for probe {label!r}{hint}")
    eta = etas_by_label[label]
    if not eta > 0.0:
        raise MissingCalibration(
            f"calibrated efficiency for {label!r} is {eta!r}; "
            "rerun calibration with more trials"
        )
    return eta


# ---------------------------------------------------------------------------
# commands


def run_calibrate(cfg: dict):
    """Mimic-displacement response curves, eta/delta fits per probe, and the
    cat enhancement against the vacuum probe.

    calibration.betas are vacuum-scale drives; the applied displacement is
    beta / alpha per probe, which holds the injected flip probability
    alpha_sq * |beta_applied|^2 fixed across probes.  Every probe then sees
    the same response range, inside the linear regime of the fit model."""
    device = build_device(cfg)
    master = cfg["master_seed"]
    repeats = cfg["repeats"]
    trials = cfg["calibration"]["trials"]
    betas = [float(b) for b in cfg["calibration"]["betas"]]
    rows = []
    curve_lines = ["probe,mode,alpha_sq,beta,n_inj,k_pos,n_kept,n_dropped"]
    for pi, probe in enumerate(cfg["probes"]):
        init, mode, label, a2 = _probe_parts(probe)
        model = build_model(device, alpha_sq=a2, mode=mode)
        thr = float(cfg["thresholds"][mode])
        pts = []
        for bi, beta in enumerate(betas):
            seed = derive_seed(master, "calibrate", pi, bi)
            applied = beta / math.sqrt(a2)
            tc = TrialConfig(
                init=init,
                injected_beta=applied if beta > 0 else None,
                repeats=repeats,
                rng_seed=seed,
            )
            camp = run_campaign(trials, tc, device)
            k, n_kept, n_drop = _count_positives(model, thr, camp)
            n_inj = applied * applied
            pts.append((n_inj, k, n_kept))
            curve_lines.append(
                f"{label},{mode},{a2!r},{applied!r},{n_inj!r},{k},{n_kept},{n_drop}"
            )
        fit = calibrate_detector(CalibrationCurve(tuple(pts), alpha_sq=a2))
        rows.append(
            {
                "label": label,
                "mode": mode,
                "alpha_sq": a2,
                "eta": fit.params["eta"],
                "eta_err": fit.stderr("eta"),
                "delta": fit.params["delta"],
                "delta_err": fit.stderr("delta"),
                "log_likelihood": fit.log_likelihood,
                "iterations": fit.iterations,
            }
        )
    eta0 = next((r["eta"] for r in rows if r["mode"] == "vacuum"), None)
    enh = {}
    for r in rows:
        if r["mode"] == "compass" and eta0 is not None and eta0 > 0.0:
            enh[r["label"]] = enhancement_factor(r["eta"], r["alpha_sq"], eta0)
    report = {"probes": rows, "enhancement": enh}
    files = {
        "calibration.json": json.dumps(report, sort_keys=True, indent=2) + "\n",
        "calibration.csv": "\n".join(curve_lines) + "\n",
    }
    summary = [
        f"{r['label']}: eta = {r['eta']:.4f} +- {r['eta_err']:.4f}, "
        f"delta = {r['delta']:.2e}"
        for r in rows
    ]
    summary += [f"enhancement {k}: {v:.2f}" for k, v in sorted(enh.items())]
    return files, summary


def _load_calibration(cfg: dict):
    """eta per probe label.  calibration.path wins; otherwise self-calibrate
    (reusing the calibrate seeds, so the artifacts match a standalone run);
    otherwise there is nothing to analyze against."""
    cal = cfg["calibration"]
    if cal["path"] is not None:
        p = Path(cal["path"])
        if not p.exists():
            raise MissingCalibration(f"calibration file not found: {p}")
        try:
            report = json.loads(p.read_text())
            etas = {r["label"]: float(r["eta"]) for r in report["probes"]}
        except (KeyError, TypeError, ValueError) as exc:
            raise MissingCalibration(
                f"calibration file {p} is malformed: {exc}"
            ) from None
        return etas, {}
    if cal["self_calibrate"]:
        files, _ = run_calibrate(cfg)
        report = json.loads(files["calibration.json"])
        etas = {r["label"]: float(r["eta"]) for r in report["probes"]}
        return etas, files
    raise MissingCalibration(
        "no calibration available: set calibration.path or calibration.self_calibrate"
    )


def run_search(cfg: dict):
    """Integration-time scan per probe, the pooled signal fit, and the
    kinetic-mixing exclusion point at the configured mass.  An injected
    epsilon reaches the simulator as each campaign's p_signal, computed
    here from one g(tau) batch that the fit reads as well."""
    device = build_device(cfg)
    halo = build_halo(cfg)
    point = build_point(cfg)
    master = cfg["master_seed"]
    repeats = cfg["repeats"]
    sr = cfg["search"]
    taus = [float(t) for t in sr["tau_grid"]]
    eps = sr["inject_epsilon"]
    probes = [_probe_parts(probe) for probe in cfg["probes"]]
    # g(tau) depends on neither the probe nor the injection: one batch
    # integrates every tau for the injected campaigns and the fit
    g_at = dict(zip(taus, g_of_t(taus, point, halo)))
    p_signal = {}  # (probe index, tau) -> p, checked before any campaign runs
    if eps:
        for pi, (init, _, _, _) in enumerate(probes):
            # the simulated probe's |alpha|^2, which can differ from a2 in
            # the last bit: abs(sqrt(12)) ** 2 is 11.999999999999998
            a2_sim = abs(init.alpha) ** 2 if init is not None else 1.0
            for tau in taus:
                p_signal[pi, tau] = _signal_probability(
                    "search.inject_epsilon",
                    float(eps),
                    point,
                    halo,
                    tau,
                    a2_sim,
                    g_at[tau],
                )
    etas_by_label, files = _load_calibration(cfg)
    # every probe's efficiency is checked before any campaign runs
    etas = [_calibrated_eta(etas_by_label, label) for _, _, label, _ in probes]
    series = []
    rate_lines = ["probe,alpha_sq,tau,k_pos,n_kept,n_dropped,eta"]
    record_chunks = []
    for pi, ((init, mode, label, a2), eta) in enumerate(zip(probes, etas)):
        model = build_model(device, alpha_sq=a2, mode=mode)
        thr = float(cfg["thresholds"][mode])
        ks, ns = [], []
        for ti, tau in enumerate(taus):
            seed = derive_seed(master, "search", pi, ti)
            p = p_signal.get((pi, tau))
            tc = TrialConfig(init=init, p_signal=p, repeats=repeats, rng_seed=seed)
            camp = run_campaign(sr["trials"], tc, device)
            k, n_kept, n_drop = _count_positives(model, thr, camp)
            ks.append(k)
            ns.append(n_kept)
            rate_lines.append(
                f"{label},{a2!r},{tau!r},{k},{n_kept},{n_drop},{eta!r}"
            )
            record_chunks.append(records_to_jsonl(camp.records))
        series.append(SearchSeries(a2, tuple(taus), tuple(ks), tuple(ns)))
    fit = search_fit(series, g_at.__getitem__, tuple(etas))
    a0 = fit.params["a0"]
    sig = fit.stderr("a0")
    lim = epsilon_limit(a0, sig, point, halo)
    files = dict(files)
    files["rates.csv"] = "\n".join(rate_lines) + "\n"
    files["fit.json"] = fit_result_to_json(fit)
    files["limits.csv"] = exclusion_to_csv([lim])
    files["records.jsonl"] = "".join(record_chunks)
    flag = " (boundary)" if fit.boundary_hit else ""
    summary = [
        f"a0 = {a0:.4g} +- {sig:.4g} 1/s^2{flag}",
        f"eps90 = {lim.eps90:.4g} at m/2pi = {point.m_dm / (2 * math.pi):.6g} Hz",
    ]
    return files, summary


def run_tune_scan(cfg: dict):
    """Frequency-bin scan: one campaign per cavity tuning, background
    subtraction across bins, and a per-bin limit at each bin's own resonant
    mass.  An injected bin's p_signal is computed at the injected mass."""
    device = build_device(cfg)
    halo = build_halo(cfg)
    point = build_point(cfg)
    master = cfg["master_seed"]
    repeats = cfg["repeats"]
    sc = cfg["scan"]
    n_bins = sc["bins"]
    spacing = 2.0 * math.pi * float(sc["spacing_hz"])
    t1c = float(sc["t1c"])
    a2 = float(sc["alpha_sq"])
    init = CatSpec(alpha=math.sqrt(a2))
    center = point.effective_omega_c()
    omegas = [center + (i - (n_bins - 1) / 2.0) * spacing for i in range(n_bins)]
    eps = sc["inject_epsilon"]
    jbin = sc["inject_bin"]
    m_inj = None
    p_signal = [None] * n_bins  # per bin, checked before any campaign runs
    if eps and jbin is not None:
        m_inj = omegas[jbin] / (1.0 + OMEGA_M_OFFSET)
        p_signal = [
            _signal_probability(
                "scan.inject_epsilon",
                float(eps),
                SearchPoint(m_dm=m_inj, omega_c=om, v_eff=point.v_eff),
                halo,
                t1c,
                abs(init.alpha) ** 2,
            )
            for om in omegas
        ]
    etas_by_label, files = _load_calibration(cfg)
    eta = _calibrated_eta(etas_by_label, f"a{a2:g}", "; add it to probes")
    # the calibration slope is an efficiency estimate and can overshoot 1
    # at small trial counts; project it back to the physical boundary
    eta = min(eta, 1.0)
    model = build_model(device, alpha_sq=a2, mode="compass")
    thr = float(cfg["thresholds"]["compass"])
    bins = []
    counts = []
    for i, om in enumerate(omegas):
        seed = derive_seed(master, "tune", i)
        tc = TrialConfig(
            init=init, p_signal=p_signal[i], repeats=repeats, rng_seed=seed
        )
        camp = run_campaign(sc["trials"], tc, device)
        k, n_kept, n_drop = _count_positives(model, thr, camp)
        bins.append(FrequencyBin(om, k, n_kept, eta, t1c))
        counts.append((i, om, k, n_kept, n_drop))
    res = background_subtract(bins, point, halo, per_bin_mass=True)
    lines = [
        "bin,omega_hz,m_dm_hz,k_pos,n_kept,n_dropped,eta,delta_raw,"
        "n_norm,p_i,sigma_p,eps90"
    ]
    limits = []
    for (i, om, k, n_kept, n_drop), bl in zip(counts, res.bins):
        m_i = om / (1.0 + OMEGA_M_OFFSET)
        raw = k / n_kept if n_kept else 0.0
        lines.append(
            ",".join(
                [
                    str(i),
                    repr(om / (2.0 * math.pi)),
                    repr(m_i / (2.0 * math.pi)),
                    str(k),
                    str(n_kept),
                    str(n_drop),
                    repr(eta),
                    repr(raw),
                    repr(bl.n_norm),
                    repr(bl.p_i),
                    repr(bl.sigma_p),
                    repr(bl.eps90),
                ]
            )
        )
        limits.append(ExclusionPoint(m_i, bl.eps90, 0.0, bl.eps90))
    files = dict(files)
    files["bins.csv"] = "\n".join(lines) + "\n"
    files["limits.csv"] = exclusion_to_csv(limits)
    med = float(np.median([b.eps90 for b in res.bins]))
    summary = [
        f"{n_bins} bins, eta_fit = {res.eta_fit:g}, median eps90 = {med:.3g}"
    ]
    if m_inj is not None:
        summary.append(f"injected epsilon = {float(eps):g} at bin {jbin}")
    return files, summary


def run_simulate_record(cfg: dict):
    """Raw readout records for one probe, truth annotations included."""
    device = build_device(cfg)
    rc = cfg["records"]
    init, mode, label, a2 = _probe_parts(rc["probe"])
    beta = float(rc["injected_beta"])
    seed = derive_seed(cfg["master_seed"], "records", 0)
    tc = TrialConfig(
        init=init,
        injected_beta=beta if beta > 0 else None,
        repeats=cfg["repeats"],
        rng_seed=seed,
    )
    camp = run_campaign(rc["trials"], tc, device)
    _, dropped = postselect(camp.records)
    files = {"records.jsonl": records_to_jsonl(camp.records)}
    summary = [f"{rc['trials']} records ({label}), {dropped} with leakage"]
    return files, summary


# ---------------------------------------------------------------------------
# figures

_CONFIG_FIGURES = (
    "cat-wigner",
    "transition-curves",
    "sensitivity-growth",
    "lineshape",
    "readout-roc",
)
_ARTIFACT_FIGURES = {
    "calibration-curve": ("calibrate", "calibration.csv"),
    "enhancement": ("calibrate", "calibration.json"),
    "search-rates": ("search", "rates.csv"),
    "exclusion": ("search", "limits.csv"),
    "scan-bins": ("tune-scan", "bins.csv"),
    "scan-limits": ("tune-scan", "limits.csv"),
}
FIGURE_IDS = _CONFIG_FIGURES + tuple(sorted(_ARTIFACT_FIGURES))


def _compass_alpha_sq(cfg: dict) -> float:
    vals = [float(p["alpha_sq"]) for p in cfg["probes"] if p["kind"] == "compass"]
    return max(vals) if vals else 4.0


def _read_artifact(fid: str, cfg: dict, out_root) -> str:
    """The source file of an artifact-backed figure, once its run's
    manifest.json vouches for it: the file's SHA-256 must be the one the
    manifest registered, and the manifest's versions this process's."""
    command, fname = _ARTIFACT_FIGURES[fid]
    run_dir = Path(out_root) / "results" / run_id(cfg, command)
    src = run_dir / fname
    if not src.exists():
        raise MissingArtifact(
            f"figure {fid!r} needs {fname} from a prior '{command}' run "
            f"with this config; expected it at {src}"
        )
    data = src.read_bytes()
    try:
        manifest = json.loads((run_dir / "manifest.json").read_text())
        registered, versions = manifest["files"].get(fname), manifest["versions"]
    except (OSError, ValueError, TypeError, KeyError, AttributeError) as exc:
        raise MissingArtifact(
            f"{src} has no readable manifest.json beside it ({exc}); "
            f"rerun '{command}'"
        ) from None
    if registered != hashlib.sha256(data).hexdigest():
        raise MissingArtifact(
            f"{src} does not match the SHA-256 its manifest.json registered; "
            f"rerun '{command}'"
        )
    if versions != module_versions():
        raise MissingArtifact(
            f"{src} was written with versions {versions}, not "
            f"{module_versions()}; rerun '{command}'"
        )
    return data.decode("utf-8")


def _render_figure(fid: str, cfg: dict, out_root) -> str:
    device = build_device(cfg)
    halo = build_halo(cfg)
    point = build_point(cfg)
    if fid in _ARTIFACT_FIGURES:
        text = _read_artifact(fid, cfg, out_root)
        if fid == "enhancement":
            report = json.loads(text)
            by_label = report.get("enhancement", {})
            lines = ["probe,alpha_sq,eta,enhancement"]
            for row in report["probes"]:
                value = by_label.get(row["label"])
                if value is None and row["mode"] == "vacuum":
                    value = 1.0  # the reference probe, by construction
                if value is None:
                    continue
                lines.append(
                    f"{row['label']},{row['alpha_sq']!r},{row['eta']!r},"
                    f"{value!r}"
                )
            return "\n".join(lines) + "\n"
        return text
    if fid == "cat-wigner":
        spec = CatSpec(alpha=math.sqrt(_compass_alpha_sq(cfg)))
        ext = abs(spec.alpha) + 2.0
        grid = PhaseGrid(-ext, ext, 61, -ext, ext, 61)
        dim = required_dim(abs(spec.alpha) + math.sqrt(2.0) * ext + 1.0)
        return wigner_to_csv(grid, wigner(cat_state(spec, dim), grid))
    if fid == "transition-curves":
        alpha = math.sqrt(_compass_alpha_sq(cfg))
        times = np.linspace(0.0, 0.25 * device.T1c, 51)
        return transition_curves_to_csv(4, alpha, 1.0 / device.T1c, times)
    if fid == "sensitivity-growth":
        tau_dm = coherence_time(point, halo)
        times = np.geomspace(tau_dm / 100.0, 20.0 * tau_dm, 81)
        return g_curve_to_csv(times, point, halo)
    if fid == "lineshape":
        omegas = point.m_dm * (1.0 + np.linspace(0.0, 5e-6, 241))
        return lineshape_to_csv(omegas, point, halo)
    if fid == "readout-roc":
        a2 = _compass_alpha_sq(cfg)
        init = CatSpec(alpha=math.sqrt(a2))
        model = build_model(device, alpha_sq=a2, mode="compass")
        seed = derive_seed(cfg["master_seed"], "figures", 0)
        tc = TrialConfig(
            init=init, injected_beta=0.15, repeats=cfg["repeats"], rng_seed=seed
        )
        camp = run_campaign(ROC_TRIALS, tc, device)
        rows = threshold_sweep(camp, model, np.geomspace(1e-2, 1e6, 33))
        return sweep_to_csv(rows)
    raise ConfigError(f"unknown figure {fid!r}")


def run_figures(cfg: dict, which=None, out_root="."):
    """CSV tables behind the plots.  Figures needing campaign artifacts read
    the matching run directory under out_root and fail with MissingArtifact
    when the producing command has not run with this config, or when its
    manifest.json does not vouch for the file (see _read_artifact)."""
    if not which:
        ids = list(_CONFIG_FIGURES)
    elif list(which) == ["all"]:
        ids = list(FIGURE_IDS)
    else:
        ids = list(which)
        for fid in ids:
            if fid not in FIGURE_IDS:
                raise ConfigError(
                    f"unknown figure {fid!r}; valid ids: "
                    f"{', '.join(FIGURE_IDS)}, or 'all'"
                )
    files = {}
    for fid in ids:
        files[f"{fid}.csv"] = _render_figure(fid, cfg, out_root)
    return files, [f"{len(files)} figure tables: {', '.join(sorted(files))}"]


# ---------------------------------------------------------------------------
# dispatcher


def run_command(command: str, cfg: dict, out_root=".", which=None):
    """Validate, run one command, stage and promote its artifacts.

    Returns (final run directory, human-readable summary lines)."""
    validate_config(cfg)
    if command == "calibrate":
        files, summary = run_calibrate(cfg)
    elif command == "search":
        files, summary = run_search(cfg)
    elif command == "tune-scan":
        files, summary = run_tune_scan(cfg)
    elif command == "figures":
        files, summary = run_figures(cfg, which=which, out_root=out_root)
    elif command == "simulate-record":
        files, summary = run_simulate_record(cfg)
    else:
        raise ConfigError(f"unknown command {command!r}")
    rid = run_id(cfg, command)
    writer = RunWriter(out_root, rid)
    for name in sorted(files):
        writer.write(name, files[name])
    manifest = RunManifest(
        command=command,
        run_id=rid,
        config_sha256=config_sha256(cfg),
        master_seed=cfg["master_seed"],
        versions=module_versions(),
        files=dict(sorted(writer.hashes.items())),
    )
    writer.write("manifest.json", manifest.to_json())
    final = writer.promote()
    return final, summary
