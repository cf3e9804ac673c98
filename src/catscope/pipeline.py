"""Campaign orchestration: configs, deterministic run directories, and the
work behind each CLI command.

A run is fully specified by one hierarchical config: built-in defaults
overlaid with an optional YAML file (PyYAML is imported only to read one)
and then with CLI flags.  Every random draw derives from master_seed
through a labeled SeedSequence path, so two runs of the same command from
the same config produce byte-identical artifacts.  Outputs are staged
under quarantine/ and promoted to results/<run-id> only once every file is
written; the run id hashes the canonical config text, sorted-key JSON,
together with the command name, so different commands from one config land
in sibling directories.
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
from dataclasses import asdict
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .darkmatter import (
    HaloParams,
    SearchPoint,
    coherence_time,
    excitation_probability,
    g_curve_to_csv,
    g_of_t,
    lineshape_to_csv,
    resonant_mass,
)
from .errors import ConfigError, DegenerateDesign, MissingArtifact, MissingCalibration
from .errors import NonFinite, QuadratureFailure, ZeroSignalDenominator
from .fits import (
    CalibrationCurve,
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
from .fock import CatSpec, PhaseGrid, sector_norms, wigner
from .fock import wigner_to_csv
from .hmm import batch_posteriors, build_model, postselect
from .lindblad import transition_curves_to_csv
from .measurement import DeviceParams, TrialConfig, records_to_jsonl, run_campaign

COMMANDS = ("calibrate", "search", "tune-scan", "figures", "simulate-record")
# the commands whose summary ends with the records line (_record_counts)
CAMPAIGN_COMMANDS = ("calibrate", "search", "tune-scan")


# ---------------------------------------------------------------------------
# config handling


# Every config leaf outside the probe lists: path -> (default, kind, bound).
# A kind ending in "?" also admits null; a list kind applies the bound to
# each item.  The device, halo and point defaults are their dataclasses' own.
_DEVICE = asdict(DeviceParams())
_POINT = asdict(SearchPoint(m_dm=2.0 * math.pi * 6.442e9))
CONFIG_SCHEMA = {
    "master_seed": (20260818, "int", ">= 0"),
    **{
        f"device.{k}": (_DEVICE[k], "num", "> 0")
        for k in ("chi", "T1c", "T1q", "T2q", "t_m")
    },
    **{
        f"device.{k}": (_DEVICE[k], "num", "in [0, 1]")
        for k in ("n_c", "n_q", "readout_Fge", "readout_Fge_inv", "p_d", "p_leak")
    },
    **{f"halo.{k}": (v, "num", "> 0") for k, v in asdict(HaloParams()).items()},
    "point.m_dm": (_POINT["m_dm"], "num", "> 0"),
    "point.omega_c": (_POINT["omega_c"], "num?", "> 0"),
    "point.v_eff": (_POINT["v_eff"], "num", "> 0"),
    "repeats": (20, "int", ">= 1"),
    "thresholds.compass": (84.0, "num", "> 0"),
    "thresholds.vacuum": (1e5, "num", "> 0"),
    "calibration.trials": (1500, "int", ">= 1"),
    "calibration.betas": ([0.0, 0.05, 0.1, 0.15, 0.2], "nums", ">= 0"),
    "calibration.self_calibrate": (True, "bool", None),
    "calibration.path": (None, "str?", None),
    "search.trials": (1200, "int", ">= 1"),
    "search.tau_grid": (np.geomspace(2e-5, 1.4e-4, 6).tolist(), "nums", "> 0"),
    "search.inject_epsilon": (None, "num?", ">= 0"),
    "scan.trials": (800, "int", ">= 1"),
    "scan.bins": (16, "int", ">= 2"),
    "scan.spacing_hz": (6.0e3, "num", "> 0"),
    "scan.t1c": (4.6e-3, "num", "> 0"),
    "scan.alpha_sq": (12.0, "num", "> 0"),
    "scan.inject_epsilon": (None, "num?", ">= 0"),
    "scan.inject_bin": (None, "int?", ">= 0"),
    "records.trials": (64, "int", ">= 1"),
    "records.injected_beta": (0.0, "num", ">= 0"),
}
# the probe lists' defaults; _check_probe checks them, not the table
_PROBES = [{"kind": "vacuum"}, {"kind": "compass", "alpha_sq": 12.0}]
_RECORDS_PROBE = {"kind": "compass", "alpha_sq": 4.0}


def _default_tree() -> dict:
    tree = {"probes": _PROBES, "records": {"probe": _RECORDS_PROBE}}
    for path, (default, _, _) in CONFIG_SCHEMA.items():
        *sections, key = path.split(".")
        node = tree
        for section in sections:
            node = node.setdefault(section, {})
        node[key] = default
    return tree


# built once; default_config hands out deep copies, which _merge may overlay
_DEFAULT_TREE = _default_tree()


def default_config() -> dict:
    return copy.deepcopy(_DEFAULT_TREE)


def _merge(base: dict, override: dict, path: str = "") -> dict:
    """Overlay override onto base in place; both are the caller's own."""
    for key, val in override.items():
        where = f"{path}{key}"
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(base[key], dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config key {where!r} must be a mapping")
            _merge(base[key], val, where + ".")
        else:
            base[key] = val
    return base


def load_config(path=None) -> dict:
    """Defaults overlaid with a YAML file; unknown keys are rejected."""
    cfg = default_config()
    if path is None:
        return cfg
    p = Path(path)
    try:
        text = p.read_text()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {p}") from None
    except (OSError, ValueError) as exc:  # a directory, or bytes that are not UTF-8
        raise ConfigError(f"config file {p} cannot be read: {exc}") from None
    import yaml  # here only: a run without a config file never loads PyYAML

    try:
        loaded = yaml.safe_load(text)
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


# A mimic displacement beta on a probe of amplitude alpha is folded back into
# the cat sectors (measurement._mimic_sector_populations), a model of small
# displacements; this bound, far above the drives a calibration uses
# (|beta| <= 0.2), keeps drives in its regime and |beta|^2 finite.
MAX_MIMIC_AMPLITUDE = 22.0


def _check_mimic(
    where: str, beta: float, probe: dict, at: str, applied: float
) -> None:
    """Reject a drive beta (config path where), simulated as the displacement
    applied, past MAX_MIMIC_AMPLITUDE or on a compass probe (config path at)
    with a cat sector that fock.sector_norms refuses."""
    if beta == 0.0:
        return  # no displacement is simulated
    init, _, label, a2 = _probe_parts(probe)
    alpha = math.sqrt(a2) if init is not None else 0.0
    if not alpha + applied <= MAX_MIMIC_AMPLITUDE:
        raise ConfigError(
            f"{where} must be small enough that |alpha| + |beta| <= "
            f"{MAX_MIMIC_AMPLITUDE:g}; on probe {label}, {beta!r} displaces by "
            f"{applied!r}"
        )
    if init is not None:
        try:
            sector_norms(init.m, a2)
        except NonFinite as exc:
            raise ConfigError(
                f"{at}.alpha_sq must be large enough that every cat sector "
                f"resolves when it is displaced by {applied!r}: {exc}"
            ) from None


# A campaign of n trials draws its n x (1 + 4 repeats) uniforms up front
# (measurement._trial_uniforms), 8 bytes each, filled in place with no
# scratch beside them; this many, 1 GiB, is the most one campaign should
# allocate, about 1,000 times the default calibration campaign's 1500 x 81.
MAX_CAMPAIGN_DRAWS = 2**27
# A probe's consecutive campaigns share one run_campaign call while its
# uniforms stay within this many, or one campaign's if that is more: at few
# trials a call is mostly fixed cost.  Ten 100-trial searches (six campaigns
# a probe) took 0.065 s batched against 0.108 s one campaign to a call (in
# process, best of 7, 2-CPU host, numpy 2.4.6).  The default calibration
# (1500 x 81) and search (1200 x 81) campaigns still run one to a call.
CALL_DRAWS = 2**17
ROC_TRIALS = 800  # trials of the readout-roc figure's campaign
ROC_BETA = 0.15  # mimic displacement of the readout-roc figure's campaign
GROWTH_SPAN = 20.0  # the sensitivity-growth figure's last time, in tau_DM
# the search fit scales its a0 column by 1 / (its largest g) and squares that
G_FLOOR = 1.0 / math.sqrt(sys.float_info.max)
# the calibration fit scales its eta column by 1 / (alpha^2 max n_inj) and
# squares that
N_INJ_FLOOR = G_FLOOR
# the largest calibrated efficiency search and tune-scan accept.  The
# physical bound is 1, which a slope fit to few trials overshoots (both
# commands clip it there): 40-trial self-calibrations read 2.0 for the a12
# probe and 10.2 for an alpha_sq = 0.05 one, and both runs are kept
ETA_CEILING = 100.0


def _growth_times(tau_dm: float) -> np.ndarray:
    """The sensitivity-growth figure's 81 times, tau_DM / 100 to
    GROWTH_SPAN tau_DM."""
    return np.geomspace(tau_dm / 100.0, GROWTH_SPAN * tau_dm, 81)


def _bin_omega(point: SearchPoint, sc: dict, i: int) -> float:
    """Cavity frequency of scan bin i: the scan centres its bins on the
    search point's cavity frequency, scan.spacing_hz apart."""
    spacing = 2.0 * math.pi * float(sc["spacing_hz"])
    return point.effective_omega_c() + (i - (sc["bins"] - 1) / 2.0) * spacing


def _coherence_time(point: SearchPoint, halo: HaloParams) -> float:
    """tau_DM at the search point, refused unless finite and > 0."""
    tau_dm = coherence_time(point, halo)
    if not (math.isfinite(tau_dm) and tau_dm > 0.0):
        raise ConfigError(
            f"DM coherence time must be finite and > 0, got {tau_dm!r}; "
            f"halo.v_vir, halo.v_g and point.m_dm set it"
        )
    return tau_dm


def validate_config(cfg: dict) -> None:
    """Raise ConfigError on a bad config value.

    Each leaf is checked against CONFIG_SCHEMA; only the rules that span
    several leaves are spelled out here.  Nothing is derived: a value a
    command computes from the config (a calibration drive, g(t), a bin
    frequency) is checked by that command where it computes it, before
    its first campaign."""
    for where, (_, kind, bound) in CONFIG_SCHEMA.items():
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
    if len(set(cfg["calibration"]["betas"])) < 3:
        raise ConfigError("calibration.betas needs at least 3 distinct values")
    if len(set(cfg["search"]["tau_grid"])) < 2:
        raise ConfigError("search.tau_grid needs at least 2 distinct values")
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


def canonical_config_text(cfg: dict) -> str:
    """Stable textual form of a validated config: sorted-key JSON."""
    return json.dumps(cfg, sort_keys=True)


def config_sha256(config_text: str) -> str:
    """SHA-256 of a config's canonical text (canonical_config_text)."""
    return hashlib.sha256(config_text.encode("utf-8")).hexdigest()


def run_id(config_text: str, command: str) -> str:
    """Directory name for one (config, command) pair, from the config's
    canonical text (canonical_config_text)."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    text = config_text + f"command: {command}\n"
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


class RunManifest(NamedTuple):
    """What produced a run directory: the command, the config hash, the seed,
    library versions, and a name -> sha256 registry of the artifacts."""

    command: str
    run_id: str
    config_sha256: str
    master_seed: int
    versions: dict
    files: dict

    def to_json(self) -> str:
        return json.dumps(self._asdict(), sort_keys=True, indent=2) + "\n"


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
        # in 256 KiB slices, so no whole-file bytes copy lifts the peak memory
        digest = hashlib.sha256()
        with open(self.stage_dir / name, "wb") as f:
            for start in range(0, len(text), 1 << 18):
                f.write(data := text[start : start + (1 << 18)].encode("utf-8"))
                digest.update(data)
        self.hashes[name] = digest.hexdigest()

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


def _trial_config(cfg: dict, init, stage: str, *indices, beta=None, p=None):
    """The campaign template of the probe init (None = vacuum) with a mimic
    displacement beta or a signal probability p, at the config's repeats and
    the seed of the labeled path (stage, *indices)."""
    return TrialConfig(
        init=init,
        injected_beta=beta,
        p_signal=p,
        repeats=cfg["repeats"],
        rng_seed=derive_seed(cfg["master_seed"], stage, *indices),
    )


def _campaigns(cfg: dict, device, trials: int, model, threshold: float, templates):
    """Run a probe's campaigns, one per template (_trial_config), consecutive
    ones sharing a run_campaign call while its uniforms stay within
    max(one campaign, CALL_DRAWS); each call's records are post-selected
    and classified at once.  Yields, call by call in template order, the
    call's records and its campaigns' (k_pos, n_kept, n_dropped), so that a
    caller holds one call's records at a time."""
    per_call = max(1, CALL_DRAWS // (trials * (1 + 4 * cfg["repeats"])))
    for start in range(0, len(templates), per_call):
        batch = templates[start : start + per_call]
        records = run_campaign(trials, batch, device).records
        kept, _ = postselect(records)
        # the campaign of each kept row, and of each one classified positive
        of_kept = np.flatnonzero(~records.leaked) // trials
        of_positive = of_kept[batch_posteriors(model, kept)[1] > threshold]
        n_kept = np.bincount(of_kept, minlength=len(batch))
        k_pos = np.bincount(of_positive, minlength=len(batch))
        yield records, [(int(k), int(n), trials - int(n)) for k, n in zip(k_pos, n_kept)]


def _signal_probabilities(where: str, eps: float, halo, cases) -> list[float]:
    """p_signal of each injected campaign, one per (point, t, alpha_sq, g)
    case with g = g(t) at that point, checked before any campaign runs: an
    epsilon (the config value at where) that overflows a p or takes it past
    1 is a config error, raised before any warning.  Each p past the
    perturbative regime (0.1) then warns once."""
    ps = [excitation_probability(eps, pt, halo, g, a2) for pt, _, a2, g in cases]
    for p, (_, t, _, _) in zip(ps, cases):
        if not p <= 1.0:
            raise ConfigError(
                f"{where} must be small enough that every injected campaign's "
                f"p_signal <= 1, got {eps!r} (p_signal {p:.3g} at t = {t!r} s)"
            )
    for p in ps:
        if p > 0.1:
            warnings.warn(
                f"excitation probability {p:.3g} is outside the perturbative regime"
            )
    return ps


def _calibrated_eta(etas_by_label: dict, label: str, mode: str, hint: str = "") -> float:
    """The probe's calibrated efficiency, clipped to its physical bound 1; a
    missing or non-positive one, or one above ETA_CEILING, cannot scale a
    signal rate.  A tiny one is left alone: it gives a weak limit, by valid
    arithmetic."""
    if label not in etas_by_label:
        raise MissingCalibration(f"calibration has no entry for probe {label!r}{hint}")
    eta = etas_by_label[label]
    if not eta > 0.0:
        raise MissingCalibration(
            f"calibrated efficiency for {label!r} is {eta!r}; rerun calibration with "
            f"more trials, or move thresholds.{mode} if it classifies every record alike"
        )
    if not eta <= ETA_CEILING:
        raise MissingCalibration(
            f"calibrated efficiency for {label!r} is {eta!r}, above {ETA_CEILING:g}; "
            f"rerun calibration with more trials"
        )
    return min(eta, 1.0)


def _leakage_error(exc: DegenerateDesign) -> DegenerateDesign:
    """exc, for data that post-selection left too thin: name the leaves
    that set the share of records dropped for leakage."""
    return DegenerateDesign(
        f"{exc}; too few records survive post-selection, and device.p_leak and "
        f"repeats set the share dropped for leakage"
    )


def _record_counts(files: dict) -> str:
    """Records simulated, dropped for leakage and classified positive: the
    sums of the per-campaign n_kept + n_dropped, n_dropped and k_pos columns
    of the campaign tables among a command's artifacts."""
    simulated = dropped = positive = 0
    for name in ("calibration.csv", "rates.csv", "bins.csv"):
        if name in files:
            header, *rows = files[name].splitlines()
            cols = header.split(",")
            k, kept, drop = (cols.index(c) for c in ("k_pos", "n_kept", "n_dropped"))
            for row in rows:
                cells = row.split(",")
                positive += int(cells[k])
                simulated += int(cells[kept]) + int(cells[drop])
                dropped += int(cells[drop])
    return (
        f"records: {simulated} simulated, {dropped} dropped for leakage, "
        f"{positive} classified positive"
    )


# ---------------------------------------------------------------------------
# commands


def run_calibrate(cfg: dict):
    """Mimic-displacement response curves, eta/delta fits per probe, and the
    cat enhancement against the vacuum probe.

    calibration.betas are vacuum-scale drives; the applied displacement is
    beta / alpha per probe, which holds the injected flip probability
    alpha_sq * |beta_applied|^2 fixed across probes.  Every probe then sees
    the same response range, inside the linear regime of the fit model.
    Every probe's applied drives and model are derived and checked before
    the first campaign."""
    device = DeviceParams(**cfg["device"])
    trials = cfg["calibration"]["trials"]
    betas = [float(b) for b in cfg["calibration"]["betas"]]
    plans = []  # per probe: parts, displacement applied per beta, model, threshold
    for pi, probe in enumerate(cfg["probes"]):
        parts = _, mode, _, a2 = _probe_parts(probe)
        applied = [beta / math.sqrt(a2) for beta in betas]
        for beta, b in zip(betas, applied):
            _check_mimic("calibration.betas", beta, probe, f"probes[{pi}]", b)
        n_inj = {b * b for b in applied}
        if len(n_inj) < 3:
            raise ConfigError(
                f"calibration.betas must be drives that give at least 3 distinct "
                f"n_inj = (beta / alpha)^2 for probes[{pi}], got {sorted(n_inj)!r}"
            )
        if not a2 * max(n_inj) >= N_INJ_FLOOR:
            raise ConfigError(
                f"calibration.betas must be drives large enough that alpha^2 max "
                f"n_inj >= {N_INJ_FLOOR:.3g} for probes[{pi}], got "
                f"{a2 * max(n_inj)!r}"
            )
        model = build_model(device, alpha_sq=a2, mode=mode)
        plans.append((parts, applied, model, float(cfg["thresholds"][mode])))
    rows = []
    curve_lines = ["probe,mode,alpha_sq,beta,n_inj,k_pos,n_kept,n_dropped"]
    for pi, ((init, mode, label, a2), applied_drives, model, thr) in enumerate(plans):
        templates = [
            _trial_config(cfg, init, "calibrate", pi, bi, beta=b if beta > 0 else None)
            for bi, (beta, b) in enumerate(zip(betas, applied_drives))
        ]
        calls = _campaigns(cfg, device, trials, model, thr, templates)
        counts = [c for _, call in calls for c in call]
        pts = []
        for applied, (k, n_kept, n_drop) in zip(applied_drives, counts):
            n_inj = applied * applied
            pts.append((n_inj, k, n_kept))
            curve_lines.append(
                f"{label},{mode},{a2!r},{applied!r},{n_inj!r},{k},{n_kept},{n_drop}"
            )
        try:
            fit = calibrate_detector(CalibrationCurve(tuple(pts), alpha_sq=a2))
        except NonFinite as exc:  # a column scale is 1 / the largest alpha^2 n_inj
            raise ConfigError(f"calibration.betas must be larger for a finite fit: {exc}")
        except DegenerateDesign as exc:  # the betas give 3 n_inj; leakage took some
            raise _leakage_error(exc) from None
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
        f"delta = {r['delta']:.2e} ({r['iterations']} iterations)"
        for r in rows
    ]
    summary += [f"enhancement {k}: {v:.2f}" for k, v in sorted(enh.items())]
    return files, summary


def _load_calibration(cfg: dict):
    """eta per probe label.  calibration.path wins; otherwise self-calibrate
    (reusing the calibrate seeds, so the artifacts match a standalone run);
    otherwise there is nothing to analyze against."""
    cal = cfg["calibration"]
    p, files = cal["path"], {}
    if p is not None:
        p = Path(p)
        if not p.exists():
            raise MissingCalibration(f"calibration file not found: {p}")
    elif cal["self_calibrate"]:
        files, _ = run_calibrate(cfg)
    else:
        raise MissingCalibration(
            "no calibration available: set calibration.path or calibration.self_calibrate"
        )
    try:
        report = json.loads(files["calibration.json"] if p is None else p.read_text())
        etas = {r["label"]: float(r["eta"]) for r in report["probes"]}
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise MissingCalibration(
            f"calibration file {p} is unreadable or malformed: {exc}"
        ) from None
    return etas, files


def run_search(cfg: dict):
    """Integration-time scan per probe, the pooled signal fit, and the
    kinetic-mixing exclusion point at the configured mass.  Warns when the
    search times reach the DM coherence time (allowed, but the signal shape
    saturates there).  An injected epsilon reaches the simulator as each
    campaign's p_signal, computed here from one g(tau) batch that the fit
    reads as well; that batch and every probe's model are checked before any
    campaign runs, the self-calibration's included."""
    device = DeviceParams(**cfg["device"])
    halo = HaloParams(**cfg["halo"])
    point = SearchPoint(**cfg["point"])
    sr = cfg["search"]
    taus = [float(t) for t in sr["tau_grid"]]
    tau_dm = _coherence_time(point, halo)
    # g(tau) depends on neither the probe nor the injection: one batch
    # integrates every tau for the injected campaigns and the fit
    try:
        gs = g_of_t(taus, point, halo)
    except QuadratureFailure as exc:
        raise ConfigError(f"search.tau_grid must be times with a finite g(tau): {exc}")
    if not (min(gs) > 0.0 and max(gs) >= G_FLOOR):
        raise ConfigError(
            f"search.tau_grid must be times with g(tau) > 0, the largest >= "
            f"{G_FLOOR:.3g} s^2, got g from {min(gs)!r} to {max(gs)!r} s^2"
        )
    if max(taus) >= tau_dm:
        warnings.warn(
            f"search times reach {max(taus):.3g} s, at or beyond the DM "
            f"coherence time {tau_dm:.3g} s; the signal shape saturates there"
        )
    eps = sr["inject_epsilon"]
    probes = [_probe_parts(probe) for probe in cfg["probes"]]
    g_at = dict(zip(taus, gs))
    p_signal = {}  # (probe index, tau) -> p, checked before any campaign runs
    if eps:
        # the simulated probe's |alpha|^2, which can differ from a2 in the
        # last bit: abs(sqrt(12)) ** 2 is 11.999999999999998
        a2_sim = [1.0 if init is None else abs(init.alpha) ** 2 for init, *_ in probes]
        keys = list(itertools.product(range(len(probes)), taus))
        cases = [(point, tau, a2_sim[pi], g_at[tau]) for pi, tau in keys]
        ps = _signal_probabilities("search.inject_epsilon", float(eps), halo, cases)
        p_signal = dict(zip(keys, ps))
    models = [build_model(device, alpha_sq=a2, mode=mode) for _, mode, _, a2 in probes]
    etas_by_label, files = _load_calibration(cfg)
    # every probe's efficiency is checked before any campaign runs
    etas = [_calibrated_eta(etas_by_label, label, mode) for _, mode, label, _ in probes]
    series = []
    rate_lines = ["probe,alpha_sq,tau,k_pos,n_kept,n_dropped,eta"]
    record_chunks = []
    for pi, ((init, mode, label, a2), model, eta) in enumerate(zip(probes, models, etas)):
        thr = float(cfg["thresholds"][mode])
        templates = [
            _trial_config(cfg, init, "search", pi, ti, p=p_signal.get((pi, tau)))
            for ti, tau in enumerate(taus)
        ]
        counts = []
        for records, call in _campaigns(cfg, device, sr["trials"], model, thr, templates):
            counts += call
            record_chunks.append(records_to_jsonl(records))
        for tau, (k, n_kept, n_drop) in zip(taus, counts):
            rate_lines.append(f"{label},{a2!r},{tau!r},{k},{n_kept},{n_drop},{eta!r}")
        ks, ns, _ = zip(*counts)
        series.append(SearchSeries(a2, tuple(taus), ks, ns))
    try:
        fit = search_fit(series, g_at, tuple(etas))
    except NonFinite as exc:  # the a0 column's scale is 1 / g at the largest tau
        raise ConfigError(f"search.tau_grid must be long enough for a finite fit: {exc}")
    except DegenerateDesign as exc:  # the grid has 2 taus; leakage took some
        raise _leakage_error(exc) from None
    a0 = fit.params["a0"]
    sig = fit.stderr("a0")
    lim = epsilon_limit(a0, sig, point, halo)
    files = dict(files)
    files["rates.csv"] = "\n".join(rate_lines) + "\n"
    files["fit.json"] = fit_result_to_json(fit)
    files["limits.csv"] = exclusion_to_csv([(lim.m_dm, lim.eps90)])
    files["records.jsonl"] = "".join(record_chunks)
    flag = " (boundary)" if fit.boundary_hit else ""
    summary = [
        f"a0 = {a0:.4g} +- {sig:.4g} 1/s^2{flag} ({fit.iterations} iterations)",
        f"eps90 = {lim.eps90:.4g} at m/2pi = {point.m_dm / (2 * math.pi):.6g} Hz",
    ]
    return files, summary


def run_tune_scan(cfg: dict):
    """Frequency-bin scan: one campaign per cavity tuning, background
    subtraction across bins, and a per-bin limit at each bin's own resonant
    mass.  An injected bin's p_signal is computed at the injected mass."""
    device = DeviceParams(**cfg["device"])
    halo = HaloParams(**cfg["halo"])
    point = SearchPoint(**cfg["point"])
    sc = cfg["scan"]
    n_bins = sc["bins"]
    t1c = float(sc["t1c"])
    init, _, label, a2 = _probe_parts({"kind": "compass", "alpha_sq": sc["alpha_sq"]})
    cal = cfg["calibration"]
    labels = [_probe_parts(p)[2] for p in cfg["probes"]]
    if cal["path"] is None and cal["self_calibrate"] and label not in labels:
        raise ConfigError(
            f"scan.alpha_sq must be the alpha_sq of a compass probe when tune-scan "
            f"self-calibrates, got {sc['alpha_sq']!r}; add it to probes"
        )
    omegas = [_bin_omega(point, sc, i) for i in range(n_bins)]
    if not (math.isfinite(omegas[0]) and omegas[0] > 0.0):
        raise ConfigError(
            f"scan.spacing_hz must be small enough that every bin lies above 0 Hz, "
            f"got {sc['spacing_hz']!r} (lowest bin {omegas[0] / (2.0 * math.pi):.4g} Hz)"
        )
    eps = sc["inject_epsilon"]
    jbin = sc["inject_bin"]
    m_inj = None
    p_signal = [None] * n_bins  # per bin, checked before any campaign runs
    if eps and jbin is not None:
        m_inj = resonant_mass(omegas[jbin])
        a2_sim = abs(init.alpha) ** 2
        points = [SearchPoint(m_dm=m_inj, omega_c=om, v_eff=point.v_eff) for om in omegas]
        try:
            cases = [(pt, t1c, a2_sim, g_of_t(t1c, pt, halo)) for pt in points]
        except QuadratureFailure as exc:
            raise ConfigError(
                f"scan.t1c must be short enough for the injected signal's g(t1c) "
                f"in every bin: {exc}"
            )
        p_signal = _signal_probabilities("scan.inject_epsilon", float(eps), halo, cases)
    model = build_model(device, alpha_sq=a2, mode="compass")
    etas_by_label, files = _load_calibration(cfg)
    eta = _calibrated_eta(etas_by_label, label, "compass", "; add it to probes")
    thr = float(cfg["thresholds"]["compass"])
    templates = [_trial_config(cfg, init, "tune", i, p=p) for i, p in enumerate(p_signal)]
    calls = _campaigns(cfg, device, sc["trials"], model, thr, templates)
    counts = [c for _, call in calls for c in call]
    bins = [FrequencyBin(om, k, n, eta, t1c, a2) for om, (k, n, _) in zip(omegas, counts)]
    try:
        res = background_subtract(bins, point, halo, per_bin_mass=True)
    except (NonFinite, ZeroSignalDenominator) as exc:
        raise ConfigError(
            f"halo.rho_dm, halo.v_vir, halo.v_g, point.m_dm, point.omega_c, "
            f"point.v_eff, scan.t1c and scan.alpha_sq must give every bin a finite "
            f"epsilon = 1 signal response > 0: {exc}"
        )
    except DegenerateDesign as exc:  # a bin with no kept trials or no spread
        if any(b.n_trials_i == 0 for b in bins):
            raise _leakage_error(exc) from None
        raise
    lines = [
        "bin,omega_hz,m_dm_hz,k_pos,n_kept,n_dropped,eta,delta_raw,"
        "n_norm,p_i,sigma_p,eps90"
    ]
    limits = []
    for i, (b, (*_, n_drop), bl) in enumerate(zip(bins, counts, res.bins)):
        f_i, m_i = b.omega_i / (2.0 * math.pi), resonant_mass(b.omega_i)
        lines.append(
            f"{i},{f_i!r},{m_i / (2.0 * math.pi)!r},{b.n_meas_i},{b.n_trials_i},"
            f"{n_drop},{eta!r},{b.n_meas_i / b.n_trials_i!r},{bl.n_norm!r},"
            f"{bl.p_i!r},{bl.sigma_p!r},{bl.eps90!r}"
        )
        limits.append((m_i, bl.eps90))
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
    device = DeviceParams(**cfg["device"])
    rc = cfg["records"]
    init, mode, label, a2 = _probe_parts(rc["probe"])
    beta = float(rc["injected_beta"])
    _check_mimic("records.injected_beta", beta, rc["probe"], "records.probe", beta)
    tc = _trial_config(cfg, init, "records", 0, beta=beta if beta > 0 else None)
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


def _figure_cat(cfg: dict) -> tuple[CatSpec, float, str]:
    """The cat the cat-wigner, transition-curves and readout-roc figures
    draw, the largest compass probe's (alpha_sq 4.0 without one), its
    alpha_sq and that probe's config path; checked as the readout-roc
    campaign displaces it by ROC_BETA."""
    compass = [
        (float(p["alpha_sq"]), f"probes[{i}]")
        for i, p in enumerate(cfg["probes"])
        if p["kind"] == "compass"
    ]
    a2, at = max(compass, default=(4.0, "probes"))
    probe = {"kind": "compass", "alpha_sq": a2}
    _check_mimic(f"{at}.alpha_sq", ROC_BETA, probe, at, ROC_BETA)
    return _probe_parts(probe)[0], a2, at


def _read_artifact(fid: str, config_text: str, out_root) -> str:
    """The source file of an artifact-backed figure, once its run's
    manifest.json vouches for it: the file's SHA-256 must be the one the
    manifest registered, and the manifest's versions this process's."""
    command, fname = _ARTIFACT_FIGURES[fid]
    run_dir = Path(out_root) / "results" / run_id(config_text, command)
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


def _render_figure(
    fid: str, cfg: dict, config_text: str, out_root, cat, tau_dm
) -> str:
    """One figure table; cat is _figure_cat(cfg) for the figures that
    draw the cat, and tau_dm the checked DM coherence time for the two that
    draw the DM line."""
    device = DeviceParams(**cfg["device"])
    halo = HaloParams(**cfg["halo"])
    point = SearchPoint(**cfg["point"])
    if fid in _ARTIFACT_FIGURES:
        text = _read_artifact(fid, config_text, out_root)
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
        spec = cat[0]
        ext = abs(spec.alpha) + 2.0
        grid = PhaseGrid(-ext, ext, 61, -ext, ext, 61)
        return wigner_to_csv(grid, wigner(spec, grid))
    if fid == "transition-curves":
        _, a2, at = cat
        times = np.linspace(0.0, 0.25 * device.T1c, 51)
        try:
            return transition_curves_to_csv(4, math.sqrt(a2), 1.0 / device.T1c, times)
        except NonFinite as exc:  # the sums lost a small sector to rounding
            raise ConfigError(
                f"{at}.alpha_sq must be large enough that the transition-curves "
                f"figure resolves every cat sector: {exc}"
            )
    if fid == "sensitivity-growth":
        # g(t) <= t^2 (|K| <= 1 in darkmatter.g_of_t), so (20 tau_DM)^2 bounds it
        t_max = GROWTH_SPAN * tau_dm
        if not math.isfinite(t_max * t_max):
            raise ConfigError(
                f"point.m_dm must be large enough that g(t) <= t^2 stays finite up "
                f"to the sensitivity-growth figure's last time, {GROWTH_SPAN:g} "
                f"tau_DM = {t_max:.3g} s, got {point.m_dm!r}"
            )
        try:
            return g_curve_to_csv(_growth_times(tau_dm), point, halo)
        except QuadratureFailure as exc:
            raise ConfigError(
                f"point.omega_c must be close enough to point.m_dm that g(t) "
                f"integrates up to the sensitivity-growth figure's last time, "
                f"{GROWTH_SPAN:g} tau_DM: {exc}"
            )
    if fid == "lineshape":
        omegas = point.m_dm * (1.0 + np.linspace(0.0, 5e-6, 241))
        return lineshape_to_csv(omegas, point, halo)
    if fid == "readout-roc":
        init, a2, _ = cat
        model = build_model(device, alpha_sq=a2, mode="compass")
        tc = _trial_config(cfg, init, "figures", 0, beta=ROC_BETA)
        camp = run_campaign(ROC_TRIALS, tc, device)
        try:
            rows = threshold_sweep(camp, model, np.geomspace(1e-2, 1e6, 33))
        except DegenerateDesign as exc:
            raise _leakage_error(exc) from None
        return sweep_to_csv(rows)
    raise ConfigError(f"unknown figure {fid!r}")


def run_figures(cfg: dict, config_text: str, which=None, out_root="."):
    """CSV tables behind the plots.  Figures needing campaign artifacts read
    the matching run directory under out_root, found from the config's
    canonical text, and fail with MissingArtifact when the producing command
    has not run with this config, or when its manifest.json does not vouch
    for the file (see _read_artifact)."""
    if not which:
        ids = list(_CONFIG_FIGURES)
    elif list(which) == ["all"]:
        ids = list(FIGURE_IDS)
    else:
        ids = list(which)
        if "all" in ids:
            raise ConfigError(f"figure id 'all' must stand alone, got {ids!r}")
        for fid in ids:
            if fid not in FIGURE_IDS:
                raise ConfigError(
                    f"unknown figure {fid!r}; valid ids: "
                    f"{', '.join(FIGURE_IDS)}, or 'all'"
                )
    cats = {"cat-wigner", "transition-curves", "readout-roc"}
    cat = _figure_cat(cfg) if cats.intersection(ids) else None
    tau_dm = None
    if {"sensitivity-growth", "lineshape"}.intersection(ids):
        # the growth times scale with tau_DM, and f(omega) peaks at tau_DM / 2 pi
        tau_dm = _coherence_time(SearchPoint(**cfg["point"]), HaloParams(**cfg["halo"]))
    files = {}
    for fid in ids:
        files[f"{fid}.csv"] = _render_figure(fid, cfg, config_text, out_root, cat, tau_dm)
    return files, [f"{len(files)} figure tables: {', '.join(sorted(files))}"]


# ---------------------------------------------------------------------------
# dispatcher


def run_command(command: str, cfg: dict, out_root=".", which=None):
    """Validate the config's values, run one command, stage and promote its
    artifacts.  The command checks what it derives from the config itself,
    before its first campaign; a direct run_* call gets the same checks.

    Returns (final run directory, human-readable summary lines)."""
    validate_config(cfg)
    root = Path(out_root)
    existing = next(p for p in (root, *root.parents) if p.exists())
    if not existing.is_dir():  # checked here, not after the command's work
        raise ConfigError(f"output root {root} must be a directory; {existing} is not")
    config_text = canonical_config_text(cfg)
    rid = run_id(config_text, command)  # refuses an unknown command
    if command == "calibrate":
        files, summary = run_calibrate(cfg)
    elif command == "search":
        files, summary = run_search(cfg)
    elif command == "tune-scan":
        files, summary = run_tune_scan(cfg)
    elif command == "figures":
        files, summary = run_figures(cfg, config_text, which=which, out_root=out_root)
    elif command == "simulate-record":
        files, summary = run_simulate_record(cfg)
    if command in CAMPAIGN_COMMANDS:
        summary = [*summary, _record_counts(files)]
    writer = RunWriter(out_root, rid)
    for name in sorted(files):
        writer.write(name, files[name])
    manifest = RunManifest(
        command=command,
        run_id=rid,
        config_sha256=config_sha256(config_text),
        master_seed=cfg["master_seed"],
        versions=module_versions(),
        files=dict(sorted(writer.hashes.items())),
    )
    writer.write("manifest.json", manifest.to_json())
    final = writer.promote()
    return final, summary
