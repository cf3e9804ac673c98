"""Monte-Carlo generator of repeated parity-measurement records.

Hidden-state model: the joint chain (cavity sector, qubit level) advances
once per parity interval t_m.  In compass mode the cavity lives on the four
modular photon sectors; a check step ideally flips the qubit when the
sector is 1, leaves it alone when the sector is 3, and tosses a fair coin
when the sector is even.  In vacuum mode the cavity is the two lowest Fock
levels and the check is a plain parity measurement: photon 1 flips the
qubit, photon 0 does not.  Each step ends with a readout that reports G or
E, or leaks out of the readable subspace (symbol L) with probability
p_leak; records containing L are meant to be dropped downstream.

A planted signal enters only as a number: the probability p_signal that it
has moved the probe up one sector before the first check, which the
commands compute from the halo model and their own g(t) batch
(darkmatter.excitation_probability).
A calibration's mimic displacement enters as the sector populations it
leaves, closed-form sums over coherent dyads (_mimic_sector_populations).

run_campaign draws hidden paths for every trial of a campaign together
from the transition matrix augmented with a per-step demolition channel
(the sector is scrambled uniformly with probability p_d), and returns them
as one columnar Records set.  One call may also run several campaigns of
one probe, each with its own seed and signal, one after another in the
records: at few trials a call is mostly fixed cost.  Each campaign draws
its uniforms from one stream, Generator(PCG64(SeedSequence([seed]))), in
trial-major order: trial k reads stream positions k (1 + 4 repeats)
onward (_trial_uniforms).  A record depends on its campaign's seed, its
trial id and repeats, not on the trials or campaigns beside it.  Records
is the one record format: inference, post-selection and records_to_jsonl
take nothing else.  The scalar per-record simulator run_campaign is
checked against, and the compass-state preparation, are test oracles
(tests/oracles.py).

build_transition_matrix returns the pure, un-augmented matrix, which is
what the inference side assumes; the mismatch is deliberate and mirrors
how the demolition probability is calibrated separately from the
sector-transition rates.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InvalidMode
from .fock import CatSpec, _sector_norm

SYMBOL_GROUND = "G"
SYMBOL_EXCITED = "E"
SYMBOL_LEAK = "L"

# Columnar symbol codes: code k stands for SYMBOL_ALPHABET[k]
SYMBOL_ALPHABET = SYMBOL_GROUND + SYMBOL_EXCITED + SYMBOL_LEAK
CODE_LEAK = 2

_MODES = ("compass", "vacuum")


@dataclass
class DeviceParams:
    """Calibrated device numbers shared by simulation and inference.

    readout_Fge is the probability that an excited qubit is reported G,
    readout_Fge_inv that a ground qubit is reported E.  p_d is the
    per-check demolition probability, p_leak the per-readout leakage
    probability.  Times are seconds, frequencies rad/s.
    """

    chi: float = 2 * math.pi * 0.6e6
    T1c: float = 4.6e-3
    T1q: float = 175.3e-6
    T2q: float = 119.4e-6
    n_c: float = 1e-4
    n_q: float = 0.013
    t_m: float = 1.9e-6
    readout_Fge: float = 0.01
    readout_Fge_inv: float = 0.01
    p_d: float = 0.013
    p_leak: float = 0.002

    def __post_init__(self):
        if not (np.isfinite(self.chi) and self.chi > 0.0):
            raise ConfigError(f"chi must be finite and > 0, got {self.chi!r}")
        for name in ("T1c", "T1q", "T2q", "t_m"):
            v = getattr(self, name)
            if not v > 0.0:
                raise ConfigError(f"{name} must be > 0, got {v!r}")
        if not np.isfinite(self.t_m):
            raise ConfigError(f"t_m must be finite, got {self.t_m!r}")
        for name in ("n_c", "n_q", "readout_Fge", "readout_Fge_inv", "p_d", "p_leak"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {v!r}")


@dataclass
class TrialConfig:
    """One trial template.  init is the compass probe (None = vacuum probe);
    at most one of injected_beta (mimic displacement) and p_signal (the
    probability that the signal moves the probe up one sector) may be set.
    repeats is the number of readout symbols per record."""

    init: CatSpec | None = None
    injected_beta: complex | None = None
    p_signal: float | None = None
    repeats: int = 20
    rng_seed: int = 0

    def __post_init__(self):
        if self.injected_beta is not None and self.p_signal is not None:
            raise ConfigError("set injected_beta or p_signal, not both")
        if self.p_signal is not None and not 0.0 <= self.p_signal <= 1.0:
            raise ConfigError(f"p_signal must lie in [0, 1], got {self.p_signal!r}")
        if self.init is not None and self.init.m != 4:
            raise ConfigError("the record model covers four-component probes only")
        if self.repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {self.repeats!r}")
        if not 0 <= self.rng_seed < 2**64:
            raise ConfigError("rng_seed must fit in 64 bits")

    @property
    def mode(self) -> str:
        return "compass" if self.init is not None else "vacuum"


@dataclass(eq=False)
class Records:
    """Columnar record set, one row per trial.

    symbols holds the codes of SYMBOL_ALPHABET (0 = G, 1 = E, 2 = L) as a
    uint8 (n, repeats) array.  For simulated data mode names the probe and
    the truth columns carry the hidden path: init_sector and injected per
    trial, sectors and qubits (0 = g, 1 = e) per readout slot.  Without
    truth they are all None.  A slice or boolean mask selects rows.
    """

    symbols: np.ndarray
    trial_ids: np.ndarray
    mode: str | None = None
    init_sector: np.ndarray | None = None
    injected: np.ndarray | None = None
    sectors: np.ndarray | None = None
    qubits: np.ndarray | None = None

    # rows are selected by slice or mask; __getitem__ with an int would
    # yield malformed one-row sets, so iteration is switched off
    __iter__ = None

    def __len__(self) -> int:
        return self.symbols.shape[0]

    @property
    def leaked(self) -> np.ndarray:
        """Per-row flag: the record holds a leaked readout."""
        return (self.symbols == CODE_LEAK).any(axis=1)

    def __getitem__(self, key):
        truth = [
            None if col is None else col[key]
            for col in (self.init_sector, self.injected, self.sectors, self.qubits)
        ]
        return Records(self.symbols[key], self.trial_ids[key], self.mode, *truth)


# ---------------------------------------------------------------------------
# stochastic matrices


def _qubit_factors(device: DeviceParams) -> tuple[float, float, float, float]:
    """(P_gg, P_ge, P_eg, P_ee) per check step: decay/excitation over t_m
    plus dephasing over the check delay t_p = pi/(2 chi)."""
    p_down = 1.0 - math.exp(-device.t_m / device.T1q)
    p_up = device.n_q * p_down
    t_p = math.pi / (2.0 * device.chi)
    p_phi = 1.0 - math.exp(-t_p / device.T2q)
    p_ge = p_up + p_phi
    p_eg = p_down + p_phi
    if p_ge > 1.0 or p_eg > 1.0:
        raise ConfigError(
            f"device.T1q, device.T2q, device.t_m, device.chi and device.n_q must "
            f"keep the qubit error factors <= 1, got {p_ge!r} and {p_eg!r}"
        )
    return 1.0 - p_ge, p_ge, p_eg, 1.0 - p_eg


def _cavity_matrix(device: DeviceParams, alpha_sq: float, mode: str) -> np.ndarray:
    """Sector-level transition matrix for one parity interval."""
    if mode == "compass":
        p_down = 1.0 - math.exp(-alpha_sq * device.t_m / device.T1c)
        p_up = device.n_c * p_down
        if p_down + p_up > 1.0:
            raise ConfigError(
                f"device.T1c, device.t_m and device.n_c must keep a parity interval's "
                f"sector jump probability <= 1, got {p_down + p_up!r}"
            )
        cav = np.zeros((4, 4))
        for j in range(4):
            cav[j, (j - 1) % 4] += p_down
            cav[j, (j + 1) % 4] += p_up
            cav[j, j] += 1.0 - p_down - p_up
        return cav
    # vacuum: single-photon loss and thermal repopulation
    p10 = 1.0 - math.exp(-device.t_m / device.T1c)
    p01 = device.n_c * p10
    return np.array([[1.0 - p01, p01], [p10, 1.0 - p10]])


def _qubit_kernel(kind: str, factors: tuple[float, float, float, float]) -> np.ndarray:
    """2x2 row-stochastic qubit update given the destination sector's check
    behaviour: 'coin', 'flip' (ideal outcome toggles) or 'stay'."""
    p_gg, p_ge, p_eg, p_ee = factors
    if kind == "coin":
        return np.full((2, 2), 0.5)
    if kind == "flip":
        return np.array([[p_ge, p_gg], [p_ee, p_eg]])
    return np.array([[p_gg, p_ge], [p_eg, p_ee]])


def _sector_kinds(mode: str) -> tuple[str, ...]:
    if mode == "compass":
        return ("coin", "flip", "coin", "stay")
    return ("stay", "flip")


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise InvalidMode(f"mode must be one of {_MODES}, got {mode!r}")


def build_transition_matrix(
    device: DeviceParams, alpha_sq: float = 1.0, mode: str = "compass"
) -> np.ndarray:
    """Joint (sector, qubit) transition matrix for one parity interval.

    Compass mode: 8x8 over (phi_0 g, phi_0 e, ..., phi_3 e) with sector
    hops P_{j,j-1} = 1 - exp(-|alpha|^2 t_m / T1c) and
    P_{j,j+1} = n_c * P_{j,j-1}.  Vacuum mode: 4x4 over (0g, 0e, 1g, 1e)
    with the same structure at single-photon rates.  The qubit factor is
    chosen by the destination sector: ideal flip for sector 1 (photon 1),
    ideal hold for sector 3 (photon 0), fair coin for even sectors.
    """
    _check_mode(mode)
    if mode == "compass" and not alpha_sq > 0.0:
        raise ConfigError(f"alpha_sq must be > 0 in compass mode, got {alpha_sq!r}")
    cav = _cavity_matrix(device, alpha_sq, mode)
    kinds = _sector_kinds(mode)
    factors = _qubit_factors(device)
    kernels = [_qubit_kernel(k, factors) for k in kinds]
    n = cav.shape[0]
    out = np.zeros((2 * n, 2 * n))
    for j in range(n):
        for lsec in range(n):
            out[2 * j : 2 * j + 2, 2 * lsec : 2 * lsec + 2] = (
                cav[j, lsec] * kernels[lsec]
            )
    return out


def build_emission_matrix(device: DeviceParams, mode: str = "compass") -> np.ndarray:
    """Readout matrix, hidden states x (G, E): rows alternate the ground
    and excited readout fidelities, one pair per sector."""
    _check_mode(mode)
    g_row = (1.0 - device.readout_Fge_inv, device.readout_Fge_inv)
    e_row = (device.readout_Fge, 1.0 - device.readout_Fge)
    return np.array([g_row, e_row] * len(_sector_kinds(mode)))


# ---------------------------------------------------------------------------
# signal injection


def _mimic_sector_populations(
    alpha: complex, m: int, j: int, beta: complex
) -> np.ndarray:
    """Sector distribution after a mimic displacement.

    The l != j entries are the cat-basis overlaps |<phi_l| D(beta) |phi_j>|^2,
    each the sum over coherent dyads (b_p = alpha e^{i phi_p})

        <phi_l|D(beta)|phi_j> = (N_l N_j)^{-1/2} sum_{r,q} e^{il phi_r}
            e^{-ij phi_q} exp((beta b_q^* - beta^* b_q)/2 - |b_r|^2/2
                              - |b_q + beta|^2/2 + b_r^* (b_q + beta)),

    with each term's phase added to its exponent before the one exp, so
    no term exceeds 1 in modulus.  The part of the displaced state that
    leaves the cat-code space (mass of order |beta|^2 times the
    photon-number spread) is folded back into the starting sector.  This
    keeps the hidden-sector flip probability equal to the plain two-state
    transition probability the analysis calibrates against, rather than
    the somewhat larger bare modular mass.
    """
    phi = 2.0 * np.pi * np.arange(m) / m
    b = alpha * np.exp(1j * phi)
    a2 = abs(alpha) ** 2
    moved = b + beta  # D(beta)|b_q> = e^{(beta b_q^* - beta^* b_q)/2} |b_q + beta>
    log_t = (  # terms (l, r, q)
        1j * np.arange(m)[:, None, None] * phi[:, None]
        - 1j * j * phi
        + (beta * b.conj() - np.conj(beta) * b) / 2.0
        - a2 / 2.0
        - np.abs(moved) ** 2 / 2.0
        + b.conj()[:, None] * moved
    )
    amps = np.exp(log_t).sum(axis=(1, 2))
    norms = np.array([_sector_norm(m, lsec, a2) for lsec in range(m)])
    probs = np.abs(amps) ** 2 / (norms * norms[j])
    probs[j] = 0.0
    probs[j] = 1.0 - probs.sum()
    return probs


def _initial_sector_probs(cfg: TrialConfig) -> np.ndarray:
    """Distribution of the hidden sector at the first readout slot."""
    if cfg.mode == "compass":
        j0 = cfg.init.j
        if cfg.injected_beta is not None:
            return _mimic_sector_populations(
                complex(cfg.init.alpha), cfg.init.m, j0, complex(cfg.injected_beta)
            )
        p = cfg.p_signal or 0.0
        probs = np.zeros(4)
        probs[j0] = 1.0 - p
        probs[(j0 + 1) % 4] = p
        return probs
    # vacuum probe: two levels
    if cfg.injected_beta is not None:
        p1 = 1.0 - math.exp(-abs(cfg.injected_beta) ** 2)
    else:
        p1 = cfg.p_signal or 0.0
    return np.array([1.0 - p1, p1])


# ---------------------------------------------------------------------------
# record simulation


class CampaignResult(NamedTuple):
    records: Records


def _trial_uniforms(seeds: Sequence[int], n_trials: int, repeats: int) -> np.ndarray:
    """(len(seeds) n_trials, 1 + 4 repeats) uniforms, trial-major: the rows
    of campaign c are Generator(PCG64(SeedSequence([seeds[c]])))
    .random((n_trials, 1 + 4 repeats)), filled in place.  Row k is trial k's
    initial-sector draw and then its (repeats, 4) step draws."""
    u = np.empty((len(seeds) * n_trials, 1 + 4 * repeats))
    for c, seed in enumerate(seeds):
        stream = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))
        stream.random(out=u[c * n_trials : (c + 1) * n_trials])
    return u


def run_campaign(
    n_trials: int, cfg: TrialConfig | Sequence[TrialConfig], device: DeviceParams
) -> CampaignResult:
    """Simulate n_trials independent records from one template, or from
    each template of a batch in turn: the campaigns of one probe (one init
    and repeats) with their own seeds and signals.  The records hold the
    campaigns one after another, trial ids restarting at 0 in each.

    A template's trials read one stream, PCG64(SeedSequence([rng_seed])),
    in trial-major order (see _trial_uniforms): trial k the 1 + 4 repeats
    draws from position k (1 + 4 repeats) on, which is what the scalar
    per-record simulator in tests/oracles.py draws for trial k.  The hidden
    chain of every trial advances together, one vectorized step per readout
    slot, with the same comparisons in the same order; so each row equals
    that record, whichever campaigns share the call.
    """
    if n_trials < 1:
        raise ConfigError(f"n_trials must be >= 1, got {n_trials!r}")
    cfgs = (cfg,) if isinstance(cfg, TrialConfig) else tuple(cfg)
    if not cfgs:
        raise ConfigError("run_campaign needs at least one TrialConfig")
    cfg, repeats = cfgs[0], cfgs[0].repeats
    if any(c.init != cfg.init or c.repeats != repeats for c in cfgs):
        raise ConfigError("the campaigns of one call must share init and repeats")
    mode = cfg.mode
    alpha_sq = abs(cfg.init.alpha) ** 2 if cfg.init is not None else 1.0
    n_sec = len(_sector_kinds(mode))
    cav = _cavity_matrix(device, alpha_sq, mode)
    if device.p_d > 0.0:
        cav = (1.0 - device.p_d) * cav + device.p_d / n_sec
    cav_cum = np.cumsum(cav, axis=1)
    factors = _qubit_factors(device)
    # P(qubit' = g | dest sector, qubit)
    to_g = np.array([_qubit_kernel(k, factors)[:, 0] for k in _sector_kinds(mode)])
    p_read_g = np.array([1.0 - device.readout_Fge_inv, device.readout_Fge])

    # draw-major: a view of the trial-major block, a column per trial
    u = _trial_uniforms([c.rng_seed for c in cfgs], n_trials, repeats).T
    # slot-major (repeats, n) views of the sector, qubit, leak and symbol draws
    u_sec, u_qubit, u_leak, u_symbol = u[1:].reshape(repeats, 4, -1).swapaxes(0, 1)
    sectors = np.zeros((repeats, u.shape[1]), dtype=np.uint8)
    qubits = np.zeros((repeats, u.shape[1]), dtype=np.uint8)
    # a pick is the count of a campaign's cumulative weights <= u, clamped
    # to the last sector
    for c, one in enumerate(cfgs):
        cols = slice(c * n_trials, (c + 1) * n_trials)
        cum = np.cumsum(_initial_sector_probs(one))
        first = np.searchsorted(cum, u[0, cols], side="right")
        sectors[0, cols] = np.minimum(first, n_sec - 1)
    # rows never fall, so a hop's count over the first n_sec - 1 columns is clamped
    columns, to_g = cav_cum[:, :-1].T, to_g.ravel()  # to_g[2 sector + qubit]
    for k in range(1, repeats):
        prev, hop, u_k = sectors[k - 1], sectors[k], u_sec[k]
        for col in columns:
            hop += col.take(prev) <= u_k
        qubits[k] = u_qubit[k] >= to_g.take(2 * hop + qubits[k - 1])
    symbols = np.where(u_symbol < p_read_g[qubits], 0, 1).astype(np.uint8)
    symbols[u_leak < device.p_leak] = CODE_LEAK
    sectors, qubits, symbols = sectors.T.copy(), qubits.T.copy(), symbols.T.copy()

    base = cfg.init.j if mode == "compass" else 0
    init_sector = sectors[:, 0].copy()
    return CampaignResult(
        Records(
            symbols,
            np.tile(np.arange(n_trials, dtype=np.int64), len(cfgs)),
            mode,
            init_sector,
            init_sector != base,
            sectors,
            qubits,
        )
    )


# ---------------------------------------------------------------------------
# serialization


def _digit_columns(values: np.ndarray) -> np.ndarray:
    """Non-negative integers as right-aligned ASCII digit columns, one row
    each, padded on the left with NUL bytes."""
    values = values.astype(np.uint64)
    top = int(values.max(initial=0))
    places = 10 ** np.arange(len(str(top)) - 1, -1, -1, dtype=np.uint64)
    digits = (values[:, None] // places % np.uint64(10)).astype(np.uint8) + 48
    digits[:, :-1][values[:, None] < places[:-1]] = 0  # the ones digit always shows
    return digits


_BOOLEANS = np.frombuffer(b"false" + b"true\0", np.uint8).reshape(2, 5)


def records_to_jsonl(records: Records) -> str:
    """One JSON object per line, {symbols, trial_id, truth?}: per record the
    text json.dumps(obj, sort_keys=True) gives, with symbols as a G/E/L
    string and truth as {init_sector, injected, mode, qubits, sectors}; the
    truth key appears when the truth columns do.  Trial ids must be >= 0.

    The whole file is laid out as one uint8 matrix, a row per record: the
    literal text as broadcast columns, the letters and the one-digit
    sector lists gathered from the code matrices, and the trial ids and
    true/false padded with NUL bytes, which one pass then drops."""
    n = len(records)
    if not n:
        return "\n"
    if records.trial_ids.min() < 0:
        raise ValueError("records_to_jsonl writes non-negative trial ids only")
    letters = np.frombuffer(SYMBOL_ALPHABET.encode("ascii"), np.uint8)
    parts = [b'{"symbols": "', letters[records.symbols], b'", "trial_id": ']
    parts.append(_digit_columns(records.trial_ids))
    if records.mode is not None:
        # one-digit sectors as str(list) prints them, "[d, d, ...]"
        lists = np.full((n, 3 * records.sectors.shape[1]), ord(","), np.uint8)
        lists[:, 3::3], lists[:, 1::3] = ord(" "), records.sectors + 48
        lists[:, 0], lists[:, -1] = ord("["), ord("]")
        parts += [
            b', "truth": {"init_sector": ',
            _digit_columns(records.init_sector),
            b', "injected": ',
            _BOOLEANS[records.injected.astype(np.intp)],
            f', "mode": "{records.mode}", "qubits": "'.encode("ascii"),
            np.frombuffer(b"ge", np.uint8)[records.qubits],
            b'", "sectors": ',
            lists,
            b"}",
        ]
    parts.append(b"}\n")
    widths = [len(p) if isinstance(p, bytes) else p.shape[1] for p in parts]
    lines = np.empty((n, sum(widths)), np.uint8)
    at = 0
    for part, width in zip(parts, widths):
        if isinstance(part, bytes):
            part = np.frombuffer(part, np.uint8)
        lines[:, at : at + width] = part
        at += width
    flat = lines.ravel()
    return flat[flat != 0].tobytes().decode("ascii")
