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
commands compute from the halo model (darkmatter.excitation_probability).

run_campaign draws hidden paths for every trial of a campaign together
from the transition matrix augmented with a per-step demolition channel
(the sector is scrambled uniformly with probability p_d), and returns them
as one columnar Records set.  Records is the one record format: inference,
post-selection and records_to_jsonl take nothing else.  The scalar
per-record simulator run_campaign is checked against, and the compass-state
preparation, are test oracles (tests/oracles.py).

build_transition_matrix returns the pure, un-augmented matrix, which is
what the inference side assumes; the mismatch is deliberate and mirrors
how the demolition probability is calibrated separately from the
sector-transition rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, InvalidMode
from .fock import CatSpec, _displace_vector, cat_state, required_dim

SYMBOL_GROUND = "G"
SYMBOL_EXCITED = "E"
SYMBOL_LEAK = "L"

# Columnar symbol codes: code k stands for SYMBOL_ALPHABET[k]
SYMBOL_ALPHABET = SYMBOL_GROUND + SYMBOL_EXCITED + SYMBOL_LEAK
CODE_LEAK = 2

_MODES = ("compass", "vacuum")


@dataclass(frozen=True)
class DeviceParams:
    """Calibrated device numbers shared by simulation and inference.

    readout_Fge is the probability that an excited qubit is reported G,
    readout_Fge_inv that a ground qubit is reported E.  p_d is the
    per-check demolition probability, p_leak the per-readout leakage
    probability.  Times are seconds, frequencies rad/s.
    """

    omega_c: float = 2 * math.pi * 6.442e9
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
        for name in ("omega_c", "chi"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0.0):
                raise ConfigError(f"{name} must be finite and > 0, got {v!r}")
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


@dataclass(frozen=True)
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


def _code_strings(codes: np.ndarray, alphabet: str) -> list[str]:
    """One string per row of a small-integer code matrix."""
    chars = np.frombuffer(alphabet.encode("ascii"), np.uint8)[codes]
    width = chars.shape[1]
    return [b.decode("ascii") for b in chars.view(f"S{width}").ravel().tolist()]


@dataclass(frozen=True, eq=False)
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
        raise ConfigError("qubit error factors exceed 1; check T1q/T2q vs t_m")
    return 1.0 - p_ge, p_ge, p_eg, 1.0 - p_eg


def _cavity_matrix(device: DeviceParams, alpha_sq: float, mode: str) -> np.ndarray:
    """Sector-level transition matrix for one parity interval."""
    if mode == "compass":
        p_down = 1.0 - math.exp(-alpha_sq * device.t_m / device.T1c)
        p_up = device.n_c * p_down
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
    """Readout matrix, hidden states x (G, E).

    Rows alternate ground/excited readout fidelities.  The vacuum-mode
    matrix keeps the conventional overall factor 1/2 (its rows sum to 1/2,
    not 1); posterior computations only ever use the rows up to a common
    scale, so the factor is cosmetic but preserved for comparability.
    """
    _check_mode(mode)
    g_row = (1.0 - device.readout_Fge_inv, device.readout_Fge_inv)
    e_row = (device.readout_Fge, 1.0 - device.readout_Fge)
    if mode == "compass":
        return np.array([g_row, e_row] * 4)
    return 0.5 * np.array([g_row, e_row, g_row, e_row])


# ---------------------------------------------------------------------------
# signal injection


@lru_cache(maxsize=128)
def _mimic_sector_populations(
    alpha: complex, m: int, j: int, beta: complex
) -> tuple[float, ...]:
    """Sector distribution after a mimic displacement.

    The l != j entries are the cat-basis overlaps |<phi_l| D(beta) |phi_j>|^2;
    the part of the displaced state that leaves the cat-code space (mass of
    order |beta|^2 times the photon-number spread) is folded back into the
    starting sector.  This keeps the hidden-sector flip probability equal to
    the plain two-state transition probability the analysis calibrates
    against, rather than the somewhat larger bare modular mass.
    """
    dim = required_dim(abs(alpha) + abs(beta))
    psi = cat_state(CatSpec(alpha, m, j), dim).amps
    disp = _displace_vector(complex(beta), psi)
    probs = np.zeros(m)
    for lsec in range(m):
        if lsec == j:
            continue
        target = cat_state(CatSpec(alpha, m, lsec), dim).amps
        probs[lsec] = abs(np.vdot(target, disp)) ** 2
    probs[j] = 1.0 - probs.sum()
    return tuple(probs)


def _initial_sector_probs(cfg: TrialConfig) -> np.ndarray:
    """Distribution of the hidden sector at the first readout slot."""
    if cfg.mode == "compass":
        j0 = cfg.init.j
        if cfg.injected_beta is not None:
            return np.array(
                _mimic_sector_populations(
                    complex(cfg.init.alpha), cfg.init.m, j0, complex(cfg.injected_beta)
                )
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


@dataclass(frozen=True)
class CampaignResult:
    records: Records


# numpy's SeedSequence hash constants and the PCG64 multiplier (O'Neill,
# PCG, HMC-CS-2014-0905), which _trial_uniforms runs on arrays
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_BLOCK = 128  # trials, and draws, computed at once: bounds the scratch memory


def _hashmix(value: np.ndarray, h: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hash of uint32 words; h is the running hash constant."""
    value = value ^ h
    h = h * mult & _M32
    value = value * h
    return value ^ value >> 16, h


def _seed_states(rng_seed: int, n: int) -> list[np.ndarray]:
    """SeedSequence([rng_seed, k]).generate_state(4, np.uint64) for k < n,
    as four uint64 columns; rng_seed's (at most two) words and k fit the pool."""
    shifts = range(0, max(rng_seed.bit_length(), 1), 32)
    pool = [np.full(n, rng_seed >> s & _M32, np.uint32) for s in shifts]
    pool += [np.arange(n, dtype=np.uint32)] + [np.zeros(n, np.uint32)] * (3 - len(pool))
    h = _INIT_A
    for i in range(4):
        pool[i], h = _hashmix(pool[i], h, _MULT_A)
    for src, dst in [(s, d) for s in range(4) for d in range(4) if s != d]:
        mixed, h = _hashmix(pool[src], h, _MULT_A)
        r = pool[dst] * _MIX_MULT_L - mixed * _MIX_MULT_R
        pool[dst] = r ^ r >> 16
    h, words = _INIT_B, []
    for i in range(8):
        word, h = _hashmix(pool[i % 4], h, _MULT_B)
        words.append(word.astype(np.uint64))
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


def _mulhi(k: np.ndarray, x: np.ndarray) -> np.ndarray:
    """High words of the 128-bit products of uint64 words, by 32-bit limbs."""
    k_hi, k_lo, x_hi, x_lo = k >> 32, k & _M32, x >> 32, x & _M32
    lo_hi, hi_lo = k_lo * x_hi, k_hi * x_lo
    mid = (k_lo * x_lo >> 32) + (lo_hi & _M32) + (hi_lo & _M32)
    return k_hi * x_hi + (lo_hi >> 32) + (hi_lo >> 32) + (mid >> 32)


def _trial_uniforms(cfg: TrialConfig, n_trials: int) -> np.ndarray:
    """(n, 1 + 4 repeats) uniforms: row k is what
    Generator(PCG64(SeedSequence([rng_seed, k]))).random(1 + 4 repeats)
    gives, the initial-sector draw and then the (repeats, 4) step draws.

    With s, q the 128-bit halves of the seed state, inc = 2 q + 1 and the
    setseq init x0 = M s + (M + 1) inc, draw j is the XSL-RR output of x0
    stepped j + 1 times, M^(j+2) s + (1 + M + ... + M^(j+2)) inc, held as
    (hi, lo) uint64 pairs and jumped to for tiles of _BLOCK by _BLOCK."""
    n_draws = 1 + 4 * cfg.repeats
    s_hi, s_lo, q_hi, q_lo = _seed_states(cfg.rng_seed, n_trials)
    i_hi, i_lo = q_hi << 1 | q_lo >> 63, q_lo << 1 | 1
    u = np.empty((n_trials, n_draws))
    power, total = _PCG_MULT, 1 + _PCG_MULT
    for first in range(0, n_draws, _BLOCK):
        jumps = []  # (M^(j+2), 1 + M + ... + M^(j+2)) for the tile's draws
        for _ in range(min(_BLOCK, n_draws - first)):
            power = power * _PCG_MULT & _M128
            total = total + power & _M128
            jumps.append((power, total))
        halves = ([v[i] >> s & _M64 for v in jumps] for i in (0, 1) for s in (64, 0))
        a_hi, a_lo, b_hi, b_lo = (np.array(w, np.uint64) for w in halves)
        for start in range(0, n_trials, _BLOCK):
            rows = slice(start, start + _BLOCK)
            sh, sl, ih, il = (w[rows, None] for w in (s_hi, s_lo, i_hi, i_lo))
            lo_s = a_lo * sl
            lo = lo_s + b_lo * il
            hi = _mulhi(a_lo, sl) + _mulhi(b_lo, il) + (lo < lo_s)
            hi += a_lo * sh + a_hi * sl + b_lo * ih + b_hi * il
            out, rot = hi ^ lo, hi >> 58
            out = out >> rot | out << (64 - rot & 63)
            u[rows, first : first + _BLOCK] = (out >> 11) * 2.0**-53
    return u


def run_campaign(
    n_trials: int, cfg: TrialConfig, device: DeviceParams
) -> CampaignResult:
    """Simulate n_trials <= 2**32 independent records from one template.

    Trial k draws from PCG64(SeedSequence([cfg.rng_seed, k])) exactly what
    the scalar per-record simulator in tests/oracles.py draws for trial k
    (see _trial_uniforms), and the hidden chain of every trial advances
    together, one vectorized step per readout slot, with the same
    comparisons in the same order; so row k equals that record.
    """
    if not 1 <= n_trials <= 2**32:
        raise ConfigError(f"n_trials must lie in [1, 2**32], got {n_trials!r}")
    mode = cfg.mode
    alpha_sq = abs(cfg.init.alpha) ** 2 if cfg.init is not None else 1.0
    probs = _initial_sector_probs(cfg)
    n_sec = probs.size
    cav = _cavity_matrix(device, alpha_sq, mode)
    if device.p_d > 0.0:
        cav = (1.0 - device.p_d) * cav + device.p_d / n_sec
    cav_cum = np.cumsum(cav, axis=1)
    factors = _qubit_factors(device)
    # P(qubit' = g | dest sector, qubit)
    to_g = np.array([_qubit_kernel(k, factors)[:, 0] for k in _sector_kinds(mode)])
    p_read_g = np.array([1.0 - device.readout_Fge_inv, device.readout_Fge])

    u = _trial_uniforms(cfg, n_trials)
    steps = u[:, 1:].reshape(n_trials, cfg.repeats, 4)  # sector, qubit, leak, symbol
    sectors = np.empty((n_trials, cfg.repeats), dtype=np.uint8)
    qubits = np.zeros((n_trials, cfg.repeats), dtype=np.uint8)
    # a pick is the count of cumulative weights <= u, clamped to the last sector
    first = np.searchsorted(np.cumsum(probs), u[:, 0], side="right")
    sectors[:, 0] = np.minimum(first, n_sec - 1)
    for k in range(1, cfg.repeats):
        hop = (cav_cum[sectors[:, k - 1]] <= steps[:, k, 0, None]).sum(axis=1)
        sectors[:, k] = np.minimum(hop, n_sec - 1)
        qubits[:, k] = ~(steps[:, k, 1] < to_g[sectors[:, k], qubits[:, k - 1]])
    symbols = np.where(steps[:, :, 3] < p_read_g[qubits], 0, 1).astype(np.uint8)
    symbols[steps[:, :, 2] < device.p_leak] = CODE_LEAK

    base = cfg.init.j if mode == "compass" else 0
    init_sector = sectors[:, 0].copy()
    return CampaignResult(
        Records(
            symbols,
            np.arange(n_trials, dtype=np.int64),
            mode,
            init_sector,
            init_sector != base,
            sectors,
            qubits,
        )
    )


# ---------------------------------------------------------------------------
# serialization


def records_to_jsonl(records: Records) -> str:
    """One JSON object per line, {symbols, trial_id, truth?}: per record the
    text json.dumps(obj, sort_keys=True) gives, formatted from the columns,
    with symbols as a G/E/L string and truth as {init_sector, injected,
    mode, qubits, sectors}; the truth key appears when the truth columns do."""
    symbols = _code_strings(records.symbols, SYMBOL_ALPHABET)
    ids = records.trial_ids.tolist()
    if records.mode is None:
        lines = [f'{{"symbols": "{s}", "trial_id": {t}}}' for s, t in zip(symbols, ids)]
        return "\n".join(lines) + "\n"
    columns = zip(
        symbols,
        ids,
        records.init_sector.tolist(),
        np.where(records.injected, "true", "false").tolist(),
        _code_strings(records.qubits, "ge"),
        map(str, records.sectors.tolist()),
    )
    lines = [
        f'{{"symbols": "{s}", "trial_id": {t}, "truth": {{"init_sector": {i}, '
        f'"injected": {j}, "mode": "{records.mode}", "qubits": "{q}", "sectors": {c}}}}}'
        for s, t, i, j, q, c in columns
    ]
    return "\n".join(lines) + "\n"
