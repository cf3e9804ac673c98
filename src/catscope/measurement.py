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

run_campaign draws hidden paths for every trial of a campaign together
from the transition matrix augmented with a per-step demolition channel
(the sector is scrambled uniformly with probability p_d), and returns them
as one columnar Records set.  build_transition_matrix returns the pure,
un-augmented matrix, which is what the inference side assumes; the
mismatch is deliberate and mirrors how the demolition probability is
calibrated separately from the sector-transition rates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .darkmatter import HaloParams, SearchPoint, excitation_probability, g_of_t
from .errors import ConfigError, InvalidMode, PrepFailed
from .fock import (
    CatSpec,
    StateVector,
    _displace_vector,
    cat_state,
    coherent_state,
    required_dim,
)

SYMBOL_GROUND = "G"
SYMBOL_EXCITED = "E"
SYMBOL_LEAK = "L"
_SYMBOLS = frozenset((SYMBOL_GROUND, SYMBOL_EXCITED, SYMBOL_LEAK))

# Columnar symbol codes: code k stands for SYMBOL_ALPHABET[k].  Bytes that
# are not a readout symbol map to CODE_UNKNOWN.
SYMBOL_ALPHABET = SYMBOL_GROUND + SYMBOL_EXCITED + SYMBOL_LEAK
CODE_LEAK = 2
CODE_UNKNOWN = 3
SYMBOL_CODES = np.full(256, CODE_UNKNOWN, dtype=np.uint8)
SYMBOL_CODES[[ord(c) for c in SYMBOL_ALPHABET]] = (0, 1, CODE_LEAK)
SYMBOL_CODES.setflags(write=False)

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
class DMInjection:
    """Per-trial signal hypothesis: kinetic mixing epsilon, the search
    point being probed, and the integration time before the checks start."""

    epsilon: float
    point: SearchPoint
    integration_time: float
    halo: HaloParams = HaloParams()

    def __post_init__(self):
        if self.epsilon < 0.0:
            raise ConfigError(f"epsilon must be >= 0, got {self.epsilon!r}")
        if not self.integration_time > 0.0:
            raise ConfigError(
                f"integration_time must be > 0, got {self.integration_time!r}"
            )


@dataclass(frozen=True)
class TrialConfig:
    """One trial template.  init is the compass probe (None = vacuum probe);
    at most one of injected_beta (mimic displacement) and dm may be set.
    repeats is the number of readout symbols per record."""

    init: CatSpec | None = None
    injected_beta: complex | None = None
    dm: DMInjection | None = None
    repeats: int = 20
    rng_seed: int = 0

    def __post_init__(self):
        if self.injected_beta is not None and self.dm is not None:
            raise ConfigError("set injected_beta or dm, not both")
        if self.init is not None and self.init.m != 4:
            raise ConfigError("the record model covers four-component probes only")
        if self.repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {self.repeats!r}")
        if not 0 <= self.rng_seed < 2**64:
            raise ConfigError("rng_seed must fit in 64 bits")

    @property
    def mode(self) -> str:
        return "compass" if self.init is not None else "vacuum"


@dataclass(frozen=True)
class ReadoutRecord:
    """Symbol string over {G, E, L} plus the trial id and, for simulated
    data, the hidden-path annotation."""

    symbols: str
    trial_id: int = 0
    truth: dict | None = None

    def __post_init__(self):
        if not self.symbols:
            raise ConfigError("empty symbol string")
        bad = set(self.symbols) - _SYMBOLS
        if bad:
            raise ConfigError(f"unknown symbols {sorted(bad)!r}")

    @property
    def leaked(self) -> bool:
        return SYMBOL_LEAK in self.symbols


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
    truth they are all None.  len, iteration and integer indexing give
    ReadoutRecords; any other index (slice, mask) selects rows.
    """

    symbols: np.ndarray
    trial_ids: np.ndarray
    mode: str | None = None
    init_sector: np.ndarray | None = None
    injected: np.ndarray | None = None
    sectors: np.ndarray | None = None
    qubits: np.ndarray | None = None

    def __len__(self) -> int:
        return self.symbols.shape[0]

    @property
    def leaked(self) -> np.ndarray:
        """Per-row flag: the record holds a leaked readout."""
        return (self.symbols == CODE_LEAK).any(axis=1)

    def _truth(self, i: int) -> dict | None:
        if self.mode is None:
            return None
        return {
            "mode": self.mode,
            "init_sector": int(self.init_sector[i]),
            "injected": bool(self.injected[i]),
            "sectors": self.sectors[i].tolist(),
            "qubits": _code_strings(self.qubits[i : i + 1], "ge")[0],
        }

    def __iter__(self):
        strings = _code_strings(self.symbols, SYMBOL_ALPHABET)
        for i, (symbols, trial_id) in enumerate(zip(strings, self.trial_ids.tolist())):
            yield ReadoutRecord(symbols, trial_id, self._truth(i))

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            i = range(len(self))[key]
            return next(iter(self[i : i + 1]))
        truth = [
            None if col is None else col[key]
            for col in (self.init_sector, self.injected, self.sectors, self.qubits)
        ]
        return Records(self.symbols[key], self.trial_ids[key], self.mode, *truth)


def as_records(records) -> Records:
    """records itself when columnar; otherwise the ReadoutRecords packed
    into columns.  All records must have the same length; the truth
    columns are filled only when every record carries truth."""
    if isinstance(records, Records):
        return records
    records = list(records)
    lengths = {len(r.symbols) for r in records}
    if len(lengths) > 1:
        raise ConfigError(
            f"records of different lengths {sorted(lengths)} do not form columns"
        )
    shape = (len(records), lengths.pop() if lengths else 1)
    text = "".join(r.symbols for r in records).encode("ascii")
    symbols = SYMBOL_CODES[np.frombuffer(text, np.uint8)].reshape(shape)
    trial_ids = np.array([r.trial_id for r in records], dtype=np.int64)
    truths = [r.truth for r in records]
    if not truths or any(t is None for t in truths):
        return Records(symbols, trial_ids)
    modes = {t["mode"] for t in truths}
    if len(modes) > 1:
        raise ConfigError(f"records mix probe modes {sorted(modes)}")
    qubits = "".join(t["qubits"] for t in truths).encode("ascii")
    return Records(
        symbols,
        trial_ids,
        modes.pop(),
        np.array([t["init_sector"] for t in truths], dtype=np.uint8),
        np.array([t["injected"] for t in truths], dtype=bool),
        np.array([t["sectors"] for t in truths], dtype=np.uint8).reshape(shape),
        (np.frombuffer(qubits, np.uint8) == ord("e")).astype(np.uint8).reshape(shape),
    )


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


# g(t) per (t, point, halo), shared by the injections of all probes and the
# search fit; pipeline.run_command empties it at the start of each command
G_CACHE: dict[tuple, float] = {}


def g_cached(times, point: SearchPoint, halo: HaloParams) -> list[float]:
    """g_of_t at each time, one quadrature per distinct (t, point, halo):
    the times not in G_CACHE yet go to g_of_t in one batch."""
    new = [t for t in dict.fromkeys(times) if (t, point, halo) not in G_CACHE]
    if new:
        G_CACHE.update(
            ((t, point, halo), g) for t, g in zip(new, g_of_t(new, point, halo))
        )
    return [G_CACHE[t, point, halo] for t in times]


def _dm_probability(dm: DMInjection, alpha_sq: float) -> float:
    """The probe's excitation_probability, with g(t) from g_cached."""
    (g,) = g_cached([dm.integration_time], dm.point, dm.halo)
    return excitation_probability(
        dm.epsilon, dm.point, dm.halo, dm.integration_time, alpha_sq, g
    )


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
        probs = np.zeros(4)
        if cfg.dm is not None:
            p = _dm_probability(cfg.dm, abs(cfg.init.alpha) ** 2)
            probs[j0] = 1.0 - p
            probs[(j0 + 1) % 4] = p
        else:
            probs[j0] = 1.0
        return probs
    # vacuum probe: two levels
    if cfg.injected_beta is not None:
        p1 = 1.0 - math.exp(-abs(cfg.injected_beta) ** 2)
    elif cfg.dm is not None:
        p1 = _dm_probability(cfg.dm, 1.0)
    else:
        p1 = 0.0
    return np.array([1.0 - p1, p1])


# ---------------------------------------------------------------------------
# record simulation


def _pick(cum: np.ndarray, u: float) -> int:
    idx = int(np.searchsorted(cum, u, side="right"))
    return min(idx, cum.size - 1)


def simulate_record(
    cfg: TrialConfig, device: DeviceParams, trial_id: int = 0
) -> ReadoutRecord:
    """Draw one record: hidden (sector, qubit) path plus readout symbols.

    The scalar reference that run_campaign is tested against, trial for
    trial; no command calls it.  The per-trial stream is seeded as
    SeedSequence([cfg.rng_seed, trial_id]).  The sector chain uses the
    demolition-augmented kernel (uniform scramble with probability p_d per
    step); the first symbol is emitted from the post-preparation state
    (qubit g) before any transition.
    """
    rng = np.random.default_rng(np.random.SeedSequence([cfg.rng_seed, trial_id]))
    mode = cfg.mode
    alpha_sq = abs(cfg.init.alpha) ** 2 if cfg.init is not None else 1.0

    probs = _initial_sector_probs(cfg)
    n_sec = probs.size
    sector = _pick(np.cumsum(probs), rng.random())
    base = cfg.init.j if mode == "compass" else 0
    injected = sector != base
    qubit = 0  # post-selected ground state after preparation

    cav = _cavity_matrix(device, alpha_sq, mode)
    if device.p_d > 0.0:
        cav = (1.0 - device.p_d) * cav + device.p_d / n_sec
    cav_cum = np.cumsum(cav, axis=1)
    factors = _qubit_factors(device)
    kernels = [_qubit_kernel(k, factors) for k in _sector_kinds(mode)]
    to_g = [kern[:, 0] for kern in kernels]  # P(qubit' = g | qubit, dest sector)

    p_read_g = (1.0 - device.readout_Fge_inv, device.readout_Fge)

    u = rng.random((cfg.repeats, 4))  # columns: sector, qubit, leak, symbol
    symbols = []
    sectors = [sector]
    qubits = [qubit]
    for k in range(cfg.repeats):
        if k > 0:
            sector = _pick(cav_cum[sector], u[k, 0])
            qubit = 0 if u[k, 1] < to_g[sector][qubit] else 1
            sectors.append(sector)
            qubits.append(qubit)
        if u[k, 2] < device.p_leak:
            symbols.append(SYMBOL_LEAK)
        else:
            symbols.append(
                SYMBOL_GROUND if u[k, 3] < p_read_g[qubit] else SYMBOL_EXCITED
            )

    truth = {
        "mode": mode,
        "init_sector": int(sectors[0]),
        "injected": bool(injected),
        "sectors": [int(s) for s in sectors],
        "qubits": "".join("ge"[q] for q in qubits),
    }
    return ReadoutRecord("".join(symbols), trial_id=trial_id, truth=truth)


@dataclass(frozen=True)
class CampaignResult:
    records: Records
    truth_summary: dict


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
    simulate_record(cfg, device, k) draws (see _trial_uniforms), and the
    hidden chain of every trial advances together, one vectorized step per
    readout slot, with the same comparisons in the same order; so row k
    equals that record.  The truth summary aggregates the hidden-path
    columns for oracle checks.
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
    records = Records(
        symbols,
        np.arange(n_trials, dtype=np.int64),
        mode,
        init_sector,
        init_sector != base,
        sectors,
        qubits,
    )
    summary = {
        "n_trials": n_trials,
        "mode": mode,
        "repeats": cfg.repeats,
        "n_injected": int(records.injected.sum()),
        "n_leaked_records": int(records.leaked.sum()),
        "init_sector_counts": np.bincount(init_sector, minlength=n_sec).tolist(),
    }
    return CampaignResult(records, summary)


# ---------------------------------------------------------------------------
# compass-state preparation (trajectory level)


def _decay_interval(
    psi: np.ndarray, device: DeviceParams, dt: float, rng, n: np.ndarray
) -> np.ndarray:
    """Quantum-jump step over dt for cavity loss (rate 1/T1c) and thermal
    excitation (rate n_c/T1c).  At most one jump per interval, placed
    uniformly; fine for dt << T1c / <n>."""
    kap = 1.0 / device.T1c
    kup = kap * device.n_c
    decay_exp = 0.5 * (kap * n + kup * (n + 1.0))
    no_jump = np.exp(-decay_exp * dt) * psi
    p_nj = float(np.vdot(no_jump, no_jump).real)
    if rng.random() < p_nj:
        return no_jump / math.sqrt(p_nj)
    tau = rng.random() * dt
    mid = np.exp(-decay_exp * tau) * psi
    w = np.abs(mid) ** 2
    r_down = kap * float(np.sum(n * w))
    r_up = kup * float(np.sum((n + 1.0) * w))
    if rng.random() < r_down / (r_down + r_up):
        jumped = np.append(np.sqrt(n[1:]) * mid[1:], 0.0)  # annihilation
    else:
        jumped = np.concatenate(([0.0], np.sqrt(n[1:]) * mid[:-1]))  # creation
    out = np.exp(-decay_exp * (dt - tau)) * jumped
    return out / np.linalg.norm(out)


def _ramsey_step(
    psi: np.ndarray, theta: float, device: DeviceParams, rng, n: np.ndarray
) -> tuple[np.ndarray, str]:
    """One check at modular angle theta: collapse the cavity with the
    branch operator (1 +- e^{i n theta})/2 and report the qubit readout.

    The ground branch equals sine_filter(theta) up to the frame phase
    e^{i n theta / 2}.  A dephasing event during the delay (probability
    1 - exp(-theta/(chi T2q))) swaps which branch the physical qubit
    outcome corresponds to; readout misreports flip the report only.
    Raises PrepFailed when the readout leaks.
    """
    phase = np.exp(1j * n * theta)
    k_g = 0.5 * (1.0 + phase)
    k_e = 0.5 * (1.0 - phase)
    w_g = float(np.linalg.norm(k_g * psi) ** 2)
    branch_g = rng.random() < w_g
    psi = (k_g if branch_g else k_e) * psi
    psi = psi / np.linalg.norm(psi)

    t_delay = theta / device.chi
    dephased = rng.random() < 1.0 - math.exp(-t_delay / device.T2q)
    outcome_g = branch_g ^ dephased
    if rng.random() < device.p_leak:
        raise PrepFailed("readout left the qubit subspace during preparation")
    flip_p = device.readout_Fge_inv if outcome_g else device.readout_Fge
    if rng.random() < flip_p:
        outcome_g = not outcome_g
    return psi, ("g" if outcome_g else "e")


def prepare_compass(
    alpha: complex, device: DeviceParams, rng, dim: int | None = None
) -> tuple[StateVector, bool]:
    """Simulate compass preparation from |alpha>: a parity filter
    (theta = pi), a modular filter (theta = pi/2), then three parity
    verification checks, post-selected on every readout reporting g.

    Returns (state, success); success is False as soon as a readout
    reports e (caller retries).  Raises PrepFailed on a leaked readout.
    On an error-free device the success branch lands exactly on the
    four-component cat with modular index 0.
    """
    alpha = complex(alpha)
    if dim is None:
        dim = required_dim(abs(alpha))
    n = np.arange(dim, dtype=float)
    psi = coherent_state(alpha, dim).amps.copy()
    for theta in (math.pi, math.pi / 2.0, math.pi, math.pi, math.pi):
        psi = _decay_interval(psi, device, device.t_m / 2.0, rng, n)
        psi, reported = _ramsey_step(psi, theta, device, rng, n)
        psi = _decay_interval(psi, device, device.t_m / 2.0, rng, n)
        if reported != "g":
            return StateVector(dim, psi / np.linalg.norm(psi)), False
    return StateVector(dim, psi / np.linalg.norm(psi)), True


# ---------------------------------------------------------------------------
# serialization


def records_to_jsonl(records, include_truth: bool = True) -> str:
    """One JSON object per line, {symbols, trial_id, truth?}: per record the
    text json.dumps(obj, sort_keys=True) gives, formatted from the columns."""
    recs = as_records(records)
    symbols = _code_strings(recs.symbols, SYMBOL_ALPHABET)
    ids = recs.trial_ids.tolist()
    if not include_truth or recs.mode is None:
        lines = [f'{{"symbols": "{s}", "trial_id": {t}}}' for s, t in zip(symbols, ids)]
        return "\n".join(lines) + "\n"
    columns = zip(
        symbols,
        ids,
        recs.init_sector.tolist(),
        np.where(recs.injected, "true", "false").tolist(),
        _code_strings(recs.qubits, "ge"),
        map(str, recs.sectors.tolist()),
    )
    lines = [
        f'{{"symbols": "{s}", "trial_id": {t}, "truth": {{"init_sector": {i}, '
        f'"injected": {j}, "mode": "{recs.mode}", "qubits": "{q}", "sectors": {c}}}}}'
        for s, t, i, j, q, c in columns
    ]
    return "\n".join(lines) + "\n"


def records_from_jsonl(text: str) -> list[ReadoutRecord]:
    records = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        records.append(
            ReadoutRecord(
                symbols=obj["symbols"],
                trial_id=int(obj.get("trial_id", 0)),
                truth=obj.get("truth"),
            )
        )
    return records
