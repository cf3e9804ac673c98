"""Independent oracles the tests check catscope against.

None of this has a production caller.  These routines reach a quantity
catscope computes by a different route, through SciPy, which the package
itself does not need:

- lindblad_evolve: a dense Lindblad propagation (solve_ivp) of photon loss
  and heating, against lindblad's closed-form cat transitions;
- displacement_operator: D(beta) by matrix exponential (expm), against
  the closed-form mimic sector populations, the spectral displacement of
  fock_wigner and the record simulator;
- forward_backward: the scalar logsumexp posterior recursion, with its own
  G/E symbol encoder and Posterior check, against hmm.batch_posteriors;
- g_of_t_reference: g(t) as the lineshape integral in the speed variable,
  by scipy.integrate.quad between the nulls of the sinc factor, against
  darkmatter.g_of_t's closed form in the lag.

The rest, in plain NumPy, are reference models no command runs: the
truncated Fock space (required_dim, StateVector, cat_state and the
Poisson tail check poisson_sf), states and overlap measures on it;
fock_wigner, the Wigner function of a state
by displacing it in Fock space, against the closed-form cat Wigner
fock.wigner; cat_transition_probability, one (t, j, l) cell of the loss
transition sum, against lindblad.transition_curves_to_csv;
simulate_record, the scalar simulator that measurement.run_campaign is
checked against, with record_rows, the row view of a Records set;
prepare_compass, the trajectory-level compass preparation;
threshold_complement; and the figure writers one row at a time
(wigner_to_csv_reference, transition_curves_to_csv_reference and
threshold_sweep_reference), against the array-built fock.wigner_to_csv,
lindblad.transition_curves_to_csv and fits.threshold_sweep.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad, solve_ivp
from scipy.linalg import expm
from scipy.special import logsumexp, pdtrc

from catscope.darkmatter import C_KM_S, HaloParams, SearchPoint
from catscope.errors import (
    CatscopeError,
    ConfigError,
    DegenerateDesign,
    DimMismatch,
    InvalidIndex,
    LeakageSymbol,
    NonConvergence,
    NonFinite,
    QuadratureFailure,
)
from catscope.fock import _MIN_CAT_NORM, CatSpec, PhaseGrid, _sector_norm
from catscope.fits import SweepPoint
from catscope.hmm import HmmModel, batch_posteriors, postselect
from catscope.measurement import (
    SYMBOL_ALPHABET,
    SYMBOL_EXCITED,
    SYMBOL_GROUND,
    SYMBOL_LEAK,
    DeviceParams,
    Records,
    TrialConfig,
    _cavity_matrix,
    _initial_sector_probs,
    _qubit_factors,
    _qubit_kernel,
    _sector_kinds,
)


# ---------------------------------------------------------------------------
# the truncated Fock space


class TruncationTooSmall(CatscopeError):
    """Fock-space dimension cannot hold the requested state to tail mass < 1e-8."""


_TAIL_TOL = 1e-8
_NORM_TOL = 1e-10


def poisson_sf(k: int, m: float) -> float:
    """P(X > k) for X ~ Poisson(m), the mass a truncation at k + 1 levels
    leaves out.

    The terms j > k are summed upward in log space, from the first term
    that can matter to where they fall below e^-800 of the largest: a term
    more than 40 sqrt(m) + 60 away from the mode m is that small.  When
    the whole window lies above k the tail is 1 to double precision."""
    if m == 0.0:
        return 0.0
    width = 40.0 * math.sqrt(m) + 60.0
    if k + 1 < m - width:
        return 1.0
    j = np.arange(k + 1, int(max(k + 1, m) + width) + 1, dtype=float)
    log_j_factorial = np.array([math.lgamma(v + 1.0) for v in j.tolist()])
    return float(np.sum(np.exp(j * math.log(m) - m - log_j_factorial)))


def required_dim(alpha_max: float) -> int:
    """Smallest truncation holding amplitudes up to |alpha_max| (tail < 1e-8)."""
    a = abs(alpha_max)
    return int(np.ceil(a * a + 7.0 * a + 10.0))


def annihilation_operator(dim: int) -> np.ndarray:
    """Matrix of a: a|n> = sqrt(n)|n-1>."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


@dataclass(frozen=True)
class StateVector:
    """Pure state |psi> = sum_n amps[n] |n> on a truncated Fock space."""

    dim: int
    amps: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (self.dim,):
            raise DimMismatch(f"amps shape {amps.shape} != ({self.dim},)")
        if not np.all(np.isfinite(amps)):
            raise NonFinite("state amplitudes contain NaN/inf")
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state not normalized: sum |amps|^2 = {norm!r}")
        object.__setattr__(self, "amps", amps)


def _log_poisson_amps(alpha: complex, dim: int) -> np.ndarray:
    """Unnormalized coherent amplitudes e^{-|a|^2/2} a^n / sqrt(n!), computed
    in log space so large n never overflows."""
    n = np.arange(dim)
    mag = abs(alpha)
    if mag == 0.0:
        amps = np.zeros(dim, dtype=complex)
        amps[0] = 1.0
        return amps
    log_n_fact = np.array([math.lgamma(k + 1.0) for k in range(dim)])
    log_mod = -0.5 * mag * mag + n * np.log(mag) - 0.5 * log_n_fact
    return np.exp(log_mod) * np.exp(1j * n * np.angle(alpha))


def cat_state(spec: CatSpec, dim: int) -> StateVector:
    """M-component cat |phi_{M,j}>: the coherent superposition
    sum_k e^{-ij phi_k} |alpha e^{i phi_k}>, phi_k = 2 pi k / M.

    Built directly in the Fock basis, where the state is the Poisson
    amplitude sequence restricted to n = j (mod M), with the exact
    normalization from the finite sum (the M^{-1/2} shorthand is an
    approximation that fails for |alpha|^2 of a few).
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if spec.j >= dim:
        raise TruncationTooSmall(f"dim={dim} cannot hold Fock level j={spec.j}")
    alpha = complex(spec.alpha)
    if abs(alpha) == 0.0:
        # Limit alpha -> 0: the leading term alpha^j dominates, so the state
        # tends to the Fock state |j>.
        amps = np.zeros(dim, dtype=complex)
        amps[spec.j] = 1.0
        return StateVector(dim, amps)
    amps = _log_poisson_amps(alpha, dim)
    mask = (np.arange(dim) % spec.m) == spec.j
    amps = np.where(mask, amps, 0.0)
    sector_mass = float(np.sum(np.abs(amps) ** 2))
    tail = poisson_sf(dim - 1, abs(alpha) ** 2)
    if sector_mass <= 0.0 or tail >= _TAIL_TOL * (sector_mass + tail):
        raise TruncationTooSmall(
            f"dim={dim} leaves relative tail {tail:.3e} on sector j={spec.j} (mod {spec.m})"
        )
    return StateVector(dim, amps / np.sqrt(sector_mass))


def _displacement_basis(dim: int):
    """Eigendecomposition of the Hermitian generator i(a^dag - a).

    On the truncated space D(z) = R(theta) exp(-i r H) R(theta)^dag with
    z = r e^{i theta}, H = i(a^dag - a), and R(theta) = e^{i theta n}; this
    identity is exact for the truncated matrices, so the spectral form
    reproduces expm(z a^dag - z^* a) to rounding error while costing one
    diagonalization per dim instead of one expm per phase-space point.
    """
    a = annihilation_operator(dim)
    h = 1j * (a.conj().T - a)
    evals, evecs = np.linalg.eigh(h)
    return evals, evecs


# ---------------------------------------------------------------------------
# Fock-space states and overlap measures


class NegativeProbability(CatscopeError):
    """A probability vector contains negative entries."""


def coherent_state(alpha: complex, dim: int) -> StateVector:
    """|alpha> truncated to dim levels, renormalized.

    Amplitudes follow the Poisson law amps_n = e^{-|a|^2/2} a^n / sqrt(n!).
    Raises TruncationTooSmall when the neglected tail mass >= 1e-8.
    """
    alpha = complex(alpha)
    if not np.isfinite(alpha):
        raise NonFinite("alpha is not finite")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    tail = poisson_sf(dim - 1, abs(alpha) ** 2)
    if tail >= _TAIL_TOL:
        raise TruncationTooSmall(
            f"dim={dim} leaves tail mass {tail:.3e} for |alpha|^2={abs(alpha)**2:.3f}"
            f" (need dim >= {required_dim(abs(alpha))})"
        )
    amps = _log_poisson_amps(alpha, dim)
    amps = amps / np.linalg.norm(amps)
    return StateVector(dim, amps)


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state rho as a dim x dim Hermitian, unit-trace, PSD matrix."""

    dim: int
    elements: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        rho = np.asarray(self.elements, dtype=complex)
        if rho.shape != (self.dim, self.dim):
            raise DimMismatch(f"elements shape {rho.shape} != ({self.dim}, {self.dim})")
        if not np.all(np.isfinite(rho)):
            raise NonFinite("density matrix contains NaN/inf")
        if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
            raise ValueError("density matrix not Hermitian within 1e-10")
        tr = float(np.real(np.trace(rho)))
        if abs(tr - 1.0) > 1e-8:
            raise ValueError(f"trace = {tr!r}, expected 1 within 1e-8")
        if float(np.min(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0))) < -1e-8:
            raise ValueError("density matrix has eigenvalue below -1e-8")
        object.__setattr__(self, "elements", rho)

    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.elements)).copy()

    def mean_photon(self) -> float:
        return float(np.sum(np.arange(self.dim) * self.populations()))


def to_density(state: StateVector) -> DensityMatrix:
    """The projector |psi><psi| of a pure state."""
    return DensityMatrix(state.dim, np.outer(state.amps, state.amps.conj()))


def transition_probability(a: StateVector, op: np.ndarray, b: StateVector) -> float:
    """|<a| op |b>|^2."""
    op = np.asarray(op, dtype=complex)
    if a.dim != b.dim or op.shape != (a.dim, b.dim):
        raise DimMismatch(
            f"dims disagree: <a| is {a.dim}, op is {op.shape}, |b> is {b.dim}"
        )
    amp = np.vdot(a.amps, op @ b.amps)
    return float(np.abs(amp) ** 2)


def population_fidelity(p_meas: np.ndarray, p_ideal: np.ndarray) -> float:
    """Statistical overlap F = sum_n sqrt(p_meas,n * p_ideal,n).

    Vectors of different length are zero-padded to the longer one.
    """
    p = np.asarray(p_meas, dtype=float)
    q = np.asarray(p_ideal, dtype=float)
    for name, v in (("p_meas", p), ("p_ideal", q)):
        if v.ndim != 1:
            raise ValueError(f"{name} must be one-dimensional")
        if not np.all(np.isfinite(v)):
            raise NonFinite(f"{name} contains NaN/inf")
        if float(np.min(v, initial=0.0)) < -1e-12:
            raise NegativeProbability(f"{name} has negative entries")
        if float(np.sum(v)) > 1.0 + 1e-6:
            raise ValueError(f"{name} sums to {float(np.sum(v))!r} > 1 + 1e-6")
    n = max(p.size, q.size)
    p = np.clip(np.pad(p, (0, n - p.size)), 0.0, None)
    q = np.clip(np.pad(q, (0, n - q.size)), 0.0, None)
    return float(np.sum(np.sqrt(p * q)))


def populations(state: StateVector) -> np.ndarray:
    """Photon-number distribution P_n = |amps_n|^2."""
    return np.abs(state.amps) ** 2


def mean_photon(state: StateVector) -> float:
    return float(np.sum(np.arange(state.dim) * populations(state)))


def grid_max_abs(grid: PhaseGrid) -> float:
    corners = [
        abs(complex(r, i))
        for r in (grid.re_min, grid.re_max)
        for i in (grid.im_min, grid.im_max)
    ]
    return max(corners)


def fock_wigner(state: StateVector, grid: PhaseGrid) -> np.ndarray:
    """W(z) = (2/pi) <psi| D(z) P D^dag(z) |psi> sampled on the grid, with P
    the photon-number parity (-1)^n.

    Returns a real array of shape (n_re, n_im) matching PhaseGrid.points().
    The state is displaced by D(-z) through the spectral form of
    _displacement_basis, one grid row (fixed Re z) at a time: two
    (n_im, dim) @ (dim, dim) products per row on the one eigenbasis.  The
    outer phase R(theta) of that form is dropped, since the parity
    expectation needs only |D(-z) psi|^2.  Raises TruncationTooSmall when the
    displaced state would spill out of the truncated space (|z|_max plus the
    state's amplitude scale exceeds the dim budget).
    """
    a_eff = np.sqrt(mean_photon(state))
    budget = required_dim(grid_max_abs(grid) + a_eff)
    if state.dim < budget:
        raise TruncationTooSmall(
            f"dim={state.dim} < {budget} needed for |z| up to {grid_max_abs(grid):.2f} "
            f"on a state with <n> = {a_eff**2:.2f}"
        )
    levels = np.arange(state.dim)
    signs = (-1.0) ** levels
    gen_evals, gen_evecs = _displacement_basis(state.dim)
    to_eigen = gen_evecs.conj()  # row @ to_eigen = (evecs^dag @ column)^T
    from_eigen = gen_evecs.T
    zs = -grid.points()
    w = np.zeros(zs.shape, dtype=float)
    for i, row in enumerate(zs):
        phases = np.exp(1j * np.angle(row)[:, None] * levels)
        spectral = np.exp(-1j * np.abs(row)[:, None] * gen_evals)
        shifted = (spectral * ((state.amps / phases) @ to_eigen)) @ from_eigen
        w[i] = 2.0 / np.pi * (np.abs(shifted) ** 2 @ signs)
    return w


def cat_transition_probability(
    m: int, j: int, l: int, alpha: complex, kappa: float, t: float
) -> float:
    """Probability Tr[rho_j(t) rho_l(0)] that the j-th m-component cat,
    after pure loss for time t, is found in the l-th cat at the original
    amplitude.

    Evaluated as an exact finite sum: the loss channel maps each coherent
    dyad |a_p><a_q| to a known multiple of the dyad at the decayed
    amplitude, and every factor (normalization constants included) is kept
    exact rather than using the large-alpha shorthands, so the value agrees
    with a numerical Lindblad propagation to integrator precision.
    """
    if m < 2:
        raise InvalidIndex(f"m must be >= 2, got {m}")
    if not (0 <= j < m and 0 <= l < m):
        raise InvalidIndex(f"indices j={j}, l={l} outside [0, {m})")
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t!r}")
    if kappa < 0.0:
        raise ValueError(f"kappa must be >= 0, got {kappa!r}")
    a = abs(complex(alpha))
    a2 = a * a
    ap = a * np.exp(-kappa * t / 2.0)  # decayed amplitude
    decay = 1.0 - np.exp(-kappa * t)
    phi = 2.0 * np.pi * np.arange(m) / m

    # rho_j(t) = N_j^2 sum_{p,q} e^{-ij(phi_p - phi_q)} f_{pq} |ap_p><ap_q|
    # with f_{pq} = exp[-a2 (1 - e^{-kt}) (1 - e^{i(phi_p - phi_q)})]
    p_ = phi[:, None, None, None]
    q_ = phi[None, :, None, None]
    r_ = phi[None, None, :, None]
    s_ = phi[None, None, None, :]
    f_pq = np.exp(-a2 * decay * (1.0 - np.exp(1j * (p_ - q_))))
    # <ap e^{i phi_q} | a e^{i phi_r}> and <a e^{i phi_s} | ap e^{i phi_p}>
    ov_qr = np.exp(-0.5 * (ap * ap + a2) + ap * a * np.exp(1j * (r_ - q_)))
    ov_sp = np.exp(-0.5 * (a2 + ap * ap) + a * ap * np.exp(1j * (p_ - s_)))
    weight = np.exp(-1j * j * (p_ - q_)) * np.exp(-1j * l * (r_ - s_))
    total = np.sum(weight * f_pq * ov_qr * ov_sp)
    norm_j, norm_l = 1.0 / _sector_norm(m, j, a2), 1.0 / _sector_norm(m, l, a2)
    prob = norm_j * norm_l * float(np.real(total))
    if not -1e-9 <= prob <= 1.0 + 1e-9:
        raise ValueError(f"transition probability {prob!r} outside [0, 1]")
    return min(max(prob, 0.0), 1.0)


# ---------------------------------------------------------------------------
# readout records: the row view and the scalar simulator

_SYMBOLS = frozenset((SYMBOL_GROUND, SYMBOL_EXCITED, SYMBOL_LEAK))


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


def _truth(records: Records, i: int) -> dict | None:
    if records.mode is None:
        return None
    return {
        "mode": records.mode,
        "init_sector": int(records.init_sector[i]),
        "injected": bool(records.injected[i]),
        "sectors": records.sectors[i].tolist(),
        "qubits": _code_strings(records.qubits[i : i + 1], "ge")[0],
    }


def record_rows(records: Records) -> list[ReadoutRecord]:
    """The row view of a Records set: one ReadoutRecord per row, in order,
    with the truth annotation when the truth columns are present."""
    strings = _code_strings(records.symbols, SYMBOL_ALPHABET)
    ids = records.trial_ids.tolist()
    return [
        ReadoutRecord(symbols, trial_id, _truth(records, i))
        for i, (symbols, trial_id) in enumerate(zip(strings, ids))
    ]


def _pick(cum: np.ndarray, u: float) -> int:
    idx = int(np.searchsorted(cum, u, side="right"))
    return min(idx, cum.size - 1)


def trial_stream(cfg: TrialConfig, trial_id: int) -> np.random.Generator:
    """The campaign's one stream, PCG64(SeedSequence([cfg.rng_seed])),
    advanced past the 1 + 4 repeats draws of each earlier trial."""
    bits = np.random.PCG64(np.random.SeedSequence([cfg.rng_seed]))
    return np.random.Generator(bits.advance(trial_id * (1 + 4 * cfg.repeats)))


def simulate_record(
    cfg: TrialConfig, device: DeviceParams, trial_id: int = 0
) -> ReadoutRecord:
    """Draw one record: hidden (sector, qubit) path plus readout symbols.

    The scalar reference that run_campaign is tested against, trial for
    trial.  Its draws come from trial_stream, one scalar at a time.  The
    sector chain uses the demolition-augmented kernel (uniform scramble
    with probability p_d per step); the first symbol is emitted from the
    post-preparation state (qubit g) before any transition.
    """
    rng = trial_stream(cfg, trial_id)
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

    symbols = []
    sectors = [sector]
    qubits = [qubit]
    for k in range(cfg.repeats):
        # four draws per slot: sector, qubit, leak, symbol
        u_sector, u_qubit, u_leak, u_symbol = (rng.random() for _ in range(4))
        if k > 0:
            sector = _pick(cav_cum[sector], u_sector)
            qubit = 0 if u_qubit < to_g[sector][qubit] else 1
            sectors.append(sector)
            qubits.append(qubit)
        if u_leak < device.p_leak:
            symbols.append(SYMBOL_LEAK)
        else:
            symbols.append(
                SYMBOL_GROUND if u_symbol < p_read_g[qubit] else SYMBOL_EXCITED
            )

    truth = {
        "mode": mode,
        "init_sector": int(sectors[0]),
        "injected": bool(injected),
        "sectors": [int(s) for s in sectors],
        "qubits": "".join("ge"[q] for q in qubits),
    }
    return ReadoutRecord("".join(symbols), trial_id=trial_id, truth=truth)


# ---------------------------------------------------------------------------
# compass-state preparation (trajectory level)


class PrepFailed(CatscopeError):
    """State preparation post-selection missed on every allowed attempt."""


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

    The ground branch is the photon-number filter diag(cos(n theta / 2))
    up to the frame phase e^{i n theta / 2}.  A dephasing event during the
    delay (probability 1 - exp(-theta/(chi T2q))) swaps which branch the
    physical qubit outcome corresponds to; readout misreports flip the
    report only.  Raises PrepFailed when the readout leaks.
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
# the decision boundary


def threshold_complement(threshold: float) -> float:
    """Background posterior mass at the decision boundary, 1/(1+threshold):
    a record sits exactly at lam = threshold when the non-signal sectors
    hold that fraction of the posterior."""
    if not threshold > 0.0:
        raise ConfigError(f"threshold must be > 0, got {threshold!r}")
    return 1.0 / (1.0 + threshold)


# ---------------------------------------------------------------------------
# photon loss: a dense Lindblad integrator


class StepFailure(CatscopeError):
    """The adaptive integrator could not meet its tolerance."""


@dataclass(frozen=True)
class LossChannel:
    """Cavity damping channel: kappa = 1/T1 in 1/s, n_thermal >= 0."""

    kappa: float
    n_thermal: float = 0.0

    def __post_init__(self):
        if not self.kappa > 0.0:
            raise ValueError(f"kappa must be > 0, got {self.kappa!r}")
        if self.n_thermal < 0.0:
            raise ValueError(f"n_thermal must be >= 0, got {self.n_thermal!r}")


@dataclass(frozen=True)
class EvolutionResult:
    """Final state of a Lindblad propagation with the accepted step count."""

    rho_t: DensityMatrix
    t: float
    steps: int


def lindblad_evolve(rho0: DensityMatrix, ch: LossChannel, t: float) -> EvolutionResult:
    """Propagate rho0 for time t under photon loss at rate ch.kappa plus the
    optional thermal excitation dissipator at rate ch.kappa * ch.n_thermal.

    Integrates d(rho)/dt = kappa/2 (2 a rho a+ - n rho - rho n)
                         + kappa n_th / 2 (2 a+ rho a - aa+ rho - rho aa+)
    with an adaptive Runge-Kutta 4/5 scheme on the flattened matrix.
    Raises StepFailure if the integrator fails or the trace drifts by more
    than 1e-7.
    """
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t!r}")
    if t == 0.0:
        return EvolutionResult(rho0, 0.0, 0)
    dim = rho0.dim
    a = annihilation_operator(dim)
    ad = a.conj().T
    n_diag = np.arange(dim, dtype=float)
    k = ch.kappa
    kn = ch.kappa * ch.n_thermal

    def rhs(_t, y):
        rho = y.reshape(dim, dim)
        out = 0.5 * k * (
            2.0 * (a @ rho @ ad) - n_diag[:, None] * rho - rho * n_diag[None, :]
        )
        if kn > 0.0:
            out += 0.5 * kn * (
                2.0 * (ad @ rho @ a)
                - (n_diag + 1.0)[:, None] * rho
                - rho * (n_diag + 1.0)[None, :]
            )
        return out.ravel()

    sol = solve_ivp(
        rhs,
        (0.0, t),
        rho0.elements.ravel().astype(complex),
        method="RK45",
        rtol=1e-9,
        atol=1e-10,
    )
    if not sol.success:
        raise StepFailure(f"integrator stopped: {sol.message}")
    rho = sol.y[:, -1].reshape(dim, dim)
    rho = (rho + rho.conj().T) / 2.0
    tr = float(np.real(np.trace(rho)))
    if abs(tr - 1.0) > 1e-7:
        raise StepFailure(f"trace drifted to {tr!r} (tolerance 1e-7)")
    return EvolutionResult(DensityMatrix(dim, rho / tr), float(t), len(sol.t) - 1)


# ---------------------------------------------------------------------------
# displacement by matrix exponential


def displacement_operator(beta: complex, dim: int) -> np.ndarray:
    """D(beta) = exp(beta a^dag - beta^* a) as a dense dim x dim matrix.

    Built by matrix exponential on the truncated space, then self-checked:
    column 0 must reproduce the closed-form coherent state on the inner half
    of the space within 1e-8.
    """
    beta = complex(beta)
    if not np.isfinite(beta):
        raise NonFinite("beta is not finite")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    tail = float(pdtrc(dim - 1, abs(beta) ** 2))
    if tail >= _TAIL_TOL:
        raise TruncationTooSmall(
            f"dim={dim} too small for displacement |beta|={abs(beta):.3f}"
            f" (need dim >= {required_dim(abs(beta))})"
        )
    a = annihilation_operator(dim)
    d = expm(beta * a.conj().T - np.conj(beta) * a)
    inner = max(1, dim // 2)
    reference = _log_poisson_amps(beta, dim)
    err = float(np.max(np.abs(d[:inner, 0] - reference[:inner])))
    if err > 1e-8:
        raise TruncationTooSmall(
            f"displacement self-check failed: |D(beta)|0> - |beta>| = {err:.3e} on inner half"
        )
    return d


# ---------------------------------------------------------------------------
# the scalar posterior recursion


@dataclass(frozen=True)
class Posterior:
    """Sector posterior at the first slot plus the likelihood ratio lam.

    lam is the signal sector against the rest: p[1]/(p[0]+p[2]+p[3]) for
    four sectors, p[1]/p[0] for two.  A zero denominator gives math.inf.
    """

    p_phi: tuple[float, ...]
    lam: float

    def __post_init__(self):
        p = tuple(float(x) for x in self.p_phi)
        if len(p) not in (2, 4):
            raise DimMismatch(f"p_phi must have 2 or 4 entries, got {len(p)}")
        if any(x < -1e-15 for x in p):
            raise ConfigError("negative posterior entries")
        if abs(sum(p) - 1.0) > 1e-9:
            raise ConfigError(f"posterior sums to {sum(p)!r}, not 1")
        ref = _lambda_of(p)
        ok = (
            math.isinf(ref)
            and math.isinf(self.lam)
            or abs(self.lam - ref) <= 1e-12 * max(1.0, abs(ref))
        )
        if not ok:
            raise ConfigError(f"lam={self.lam!r} inconsistent with p_phi (expect {ref!r})")
        object.__setattr__(self, "p_phi", p)
        object.__setattr__(self, "lam", float(self.lam))


def _lambda_of(p) -> float:
    num = p[1]
    den = p[0] + sum(p[2:])
    if den <= 0.0:
        return math.inf
    return num / den


def _symbol_columns(record) -> list[int]:
    """Emission columns (G -> 0, E -> 1) of a symbol string or of anything
    with a .symbols string, such as a row of a Records set."""
    symbols = record if isinstance(record, str) else record.symbols
    if not symbols:
        raise ConfigError("empty record")
    unknown = [ch for ch in symbols if ch not in "GEL"]
    if unknown:
        raise ConfigError(f"unknown readout symbol {unknown[0]!r}")
    if "L" in symbols:
        raise LeakageSymbol("record contains a leaked readout; post-select first")
    return ["GE".index(ch) for ch in symbols]


def forward_backward(model: HmmModel, record) -> Posterior:
    """Posterior over the sector at the first readout slot.

    The path sum prior[s0] E[s0,r0] prod_k T[s_{k-1},s_k] E[s_k,r_k] is
    evaluated with a log-domain backward recursion, marginalized over the
    qubit at slot 0, and renormalized once at the end.
    """
    idx = _symbol_columns(record)
    with np.errstate(divide="ignore"):
        log_t = np.log(model.transition)
        log_e = np.log(model.emission)
        log_p = np.log(model.prior)
    log_beta = np.zeros(model.n_states)
    for k in range(len(idx) - 1, 0, -1):
        tail = log_e[:, idx[k]] + log_beta
        log_beta = logsumexp(log_t + tail[None, :], axis=1)
    log_joint = log_p + log_e[:, idx[0]] + log_beta
    total = logsumexp(log_joint)
    if not np.isfinite(total):
        raise NonConvergence("record has zero probability under this model")
    weights = np.exp(log_joint - total)
    p_phi = weights.reshape(model.n_sectors, 2).sum(axis=1)
    p_phi = p_phi / p_phi.sum()
    return Posterior(tuple(float(x) for x in p_phi), _lambda_of(p_phi))


# ---------------------------------------------------------------------------
# g(t) by scipy.integrate.quad


def _v_max(halo: HaloParams) -> float:
    """Upper speed cutoff in units of c: the boost plus six virial widths,
    beyond which the Maxwellian mass is ~1e-16 of the total."""
    return (halo.v_g + 6.0 * halo.v_vir) / C_KM_S


def g_integrand_reference(t: float, point: SearchPoint, halo: HaloParams = HaloParams()):
    """The g(t) integrand in the speed variable on Python floats: the
    speed pdf (as halo_speed_pdf computes it, np.exp on scalars, squares
    by x*x) times t^2 sinc^2 with math.sin."""
    m = point.m_dm
    wc = point.effective_omega_c()
    v_g = halo.v_g
    v_vir_sq = halo.v_vir * halo.v_vir
    pdf_norm = math.sqrt(math.pi) * halo.v_vir * v_g

    def integrand(v: float) -> float:
        s = v * C_KM_S
        up = float(np.exp(-((s - v_g) * (s - v_g)) / v_vir_sq))
        down = float(np.exp(-((s + v_g) * (s + v_g)) / v_vir_sq))
        f_v = s / pdf_norm * (up - down) * C_KM_S
        delta = m * (1.0 + v * v / 2.0) - wc
        y = math.pi * (delta * t / 2.0 / math.pi)
        sinc = math.sin(y) / y if y else 1.0
        return f_v * t * t * (sinc * sinc)

    return integrand


def g_of_t_reference(t: float, point: SearchPoint, halo: HaloParams = HaloParams()) -> float:
    """g(t) as the integral over speed of g_integrand_reference, by
    scipy.integrate.quad to epsrel 1e-9: the nulls of the sinc factor,
    found in a scalar loop, split the speed range at the cutoff _v_max,
    and each segment takes one quad call."""
    if t == 0.0:
        return 0.0
    m = point.m_dm
    wc = point.effective_omega_c()
    vmax = _v_max(halo)
    integrand = g_integrand_reference(t, point, halo)

    breaks = [0.0, vmax]
    spacing = 2.0 * np.pi / t
    w_lo, w_hi = m, m * (1.0 + vmax * vmax / 2.0)
    k_lo = int(np.ceil((w_lo - wc) / spacing))
    k_hi = int(np.floor((w_hi - wc) / spacing))
    for k in range(k_lo, k_hi + 1):
        w_node = wc + spacing * k
        rel = 2.0 * (w_node / m - 1.0)
        if rel > 0.0:
            v = float(np.sqrt(rel))
            if 0.0 < v < vmax:
                breaks.append(v)
    breaks = sorted(set(breaks))
    total = 0.0
    err = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for a, b in zip(breaks[:-1], breaks[1:]):
            if b - a < 1e-18:
                continue
            val, e = quad(integrand, a, b, epsabs=0.0, epsrel=1e-9, limit=200)
            total += val
            err += e
    if not np.isfinite(total) or (total > 0.0 and err > 1e-6 * total):
        raise QuadratureFailure(
            f"accumulated quadrature error {err!r} on g({t!r}) = {total!r}"
        )
    return total


# ---------------------------------------------------------------------------
# figure tables, one row at a time


def wigner_to_csv_reference(grid: PhaseGrid, w: np.ndarray) -> str:
    """fock.wigner_to_csv formatted cell by cell: every (Re z, Im z, W)
    triple is three reprs of its own."""
    w = np.asarray(w, dtype=float)
    if w.shape != (grid.n_re, grid.n_im):
        raise DimMismatch(f"field shape {w.shape} != ({grid.n_re}, {grid.n_im})")
    res = np.repeat(grid.re_axis(), grid.n_im).tolist()
    ims = np.tile(grid.im_axis(), grid.n_re).tolist()
    lines = ["re_z,im_z,w"]
    lines += [f"{r!r},{i!r},{v!r}" for r, i, v in zip(res, ims, w.ravel().tolist())]
    return "\n".join(lines) + "\n"


def transition_curves_to_csv_reference(
    m: int, alpha: complex, kappa: float, times: np.ndarray
) -> str:
    """lindblad.transition_curves_to_csv one time at a time: each time's
    factors are their own small exponentials, its block is the 6-d
    broadcast product weight * f_pq * ov_qr * ov_sp, and each (j, l) cell is
    checked, clamped by Python's min/max and formatted on its own."""
    if m < 2:
        raise InvalidIndex(f"m must be >= 2, got {m}")
    if kappa < 0.0:
        raise ValueError(f"kappa must be >= 0, got {kappa!r}")
    times = np.asarray(times, dtype=float).tolist()
    for t in times:
        if t < 0.0:
            raise ValueError(f"t must be >= 0, got {t!r}")
    a = abs(complex(alpha))
    a2 = a * a
    phi = 2.0 * np.pi * np.arange(m) / m
    p_ = phi[:, None, None, None]
    q_ = phi[None, :, None, None]
    r_ = phi[None, None, :, None]
    s_ = phi[None, None, None, :]
    weight = np.array(
        [
            [np.exp(-1j * j * (p_ - q_)) * np.exp(-1j * l * (r_ - s_)) for l in range(m)]
            for j in range(m)
        ]
    )
    norms = []
    for idx in range(m):
        norm = _sector_norm(m, idx, a2)
        if not norm > _MIN_CAT_NORM:
            raise NonFinite(
                f"sector j={idx} of the {m}-component cat at |alpha|^2 = {a2!r} has "
                f"normalization {norm!r}, too small for the closed form"
            )
        norms.append(1.0 / norm)
    lines = ["t,j,l,p"]
    for t in times:
        ap = a * np.exp(-kappa * t / 2.0)
        decay = 1.0 - np.exp(-kappa * t)
        f_pq = np.exp(-a2 * decay * (1.0 - np.exp(1j * (p_ - q_))))
        ov_qr = np.exp(-0.5 * (ap * ap + a2) + ap * a * np.exp(1j * (r_ - q_)))
        ov_sp = np.exp(-0.5 * (a2 + ap * ap) + a * ap * np.exp(1j * (p_ - s_)))
        block = weight * f_pq * ov_qr * ov_sp
        totals = np.real(block.reshape(m, m, -1).sum(axis=-1)).tolist()
        for j in range(m):
            for l in range(m):
                prob = norms[j] * norms[l] * totals[j][l]
                if not -1e-9 <= prob <= 1.0 + 1e-9:
                    raise NonFinite(f"transition probability {prob!r} outside [0, 1]")
                lines.append(f"{t!r},{j},{l},{min(max(prob, 0.0), 1.0)!r}")
    return "\n".join(lines) + "\n"


def threshold_sweep_reference(campaign, model, thresholds) -> list[SweepPoint]:
    """fits.threshold_sweep with one masked mean per class and threshold:
    eta and delta are the shares of injected and background records with
    lam strictly above the threshold."""
    records, _ = postselect(campaign.records)
    if not records:
        raise DegenerateDesign("campaign has no analyzable records")
    if records.injected is None:
        raise ConfigError("threshold sweep needs truth-labeled records")
    _, lams = batch_posteriors(model, records)
    injected = records.injected
    n_pos = int(np.sum(injected))
    n_neg = injected.size - n_pos
    rows = []
    for th in sorted(float(t) for t in thresholds):
        pos = lams > th
        eta = float(np.mean(pos[injected])) if n_pos else math.nan
        delta = float(np.mean(pos[~injected])) if n_neg else math.nan
        if math.isnan(eta) or math.isnan(delta):
            ratio = math.nan
        elif eta > 0.0:
            ratio = delta / eta
        else:
            ratio = math.nan if delta == 0.0 else math.inf
        rows.append(SweepPoint(th, eta, delta, ratio))
    return rows
