"""Independent oracles the tests check catscope against.

None of this has a production caller.  Each routine reaches a quantity
catscope computes by a different route, through SciPy, which the package
itself does not need:

- lindblad_evolve: a dense Lindblad propagation (solve_ivp) of photon loss
  and heating, against lindblad's closed-form cat transitions;
- displacement_operator: D(beta) by matrix exponential (expm), against
  fock's spectral displacement and the record simulator;
- forward_backward: the scalar logsumexp posterior recursion, with its own
  G/E symbol encoder and Posterior check, against hmm.batch_posteriors;
- g_of_t_reference: g(t) from scipy.integrate.quad over the same sinc-null
  breakpoints with a scalar integrand, against darkmatter.g_of_t.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad, solve_ivp
from scipy.linalg import expm
from scipy.special import logsumexp, pdtrc

from catscope.darkmatter import C_KM_S, HaloParams, SearchPoint, _v_max
from catscope.errors import (
    CatscopeError,
    ConfigError,
    DimMismatch,
    LeakageSymbol,
    NonConvergence,
    NonFinite,
    QuadratureFailure,
    TruncationTooSmall,
)
from catscope.fock import (
    _TAIL_TOL,
    DensityMatrix,
    _log_poisson_amps,
    annihilation_operator,
    required_dim,
)
from catscope.hmm import HmmModel


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
    den = sum(p) - p[1]
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
    """g(t) as darkmatter computed it with scipy.integrate.quad: the same
    sinc-null breakpoints found in a scalar loop, one quad call per
    segment, and the scalar g_integrand_reference."""
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
