"""Single-photon loss (and weak heating) dynamics for the cavity mode.

Provides a dense Lindblad integrator for density matrices plus the exact
closed-form transition probabilities between multi-component cat states
under pure loss, which serve as an independent validation route for the
integrator.

Conventions: amplitude decays as e^{-kappa t / 2}, energy as e^{-kappa t}.
Heating enters as an independent dissipator at rate kappa * n_thermal on
the raising operator, consistent with the upward sector-hop probabilities
used by the record model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import InvalidIndex, StepFailure
from .fock import DensityMatrix, annihilation_operator


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


def _cat_norm_sq(m: int, idx: int, a2: float) -> float:
    """Exact normalization N^2 of the m-component cat with modular index idx
    and |alpha|^2 = a2, from the finite sum over coherent overlaps."""
    phi = 2.0 * np.pi * np.arange(m) / m
    dphi = phi[:, None] - phi[None, :]
    s = np.sum(np.exp(-1j * idx * dphi + a2 * (np.exp(1j * dphi) - 1.0)))
    return float(1.0 / np.real(s))


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
    prob = _cat_norm_sq(m, j, a2) * _cat_norm_sq(m, l, a2) * float(np.real(total))
    if not -1e-9 <= prob <= 1.0 + 1e-9:
        raise ValueError(f"transition probability {prob!r} outside [0, 1]")
    return min(max(prob, 0.0), 1.0)


def transition_curves_to_csv(
    m: int, alpha: complex, kappa: float, times: np.ndarray
) -> str:
    """CSV dump (t, j, l, p) of all sector-to-sector transition curves."""
    lines = ["t,j,l,p"]
    for t in np.asarray(times, dtype=float):
        for j in range(m):
            for l in range(m):
                p = cat_transition_probability(m, j, l, alpha, kappa, float(t))
                lines.append(f"{float(t)!r},{j},{l},{p!r}")
    return "\n".join(lines) + "\n"
