"""Single-photon loss dynamics for the cavity mode.

The exact closed-form transition probabilities between multi-component cat
states under pure loss.  The tests check them against a dense Lindblad
integrator for density matrices, an independent route.

Conventions: amplitude decays as e^{-kappa t / 2}, energy as e^{-kappa t}.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidIndex


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
