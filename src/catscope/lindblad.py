"""Single-photon loss dynamics for the cavity mode.

The exact closed-form transition probabilities between multi-component cat
states under pure loss, tabulated over time.  The tests check them against
the same sum evaluated one (t, j, l) at a time and against a dense Lindblad
integrator for density matrices, an independent route.

Conventions: amplitude decays as e^{-kappa t / 2}, energy as e^{-kappa t}.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidIndex, NonFinite
from .fock import _sector_norm


def transition_curves_to_csv(
    m: int, alpha: complex, kappa: float, times: np.ndarray
) -> str:
    """CSV dump (t, j, l, p) of all sector-to-sector transition curves.

    p = Tr[rho_j(t) rho_l(0)] is the probability that the j-th m-component
    cat, after pure loss for time t, is found in the l-th cat at the
    original amplitude.  It is an exact finite sum: the loss channel maps
    each coherent dyad |a_p><a_q| to a known multiple of the dyad at the
    decayed amplitude, and every factor (normalization constants included)
    is kept exact rather than using the large-alpha shorthands, so the
    value agrees with a numerical Lindblad propagation to integrator
    precision.  Each time's m^2 sums over the m^4 terms (p, q, r, s) are one
    array block, summed along its contiguous last axis.  A probability that
    rounding takes more than 1e-9 outside [0, 1] raises NonFinite.
    """
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
    # weight[j, l] = e^{-ij(phi_p - phi_q)} e^{-il(phi_r - phi_s)}
    weight = np.array(
        [
            [np.exp(-1j * j * (p_ - q_)) * np.exp(-1j * l * (r_ - s_)) for l in range(m)]
            for j in range(m)
        ]
    )
    norms = [1.0 / _sector_norm(m, idx, a2) for idx in range(m)]
    lines = ["t,j,l,p"]
    for t in times:
        ap = a * np.exp(-kappa * t / 2.0)  # decayed amplitude
        decay = 1.0 - np.exp(-kappa * t)
        # rho_j(t) = N_j^2 sum_{p,q} e^{-ij(phi_p - phi_q)} f_{pq} |ap_p><ap_q|
        # with f_{pq} = exp[-a2 (1 - e^{-kt}) (1 - e^{i(phi_p - phi_q)})]
        f_pq = np.exp(-a2 * decay * (1.0 - np.exp(1j * (p_ - q_))))
        # <ap e^{i phi_q} | a e^{i phi_r}> and <a e^{i phi_s} | ap e^{i phi_p}>
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
