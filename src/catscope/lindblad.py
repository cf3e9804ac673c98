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
from .fock import sector_norms


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
    precision.  The small per-time factors are computed for all times at
    once; each time's m^2 sums over the m^4 terms (p, q, r, s) are then one
    (m^2, m^4) block, the weights times each factor in turn, summed along
    its contiguous last axis.  Only one time's block is held at a time.  A
    sector normalization that fock.sector_norms refuses, or a probability
    that rounding takes more than 1e-9 outside [0, 1], raises NonFinite.
    """
    if m < 2:
        raise InvalidIndex(f"m must be >= 2, got {m}")
    if kappa < 0.0:
        raise ValueError(f"kappa must be >= 0, got {kappa!r}")
    times = np.asarray(times, dtype=float)
    early = times < 0.0
    if early.any():
        raise ValueError(f"t must be >= 0, got {times[early.argmax()].item()!r}")
    a = abs(complex(alpha))
    a2 = a * a
    norms = sector_norms(m, a2)
    phi = 2.0 * np.pi * np.arange(m) / m
    p_ = phi[:, None, None, None]
    q_ = phi[None, :, None, None]
    r_ = phi[None, None, :, None]
    s_ = phi[None, None, None, :]
    # weight[j * m + l] = e^{-ij(phi_p - phi_q)} e^{-il(phi_r - phi_s)},
    # flat in (p, q, r, s)
    weight = np.array(
        [
            [np.exp(-1j * j * (p_ - q_)) * np.exp(-1j * l * (r_ - s_)) for l in range(m)]
            for j in range(m)
        ]
    ).reshape(m * m, -1)
    # the (p, q, r, s) indices of the flat m^4 axis
    p, q, r, s = np.indices((m,) * 4).reshape(4, -1)
    # the small factors for every time at once, shape (times, m, m)
    t_ = times[:, None, None]
    ap = a * np.exp(-kappa * t_ / 2.0)  # decayed amplitude
    decay = 1.0 - np.exp(-kappa * t_)
    turn = np.exp(1j * (phi[:, None] - phi[None, :]))  # e^{i(phi_x - phi_y)} at [x, y]
    # rho_j(t) = N_j^2 sum_{p,q} e^{-ij(phi_p - phi_q)} f_{pq} |ap_p><ap_q|
    # with f_{pq} = exp[-a2 (1 - e^{-kt}) (1 - e^{i(phi_p - phi_q)})]
    f_pq = np.exp(-a2 * decay * (1.0 - turn))
    # <ap e^{i phi_q} | a e^{i phi_r}> and <a e^{i phi_s} | ap e^{i phi_p}>
    ov_qr = np.exp(-0.5 * (ap * ap + a2) + ap * a * turn.T)
    ov_sp = np.exp(-0.5 * (a2 + ap * ap) + a * ap * turn)
    totals = np.empty((times.size, m * m))
    block = np.empty_like(weight)
    for k in range(times.size):
        np.multiply(weight, f_pq[k][p, q], out=block)
        block *= ov_qr[k][q, r]
        block *= ov_sp[k][p, s]
        totals[k] = block.sum(axis=-1).real
    inv = [1.0 / norm for norm in norms]
    probs = np.outer(inv, inv).ravel() * totals
    outside = ~((-1e-9 <= probs) & (probs <= 1.0 + 1e-9))
    if outside.any():
        prob = probs.flat[outside.argmax()].item()
        raise NonFinite(f"transition probability {prob!r} outside [0, 1]")
    cells = [f",{j},{l}," for j in range(m) for l in range(m)]
    lines = ["t,j,l,p"]
    for t, row in zip(map(repr, times.tolist()), np.clip(probs, 0.0, 1.0).tolist()):
        lines += [f"{t}{c}{prob!r}" for c, prob in zip(cells, row)]
    return "\n".join(lines) + "\n"
