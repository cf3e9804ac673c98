"""Posterior reconstruction over initial cavity sectors from readout records.

The generative model is a hidden Markov chain over joint (sector, qubit)
states with one readout symbol per step.  batch_posteriors returns the
posterior of the sector at the first slot, marginalized over the qubit,
computed on probabilities with each record's column rescaled to a maximum
of 1 at every slot, so the long products behind the extreme likelihood
ratios that the vacuum threshold (1e5) relies on do not underflow.  The
likelihood ratio compares the signal sector against everything else;
records containing leakage symbols are dropped before inference
(postselect).  Both take the columnar measurement.Records set and nothing
else.  The scalar log-domain recursion the batch is checked against lives
with the other oracles in the tests, with its own symbol encoder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimMismatch, LeakageSymbol, NonConvergence
from .measurement import (
    CODE_LEAK,
    DeviceParams,
    Records,
    build_emission_matrix,
    build_transition_matrix,
)

@dataclass(eq=False)
class HmmModel:
    """(transition, emission, prior) bundle of read-only arrays, copied
    from the caller's so that theirs stay writable.  Models compare by
    identity.

    States are ordered sector-major with the qubit inside each pair:
    (sector 0, g), (sector 0, e), (sector 1, g), ...
    """

    transition: np.ndarray
    emission: np.ndarray
    prior: np.ndarray

    def __post_init__(self):
        t = np.array(self.transition, dtype=float)
        e = np.array(self.emission, dtype=float)
        p = np.array(self.prior, dtype=float)
        n = t.shape[0]
        if t.ndim != 2 or t.shape != (n, n) or n % 2:
            raise DimMismatch(f"transition must be square with even size, got {t.shape}")
        if e.shape != (n, 2):
            raise DimMismatch(f"emission must be ({n}, 2), got {e.shape}")
        if p.shape != (n,):
            raise DimMismatch(f"prior must have length {n}, got {p.shape}")
        if np.any(t < 0.0) or np.any(e < 0.0) or np.any(p < 0.0):
            raise ConfigError("negative entries in model matrices")
        if not np.allclose(t.sum(axis=1), 1.0, atol=1e-9):
            raise ConfigError("transition rows must sum to 1")
        if abs(float(p.sum()) - 1.0) > 1e-12:
            raise ConfigError(f"prior sums to {float(p.sum())!r}, not 1")
        for arr in (t, e, p):
            arr.setflags(write=False)
        self.transition, self.emission, self.prior = t, e, p

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @property
    def n_sectors(self) -> int:
        return self.n_states // 2


def build_model(
    device: DeviceParams, alpha_sq: float = 1.0, mode: str = "compass"
) -> HmmModel:
    """HmmModel from the calibrated device numbers.  The transition matrix
    is the pure one (no demolition augmentation); the prior is uniform over
    sectors with the qubit pinned to ground, as the chain starts right after
    a post-selected preparation readout.  An unknown mode raises
    InvalidMode."""
    t = build_transition_matrix(device, alpha_sq=alpha_sq, mode=mode)
    e = build_emission_matrix(device, mode=mode)
    prior = np.zeros(t.shape[0])
    prior[::2] = 2.0 / t.shape[0]
    return HmmModel(t, e, prior)


def batch_posteriors(model: HmmModel, records: Records) -> tuple[np.ndarray, np.ndarray]:
    """Sector posteriors and likelihood ratios of a Records set.

    The path sum prior[s0] E[s0,r0] prod_k T[s_{k-1},s_k] E[s_k,r_k] is
    evaluated with a backward recursion on probabilities, marginalized over
    the qubit at slot 0, and renormalized once at the end.  The uint8 symbol
    codes index the emission columns directly, and all records run one
    state-major recursion (beta[state, record]).  Each step divides a
    record's column by its maximum (an all-zero column by 1); that scale is
    common to every state of the record, so it cancels in the final
    normalization and is not carried.  The results match the log-domain
    logsumexp recursion of the tests' forward_backward oracle to rounding.
    lam is the signal sector against the rest, p[1]/(p[0]+p[2]+p[3]) for
    four sectors and p[1]/p[0] for two, and inf where that denominator is 0.
    Returns (p_phi, lam) arrays in record order, shapes (n_records,
    n_sectors) and (n_records,).
    """
    idx = records.symbols
    if np.any(idx == CODE_LEAK):
        raise LeakageSymbol("record contains a leaked readout; post-select first")
    n_records = len(records)
    emission = model.emission  # column c: emission of symbol c
    beta = np.ones((model.n_states, n_records))
    slots = idx.T.copy()
    for k in range(idx.shape[1] - 1, 0, -1):
        y = emission.take(slots[k], axis=1) * beta
        scale = y.max(axis=0)
        scale[scale == 0.0] = 1.0
        beta = model.transition @ (y / scale)
    # record-major (C order) again: the state sums below run along rows
    un = model.prior * emission.T[idx[:, 0]] * beta.T
    norm = un.sum(axis=1)
    if np.any(norm <= 0.0):
        bad = int(np.argmax(norm <= 0.0))
        raise NonConvergence(f"record {bad} has zero probability under this model")
    weights = un / norm[:, None]
    sectors = weights.reshape(n_records, model.n_sectors, 2).sum(axis=2)
    sectors = sectors / sectors.sum(axis=1, keepdims=True)
    # the other sectors summed directly: sum(p) - p1 cancels when p1 is near 1
    # a subnormal den can put lam past the largest double: it reads inf
    p1, den = sectors[:, 1], sectors[:, 0] + sectors[:, 2:].sum(axis=1)
    with np.errstate(over="ignore"):
        lam = np.where(den > 0.0, p1 / np.where(den > 0.0, den, 1.0), np.inf)
    return sectors, lam


def postselect(records: Records) -> tuple[Records, int]:
    """Drop records containing leaked readouts; keep order.  Returns the
    kept rows and the number dropped."""
    keep = ~records.leaked
    return records[keep], len(records) - int(keep.sum())

