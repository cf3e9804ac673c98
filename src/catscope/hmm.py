"""Posterior reconstruction over initial cavity sectors from readout records.

The generative model is a hidden Markov chain over joint (sector, qubit)
states with one readout symbol per step.  forward_backward returns the
posterior of the sector at the first slot, marginalized over the qubit,
computed in log-domain so the extreme likelihood ratios that the vacuum
threshold (1e5) relies on do not underflow.  The likelihood ratio compares
the signal sector against everything else; records containing leakage
symbols are dropped before inference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import ConfigError, DimMismatch, LeakageSymbol, NonConvergence
from .measurement import (
    CODE_LEAK,
    CODE_UNKNOWN,
    SYMBOL_ALPHABET,
    SYMBOL_CODES,
    DeviceParams,
    ReadoutRecord,
    Records,
    as_records,
    build_emission_matrix,
    build_transition_matrix,
)

_MODES = ("compass", "vacuum")


@dataclass(frozen=True)
class HmmModel:
    """Immutable (transition, emission, prior, labels) bundle.

    States are ordered sector-major with the qubit inside each pair:
    (sector 0, g), (sector 0, e), (sector 1, g), ...  Emission rows may
    carry a common scale factor (the vacuum convention keeps an overall
    1/2); posteriors are invariant under it.
    """

    transition: np.ndarray
    emission: np.ndarray
    prior: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        t = np.asarray(self.transition, dtype=float)
        e = np.asarray(self.emission, dtype=float)
        p = np.asarray(self.prior, dtype=float)
        n = t.shape[0]
        if t.ndim != 2 or t.shape != (n, n) or n % 2:
            raise DimMismatch(f"transition must be square with even size, got {t.shape}")
        if e.shape != (n, 2):
            raise DimMismatch(f"emission must be ({n}, 2), got {e.shape}")
        if p.shape != (n,):
            raise DimMismatch(f"prior must have length {n}, got {p.shape}")
        if len(self.labels) != n:
            raise DimMismatch(f"need {n} labels, got {len(self.labels)}")
        if np.any(t < 0.0) or np.any(e < 0.0) or np.any(p < 0.0):
            raise ConfigError("negative entries in model matrices")
        if not np.allclose(t.sum(axis=1), 1.0, atol=1e-9):
            raise ConfigError("transition rows must sum to 1")
        if abs(float(p.sum()) - 1.0) > 1e-12:
            raise ConfigError(f"prior sums to {float(p.sum())!r}, not 1")
        for name, arr in (("transition", t), ("emission", e), ("prior", p)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @property
    def n_sectors(self) -> int:
        return self.n_states // 2


def ground_prior(n_states: int) -> np.ndarray:
    """Uniform over sectors with the qubit pinned to ground: the chain
    starts right after a post-selected preparation readout."""
    if n_states % 2:
        raise DimMismatch(f"state count must be even, got {n_states}")
    p = np.zeros(n_states)
    p[::2] = 2.0 / n_states
    return p


def build_model(
    device: DeviceParams,
    alpha_sq: float = 1.0,
    mode: str = "compass",
    prior: np.ndarray | None = None,
) -> HmmModel:
    """HmmModel from the calibrated device numbers.  The transition matrix
    is the pure one (no demolition augmentation); the default prior is
    ground_prior."""
    if mode not in _MODES:
        raise ConfigError(f"mode must be one of {_MODES}, got {mode!r}")
    t = build_transition_matrix(device, alpha_sq=alpha_sq, mode=mode)
    e = build_emission_matrix(device, mode=mode)
    if prior is None:
        prior = ground_prior(t.shape[0])
    if mode == "compass":
        labels = tuple(f"phi{j}:{q}" for j in range(4) for q in "ge")
    else:
        labels = tuple(f"n{j}:{q}" for j in range(2) for q in "ge")
    return HmmModel(t, e, np.asarray(prior, dtype=float), labels)


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


def _leak_free(codes: np.ndarray) -> np.ndarray:
    """Symbol codes, which index the emission columns (0 = G, 1 = E) once
    no leaked readout is left."""
    if np.any(codes == CODE_LEAK):
        raise LeakageSymbol("record contains a leaked readout; post-select first")
    return codes


def _encode(record) -> np.ndarray:
    """uint8 symbol codes of one str or ReadoutRecord."""
    symbols = record.symbols if isinstance(record, ReadoutRecord) else str(record)
    if not symbols:
        raise ConfigError("empty record")
    codes = SYMBOL_CODES[np.frombuffer(symbols.encode("utf-8"), np.uint8)]
    if np.any(codes == CODE_UNKNOWN):
        ch = next(c for c in symbols if c not in SYMBOL_ALPHABET)
        raise ConfigError(f"unknown readout symbol {ch!r}")
    return _leak_free(codes)


def forward_backward(model: HmmModel, record) -> Posterior:
    """Posterior over the sector at the first readout slot.

    The path sum prior[s0] E[s0,r0] prod_k T[s_{k-1},s_k] E[s_k,r_k] is
    evaluated with a log-domain backward recursion, marginalized over the
    qubit at slot 0, and renormalized once at the end.
    """
    idx = _encode(record)
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


def batch_posteriors(model: HmmModel, records) -> tuple[np.ndarray, np.ndarray]:
    """forward_backward over many records at once.

    records is a columnar Records set, whose uint8 codes index the emission
    table directly, or an iterable of str / ReadoutRecord, encoded once and
    grouped by length.  Each group runs one vectorized backward recursion;
    the per-step normalization is the same max-shift used by logsumexp, so
    the results match the scalar routine to rounding.  Returns (p_phi, lam)
    arrays ordered like the input, shapes (n_records, n_sectors) and
    (n_records,).
    """
    if isinstance(records, Records):
        groups = [(np.arange(len(records)), _leak_free(records.symbols))]
    else:
        encoded = [_encode(r) for r in records]
        by_length: dict[int, list[int]] = {}
        for i, codes in enumerate(encoded):
            by_length.setdefault(codes.size, []).append(i)
        groups = [
            (np.array(members), np.stack([encoded[i] for i in members]))
            for members in by_length.values()
        ]
    n_records = sum(len(rows) for rows, _ in groups)
    n = model.n_states
    n_sec = model.n_sectors
    p_out = np.zeros((n_records, n_sec))
    lam_out = np.zeros(n_records)
    with np.errstate(divide="ignore"):
        log_e = np.log(model.emission).T  # row c: log emission of symbol c
        log_p = np.log(model.prior)
    t_lin = model.transition
    for rows, idx in groups:
        if not rows.size:
            continue
        log_beta = np.zeros((rows.size, n))
        for k in range(idx.shape[1] - 1, 0, -1):
            tail = log_e[idx[:, k]] + log_beta
            shift = tail.max(axis=1, keepdims=True)
            shift = np.where(np.isfinite(shift), shift, 0.0)
            acc = np.exp(tail - shift) @ t_lin.T
            with np.errstate(divide="ignore"):
                log_beta = shift + np.log(acc)
        log_joint = log_p[None, :] + log_e[idx[:, 0]] + log_beta
        shift = log_joint.max(axis=1, keepdims=True)
        shift = np.where(np.isfinite(shift), shift, 0.0)
        un = np.exp(log_joint - shift)
        norm = un.sum(axis=1)
        if np.any(norm <= 0.0):
            bad = rows[int(np.argmax(norm <= 0.0))]
            raise NonConvergence(f"record {bad} has zero probability under this model")
        weights = un / norm[:, None]
        sectors = weights.reshape(rows.size, n_sec, 2).sum(axis=2)
        sectors = sectors / sectors.sum(axis=1, keepdims=True)
        p1 = sectors[:, 1]
        den = sectors.sum(axis=1) - p1
        lam = np.where(den > 0.0, p1 / np.where(den > 0.0, den, 1.0), np.inf)
        p_out[rows] = sectors
        lam_out[rows] = lam
    return p_out, lam_out


def threshold_complement(threshold: float) -> float:
    """Background posterior mass at the decision boundary, 1/(1+threshold):
    a record sits exactly at lam = threshold when the non-signal sectors
    hold that fraction of the posterior."""
    if not threshold > 0.0:
        raise ConfigError(f"threshold must be > 0, got {threshold!r}")
    return 1.0 / (1.0 + threshold)


def postselect(records) -> tuple[Records, int]:
    """Drop records containing leaked readouts; keep order.  Returns the
    kept rows as a Records set and the number dropped."""
    records = as_records(records)
    keep = ~records.leaked
    return records[keep], len(records) - int(keep.sum())

