"""Exact linear algebra on a truncated Fock space.

Cat and compass states, displacements through the spectral form of the
truncated generator, and Wigner functions.  (Coherent states, density
matrices, overlap and fidelity measures, and the expm-built displacement
operator that checks the spectral form are test oracles.)
All states are stored as complex amplitude vectors over Fock levels
n = 0..dim-1; all operators are dense matrices on the same space.

Truncation rule: a state assembled from amplitudes up to |alpha_max| needs

    dim >= ceil(|alpha_max|^2 + 7*|alpha_max| + 10)

which keeps the neglected Poisson tail below 1e-8.  Constructors check the
tail mass explicitly (special.poisson_sf) and raise TruncationTooSmall
rather than silently clipping.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimMismatch, InvalidIndex, NonFinite, TruncationTooSmall
from .special import log_factorials, poisson_sf

_TAIL_TOL = 1e-8
_NORM_TOL = 1e-10


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

    def populations(self) -> np.ndarray:
        """Photon-number distribution P_n = |amps_n|^2."""
        return np.abs(self.amps) ** 2

    def mean_photon(self) -> float:
        return float(np.sum(np.arange(self.dim) * self.populations()))

@dataclass(frozen=True)
class CatSpec:
    """Parameters of an M-component cat state: amplitude alpha, component
    count M, modular index j (photon numbers = j mod M)."""

    alpha: complex
    m: int = 4
    j: int = 0

    def __post_init__(self):
        if self.m < 1:
            raise InvalidIndex(f"M must be >= 1, got {self.m}")
        if not 0 <= self.j < self.m:
            raise InvalidIndex(f"j = {self.j} outside [0, {self.m})")
        if not np.isfinite(self.alpha):
            raise NonFinite("alpha is not finite")


@dataclass(frozen=True)
class PhaseGrid:
    """Rectangular sampling of the phase plane z = x + iy for Wigner maps."""

    re_min: float
    re_max: float
    n_re: int
    im_min: float
    im_max: float
    n_im: int

    def __post_init__(self):
        if self.n_re < 2 or self.n_im < 2:
            raise ValueError("grid needs at least 2 samples per axis")
        extents = (self.re_min, self.re_max, self.im_min, self.im_max)
        if not all(np.isfinite(extents)):
            raise NonFinite("grid extents must be finite")

    def re_axis(self) -> np.ndarray:
        return np.linspace(self.re_min, self.re_max, self.n_re)

    def im_axis(self) -> np.ndarray:
        return np.linspace(self.im_min, self.im_max, self.n_im)

    def points(self) -> np.ndarray:
        """Complex points, shape (n_re, n_im): points[i, k] = re_i + 1j*im_k."""
        return self.re_axis()[:, None] + 1j * self.im_axis()[None, :]

    def max_abs(self) -> float:
        corners = [
            abs(complex(r, i))
            for r in (self.re_min, self.re_max)
            for i in (self.im_min, self.im_max)
        ]
        return max(corners)


# ---------------------------------------------------------------------------
# state constructors


def _log_poisson_amps(alpha: complex, dim: int) -> np.ndarray:
    """Unnormalized coherent amplitudes e^{-|a|^2/2} a^n / sqrt(n!), computed
    in log space so large n never overflows."""
    n = np.arange(dim)
    mag = abs(alpha)
    if mag == 0.0:
        amps = np.zeros(dim, dtype=complex)
        amps[0] = 1.0
        return amps
    log_mod = -0.5 * mag * mag + n * np.log(mag) - 0.5 * log_factorials(dim)
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


# ---------------------------------------------------------------------------
# phase space


@lru_cache(maxsize=8)
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


def _displace_vector(z: complex, psi: np.ndarray) -> np.ndarray:
    """D(z) psi via the cached spectral form of the truncated generator."""
    dim = psi.shape[0]
    evals, evecs = _displacement_basis(dim)
    r = abs(z)
    theta = np.angle(z)
    phases = np.exp(1j * theta * np.arange(dim))
    y = evecs.conj().T @ (psi / phases)
    return phases * (evecs @ (np.exp(-1j * r * evals) * y))


def wigner(state: StateVector, grid: PhaseGrid) -> np.ndarray:
    """W(z) = (2/pi) <psi| D(z) P D^dag(z) |psi> sampled on the grid, with P
    the photon-number parity (-1)^n.

    Returns a real array of shape (n_re, n_im) matching PhaseGrid.points().
    The state is displaced by D(-z) through the spectral form of
    _displace_vector, one grid row (fixed Re z) at a time: two
    (n_im, dim) @ (dim, dim) products per row on the cached eigenbasis.  The
    outer phase R(theta) of that form is dropped, since the parity
    expectation needs only |D(-z) psi|^2.  Raises TruncationTooSmall when the
    displaced state would spill out of the truncated space (|z|_max plus the
    state's amplitude scale exceeds the dim budget).
    """
    a_eff = np.sqrt(state.mean_photon())
    budget = required_dim(grid.max_abs() + a_eff)
    if state.dim < budget:
        raise TruncationTooSmall(
            f"dim={state.dim} < {budget} needed for |z| up to {grid.max_abs():.2f} "
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


# ---------------------------------------------------------------------------
# serialization


def wigner_to_csv(grid: PhaseGrid, w: np.ndarray) -> str:
    """CSV dump (Re z, Im z, W), row-major over the grid (Re outer, Im inner)."""
    w = np.asarray(w, dtype=float)
    if w.shape != (grid.n_re, grid.n_im):
        raise DimMismatch(f"field shape {w.shape} != ({grid.n_re}, {grid.n_im})")
    res = grid.re_axis()
    ims = grid.im_axis()
    lines = ["re_z,im_z,w"]
    for i in range(grid.n_re):
        for k in range(grid.n_im):
            lines.append(f"{float(res[i])!r},{float(ims[k])!r},{float(w[i, k])!r}")
    return "\n".join(lines) + "\n"
