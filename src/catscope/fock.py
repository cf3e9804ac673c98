"""Cat states in closed form: their normalization and their Wigner function.

The M-component cat |phi_{M,j}> is sum_p c_p |beta_p> / sqrt(N), with
beta_p = alpha e^{i phi_p}, phi_p = 2 pi p / M and c_p = e^{-ij phi_p}.
Every quantity catscope takes from it (the normalization N, the Wigner
function here, the loss transitions of lindblad and the mimic sector
populations of measurement) is a finite sum over the coherent dyads
|beta_p><beta_q| (Cahill and Glauber, Phys. Rev. 177, 1882, 1969), so
nothing is truncated.  The Fock-space states, displacements and Wigner
route that check these sums are test oracles (tests/oracles.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, InvalidIndex, NonFinite

_MIN_CAT_NORM = 1e-6  # smallest cat normalization N the closed forms take


@dataclass
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


@dataclass
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


# ---------------------------------------------------------------------------
# phase space


def _dyad_log_weights(m: int, j: int, a2: float) -> np.ndarray:
    """log(c_p c_q^* <beta_q|beta_p>) for the dyads |beta_p><beta_q| of the
    m-component cat with modular index j and |alpha|^2 = a2, with
    beta_p = alpha e^{i phi_p} and c_p = e^{-ij phi_p}; shape (m, m), p
    the row.  Their exponentials sum to the cat's normalization N."""
    phi = 2.0 * np.pi * np.arange(m) / m
    dphi = phi[:, None] - phi[None, :]
    return -1j * j * dphi + a2 * (np.exp(1j * dphi) - 1.0)


def _sector_norm(m: int, j: int, a2: float) -> float:
    """Normalization N = sum_{p,q} c_p c_q^* <beta_q|beta_p> of the
    m-component cat with modular index j at |alpha|^2 = a2.  The sum rounds
    to about m^2 eps absolute, so N below _MIN_CAT_NORM (j > 0 at
    |alpha|^2 << 1, where N ~ m^2 |alpha|^{2j} / j!) is mostly noise."""
    return float(np.real(np.sum(np.exp(_dyad_log_weights(m, j, a2)))))


def sector_norms(m: int, a2: float) -> list[float]:
    """The normalizations N of the m sectors of the m-component cat at
    |alpha|^2 = a2; raises NonFinite naming the first sector whose N is not
    above _MIN_CAT_NORM."""
    norms = [_sector_norm(m, j, a2) for j in range(m)]
    for j, norm in enumerate(norms):
        if not norm > _MIN_CAT_NORM:
            raise NonFinite(
                f"sector j={j} of the {m}-component cat at |alpha|^2 = {a2!r} has "
                f"normalization {norm!r}, too small for the closed form"
            )
    return norms


def wigner(spec: CatSpec, grid: PhaseGrid) -> np.ndarray:
    """Wigner function of the M-component cat, sampled on the grid:

        W(z) = (2/pi) sum_{p,q} c_p c_q^* <beta_q|beta_p>
                   exp(-2 (z - beta_p)(z^* - beta_q^*)) / N

    the M^2 Gaussian dyad terms of Cahill and Glauber (Phys. Rev. 177,
    1882, 1969), with N = sum_{p,q} c_p c_q^* <beta_q|beta_p>.  Each term
    adds the log-overlap to the Gaussian exponent before its one exp: a
    term's modulus is at most 1, but the two factors apart overflow and
    underflow at |alpha|^2 of a few hundred.  The sums round to about
    M^2 eps absolute, so W is off by about (2/pi) M^2 eps / N; a sector
    with N below _MIN_CAT_NORM raises ValueError instead.

    Returns a real array of shape (n_re, n_im) matching PhaseGrid.points();
    raises NonFinite if any value is not finite.
    """
    phi = 2.0 * np.pi * np.arange(spec.m) / spec.m
    beta = complex(spec.alpha) * np.exp(1j * phi)
    a = abs(complex(spec.alpha))
    log_w = _dyad_log_weights(spec.m, spec.j, a * a)
    norm = _sector_norm(spec.m, spec.j, a * a)
    if not norm > _MIN_CAT_NORM:
        raise ValueError(
            f"sector j={spec.j} of the {spec.m}-component cat at |alpha|^2 = "
            f"{a * a!r} has normalization {norm!r}, too small for the closed form"
        )
    z = grid.points()
    b_p = beta[:, None, None, None]
    b_q = beta[None, :, None, None]
    terms = np.exp(log_w[:, :, None, None] - 2.0 * (z - b_p) * (z.conj() - b_q.conj()))
    w = 2.0 / np.pi * np.real(terms.sum(axis=(0, 1))) / norm
    if not np.all(np.isfinite(w)):
        raise NonFinite(f"cat Wigner function is not finite (normalization {norm!r})")
    return w


# ---------------------------------------------------------------------------
# serialization


def wigner_to_csv(grid: PhaseGrid, w: np.ndarray) -> str:
    """CSV dump (Re z, Im z, W), row-major over the grid (Re outer, Im inner).
    Each axis value is formatted once; a line joins those reprs to the
    repr of its W."""
    w = np.asarray(w, dtype=float)
    if w.shape != (grid.n_re, grid.n_im):
        raise DimMismatch(f"field shape {w.shape} != ({grid.n_re}, {grid.n_im})")
    ims = [f",{i!r}," for i in grid.im_axis().tolist()]
    lines = ["re_z,im_z,w"]
    for r, row in zip(map(repr, grid.re_axis().tolist()), w.tolist()):
        lines += [f"{r}{i}{v!r}" for i, v in zip(ims, row)]
    return "\n".join(lines) + "\n"
