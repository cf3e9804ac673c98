"""Dark-photon signal model.

Halo velocity and energy distributions, the dark-matter coherence time, the
signal accumulation function g(t), and cavity excitation probabilities.

Unit conventions: every frequency and mass is angular (rad/s); velocities
are km/s at the interface and converted to fractions of c internally; the
halo energy density stays in GeV/cm^3 and is converted to rad/s via
GEV_TO_RAD_PER_S exactly once, inside excitation_probability.

g(t) is QUADPACK's QAGS over the sinc-null segments (quadpack.qagse), with
an array integrand that follows halo_speed_pdf operation for operation and
takes the sine from libm's math.sin, node by node, so its values do not
depend on how numpy vectorizes sin.  Its squares are x*x, the correctly
rounded product; libm's pow, behind Python's x**2 and numpy's scalar **,
differs from it in the last ulp on about 1 argument in 1,200.
halo_speed_pdf squares v_vir by x*x too, and v -+ v_g with numpy's **,
which is x*x on arrays (so the integrand equals halo_speed_pdf on arrays
bit for bit) but pow on 0-d input.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureFailure, UnitOverflow
from .quadpack import qagse

C_KM_S = 299792.458  # speed of light, km/s
_E_CHARGE = 1.602176634e-19  # elementary charge, C (exact SI)
_HBAR = 6.62607015e-34 / (2 * math.pi)  # reduced Planck constant, J s (exact SI)
GEV_TO_RAD_PER_S = 1e9 * _E_CHARGE / _HBAR  # 1 GeV as an angular frequency
OMEGA_M_OFFSET = 3e-7  # peak of the energy distribution sits at (1+this)*m


@dataclass(frozen=True)
class HaloParams:
    """Standard halo model: local density (GeV/cm^3), virial speed and solar
    boost (km/s)."""

    rho_dm: float = 0.4
    v_vir: float = 220.0
    v_g: float = 232.0

    def __post_init__(self):
        for name in ("rho_dm", "v_vir", "v_g"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class SearchPoint:
    """One candidate mass: m_dm and the cavity frequency probing it (both
    rad/s), plus the effective mode volume in cm^3.  omega_c defaults to the
    lineshape peak (1 + 3e-7) * m_dm."""

    m_dm: float
    omega_c: float | None = None
    v_eff: float = 4.45

    def __post_init__(self):
        if not self.m_dm > 0.0:
            raise ValueError(f"m_dm must be > 0, got {self.m_dm!r}")
        if self.omega_c is not None and not self.omega_c > 0.0:
            raise ValueError(f"omega_c must be > 0, got {self.omega_c!r}")
        if not self.v_eff > 0.0:
            raise ValueError(f"v_eff must be > 0, got {self.v_eff!r}")

    def effective_omega_c(self) -> float:
        if self.omega_c is not None:
            return self.omega_c
        return omega_m(self.m_dm)


def omega_m(m_dm: float) -> float:
    """Frequency of the lineshape maximum, (1 + 3e-7) * m_dm."""
    return (1.0 + OMEGA_M_OFFSET) * m_dm


def halo_speed_pdf(v, halo: HaloParams = HaloParams()):
    """Boosted Maxwellian speed distribution, v in km/s, density in s/km.

    Written as a difference of Gaussians (the exponential product expanded)
    so large speeds underflow gracefully instead of overflowing; a square
    that overflows makes its Gaussian exp(-inf) = 0, as intended.
    """
    v = np.asarray(v, dtype=float)
    v_vir_sq = halo.v_vir * halo.v_vir
    with np.errstate(over="ignore"):
        up = np.exp(-((v - halo.v_g) ** 2) / v_vir_sq)
        down = np.exp(-((v + halo.v_g) ** 2) / v_vir_sq)
    out = v / (np.sqrt(np.pi) * halo.v_vir * halo.v_g) * (up - down)
    return out if out.ndim else float(out)


def lineshape(omega, point: SearchPoint, halo: HaloParams = HaloParams()):
    """Dark-matter energy distribution f(omega), in seconds.

    Change of variables from the speed distribution with
    omega = m (1 + v^2/2); strictly zero below m_dm and normalized to 1
    over omega.
    """
    omega = np.asarray(omega, dtype=float)
    m = point.m_dm
    rel = 2.0 * (omega / m - 1.0)
    v_nat = np.sqrt(np.clip(rel, 0.0, None))  # v as a fraction of c
    with np.errstate(divide="ignore", invalid="ignore"):
        f_v = halo_speed_pdf(v_nat * C_KM_S, halo) * C_KM_S
        out = np.where(rel > 0.0, f_v / (m * np.where(rel > 0.0, v_nat, 1.0)), 0.0)
    return out if out.ndim else float(out)


def _v_max(halo: HaloParams) -> float:
    """Upper integration cutoff in units of c: the boost plus six virial
    widths, beyond which the Maxwellian mass is ~1e-16 of the total."""
    return (halo.v_g + 6.0 * halo.v_vir) / C_KM_S


def coherence_time(point: SearchPoint, halo: HaloParams = HaloParams()) -> float:
    """tau_DM = 2 pi f(omega_m): the inverse spectral width of the DM line."""
    return 2.0 * np.pi * float(lineshape(omega_m(point.m_dm), point, halo))


def _sinc_nulls(t: float, point: SearchPoint, halo: HaloParams) -> np.ndarray:
    """Breakpoints of the g(t) integral in the speed variable: 0, the cutoff
    and, between them, the nulls of the sinc factor at
    omega = omega_c + 2 pi k / t, ascending (each step from k to v is
    monotone).  A repeated breakpoint only adds a segment of length 0."""
    m = point.m_dm
    wc = point.effective_omega_c()
    vmax = _v_max(halo)
    spacing = 2.0 * np.pi / t
    w_lo, w_hi = m, m * (1.0 + vmax * vmax / 2.0)
    k_lo = int(np.ceil((w_lo - wc) / spacing))
    k_hi = int(np.floor((w_hi - wc) / spacing))
    if k_hi - k_lo > 20000:
        raise QuadratureFailure(
            f"t={t!r} produces {k_hi - k_lo} oscillation nodes; "
            "use the incoherent asymptote instead"
        )
    w_node = wc + spacing * np.arange(k_lo, k_hi + 1, dtype=float)
    rel = 2.0 * (w_node / m - 1.0)
    v = np.sqrt(rel[rel > 0.0])
    v = v[(0.0 < v) & (v < vmax)]
    return np.concatenate([[0.0], v, [vmax]])


def g_of_t(t, point: SearchPoint, halo: HaloParams = HaloParams()):
    """Signal accumulation integral (seconds^2):

        g(t) = integral d(omega) f(omega) [sin((omega-omega_c)t/2) /
                                           ((omega-omega_c)/2)]^2

    evaluated in the speed variable (where the lineshape is a smooth
    Maxwellian), splitting the domain at the oscillation nulls of the sinc
    factor when t is large.  Grows as t^2 below the coherence time and as
    tau_DM * t above it.

    t is one time (a float comes back) or a sequence of times (a list comes
    back).  The segments of all times go to one quadpack.qagse call
    (QUADPACK's QAGS, bit-equal to SciPy's quad), to epsrel 1e-9; each
    time's values and error estimates are summed in segment order.  The
    integrand squares by x*x (see the module docstring).
    """
    one = np.ndim(t) == 0
    times = [float(t)] if one else [float(x) for x in t]
    for x in times:
        if x < 0.0:
            raise ValueError(f"t must be >= 0, got {x!r}")
    m = point.m_dm
    wc = point.effective_omega_c()
    v_g = halo.v_g
    v_vir_sq = halo.v_vir * halo.v_vir
    pdf_norm = math.sqrt(math.pi) * halo.v_vir * v_g

    # halo_speed_pdf(v * C_KM_S) * C_KM_S times t^2 sinc^2(x), elementwise,
    # t being each segment's time; inf and NaN from extreme inputs reach the
    # error check below unannounced
    def integrand(v: np.ndarray, t) -> np.ndarray:
        with np.errstate(all="ignore"):
            s = v * C_KM_S
            shifted = np.stack((s - v_g, s + v_g))
            up, down = np.exp(-(shifted * shifted) / v_vir_sq)
            f_v = s / pdf_norm * (up - down) * C_KM_S
            delta = m * (1.0 + v * v / 2.0) - wc
            y = np.pi * (delta * t / 2.0 / np.pi)
            sin_y = np.fromiter(map(math.sin, y.ravel().tolist()), float, y.size)
            sinc = np.where(y != 0.0, sin_y.reshape(y.shape) / y, 1.0)
            return f_v * t * t * (sinc * sinc)

    lo, hi, counts = [], [], []
    for x in times:
        if x == 0.0:
            counts.append(0)
            continue
        breaks = _sinc_nulls(x, point, halo)
        a, b = breaks[:-1], breaks[1:]
        keep = b - a >= 1e-18
        lo.append(a[keep])
        hi.append(b[keep])
        counts.append(int(keep.sum()))
    values = errors = []
    if lo:
        values, errors, _, _ = qagse(
            integrand, np.concatenate(lo), np.concatenate(hi), 0.0, 1e-9, 200,
            arg=np.repeat(times, counts),
        )
        values, errors = values.tolist(), errors.tolist()
    out = []
    start = 0
    for x, n in zip(times, counts):
        total = 0.0
        err = 0.0
        for val, e in zip(values[start : start + n], errors[start : start + n]):
            total += val
            err += e
        start += n
        if not np.isfinite(total) or (total > 0.0 and err > 1e-6 * total):
            raise QuadratureFailure(
                f"accumulated quadrature error {err!r} on g({x!r}) = {total!r}"
            )
        out.append(total)
    return out[0] if one else out


def excitation_probability(
    epsilon: float,
    point: SearchPoint,
    halo: HaloParams = HaloParams(),
    t: float = 0.0,
    alpha_sq: float = 1.0,
    g: float | None = None,
) -> float:
    """Probability that the DM drive moves the detector up one sector:

        p = epsilon^2 m^2 rho_DM V_eff / omega_c * g(t) * alpha_sq

    with alpha_sq = 1 for a vacuum probe and |alpha|^2 for a compass probe.
    g is g_of_t(t, point, halo) when the caller already has it.
    Perturbative expression: warns above 0.1.
    """
    if epsilon == 0.0:
        return 0.0
    g = g_of_t(t, point, halo) if g is None else g
    rho_rad = point.v_eff * halo.rho_dm * GEV_TO_RAD_PER_S  # rad/s
    wc = point.effective_omega_c()
    p = epsilon**2 * point.m_dm**2 * rho_rad / wc * g * alpha_sq
    if not np.isfinite(p):
        raise UnitOverflow(f"excitation probability overflowed: {p!r}")
    if p > 0.1:
        warnings.warn(
            f"excitation probability {p:.3g} is outside the perturbative regime",
            stacklevel=2,
        )
    return float(p)


def rho_m_veff(point: SearchPoint, halo: HaloParams = HaloParams()) -> float:
    """The combined constant rho_DM * m_DM * V_eff in 1/s^2; the exclusion
    arithmetic anchors on this quantity."""
    return halo.rho_dm * point.v_eff * GEV_TO_RAD_PER_S * point.m_dm


def lineshape_to_csv(
    omegas, point: SearchPoint, halo: HaloParams = HaloParams()
) -> str:
    """CSV dump (omega, f) of the energy distribution."""
    lines = ["omega,f"]
    for w in np.asarray(omegas, dtype=float):
        lines.append(f"{float(w)!r},{float(lineshape(w, point, halo))!r}")
    return "\n".join(lines) + "\n"


def g_curve_to_csv(times, point: SearchPoint, halo: HaloParams = HaloParams()) -> str:
    """CSV dump (t, g, coherent and incoherent asymptotes) of the
    accumulation function."""
    tau = coherence_time(point, halo)
    times = np.asarray(times, dtype=float)
    lines = ["t,g,coherent_t_sq,incoherent_tau_t"]
    for t, g in zip(times, g_of_t(times, point, halo)):
        lines.append(f"{float(t)!r},{g!r},{float(t * t)!r},{float(tau * t)!r}")
    return "\n".join(lines) + "\n"
