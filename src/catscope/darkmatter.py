"""Dark-photon signal model.

Halo velocity and energy distributions, the dark-matter coherence time, the
signal accumulation function g(t), and cavity excitation probabilities.

Unit conventions: every frequency and mass is angular (rad/s); velocities
are km/s at the interface and converted to fractions of c internally; the
halo energy density stays in GeV/cm^3 and is converted to rad/s via
GEV_TO_RAD_PER_S exactly once, inside excitation_probability.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .errors import QuadratureFailure, UnitOverflow

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
    so large speeds underflow gracefully instead of overflowing.
    """
    v = np.asarray(v, dtype=float)
    up = np.exp(-((v - halo.v_g) ** 2) / halo.v_vir**2)
    down = np.exp(-((v + halo.v_g) ** 2) / halo.v_vir**2)
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


def g_of_t(t: float, point: SearchPoint, halo: HaloParams = HaloParams()) -> float:
    """Signal accumulation integral (seconds^2):

        g(t) = integral d(omega) f(omega) [sin((omega-omega_c)t/2) /
                                           ((omega-omega_c)/2)]^2

    evaluated in the speed variable (where the lineshape is a smooth
    Maxwellian), splitting the domain at the oscillation nulls of the sinc
    factor when t is large.  Grows as t^2 below the coherence time and as
    tau_DM * t above it.
    """
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t!r}")
    if t == 0.0:
        return 0.0
    m = point.m_dm
    wc = point.effective_omega_c()
    vmax = _v_max(halo)
    v_g = halo.v_g
    v_vir_sq = halo.v_vir**2
    pdf_norm = math.sqrt(math.pi) * halo.v_vir * v_g
    exp = np.exp  # not math.exp: the two differ in the last ulp on some inputs

    # halo_speed_pdf(v * C_KM_S) * C_KM_S times t^2 sinc^2(x), on Python
    # floats, with every operation in the order of those two numpy routines,
    # so the values are bit-identical to theirs at a fraction of the cost
    def integrand(v: float) -> float:
        s = v * C_KM_S
        up = float(exp(-((s - v_g) ** 2) / v_vir_sq))
        down = float(exp(-((s + v_g) ** 2) / v_vir_sq))
        f_v = s / pdf_norm * (up - down) * C_KM_S
        delta = m * (1.0 + v * v / 2.0) - wc
        y = math.pi * (delta * t / 2.0 / math.pi)
        sinc = math.sin(y) / y if y else 1.0
        return f_v * t * t * sinc**2

    # breakpoints at the sinc nulls omega = omega_c + 2 pi k / t
    breaks = [0.0, vmax]
    spacing = 2.0 * np.pi / t
    w_lo, w_hi = m, m * (1.0 + vmax * vmax / 2.0)
    k_lo = int(np.ceil((w_lo - wc) / spacing))
    k_hi = int(np.floor((w_hi - wc) / spacing))
    if k_hi - k_lo > 20000:
        raise QuadratureFailure(
            f"t={t!r} produces {k_hi - k_lo} oscillation nodes; "
            "use the incoherent asymptote instead"
        )
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
    # per-segment tolerance warnings are advisory; the accumulated error is
    # checked against the total below and failures raise
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
    lines = ["t,g,coherent_t_sq,incoherent_tau_t"]
    for t in np.asarray(times, dtype=float):
        g = g_of_t(float(t), point, halo)
        lines.append(f"{float(t)!r},{g!r},{float(t * t)!r},{float(tau * t)!r}")
    return "\n".join(lines) + "\n"
