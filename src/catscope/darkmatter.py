"""Dark-photon signal model.

Halo velocity and energy distributions, the dark-matter coherence time, the
signal accumulation function g(t), and cavity excitation probabilities.

Unit conventions: every frequency and mass is angular (rad/s); velocities
are km/s at the interface and converted to fractions of c internally; the
halo energy density stays in GeV/cm^3 and is converted to rad/s via
GEV_TO_RAD_PER_S exactly once, inside rho_m_veff.  excitation_probability
is arithmetic on a g value the caller integrated with g_of_t.

g(t) is a closed form in the lag s: the lineshape's characteristic function
(the standard halo's speed is the magnitude of a 3-D Gaussian velocity)
weighted by t - s, integrated over [0, t] by composite Gauss-Legendre rules
of 16 and 32 nodes in one array expression, their gap being the error
estimate.  halo_speed_pdf squares v_vir and v -+ v_g by x*x, the correctly
rounded product, on arrays and on 0-d input alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureFailure

C_KM_S = 299792.458  # speed of light, km/s
_E_CHARGE = 1.602176634e-19  # elementary charge, C (exact SI)
_HBAR = 6.62607015e-34 / (2 * math.pi)  # reduced Planck constant, J s (exact SI)
GEV_TO_RAD_PER_S = 1e9 * _E_CHARGE / _HBAR  # 1 GeV as an angular frequency
OMEGA_M_OFFSET = 3e-7  # peak of the energy distribution sits at (1+this)*m


@dataclass
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


@dataclass
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


def resonant_mass(omega: float) -> float:
    """The mass whose lineshape peaks at omega, omega / (1 + 3e-7): the
    inverse of omega_m."""
    return omega / (1.0 + OMEGA_M_OFFSET)


def halo_speed_pdf(v, halo: HaloParams = HaloParams()):
    """Boosted Maxwellian speed distribution, v in km/s, density in s/km.

    Written as a difference of Gaussians (the exponential product expanded)
    so large speeds underflow gracefully instead of overflowing; a square
    that overflows makes its Gaussian exp(-inf) = 0, as intended.
    """
    v = np.asarray(v, dtype=float)
    v_vir_sq = halo.v_vir * halo.v_vir
    d_up = v - halo.v_g
    d_down = v + halo.v_g
    with np.errstate(over="ignore"):
        up = np.exp(-(d_up * d_up) / v_vir_sq)
        down = np.exp(-(d_down * d_down) / v_vir_sq)
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
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        f_v = halo_speed_pdf(v_nat * C_KM_S, halo) * C_KM_S
        out = np.where(rel > 0.0, f_v / (m * np.where(rel > 0.0, v_nat, 1.0)), 0.0)
    return out if out.ndim else float(out)


def coherence_time(point: SearchPoint, halo: HaloParams = HaloParams()) -> float:
    """tau_DM = 2 pi f(omega_m): the inverse spectral width of the DM line."""
    return 2.0 * np.pi * float(lineshape(omega_m(point.m_dm), point, halo))


def _gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]:
    Newton's method on the Legendre polynomial P_n from the asymptotic
    guesses for its roots (Press et al., Numerical Recipes, 3rd ed., 4.6)."""
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(8):
        p0, p1 = np.ones(n), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


# The 16- and 32-node rules side by side: nodes on [0, 1], and a weight
# column per rule that also carries g's factor 2 (2 x the 1/2 of [0, 1])
(_X16, _W16), (_X32, _W32) = _gauss_legendre(16), _gauss_legendre(32)
_NODES = 0.5 * np.concatenate([_X16, _X32]) + 0.5
_WEIGHTS = np.zeros((48, 2))
_WEIGHTS[:16, 0], _WEIGHTS[16:, 1] = _W16, _W32
MAX_G_PANELS = 2**14  # most panels one g_of_t call integrates


def g_panels(times, point: SearchPoint, halo: HaloParams = HaloParams()) -> np.ndarray:
    """Panels of g_of_t's rule at each time, as floats (inf or NaN where a
    time or the panel width is extreme): [0, t] is cut into equal panels no
    wider than tau_DM / 4 or a quarter period of the detuning omega_c - m,
    whichever is shorter.  g_of_t refuses a call whose panels total more
    than MAX_G_PANELS."""
    width = coherence_time(point, halo) / 4.0
    delta = abs(point.effective_omega_c() - point.m_dm)
    if delta > 0.0:
        width = min(width, math.pi / (2.0 * delta))
    times = np.asarray(times, dtype=float)
    with np.errstate(all="ignore"):
        # a time > 0 takes at least one panel, whatever the width
        return np.maximum(np.ceil(times / width), times > 0.0)


def g_of_t(t, point: SearchPoint, halo: HaloParams = HaloParams()):
    """Signal accumulation integral (seconds^2),

        g(t) = integral d(omega) f(omega) [sin((omega-omega_c)t/2) /
                                           ((omega-omega_c)/2)]^2,

    in closed form: 2 integral_0^t ds (t - s) Re[exp(-i(omega_c - m)s) C(s)]
    with C(s) = (1 - i a s)^(-3/2) exp(i b s / (1 - i a s)) the lineshape's
    characteristic function (the halo velocity is a 3-D Gaussian, so
    omega - m = m v^2 / 2 is a scaled noncentral chi^2 with 3 degrees of
    freedom), a = m v_vir^2 / 2, b = m v_g^2 / 2, v in units of c (Foster,
    Rodd and Safdi, PRD 97, 123006 (2018)).  Grows as t^2 below the
    coherence time and as tau_DM * t above it.

    t is one time (a float comes back) or a sequence (a list comes back).
    Every (time, panel, node) triple of composite 16- and 32-node
    Gauss-Legendre rules, panels as in g_panels, is one array expression;
    g is the 32-node sum.  QuadratureFailure is raised for more than
    MAX_G_PANELS panels (before any array is built), a non-finite g, or a
    gap between the two rules above 1e-6 relative.
    """
    one = np.ndim(t) == 0
    times = np.array([t] if one else list(t), dtype=float)
    for x in times.tolist():
        if x < 0.0:
            raise ValueError(f"t must be >= 0, got {x!r}")
    counts = g_panels(times, point, halo)
    total = float(counts.sum())
    if not total <= MAX_G_PANELS:
        raise QuadratureFailure(
            f"g(t) up to t={float(times.max())!r} needs {total:.3g} quadrature "
            f"panels, more than {MAX_G_PANELS}"
        )
    n = counts.astype(np.int64)
    which = np.repeat(np.arange(times.size), n)  # each panel's time
    h = np.repeat(times / np.maximum(n, 1), n)  # each panel's width
    first = np.repeat(np.cumsum(n) - n, n)
    lo = (np.arange(which.size) - first) * h
    m = point.m_dm
    delta = point.effective_omega_c() - m
    a = 0.5 * m * (halo.v_vir / C_KM_S) ** 2
    b = 0.5 * m * (halo.v_g / C_KM_S) ** 2
    # Re K = |C| cos(phase) in real arithmetic, u = a s:
    #   |C| = (1 + u^2)^(-3/4) exp(-a b s^2 / (1 + u^2))
    #   phase = (3/2) atan(u) + b s / (1 + u^2) - delta s
    # inf and NaN from extreme inputs reach the checks below unannounced
    with np.errstate(all="ignore"):
        s = lo[:, None] + h[:, None] * _NODES
        u = a * s
        q = 1.0 + u * u
        re_k = np.exp(-0.75 * np.log(q) - b * u * s / q) * np.cos(
            1.5 * np.arctan(u) + (b / q - delta) * s
        )
        sums = (((times[which][:, None] - s) * re_k) @ _WEIGHTS) * h[:, None]
        # (+ 0.0: the bincount of no panels at all is an integer array)
        g16, g32 = (np.bincount(which, col, times.size) + 0.0 for col in sums.T)
        gap = np.abs(g32 - g16)
    out = g32.tolist()
    for x, g, e in zip(times.tolist(), out, gap.tolist()):
        if not math.isfinite(g) or (g > 0.0 and not e <= 1e-6 * g):
            raise QuadratureFailure(
                f"g({x!r}) = {g!r}: the 16- and 32-node rules differ by {e!r}"
            )
    return out[0] if one else out


def excitation_probability(
    epsilon: float,
    point: SearchPoint,
    halo: HaloParams,
    g: float,
    alpha_sq: float = 1.0,
) -> float:
    """Probability that the DM drive moves the detector up one sector:

        p = epsilon^2 rho_DM m_DM V_eff (m_DM / omega_c) g(t) alpha_sq

    with g = g_of_t(t, point, halo) at the integration time t, and
    alpha_sq = 1 for a vacuum probe and |alpha|^2 for a compass probe.
    Perturbative expression: a product that overflows is inf, and the
    caller judges a p near or past 1.
    """
    if epsilon == 0.0:
        return 0.0
    m, omega_c = point.m_dm, point.effective_omega_c()
    try:
        # epsilon**2 (libm pow, which epsilon * epsilon differs from in the
        # last bit on some inputs) raises where a float * gives inf
        p = epsilon**2 * rho_m_veff(point, halo) * (m / omega_c) * g * alpha_sq
    except OverflowError:
        return math.inf
    return float(p)


def rho_m_veff(point: SearchPoint, halo: HaloParams = HaloParams()) -> float:
    """The combined constant rho_DM * m_DM * V_eff in 1/s^2; the exclusion
    arithmetic anchors on this quantity."""
    return halo.rho_dm * point.v_eff * GEV_TO_RAD_PER_S * point.m_dm


def lineshape_to_csv(
    omegas, point: SearchPoint, halo: HaloParams = HaloParams()
) -> str:
    """CSV dump (omega, f) of the energy distribution."""
    omegas = np.asarray(omegas, dtype=float)
    values = lineshape(omegas, point, halo).tolist()
    lines = ["omega,f"]
    for w, f in zip(omegas.tolist(), values):
        lines.append(f"{w!r},{f!r}")
    return "\n".join(lines) + "\n"


def g_curve_to_csv(times, point: SearchPoint, halo: HaloParams = HaloParams()) -> str:
    """CSV dump (t, g, coherent and incoherent asymptotes) of the
    accumulation function."""
    tau = coherence_time(point, halo)
    times = np.asarray(times, dtype=float)
    columns = zip(
        times.tolist(), g_of_t(times, point, halo), (times * times).tolist(), (tau * times).tolist()
    )
    lines = ["t,g,coherent_t_sq,incoherent_tau_t"]
    lines += [f"{t!r},{g!r},{t_sq!r},{tau_t!r}" for t, g, t_sq, tau_t in columns]
    return "\n".join(lines) + "\n"
