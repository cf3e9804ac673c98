"""Statistical layer: detector calibration, the joint search fit, error
propagation to the kinetic-mixing parameter, threshold sweeps, frequency-bin
background subtraction, and exclusion limits.

Count data is fit with the exact binomial likelihood (several baseline rates
are O(1e-3) at 1e4 trials, where a Gaussian approximation misbehaves), using
a derivative-free simplex with multistart and Fisher-information covariances
at the optimum.  Reported log-likelihoods omit the data-only combinatorial
constant, which makes them invariant under rebinning trials at fixed rates.
The one-sided 90% Gaussian quantile is hard-coded as 1.28 (not 1.2816) to
match the published arithmetic.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize, minimize_scalar
from scipy.special import ndtr, xlogy

from .darkmatter import (
    OMEGA_M_OFFSET,
    HaloParams,
    SearchPoint,
    g_of_t,
    lineshape,
    rho_m_veff,
)
from .errors import (
    ConfigError,
    DegenerateDesign,
    NegativeProbability,
    NonConvergence,
    QuadratureFailure,
    SingleBin,
    ZeroBaseline,
    ZeroEfficiency,
    ZeroP0,
    ZeroSignalDenominator,
)
from .hmm import batch_posteriors, postselect

GAUSS_90 = 1.28  # one-sided 90% quantile, kept at two decimals deliberately


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class CalibrationCurve:
    """Injected-photon calibration data: (n_inj, k_pos, n_trials) triples."""

    points: tuple
    alpha_sq: float = 1.0

    def __post_init__(self):
        pts = tuple((float(a), int(b), int(c)) for a, b, c in self.points)
        if not pts:
            raise ConfigError("calibration curve has no points")
        for n_inj, k, n in pts:
            if n_inj < 0.0:
                raise ConfigError(f"n_inj must be >= 0, got {n_inj!r}")
            if not 0 <= k <= n:
                raise ConfigError(f"need 0 <= k_pos <= n_trials, got {k}/{n}")
            if n < 1:
                raise ConfigError("n_trials must be >= 1")
        if not self.alpha_sq > 0.0:
            raise ConfigError(f"alpha_sq must be > 0, got {self.alpha_sq!r}")
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class FitResult:
    """Named estimates, covariance (ordered like params), and the binomial
    log-likelihood without its combinatorial constant."""

    params: dict
    covariance: np.ndarray
    log_likelihood: float
    boundary_hit: bool = False

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=float)
        k = len(self.params)
        if cov.shape != (k, k):
            raise ConfigError(f"covariance must be {k}x{k}, got {cov.shape}")
        if not np.all(np.isfinite(cov)):
            raise ConfigError("covariance contains NaN/inf")
        if np.max(np.abs(cov - cov.T), initial=0.0) > 1e-9 * max(
            1.0, float(np.max(np.abs(cov)))
        ):
            raise ConfigError("covariance is not symmetric")
        evals = np.linalg.eigvalsh(0.5 * (cov + cov.T))
        if evals.size and evals[0] < -1e-9 * max(1.0, float(evals[-1])):
            raise ConfigError("covariance is not positive semidefinite")
        cov = 0.5 * (cov + cov.T)
        cov.setflags(write=False)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "params", dict(self.params))

    def stderr(self, name: str) -> float:
        idx = list(self.params).index(name)
        return float(math.sqrt(max(self.covariance[idx, idx], 0.0)))


@dataclass(frozen=True)
class ExclusionPoint:
    """One exclusion-curve point: central value, its sigma, and the 90% C.L.
    value epsilon0 + 1.28 sigma."""

    m_dm: float
    epsilon0: float
    sigma_eps: float
    eps90: float

    def __post_init__(self):
        for name in ("m_dm", "epsilon0", "sigma_eps", "eps90"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0.0):
                raise ConfigError(f"{name} must be finite and >= 0, got {v!r}")
        want = self.epsilon0 + GAUSS_90 * self.sigma_eps
        scale = max(abs(want), abs(self.eps90), 1e-300)
        if abs(self.eps90 - want) > 1e-12 * scale:
            raise ConfigError(f"eps90={self.eps90!r} != epsilon0 + 1.28 sigma ({want!r})")


@dataclass(frozen=True)
class FrequencyBin:
    """One tuning step of the frequency scan."""

    omega_i: float
    n_meas_i: int
    n_trials_i: int
    eta_i: float
    t1c_i: float

    def __post_init__(self):
        if not self.omega_i > 0.0:
            raise ConfigError(f"omega_i must be > 0, got {self.omega_i!r}")
        if not 0.0 < self.eta_i <= 1.0:
            raise ZeroEfficiency(f"eta_i must lie in (0, 1], got {self.eta_i!r}")
        if not 0 <= self.n_meas_i <= self.n_trials_i:
            raise ConfigError(
                f"need 0 <= n_meas_i <= n_trials_i, got {self.n_meas_i}/{self.n_trials_i}"
            )
        if not self.t1c_i > 0.0:
            raise ConfigError(f"t1c_i must be > 0, got {self.t1c_i!r}")


@dataclass(frozen=True)
class SearchSeries:
    """Search-campaign counts for one probe amplitude: positives k_pos out of
    n_trials at each integration time tau."""

    alpha_sq: float
    taus: tuple
    k_pos: tuple
    n_trials: tuple

    def __post_init__(self):
        taus = tuple(float(t) for t in self.taus)
        k = tuple(int(v) for v in self.k_pos)
        n = tuple(int(v) for v in self.n_trials)
        if not (len(taus) == len(k) == len(n)):
            raise ConfigError("taus, k_pos, n_trials must have equal lengths")
        if any(t <= 0 for t in taus):
            raise ConfigError("taus must be > 0")
        if any(not 0 <= a <= b for a, b in zip(k, n)):
            raise ConfigError("need 0 <= k_pos <= n_trials per point")
        if not self.alpha_sq > 0.0:
            raise ConfigError(f"alpha_sq must be > 0, got {self.alpha_sq!r}")
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "k_pos", k)
        object.__setattr__(self, "n_trials", n)


# ---------------------------------------------------------------------------
# generic pieces


def _binom_ll(k, n, p) -> float:
    """Binomial log-likelihood without the combinatorial constant."""
    val = float(np.sum(xlogy(k, p) + xlogy(np.asarray(n) - np.asarray(k), 1.0 - p)))
    return val


def _guarded_nll(val: float) -> float:
    return val if np.isfinite(val) else 1e300


def _binomial_information(design, k, n, p_lin) -> np.ndarray:
    """Exact observed information for a binomial likelihood whose rate is
    linear in the parameters: sum of w x x^T with w = k/p^2 + (n-k)/(1-p)^2.
    Points parked on the clip boundary contribute nothing locally."""
    design = np.asarray(design, dtype=float)
    k = np.asarray(k, dtype=float)
    n = np.asarray(n, dtype=float)
    p = np.asarray(p_lin, dtype=float)
    mask = (p > 0.0) & (p < 1.0)
    w = np.zeros_like(p)
    pm = p[mask]
    w[mask] = k[mask] / pm**2 + (n[mask] - k[mask]) / (1.0 - pm) ** 2
    return (design * w[:, None]).T @ design


def _invert_information(info, scales) -> np.ndarray:
    """Invert the information matrix in scale-normalized coordinates.

    Parameter magnitudes span ten orders here, so a raw pinv would zero the
    small information eigenvalues, i.e. exactly the directions with LARGE
    uncertainty.  Normalizing first keeps them; flooring the spectrum keeps
    the result positive semidefinite."""
    s = np.asarray(scales, dtype=float)
    hs = info * np.outer(s, s)
    hs = 0.5 * (hs + hs.T)
    w, v = np.linalg.eigh(hs)
    floor = 1e-12 * max(float(w[-1]), 1.0)
    w = np.maximum(w, floor)
    cov_s = (v / w) @ v.T
    cov = cov_s * np.outer(s, s)
    return 0.5 * (cov + cov.T)


def _simplex(nll, start, scales, maxiter=40000):
    scales = np.asarray(scales, dtype=float)

    def scaled(z):
        return nll(z * scales)

    res = minimize(
        scaled,
        np.asarray(start, dtype=float) / scales,
        method="Nelder-Mead",
        options={
            "maxiter": maxiter,
            "maxfev": maxiter,
            "xatol": 1e-9,
            "fatol": 1e-11,
        },
    )
    return res.x * scales, float(res.fun)


def _polish(nll, theta, fval, scales):
    """Restart the simplex at the incumbent; a fresh simplex routinely shakes
    off small stalls and tightens optima to near machine-level consistency."""
    for _ in range(2):
        sol, f2 = _simplex(nll, theta, scales)
        if f2 < fval:
            theta, fval = sol, f2
        else:
            break
    return theta, fval


# ---------------------------------------------------------------------------
# detector calibration


def calibrate_detector(curve: CalibrationCurve, alpha_sq: float | None = None) -> FitResult:
    """Binomial MLE of k_pos ~ Binomial(n_trials, eta*alpha_sq*n_inj + delta),
    rate clipped to [0, 1].  Returns params {'eta', 'delta'} with Fisher
    covariance."""
    a2 = float(curve.alpha_sq if alpha_sq is None else alpha_sq)
    pts = np.array(curve.points, dtype=float)
    n_inj, k, n = pts[:, 0], pts[:, 1], pts[:, 2]
    if np.unique(n_inj).size < 3:
        raise DegenerateDesign("need at least 3 distinct n_inj values")

    x = a2 * n_inj

    def nll(theta):
        p = np.clip(theta[0] * x + theta[1], 0.0, 1.0)
        return _guarded_nll(-_binom_ll(k, n, p))

    y = k / n
    design = np.column_stack([x, np.ones_like(x)])
    theta0, *_ = np.linalg.lstsq(design, y, rcond=None)
    scales = np.maximum(np.abs(theta0), [1e-3 / max(x.max(), 1e-12), 1e-4])
    starts = [
        theta0,
        theta0 * [2.0, 1.0],
        theta0 * [0.5, 1.0],
        [0.0, float(np.mean(y))],
        [theta0[0], 0.0],
    ]
    best = None
    for s in starts:
        sol, fval = _simplex(nll, s, scales)
        if best is None or fval < best[1]:
            best = (sol, fval)
    if best is None or not np.isfinite(best[1]) or best[1] >= 1e300:
        raise NonConvergence("calibration fit did not converge")
    theta_hat, fval = best
    theta_hat, fval = _polish(nll, theta_hat, fval, scales)
    design = np.column_stack([x, np.ones_like(x)])
    info = _binomial_information(design, k, n, theta_hat[0] * x + theta_hat[1])
    cov = _invert_information(info, scales)
    params = {"eta": float(theta_hat[0]), "delta": float(theta_hat[1])}
    return FitResult(params, cov, -fval)


def enhancement_factor(eta_alpha: float, alpha_sq: float, eta_0: float) -> float:
    """Detection-rate gain of the compass probe over the vacuum probe:
    eta_alpha * alpha_sq / eta_0."""
    if not eta_0 > 0.0:
        raise ZeroBaseline(f"vacuum baseline efficiency must be > 0, got {eta_0!r}")
    return eta_alpha * alpha_sq / eta_0


# ---------------------------------------------------------------------------
# joint search fit


def search_log_likelihood(series, g, eta_alpha, a0, bs, cs) -> float:
    """Binomial log-likelihood of the joint search model
    rate = a0*eta*alpha_sq*g(tau) + b*tau + c (clipped to [0,1]),
    without the combinatorial constant."""
    total = 0.0
    for i, s in enumerate(series):
        taus = np.array(s.taus)
        gv = np.array([g(t) for t in taus])
        p = np.clip(a0 * eta_alpha[i] * s.alpha_sq * gv + bs[i] * taus + cs[i], 0.0, 1.0)
        total += _binom_ll(np.array(s.k_pos), np.array(s.n_trials), p)
    return total


def search_fit(series, g, eta_alpha, tau_warn: float | None = None) -> FitResult:
    """Joint MLE over all probe amplitudes with a shared signal strength a0.

    Params come out as {'a0', 'b_<alpha_sq>', 'c_<alpha_sq>', ...}.  a0 >= 0
    is enforced by optimizing a reflected variable |u|; when the optimum pins
    a0 at zero the result carries boundary_hit=True.  Covariance is the
    Fisher information in the original (a0, b, c) coordinates.
    """
    series = list(series)
    eta_alpha = [float(e) for e in eta_alpha]
    if not series:
        raise ConfigError("no search series")
    if len(eta_alpha) != len(series):
        raise ConfigError(f"{len(series)} series but {len(eta_alpha)} efficiencies")
    seen = [s.alpha_sq for s in series]
    if len(set(seen)) != len(seen):
        raise ConfigError("alpha_sq values must be distinct across series")
    for s in series:
        if len(set(s.taus)) < 2:
            raise DegenerateDesign(
                f"series alpha_sq={s.alpha_sq} needs >= 2 distinct tau values"
            )
    if tau_warn is not None:
        worst = max(max(s.taus) for s in series)
        if worst > tau_warn:
            warnings.warn(
                f"tau up to {worst:.3e} s exceeds the coherence time {tau_warn:.3e} s",
                stacklevel=2,
            )

    coefs = []
    taus_l, k_l, n_l = [], [], []
    for i, s in enumerate(series):
        taus = np.array(s.taus)
        gv = np.array([float(g(t)) for t in taus])
        coefs.append(eta_alpha[i] * s.alpha_sq * gv)
        taus_l.append(taus)
        k_l.append(np.array(s.k_pos, dtype=float))
        n_l.append(np.array(s.n_trials, dtype=float))

    m = len(series)

    def nll(theta):
        a0 = abs(theta[0])
        total = 0.0
        for i in range(m):
            b, c = theta[1 + 2 * i], theta[2 + 2 * i]
            p = np.clip(a0 * coefs[i] + b * taus_l[i] + c, 0.0, 1.0)
            total -= _binom_ll(k_l[i], n_l[i], p)
        return _guarded_nll(total)

    # pooled linear start
    rows, ys = [], []
    for i in range(m):
        block = np.zeros((taus_l[i].size, 1 + 2 * m))
        block[:, 0] = coefs[i]
        block[:, 1 + 2 * i] = taus_l[i]
        block[:, 2 + 2 * i] = 1.0
        rows.append(block)
        ys.append(k_l[i] / n_l[i])
    theta0, *_ = np.linalg.lstsq(np.vstack(rows), np.concatenate(ys), rcond=None)

    max_coef = max(float(np.max(c)) for c in coefs)
    max_tau = max(float(np.max(t)) for t in taus_l)
    scales = np.empty(1 + 2 * m)
    scales[0] = max(abs(theta0[0]), 1e-3 / max(max_coef, 1e-300))
    for i in range(m):
        scales[1 + 2 * i] = max(abs(theta0[1 + 2 * i]), 1e-3 / max_tau)
        scales[2 + 2 * i] = max(abs(theta0[2 + 2 * i]), 1e-4)

    # The surface has a curved valley: raising a0 while lowering the slopes
    # changes the likelihood slowly, and a simplex started off the valley
    # floor stalls partway along it.  Profiling out the per-series (b, c)
    # pairs reduces the problem to one dimension in a0, whose bounded scan is
    # reliable; the full simplex then starts from the profiled solution.
    def _inner_fit(i, a0):
        design = np.column_stack([taus_l[i], np.ones_like(taus_l[i])])
        resid = k_l[i] / n_l[i] - a0 * coefs[i]
        start, *_ = np.linalg.lstsq(design, resid, rcond=None)
        sc = [
            max(abs(start[0]), 1e-3 / max_tau),
            max(abs(start[1]), 1e-4),
        ]

        def fn(th):
            p = np.clip(a0 * coefs[i] + th[0] * taus_l[i] + th[1], 0.0, 1.0)
            return _guarded_nll(-_binom_ll(k_l[i], n_l[i], p))

        return _simplex(fn, start, sc, maxiter=4000)

    def _profile(a0):
        total = 0.0
        sols = []
        for i in range(m):
            sol, fval = _inner_fit(i, a0)
            total += fval
            sols.append(sol)
        # cap far above any real nll: the bounded scalar minimizer does
        # arithmetic on objective values and overflows on the 1e300 guard
        return min(total, 1e15), sols

    hi = max(3.0 * abs(theta0[0]), 1e-2 / max(max_coef, 1e-300))
    for _ in range(3):
        prof = minimize_scalar(
            lambda u: _profile(u)[0],
            bounds=(0.0, hi),
            method="bounded",
            options={"xatol": 1e-7 * hi, "maxiter": 80},
        )
        if prof.x < 0.99 * hi:
            break
        hi *= 10.0  # optimum pressed against the scan ceiling; widen it
    a0_prof = float(prof.x)
    _, prof_sols = _profile(a0_prof)
    theta_prof = np.concatenate([[a0_prof]] + [np.asarray(s) for s in prof_sols])
    scales[0] = max(scales[0], abs(a0_prof))

    perturbed = theta_prof.copy()
    perturbed[1:] *= 1.05
    starts = [
        theta_prof,
        theta0,
        theta_prof * np.concatenate([[1.3], np.ones(2 * m)]),
        theta_prof * np.concatenate([[0.7], np.ones(2 * m)]),
        perturbed,
    ]
    best = None
    for s0 in starts:
        sol, fval = _simplex(nll, s0, scales)
        if best is None or fval < best[1]:
            best = (sol, fval)
    if best is None or best[1] >= 1e300:
        raise NonConvergence("search fit did not converge")
    theta_hat, fval = best
    theta_hat, fval = _polish(nll, theta_hat, fval, scales)
    theta_hat = theta_hat.copy()
    theta_hat[0] = abs(theta_hat[0])  # report a0, not the reflected variable

    design = np.zeros((sum(t.size for t in taus_l), 1 + 2 * m))
    p_lin = np.zeros(design.shape[0])
    k_all = np.zeros(design.shape[0])
    n_all = np.zeros(design.shape[0])
    row = 0
    for i in range(m):
        npts = taus_l[i].size
        sl = slice(row, row + npts)
        design[sl, 0] = coefs[i]
        design[sl, 1 + 2 * i] = taus_l[i]
        design[sl, 2 + 2 * i] = 1.0
        p_lin[sl] = (
            theta_hat[0] * coefs[i]
            + theta_hat[1 + 2 * i] * taus_l[i]
            + theta_hat[2 + 2 * i]
        )
        k_all[sl] = k_l[i]
        n_all[sl] = n_l[i]
        row += npts
    info = _binomial_information(design, k_all, n_all, p_lin)
    cov = _invert_information(info, scales)
    params = {"a0": float(theta_hat[0])}
    for i, s in enumerate(series):
        params[f"b_{s.alpha_sq:g}"] = float(theta_hat[1 + 2 * i])
        params[f"c_{s.alpha_sq:g}"] = float(theta_hat[2 + 2 * i])
    sigma_a0 = float(math.sqrt(max(cov[0, 0], 0.0)))
    boundary = theta_hat[0] <= 1e-6 * max(sigma_a0, 1e-300)
    return FitResult(params, cov, -fval, boundary_hit=bool(boundary))


# ---------------------------------------------------------------------------
# exclusion limits


def epsilon_limit(
    a0: float,
    sigma_a0: float,
    point: SearchPoint,
    halo: HaloParams = HaloParams(),
    rho_m_v: float | None = None,
) -> ExclusionPoint:
    """90% C.L. mixing limit from the fitted signal strength.

    epsilon0 = sqrt(a0 / (rho_DM m_DM V_eff)), sigma from the a0 term of the
    error propagation (the dominant one), eps90 = epsilon0 + 1.28 sigma.
    a0 = 0 falls back to the pure-sigma form sqrt(1.28 sigma_a0 / denom),
    reported with epsilon0 = 0 and sigma_eps = eps90/1.28 so the quantile
    identity still holds.  rho_m_v overrides the computed denominator (useful
    for cross-checking published arithmetic at rounded inputs).
    """
    if a0 < 0.0 or sigma_a0 < 0.0:
        raise ConfigError("a0 and sigma_a0 must be >= 0")
    denom = rho_m_veff(point, halo) if rho_m_v is None else float(rho_m_v)
    if not denom > 0.0:
        raise ZeroSignalDenominator(f"rho*m*V must be > 0, got {denom!r}")
    if a0 == 0.0:
        if sigma_a0 == 0.0:
            raise ZeroSignalDenominator("a0 = sigma_a0 = 0 carries no limit")
        eps90 = math.sqrt(GAUSS_90 * sigma_a0 / denom)
        return ExclusionPoint(point.m_dm, 0.0, eps90 / GAUSS_90, eps90)
    eps0 = math.sqrt(a0 / denom)
    sigma = eps0 * sigma_a0 / (2.0 * a0)
    return ExclusionPoint(point.m_dm, eps0, sigma, eps0 + GAUSS_90 * sigma)


def off_resonance_limit(
    eps90_on,
    m_grid,
    point: SearchPoint,
    halo: HaloParams = HaloParams(),
    tau: float = 1e-4,
) -> list[ExclusionPoint]:
    """Exclusion curve away from resonance: the on-resonance limit rescaled
    by sqrt(g_resonant / g(m)) with the cavity frequency held fixed.

    eps90_on may be a float (pure limit) or an ExclusionPoint (central value
    and sigma are rescaled together)."""
    wc = point.effective_omega_c()
    g_res = g_of_t(tau, point, halo)
    if not g_res > 0.0:
        raise QuadratureFailure("no on-resonance response")
    if isinstance(eps90_on, ExclusionPoint):
        base0, base_sig = eps90_on.epsilon0, eps90_on.sigma_eps
    else:
        base0, base_sig = float(eps90_on), 0.0
    out = []
    for m in np.atleast_1d(np.asarray(m_grid, dtype=float)):
        probe = SearchPoint(m_dm=float(m), omega_c=wc, v_eff=point.v_eff)
        g_m = g_of_t(tau, probe, halo)
        if not g_m > 0.0:
            raise QuadratureFailure(f"no response at m_dm = {m!r}")
        scale = math.sqrt(g_res / g_m)
        e0, sig = base0 * scale, base_sig * scale
        out.append(ExclusionPoint(float(m), e0, sig, e0 + GAUSS_90 * sig))
    return out


# ---------------------------------------------------------------------------
# threshold sweep


@dataclass(frozen=True)
class SweepPoint:
    threshold: float
    eta: float
    delta: float
    ratio: float


def threshold_sweep(campaign, model, thresholds) -> list[SweepPoint]:
    """Efficiency and false-positive rate against the decision threshold on
    one truth-labeled campaign.  Posteriors are computed once; each threshold
    only re-cuts the likelihood ratios."""
    records, _ = postselect(campaign.records)
    if not records:
        raise ConfigError("campaign has no analyzable records")
    if records.injected is None:
        raise ConfigError("threshold sweep needs truth-labeled records")
    _, lams = batch_posteriors(model, records)
    injected = records.injected
    n_pos = int(np.sum(injected))
    n_neg = injected.size - n_pos
    rows = []
    for th in sorted(float(t) for t in thresholds):
        pos = lams > th
        eta = float(np.mean(pos[injected])) if n_pos else math.nan
        delta = float(np.mean(pos[~injected])) if n_neg else math.nan
        if math.isnan(eta) or math.isnan(delta):
            ratio = math.nan
        elif eta > 0.0:
            ratio = delta / eta
        else:
            ratio = math.nan if delta == 0.0 else math.inf
        rows.append(SweepPoint(th, eta, delta, ratio))
    return rows


# ---------------------------------------------------------------------------
# frequency-scan background subtraction


@dataclass(frozen=True)
class BinLimit:
    omega: float
    n_norm: float
    p_i: float
    sigma_p: float
    eps90: float

    def __post_init__(self):
        for name in ("omega", "n_norm", "p_i", "sigma_p", "eps90"):
            object.__setattr__(self, name, float(getattr(self, name)))


@dataclass(frozen=True)
class BackgroundResult:
    bins: tuple
    n_bar: float
    sigma_n: float
    eta_fit: float


def _truncated_gauss_q90(mu: float, sigma: float) -> float:
    """0.9 quantile of a Gaussian truncated to [0, inf)."""
    lo, hi = 0.0, max(mu, 0.0) + 20.0 * sigma
    base = ndtr(-mu / sigma)
    norm = 1.0 - base
    if norm <= 0.0:  # mean buried far below zero; quantile collapses to ~0
        return 1e-12 * sigma
    target = base + 0.9 * norm
    while hi - lo > 1e-12 * max(hi, 1e-300):
        mid = 0.5 * (lo + hi)
        if ndtr((mid - mu) / sigma) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def background_subtract(
    bins, point: SearchPoint, halo: HaloParams = HaloParams(),
    per_bin_mass: bool = False,
) -> BackgroundResult:
    """Per-bin residual rates and 90% upper limits for the frequency scan.

    Normalized rates n_i = n_meas/(eta * n_trials) are compared against
    their trial-weighted mean; residuals are expressed in units of the
    epsilon=1 signal expectation n_ref = eta_fit * rho m V * T1c * F(omega),
    with eta_fit = 1 - 1/N accounting for the signal leaking into the mean.
    Bin variances are binomial with a one-count floor.  The limit per bin is
    the 0.9 quantile of a Gaussian in epsilon^2 truncated at zero.

    With per_bin_mass each bin is tested against its own resonant mass
    m_i = omega_i / (1 + detuning offset) instead of the single point.m_dm,
    which is how a scan turns into a limit curve; point then only supplies
    the mode volume.
    """
    bins = list(bins)
    if len(bins) < 2:
        raise SingleBin("background subtraction needs at least 2 bins")
    w = np.array([b.n_trials_i for b in bins], dtype=float)
    n_i = np.array([b.n_meas_i / (b.eta_i * b.n_trials_i) for b in bins])
    n_bar = float(np.sum(w * n_i) / np.sum(w))
    sigma_n = float(math.sqrt(np.sum(w * (n_i - n_bar) ** 2) / np.sum(w)))
    eta_fit = 1.0 - 1.0 / len(bins)
    rv = rho_m_veff(point, halo)
    out = []
    for b, ni in zip(bins, n_i):
        pt = point
        if per_bin_mass:
            pt = SearchPoint(
                m_dm=b.omega_i / (1.0 + OMEGA_M_OFFSET), v_eff=point.v_eff
            )
            rv = rho_m_veff(pt, halo)
        shape = 2.0 * math.pi * float(lineshape(b.omega_i, pt, halo))
        n_ref = eta_fit * rv * b.t1c_i * shape
        if not n_ref > 0.0:
            raise ZeroSignalDenominator(
                f"bin at omega={b.omega_i!r} has no signal response"
            )
        p_hat = b.n_meas_i / b.n_trials_i
        p_eff = max(p_hat, 1.0 / b.n_trials_i)  # one-count variance floor
        sig_n = math.sqrt(p_eff * (1.0 - p_eff) / b.n_trials_i) / b.eta_i
        p_i = (ni - n_bar) / n_ref
        sigma_p = sig_n / n_ref
        eps90 = math.sqrt(_truncated_gauss_q90(p_i, sigma_p))
        out.append(BinLimit(b.omega_i, float(ni), p_i, sigma_p, eps90))
    return BackgroundResult(tuple(out), n_bar, sigma_n, eta_fit)


# ---------------------------------------------------------------------------
# small calibration utilities


def zne_extrapolate(durations, populations):
    """Linear extrapolation of (P0, P1) to zero pulse duration.

    Returns ((P0, err0), (P1, err1)); negative intercepts are clipped to 0
    with a warning.  With exactly two durations the fit is exact and the
    errors are 0."""
    d = np.asarray(durations, dtype=float)
    pops = np.asarray(populations, dtype=float)
    if d.size < 2 or np.unique(d).size < 2:
        raise DegenerateDesign("need >= 2 distinct durations")
    if pops.shape != (d.size, 2):
        raise ConfigError(f"populations must be ({d.size}, 2), got {pops.shape}")
    design = np.column_stack([d, np.ones_like(d)])
    gram_inv = np.linalg.inv(design.T @ design)
    out = []
    for col in range(2):
        coef, *_ = np.linalg.lstsq(design, pops[:, col], rcond=None)
        resid = pops[:, col] - design @ coef
        dof = d.size - 2
        s2 = float(resid @ resid) / dof if dof > 0 else 0.0
        err = math.sqrt(s2 * gram_inv[1, 1])
        intercept = float(coef[1])
        if intercept < 0.0:
            warnings.warn(
                f"extrapolated population {intercept:.3e} clipped to 0", stacklevel=2
            )
            intercept = 0.0
        out.append((intercept, err))
    return tuple(out)


def beta_from_ratio(p1: float, p0: float) -> float:
    """|beta| from the one- to zero-photon population ratio of a weak
    coherent state: p1/p0 = |beta|^2."""
    if not p0 > 0.0:
        raise ZeroP0(f"P0 must be > 0, got {p0!r}")
    if p1 < 0.0:
        raise NegativeProbability(f"P1 must be >= 0, got {p1!r}")
    return math.sqrt(p1 / p0)


# ---------------------------------------------------------------------------
# serialization


def fit_result_to_json(fit: FitResult) -> str:
    doc = {
        "params": fit.params,
        "covariance": fit.covariance.tolist(),
        "log_likelihood": fit.log_likelihood,
        "boundary_hit": fit.boundary_hit,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def exclusion_to_csv(points) -> str:
    lines = ["m_dm_hz,eps90"]
    for p in points:
        lines.append(f"{float(p.m_dm / (2.0 * math.pi))!r},{float(p.eps90)!r}")
    return "\n".join(lines) + "\n"


def sweep_to_csv(rows) -> str:
    lines = ["threshold,eta,delta,delta_over_eta"]
    for r in rows:
        lines.append(
            f"{float(r.threshold)!r},{float(r.eta)!r},{float(r.delta)!r},{float(r.ratio)!r}"
        )
    return "\n".join(lines) + "\n"
