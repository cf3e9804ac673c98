"""Statistical layer: detector calibration, the joint search fit, error
propagation to the kinetic-mixing parameter, threshold sweeps, frequency-bin
background subtraction, and exclusion limits.

Count data is fit with the exact binomial likelihood (several baseline rates
are O(1e-3) at 1e4 trials, where a Gaussian approximation misbehaves).  Both
fits have a rate affine in the parameters and clipped to [0, 1], so their
log-likelihood is concave; one active-set Newton solver maximizes it, and
the covariance is the inverse Fisher information at the optimum.  Reported
log-likelihoods omit the data-only combinatorial constant, which makes them
invariant under rebinning trials at fixed rates.  The one-sided 90% Gaussian
quantile is hard-coded as 1.28 (not 1.2816) to match the published
arithmetic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .darkmatter import (
    OMEGA_M_OFFSET,
    HaloParams,
    SearchPoint,
    lineshape,
    rho_m_veff,
)
from .errors import (
    ConfigError,
    DegenerateDesign,
    NonConvergence,
    SingleBin,
    ZeroBaseline,
    ZeroEfficiency,
    ZeroSignalDenominator,
)
from .hmm import batch_posteriors, postselect
from .special import ndtr, xlogy

# No optimizer is used here.  The benchmark's tracer (perfbench/spans.py)
# still wraps these two attributes of this module and fails if they are
# missing; they go once the run reports on itself (ROADMAP item 1).
minimize = minimize_scalar = None

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
    """Named estimates, covariance (ordered like params), the binomial
    log-likelihood without its combinatorial constant, and the number of
    solver iterations."""

    params: dict
    covariance: np.ndarray
    log_likelihood: float
    boundary_hit: bool = False
    iterations: int = 0

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


def _column_scales(design) -> np.ndarray:
    """1 / the largest |entry| of each design column (1 for a zero column):
    the units, with every column of order one, that the solver and the
    covariance work in."""
    top = np.max(np.abs(design), axis=0, initial=0.0)
    return 1.0 / np.where(top > 0.0, top, 1.0)


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


_MAX_ITERATIONS = 200


def _maximize(design, k, n, start, nonneg_first: bool = False):
    """theta maximizing sum k log p + (n - k) log(1 - p), p = clip(design @
    theta, 0, 1), with theta[0] >= 0 if nonneg_first; start must put every
    row with 0 < k < n strictly inside (0, 1).  Returns (theta, iterations).

    The objective is concave but kinked where a row with k = 0 meets the
    clip at rate 0 (k = n: at 1), and projected Newton zigzags across the
    kink.  Each such row gets a slack u >= max(y, 0), y = rate (k = 0) or
    1 - rate (k = n), and contributes n log(1 - u): a smooth objective under
    linear constraints A z >= b on z = (column-scaled theta, u).  Active-set
    Newton (Boyd & Vandenberghe, Convex Optimization, ch. 10-11) steps in the
    null space of the working set, stops at the first blocking constraint,
    backtracks to sufficient ascent, and frees a constraint whose multiplier
    is negative.  It returns once the predicted gain is below 1e-12 with no
    negative multiplier (the KKT conditions), and raises NonConvergence if
    that takes more than _MAX_ITERATIONS steps."""
    n = np.asarray(n, dtype=float)
    rows = n > 0.0  # a row with no trials carries no likelihood
    scale = _column_scales(design)
    x = np.asarray(design, dtype=float)[rows] * scale
    k, n = np.asarray(k, dtype=float)[rows], n[rows]
    inner = (k > 0.0) & (k < n)
    xi, ki, ni = x[inner], k[inner], n[inner]
    xk, nk = x[~inner], n[~inner]
    sign = np.where(k[~inner] == 0.0, 1.0, -1.0)  # y = sign * rate + (1 - sign) / 2
    p, q = x.shape[1], nk.size
    a = np.vstack(
        [
            np.eye(1, p + q)[: int(nonneg_first)],
            np.hstack([np.zeros((q, p)), np.eye(q)]),
            np.hstack([-sign[:, None] * xk, np.eye(q)]),
        ]
    )
    b = np.concatenate([np.zeros(int(nonneg_first) + q), (1.0 - sign) / 2.0])
    theta = np.asarray(start, dtype=float) / scale
    z = np.concatenate([theta, np.maximum(sign * (xk @ theta) + (1.0 - sign) / 2.0, 0.0)])
    work: list[int] = []
    for j in np.flatnonzero(a @ z - b <= 1e-12):
        if np.linalg.matrix_rank(a[work + [j]]) > len(work):
            work.append(int(j))

    def change(z, d) -> float:
        """f(z + d) - f(z), summed term by term so it stays exact when tiny."""
        r, dr, u, du = xi @ z[:p], xi @ d[:p], z[p:], d[p:]
        if np.any(r + dr <= 0.0) or np.any(r + dr >= 1.0) or np.any(u + du >= 1.0):
            return -math.inf
        return float(
            np.sum(ki * np.log1p(dr / r) + (ni - ki) * np.log1p(-dr / (1.0 - r)))
            + np.sum(nk * np.log1p(-du / (1.0 - u)))
        )

    for it in range(1, _MAX_ITERATIONS + 1):
        r, u = xi @ z[:p], z[p:]
        grad = np.concatenate([xi.T @ (ki / r - (ni - ki) / (1.0 - r)), -nk / (1.0 - u)])
        curv = np.zeros((p + q, p + q))  # minus the Hessian
        curv[:p, :p] = _binomial_information(xi, ki, ni, r)
        curv[p:, p:] = np.diag(nk / (1.0 - u) ** 2)
        null = np.linalg.svd(a[work])[2][len(work):].T
        w, v = np.linalg.eigh(null.T @ curv @ null)
        w = np.maximum(w, 1e-12 * np.max(w, initial=1.0))
        d = null @ (v @ ((v.T @ (null.T @ grad)) / w))
        slope = float(grad @ d)
        if slope <= 2e-12:
            if not work:
                return z[:p] * scale, it
            mu = np.linalg.lstsq(a[work].T, curv @ d - grad, rcond=None)[0]
            if mu.min() >= -1e-9 * (1.0 + np.abs(grad).max()):
                return z[:p] * scale, it
            work.pop(int(np.argmin(mu)))
            continue
        ad = a @ d
        hit = ad < -1e-12 * np.abs(d).max()
        hit[work] = False
        steps = np.maximum(a[hit] @ z - b[hit], 0.0) / -ad[hit]
        t, block = 1.0, None
        if steps.size and steps.min() < 1.0:
            t, block = float(steps.min()), int(np.flatnonzero(hit)[np.argmin(steps)])
        reach = t
        while t > 0.0 and change(z, t * d) < 1e-4 * t * slope:
            t *= 0.5
            if t < 1e-12 * reach:
                raise NonConvergence(f"fit line search stalled at iteration {it}")
        z = z + t * d
        if block is not None and t == reach:
            work.append(block)
    raise NonConvergence(f"fit did not converge in {_MAX_ITERATIONS} iterations")


def _covariance(design, k, n, theta) -> np.ndarray:
    """Inverse observed information at theta."""
    info = _binomial_information(design, k, n, design @ theta)
    return _invert_information(info, _column_scales(design))


# ---------------------------------------------------------------------------
# detector calibration


def calibrate_detector(curve: CalibrationCurve) -> FitResult:
    """Binomial MLE of k_pos ~ Binomial(n_trials, eta*alpha_sq*n_inj + delta),
    rate clipped to [0, 1].  Returns params {'eta', 'delta'} with Fisher
    covariance."""
    a2 = float(curve.alpha_sq)
    pts = np.array(curve.points, dtype=float)
    n_inj, k, n = pts[:, 0], pts[:, 1], pts[:, 2]
    if np.unique(n_inj).size < 3:
        raise DegenerateDesign("need at least 3 distinct n_inj values")
    design = np.column_stack([a2 * n_inj, np.ones_like(n_inj)])
    theta, iterations = _maximize(design, k, n, [0.0, k.sum() / n.sum()])
    ll = _binom_ll(k, n, np.clip(design @ theta, 0.0, 1.0))
    params = {"eta": float(theta[0]), "delta": float(theta[1])}
    return FitResult(params, _covariance(design, k, n, theta), ll, iterations=iterations)


def enhancement_factor(eta_alpha: float, alpha_sq: float, eta_0: float) -> float:
    """Detection-rate gain of the compass probe over the vacuum probe:
    eta_alpha * alpha_sq / eta_0."""
    if not eta_0 > 0.0:
        raise ZeroBaseline(f"vacuum baseline efficiency must be > 0, got {eta_0!r}")
    return eta_alpha * alpha_sq / eta_0


# ---------------------------------------------------------------------------
# joint search fit


def search_fit(series, g, eta_alpha) -> FitResult:
    """Joint MLE over all probe amplitudes with a shared signal strength a0.

    The rate of series i at tau is a0*eta_i*alpha_sq_i*g(tau) + b_i*tau + c_i,
    clipped to [0, 1]; params come out as {'a0', 'b_<alpha_sq>',
    'c_<alpha_sq>', ...}.  a0 >= 0 is a constraint of the fit.  When a0 ends
    within 1e-6 sigma of zero it is reported as exactly 0 with
    boundary_hit=True, and log_likelihood is taken at the reported
    parameters.  Covariance is the inverse Fisher information in (a0, b, c).
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

    m = len(series)
    # g does not depend on the probe: one evaluation per distinct tau
    g_at = {t: float(g(t)) for t in {t for s in series for t in s.taus}}
    blocks = []
    start = np.zeros(1 + 2 * m)  # a0 = 0, no slope, each series' pooled rate
    for i, s in enumerate(series):
        block = np.zeros((len(s.taus), 1 + 2 * m))
        block[:, 0] = [eta_alpha[i] * s.alpha_sq * g_at[t] for t in s.taus]
        block[:, 1 + 2 * i] = s.taus
        block[:, 2 + 2 * i] = 1.0
        blocks.append(block)
        start[2 + 2 * i] = sum(s.k_pos) / max(sum(s.n_trials), 1)
    design = np.vstack(blocks)
    k = np.concatenate([s.k_pos for s in series]).astype(float)
    n = np.concatenate([s.n_trials for s in series]).astype(float)

    theta, iterations = _maximize(design, k, n, start, nonneg_first=True)
    cov = _covariance(design, k, n, theta)
    boundary = theta[0] <= 1e-6 * max(math.sqrt(max(cov[0, 0], 0.0)), 1e-300)
    if boundary:
        theta[0] = 0.0
    ll = _binom_ll(k, n, np.clip(design @ theta, 0.0, 1.0))
    params = {"a0": float(theta[0])}
    for i, s in enumerate(series):
        params[f"b_{s.alpha_sq:g}"] = float(theta[1 + 2 * i])
        params[f"c_{s.alpha_sq:g}"] = float(theta[2 + 2 * i])
    return FitResult(params, cov, ll, boundary_hit=bool(boundary), iterations=iterations)


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
# serialization


def fit_result_to_json(fit: FitResult) -> str:
    doc = {
        "params": fit.params,
        "covariance": fit.covariance.tolist(),
        "log_likelihood": fit.log_likelihood,
        "boundary_hit": fit.boundary_hit,
        "iterations": fit.iterations,
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
