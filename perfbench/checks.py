"""Independent checks of catscope's artifacts.

Nothing here calls catscope: the halo model, the g(t) quadrature, the
search likelihood, its maximizer and the limit arithmetic are written out
again from their definitions, and every check compares an artifact with a
formula of the run's inputs, never with a stored copy of an earlier output.
Each check raises CheckFailed with the file and the number that broke it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# CODATA 2018 (exact SI values)
E_CHARGE = 1.602176634e-19  # C
HBAR = 6.62607015e-34 / (2.0 * math.pi)  # J s
C_KM_S = 299792.458
GEV_RAD_S = 1e9 * E_CHARGE / HBAR  # 1 GeV as an angular frequency
GAUSS_90 = 1.28  # the one-sided 90% quantile as the published limit rounds it
OMEGA_C_OFFSET = 3e-7  # config convention: omega_c null means (1 + 3e-7) m_dm

# composite Gauss-Legendre rule on [0, 1]: 4000 panels of 12 nodes
_X, _W = np.polynomial.legendre.leggauss(12)
_PANELS = 4000
_NODES = ((np.arange(_PANELS)[:, None] + 0.5 * (_X[None, :] + 1.0)) / _PANELS).ravel()
_WEIGHTS = np.tile(0.5 * _W / _PANELS, _PANELS)


class CheckFailed(Exception):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# standard halo model


class Halo:
    """Boosted Maxwellian halo and one search point, from a catscope config."""

    def __init__(self, cfg: dict):
        h, p = cfg["halo"], cfg["point"]
        self.rho, self.v_vir, self.v_g = h["rho_dm"], h["v_vir"], h["v_g"]
        self.m = p["m_dm"]
        self.v_eff = p["v_eff"]
        self.omega_c = p["omega_c"] or (1.0 + OMEGA_C_OFFSET) * self.m
        self.v_max = (self.v_g + 8.0 * self.v_vir) / C_KM_S

    def speed_pdf(self, u):
        """Density of the speed u (a fraction of c), per unit u."""
        v = np.asarray(u) * C_KM_S
        gauss = np.exp(-((v - self.v_g) ** 2) / self.v_vir**2) - np.exp(
            -((v + self.v_g) ** 2) / self.v_vir**2
        )
        return C_KM_S * v * gauss / (math.sqrt(math.pi) * self.v_vir * self.v_g)

    def lineshape(self, omega):
        """f(omega) for omega = m (1 + u^2 / 2): f_u(u) / (m u), 0 below m."""
        rel = 2.0 * (np.asarray(omega, dtype=float) / self.m - 1.0)
        u = np.sqrt(np.clip(rel, 0.0, None))
        safe = np.where(u > 0.0, u, 1.0)
        return np.where(u > 0.0, self.speed_pdf(safe) / (self.m * safe), 0.0)

    def coherence_time(self) -> float:
        """2 pi times the peak of the lineshape, found on a fine speed grid."""
        u = np.linspace(1e-6, self.v_max, 200001)
        f = self.lineshape(self.m * (1.0 + u * u / 2.0))
        i = int(np.argmax(f))
        lo, hi = u[max(i - 1, 0)], u[min(i + 1, u.size - 1)]
        fine = np.linspace(lo, hi, 2001)
        return 2.0 * math.pi * float(np.max(self.lineshape(self.m * (1.0 + fine**2 / 2.0))))

    def g(self, t: float) -> float:
        """g(t) = int du f_u(u) [sin(d t / 2) / (d / 2)]^2, d = m(1 + u^2/2) - omega_c."""
        u = _NODES * self.v_max
        d = self.m * (1.0 + u * u / 2.0) - self.omega_c
        kernel = t * t * np.sinc(d * t / (2.0 * math.pi)) ** 2
        return float(self.v_max * np.sum(_WEIGHTS * self.speed_pdf(u) * kernel))

    def rho_m_v(self) -> float:
        return self.rho * self.v_eff * GEV_RAD_S * self.m


# ---------------------------------------------------------------------------
# artifacts common to every command


def check_manifest(run_dir: Path) -> dict:
    """Every SHA-256 in manifest.json matches its file, and no file is
    missing from or extra to the manifest.  Returns the manifest."""
    man = json.loads((run_dir / "manifest.json").read_text())
    on_disk = sorted(p.name for p in run_dir.iterdir() if p.name != "manifest.json")
    require(
        on_disk == sorted(man["files"]),
        f"{run_dir.name}: files {on_disk} differ from the manifest {sorted(man['files'])}",
    )
    for name, digest in man["files"].items():
        actual = hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
        require(actual == digest, f"{run_dir.name}/{name}: sha256 {actual} != manifest {digest}")
    return man


# ---------------------------------------------------------------------------
# search


def check_counts(rows: list[dict], trials: int, where: str) -> tuple[int, int]:
    """n_kept + n_dropped = trials and 0 <= k_pos <= n_kept on every row.
    Returns (dropped, simulated) for the leakage check."""
    dropped = 0
    for r in rows:
        k, kept, drop = int(r["k_pos"]), int(r["n_kept"]), int(r["n_dropped"])
        require(kept + drop == trials, f"{where}: n_kept + n_dropped = {kept + drop} != {trials}")
        require(0 <= k <= kept, f"{where}: k_pos = {k} outside [0, n_kept = {kept}]")
        dropped += drop
    return dropped, trials * len(rows)


def check_leakage(dropped: int, simulated: int, p_leak: float, repeats: int) -> None:
    """The share of records with a leaked symbol is 1 - (1 - p_leak)^repeats,
    within five binomial standard deviations."""
    p = 1.0 - (1.0 - p_leak) ** repeats
    band = 5.0 * math.sqrt(p * (1.0 - p) / simulated) + 1.0 / simulated
    share = dropped / simulated
    require(
        abs(share - p) <= band,
        f"leaked share {share:.5f} of {simulated} records is not {p:.5f} +- {band:.5f}",
    )


class SearchData:
    """rates.csv as the likelihood sees it: one block per probe."""

    def __init__(self, rows: list[dict], halo: Halo):
        labels = list(dict.fromkeys(r["probe"] for r in rows))
        self.alpha_sq, self.blocks = [], []
        g_cache: dict[float, float] = {}
        for label in labels:
            sel = [r for r in rows if r["probe"] == label]
            a2, eta = float(sel[0]["alpha_sq"]), float(sel[0]["eta"])
            tau = np.array([float(r["tau"]) for r in sel])
            for t in tau:
                if t not in g_cache:
                    g_cache[t] = halo.g(t)
            coef = eta * a2 * np.array([g_cache[t] for t in tau])
            k = np.array([int(r["k_pos"]) for r in sel], dtype=float)
            n = np.array([int(r["n_kept"]) for r in sel], dtype=float)
            self.alpha_sq.append(a2)
            self.blocks.append((coef, tau, k, n))
        m = len(self.blocks)
        self.design = np.vstack(
            [self._rows(i, coef, tau, m) for i, (coef, tau, _, _) in enumerate(self.blocks)]
        )
        self.k = np.concatenate([b[2] for b in self.blocks])
        self.n = np.concatenate([b[3] for b in self.blocks])

    @staticmethod
    def _rows(i, coef, tau, m):
        x = np.zeros((tau.size, 1 + 2 * m))
        x[:, 0] = coef
        x[:, 1 + 2 * i] = tau
        x[:, 2 + 2 * i] = 1.0
        return x

    def theta(self, params: dict) -> np.ndarray:
        out = [params["a0"]]
        for a2 in self.alpha_sq:
            out += [params[f"b_{a2:g}"], params[f"c_{a2:g}"]]
        return np.array(out, dtype=float)

    def log_likelihood(self, theta) -> float:
        """sum k log p + (n - k) log(1 - p), p = clip(rate, 0, 1), with
        0 log 0 = 0: the binomial likelihood without its constant."""
        p = np.clip(self.design @ theta, 0.0, 1.0)
        k, rest = self.k, self.n - self.k
        if np.any((p == 0.0) & (k > 0)) or np.any((p == 1.0) & (rest > 0)):
            return -math.inf
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(k > 0, k * np.log(p), 0.0) + np.where(
                rest > 0, rest * np.log1p(-p), 0.0
            )
        return float(np.sum(terms))

    def maximize(self, start) -> tuple[np.ndarray, float]:
        """Projected Newton ascent with a0 >= 0 and backtracking.

        The log-likelihood is concave in (a0, b_i, c_i) where the rate is
        inside (0, 1), so from a feasible start this reaches the bounded
        maximum; a0 is held at zero while the gradient pushes it below."""
        x = self.design
        scale = 1.0 / np.maximum(np.max(np.abs(x), axis=0), 1e-300)
        xs = x * scale  # work in theta / scale, columns of order one
        z = np.asarray(start, dtype=float) / scale
        z[0] = max(z[0], 0.0)
        f = self.log_likelihood(z * scale)
        for _ in range(200):
            p = xs @ z
            inside = (p > 0.0) & (p < 1.0)  # clipped points are locally flat
            q = np.where(inside, p, 0.5)
            k, rest = self.k, self.n - self.k
            grad = np.where(inside, k / q - rest / (1.0 - q), 0.0)
            curv = np.where(inside, k / q**2 + rest / (1.0 - q) ** 2, 0.0)
            g = xs.T @ grad
            h = (xs * curv[:, None]).T @ xs
            free = np.ones(z.size, dtype=bool)
            if z[0] <= 0.0 and g[0] < 0.0:
                free[0] = False
            step = np.zeros_like(z)
            hf = h[np.ix_(free, free)] + 1e-12 * np.eye(int(free.sum()))
            step[free] = np.linalg.solve(hf, g[free])
            t = 1.0
            while t > 1e-12:
                trial = z + t * step
                trial[0] = max(trial[0], 0.0)
                f_new = self.log_likelihood(trial * scale)
                if f_new >= f:
                    break
                t *= 0.5
            else:
                break
            gain = f_new - f
            z, f = trial, f_new
            if gain < 1e-13 * max(1.0, abs(f)):
                break
        return z * scale, f

    def plain_start(self) -> np.ndarray:
        """a0 = 0, no slope, each probe's pooled rate: always feasible."""
        out = [0.0]
        for coef, tau, k, n in self.blocks:
            out += [0.0, float(k.sum() / n.sum())]
        return np.array(out)


def check_fit(rates: list[dict], fit: dict, halo: Halo, where: str) -> None:
    """fit.json's log_likelihood is the likelihood of rates.csv at its
    parameters, and no bounded optimizer finds a higher one."""
    data = SearchData(rates, halo)
    theta = data.theta(fit["params"])
    ll = data.log_likelihood(theta)
    tol = 1e-8 * max(1.0, abs(ll))
    require(
        abs(ll - fit["log_likelihood"]) <= tol,
        f"{where}: log_likelihood {fit['log_likelihood']!r} != {ll!r} recomputed at the fit's parameters",
    )
    best = max(
        (data.maximize(s) for s in (data.plain_start(), theta)), key=lambda r: r[1]
    )
    require(
        ll >= best[1] - 1e-6,
        f"{where}: fit log_likelihood {ll!r} is below the bounded maximum {best[1]!r} "
        f"(a0 {float(theta[0])!r} vs {float(best[0][0])!r})",
    )


def sigma_a0(fit: dict) -> float:
    return math.sqrt(max(fit["covariance"][0][0], 0.0))


def check_limit(limits: list[dict], fit: dict, halo: Halo, where: str) -> float:
    """limits.csv holds eps90 = eps0 + 1.28 sigma_eps with eps0 =
    sqrt(a0 / (rho m V)), sigma_eps = eps0 sigma_a0 / (2 a0); at a0 = 0 the
    pure-sigma limit sqrt(1.28 sigma_a0 / (rho m V)).  Returns eps90."""
    require(len(limits) == 1, f"{where}: limits.csv has {len(limits)} rows, want 1")
    a0, sig = fit["params"]["a0"], sigma_a0(fit)
    rmv = halo.rho_m_v()
    if a0 > 0.0:
        eps0 = math.sqrt(a0 / rmv)
        want = eps0 + GAUSS_90 * eps0 * sig / (2.0 * a0)
    else:
        want = math.sqrt(GAUSS_90 * sig / rmv)
    row = limits[0]
    m_hz = halo.m / (2.0 * math.pi)
    require(
        abs(float(row["m_dm_hz"]) - m_hz) <= 1e-12 * m_hz,
        f"{where}: m_dm_hz {row['m_dm_hz']} != {m_hz!r}",
    )
    got = float(row["eps90"])
    require(abs(got - want) <= 1e-9 * want, f"{where}: eps90 {got!r} != {want!r}")
    return got


def check_boundary(fit: dict, where: str) -> None:
    """boundary_hit is set exactly when a0 sits on zero, at the fit's
    resolution of 1e-6 sigma_a0."""
    on_zero = fit["params"]["a0"] <= 1e-6 * sigma_a0(fit)
    require(
        bool(fit["boundary_hit"]) == on_zero,
        f"{where}: boundary_hit {fit['boundary_hit']} with a0 = {fit['params']['a0']!r}, "
        f"sigma_a0 = {sigma_a0(fit)!r}",
    )


def check_search_dir(run_dir: Path, cfg: dict, halo: Halo) -> dict:
    """Fit and limit checks of one search run directory.  Returns the
    counts and results the workload-level checks pool."""
    where = run_dir.name
    check_manifest(run_dir)
    rates = read_csv(run_dir / "rates.csv")
    fit = json.loads((run_dir / "fit.json").read_text())
    dropped, simulated = check_counts(rates, cfg["search"]["trials"], f"{where}/rates.csv")
    if (run_dir / "calibration.csv").exists():
        d, s = check_counts(
            read_csv(run_dir / "calibration.csv"),
            cfg["calibration"]["trials"],
            f"{where}/calibration.csv",
        )
        dropped, simulated = dropped + d, simulated + s
    check_fit(rates, fit, halo, where)
    eps90 = check_limit(read_csv(run_dir / "limits.csv"), fit, halo, where)
    return {"dropped": dropped, "simulated": simulated, "eps90": eps90, "fit": fit}


def binomial_floor(n: int, p: float, alpha: float = 1e-4) -> int:
    """Largest k with P(X < k) <= alpha for X ~ Binomial(n, p)."""
    cdf, k = 0.0, 0
    while k <= n:
        cdf_next = cdf + math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
        if cdf_next > alpha:
            return k
        cdf, k = cdf_next, k + 1
    return n


def check_coverage(eps90s: list[float], planted: float) -> None:
    """eps90 >= the planted epsilon in as many toys as Binomial(N, 0.9)
    allows at the 1e-4 level."""
    covered = sum(e >= planted for e in eps90s)
    need = binomial_floor(len(eps90s), 0.9)
    require(
        covered >= need,
        f"eps90 covers the planted epsilon {planted!r} in {covered} of {len(eps90s)} toys; "
        f"Binomial(N, 0.9) needs at least {need}",
    )


# ---------------------------------------------------------------------------
# figures


def check_growth(rows: list[dict], halo: Halo) -> None:
    """g(t) ~ t^2 well below the coherence time and ~ tau_DM t well above it,
    and every g equals this module's own quadrature."""
    tau = halo.coherence_time()
    t0, g0 = float(rows[0]["t"]), float(rows[0]["g"])
    t1, g1 = float(rows[-1]["t"]), float(rows[-1]["g"])
    require(abs(t0 / (tau / 100.0) - 1.0) < 1e-3, f"first time {t0!r} is not tau_DM/100")
    require(abs(t1 / (20.0 * tau) - 1.0) < 1e-3, f"last time {t1!r} is not 20 tau_DM")
    require(0.95 <= g0 / t0**2 <= 1.05, f"g/t^2 = {g0 / t0**2!r} at tau_DM/100")
    require(0.9 <= g1 / (tau * t1) <= 1.1, f"g/(tau_DM t) = {g1 / (tau * t1)!r} at 20 tau_DM")
    for r in rows:
        t, g = float(r["t"]), float(r["g"])
        want = halo.g(t)
        require(abs(g - want) <= 1e-6 * want, f"g({t!r}) = {g!r}, quadrature gives {want!r}")


def check_lineshape(rows: list[dict], halo: Halo) -> None:
    omega = np.array([float(r["omega"]) for r in rows])
    f = np.array([float(r["f"]) for r in rows])
    want = halo.lineshape(omega)
    bad = np.abs(f - want) > 1e-9 * np.max(want)
    require(not bad.any(), f"lineshape differs from the halo model at omega = {omega[bad][:3]}")


def check_transitions(rows: list[dict], alpha_sq: float, t1c: float) -> None:
    """Probabilities in [0, 1]; the identity at t = 0; row sums at most 1,
    falling to about 0.85 by T1c/4 as loss leaves the code space; and
    1 - P_jj = alpha^2 kappa t to first order at the first step."""
    table: dict[float, dict] = {}
    for r in rows:
        p = float(r["p"])
        require(0.0 <= p <= 1.0, f"transition probability {p!r} outside [0, 1]")
        table.setdefault(float(r["t"]), {})[(int(r["j"]), int(r["l"]))] = p
    times = sorted(table)
    m = int(round(math.sqrt(len(table[times[0]]))))
    require(times[0] == 0.0 and abs(times[-1] / (t1c / 4.0) - 1.0) < 1e-9, "times do not span [0, T1c/4]")
    for (j, l), p in table[0.0].items():
        require(abs(p - (j == l)) <= 1e-9, f"P[{j},{l}](0) = {p!r}, want the identity")
    for t in times:
        for j in range(m):
            total = sum(table[t][(j, l)] for l in range(m))
            require(total <= 1.0 + 1e-9, f"sum_l P[{j},l]({t!r}) = {total!r} > 1")
    for j in range(m):
        total = sum(table[times[-1]][(j, l)] for l in range(m))
        require(0.8 <= total <= 0.9, f"sum_l P[{j},l](T1c/4) = {total!r}, want about 0.85")
        t = times[1]
        ratio = (1.0 - table[t][(j, j)]) / (alpha_sq * t / t1c)
        require(abs(ratio - 1.0) <= 0.05, f"(1 - P_jj)/(alpha^2 kappa t) = {ratio!r} at t = {t!r}")


def check_wigner(rows: list[dict]) -> None:
    """W integrates to 1, |W| <= 2/pi, and W(z) = W(iz) for the compass state."""
    re = np.array([float(r["re_z"]) for r in rows])
    im = np.array([float(r["im_z"]) for r in rows])
    w = np.array([float(r["w"]) for r in rows])
    xs, ys = np.unique(re), np.unique(im)
    require(np.allclose(xs, ys) and np.allclose(xs, -xs[::-1]), "grid is not square about 0")
    n = xs.size
    grid = w.reshape(n, n)  # [re index, im index]
    area = (xs[1] - xs[0]) * (ys[1] - ys[0])
    total = float(grid.sum() * area)
    require(abs(total - 1.0) <= 1e-3, f"Wigner function integrates to {total!r}")
    peak = float(np.max(np.abs(grid)))
    require(peak <= 2.0 / math.pi + 1e-12, f"|W| reaches {peak!r} > 2/pi")
    # z = x + iy -> iz = -y + ix: W[i, k] must equal W[n - 1 - k, i]
    rotated = grid[::-1, :].T
    err = float(np.max(np.abs(grid - rotated)))
    require(err <= 1e-9, f"W(z) - W(iz) reaches {err!r}")


def check_roc(rows: list[dict]) -> None:
    th = np.array([float(r["threshold"]) for r in rows])
    eta = np.array([float(r["eta"]) for r in rows])
    delta = np.array([float(r["delta"]) for r in rows])
    require(np.all(np.diff(th) > 0.0), "thresholds are not increasing")
    for name, v in (("eta", eta), ("delta", delta)):
        require(np.all((v >= 0.0) & (v <= 1.0)), f"{name} outside [0, 1]")
        require(np.all(np.diff(v) <= 0.0), f"{name} increases with the threshold")


def check_figures_dir(run_dir: Path, cfg: dict, halo: Halo) -> None:
    check_manifest(run_dir)
    alpha_sq = max(p["alpha_sq"] for p in cfg["probes"] if p["kind"] == "compass")
    check_growth(read_csv(run_dir / "sensitivity-growth.csv"), halo)
    check_lineshape(read_csv(run_dir / "lineshape.csv"), halo)
    check_transitions(read_csv(run_dir / "transition-curves.csv"), alpha_sq, cfg["device"]["T1c"])
    check_wigner(read_csv(run_dir / "cat-wigner.csv"))
    check_roc(read_csv(run_dir / "readout-roc.csv"))
