"""Show that every output check rejects a deliberately wrong input.

    python3 perfbench/rejects.py

Writes one search (the search-toys settings, one seed) and the figures
tables under perfbench/out/rejects, confirms that the checks accept the real
artifacts, then hands each check one corrupted copy and prints the message
it rejects it with.  Exits 1 if a check accepts its corrupted input.
"""

import copy
import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import run  # sets the BLAS pin before numpy loads

sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402
import catscope.cli as cli  # noqa: E402
from catscope import pipeline  # noqa: E402

SEED = 7


def make_outputs(out: Path) -> tuple[Path, Path, dict]:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    toys = run.Workload("search-toys", 0, out)
    toys.write_config()
    dirs = []
    for argv in (
        toys.base + ["--seed", str(SEED), "--out", str(out)],
        ["figures", "--out", str(out)],
    ):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            if cli.main(argv) != 0:
                raise SystemExit(f"catscope {' '.join(argv)} failed")
        dirs.append(Path(buf.getvalue().splitlines()[0].removeprefix("wrote ")))
    cfg = pipeline.apply_overrides(pipeline.load_config(toys.config), seed=SEED)
    return dirs[0], dirs[1], cfg


def cases(search_dir: Path, fig_dir: Path, cfg: dict, scratch: Path):
    """(what was corrupted, a call that must raise CheckFailed)."""
    halo = checks.Halo(cfg)
    trials = cfg["search"]["trials"]
    rates = checks.read_csv(search_dir / "rates.csv")
    fit = json.loads((search_dir / "fit.json").read_text())
    limits = checks.read_csv(search_dir / "limits.csv")
    fig = {n: checks.read_csv(fig_dir / f"{n}.csv") for n in (
        "sensitivity-growth", "lineshape", "transition-curves", "cat-wigner", "readout-roc")}
    dropped, simulated = checks.check_counts(rates, trials, "rates.csv")
    p_leak, repeats = cfg["device"]["p_leak"], cfg["repeats"]
    alpha_sq = max(p["alpha_sq"] for p in cfg["probes"] if p["kind"] == "compass")
    t1c = cfg["device"]["T1c"]
    sig = checks.sigma_a0(fit)
    data = checks.SearchData(rates, halo)

    def edit(rows, i, **fields):
        rows = copy.deepcopy(rows)
        for k, fn in fields.items():
            rows[i][k] = repr(fn(float(rows[i][k])))
        return rows

    def fit_with(**params):
        bad = copy.deepcopy(fit)
        bad["params"].update(params)
        bad["log_likelihood"] = data.log_likelihood(data.theta(bad["params"]))
        return bad

    def tampered_manifest():
        bad = scratch / "tampered"
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(search_dir, bad)
        with open(bad / "fit.json", "a") as fh:
            fh.write(" ")
        return checks.check_manifest(bad)

    w_scaled = [dict(r, w=repr(1.1 * float(r["w"]))) for r in fig["cat-wigner"]]
    w_skewed = edit(fig["cat-wigner"], 5, w=lambda v: v + 1e-3)
    roc = copy.deepcopy(fig["readout-roc"])
    roc[3]["eta"], roc[4]["eta"] = roc[4]["eta"], roc[3]["eta"]
    if roc[3]["eta"] == roc[4]["eta"]:
        roc[4]["eta"] = repr(float(roc[3]["eta"]) + 0.01)
    flipped = dict(fit, boundary_hit=not fit["boundary_hit"])
    eq = [i for i, r in enumerate(fig["transition-curves"]) if float(r["t"]) == 0.0 and r["j"] != r["l"]]
    return [
        ("rates.csv: one n_dropped raised by 1",
         lambda: checks.check_counts(edit(rates, 0, n_dropped=lambda v: int(v) + 1), trials, "rates.csv")),
        ("rates.csv: one k_pos set to n_kept + 1",
         lambda: checks.check_counts(
             [dict(rates[0], k_pos=str(int(rates[0]["n_kept"]) + 1))] + rates[1:], trials, "rates.csv")),
        ("leaked records doubled",
         lambda: checks.check_leakage(2 * dropped, simulated, p_leak, repeats)),
        ("fit.json: log_likelihood + 0.01",
         lambda: checks.check_fit(rates, dict(fit, log_likelihood=fit["log_likelihood"] + 0.01), halo, "fit")),
        ("fit.json: a0 moved by +3 sigma, log_likelihood recomputed to match",
         lambda: checks.check_fit(rates, fit_with(a0=fit["params"]["a0"] + 3.0 * sig), halo, "fit")),
        ("limits.csv: eps90 times 1.01",
         lambda: checks.check_limit(edit(limits, 0, eps90=lambda v: 1.01 * v), fit, halo, "limits")),
        ("fit.json: one byte appended after the manifest was written", tampered_manifest),
        ("fit.json: boundary_hit flipped", lambda: checks.check_boundary(flipped, "fit")),
        ("toys: eps90 below the planted epsilon in 7 of 10",
         lambda: checks.check_coverage([1.0] * 3 + [0.0] * 7, 0.5)),
        ("sensitivity-growth.csv: first g times 1.1",
         lambda: checks.check_growth(edit(fig["sensitivity-growth"], 0, g=lambda v: 1.1 * v), halo)),
        ("sensitivity-growth.csv: one mid-curve g times 1 + 1e-5",
         lambda: checks.check_growth(edit(fig["sensitivity-growth"], 40, g=lambda v: v * (1 + 1e-5)), halo)),
        ("lineshape.csv: one f times 1 + 1e-6",
         lambda: checks.check_lineshape(edit(fig["lineshape"], 120, f=lambda v: v * (1 + 1e-6)), halo)),
        ("transition-curves.csv: off-diagonal P(0) set to 0.01",
         lambda: checks.check_transitions(edit(fig["transition-curves"], eq[0], p=lambda v: 0.01), alpha_sq, t1c)),
        ("transition-curves.csv: probed with alpha^2 = 10 instead of 12",
         lambda: checks.check_transitions(fig["transition-curves"], 10.0, t1c)),
        ("cat-wigner.csv: W scaled by 1.1", lambda: checks.check_wigner(w_scaled)),
        ("cat-wigner.csv: one W raised by 1e-3", lambda: checks.check_wigner(w_skewed)),
        ("readout-roc.csv: two eta values swapped", lambda: checks.check_roc(roc)),
    ]


def main() -> int:
    out = run.HERE / "out" / "rejects"
    search_dir, fig_dir, cfg = make_outputs(out)
    halo = checks.Halo(cfg)
    checks.check_search_dir(search_dir, cfg, halo)
    checks.check_boundary(json.loads((search_dir / "fit.json").read_text()), "fit")
    checks.check_figures_dir(fig_dir, pipeline.load_config(None), checks.Halo(pipeline.load_config(None)))
    print("real artifacts: all checks pass")
    missed = 0
    for what, call in cases(search_dir, fig_dir, cfg, out):
        try:
            call()
        except checks.CheckFailed as exc:
            print(f"rejected  {what}\n          -> {exc}")
        else:
            missed += 1
            print(f"ACCEPTED  {what}")
    shutil.rmtree(out, ignore_errors=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
