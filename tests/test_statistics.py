"""The pipeline's statistics, end to end, on fixed seeds.

The golden hashes pin the bytes a stream of draws gives; these checks
show that what the pipeline reports from its records is honest, whatever
stream drew them.  Each tolerance is about 3 sampling standard errors, and
each check fails on a mutant that reports an error half its size: eta's
error in fits.calibrate_detector, sigma(a0) in fits.epsilon_limit.

- Calibration pulls: over N = 100 seeds the spread of a probe's eta and
  delta against the median error the fit reports lies in [0.8, 1.25].
  The spread of N Gaussian draws has a standard error of about
  1 / sqrt(2 (N - 1)) = 0.071 of itself.  The calibrations run 600 trials:
  at 150 the a12 probe's delta counts about one positive record per drive,
  too few for the Fisher error, and its ratio read up to 1.27.
- Search coverage: on a supplied calibration, the 90% limit eps90 covers
  a planted eps in at least 0.90 less 3 binomial standard errors of the
  toys, at two eps.  At 300 trials both signals sit mostly off the a0 = 0
  boundary, where the limit is not conservative: a limit at 0.64 sigma
  instead of 1.28 sigma covers about 76% of the toys.

References: Cowan, Cranmer, Gross and Vitells, Eur. Phys. J. C 71, 1554
(2011), on the coverage of asymptotic limits; Feldman and Cousins,
Phys. Rev. D 57, 3873 (1998).
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings

import numpy as np
import pytest

from catscope import pipeline

PULL_SEEDS = range(1, 101)
PULL_TRIALS = 600
TOY_SEEDS = range(1, 151)
TOY_TRIALS = 300
# efficiencies near those a default calibration reports
SUPPLIED_CALIBRATION = {
    "probes": [{"label": "vacuum", "eta": 0.68}, {"label": "a12", "eta": 0.69}]
}


def _pulls():
    """{(probe label, eta or delta): spread over PULL_SEEDS / median error}."""
    fits = {}
    for seed in PULL_SEEDS:
        cfg = pipeline.apply_overrides(
            pipeline.default_config(), seed=seed, trials=PULL_TRIALS
        )
        files, _ = pipeline.run_calibrate(cfg)
        for probe in json.loads(files["calibration.json"])["probes"]:
            for name in ("eta", "delta"):
                key = (probe["label"], name)
                fits.setdefault(key, []).append((probe[name], probe[f"{name}_err"]))
    return {
        key: float(np.std([v for v, _ in pairs], ddof=1) / np.median([e for _, e in pairs]))
        for key, pairs in fits.items()
    }


def test_calibration_errors_match_the_spread_over_seeds():
    pulls = _pulls()
    assert set(pulls) == {(p, n) for p in ("vacuum", "a12") for n in ("eta", "delta")}
    for key, ratio in pulls.items():
        assert 0.8 <= ratio <= 1.25, (key, ratio)


@pytest.mark.parametrize("eps", [5.0e-15, 7.0e-15])
def test_search_limit_covers_a_planted_signal(tmp_path, eps):
    cal = tmp_path / "calibration.json"
    cal.write_text(json.dumps(SUPPLIED_CALIBRATION))
    covered = 0
    for seed in TOY_SEEDS:
        cfg = pipeline.apply_overrides(
            pipeline.default_config(), seed=seed, trials=TOY_TRIALS
        )
        cfg["calibration"]["path"] = str(cal)
        cfg["search"]["inject_epsilon"] = eps
        with warnings.catch_warnings():
            # the default search times reach the DM coherence time
            warnings.simplefilter("ignore", UserWarning)
            files, _ = pipeline.run_search(cfg)
        (limit,) = csv.DictReader(io.StringIO(files["limits.csv"]))
        covered += float(limit["eps90"]) >= eps
    n = len(TOY_SEEDS)
    floor = 0.90 - 3.0 * math.sqrt(0.90 * 0.10 / n)
    assert covered / n >= floor, (covered, n, floor)
