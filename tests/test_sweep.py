"""The hostile-value sweep, in process through cli.main.

Every number leaf of CONFIG_SCHEMA at 1e-300 and at 1e+300 (a list leaf
scaled entry by entry), the two integer leaves that admit any size at
2^70, and the compass amplitudes of probes[1] and of a displaced
records.probe around the cat closed forms' limits: each config runs every
command.  A value a command cannot use exits 2 naming a config leaf;
nothing ends in a traceback or a raw RuntimeWarning (an error under
pyproject.toml), and no written artifact holds a NaN or an inf.  Every run
but the threshold runs reads a supplied calibration, so that no exit 0
rests on what a 40-trial self-calibration gives at the default seed.
"""

from __future__ import annotations

import copy
import json
import re
import warnings
from pathlib import Path

import yaml

from catscope import cli, pipeline

EXTREMES = (1.0e-300, 1.0e300)
AMPLITUDES = (1.0e-300, 0.001, 0.0075, 0.02, 0.05, 1.0e300)

# a threshold that classifies every record alike calibrates eta = 0, which
# the commands that divide by eta refuse as a runtime failure (exit 1):
# what the simulated records show, not what the config says
THRESHOLD_RUNS = {
    ("thresholds.compass", value, command)
    for value in EXTREMES
    for command in ("search", "tune-scan")
} | {("thresholds.vacuum", value, "search") for value in EXTREMES}

# the supplied calibration's efficiency for every probe label the sweep uses
SUPPLIED_ETAS = {"vacuum": 0.68, "a12": 0.69} | {f"a{a2:g}": 0.69 for a2 in AMPLITUDES}

# readout-roc.csv's delta_over_eta is NaN by design where eta = 0
NAN_BY_DESIGN = ("readout-roc.csv", "delta_over_eta")

LEAF = re.compile(
    "|".join(
        [r"probes\[\d+\]\.alpha_sq", r"records\.probe\.alpha_sq"]
        + [rf"(?<![\w.]){re.escape(leaf)}(?!\w)" for leaf in pipeline.CONFIG_SCHEMA]
    )
)


def _tree(path, value):
    for key in reversed(path.split(".")):
        value = {key: value}
    return value


def _sweep_inputs():
    """(leaf, value, config overlay) of every hostile input."""
    for leaf, (default, kind, _) in pipeline.CONFIG_SCHEMA.items():
        if kind.rstrip("?") not in ("num", "nums"):
            continue
        for value in EXTREMES:
            if kind == "nums":
                scaled = [value * x for x in default]
                yield leaf, value, _tree(leaf, scaled)
            else:
                yield leaf, value, _tree(leaf, value)
    for leaf in ("master_seed", "scan.inject_bin"):
        yield leaf, 2**70, _tree(leaf, 2**70)
    for value in AMPLITUDES:
        probes = [{"kind": "vacuum"}, {"kind": "compass", "alpha_sq": value}]
        yield "probes[1].alpha_sq", value, {"probes": probes}
        probe = {"kind": "compass", "alpha_sq": value}
        yield "records.probe.alpha_sq", value, _tree(
            "records", {"probe": probe, "injected_beta": 0.1}
        )


# a non-finite float as repr writes it into a CSV cell, and as json writes it
CSV_NON_FINITE = re.compile(r"(?:^|,)-?(?:nan|inf)(?=,|$)", re.MULTILINE)
JSON_NON_FINITE = re.compile(r"\b(?:NaN|Infinity)\b")


def _non_finite_files(run_dir: Path) -> list:
    """The artifacts that hold a NaN or an inf, apart from NAN_BY_DESIGN."""
    found = []
    for path in sorted(run_dir.iterdir()):
        text = path.read_text()
        if path.suffix == ".csv":
            header, *rows = text.splitlines()
            if (path.name, header.rsplit(",", 1)[-1]) == NAN_BY_DESIGN:
                text = "\n".join(row.rsplit(",", 1)[0] for row in rows)
            if CSV_NON_FINITE.search(text):
                found.append(path.name)
        elif JSON_NON_FINITE.search(text):
            found.append(path.name)
    return found


def test_hostile_sweep_exits_cleanly(tmp_path, capsys):
    failures = []
    exits = {0: 0, 1: 0, 2: 0}
    cal = tmp_path / "calibration.json"
    probes = [{"label": k, "eta": v} for k, v in SUPPLIED_ETAS.items()]
    cal.write_text(json.dumps({"probes": probes}))
    for i, (leaf, value, overlay) in enumerate(_sweep_inputs()):
        supplied = copy.deepcopy(overlay)
        supplied.setdefault("calibration", {})["path"] = str(cal)
        files = [tmp_path / f"in{i}.yaml", tmp_path / f"in{i}-supplied.yaml"]
        for cfg_file, tree in zip(files, (overlay, supplied)):
            cfg_file.write_text(yaml.safe_dump(tree))
        for command in pipeline.COMMANDS:
            case = (leaf, value, command)
            # a threshold run's exit 1 is its self-calibration's eta = 0
            cfg_file = files[case not in THRESHOLD_RUNS]
            argv = [command, "--trials", "40", "--config", str(cfg_file)]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                rc = cli.main([*argv, "--out", str(tmp_path / "out")])
            out, err = capsys.readouterr()
            exits[rc] += 1
            if rc == 0:
                run_dir = Path(out.splitlines()[0].removeprefix("wrote "))
                bad = _non_finite_files(run_dir)
                if bad:
                    failures.append((case, "non-finite artifact values", bad))
            elif rc == 1:
                if case not in THRESHOLD_RUNS or leaf not in err:  # thresholds.<mode>
                    failures.append((case, "exit 1", err))
            elif not (rc == 2 and LEAF.search(err)):
                failures.append((case, f"exit {rc} naming no config leaf", err))
    assert not failures, failures
    # every input ran every command; the threshold runs are the only exit 1
    assert sum(exits.values()) == 68 * len(pipeline.COMMANDS), exits
    assert exits[1] == len(THRESHOLD_RUNS), exits
