"""Command line entry points.

Every subcommand is a deterministic batch: it loads the config, folds in
flag overrides, runs, and promotes a results/<run-id> directory.  Exit code
0 means the run directory was written; 2 is a config or usage problem; 1 is
a runtime failure (missing artifacts, degenerate data, and the like).  Every
artifact is computed before any is staged, so a runtime failure writes no
run directory.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from pathlib import Path

from . import pipeline
from .errors import CatscopeError, ConfigError


# (flag, type, metavar, help) of the options every command takes, and of
# those only one command adds; figures also takes figure ids (FIGURE)
_COMMON = [
    ("--config", str, "FILE", "YAML config overlaying the defaults"),
    ("--seed", int, "N", "master seed override"),
    ("--threshold", float, "X", "likelihood-ratio threshold for the compass probe"),
    ("--trials", int, "N", "trials per campaign point"),
    ("--out", str, "DIR", "output root (default: $CATSCOPE_OUT or .)"),
]
_OWN = {
    "search": [("--tau-max", float, "T", "drop search times above this many seconds")],
    "tune-scan": [("--bins", int, "N", "number of frequency bins")],
}
_HELP = {
    "calibrate": "mimic-displacement response per probe: eta, delta, enhancement",
    "search": "integration-time scan, pooled signal fit, exclusion point",
    "tune-scan": "frequency-bin scan with per-bin mass limits",
    "figures": "write the figure tables (CSV)",
    "simulate-record": "dump raw readout records for one probe",
}


@functools.cache  # once per process, on the first call: none at import
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="catscope",
        description="Cat-state dark photon detection: simulation and inference.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for command in pipeline.COMMANDS:
        p = sub.add_parser(command, help=_HELP[command])
        for flag, kind, metavar, text in [*_COMMON, *_OWN.get(command, [])]:
            p.add_argument(flag, type=kind, metavar=metavar, help=text)
        if command == "figures":
            p.add_argument(
                "which",
                nargs="*",
                metavar="FIGURE",
                help=(
                    "figure ids: " + ", ".join(pipeline.FIGURE_IDS) + ", or 'all' "
                    "(default: the set that needs no prior run)"
                ),
            )
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = pipeline.load_config(args.config)
        cfg = pipeline.apply_overrides(
            cfg,
            seed=args.seed,
            threshold=args.threshold,
            trials=args.trials,
            bins=getattr(args, "bins", None),
            tau_max=getattr(args, "tau_max", None),
        )
        out_root = Path(args.out or os.environ.get("CATSCOPE_OUT") or ".")
        started = time.monotonic()
        final, summary = pipeline.run_command(
            args.command,
            cfg,
            out_root=out_root,
            which=getattr(args, "which", None),
        )
        elapsed = time.monotonic() - started
        log_dir = out_root / "logs"
        log_dir.mkdir(parents=True, exist_ok=True)
        timing = [f"{args.command} {final.name} wall_clock_s={elapsed:.3f}", *summary]
        (log_dir / f"{final.name}-timing.txt").write_text("\n".join(timing) + "\n")
        print(f"wrote {final}")
        for line in summary:
            print(f"  {line}")
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CatscopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
