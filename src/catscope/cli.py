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


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", help="YAML config overlaying the defaults")
    p.add_argument("--seed", type=int, metavar="N", help="master seed override")
    p.add_argument(
        "--threshold",
        type=float,
        metavar="X",
        help="likelihood-ratio threshold for the compass probe",
    )
    p.add_argument(
        "--trials", type=int, metavar="N", help="trials per campaign point"
    )
    p.add_argument(
        "--out", metavar="DIR", help="output root (default: $CATSCOPE_OUT or .)"
    )


@functools.cache  # once per process, on the first call: none at import
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="catscope",
        description="Cat-state dark photon detection: simulation and inference.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "calibrate",
        help="mimic-displacement response per probe: eta, delta, enhancement",
    )
    _add_common(p)

    p = sub.add_parser(
        "search",
        help="integration-time scan, pooled signal fit, exclusion point",
    )
    _add_common(p)
    p.add_argument(
        "--tau-max",
        type=float,
        metavar="T",
        help="drop search times above this many seconds",
    )

    p = sub.add_parser(
        "tune-scan", help="frequency-bin scan with per-bin mass limits"
    )
    _add_common(p)
    p.add_argument("--bins", type=int, metavar="N", help="number of frequency bins")

    p = sub.add_parser("figures", help="write the figure tables (CSV)")
    _add_common(p)
    p.add_argument(
        "which",
        nargs="*",
        metavar="FIGURE",
        help=(
            "figure ids: " + ", ".join(pipeline.FIGURE_IDS) + ", or 'all' "
            "(default: the set that needs no prior run)"
        ),
    )

    p = sub.add_parser(
        "simulate-record", help="dump raw readout records for one probe"
    )
    _add_common(p)

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
