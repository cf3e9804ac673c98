"""In-memory span recorder wrapped around the public functions of each
catscope layer, from outside the package.

The pipeline binds most layer functions by name (``from .fits import
search_fit``), so a wrapper has to replace every catscope module attribute
that refers to the original function; ``Tracer.installed`` does that and
puts the originals back on exit.  Spans nest through a stack (the CLI runs
on one thread), so a span's self time is its duration minus the durations
of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict


class Tracer:
    """Spans ``[name, start, end, parent, invocation]`` and named counters.

    One invocation id is shared by every span of one CLI command; the
    benchmark opens the root span of each command with ``command()``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._invocation = -1

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self._invocation]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def command(self):
        self._invocation += 1
        return self.span("cli.main")

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def wrap(self, name, fn, after=None):
        """fn inside a span; after(args, kwargs, result) updates counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def wrap_optimizer(self, fn):
        """Counts objective evaluations of the scipy results fits receives."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            res = fn(*args, **kwargs)
            self.count("fits.optimizer_nfev", int(res.nfev))
            return res

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer functions in every loaded catscope module."""
        from catscope import darkmatter, fits, fock, hmm, lindblad, measurement
        from catscope import pipeline

        count = self.count

        def campaign(args, kwargs, res):
            count("measurement.records", len(res.records))

        def posteriors(args, kwargs, res):
            count("hmm.records", len(res[1]))

        def postselect(args, kwargs, res):
            kept, dropped = res
            count("hmm.kept", len(kept))
            count("hmm.simulated", len(kept) + dropped)

        def search_fit(args, kwargs, res):
            count("fits.search_fit_calls")
            count("fits.boundary_hits", bool(res.boundary_hit))

        def g_of_t(args, kwargs, res):
            count("darkmatter.g_of_t_calls")

        def wigner(args, kwargs, res):
            count("fock.wigner_points", int(res.size))

        def write(args, kwargs, res):
            count("pipeline.artifact_bytes", len(args[2].encode("utf-8")))

        functions = [
            (pipeline, "run_command", "pipeline.run_command", None),
            (measurement, "run_campaign", "measurement.run_campaign", campaign),
            (measurement, "records_to_jsonl", "measurement.records_to_jsonl", None),
            (hmm, "batch_posteriors", "hmm.batch_posteriors", posteriors),
            (hmm, "postselect", "hmm.postselect", postselect),
            (fits, "search_fit", "fits.search_fit", search_fit),
            (fits, "calibrate_detector", "fits.calibrate_detector", None),
            (fits, "threshold_sweep", "fits.threshold_sweep", None),
            (darkmatter, "g_of_t", "darkmatter.g_of_t", g_of_t),
            (fock, "wigner", "fock.wigner", wigner),
            (fock, "wigner_to_csv", "fock.wigner_to_csv", None),
            (lindblad, "transition_curves_to_csv", "lindblad.transition_curves", None),
        ]
        modules = [m for k, m in sys.modules.items() if k.startswith("catscope.")]
        undo = []

        def replace(owner, attr, new):
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        for home, attr, name, after in functions:
            orig = getattr(home, attr)
            wrapped = self.wrap(name, orig, after)
            for mod in modules:
                if getattr(mod, attr, None) is orig:
                    replace(mod, attr, wrapped)
        for attr in ("minimize", "minimize_scalar"):
            replace(fits, attr, self.wrap_optimizer(getattr(fits, attr)))
        writer, manifest = pipeline.RunWriter, pipeline.RunManifest
        for owner, attr, after in (
            (writer, "__init__", None),
            (writer, "write", write),
            (writer, "promote", None),
            (manifest, "to_json", None),
        ):
            replace(owner, attr, self.wrap("pipeline.write", getattr(owner, attr), after))
        try:
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    def self_times(self) -> list[float]:
        """Duration minus the time covered by direct children, per span."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own

    def to_json(self) -> dict:
        keys = ("name", "start", "end", "parent", "invocation")
        return {
            "spans": [dict(zip(keys, s)) for s in self.spans],
            "self_s": self.self_times(),
            "counts": dict(self.counts),
        }


LAYERS = ("pipeline", "measurement", "hmm", "fits", "darkmatter", "fock", "lindblad")

# Per-layer metrics read from the spans: span name -> metric of its summed
# duration (inclusive of child spans).
SPAN_METRICS = {
    "pipeline.run_command": "pipeline.run_command_s",
    "pipeline.write": "pipeline.write_s",
    "measurement.run_campaign": "measurement.run_campaign_s",
    "measurement.records_to_jsonl": "measurement.records_to_jsonl_s",
    "hmm.batch_posteriors": "hmm.batch_posteriors_s",
    "fits.search_fit": "fits.search_fit_s",
    "fits.calibrate_detector": "fits.calibrate_detector_s",
    "fits.threshold_sweep": "fits.threshold_sweep_s",
    "darkmatter.g_of_t": "darkmatter.g_of_t_s",
    "fock.wigner": "fock.wigner_s",
    "fock.wigner_to_csv": "fock.wigner_to_csv_s",
    "lindblad.transition_curves": "lindblad.transition_curves_s",
}


def _rate(num: float, den: float) -> float:
    return num / den if den > 0.0 else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced round (all spans in the tracer)."""
    total = defaultdict(float)
    own = defaultdict(float)
    for s, self_s in zip(tracer.spans, tracer.self_times()):
        total[s[0]] += s[2] - s[1]
        own[s[0]] += self_s
    c = tracer.counts
    out = {metric: total[name] for name, metric in SPAN_METRICS.items()}
    # self time per layer module; pipeline's own is run_command's remainder,
    # and its artifact writing is reported as pipeline.write_s
    for module in LAYERS[1:]:
        out[f"{module}.self_s"] = sum(
            v for k, v in own.items() if k.split(".")[0] == module
        )
    out["pipeline.self_s"] = own["pipeline.run_command"]
    command_s = total["cli.main"]
    layers_self = sum(out[f"{m}.self_s"] for m in LAYERS[1:]) + total["pipeline.write"]
    out.update(
        {
            "pipeline.artifact_bytes": c["pipeline.artifact_bytes"],
            "measurement.records": c["measurement.records"],
            "measurement.records_per_s": _rate(
                c["measurement.records"], total["measurement.run_campaign"]
            ),
            "measurement.run_campaign_share": _rate(
                total["measurement.run_campaign"], command_s
            ),
            "hmm.records_per_s": _rate(c["hmm.records"], total["hmm.batch_posteriors"]),
            "hmm.kept_ratio": _rate(c["hmm.kept"], c["hmm.simulated"]),
            "fits.search_fit_calls": c["fits.search_fit_calls"],
            "fits.boundary_hits": c["fits.boundary_hits"],
            "fits.optimizer_nfev": c["fits.optimizer_nfev"],
            "fits.search_fit_share": _rate(total["fits.search_fit"], command_s),
            "darkmatter.g_of_t_calls": c["darkmatter.g_of_t_calls"],
            "fock.wigner_points_per_s": _rate(c["fock.wigner_points"], total["fock.wigner"]),
            "trace.command_s": command_s,
            "trace.self_time_coverage": _rate(layers_self, command_s),
        }
    )
    return out
