"""Layer spans recorded from outside the library.

`Tracer.install` replaces every public function of the five library
layers with a timing wrapper, wherever an ``iafb.*`` module binds it (so
``iafb.cli.build_beamformers`` is wrapped as well as
``iafb.alignment.build_beamformers``), plus the dense
``ReconstructedChannel.wtilde_matrix`` method. `Tracer.remove` puts the
original objects back. Spans stay in memory until the run writes them.

A layer's self time is its spans' durations minus the part covered by
their child spans; the cli's self time is an invocation's wall time minus
its top-level spans. The two together add up to the wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

LAYERS = ("grassmann", "quantizer", "channel", "alignment", "rates")

# qualified function -> metric group
GROUPS = {
    "channel.generate_channel": "channel.generate",
    "channel.to_tone_domain": "channel.tone",
    "channel.receiver_feedback": "channel.feedback",
    "channel.reconstruct": "channel.reconstruct",
    "channel.wtilde_matrix": "channel.dense",
    "quantizer.build_random_codebook": "quantizer.build",
    "quantizer.measure_distortion": "quantizer.measure",
    "quantizer.distortion_oracle_quantize": "quantizer.oracle",
    "quantizer.encode": "quantizer.encode",
    "alignment.build_beamformers": "alignment.build",
}


# Each counter takes the call's outcome and then its arguments, bound the
# way the wrapped function binds them.


def _mc_samples(result, exc, n, K, delta, trials, *rest, **kw):
    return {"grassmann.mc_samples": trials}


def _codewords(result, exc, n, K, bits, *rest, **kw):
    return {"quantizer.codewords": 1 << int(bits)}


def _distance_evals(result, exc, cb, trials, *rest, **kw):
    return {"quantizer.distance_evals": int(trials) * cb.size}


def _build_outcome(result, exc, *args, **kw):
    if exc is None:
        return {"alignment.failures": 0, "alignment.iterations": result.iterations}
    return {"alignment.failures": 1, "alignment.iterations": len(getattr(exc, "history", ()))}


def _dense_bytes(result, exc, rec, *rest, **kw):
    return {"channel.dense_bytes": rec.R * rec.N * rec.N * 16}


# qualified function -> counts taken from its call arguments and outcome
COUNTERS = {
    "grassmann.empirical_ball_cdf": _mc_samples,
    "quantizer.build_random_codebook": _codewords,
    "quantizer.measure_distortion": _distance_evals,
    "alignment.build_beamformers": _build_outcome,
    "channel.wtilde_matrix": _dense_bytes,
}


@dataclass(slots=True)
class Span:
    sid: int
    parent: int | None
    invocation: int
    name: str           # "<layer>.<function>"
    layer: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    error: str = ""


def targets():
    """(layer, qualified name, owner, attribute, original) of every function to wrap."""
    out = []
    for layer in LAYERS:
        module = importlib.import_module(f"iafb.{layer}")
        for attr in module.__all__:
            obj = getattr(module, attr)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                out.append((layer, f"{layer}.{attr}", module, attr, obj))
    channel = importlib.import_module("iafb.channel")
    method = vars(channel.ReconstructedChannel)["wtilde_matrix"]
    out.append(("channel", "channel.wtilde_matrix", channel.ReconstructedChannel, "wtilde_matrix", method))
    return out


class Tracer:
    """Installs layer wrappers and collects their spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.invocation = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (owner, attribute, original)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        found = targets()
        wrappers = {id(orig): (orig, self._wrap(orig, layer, name)) for layer, name, _, _, orig in found}
        for _, _, owner, attr, orig in found:
            if inspect.isclass(owner):
                self._patch(owner, attr, wrappers[id(orig)][1])
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "iafb" or modname.startswith("iafb.")):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, attr, entry[1])

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, fn, layer: str, name: str):
        counter = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else None, self.invocation, name, layer, 0.0)
            spans.append(span)
            stack.append(span.sid)
            exc = result = None
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                span.error = type(err).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
                if counter is not None:
                    span.counts = counter(result, exc, *args, **kwargs)

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def self_times(spans, walls: dict) -> dict:
    """Summed self time and call count per layer and group, over all invocations.

    ``walls`` maps invocation id -> wall time; ``cli.self_s`` is the wall
    time of those invocations not covered by a top-level span.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    totals = defaultdict(float)
    top_level = defaultdict(float)
    for s in spans:
        duration = s.end - s.start
        own = duration - child_time[s.sid]
        keys = [s.layer, GROUPS.get(s.name)]
        for key in filter(None, keys):
            totals[f"{key}.self_s"] += own
            totals[f"{key}.calls"] += 1
        for key, value in s.counts.items():
            totals[key] += value
        if s.parent is None:
            top_level[s.invocation] += duration
    totals["cli.self_s"] = sum(wall - top_level[inv] for inv, wall in walls.items())
    return totals


# per-layer metric -> (unit, better, source key in `self_times`)
PER_LAYER = {
    "alignment.calls": ("count", "lower", "alignment.build.calls"),
    "alignment.self_s": ("s", "lower", "alignment.self_s"),
    "alignment.failures": ("count", "lower", "alignment.failures"),
    "alignment.ok_ratio": ("ratio", "higher", None),
    "alignment.iterations": ("count", "lower", "alignment.iterations"),
    "channel.self_s": ("s", "lower", "channel.self_s"),
    "channel.generate.self_s": ("s", "lower", "channel.generate.self_s"),
    "channel.tone.self_s": ("s", "lower", "channel.tone.self_s"),
    "channel.feedback.calls": ("count", "lower", "channel.feedback.calls"),
    "channel.feedback.self_s": ("s", "lower", "channel.feedback.self_s"),
    "channel.reconstruct.calls": ("count", "lower", "channel.reconstruct.calls"),
    "channel.reconstruct.self_s": ("s", "lower", "channel.reconstruct.self_s"),
    "channel.dense.calls": ("count", "lower", "channel.dense.calls"),
    "channel.dense.self_s": ("s", "lower", "channel.dense.self_s"),
    "channel.dense_bytes": ("B", "lower", "channel.dense_bytes"),
    "quantizer.self_s": ("s", "lower", "quantizer.self_s"),
    "quantizer.build.calls": ("count", "lower", "quantizer.build.calls"),
    "quantizer.build.self_s": ("s", "lower", "quantizer.build.self_s"),
    "quantizer.codewords": ("count", "lower", "quantizer.codewords"),
    "quantizer.measure.calls": ("count", "lower", "quantizer.measure.calls"),
    "quantizer.measure.self_s": ("s", "lower", "quantizer.measure.self_s"),
    "quantizer.distance_evals": ("count", "lower", "quantizer.distance_evals"),
    "quantizer.oracle.calls": ("count", "lower", "quantizer.oracle.calls"),
    "quantizer.oracle.self_s": ("s", "lower", "quantizer.oracle.self_s"),
    "quantizer.encode.calls": ("count", "lower", "quantizer.encode.calls"),
    "quantizer.encode.self_s": ("s", "lower", "quantizer.encode.self_s"),
    "rates.calls": ("count", "lower", "rates.calls"),
    "rates.self_s": ("s", "lower", "rates.self_s"),
    "grassmann.calls": ("count", "lower", "grassmann.calls"),
    "grassmann.self_s": ("s", "lower", "grassmann.self_s"),
    "grassmann.mc_samples": ("count", "lower", "grassmann.mc_samples"),
    "cli.self_s": ("s", "lower", "cli.self_s"),
    "trace.overhead_s": ("s", "lower", None),
}


def per_layer_metrics(totals: dict, invocations: int, overhead_s: float) -> dict:
    """Per-layer metrics as means per traced invocation."""
    out = {}
    for name, (unit, _, key) in PER_LAYER.items():
        if name == "alignment.ok_ratio":
            builds = totals.get("alignment.build.calls", 0)
            # no build attempted means no build wasted
            value = 1.0 if builds == 0 else (builds - totals.get("alignment.failures", 0)) / builds
        elif name == "trace.overhead_s":
            value = overhead_s
        else:
            value = totals.get(key, 0) / invocations
        out[name] = {"value": value, "unit": unit}
    return out
