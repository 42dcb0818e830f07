"""Traced mode: spans around the calls into each qkdlimits layer.

The tracer replaces each layer's public entry point with a timing
wrapper under every name its callers look it up by: for example
``qkdlimits.scenario.max_distance_numeric`` as well as
``qkdlimits.distance.max_distance_numeric``, and
``qkdlimits.pauli.choi_state``, which ``capacity_verdict`` finds in its
module's globals. ``restore`` puts every original back. The package's
own files are not touched.

A span records its layer name, op id, parent span, start and end; spans
stay in memory and are written out at exit. A layer's self time is its
span's duration minus the time of its child spans. A call into a layer
from inside the same layer (``run_scenario`` calling
``distance_analysis``) joins the open span instead of starting one.

Two leaf layers run thousands of times per sweep: the transmissivity
model a bisection evaluates and ``detection_probability``. They are
folded into their parent span as a call count and a total time instead
of one span each, which keeps a traced sweep run small.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, layer). A dotted attribute patches a class member.
LAYERS = (
    ("qkdlimits.pauli", "PauliDistribution.__init__", "pauli.distribution"),
    ("qkdlimits.pauli", "capacity_verdict", "pauli.capacity_verdict"),
    ("qkdlimits.pauli", "choi_state", "pauli.choi_state"),
    ("qkdlimits.pauli", "symmetric_eigenvalues", "pauli.eigensolve"),
    ("qkdlimits.qber", "security_verdict", "qber.security_verdict"),
    ("qkdlimits.qber", "pauli_from_qbers_3mub", "qber.inversion"),
    ("qkdlimits.qber", "pauli_from_qbers_2mub_worstcase", "qber.inversion"),
    ("qkdlimits.detection", "qber_k_photon", "detection.qber_model"),
    ("qkdlimits.detection", "qber_attenuated", "detection.qber_model"),
    ("qkdlimits.detection", "decoy_expected_qber", "detection.qber_model"),
    ("qkdlimits.detection", "detection_probability", "detection.detection_probability"),
    ("qkdlimits.distance", "gamma_threshold", "distance.closed_form"),
    ("qkdlimits.distance", "omega", "distance.closed_form"),
    ("qkdlimits.distance", "max_fiber_distance", "distance.closed_form"),
    ("qkdlimits.distance", "max_diffraction_distance", "distance.closed_form"),
    ("qkdlimits.distance", "max_distance_numeric", "distance.bisection"),
    ("qkdlimits.distance", "dark_count_sweep", "distance.sweep"),
    ("qkdlimits.scenario", "parse_scenario", "scenario.parse"),
    ("qkdlimits.scenario", "run_scenario", "scenario.run"),
    ("qkdlimits.scenario", "distance_analysis", "scenario.run"),
    ("qkdlimits.scenario", "sweep_scenario", "scenario.sweep"),
    ("qkdlimits.repeater", "chain_verdict", "repeater.chain_verdict"),
    ("qkdlimits.repeater", "chain_qber_verdict", "repeater.chain_qber_verdict"),
    ("qkdlimits.attack", "intercept_resend_qber_montecarlo", "attack.mc"),
    ("qkdlimits.attack", "pauli_channel_qber_montecarlo", "attack.mc"),
    ("qkdlimits.attack", "intercept_resend_qber_analytic", "attack.analytic"),
    ("qkdlimits.cli", "main", "cli.main"),
)
FOLDED = {"detection.detection_probability"}
MODEL_LAYER = "links.model"

# Per-layer metrics of the traced run, in output order, with units.
PER_LAYER = (
    ("cli.main.calls", "count"), ("cli.main.self_s", "s"),
    ("cli.import_s", "s"), ("cli.numpy_loaded_ratio", "ratio"),
    ("scenario.parse.calls", "count"), ("scenario.parse.self_s", "s"),
    ("scenario.run.calls", "count"), ("scenario.run.self_s", "s"),
    ("scenario.sweep.calls", "count"), ("scenario.sweep.points", "count"),
    ("scenario.sweep.self_s", "s"),
    ("distance.closed_form.calls", "count"), ("distance.closed_form.self_s", "s"),
    ("distance.bisection.calls", "count"), ("distance.bisection.self_s", "s"),
    ("distance.bisection.model_evals", "count"), ("distance.bisection.evals_per_call", "count"),
    ("distance.bisection.solved_ratio", "ratio"),
    ("distance.sweep.calls", "count"), ("distance.sweep.points", "count"),
    ("distance.sweep.self_s", "s"),
    ("links.model.evals", "count"), ("links.model.self_s", "s"),
    ("detection.detection_probability.calls", "count"),
    ("detection.detection_probability.self_s", "s"),
    ("detection.qber_model.calls", "count"), ("detection.qber_model.self_s", "s"),
    ("pauli.distribution.calls", "count"), ("pauli.distribution.self_s", "s"),
    ("pauli.capacity_verdict.calls", "count"), ("pauli.capacity_verdict.self_s", "s"),
    ("pauli.choi_state.self_s", "s"), ("pauli.eigensolve.self_s", "s"),
    ("qber.security_verdict.calls", "count"), ("qber.security_verdict.self_s", "s"),
    ("qber.inversion.calls", "count"), ("qber.inversion.self_s", "s"),
    ("repeater.chain_verdict.calls", "count"), ("repeater.chain_verdict.self_s", "s"),
    ("repeater.chain_qber_verdict.calls", "count"), ("repeater.chain_qber_verdict.self_s", "s"),
    ("attack.mc.calls", "count"), ("attack.mc.trials", "count"), ("attack.mc.blocks", "count"),
    ("attack.mc.self_s", "s"), ("attack.mc.ns_per_trial", "ns"),
    ("attack.analytic.calls", "count"), ("attack.analytic.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def _count_result(counts: Counter, layer: str, args: tuple, result) -> None:
    """Work counts a layer's arguments or result carry."""
    if layer == "distance.bisection":
        counts["distance.bisection.solved"] += result.status == "solved"
    elif layer in ("scenario.sweep", "distance.sweep"):
        counts[layer + ".points"] += len(result)
    elif layer == "attack.mc":
        cfg = args[-1]
        streams = args[1] if len(args) == 3 else 1  # the Pauli estimator samples per basis
        counts["attack.mc.trials"] += cfg.trials * streams
        counts["attack.mc.blocks"] += math.ceil(cfg.trials / cfg.block_size) * streams


class Tracer:
    """In-memory spans for one process."""

    def __init__(self) -> None:
        # span: [layer, op id, parent index, start, end, time covered by children]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.folded: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.counts: Counter = Counter()
        self.op_id = -1
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans

    def _open(self, layer: str) -> list:
        span = [layer, self.op_id, self.stack[-1] if self.stack else -1, 0.0, 0.0, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[3] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[4] = end = perf_counter()
        self.stack.pop()
        if self.stack:
            self.spans[self.stack[-1]][5] += end - span[3]

    def begin_op(self, op_id: int, kind: str) -> list:
        self.op_id = op_id
        return self._open("op:" + kind)

    def end_op(self, span: list) -> None:
        self._close(span)

    def _wrap(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            if stack and tracer.spans[stack[-1]][0] == layer:
                return fn(*args, **kwargs)
            if layer == "distance.bisection":
                args = (tracer._folded(MODEL_LAYER, args[0]),) + args[1:]
            span = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            _count_result(tracer.counts, layer, args, result)
            return result

        return traced

    def _folded(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                agg = tracer.folded[layer]
                agg[0] += 1
                agg[1] += dt
                if tracer.stack:
                    tracer.spans[tracer.stack[-1]][5] += dt

        return traced

    # -- patching

    def install(self) -> None:
        """Wrap every layer entry point under each name that refers to it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "qkdlimits" or name.startswith("qkdlimits."))]
        for mod_name, attr, layer in LAYERS:
            mod = sys.modules.get(mod_name)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, member, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrap = self._folded if layer in FOLDED else self._wrap
            wrapper = wrap(layer, original)
            if owner_name:
                self._patch(owner, member, wrapper, original)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, name, wrapper, original)

    def _patch(self, owner, name: str, wrapper, original) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- results

    def summary(self) -> dict:
        """Calls, self time and work counts per layer."""
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for layer, _op, _parent, start, end, child in self.spans:
            if layer.startswith("op:"):
                continue
            calls[layer] += 1
            self_s[layer] += (end - start) - child
        for layer, (n, seconds) in self.folded.items():
            calls[layer] += n
            self_s[layer] += seconds
        return {"calls": dict(calls), "self_s": dict(self_s), "counts": dict(self.counts),
                "missing": self.missing}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span[:5]) + "\n")


def merge(summaries: list[dict]) -> dict:
    out = {"calls": Counter(), "self_s": Counter(), "counts": Counter(), "missing": set()}
    for s in summaries:
        for key in ("calls", "self_s", "counts"):
            out[key].update(s[key])
        out["missing"].update(s["missing"])
    out["missing"] = sorted(out["missing"])
    return out


def per_layer_metrics(s: dict, extra: dict) -> dict[str, float]:
    """The PER_LAYER values from a merged summary; extra holds the cli.* and
    trace.* values measured outside the spans."""
    calls, self_s, counts = s["calls"], s["self_s"], s["counts"]

    def ratio(a, b):
        return a / b if b else 0.0

    values = dict(extra)
    for name, _unit in PER_LAYER:
        if name in values:
            continue
        layer, _, field = name.rpartition(".")
        if field == "calls" or field == "evals":
            values[name] = calls.get(layer, 0)
        elif field == "self_s":
            values[name] = self_s.get(layer, 0.0)
        elif name in counts:
            values[name] = counts[name]
        else:
            values[name] = 0.0
    bis = calls.get("distance.bisection", 0)
    values["distance.bisection.model_evals"] = calls.get(MODEL_LAYER, 0)
    values["distance.bisection.evals_per_call"] = ratio(calls.get(MODEL_LAYER, 0), bis)
    values["distance.bisection.solved_ratio"] = ratio(counts.get("distance.bisection.solved", 0), bis)
    values["attack.mc.ns_per_trial"] = ratio(self_s.get("attack.mc", 0.0) * 1e9, counts.get("attack.mc.trials", 0))
    return values
