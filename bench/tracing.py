"""Span tracing of the mlvamp layers, installed from outside the package.

Each traced function is replaced, on every loaded ``mlvamp.*`` module that
binds it, by a wrapper that records one span: name, start, end, parent span
and the op it belongs to, plus a few attributes read from the call's
arguments (layer index, points, computed flops) or its result (iterations,
clip events, divergence).  Spans stay in memory; ``Tracer.write`` saves them
once the benchmark ends.  ``uninstall`` puts the original functions back.

Per-layer figures derived from the spans follow three rules:

* whole-call figures (``harness.*``, ``model.*`` times, ``engine.run`` and the
  engine's once-per-run helpers, ``state_evolution.run_se`` and
  ``se_initial_pass``) are the median per call over the timed phase, or over
  set-up when the function runs only there;
* per-iteration figures (sweep self times, estimator times per (layer,
  direction), scalar-predictor layer steps) and counts are summed over the
  timed phase and divided by the ops it completed;
* ``engine.diverged`` is the number of engine runs in the timed phase that
  ended in a divergence.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict

#: (module, function) pairs wrapped by the tracer.
TRACED = (
    ("harness", "calibrate_recipe"),
    ("harness", "build_synthetic_network"),
    ("harness", "run_single_trial"),
    ("harness", "run_trials"),
    ("harness", "write_result_csv"),
    ("model", "sample_haar_orthogonal"),
    ("model", "linear_layer_from_factors"),
    ("model", "forward_generate"),
    ("model", "calibrate_noise_to_snr"),
    ("engine", "run"),
    ("engine", "forward_pass"),
    ("engine", "backward_pass"),
    ("engine", "build_denoiser_bank"),
    ("engine", "signal_power_ladder"),
    ("engine", "fixed_point_report"),
    ("denoisers", "linear_pair"),
    ("denoisers", "mmse_pair_nonlinear"),
    ("denoisers", "map_pair_nonlinear"),
    ("denoisers", "output_linear"),
    ("denoisers", "input_denoiser"),
    ("denoisers", "scalar_pair"),
    ("denoisers", "gauss_hermite_rule"),
    ("state_evolution", "run_se"),
    ("state_evolution", "se_forward_layer"),
    ("state_evolution", "se_backward_layer"),
    ("state_evolution", "se_initial_pass"),
)

# Layer indices of the paper network (7 layers: affine/relu pairs, then the
# affine measurement).  Affine pairs sit at odd layers, relu pairs at even.
LINEAR_PAIR_LAYERS = (1, 3, 5)
SEPARABLE_PAIR_LAYERS = (2, 4, 6)
SE_LAYERS = (1, 2, 3, 4, 5, 6)
DIRECTIONS = ("fwd", "bwd")

_NAME, _START, _END, _PARENT, _OP, _ATTRS = range(6)


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._layer_of = {}
        self._pid = os.getpid()
        self._patched = []

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every function in ``TRACED`` wherever an mlvamp module binds it."""
        if self._patched:
            return
        loaded = [m for n, m in sys.modules.items() if n == "mlvamp" or n.startswith("mlvamp.")]
        for module_name, fn_name in TRACED:
            original = getattr(sys.modules[f"mlvamp.{module_name}"], fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original)
            for module in loaded:
                if getattr(module, fn_name, None) is original:
                    setattr(module, fn_name, wrapper)
                    self._patched.append((module, fn_name, original))

    def uninstall(self):
        for module, fn_name, original in reversed(self._patched):
            setattr(module, fn_name, original)
        self._patched = []

    def _wrap(self, name, fn):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        failed = _FAILED.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # forked pool workers inherit the wrappers; their spans would be lost
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            attrs = before(self, args, kwargs) if before else None
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, attrs]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[_START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[_END] = time.perf_counter()
                self._stack.pop()
                if failed:
                    span[_ATTRS] = {**(span[_ATTRS] or {}), **failed(exc)}
                raise
            span[_END] = time.perf_counter()
            self._stack.pop()
            if after:
                span[_ATTRS] = {**(span[_ATTRS] or {}), **after(args, kwargs, result)}
            return result

        return wrapper

    def _direction(self):
        """Sweep direction of the innermost enclosing engine pass."""
        for idx in reversed(self._stack):
            name = self.spans[idx][_NAME]
            if name == "engine.forward_pass":
                return "fwd"
            if name == "engine.backward_pass":
                return "bwd"
        return None

    # -- output -------------------------------------------------------------

    def write(self, path):
        """Save every span as one JSON line."""
        with open(path, "w") as fh:
            for name, start, end, parent, op, attrs in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent,
                         "op": op, "attrs": attrs}
                    )
                    + "\n"
                )

    def op_counts(self):
        """Exact per-op counts, keyed by op id, for the repeat check."""
        counts = defaultdict(lambda: defaultdict(int))
        for name, _, _, _, op, attrs in self.spans:
            if op is None:
                continue
            c = counts[op]
            if name == "engine.run":
                c["engine.iterations"] += attrs.get("iterations", 0)
                c["engine.clip_events"] += attrs.get("clip_events", 0)
            elif name == "denoisers.linear_pair":
                c["denoisers.linear_pair.calls"] += 1
            elif name == "denoisers.scalar_pair":
                c["denoisers.scalar_pair.points"] += attrs["points"]
            elif name == "denoisers.gauss_hermite_rule":
                c["denoisers.gauss_hermite_rule.calls"] += 1
            elif name == "model.sample_haar_orthogonal":
                c["model.sample_haar_orthogonal.calls"] += 1
        return {op: dict(c) for op, c in sorted(counts.items())}

    def per_layer(self, n_ops):
        """Per-layer figures (see the module docstring) from the recorded spans."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[_PARENT] >= 0:
                child_time[s[_PARENT]] += s[_END] - s[_START]

        timed = defaultdict(list)  # name -> [(duration, self, attrs)] in the timed phase
        setup = defaultdict(list)
        for i, s in enumerate(spans):
            dur = s[_END] - s[_START]
            (setup if s[_OP] is None else timed)[s[_NAME]].append((dur, dur - child_time[i], s[_ATTRS]))

        def per_call(name, scale, use_self=False):
            calls = timed.get(name) or setup.get(name) or []
            if not calls:
                return 0.0
            return scale * statistics.median(c[1] if use_self else c[0] for c in calls)

        def per_op(name, scale=1e3, use_self=False, keep=lambda attrs: True):
            total = sum(c[1] if use_self else c[0] for c in timed.get(name, ()) if keep(c[2]))
            return scale * total / max(n_ops, 1)

        def count(name, field=None, keep=lambda attrs: True):
            calls = [c[2] for c in timed.get(name, ()) if keep(c[2])]
            total = len(calls) if field is None else sum(a.get(field, 0) for a in calls)
            return total / max(n_ops, 1)

        def at(ell, direction=None):
            return lambda a: a["layer"] == ell and (direction is None or a["dir"] == direction)

        m = {
            "harness.calibrate_recipe.s": per_call("harness.calibrate_recipe", 1.0),
            "harness.build_synthetic_network.ms": per_call("harness.build_synthetic_network", 1e3),
            "harness.run_single_trial.ms": per_call("harness.run_single_trial", 1e3),
            "harness.run_trials.s": per_call("harness.run_trials", 1.0),
            "harness.run_trials.self_s": per_call("harness.run_trials", 1.0, use_self=True),
            "harness.write_result_csv.ms": per_call("harness.write_result_csv", 1e3),
            "harness.write_result_csv.bytes": _mean_attr(timed, setup, "harness.write_result_csv", "bytes"),
            "model.sample_haar_orthogonal.ms": per_call("model.sample_haar_orthogonal", 1e3),
            "model.sample_haar_orthogonal.calls": count("model.sample_haar_orthogonal"),
            "model.linear_layer_from_factors.ms": per_call("model.linear_layer_from_factors", 1e3),
            "model.forward_generate.ms": per_call("model.forward_generate", 1e3),
            "model.calibrate_noise_to_snr.s": per_call("model.calibrate_noise_to_snr", 1.0),
            "engine.run.ms": per_call("engine.run", 1e3),
            "engine.forward_pass.self_ms": per_op("engine.forward_pass", use_self=True),
            "engine.backward_pass.self_ms": per_op("engine.backward_pass", use_self=True),
            "engine.build_denoiser_bank.ms": per_call("engine.build_denoiser_bank", 1e3),
            "engine.signal_power_ladder.ms": per_call("engine.signal_power_ladder", 1e3),
            "engine.fixed_point_report.ms": per_call("engine.fixed_point_report", 1e3),
            "engine.iterations": count("engine.run", "iterations"),
            "engine.clip_events": count("engine.run", "clip_events"),
            "engine.diverged": float(sum(1 for c in timed.get("engine.run", ()) if c[2].get("diverged"))),
        }
        for ell in LINEAR_PAIR_LAYERS:
            for d in DIRECTIONS:
                m[f"denoisers.linear_pair.L{ell}.{d}.ms"] = per_op("denoisers.linear_pair", keep=at(ell, d))
        m["denoisers.linear_pair.calls"] = count("denoisers.linear_pair")
        m["denoisers.linear_pair.gflop_computed"] = count("denoisers.linear_pair", "flop") / 1e9
        m["denoisers.linear_pair.mb_computed"] = count("denoisers.linear_pair", "bytes") / 1e6
        for fn in ("mmse_pair_nonlinear", "map_pair_nonlinear"):
            for ell in SEPARABLE_PAIR_LAYERS:
                for d in DIRECTIONS:
                    m[f"denoisers.{fn}.L{ell}.{d}.ms"] = per_op(f"denoisers.{fn}", keep=at(ell, d))
        m["denoisers.output_linear.ms"] = per_op("denoisers.output_linear")
        m["denoisers.input_denoiser.ms"] = per_op("denoisers.input_denoiser")
        m["denoisers.scalar_pair.ms"] = per_op("denoisers.scalar_pair")
        m["denoisers.scalar_pair.points"] = count("denoisers.scalar_pair", "points")
        m["denoisers.gauss_hermite_rule.calls"] = count("denoisers.gauss_hermite_rule")
        m["state_evolution.run_se.s"] = per_call("state_evolution.run_se", 1.0)
        m["state_evolution.run_se.self_ms"] = per_call("state_evolution.run_se", 1e3, use_self=True)
        for ell in SE_LAYERS:
            m[f"state_evolution.se_forward_layer.L{ell}.ms"] = per_op(
                "state_evolution.se_forward_layer", keep=at(ell))
            m[f"state_evolution.se_backward_layer.L{ell}.ms"] = per_op(
                "state_evolution.se_backward_layer", keep=at(ell))
        m["state_evolution.se_initial_pass.ms"] = per_call("state_evolution.se_initial_pass", 1e3)
        return m

    def divergences(self):
        """(op, layer, iteration) of every engine run that diverged in the timed phase."""
        return [
            (s[_OP], s[_ATTRS].get("layer"), s[_ATTRS].get("iteration"))
            for s in self.spans
            if s[_NAME] == "engine.run" and s[_OP] is not None and s[_ATTRS].get("diverged")
        ]


def _mean_attr(timed, setup, name, field):
    calls = timed.get(name) or setup.get(name) or []
    return sum(c[2].get(field, 0) for c in calls) / len(calls) if calls else 0.0


# -- attribute extractors ---------------------------------------------------


def _engine_run_before(tracer, args, kwargs):
    spec = args[0]
    tracer._layer_of = {}
    for ell, layer in enumerate(spec.layers, start=1):
        key = layer.factors if layer.kind == "linear" else layer
        if key is not None:
            tracer._layer_of[id(key)] = ell
    return {}


def _trace_counts(trace):
    # the clip counter restarts every iteration and the backward row holds its total
    back = [row for row in trace.rows if row.direction == "backward"]
    return {"iterations": len(back), "clip_events": sum(row.clip_events for row in back)}


def _engine_run_after(args, kwargs, result):
    return _trace_counts(result[1])


def _engine_run_failed(exc):
    out = {"diverged": True, "layer": getattr(exc, "layer", None),
           "iteration": getattr(exc, "iteration", None)}
    trace = getattr(exc, "trace", None)
    if trace is not None:
        out.update(_trace_counts(trace))
    return out


def _linear_pair_before(tracer, args, kwargs):
    factors = args[1]
    n_out, n_in = factors.out_dim, factors.in_dim
    squares = n_out * n_out + n_in * n_in
    # four dense rotations: two matrix reads of each factor, 2 flops per entry
    return {
        "layer": tracer._layer_of.get(id(factors)),
        "dir": tracer._direction(),
        "flop": 4 * squares,
        "bytes": 16 * squares,
    }


def _separable_pair_before(tracer, args, kwargs):
    return {"layer": tracer._layer_of.get(id(args[1])), "dir": tracer._direction()}


def _se_layer_before(tracer, args, kwargs):
    return {"layer": int(args[1])}


def _scalar_pair_before(tracer, args, kwargs):
    import numpy as np

    return {"points": int(max(np.size(args[3]), np.size(args[4])))}


def _csv_after(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


_BEFORE = {
    "engine.run": _engine_run_before,
    "denoisers.linear_pair": _linear_pair_before,
    "denoisers.mmse_pair_nonlinear": _separable_pair_before,
    "denoisers.map_pair_nonlinear": _separable_pair_before,
    "denoisers.scalar_pair": _scalar_pair_before,
    "state_evolution.se_forward_layer": _se_layer_before,
    "state_evolution.se_backward_layer": _se_layer_before,
}
_AFTER = {
    "engine.run": _engine_run_after,
    "harness.write_result_csv": _csv_after,
}
_FAILED = {
    "engine.run": _engine_run_failed,
}
