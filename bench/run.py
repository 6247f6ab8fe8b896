"""Benchmark of the mlvamp package on the paper network.

Usage, from the root of a checkout:

    python3 bench/run.py --workload paper-serial --seed 1 --seconds 50 --trace 0

The program is imported from ``src/`` of the checkout; nothing is installed
and no thread or worker variable is set, so the program runs as a user would
run it.  The load is closed-loop: one client in this process runs one op at
a time.

``--trace 0`` sets the workload up five times (``setup_s`` is the median),
then runs ops for ``--seconds`` seconds, and at least the workload's
``min_ops``, and reports the end-to-end metrics:

* ``setup_s``      seconds of set-up (calibration, the law, the fixed network);
* ``ops_per_s``    ops completed per second of op time;
* ``op_ms.p50``    median op latency, timed from here (for ``paper-pool``, the
                   per-trial time its workers measure);
* ``ok_share``     share of the first ``min_ops`` ops that neither diverged nor
                   failed numerically;
* ``peak_rss_mb``  peak resident memory of this process plus that of its
                   largest finished child;
* ``recovery0_db`` minus the mean final layer-0 NMSE in dB over the ok ops
                   among the first ``min_ops`` (for ``predictor``, minus the
                   predicted final layer-0 NMSE); higher is better.

The three timings are read at the host's nominal speed.  On a shared host
the same code runs up to 1.5 times slower for minutes at a time, which is
more than any bound a timing may have.  So a fixed probe kernel (see
``_probe_ms``) is timed before the first op and after every op and set-up,
and each timing is multiplied by ``PROBE_NOMINAL_MS`` over the mean of the
probe times on either side of it.  A change to the program moves the timing
and not the probe, so it shows in full.  The uncorrected figures are printed
too, ungated, and kept in the result file with every probe time.

It also prints, ungated, the highest latency percentile with at least ten
samples beyond it, with the sample count, and for ``paper-pool`` the largest
gap between the mean empirical and the predicted layer-0 NMSE.

``--trace 1`` sets up (five times) with the tracer installed, runs untraced
ops for half of ``--seconds`` and then the same ops traced for the other half, and
reports the per-layer metrics of ``tracing.Tracer.per_layer`` together with
the tracing overhead.  Spans go to ``bench/out/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts the ops whose
output broke a correctness check; a trial that diverged is an outcome the
program reports, so it counts against ``ok_share`` instead.  A failed
correctness check makes the exit code 1; a checkout without the package
makes it 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "bench", "out")
SETUP_REPS = 5

#: The host-speed probe: scipy's ``log_ndtr`` over PROBE_POINTS normal
#: deviates, PROBE_PASSES times, in this process and on one thread.  It is
#: the kind of work the program spends its time in, and its time follows the
#: host's drift: over five to eight minutes it correlated 0.8 with ``run_se``
#: and 0.7 with a paper trial, and it cut the spread of the medians of 12- to
#: 30-second windows of paper trials from 7-8% to 2-2.5%.
PROBE_POINTS = 100_000
PROBE_PASSES = 5
#: The probe's median time on the 2-vCPU host the baseline was measured on.
PROBE_NOMINAL_MS = 19.0
_probe_input = None

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
    "recovery0_db": "dB",
}

#: Which end-to-end metric each module's per-layer figures should move, and where.
MOVES = {
    "harness": "setup_s on all; ops_per_s on paper-serial (build) and paper-pool (pool self time, CSV)",
    "model": "op_ms.p50 on paper-serial/paper-pool; setup_s only on fixednet-map and predictor",
    "engine": "op_ms.p50 on fixednet-map and paper-serial; nothing on predictor",
    "denoisers": "pair/output: op_ms.p50 on fixednet-map and paper-serial; mmse pair: paper-serial only; "
                 "scalar_pair and gauss_hermite_rule: op_ms.p50 on predictor, ops_per_s on paper-pool",
    "state_evolution": "op_ms.p50 on predictor; ops_per_s on paper-pool; nothing on paper-serial or fixednet-map",
}


def _import_package():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mlvamp", "__init__.py")):
        raise ImportError(f"no mlvamp package under {src}")
    sys.path.insert(0, src)
    import mlvamp

    if not os.path.abspath(mlvamp.__file__).startswith(src + os.sep):
        raise ImportError(f"mlvamp imported from {mlvamp.__file__}, not from {src}")


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _tail(latencies):
    """Highest integer percentile with at least ten samples above it, or None."""
    import numpy as np

    xs = np.sort(np.asarray(latencies, float))
    for k in range(99, 49, -1):
        value = float(np.percentile(xs, k))
        if int(np.sum(xs > value)) >= 10:
            return k, value
    return None


def _probe_ms():
    """Milliseconds the probe kernel takes now."""
    global _probe_input
    import numpy as np
    from scipy.special import log_ndtr

    if _probe_input is None:
        _probe_input = np.random.default_rng(0).standard_normal(PROBE_POINTS)
        log_ndtr(_probe_input)  # warm-up
    passes = []
    for _ in range(PROBE_PASSES):
        t0 = time.perf_counter()
        log_ndtr(_probe_input)
        passes.append(time.perf_counter() - t0)
    # the median pass, so that one interrupted pass does not count
    return 1e3 * PROBE_PASSES * statistics.median(passes)


def _speed_factors(probes):
    """Factor for the i-th timing, taken between ``probes[i]`` and ``probes[i + 1]``."""
    return [2.0 * PROBE_NOMINAL_MS / (a + b) for a, b in zip(probes, probes[1:])]


def _run_ops(workload, seconds, min_ops, tracer=None):
    """Closed loop: op after op until ``seconds`` have passed and ``min_ops`` ran.

    Returns the records of each op call, the latencies of each call's
    records, the latency of each op call and the probe times around the calls.
    """
    per_call, latencies, call_ms = [], [], []
    probes = [_probe_ms()]
    start = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        records = workload.op(i)
        ms = 1e3 * (time.perf_counter() - t0)
        if tracer is not None:
            tracer.op = None
        probes.append(_probe_ms())
        per_call.append(records)
        call_ms.append(ms)
        latencies.append([ms if r.ms is None else r.ms for r in records])
        i += 1
    return per_call, latencies, call_ms, probes


def _setup(factory, seed, reps):
    """Set up ``reps`` times; every repetition must build the same thing.

    Returns the last workload, the time of each set-up and the probe times
    around them.
    """
    times, fingerprints, workload = [], set(), None
    probes = [_probe_ms()]
    for _ in range(reps):
        workload = factory()
        t0 = time.perf_counter()
        made = workload.setup(seed)
        times.append(time.perf_counter() - t0)
        probes.append(_probe_ms())
        fingerprints.add(pickle.dumps(made))
    if len(fingerprints) != 1:
        workload.problems.append("repeated set-up with the same seed built different inputs")
    return workload, times, probes


def _untraced(factory, args):
    workload, setup_times, setup_probes = _setup(factory, args.seed, SETUP_REPS)
    per_call, per_call_ms, call_ms, probes = _run_ops(workload, args.seconds, workload.min_ops)
    extra = workload.finish()
    records = [r for call in per_call for r in call]
    prefix = [r for call in per_call[: workload.min_ops] for r in call]
    ok_prefix = [r.recovery_db for r in prefix if r.ok]
    factors = _speed_factors(probes)
    latencies = [ms * f for call, f in zip(per_call_ms, factors) for ms in call]
    raw_latencies = [ms for call in per_call_ms for ms in call]
    metrics = {
        "setup_s": statistics.median(t * f for t, f in zip(setup_times, _speed_factors(setup_probes))),
        "ops_per_s": 1e3 * len(records) / sum(ms * f for ms, f in zip(call_ms, factors)),
        "op_ms.p50": statistics.median(latencies),
        "ok_share": len(ok_prefix) / len(prefix),
        "peak_rss_mb": _peak_rss_mb(),
        "recovery0_db": statistics.fmean(ok_prefix) if ok_prefix else float("nan"),
    }
    raw = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": 1e3 * len(records) / sum(call_ms),
        "op_ms.p50": statistics.median(raw_latencies),
    }
    tail = _tail(latencies)
    info = {
        "samples": len(latencies),
        "uncorrected": raw,
        "setup_times_s": setup_times,
        "setup_probe_ms": setup_probes,
        "op_call_ms": call_ms,
        "op_probe_ms": probes,
        "op_ms.tail": None if tail is None else {"percentile": tail[0], "value": tail[1]},
        **extra,
    }
    lines = [f"{name:<14} {value:.6g} {END_TO_END_UNITS[name]}" for name, value in metrics.items()]
    lines += [f"{name:<14} {value:.6g} {END_TO_END_UNITS[name]}   (uncorrected, ungated)"
              for name, value in raw.items()]
    if tail is not None:
        lines.append(f"{'op_ms.p%d' % tail[0]:<14} {tail[1]:.6g} ms   (n = {len(latencies)}, ungated)")
    else:
        lines.append(f"op_ms tail     n/a (n = {len(latencies)}: fewer than ten samples beyond p50)")
    if "se_gap_db" in extra:
        lines.append(f"{'se_gap_db':<14} {extra['se_gap_db']:.6g} dB   (ungated)")
    units = END_TO_END_UNITS
    return workload, records, metrics, units, info, lines


def _traced(factory, args):
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        workload, _, _ = _setup(factory, args.seed, SETUP_REPS)
    finally:
        tracer.uninstall()
    half = args.seconds / 2.0
    plain_calls, _, plain_ms, plain_probes = _run_ops(workload, half, 1)
    tracer.install()
    try:
        per_call, _, traced_ms, traced_probes = _run_ops(workload, half, 1, tracer=tracer)
    finally:
        tracer.uninstall()
    workload.finish()
    plain_records = [r for call in plain_calls for r in call]
    records = [r for call in per_call for r in call]
    metrics = tracer.per_layer(len(records))
    # same op inputs in both halves: op i of the traced half repeats op i of the untraced one
    metrics["trace.overhead_ratio"] = statistics.median(
        ms * f for ms, f in zip(traced_ms, _speed_factors(traced_probes))
    ) / statistics.median(ms * f for ms, f in zip(plain_ms, _speed_factors(plain_probes)))
    units = {name: _unit(name) for name in metrics}
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}.spans.jsonl")
    tracer.write(spans_path)
    info = {
        "traced_ops": len(records),
        "untraced_ops": len(plain_records),
        "op_call_ms": {"untraced": plain_ms, "traced": traced_ms},
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "divergences": tracer.divergences(),
        "op_counts": tracer.op_counts(),
        "moves": MOVES,
    }
    lines = [f"{name:<52} {value:.6g} {units[name]}" for name, value in metrics.items()]
    children = ("harness.build_synthetic_network.ms", "model.forward_generate.ms", "engine.run.ms")
    if metrics["harness.run_single_trial.ms"] > 0:
        share = sum(metrics[c] for c in children) / metrics["harness.run_single_trial.ms"]
        info["trial_children_share"] = share
        lines.append(f"build + forward_generate + engine.run cover {100 * share:.1f}% of run_single_trial")
    for op, layer, iteration in info["divergences"]:
        lines.append(f"engine.run diverged in op {op} at layer {layer}, iteration {iteration}")
    lines += [f"moves: {module:<16} -> {text}" for module, text in MOVES.items()]
    return workload, plain_records + records, metrics, units, info, lines


def _unit(name):
    if name.endswith(".calls") or name in ("engine.iterations", "engine.clip_events", "engine.diverged"):
        return "count"
    if name.endswith(".points"):
        return "count"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("gflop_computed"):
        return "GFLOP"
    if name.endswith("mb_computed"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".ms") or name.endswith("self_ms"):
        return "ms"
    return "s"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        _import_package()
    except ImportError as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2

    from machine import machine_record
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    os.makedirs(OUT, exist_ok=True)
    cls = WORKLOADS[args.workload]
    factory = lambda: cls(OUT)  # noqa: E731
    run = _traced if args.trace else _untraced
    workload, records, metrics, units, info, lines = run(factory, args)

    problems = workload.problems
    problems += [f"metric {name} is not finite" for name, value in metrics.items() if not math.isfinite(value)]
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(1 for r in records if r.failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(ROOT),
        "problems": problems,
        "info": info,
        **result,
    }
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for line in lines:
        print(line)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"result file {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
