"""Measure the benchmark's baseline: every gated workload over several seeds.

Usage, from the root of a checkout:

    python3 bench/baseline.py --seeds 101-110 --out bench/baseline

For each workload in ``BENCHMARK.json`` it runs ``bench/run.py`` once per
seed untraced and once traced, and writes ``<out>/<workload>.json`` with
every run's end-to-end values, their median and their spread (quartile
distance over the median, as ``statistics.quantiles(values, n=4)`` gives
the quartiles), plus the traced run's result file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{out.stdout}\n{out.stderr}")
    with open(os.path.join(ROOT, "bench", "out", f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        return json.load(fh)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="101-110", help="inclusive range a-b")
    parser.add_argument("--out", default=os.path.join("bench", "baseline"))
    parser.add_argument("--workloads", default=None, help="comma-separated subset")
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    os.makedirs(os.path.join(ROOT, args.out), exist_ok=True)
    for name in names:
        runs = [_run(name, seed, spec["run_seconds"], 0) for seed in range(lo, hi + 1)]
        metrics = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            metrics[m["name"]] = {
                "unit": m["unit"], "bound": m["bound"], "median": median,
                "spread": (q[2] - q[0]) / median, "values": values,
            }
            print(f"{name:<14} {m['name']:<14} median {median:.6g} {m['unit']:<6} "
                  f"spread {metrics[m['name']]['spread']:.4f} (bound {m['bound']})", flush=True)
        summary = {
            "workload": name,
            "seeds": list(range(lo, hi + 1)),
            "run_seconds": spec["run_seconds"],
            "machine": runs[0]["machine"],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": metrics,
            "traced": _run(name, lo, spec["run_seconds"], 1),
        }
        with open(os.path.join(ROOT, args.out, f"{name}.json"), "w") as fh:
            json.dump(summary, fh, indent=1)


if __name__ == "__main__":
    main()
