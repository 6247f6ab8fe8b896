"""Checks of the benchmark itself.

Run from the root of the repository with ``python3 -m pytest bench/test_bench.py``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")

#: The exact counts each workload must record per op.
COUNTS = {
    "paper-serial": ("engine.iterations", "engine.clip_events", "denoisers.linear_pair.calls",
                     "model.sample_haar_orthogonal.calls"),
    "fixednet-map": ("engine.iterations", "engine.clip_events", "denoisers.linear_pair.calls"),
    "predictor": ("denoisers.scalar_pair.points", "denoisers.gauss_hermite_rule.calls"),
}


def _run(root, workload, seed, trace, seconds=1):
    return subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("workload", sorted(COUNTS))
def test_counts_repeat_exactly_for_the_same_seed(workload):
    runs = []
    for _ in range(2):
        out = _run(ROOT, workload, seed=5, trace=1)
        assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
        assert json.loads(out.stdout.splitlines()[-1])["correct"] is True
        with open(os.path.join(OUT, f"{workload}-seed5-trace1.json")) as fh:
            runs.append(json.load(fh)["info"]["op_counts"])
    common = sorted(set(runs[0]) & set(runs[1]), key=int)
    assert common, "no traced op in common"
    for op in common:
        assert runs[0][op] == runs[1][op], f"op {op}"
        for name in COUNTS[workload]:
            assert name in runs[0][op], f"op {op} lacks {name}"


def test_a_directory_without_the_program_exits_nonzero_without_a_result():
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        out = _run(bare, "paper-serial", seed=1, trace=0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_a_failed_check_makes_the_exit_code_nonzero(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import run

    run._import_package()
    import workloads

    def broken(self, i):
        self.problems.append("injected")
        return [workloads.OpRecord(ok=True, recovery_db=1.0)]

    monkeypatch.setattr(workloads.FixedNetMap, "op", broken)
    monkeypatch.setattr(workloads.FixedNetMap, "min_ops", 1)
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    assert run.main(["--workload", "fixednet-map", "--seed", "1", "--seconds", "0.01"]) == 1
