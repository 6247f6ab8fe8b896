"""The benchmark workloads over the paper network.

``BENCHMARK.json`` gates two of them, ``paper-serial`` and ``predictor``; the
other two still run with ``--workload`` but are not gated, because on a
shared 2-core host (OpenBLAS 0.3.31) they could not be made steady:

* ``paper-pool``, the ``mlvamp run`` path through the process pool: with the
  program's default worker count every worker runs a multi-threaded
  OpenBLAS, and its throughput varied 4x across five runs (0.15 to 0.59
  trials/s), far beyond any bound the benchmark may set;
* ``fixednet-map``: its median op latency moved by 28% between two sets of
  ten runs of the same code (151 ms, then 194 ms), more than the largest
  bound.  Its engine and estimator layers are still measured on
  ``paper-serial``; only the map estimator path goes unmeasured.

Both figures predate the host-speed correction of ``run.py`` and were not
measured again with it.  Gating a third workload would also mean shorter
runs, to keep all runs of the benchmark within the hour.

The paper configuration is the 7-layer relu chain 20/100/100/500/500/784/784
with M = 100 measurements, 50 iterations, damping 0.7, posterior-mean mode
and no early stop, calibrated with master seed 0 as ``mlvamp run`` does by
default.  The calibration is part of that configuration, so it is the same
in every run: a per-seed calibration moves the predicted layer-0 NMSE by
about 3 dB, which would swamp the quality figures.  Trial, network and
observation seeds are derived from the workload seed; the program sees only
the recipe, the calibration and those seeds.  Calls go through module
attributes (``harness.run_single_trial`` and so on) so that the tracer's
wrappers see them.

A workload object is set up once per set-up repetition; ``op(i)`` runs the
i-th op and returns one ``OpRecord`` per completed unit of work (one trial,
one observation or one predictor run); ``finish()`` runs the untimed
end-of-run checks.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from mlvamp import engine, harness, model, state_evolution
from mlvamp.engine import EngineConfig
from mlvamp.errors import DivergedIterationError, NumericFailureError
from mlvamp.state_evolution import SEConfig

RECIPE = harness.SyntheticRecipe()
ITERATIONS = 50
DAMPING = 0.7
MMSE = EngineConfig(max_iters=ITERATIONS, mode="mmse", damping=DAMPING, convergence_tol=0.0)
MAP = EngineConfig(max_iters=ITERATIONS, mode="map", damping=DAMPING, convergence_tol=0.0)
SE = SEConfig(iterations=ITERATIONS, damping=DAMPING)
HALF_ITERS = 2 * ITERATIONS
SIGNALS = len(RECIPE.dims) - 1

CALIBRATION_SEED = 0

# path tags for the inputs derived from the workload seed
_TRIAL, _BATCH, _NET, _OBS = range(4)


def derive(seed, *path):
    """A program seed in [0, 2**62) that depends only on (seed, *path)."""
    return int(np.random.default_rng([int(seed), *path]).integers(2**62))


@dataclass
class OpRecord:
    """One completed unit of work.

    ``ok`` is False when the run diverged or failed numerically.  The program
    reports that as an outcome (a ``TrialResult.error``, or a
    ``DivergedIterationError`` from ``engine.run``); it is counted in
    ``ok_share``, not as a failed op.  ``failed`` marks an op whose output
    broke a correctness check.
    """

    ok: bool
    recovery_db: float | None = None  # -(final layer-0 NMSE in dB), ok records only
    ms: float | None = None  # latency when measured inside the program, else None
    failed: bool = False


def _nmse_problem(nmse, what):
    nmse = np.asarray(nmse, float)
    if nmse.shape != (HALF_ITERS, SIGNALS):
        return f"{what}: NMSE grid has shape {nmse.shape}, expected {(HALF_ITERS, SIGNALS)}"
    if not np.all(np.isfinite(nmse)):
        return f"{what}: non-finite NMSE"
    return None


def _se_problem(se, what):
    if se.nmse_db.shape != (HALF_ITERS, SIGNALS) or not np.all(np.isfinite(se.nmse_db)):
        return f"{what}: predictor curves are not a finite {(HALF_ITERS, SIGNALS)} grid"
    if not np.all(np.isfinite(se.mse)):
        return f"{what}: predictor MSE is not finite"
    return None


def _trial_record(trial, problems, ms=None):
    if trial.error is not None:
        return OpRecord(ok=False, ms=ms)
    problem = _nmse_problem(trial.nmse_db, f"trial {trial.seed}")
    if problem:
        problems.append(problem)
    return OpRecord(ok=True, recovery_db=-float(trial.nmse_db[-1, 0]), ms=ms, failed=bool(problem))


def _same_trial(a, b):
    if a.seed != b.seed or a.error != b.error:
        return False
    fields = ("nmse_db", "gamma_plus", "gamma_minus", "alpha_plus", "alpha_minus", "consistency")
    return all(
        (getattr(a, f) is None and getattr(b, f) is None) or np.array_equal(getattr(a, f), getattr(b, f))
        for f in fields
    )


class _Workload:
    name = ""
    min_ops = 1  # ops every untraced run completes; quality figures use exactly these

    def __init__(self, workdir):
        self.workdir = workdir
        self.problems = []

    def setup(self, seed):
        """Build what the ops share; returns a value that must repeat across set-ups."""
        self.seed = seed
        self.calibration = harness.calibrate_recipe(RECIPE, CALIBRATION_SEED)
        return self.calibration

    def finish(self):
        return {}


class PaperSerial(_Workload):
    """One op = one paper trial through ``harness.run_single_trial``."""

    name = "paper-serial"
    min_ops = 50

    def op(self, i):
        trial = harness.run_single_trial(RECIPE, self.calibration, MMSE, derive(self.seed, _TRIAL, i))
        return [_trial_record(trial, self.problems)]


class PaperPool(_Workload):
    """The ``mlvamp run`` path: ``run_trials`` with the program's own worker count.

    One op call runs a batch of trials (one ``run_se`` included), builds the
    result rows and writes the CSV; each trial is one record, with the
    latency the worker measured.
    """

    name = "paper-pool"
    batch = 8
    min_ops = 2

    def setup(self, seed):
        calibration = super().setup(seed)
        self.law = harness.recipe_law(RECIPE, calibration)
        self.csv_path = os.path.join(self.workdir, "paper-pool.csv")
        self.first = None
        self.prefix_nmse = []
        self.rows = 0
        return calibration

    def op(self, i):
        config = harness.ExperimentConfig(
            recipe=RECIPE, engine=MMSE, se=SE, trials=self.batch,
            master_seed=derive(self.seed, _BATCH, i), experiment_id="bench",
        )
        result = harness.run_trials(config, self.calibration, self.law, workers=None)
        rows = harness.result_rows(result)
        harness.write_result_csv(self.csv_path, rows)
        self.rows = len(rows)
        problem = _se_problem(result.se_result, f"batch {i}")
        if problem:
            self.problems.append(problem)
        if i == 0 and self.first is None:
            self.first = result
        if i < self.min_ops:
            self.prefix_nmse += [t.nmse_db for t in result.ok_trials]
        self.se_nmse = result.se_result.nmse_db
        return [_trial_record(t, self.problems, ms=t.wall_ms) for t in result.trials]

    def finish(self):
        # worker-count invariance: trial 0 re-run in this process, bit for bit
        t0 = self.first.trials[0]
        again = harness.run_single_trial(RECIPE, self.calibration, MMSE, t0.seed)
        if not _same_trial(t0, again):
            self.problems.append("paper-pool trial 0 differs when re-run in-process")
        if len(harness.read_result_csv(self.csv_path)) != self.rows:
            self.problems.append("paper-pool CSV does not read back with every row")
        os.remove(self.csv_path)
        mean = np.mean(self.prefix_nmse, axis=0)[:, 0]
        return {"se_gap_db": float(np.max(np.abs(mean - self.se_nmse[:, 0])))}


class Predictor(_Workload):
    """One op = one ``run_se`` call on the paper law."""

    name = "predictor"
    min_ops = 1

    def setup(self, seed):
        calibration = super().setup(seed)
        self.law = harness.recipe_law(RECIPE, calibration)
        self.reference = None
        return calibration

    def op(self, i):
        se = state_evolution.run_se(self.law, SE)
        problem = _se_problem(se, f"run_se call {i}")
        if self.reference is None:
            self.reference = se.nmse_db
        elif not problem and not np.array_equal(se.nmse_db, self.reference):
            problem = f"run_se call {i} differs from the first call"
        if problem:
            self.problems.append(problem)
        return [OpRecord(ok=True, recovery_db=-float(se.nmse_db[-1, 0]), failed=bool(problem))]


class FixedNetMap(_Workload):
    """Set-up builds one paper network; one op = a fresh observation run in map mode."""

    name = "fixednet-map"
    min_ops = 120

    def setup(self, seed):
        calibration = super().setup(seed)
        self.spec = harness.build_synthetic_network(RECIPE, derive(seed, _NET), calibration)
        return calibration, tuple(layer.bias.tobytes() for layer in self.spec.layers if layer.kind == "linear")

    def op(self, i):
        truth = model.forward_generate(self.spec, derive(self.seed, _OBS, i))
        try:
            _, trace, _ = engine.run(self.spec, truth.y, MAP, truth=truth)
        except (DivergedIterationError, NumericFailureError):
            return [OpRecord(ok=False)]
        nmse = [row.nmse_db for row in trace.rows]
        problem = _nmse_problem(nmse, f"observation {i}")
        if problem:
            self.problems.append(problem)
            return [OpRecord(ok=True, recovery_db=math.nan, failed=True)]
        return [OpRecord(ok=True, recovery_db=-float(nmse[-1][0]))]


WORKLOADS = {w.name: w for w in (PaperSerial, PaperPool, Predictor, FixedNetMap)}
