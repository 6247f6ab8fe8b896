"""Experiment orchestration: synthetic problems, trials, sweeps, CSV output.

Builds the synthetic benchmark family (orthogonally mixed weight layers
with relu activations, bias means tuned to a target positive fraction,
and an ill-conditioned compressed measurement layer at a calibrated SNR),
runs the message-passing engine against freshly drawn instances, runs the
scalar predictor once per configuration, and joins the two into tidy CSV.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from itertools import repeat

import numpy as np
from scipy.linalg.lapack import dgesdd, dgesdd_lwork
from scipy.special import ndtri

from .engine import EngineConfig, run
from .errors import (
    MAX_SIDE, DivergedIterationError, InvalidModelError, NumericFailureError,
    UndefinedMetricError, WorkerLostError, check_count, check_real,
)
from .model import (
    NOISELESS,
    NetworkSpec,
    NonlinearLayerSpec,
    forward_generate,
    geometric_singular_values,
    linear_layer_from_factors,
    sample_haar_orthogonal,
    standard_normal_fortran,
)
from .seeding import substream
from .state_evolution import LinearLaw, SEConfig, activation_second_moment, run_se

CSV_SCHEMA_VERSION = 1
CSV_COLUMNS = (
    "experiment_id",
    "trial_seed",
    "half_iter",
    "layer",
    "nmse_db_empirical",
    "nmse_db_se",
    "gamma_plus",
    "gamma_minus",
    "alpha_plus",
    "alpha_minus",
    "residual_consistency",
    "wall_ms",
)


def worker_count():
    """Worker pool size: MLVAMP_THREADS if set, else the number of CPUs this
    process may run on."""
    env = os.environ.get("MLVAMP_THREADS")
    if not env:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        count = int(env)
    except ValueError:
        count = 0
    if count < 1:
        raise InvalidModelError(f"MLVAMP_THREADS must be a positive integer, not {env!r}")
    return count


# ---------------------------------------------------------------------------
# Synthetic network recipe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticRecipe:
    """Description of the synthetic benchmark family.

    ``hidden_dims`` are the widths N_0 .. N_{L-1} of the generative chain
    (alternating affine / separable starting with affine); the measurement
    layer maps the last hidden width to ``measurements`` rows with
    geometrically spaced singular values and SNR-calibrated noise.
    """

    hidden_dims: tuple = (20, 100, 100, 500, 500, 784, 784)
    measurements: int = 100
    positive_fraction: float = 0.4
    condition_number: float = 10.0
    snr_db: float = 30.0
    bias_std: float = 1.0
    activation: str = "relu"

    def __post_init__(self):
        # each width sides a square Gaussian draw
        for width in self.hidden_dims:
            check_count("a hidden_dims width", width, 1, MAX_SIDE)
        check_count("measurements", self.measurements, 1, MAX_SIDE)
        if len(self.hidden_dims) < 2 or len(self.hidden_dims) % 2 == 0:
            raise InvalidModelError(
                "hidden_dims must hold an odd count of widths (affine/separable pairs)"
            )
        for i in range(2, len(self.hidden_dims), 2):
            if self.hidden_dims[i] != self.hidden_dims[i - 1]:
                raise InvalidModelError("separable layers must preserve width")
        if not (0.0 < self.positive_fraction < 1.0):
            raise InvalidModelError("positive_fraction must lie in (0, 1)")
        check_real("condition_number", self.condition_number, 1.0)
        check_real("snr_db", self.snr_db)
        # the calibration squares it
        check_real("bias_std", self.bias_std, 0.0, math.sqrt(np.finfo(float).max))

    @property
    def dims(self):
        return tuple(self.hidden_dims) + (self.measurements,)

    @property
    def num_generative_pairs(self):
        return (len(self.hidden_dims) - 1) // 2


@dataclass(frozen=True)
class RecipeCalibration:
    """Quantities shared by every trial of a recipe (and by its predictor).

    Generative singular values come from one reference draw of an i.i.d.
    Gaussian matrix (scale 1/sqrt(fan-in)); bias means are tuned so the
    target fraction of pre-activations is positive; the measurement noise
    precision realizes the requested SNR in the ensemble, from the
    closed-form signal moments.
    """

    generative_singular_values: tuple
    bias_means: tuple
    measurement_noise_precision: float


def _reference_singular_values(recipe, seed):
    """Each generative pair's singular values, from one Gaussian draw scaled
    by ``1/sqrt(fan-in)``: LAPACK ``dgesdd`` works on the draw in place."""
    out = []
    dims = recipe.hidden_dims
    for pair in range(recipe.num_generative_pairs):
        n_in, n_out = dims[2 * pair], dims[2 * pair + 1]
        g = standard_normal_fortran(substream(seed, 0x5D, pair), (n_out, n_in))
        g /= math.sqrt(n_in)
        lwork, _ = dgesdd_lwork(n_out, n_in, compute_uv=0)
        _, s, _, info = dgesdd(g, compute_uv=0, lwork=int(lwork), overwrite_a=1)
        if info != 0:
            raise NumericFailureError(f"LAPACK dgesdd returned info {info}")
        out.append(s)
    return tuple(out)


def calibrate_recipe(recipe, seed):
    """Fix the trial-independent parts of a recipe (pure given seed).

    The signal second moments follow the predictor's closed-form recursion
    (``se_initial_pass``), so the SNR is met in the ensemble; the seed enters
    only through the reference singular values.
    """
    svals = _reference_singular_values(recipe, seed)
    dims = recipe.hidden_dims
    target = ndtri(recipe.positive_fraction)
    bias_means = []
    v = 1.0  # component second moment of the current signal
    for pair in range(recipe.num_generative_pairs):
        s = svals[pair]
        v_pre = float(np.sum(s * s)) / dims[2 * pair + 1] * v
        sigma_pre = math.sqrt(v_pre + recipe.bias_std**2)
        mu_b = sigma_pre * target
        bias_means.append(mu_b)
        v = activation_second_moment(recipe.activation, mu_b, sigma_pre**2)
    s = geometric_singular_values(recipe.measurements, dims[-1], recipe.condition_number)
    try:
        nu = float(10.0 ** (recipe.snr_db / 10.0) / (np.sum(s * s) / recipe.measurements * v))
    except OverflowError:
        nu = math.inf
    if not 0.0 < nu < math.inf:
        raise InvalidModelError(f"snr_db {recipe.snr_db} gives noise precision {nu}")
    return RecipeCalibration(svals, tuple(bias_means), measurement_noise_precision=nu)


def _haar_factors(n_out, n_in, seed, *key):
    """An affine layer's compact Haar factors: the first ``min(n_out, n_in)``
    columns of an ``n_out`` draw and rows of an ``n_in`` draw, each on its own
    substream."""
    k = min(n_out, n_in)
    return (
        sample_haar_orthogonal(n_out, substream(seed, *key, 0), columns=k),
        sample_haar_orthogonal(n_in, substream(seed, *key, 1), rows=k),
    )


def build_synthetic_network(recipe, seed, calibration):
    """One instance of the recipe: fresh Haar factors and biases.

    Each factor is drawn only over the layer's range, so no square factor
    wider than it is formed.  The measurement layer's factors are drawn
    first: the rows of its right factor need the whole square draw, the
    widest workspace of the build, and drawn first it sits on no factor
    already kept.  Each factor has its own substream, so the order moves no
    number.
    """
    dims = recipe.dims
    m, n_last = dims[-1], dims[-2]
    m_left, m_right = _haar_factors(m, n_last, seed, 0x2E)
    layers = []
    for pair in range(recipe.num_generative_pairs):
        n_in, n_out = dims[2 * pair], dims[2 * pair + 1]
        left, right = _haar_factors(n_out, n_in, seed, 0x1E, pair)
        bias = calibration.bias_means[pair] + recipe.bias_std * substream(
            seed, 0x1E, pair, 2
        ).standard_normal(n_out)
        layers.append(
            linear_layer_from_factors(
                left, calibration.generative_singular_values[pair], right, bias, NOISELESS
            )
        )
        layers.append(NonlinearLayerSpec(activation=recipe.activation))
    s = geometric_singular_values(m, n_last, recipe.condition_number)
    layers.append(
        linear_layer_from_factors(
            m_left, s, m_right, np.zeros(m), calibration.measurement_noise_precision
        )
    )
    return NetworkSpec(layers=tuple(layers), dims=dims)


def recipe_law(recipe, calibration):
    """Ensemble-level perturbation law for the scalar predictor: a ``NetworkSpec``
    whose affine layers are ``LinearLaw``s and whose separable layers are those
    ``build_synthetic_network`` makes."""
    dims, laws = recipe.dims, []
    for pair in range(recipe.num_generative_pairs):
        mu, s = calibration.bias_means[pair], calibration.generative_singular_values[pair]
        laws += [
            LinearLaw(np.asarray(s), dims[2 * pair + 1], dims[2 * pair], NOISELESS,
                      bbar_var=mu * mu + recipe.bias_std**2, bias_mean=mu),
            NonlinearLayerSpec(activation=recipe.activation),
        ]
    m, n_last = dims[-1], dims[-2]
    s = geometric_singular_values(m, n_last, recipe.condition_number)
    laws.append(LinearLaw(s, m, n_last, calibration.measurement_noise_precision))
    return NetworkSpec(layers=tuple(laws), dims=dims)


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    recipe: SyntheticRecipe = field(default_factory=SyntheticRecipe)
    engine: EngineConfig = field(default_factory=EngineConfig)
    se: SEConfig = field(default_factory=SEConfig)
    trials: int = 50
    master_seed: int = 0
    experiment_id: str = "synthetic"

    def __post_init__(self):
        check_count("trials", self.trials, 1, MAX_SIDE)  # a trial seed is derived for each
        check_count("master_seed", self.master_seed, 0)
        check_count("max_iters", self.engine.max_iters, 1)


#: The end-of-iteration arrays a ``TrialResult`` and an ``SEResult`` share, in ``curve_rows`` order.
END_VALUES = ("gamma_plus", "gamma_minus", "alpha_plus", "alpha_minus")


@dataclass
class TrialResult:
    """One trial.  A failed one keeps its seed, wall time and error and, if it
    diverged inside the iteration, the NMSE of each half-iteration it completed."""

    seed: int
    wall_ms: float
    nmse_db: np.ndarray | None = None  # (half_iters, L) hidden-signal errors
    gamma_plus: np.ndarray | None = None  # (iters, L) end-of-iteration snapshots
    gamma_minus: np.ndarray | None = None
    alpha_plus: np.ndarray | None = None
    alpha_minus: np.ndarray | None = None
    consistency: np.ndarray | None = None  # (iters,)
    error: str | None = None
    error_layer: int | None = None  # where a diverged trial left the iteration
    error_iteration: int | None = None


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    trials: list
    se_result: object

    @property
    def n_half(self):
        return min(t.nmse_db.shape[0] for t in self.ok_trials)

    @property
    def ok_trials(self):
        return [t for t in self.trials if t.error is None]

    def nmse_stack(self):
        n = self.n_half
        return np.stack([t.nmse_db[:n] for t in self.ok_trials])

    def mean_nmse_db(self):
        return self.nmse_stack().mean(axis=0)

    def median_nmse_db(self):
        return np.median(self.nmse_stack(), axis=0)


def run_single_trial(recipe, calibration, engine_cfg, trial_seed):
    """Draw a fresh network + signals, run the engine, collect metrics from its trace."""
    start = time.perf_counter()
    try:
        spec = build_synthetic_network(recipe, trial_seed, calibration)
        truth = forward_generate(spec, trial_seed)
        _, trace, _ = run(spec, truth.y, engine_cfg, truth=truth)
        # each iteration's end values, which its backward half holds
        fields = {name: trace.column(name, "backward") for name in END_VALUES + ("consistency",)}
    except (DivergedIterationError, NumericFailureError, UndefinedMetricError) as exc:
        trace = getattr(exc, "trace", None)
        fields = dict(error=str(exc), error_layer=getattr(exc, "layer", None),
                      error_iteration=getattr(exc, "iteration", None))
    return TrialResult(seed=trial_seed, nmse_db=None if trace is None else trace.column("nmse_db"),
                       **fields, wall_ms=1e3 * (time.perf_counter() - start))


def predictor_config(config):
    """The predictor settings of an experiment: its ``se`` block run as the engine runs."""
    return replace(
        config.se,
        iterations=config.engine.max_iters,
        mode=config.engine.mode,
        gamma_init=config.engine.gamma_init,
        damping=config.engine.damping,
        alpha_clip=config.engine.alpha_clip,
    )


def run_trials(config, calibration=None, law=None, workers=None):
    """Run the predictor once and ``config.trials`` independent instances.

    With more than one worker the predictor is a pool job beside the trials;
    if it fails, its error is raised once it finishes and the queued trials
    are cancelled.  A worker that dies is a ``WorkerLostError`` naming the
    first trial, else the predictor, that it left without a result.
    Trial seeds derive from the master seed; aggregation is keyed by trial
    index so the result is independent of completion order.
    """
    # a fork pool starts all its workers at once: no more than the jobs
    n_workers = min(workers if workers is not None else worker_count(), config.trials + 1)
    recipe = config.recipe
    if calibration is None:
        calibration = calibrate_recipe(recipe, config.master_seed)
    if law is None:
        law = recipe_law(recipe, calibration)

    seeds = [
        int(substream(config.master_seed, 0x7A1A, t).integers(2**62))
        for t in range(config.trials)
    ]
    args = (repeat(recipe), repeat(calibration), repeat(config.engine), seeds)
    se_config = predictor_config(config)
    if n_workers > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            predictor = pool.submit(run_se, law, se_config)
            jobs = [pool.submit(run_single_trial, *a) for a in zip(*args)]
            if predictor.exception() is not None:
                # a failed predictor ends the run before the queued trials start
                pool.shutdown(cancel_futures=True)
            try:
                se_result = predictor.result()
                results = [job.result() for job in jobs]
            except BrokenProcessPool as exc:
                lost = (f"trial {t} (seed {seeds[t]})" for t, job in enumerate(jobs)
                        if job.cancelled() or isinstance(job.exception(), BrokenProcessPool))
                raise WorkerLostError(f"a pool worker died; {next(lost, 'the predictor')} was left "
                                      "without a result") from exc
    else:
        se_result = run_se(law, se_config)
        results = list(map(run_single_trial, *args))
    failed = [t for t in results if t.error is not None]
    if len(failed) == len(results):
        raise NumericFailureError(f"all trials failed; first error: {failed[0].error}")
    return ExperimentResult(config=config, trials=results, se_result=se_result)


def measurement_sweep(config, measurement_list):
    """Re-run the experiment for each measurement count in the list."""
    if len(set(measurement_list)) < len(measurement_list):
        raise InvalidModelError(f"a measurement count repeats in {list(measurement_list)}")
    out = {}
    for m in measurement_list:
        recipe = replace(config.recipe, measurements=int(m))
        cfg = replace(config, recipe=recipe, experiment_id=f"{config.experiment_id}-m{m}")
        out[int(m)] = run_trials(cfg)
    return out


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def curve_rows(experiment_id, trial_seed, nmse_empirical, nmse_se,
               gamma_plus, gamma_minus, alpha_plus, alpha_minus, consistency):
    """Tidy rows of one curve, one per (half iteration, hidden signal).

    Every argument after the seed holds one entry per half iteration: the
    NMSE and precision entries are per-signal arrays, ``consistency`` is a
    number. The caller chooses what each half carries.
    """
    halves = zip(nmse_empirical, nmse_se, gamma_plus, gamma_minus, alpha_plus, alpha_minus,
                 consistency, strict=True)
    rows = []
    for h, (emp, se, g_p, g_m, a_p, a_m, cons) in enumerate(halves):
        for ell in range(len(g_p)):
            rows.append(
                {
                    "experiment_id": experiment_id,
                    "trial_seed": trial_seed,
                    "half_iter": h + 1,
                    "layer": ell,
                    "nmse_db_empirical": emp[ell],
                    "nmse_db_se": se[ell],
                    "gamma_plus": g_p[ell],
                    "gamma_minus": g_m[ell],
                    "alpha_plus": a_p[ell],
                    "alpha_minus": a_m[ell],
                    "residual_consistency": cons,
                    "wall_ms": math.nan,
                }
            )
    return rows


def _per_half(record, n_half, names=END_VALUES):
    """``record``'s end-of-iteration arrays, each row given to both halves of its
    iteration, for the first ``n_half`` halves."""
    return [np.repeat(getattr(record, name), 2, axis=0)[:n_half] for name in names]


def trace_rows(experiment_id, trial_seed, trace):
    """Rows of one engine run (no prediction); each half carries its own trace row."""
    nmse = trace.column("nmse_db")
    return curve_rows(experiment_id, trial_seed, nmse, np.full_like(nmse, math.nan),
                      *(trace.column(name) for name in END_VALUES), trace.column("consistency"))


def result_rows(result):
    """Rows of every successful trial; both halves of an iteration carry its end values."""
    n_half = result.n_half
    se_db = result.se_result.nmse_db[:n_half]
    se_db = np.vstack([se_db, np.full((n_half - len(se_db), se_db.shape[1]), math.nan)])
    rows = []
    for t in result.ok_trials:
        per_half = _per_half(t, n_half, END_VALUES + ("consistency",))
        rows += curve_rows(result.config.experiment_id, t.seed, t.nmse_db[:n_half], se_db, *per_half)
    return rows


def write_result_csv(path, rows):
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema_version={CSV_SCHEMA_VERSION}\n")
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(row[k]) for k in CSV_COLUMNS})


def _fmt(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return value


def read_result_csv(path):
    rows = []
    with open(path, newline="") as fh:
        lines = fh.readlines()
    if lines and lines[0].startswith("# schema_version"):
        del lines[0]  # the one comment line: a data row's experiment_id may begin with "#"
    reader = csv.DictReader(lines)
    if reader.fieldnames is None or tuple(reader.fieldnames) != CSV_COLUMNS:
        raise InvalidModelError(f"unexpected CSV columns in {path}")
    for rec in reader:
        row = dict(rec)
        try:
            for key in CSV_COLUMNS:
                if key in ("experiment_id",):
                    continue
                if key in ("trial_seed", "half_iter", "layer"):
                    row[key] = int(rec[key])
                else:
                    row[key] = float(rec[key])
        except (TypeError, ValueError) as exc:
            raise InvalidModelError(f"invalid data row {len(rows) + 1} in {path}: {exc}") from exc
        rows.append(row)
    return rows


def se_rows(experiment_id, se_result):
    """Predictor-only rows (trial_seed = -1, empirical columns NaN)."""
    db = se_result.nmse_db
    return curve_rows(experiment_id, -1, np.full_like(db, math.nan), db,
                      *_per_half(se_result, len(db)), np.full(len(db), math.nan))


def compare_rows(empirical_rows, se_rows_):
    """Join mean empirical NMSE with predictions on the trials' (half_iter, layer) grid.

    Predictions past the trials' last half iteration are left out (trials stop
    early on ``engine.convergence_tol``); any other mismatch is a hard error.
    """
    emp = {}
    for row in empirical_rows:
        if row["trial_seed"] >= 0:
            emp.setdefault((row["half_iter"], row["layer"]), []).append(row["nmse_db_empirical"])
    last = max((half for half, _ in emp), default=math.inf)
    pred = {(row["half_iter"], row["layer"]): row["nmse_db_se"]
            for row in se_rows_ if row["half_iter"] <= last}
    if set(emp) != set(pred):
        missing = set(emp) ^ set(pred)
        raise InvalidModelError(f"empirical/prediction grids differ on {sorted(missing)[:5]} ...")
    joined = []
    for (half, layer), values in sorted(emp.items()):
        mean_emp, se = float(np.mean(values)), pred[(half, layer)]
        joined.append({"half_iter": half, "layer": layer, "nmse_db_empirical_mean": mean_emp,
                       "nmse_db_se": se, "gap_db": mean_emp - se})
    return joined


def max_abs_gap(joined, layer=None):
    sel = [
        abs(r["gap_db"])
        for r in joined
        if (layer is None or r["layer"] == layer) and r["half_iter"] >= 1
    ]
    return max(sel) if sel else math.nan


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------


def config_from_json(doc):
    if not isinstance(doc, dict):
        raise InvalidModelError("a config must be a JSON object")
    try:
        recipe_doc = dict(doc.get("recipe", {}))
        if "hidden_dims" in recipe_doc:
            recipe_doc["hidden_dims"] = tuple(recipe_doc["hidden_dims"])
        se_doc = dict(doc.get("se", {}))
        extra = sorted(set(se_doc) - {"stop_tol", "quad_order"})
        if extra:
            # the predictor runs as the engine runs: iterations, mode and so on come from it
            raise InvalidModelError(f"se holds only stop_tol and quad_order, not {extra}")
        return ExperimentConfig(
            recipe=SyntheticRecipe(**recipe_doc),
            engine=EngineConfig(**doc.get("engine", {})),
            se=SEConfig(**se_doc),
            trials=doc.get("trials", 50),
            master_seed=doc.get("master_seed", 0),
            experiment_id=doc.get("experiment_id", "synthetic"),
        )
    except (TypeError, ValueError) as exc:
        raise InvalidModelError(f"invalid config: {exc}") from exc


def load_config(path):
    with open(path) as fh:
        return config_from_json(json.load(fh))
