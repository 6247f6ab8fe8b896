"""Experiment orchestration: builders, trials, CSV round-trips, CLI."""

import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import Future
from dataclasses import asdict, replace
from functools import partial

import numpy as np
import pytest

from mlvamp import denoisers, engine, harness, model, state_evolution
from mlvamp.cli import cli_main
from mlvamp.engine import EngineConfig, run
from mlvamp.errors import DivergedIterationError, InvalidModelError, NumericFailureError
from mlvamp.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    SyntheticRecipe,
    build_synthetic_network,
    calibrate_recipe,
    compare_rows,
    config_from_json,
    max_abs_gap,
    read_result_csv,
    recipe_law,
    result_rows,
    run_trials,
    se_rows,
    write_result_csv,
)
from mlvamp.model import NOISELESS, SignalSet, forward_generate, load_network
from mlvamp.seeding import substream
from mlvamp.state_evolution import SEConfig, run_se, se_initial_pass

SMALL_RECIPE = SyntheticRecipe(
    hidden_dims=(8, 24, 24, 16, 16, 20, 20),
    measurements=14,
    positive_fraction=0.4,
    condition_number=10.0,
    snr_db=30.0,
)

FAST_ENGINE = EngineConfig(max_iters=6, convergence_tol=0.0)


#: Values no float or numpy array can hold, each read before any work starts.
UNHOLDABLE = [
    ("recipe", "bias_std", 1e308),  # the calibration squares it
    ("recipe", "measurements", 10**30),
    ("recipe", "hidden_dims", [10**30, 8, 8]),
    ("se", "quad_order", 10**30),
]

#: A 4/8/8 recipe that runs in moments, and numeric config values each of its
#: config objects must reject: (block, key, value).
TINY_CONFIG = {"recipe": {"hidden_dims": [4, 8, 8], "measurements": 6}, "trials": 2}
BAD_VALUES = [
    ("se", "stop_tol", "x"),
    ("se", "stop_tol", None),
    ("engine", "convergence_tol", "x"),
    ("se", "stop_tol", -1e-3),
    ("engine", "convergence_tol", math.nan),
    ("recipe", "snr_db", "x"),
    ("recipe", "snr_db", math.nan),
    ("recipe", "snr_db", math.inf),
    ("recipe", "bias_std", "x"),
    ("recipe", "bias_std", -1),
    ("engine", "alpha_clip", 0.9),
    ("engine", "alpha_clip", 0.5),
    ("engine", "gamma_init", math.nan),
    ("engine", "gamma_init", math.inf),
    ("engine", "gamma_init", 1e300),
    ("recipe", "condition_number", "x"),
    ("recipe", "condition_number", math.nan),
    ("recipe", "condition_number", math.inf),
    ("recipe", "condition_number", True),
    *UNHOLDABLE,
]
BAD_VALUE_IDS = [f"{key}={value!r}" for _, key, value in BAD_VALUES]


def _tiny_config_with(block, key, value):
    return {**TINY_CONFIG, block: {**TINY_CONFIG.get(block, {}), key: value}}


def _failing_predictor(law, config):
    raise NumericFailureError("predictor failed")


def _dying_trial(recipe, calibration, engine_cfg, trial_seed):
    os._exit(9)


def _recorded_trial(directory, recipe, calibration, engine_cfg, trial_seed):
    (directory / str(trial_seed)).touch()
    time.sleep(0.05)
    return harness.TrialResult(seed=trial_seed, wall_ms=0.0, error=None)


@pytest.fixture(scope="module")
def small_result():
    cfg = ExperimentConfig(
        recipe=SMALL_RECIPE, engine=FAST_ENGINE, trials=4, master_seed=7, experiment_id="t"
    )
    return run_trials(cfg, workers=1)


class TestBuilder:
    def test_paper_recipe_dims(self):
        recipe = SyntheticRecipe()
        assert recipe.dims == (20, 100, 100, 500, 500, 784, 784, 100)

    def test_balanced_fraction_means_centered_bias(self):
        recipe = SyntheticRecipe(
            hidden_dims=(8, 20, 20), measurements=10, positive_fraction=0.5
        )
        cal = calibrate_recipe(recipe, 3)
        assert cal.bias_means[0] == pytest.approx(0.0, abs=1e-12)

    def test_measurement_condition_number(self):
        cal = calibrate_recipe(SMALL_RECIPE, 3)
        spec = build_synthetic_network(SMALL_RECIPE, 5, cal)
        s = spec.layers[-1].factors.singular_values
        assert s[0] / s[-1] == pytest.approx(10.0, rel=1e-10)

    def test_positive_fraction_is_realized(self):
        recipe = SyntheticRecipe(
            hidden_dims=(30, 400, 400), measurements=100, positive_fraction=0.3
        )
        cal = calibrate_recipe(recipe, 3)
        hits = []
        for seed in range(10):
            spec = build_synthetic_network(recipe, seed, cal)
            sig = forward_generate(spec, seed)
            hits.append(float(np.mean(sig.signals[1] > 0)))
        assert np.mean(hits) == pytest.approx(0.3, abs=0.02)

    def test_law_matches_network_family(self):
        cal = calibrate_recipe(SMALL_RECIPE, 3)
        law = recipe_law(SMALL_RECIPE, cal)
        assert law.dims == SMALL_RECIPE.dims
        assert law.layers[0].bias_mean == cal.bias_means[0]

    @pytest.mark.parametrize("measurements", [10, 100])
    @pytest.mark.parametrize("positive_fraction", [0.3, 0.5])
    def test_the_ensemble_meets_the_snr(self, measurements, positive_fraction):
        # the closed-form moments of the predictor's law, noise left out
        recipe = SyntheticRecipe(measurements=measurements, positive_fraction=positive_fraction)
        cal = calibrate_recipe(recipe, 3)
        law = recipe_law(recipe, cal)
        measurement = replace(law.layers[-1], noise_precision=NOISELESS)
        power = se_initial_pass(replace(law, layers=(*law.layers[:-1], measurement)))[0][-1]
        snr = power * cal.measurement_noise_precision
        assert snr == pytest.approx(10 ** (recipe.snr_db / 10), rel=1e-12)

    def test_calibration_builds_no_network(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("calibration drew a network")

        for module, name in ((harness, "build_synthetic_network"),
                             (harness, "sample_haar_orthogonal"),
                             (model, "sample_haar_orthogonal")):
            monkeypatch.setattr(module, name, refuse)
        cal = calibrate_recipe(SMALL_RECIPE, 3)
        assert math.isfinite(cal.measurement_noise_precision)

    def test_non_alternating_recipe_rejected(self):
        with pytest.raises(InvalidModelError):
            SyntheticRecipe(hidden_dims=(8, 24, 20), measurements=10)

    @pytest.mark.parametrize("recipe, seed", [
        (SyntheticRecipe(), 0), (SyntheticRecipe(), 1), (SyntheticRecipe(), 2),
        (SyntheticRecipe(hidden_dims=(40, 200, 200, 1000, 1000, 1568, 1568), measurements=200), 0),
    ], ids=["paper-0", "paper-1", "paper-2", "2x-0"])
    def test_reference_singular_values_keep_numpys_bits(self, recipe, seed):
        # LAPACK gesdd in place on the blockwise draw: numpy's one-call draw
        # and SVD front end, bit for bit
        dims = recipe.hidden_dims
        for pair, s in enumerate(calibrate_recipe(recipe, seed).generative_singular_values):
            n_in, n_out = dims[2 * pair], dims[2 * pair + 1]
            g = substream(seed, 0x5D, pair).standard_normal((n_out, n_in)) / math.sqrt(n_in)
            assert np.array_equal(s, np.linalg.svd(g, compute_uv=False))

    def test_gesdd_failure_is_a_numeric_failure(self, monkeypatch):
        def fails(a, compute_uv, lwork, overwrite_a):
            return np.zeros((1, 1)), np.zeros(min(a.shape)), np.zeros((1, 1)), 2

        monkeypatch.setattr(harness, "dgesdd", fails)
        with pytest.raises(NumericFailureError, match="dgesdd returned info 2"):
            calibrate_recipe(SMALL_RECIPE, 3)

    def test_build_peak_is_its_factors_and_one_square_workspace(self):
        # the measurement layer's 784 x 784 draw is the widest workspace; drawn
        # first and straight into LAPACK's array, it sits on no kept factor
        recipe = SyntheticRecipe()
        cal = calibrate_recipe(recipe, 0)
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            spec = build_synthetic_network(recipe, 1, cal)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if started:
                tracemalloc.stop()
        kept = sum(a.nbytes for layer in spec.layers if layer.kind == "linear"
                   for a in (layer.factors.left_orthogonal, layer.factors.singular_values,
                             layer.factors.right_orthogonal, layer.factors.bias))
        assert peak - before <= kept + 784 * 784 * 8, (peak - before, kept)


@pytest.fixture(scope="module")
def paper_network():
    recipe = SyntheticRecipe()
    return build_synthetic_network(recipe, 11, calibrate_recipe(recipe, 11))


class TestFactoredLayers:
    """A package-made affine layer keeps only its compact factors and bias."""

    def test_signals_match_the_dense_product(self, paper_network):
        # each affine signal against the dense weight applied to its input,
        # with the same noise draw
        signals = forward_generate(paper_network, 11).signals
        for ell, layer in enumerate(paper_network.layers, start=1):
            if layer.kind == "linear":
                ref = layer.weight @ signals[ell - 1] + layer.bias
                if math.isfinite(layer.noise_precision):
                    ref += substream(11, ell).standard_normal(ref.size) / math.sqrt(
                        layer.noise_precision)
                assert np.linalg.norm(signals[ell] - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_weight_is_the_product_of_the_factors(self, paper_network):
        for layer in paper_network.layers[::2]:
            np.testing.assert_array_equal(layer.weight, layer.factors.to_weight())

    def test_no_layer_holds_a_dense_weight(self, paper_network):
        for layer in paper_network.layers[::2]:
            assert layer.weight.shape == (layer.out_dim, layer.in_dim)  # built, not kept
            f = layer.factors
            own = {id(a) for a in (f.left_orthogonal, f.singular_values, f.right_orthogonal,
                                   f.bias, f.transformed_bias)}
            held = [a for a in (*vars(layer).values(), *vars(f).values())
                    if isinstance(a, np.ndarray)]
            assert held and all(id(a) in own for a in held)

    def test_json_keeps_every_weight(self, paper_network):
        back = model.network_from_json(json.loads(json.dumps(model.network_to_json(paper_network))))
        for a, b in zip(back.layers[::2], paper_network.layers[::2]):
            np.testing.assert_array_equal(a.weight, b.weight)
            np.testing.assert_array_equal(a.bias, b.bias)
            assert a.noise_precision == b.noise_precision


class TestTrials:
    def test_single_trial_aggregate_is_the_trace(self, small_result):
        cfg = ExperimentConfig(
            recipe=SMALL_RECIPE, engine=FAST_ENGINE, trials=1, master_seed=7, experiment_id="one"
        )
        res = run_trials(cfg, workers=1)
        np.testing.assert_array_equal(res.mean_nmse_db(), res.trials[0].nmse_db)
        np.testing.assert_array_equal(res.median_nmse_db(), res.trials[0].nmse_db)

    def test_seed_permutation_leaves_the_median_unchanged(self, small_result):
        stack = small_result.nmse_stack()
        perm = np.random.default_rng(0).permutation(stack.shape[0])
        np.testing.assert_array_equal(
            np.median(stack, axis=0), np.median(stack[perm], axis=0)
        )

    def test_reruns_are_identical(self, small_result):
        cfg = ExperimentConfig(
            recipe=SMALL_RECIPE, engine=FAST_ENGINE, trials=4, master_seed=7, experiment_id="t"
        )
        res2 = run_trials(cfg, workers=1)
        np.testing.assert_array_equal(small_result.nmse_stack(), res2.nmse_stack())

    def test_parallel_workers_reproduce_the_serial_result(self, small_result):
        cfg = ExperimentConfig(
            recipe=SMALL_RECIPE, engine=FAST_ENGINE, trials=4, master_seed=7, experiment_id="t"
        )
        res2 = run_trials(cfg, workers=2)
        np.testing.assert_array_equal(small_result.nmse_stack(), res2.nmse_stack())

    def test_the_pool_starts_no_more_workers_than_jobs(self, monkeypatch):
        # a fork pool starts all its workers at once; this stand-in runs each
        # job inline and records the size it was asked for
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setenv("MLVAMP_THREADS", "6")
        cfg = ExperimentConfig(
            recipe=SMALL_RECIPE, engine=FAST_ENGINE, trials=2, master_seed=7, experiment_id="t"
        )
        run_trials(cfg)
        assert sizes == [3]  # two trials and the predictor

    def test_a_failing_predictor_cancels_the_queued_trials(self, monkeypatch, tmp_path):
        # pool workers are forked after the patch, so they run the stand-ins
        monkeypatch.setattr(harness, "run_se", _failing_predictor)
        monkeypatch.setattr(harness, "run_single_trial", partial(_recorded_trial, tmp_path))
        cfg = ExperimentConfig(
            recipe=SMALL_RECIPE, engine=FAST_ENGINE, trials=40, master_seed=7, experiment_id="t"
        )
        with pytest.raises(NumericFailureError, match="predictor failed"):
            run_trials(cfg, workers=2)
        assert len(list(tmp_path.iterdir())) < 20

    def test_a_diverged_trial_keeps_its_partial_trace(self, monkeypatch):
        calibration = calibrate_recipe(SMALL_RECIPE, 7)
        full = harness.run_single_trial(SMALL_RECIPE, calibration, FAST_ENGINE, 11)
        forward_pass = engine.forward_pass

        def diverging(state, bank, book):
            if book.iteration == 2:
                raise DivergedIterationError("runaway", layer=1, iteration=2)
            return forward_pass(state, bank, book)

        monkeypatch.setattr(engine, "forward_pass", diverging)
        failed = harness.run_single_trial(SMALL_RECIPE, calibration, FAST_ENGINE, 11)
        assert (failed.error, failed.error_layer, failed.error_iteration) == ("runaway", 1, 2)
        # the four half-iterations of iterations 0 and 1, bit for bit
        np.testing.assert_array_equal(failed.nmse_db, full.nmse_db[:4])

    #: a relu layer that is positive with probability 0.1 on 3 components: at
    #: master seed 2, five of six trial truths have an all-zero signal 2
    ZERO_SIGNAL = {"recipe": {"hidden_dims": [2, 3, 3], "measurements": 2,
                              "positive_fraction": 0.1}, "trials": 6}

    def test_a_zero_truth_signal_fails_its_own_trial(self):
        cfg = replace(config_from_json(self.ZERO_SIGNAL), master_seed=2)
        result = run_trials(cfg, workers=1)
        assert [t.error for t in result.trials] == ["zero reference signal at layer 2"] * 3 + [
            None] + ["zero reference signal at layer 2"] * 2
        # it failed before its first sweep: no rows, no location in the iteration
        zero = result.trials[0]
        assert (zero.nmse_db, zero.error_layer, zero.error_iteration) == (None, None, None)

    def test_worker_count_reads_the_cpus_this_process_may_run_on(self, monkeypatch):
        monkeypatch.delenv("MLVAMP_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert harness.worker_count() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        assert harness.worker_count() == 64

    def test_worker_count_env_override(self, monkeypatch):
        monkeypatch.setenv("MLVAMP_THREADS", "3")
        assert harness.worker_count() == 3
        monkeypatch.delenv("MLVAMP_THREADS")
        assert harness.worker_count() >= 1
        for bad in ("abc", "0", "-2", "1.5"):
            monkeypatch.setenv("MLVAMP_THREADS", bad)
            with pytest.raises(InvalidModelError):
                harness.worker_count()


class TestDivergenceLocation:
    """A non-finite divergence in the predictor names the signal its step
    updates and the iteration.  SMALL_RECIPE has signals 0 .. 6 and affine
    law layers 0, 2, 4 and 6."""

    @staticmethod
    def poison(monkeypatch, step, layer, forward, iteration):
        """Make the divergence of ``step`` at law layer ``layer`` (None: every
        call) in the sweep ``forward`` NaN from the call of ``iteration`` on."""
        original = getattr(state_evolution, step)
        # by position: the (ell, direction) of the se_*_layer call running,
        # which a copy of the law sent to a pool worker keeps
        at = [None]
        for name, direction in (("se_forward_layer", True), ("se_backward_layer", False)):
            def located(law, ell, *args, _layer_step=getattr(state_evolution, name),
                        _direction=direction, **kwargs):
                at[0] = (ell - 1, _direction)
                return _layer_step(law, ell, *args, **kwargs)

            monkeypatch.setattr(state_evolution, name, located)
        calls = []

        def patched(*args):
            *args, clip = args
            if layer is None or (at[0] == (layer, forward) and args[1] == forward):
                calls.append(None)
                if len(calls) > iteration:
                    return original(*args, lambda alpha: clip(math.nan))
            return original(*args, clip)

        monkeypatch.setattr(state_evolution, step, patched)
        return calls

    @pytest.mark.parametrize(
        "step, layer, forward, signal",
        [("_input_step", None, True, 0), ("_affine_step", 2, True, 3),
         ("_separable_step", 3, False, 3), ("_affine_step", 6, False, 6)],
        ids=["input-prior", "affine-forward", "relu-backward", "observed-output"],
    )
    def test_run_se_and_run_trials_name_the_signal(self, monkeypatch, step, layer, forward, signal):
        cal = calibrate_recipe(SMALL_RECIPE, 7)
        law = recipe_law(SMALL_RECIPE, cal)
        calls = self.poison(monkeypatch, step, layer, forward, iteration=2)
        with pytest.raises(DivergedIterationError) as exc:
            run_se(law, SEConfig(iterations=4))
        assert (exc.value.layer, exc.value.iteration) == (signal, 2)
        calls.clear()
        # the predictor runs in a forked pool worker, and its error crosses back
        cfg = ExperimentConfig(recipe=SMALL_RECIPE, engine=EngineConfig(max_iters=4), trials=2)
        with pytest.raises(DivergedIterationError) as exc:
            run_trials(cfg, calibration=cal, law=law, workers=2)
        assert (exc.value.layer, exc.value.iteration) == (signal, 2)

    #: pair layers 1 .. 4: affine 10 -> 30, relu 30, affine 30 -> 40, relu 40
    PAIR_RECIPE = SyntheticRecipe(hidden_dims=(10, 30, 30, 40, 40), measurements=20)

    @pytest.mark.parametrize("how", ["raise", "nan"])
    @pytest.mark.parametrize(
        "width, forward, signal", [(30, True, 2), (40, False, 3)],
        ids=["relu-forward", "relu-backward"],
    )
    def test_engine_and_run_single_trial_name_the_signal(self, monkeypatch, width, forward,
                                                         signal, how):
        # the relu pair at layer 2 (width 30) updates signal 2 forward; the one
        # at layer 4 (width 40) updates signal 3 backward.  An estimator that
        # fails and one whose estimate is NaN name the same signal.
        original = denoisers.mmse_pair_nonlinear
        calls = []

        def poisoned(params, layer, fw):
            zhat, alpha = original(params, layer, fw)
            if params.r_plus.size == width and fw == forward:
                calls.append(None)
                if len(calls) > 2:  # from iteration 2 on
                    if how == "raise":
                        raise NumericFailureError("poisoned")
                    return np.full_like(zhat, math.nan), alpha
            return zhat, alpha

        monkeypatch.setattr(denoisers, "mmse_pair_nonlinear", poisoned)
        cal = calibrate_recipe(self.PAIR_RECIPE, 3)
        spec = build_synthetic_network(self.PAIR_RECIPE, 11, cal)
        truth = forward_generate(spec, 11)
        with pytest.raises(DivergedIterationError) as exc:
            run(spec, truth.y, FAST_ENGINE, truth=truth)
        assert (exc.value.layer, exc.value.iteration) == (signal, 2)
        calls.clear()
        trial = harness.run_single_trial(self.PAIR_RECIPE, cal, FAST_ENGINE, 11)
        assert (trial.error_layer, trial.error_iteration) == (signal, 2)


class TestOneBlasThread:
    """Results do not depend on the host's cores: the package computes on one
    BLAS thread, and takes its parallelism from the trial pool."""

    @staticmethod
    def env(**variables):
        """This environment, without BLAS thread variables unless given, with
        the package importable."""
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(harness.__file__))
        return {**env, **variables}

    def test_openblas_reports_one_thread_after_import(self, tmp_path):
        # a fresh interpreter with no thread variable set, so OpenBLAS starts
        # at its own default; the package's import sets one thread in numpy's
        # and in scipy's bundled library, and a forked pool worker inherits it
        script = tmp_path / "threads.py"
        script.write_text(
            "import ctypes, glob, os\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
            "import numpy as np\n"
            "import mlvamp\n"
            "site = os.path.dirname(os.path.dirname(np.__file__))\n"
            "def threads(libs, getter):\n"
            "    for path in glob.glob(os.path.join(site, libs, '*openblas*.so*')):\n"
            "        get = getattr(ctypes.CDLL(path), getter)\n"
            "        get.argtypes, get.restype = [], ctypes.c_int\n"
            "        return get()\n"
            "def both(_=None):\n"
            "    return (threads('numpy.libs', 'scipy_openblas_get_num_threads64_'),\n"
            "            threads('scipy.libs', 'scipy_openblas_get_num_threads'))\n"
            "if __name__ == '__main__':\n"
            "    with ProcessPoolExecutor(1) as pool:\n"
            "        print(*both(), *pool.submit(both).result())\n"
        )
        out = subprocess.run([sys.executable, str(script)], env=self.env(), capture_output=True,
                             text=True, check=True)
        assert out.stdout.split() == ["1", "1", "1", "1"]

    def test_bytes_do_not_depend_on_workers_or_blas_threads(self, tmp_path):
        # the paper recipe's trial networks draw 784-wide Haar factors, whose
        # blocked QR sums in a thread-dependent order: without one BLAS thread
        # their weights, signals and engine precisions move in the last bits
        outputs = []
        for workers, blas_threads in (("1", "1"), ("1", "2"), ("2", "2")):
            out = tmp_path / f"w{workers}-b{blas_threads}.csv"
            subprocess.run(
                [sys.executable, "-m", "mlvamp", "run", "--trials", "2", "--max-iters", "3",
                 "--out", str(out)],
                env=self.env(MLVAMP_THREADS=workers, OPENBLAS_NUM_THREADS=blas_threads),
                check=True, capture_output=True,
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]


class TestCsv:
    def test_round_trip(self, small_result, tmp_path):
        rows = result_rows(small_result)
        path = tmp_path / "out.csv"
        write_result_csv(path, rows)
        with open(path) as fh:
            first = fh.readline()
        assert first.startswith("# schema_version=1")
        back = read_result_csv(path)
        assert len(back) == len(rows)
        for a, b in zip(rows, back):
            for key in CSV_COLUMNS:
                if isinstance(a[key], float):
                    assert b[key] == pytest.approx(a[key], nan_ok=True)
                else:
                    assert b[key] == a[key]

    def test_reaggregation_reproduces_the_summary(self, small_result, tmp_path):
        rows = result_rows(small_result)
        path = tmp_path / "out.csv"
        write_result_csv(path, rows)
        back = read_result_csv(path)
        acc = {}
        for row in back:
            acc.setdefault((row["half_iter"], row["layer"]), []).append(
                row["nmse_db_empirical"]
            )
        mean = small_result.mean_nmse_db()
        for (h, ell), vals in acc.items():
            assert np.mean(vals) == pytest.approx(mean[h - 1, ell])

    def test_compare_join_and_gap(self, small_result):
        emp = result_rows(small_result)
        pred = se_rows("t", small_result.se_result)
        joined = compare_rows(emp, pred)
        gap = max_abs_gap(joined)
        direct = np.max(
            np.abs(
                small_result.mean_nmse_db()
                - small_result.se_result.nmse_db[: small_result.n_half]
            )
        )
        assert gap == pytest.approx(direct, abs=1e-12)

    def test_both_halves_carry_the_end_of_iteration_precisions(self, small_result):
        rows = result_rows(small_result)
        n_layers = small_result.trials[0].nmse_db.shape[1]
        assert len(rows) == len(small_result.ok_trials) * small_result.n_half * n_layers
        trials = {t.seed: t for t in small_result.ok_trials}
        for row in rows:
            k = (row["half_iter"] - 1) // 2
            assert row["gamma_plus"] == trials[row["trial_seed"]].gamma_plus[k, row["layer"]]

    def test_a_prediction_holds_the_end_values_a_trial_holds(self, small_result):
        prediction, trial = small_result.se_result, small_result.ok_trials[0]
        shared = {f for f in vars(prediction) if f in vars(trial)}
        assert shared == {"nmse_db", *harness.END_VALUES}
        for name in shared:
            assert getattr(prediction, name).shape == getattr(trial, name).shape, name
        rows = se_rows("t", prediction)
        assert len(rows) == prediction.nmse_db.size
        for row in rows:
            k = (row["half_iter"] - 1) // 2
            for name in harness.END_VALUES:
                assert row[name] == getattr(prediction, name)[k, row["layer"]], name

    def test_mismatched_grids_are_a_hard_error(self, small_result):
        emp = result_rows(small_result)
        pred = se_rows("t", small_result.se_result)
        with pytest.raises(InvalidModelError):
            compare_rows(emp, pred[:-3])


def config_to_json(config):
    """The config as JSON; of ``se`` only what ``predictor_config`` keeps."""
    return {
        "recipe": asdict(config.recipe),
        "engine": asdict(config.engine),
        "se": {"stop_tol": config.se.stop_tol, "quad_order": config.se.quad_order},
        "trials": config.trials,
        "master_seed": config.master_seed,
        "experiment_id": config.experiment_id,
    }


class TestConfigJson:
    def test_round_trip(self):
        cfg = ExperimentConfig(
            recipe=SMALL_RECIPE,
            engine=EngineConfig(max_iters=9, mode="map", damping=0.9),
            trials=3,
            master_seed=11,
            experiment_id="rt",
        )
        back = config_from_json(json.loads(json.dumps(config_to_json(cfg))))
        assert back.recipe == cfg.recipe
        assert back.engine == cfg.engine
        assert back.trials == 3 and back.master_seed == 11

    def test_a_file_without_an_engine_block_runs_the_default_engine(self):
        assert config_from_json({}).engine == ExperimentConfig().engine

    def test_se_block_holds_only_what_the_predictor_keeps(self):
        # iterations, mode, gamma_init, damping and alpha_clip come from the engine
        doc = config_to_json(ExperimentConfig())
        assert set(doc["se"]) == {"stop_tol", "quad_order"}


class TestPredictorConfig:
    def test_predictor_starts_where_the_engine_starts(self):
        engine = EngineConfig(max_iters=3, convergence_tol=0.0, gamma_init=0.1)
        cfg = ExperimentConfig(recipe=SMALL_RECIPE, engine=engine, trials=1, master_seed=7)
        calibration = calibrate_recipe(SMALL_RECIPE, 7)
        law = recipe_law(SMALL_RECIPE, calibration)
        result = run_trials(cfg, calibration=calibration, law=law, workers=1)
        want = run_se(law, SEConfig(iterations=3, gamma_init=0.1))
        np.testing.assert_array_equal(result.se_result.nmse_db, want.nmse_db)


class TestCli:
    CONFIG = {
        "recipe": {
            "hidden_dims": [8, 24, 24, 16, 16, 20, 20],
            "measurements": 14,
            "positive_fraction": 0.4,
            "condition_number": 10.0,
            "snr_db": 30.0,
        },
        "engine": {"max_iters": 4, "convergence_tol": 0.0},
        "trials": 2,
        "master_seed": 5,
        "experiment_id": "cli",
    }

    def _config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(self.CONFIG))
        return str(path)

    def test_run_is_deterministic(self, tmp_path):
        cfg = self._config_file(tmp_path)
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert cli_main(["run", "--config", cfg, "--out", out1]) == 0
        assert cli_main(["run", "--config", cfg, "--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_generate_then_run_then_fixedpoint(self, tmp_path):
        cfg = self._config_file(tmp_path)
        net = str(tmp_path / "net.json")
        assert cli_main(["generate", "--config", cfg, "--out", net]) == 0
        sig = net.replace(".json", "") + ".signals.json"
        out = str(tmp_path / "trace.csv")
        assert cli_main(
            ["run", "--config", cfg, "--network", net, "--signals", sig, "--out", out]
        ) == 0
        rows = read_result_csv(out)
        assert rows and rows[0]["half_iter"] == 1
        assert cli_main(["fixedpoint", "--config", cfg, "--network", net, "--signals", sig]) == 0

    def test_se_and_compare(self, tmp_path):
        cfg = self._config_file(tmp_path)
        emp = str(tmp_path / "emp.csv")
        pred = str(tmp_path / "pred.csv")
        assert cli_main(["run", "--config", cfg, "--out", emp]) == 0
        assert cli_main(["se", "--config", cfg, "--out", pred]) == 0
        assert cli_main(["compare", "--config", cfg, "--empirical", emp, "--predicted", pred]) == 0

    def test_sweep(self, tmp_path, capsys):
        cfg = self._config_file(tmp_path)
        out = str(tmp_path / "sweep.csv")
        assert cli_main(["sweep", "--config", cfg, "--measurements", "10,14", "--out", out]) == 0
        printed = capsys.readouterr().out
        summary = json.loads(printed[printed.index("{"):])
        assert set(summary) == {"10", "14"}
        assert read_result_csv(out)

    def test_sweep_with_a_predictor_that_stops_early(self, tmp_path, capsys):
        # the predictor stops within 30 iterations; its curve is shorter than the trials'
        doc = {**self.CONFIG, "engine": {"max_iters": 30, "convergence_tol": 0.0},
               "se": {"stop_tol": 1e-3}}
        path, out = tmp_path / "cfg.json", str(tmp_path / "sweep.csv")
        path.write_text(json.dumps(doc))
        argv = ["sweep", "--config", str(path), "--measurements", "10,14", "--out", out]
        assert cli_main(argv) == 0
        printed = capsys.readouterr().out
        summary = json.loads(printed[printed.index("{"):])
        for m, entry in summary.items():
            rows = [r for r in read_result_csv(out) if r["experiment_id"] == f"cli-m{m}"]
            first = [r for r in rows if r["trial_seed"] == rows[0]["trial_seed"] and r["layer"] == 0]
            predicted = [r["nmse_db_se"] for r in first if not math.isnan(r["nmse_db_se"])]
            assert len(predicted) < len(first)
            assert entry["se_final_nmse_db"] == predicted[-1]

    #: trials that stop early on convergence_tol; the predictor runs all 30 iterations
    EARLY_STOP = {"recipe": {"hidden_dims": [4, 8, 8], "measurements": 6}, "trials": 3,
                  "master_seed": 1,
                  "engine": {"max_iters": 30, "damping": 0.7, "convergence_tol": 1e-3}}

    def test_compare_joins_on_the_grid_of_trials_that_stop_early(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(self.EARLY_STOP))
        cfg, emp, pred = str(path), str(tmp_path / "emp.csv"), str(tmp_path / "pred.csv")
        fresh, files = str(tmp_path / "fresh.json"), str(tmp_path / "files.json")
        assert cli_main(["compare", "--config", cfg, "--out", fresh]) == 0
        assert cli_main(["run", "--config", cfg, "--out", emp]) == 0
        assert cli_main(["se", "--config", cfg, "--out", pred]) == 0
        argv = ["compare", "--config", cfg, "--empirical", emp, "--predicted", pred]
        assert cli_main([*argv, "--out", files]) == 0
        trial_rows = [r for r in read_result_csv(emp) if r["trial_seed"] >= 0]
        last = max(r["half_iter"] for r in trial_rows)
        assert last < max(r["half_iter"] for r in read_result_csv(pred)) == 60
        joined = json.loads(open(files).read())["joined"]
        assert [(r["half_iter"], r["layer"]) for r in joined] == sorted(
            {(r["half_iter"], r["layer"]) for r in trial_rows})
        assert open(fresh).read() == open(files).read()

    def test_sweep_rejects_a_repeated_count_before_running(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run_trials", lambda *args, **kwargs: calls.append(args))
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--config", self._config_file(tmp_path), "--measurements", "10,14,10"]
        assert cli_main([*argv, "--out", str(out)]) == 2
        assert calls == [] and not out.exists()

    def test_a_size_the_host_cannot_allocate_exits_2(self, tmp_path, monkeypatch, capsys):
        # stands in for numpy's allocation failure at M = 1e12; nothing is allocated
        def too_large(config, measurement_list):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(harness, "measurement_sweep", too_large)
        argv = ["sweep", "--config", self._config_file(tmp_path), "--measurements", "1000000000000"]
        assert cli_main([*argv, "--out", str(tmp_path / "sweep.csv")]) == 2
        err = capsys.readouterr().err
        assert err == "out of memory: Unable to allocate 7.28 TiB for an array\n"

    @pytest.mark.parametrize("given", ["--empirical", "--predicted"])
    def test_compare_with_one_input_file_exits_2(self, tmp_path, given):
        # one file alone must not fall back to fresh trials
        cfg = self._config_file(tmp_path)
        assert cli_main(["compare", "--config", cfg, given, str(tmp_path / "nope.csv")]) == 2

    def test_config_error_exit_code(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert cli_main(["run", "--config", missing]) == 2

    def test_zero_truth_signals_fail_trials_not_the_run(self, tmp_path, capsys):
        # the CSV holds the one trial whose truth has no zero signal; when
        # every trial fails the run exits 3
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(TestTrials.ZERO_SIGNAL))
        out = str(tmp_path / "run.csv")
        assert cli_main(["run", "--config", str(path), "--seed", "2", "--out", out]) == 0
        seeds = {row["trial_seed"] for row in read_result_csv(out)}
        trials = run_trials(replace(config_from_json(TestTrials.ZERO_SIGNAL), master_seed=2),
                            workers=1).trials
        assert seeds == {trials[3].seed}
        assert cli_main(["run", "--config", str(path), "--seed", "1", "--out", out]) == 3
        assert "all trials failed; first error: zero reference signal at layer 2" in (
            capsys.readouterr().err)

    def test_numeric_divergence_exit_code(self, tmp_path):
        cfg = self._config_file(tmp_path)
        net = str(tmp_path / "net.json")
        assert cli_main(["generate", "--config", cfg, "--out", net]) == 0
        sig_path = net.replace(".json", "") + ".signals.json"
        doc = json.loads(open(sig_path).read())
        doc["signals"][-1] = [math.nan] * len(doc["signals"][-1])
        open(sig_path, "w").write(json.dumps(doc))
        out = str(tmp_path / "bad.csv")
        assert cli_main(
            ["run", "--config", cfg, "--network", net, "--signals", sig_path, "--out", out]
        ) == 3

    @pytest.mark.parametrize("signal", [0, 1])
    @pytest.mark.parametrize("value", [1e308, math.nan, math.inf])
    def test_a_truth_signal_of_non_finite_energy_exit_code(self, tmp_path, capsys, recwarn, signal, value):
        cfg = self._config_file(tmp_path)
        net, sig = tmp_path / "net.json", tmp_path / "net.signals.json"
        assert cli_main(["generate", "--config", cfg, "--out", str(net)]) == 0
        doc = json.loads(sig.read_text())
        doc["signals"][signal][0] = value
        sig.write_text(json.dumps(doc))
        argv = ["run", "--config", cfg, "--network", str(net), "--signals", str(sig),
                "--max-iters", "2", "--out", str(tmp_path / "o.csv")]
        assert cli_main(argv) == 2
        assert f"is not finite at layer {signal}" in capsys.readouterr().err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_a_dead_trial_worker_exit_code(self, tmp_path, monkeypatch, capsys):
        # a worker that dies mid-trial (as one the out-of-memory killer ends) breaks the pool
        monkeypatch.setenv("MLVAMP_THREADS", "2")
        monkeypatch.setattr(harness, "run_single_trial", _dying_trial)
        argv = ["run", "--config", self._config_file(tmp_path), "--out", str(tmp_path / "o.csv")]
        assert cli_main(argv) == 2
        seed = int(substream(self.CONFIG["master_seed"], 0x7A1A, 0).integers(2**62))
        err = capsys.readouterr().err
        assert err.startswith("worker lost: a pool worker died; ")
        assert f"trial 0 (seed {seed}) was left without a result" in err

    def test_an_experiment_id_beginning_with_a_hash_reads_back(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(self.CONFIG, experiment_id="#7")))
        emp, pred = str(tmp_path / "emp.csv"), str(tmp_path / "pred.csv")
        assert cli_main(["run", "--config", str(cfg), "--out", emp]) == 0
        assert cli_main(["se", "--config", str(cfg), "--out", pred]) == 0
        assert {row["experiment_id"] for row in read_result_csv(emp)} == {"#7"}
        capsys.readouterr()
        assert cli_main(["compare", "--empirical", emp, "--predicted", pred]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rows"] == 4 * 2 * len(self.CONFIG["recipe"]["hidden_dims"])
        assert math.isfinite(report["max_abs_gap_db"])

    @pytest.mark.parametrize("file", ["network", "signals"])
    @pytest.mark.parametrize("value", [True, False, "0", "2.5"])
    def test_a_non_number_in_an_input_file_exit_code(self, tmp_path, file, value):
        cfg = self._config_file(tmp_path)
        net, sig = tmp_path / "net.json", tmp_path / "net.signals.json"
        assert cli_main(["generate", "--config", cfg, "--out", str(net)]) == 0
        path = net if file == "network" else sig
        doc = json.loads(path.read_text())
        if file == "network":
            doc["layers"][0]["weight"][0][0] = value
        else:
            doc["signals"][-1][0] = value
        path.write_text(json.dumps(doc))
        argv = ["run", "--config", cfg, "--network", str(net), "--signals", str(sig),
                "--out", str(tmp_path / "o.csv")]
        assert cli_main(argv) == 2

    def test_invalid_worker_count_exit_code(self, tmp_path, monkeypatch):
        # read before any work: no calibration or predictor run comes first
        monkeypatch.setenv("MLVAMP_THREADS", "abc")
        assert cli_main(["run", "--config", self._config_file(tmp_path)]) == 2

    def test_invalid_config_contents_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"recipe": {"hidden_dims": [8, 24, 20], "measurements": 5}}))
        assert cli_main(["run", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "doc",
        [
            {"engine": {"bogus": 1}},
            [1, 2],
            {"se": {"damping": 0.5, "iterations": 3, "mode": "map"}},
            {"se": {"expectation": {"method": "mc"}}},
            {"se": {"quad_order": 0}},
            {"se": {"quad_order": 2.5}},
            {"master_seed": -1},
            {"se": {"quad_order": True}},
            {"engine": {"max_iters": 2.5}},
            {"trials": 1.7},
            {"trials": True, "engine": {"max_iters": True}},
            {"master_seed": 0.5},
            {"recipe": {"measurements": 2.5}},
            {"recipe": {"measurements": 0}},
            {"recipe": {"measurements": True}},
            {"recipe": {"hidden_dims": [8, 24.5, 24.5]}},
            *(_tiny_config_with(*bad) for bad in BAD_VALUES),
        ],
        ids=["unknown-key", "not-an-object", "se-keys-of-the-engine", "se-expectation",
             "zero-quad-order", "fractional-quad-order", "negative-seed", "bool-quad-order",
             "fractional-max-iters", "fractional-trials", "bool-counts", "fractional-seed",
             "fractional-measurements", "zero-measurements", "bool-measurements",
             "fractional-width", *BAD_VALUE_IDS],
    )
    def test_malformed_config_exit_code(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["run", "--config", str(path)]) == 2

    @pytest.mark.parametrize("command", ["run", "se"])
    def test_an_int_past_the_float_range_exit_code(self, tmp_path, command):
        # a JSON integer of 401 digits does not convert to a float
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_tiny_config_with("recipe", "snr_db", 10**400)))
        assert cli_main([command, "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("command", ["run", "se"])
    @pytest.mark.parametrize("snr_db", [5000.0, -5000.0])
    def test_snr_without_a_finite_noise_precision_exit_code(self, tmp_path, command, snr_db):
        # 5000 dB overflows the precision, -5000 dB rounds it to 0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_tiny_config_with("recipe", "snr_db", snr_db)))
        assert cli_main([command, "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("bad", BAD_VALUES[:3] + UNHOLDABLE, ids=lambda bad: f"{bad[1]}={bad[2]!r}")
    def test_malformed_config_exit_code_through_se(self, tmp_path, bad):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_tiny_config_with(*bad)))
        assert cli_main(["se", "--config", str(path), "--out", str(tmp_path / "se.csv")]) == 2

    @pytest.mark.parametrize(
        "command, network, signals",
        [
            ("run", None, "omit"),
            ("fixedpoint", None, "omit"),
            ("run", None, [1]),
            ("run", [1], None),
            ("run", "ragged", None),
            ("run", None, {"signals": [["a"]]}),
            *((command, None, {"signals": empty}) for empty in ([], {})
              for command in ("run", "fixedpoint")),
        ],
        ids=[
            "run-without-signals",
            "fixedpoint-without-signals",
            "signals-not-an-object",
            "network-not-an-object",
            "ragged-weight",
            "signal-not-a-number",
            *(f"{command}-empty-signals-{kind}" for kind in ("list", "object")
              for command in ("run", "fixedpoint")),
        ],
    )
    def test_bad_network_input_exit_code(self, tmp_path, command, network, signals):
        # None keeps the generated file; "omit" leaves --signals out
        cfg = self._config_file(tmp_path)
        net, sig = tmp_path / "net.json", tmp_path / "net.signals.json"
        assert cli_main(["generate", "--config", cfg, "--out", str(net)]) == 0
        if network == "ragged":
            network = json.loads(net.read_text())
            network["layers"][0]["weight"][0].pop()
        if network is not None:
            net.write_text(json.dumps(network))
        argv = [command, "--config", cfg, "--network", str(net)]
        if signals != "omit":
            if signals is not None:
                sig.write_text(json.dumps(signals))
            argv += ["--signals", str(sig)]
        assert cli_main(argv) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--seed", "-1"],
            ["generate", "--seed", "-1"],
            *([command, "--max-iters", "0"] for command in ("run", "se", "compare")),
            ["sweep", "--max-iters", "0", "--measurements", "10"],
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_bad_flag_value_exit_code(self, tmp_path, argv):
        assert cli_main([*argv, "--config", self._config_file(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "row", ["cli,1,1,0,abc,nan,1.0,1.0,0.5,0.5,nan,nan", "cli,1,1"], ids=["not-a-number", "short-row"]
    )
    def test_malformed_result_csv_exit_code(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n" + row + "\n")
        assert cli_main(["compare", "--empirical", str(path), "--predicted", str(path)]) == 2

    def test_generate_strips_only_a_trailing_json(self, tmp_path):
        cfg = self._config_file(tmp_path)
        (tmp_path / "a.json").mkdir()
        assert cli_main(["generate", "--config", cfg, "--out", str(tmp_path / "a.json" / "net.json")]) == 0
        assert (tmp_path / "a.json" / "net.signals.json").is_file()

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--trials", "2"],
            ["generate", "--mode", "map"],
            ["generate", "--max-iters", "3"],
            ["generate", "--se-method", "mc"],
            ["generate", "--se-samples", "10"],
            ["se", "--trials", "2"],
            ["se", "--se-method", "mc"],
            ["sweep", "--se-samples", "10", "--measurements", "10"],
            ["fixedpoint", "--trials", "2"],
            ["fixedpoint", "--out", "x"],
            ["fixedpoint", "--se-method", "mc"],
            ["fixedpoint", "--se-samples", "10"],
            ["run", "--trials", "2", "--network", "n.json", "--signals", "s.json"],
            ["run", "--se-method", "mc", "--network", "n.json", "--signals", "s.json"],
            ["run", "--se-samples", "10", "--network", "n.json", "--signals", "s.json"],
            ["fixedpoint", "--seed", "9", "--network", "n.json", "--signals", "s.json"],
            *(["compare", flag, value, "--empirical", "e.csv", "--predicted", "p.csv"]
              for flag, value in (("--trials", "9"), ("--seed", "4"), ("--mode", "map"),
                                  ("--max-iters", "3"), ("--se-method", "mc"), ("--se-samples", "5"))),
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_a_flag_the_command_does_not_read_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_network_rows_carry_each_half_own_precisions(self, tmp_path):
        cfg = self._config_file(tmp_path)
        net, sig, out = (str(tmp_path / name) for name in ("net.json", "net.signals.json", "t.csv"))
        assert cli_main(["generate", "--config", cfg, "--out", net]) == 0
        assert cli_main(["run", "--config", cfg, "--network", net, "--signals", sig, "--out", out]) == 0
        signals = json.loads(open(sig).read())["signals"]
        truth = SignalSet(signals=tuple(np.asarray(z, float) for z in signals))
        _, trace, _ = run(load_network(net), truth.y, config_from_json(self.CONFIG).engine, truth=truth)
        rows = read_result_csv(out)
        assert len(rows) == len(trace.rows) * len(trace.rows[0].gamma_plus)
        for row in rows:
            half = trace.rows[row["half_iter"] - 1]  # half 1 carries trace.rows[0], and so on
            for key in ("gamma_plus", "gamma_minus", "alpha_plus", "alpha_minus"):
                assert row[key] == getattr(half, key)[row["layer"]]
        # the forward half still carries the initial minus side, unlike the iteration's end
        assert rows[0]["half_iter"] == 1 and rows[0]["gamma_minus"] != trace.rows[1].gamma_minus[0]

    def test_non_integer_measurements_exit_code(self, tmp_path):
        cfg = self._config_file(tmp_path)
        assert cli_main(["sweep", "--config", cfg, "--measurements", "10,abc"]) == 2


def _bench_module(name):
    """``bench/<name>.py``, loaded from its file (``bench`` is no package)."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


class TestBenchWorkloads:
    def test_same_trial_holds_for_a_successful_and_a_failed_trial(self):
        # the gated paper-serial workload compares trials with _same_trial
        workloads = _bench_module("workloads")
        calibration = calibrate_recipe(SMALL_RECIPE, 7)
        ok = harness.run_single_trial(SMALL_RECIPE, calibration, FAST_ENGINE, 11)
        assert ok.error is None
        failed = harness.TrialResult(seed=12, wall_ms=1.0, error="diverged")
        for trial in (ok, failed):
            assert workloads._same_trial(trial, trial)
        assert not workloads._same_trial(ok, failed)


class TestBenchTracer:
    def test_traced_names_resolve(self):
        # the benchmark's tracer wraps these functions by name and fails on a
        # missing one
        tracing = _bench_module("tracing")
        assert tracing.TRACED
        for module, name in tracing.TRACED:
            fn = getattr(importlib.import_module(f"mlvamp.{module}"), name, None)
            assert callable(fn), f"mlvamp.{module}.{name}"

    @pytest.mark.parametrize("mode", ["mmse", "map"])
    def test_estimator_spans_carry_layer_and_direction(self, mode):
        # the per-layer benchmark figures read the estimators' arguments
        from conftest import make_relu_network
        from mlvamp import engine
        from mlvamp.model import NOISELESS

        tracing = _bench_module("tracing")
        spec = make_relu_network(
            (12, 30, 30, 20, 20, 16),
            rho=0.6, nu_lin=NOISELESS, nu_act=NOISELESS, nu_meas=100.0, seed=3,
        )
        sig = forward_generate(spec, 5)
        originals = {
            (module, name): getattr(importlib.import_module(f"mlvamp.{module}"), name)
            for module, name in tracing.TRACED
        }
        tracer = tracing.Tracer()
        tracer.install()
        try:
            engine.run(spec, sig.y, EngineConfig(max_iters=2, mode=mode, convergence_tol=0.0))
        finally:
            tracer.uninstall()
        pairs = ("denoisers.linear_pair", f"denoisers.{mode}_pair_nonlinear")
        seen = [(span[0], span[5]["layer"], span[5]["dir"]) for span in tracer.spans if span[0] in pairs]
        assert len(seen) == 2 * 2 * 4  # iterations x sweeps x pair layers
        # affine pairs at the odd layers, relu pairs at the even ones
        assert set(seen) == {
            (pairs[0] if ell % 2 else pairs[1], ell, d) for ell in (1, 2, 3, 4) for d in ("fwd", "bwd")
        }
        for (module, name), fn in originals.items():
            assert getattr(importlib.import_module(f"mlvamp.{module}"), name) is fn, name

    def test_predictor_spans_carry_their_layer(self):
        # the state-evolution per-layer figures read args[1] of each step and
        # the points of each scalar_pair call
        tracing = _bench_module("tracing")
        recipe = SyntheticRecipe(hidden_dims=(8, 20, 20, 30, 30), measurements=12)
        law = recipe_law(recipe, calibrate_recipe(recipe, 0))
        assert law.num_layers == 5
        originals = {
            (module, name): getattr(importlib.import_module(f"mlvamp.{module}"), name)
            for module, name in tracing.TRACED
        }
        tracer = tracing.Tracer()
        tracer.install()
        try:
            state_evolution.run_se(law, SEConfig(iterations=2, damping=0.7))
        finally:
            tracer.uninstall()
        layers = {d: sorted(span[5]["layer"] for span in tracer.spans
                            if span[0] == f"state_evolution.se_{d}_layer")
                  for d in ("forward", "backward")}
        assert layers["forward"] == [1, 1, 2, 2, 3, 3, 4, 4]
        assert layers["backward"] == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]
        points = [span[5]["points"] for span in tracer.spans if span[0] == "denoisers.scalar_pair"]
        assert len(points) == 8 and min(points) > 0
        for (module, name), fn in originals.items():
            assert getattr(importlib.import_module(f"mlvamp.{module}"), name) is fn, name
