"""Acceptance gates, one test per criterion, each printing a PASS/FAIL line.

The synthetic-benchmark fixtures (the 7-layer relu network with the
ill-conditioned compressed measurement) are shared across criteria and run
once per session.
"""

import math
import time

import numpy as np
import pytest

from mlvamp import denoisers as dn
from mlvamp import harness
from mlvamp import state_evolution as se
from mlvamp.engine import EngineConfig, run
from mlvamp.model import NOISELESS, forward_generate
from conftest import (
    both_sides,
    divergence_finite_difference,
    exact_gaussian_posterior,
    haar,
    layer_from_square_factors,
    make_gaussian_chain,
    make_relu_network,
)
from matched_recursion import matched_mmse_recursion
from test_denoisers import trapezoid_mmse

PAPER_TRIALS = 50
PAPER_ITERS = 50


def _verdict(number, ok, detail):
    print(f"\n[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@pytest.fixture(scope="module")
def paper_experiment():
    """Reference configuration: 50 trials and the predictor, at M = 100."""
    # Geometric damping 0.7, mirrored exactly in the predictor: the
    # undamped small-N iteration has a divergent trial tail (the damping
    # knob exists for precisely this), and the damped pair tracks tighter.
    cfg = harness.ExperimentConfig(
        recipe=harness.SyntheticRecipe(),
        engine=EngineConfig(
            max_iters=PAPER_ITERS, mode="mmse", convergence_tol=0.0, damping=0.7
        ),
        trials=PAPER_TRIALS,
        master_seed=3,
        experiment_id="acceptance-m100",
    )
    start = time.perf_counter()
    result = harness.run_trials(cfg)
    result.wall_s = time.perf_counter() - start
    return result


@pytest.fixture(scope="module")
def sweep_results(paper_experiment):
    cfg = paper_experiment.config
    out = {100: paper_experiment}
    out.update(harness.measurement_sweep(cfg, [10, 50, 200, 300]))
    return out


class TestCriterion1ExactPosterior:
    @pytest.fixture(scope="class")
    def chain(self):
        spec = make_gaussian_chain(
            (200, 150, 100), (1.0, 1.0), seed=42, bias_scale=0.3, unit_spectrum=True
        )
        sig = forward_generate(spec, 43)
        return spec, sig

    def test_engine_matches_the_exact_posterior_mean(self, chain):
        spec, sig = chain
        start = time.perf_counter()
        cfg = EngineConfig(max_iters=30, mode="mmse", convergence_tol=1e-10)
        state, trace, _ = run(spec, sig.y, cfg)
        elapsed = time.perf_counter() - start
        means, _ = exact_gaussian_posterior(spec, sig.y)
        worst = max(
            float(np.linalg.norm(state.zhat_plus[ell] - means[ell]))
            / float(np.linalg.norm(means[ell]))
            for ell in range(2)
        )
        iters = len(trace.rows) // 2
        ok = worst <= 1e-6 and iters <= 30 and elapsed < 10.0
        assert _verdict(
            1, ok, f"posterior-mean rel err {worst:.2e} in {iters} iterations ({elapsed:.1f} s)"
        )

    def test_recursion_matches_the_exact_posterior_variances(self, chain):
        spec, sig = chain
        law = se.network_law(spec)
        res = se.run_se(law, se.SEConfig(iterations=400, stop_tol=1e-14))
        _, avg_vars = exact_gaussian_posterior(spec, sig.y)
        got = 1.0 / (res.gamma_plus[-1] + res.gamma_minus[-1])
        worst = float(np.max(np.abs(got - avg_vars) / np.asarray(avg_vars)))
        ok = worst <= 1e-6
        assert _verdict(1, ok, f"predicted-vs-exact posterior variance rel err {worst:.2e}")


class TestCriterion2FixedPointIdentities:
    def test_converged_runs_satisfy_the_identities(self):
        worst = 0.0
        # MMSE on the all-affine chain
        spec = make_gaussian_chain(
            (200, 150, 100), (1.0, 1.0), seed=42, bias_scale=0.3, unit_spectrum=True
        )
        sig = forward_generate(spec, 43)
        _, _, report = run(spec, sig.y, EngineConfig(max_iters=200, convergence_tol=1e-10))
        worst = max(
            worst,
            report.consistency_residual,
            report.eta_residual,
            report.combination_residual,
        )
        # MAP on a relu network
        spec = make_relu_network(
            (100, 400, 400, 300, 300, 500), rho=0.9,
            nu_lin=2000.0, nu_act=2000.0, nu_meas=3000.0, seed=5,
        )
        sig = forward_generate(spec, 31)
        _, _, report = run(
            spec, sig.y, EngineConfig(max_iters=300, mode="map", convergence_tol=1e-10)
        )
        worst = max(
            worst,
            report.consistency_residual,
            report.eta_residual,
            report.combination_residual,
        )
        ok = worst <= 1e-8
        assert _verdict(2, ok, f"worst fixed-point residual {worst:.2e}")


class TestCriterion3MapStationarity:
    def test_map_fixed_point_is_a_critical_point(self):
        start = time.perf_counter()
        spec = make_relu_network(
            (100, 400, 400, 300, 300, 500), rho=0.9,
            nu_lin=2000.0, nu_act=2000.0, nu_meas=3000.0, seed=5,
        )
        sig = forward_generate(spec, 31)
        cfg = EngineConfig(max_iters=300, mode="map", convergence_tol=1e-11)
        _, _, report = run(spec, sig.y, cfg)
        elapsed = time.perf_counter() - start
        ok = report.map_stationarity <= 1e-6 and elapsed < 30.0
        assert _verdict(
            3, ok, f"relative objective-gradient norm {report.map_stationarity:.2e} ({elapsed:.1f} s)"
        )


class TestCriterion4PaperReproduction:
    def test_mean_error_tracks_the_prediction(self, paper_experiment):
        res = paper_experiment
        n = res.n_half
        mean_db = res.mean_nmse_db()
        se_db = res.se_result.nmse_db[:n]
        gaps = np.abs(mean_db[:, 0] - se_db[:, 0])
        failed = len(res.trials) - len(res.ok_trials)
        ok = float(gaps.max()) <= 1.5 and res.wall_s < 900
        assert _verdict(
            4,
            ok,
            f"max |mean NMSE - prediction| {gaps.max():.2f} dB over {n} half-iterations "
            f"({len(res.ok_trials)}/{len(res.trials)} trials converged, {res.wall_s:.0f} s)",
        )


class TestCriterion5MeasurementSweep:
    def test_final_error_gap_over_the_measurement_grid(self, sweep_results):
        gaps = {}
        for m, res in sorted(sweep_results.items()):
            n = res.n_half
            gap = abs(res.mean_nmse_db()[-1, 0] - res.se_result.nmse_db[n - 1, 0])
            gaps[m] = gap
        detail = ", ".join(f"M={m}: {g:.2f} dB" for m, g in gaps.items())
        ok = all(g <= 1.5 for m, g in gaps.items() if m >= 100)
        assert _verdict(5, ok, f"final-iteration gaps [{detail}]; gated only for M >= 100")


class TestSweepProperties:
    def test_median_error_is_monotone_in_measurements(self, sweep_results):
        # More measurements cannot hurt the median at these scales;
        # inversions up to 0.5 dB are tolerated and flagged.
        medians = {m: float(res.median_nmse_db()[-1, 0]) for m, res in sweep_results.items()}
        ordered = [medians[m] for m in sorted(medians)]
        inversions = [b - a for a, b in zip(ordered, ordered[1:]) if b > a]
        if inversions:
            print(f"\n[sweep] median inversions (allowed <= 0.5 dB): {inversions}")
        assert all(inv <= 0.5 for inv in inversions), f"median curve inverts: {ordered}"

    def test_median_final_error_tracks_the_prediction(self, paper_experiment):
        res = paper_experiment
        n = res.n_half
        gap = abs(res.median_nmse_db()[-1, 0] - res.se_result.nmse_db[n - 1, 0])
        assert gap <= 1.0, f"median final gap {gap:.2f} dB"


class TestCriterion6MatchedRecursionConsistency:
    def test_two_code_paths_share_a_fixed_point(self, paper_experiment):
        start = time.perf_counter()
        recipe = paper_experiment.config.recipe
        cal = harness.calibrate_recipe(recipe, paper_experiment.config.master_seed)
        law = harness.recipe_law(recipe, cal)
        full = se.run_se(law, se.SEConfig(iterations=400, stop_tol=1e-13))
        matched = matched_mmse_recursion(law, se.SEConfig())
        rel = max(
            float(np.max(np.abs(full.gamma_plus[-1] - matched.gamma_plus) / matched.gamma_plus)),
            float(np.max(np.abs(full.gamma_minus[-1] - matched.gamma_minus) / matched.gamma_minus)),
        )
        elapsed = time.perf_counter() - start
        ok = rel <= 1e-4 and matched.converged and matched.residual <= 1e-8 and elapsed < 120
        assert _verdict(
            6,
            ok,
            f"fixed-point gamma agreement {rel:.2e}, recursion residual "
            f"{matched.residual:.2e} ({elapsed:.0f} s)",
        )


class TestOptimalityCondition:
    #: Relative agreement of every precision from the two starts; fixed before measuring.
    BOUND = 1e-9

    def test_an_informed_start_reaches_the_same_fixed_point(self, sweep_results):
        """The matched posterior-mean recursion, started uninformed (every
        gamma 1e-4) and informed (every gamma 1e6), reaches one fixed point at
        each M of the sweep: no second fixed point is reachable from an
        informed start.  That is necessary for the algorithm's fixed point to
        be the Bayes-optimal one, not sufficient: it rules out no fixed point
        that neither start reaches, and it does not compute the replica
        prediction (Krzakala, Mezard, Sausset, Sun & Zdeborova, PRX 2012).
        """
        lines = []
        for m, res in sorted(sweep_results.items()):
            recipe = res.config.recipe
            law = harness.recipe_law(recipe, harness.calibrate_recipe(recipe, res.config.master_seed))
            low, high = (matched_mmse_recursion(law, se.SEConfig(gamma_init=g)) for g in (1e-4, 1e6))
            assert low.converged and high.converged, f"M={m}: a start did not converge"
            rel = max(float(np.max(np.abs(a - b) / a))
                      for a, b in ((low.gamma_plus, high.gamma_plus), (low.gamma_minus, high.gamma_minus)))
            assert rel <= self.BOUND, f"M={m}: the two starts' precisions differ by {rel:.2e}"
            lines.append(f"M={m}: {rel:.1e}, fixed point {10 * math.log10(low.mse[0]):.2f} dB, "
                         f"engine mean {res.mean_nmse_db()[-1, 0]:.2f} dB")
        print("\n[optimality] start agreement, layer-0 fixed-point MSE and final engine NMSE: "
              + "; ".join(lines))


class TestCriterion7DivergenceCorrectness:
    CASES = [
        ("mmse-identity", lambda rm, rp, gm, gp: both_sides(dn.scalar_pair_mmse, "identity", NOISELESS, rm, rp, gm, gp)),
        ("mmse-relu", lambda rm, rp, gm, gp: both_sides(dn.scalar_pair_mmse, "relu", NOISELESS, rm, rp, gm, gp)),
        ("mmse-relu-noisy", lambda rm, rp, gm, gp: both_sides(dn.scalar_pair_mmse, "relu", 4.0, rm, rp, gm, gp)),
        ("mmse-sign", lambda rm, rp, gm, gp: both_sides(dn.scalar_pair_mmse, "sign", NOISELESS, rm, rp, gm, gp)),
        ("mmse-sigmoid", lambda rm, rp, gm, gp: both_sides(dn.scalar_pair_mmse, "sigmoid", NOISELESS, rm, rp, gm, gp)),
        ("map-relu", lambda rm, rp, gm, gp: both_sides(dn.scalar_pair_map, "relu", NOISELESS, rm, rp, gm, gp)),
        ("map-relu-noisy", lambda rm, rp, gm, gp: both_sides(dn.scalar_pair_map, "relu", 4.0, rm, rp, gm, gp)),
        ("map-sigmoid", lambda rm, rp, gm, gp: both_sides(dn.scalar_pair_map, "sigmoid", NOISELESS, rm, rp, gm, gp)),
    ]

    def test_analytic_divergences_match_finite_differences(self):
        start = time.perf_counter()
        rng = np.random.default_rng(77)
        worst = 0.0
        for name, fn in self.CASES:
            sigmoid_out = "sigmoid" in name
            for _ in range(4):  # 4 draws x 25 components = 100 points per type
                rm = rng.uniform(0.1, 0.9, 25) if sigmoid_out else rng.uniform(-3, 3, 25)
                rp = rng.uniform(-3, 3, 25)
                gm = float(rng.uniform(0.2, 5.0))
                gp = float(rng.uniform(0.2, 5.0))

                def pair(a, b):
                    zp, zm, _, _ = fn(a, b, gm, gp)
                    return zp, zm

                fd_p, fd_m = divergence_finite_difference(pair, rm, rp, epsilon=1e-5)
                _, _, dp, dmn = fn(rm, rp, gm, gp)
                worst = max(worst, abs(float(np.mean(dp)) - fd_p), abs(float(np.mean(dmn)) - fd_m))
        # the affine pair and the input estimator
        from mlvamp.denoisers import BeliefParams, input_denoiser, linear_pair
        from mlvamp.model import geometric_singular_values

        layer = layer_from_square_factors(
            haar(25, 1),
            geometric_singular_values(25, 20, 4.0),
            haar(20, 2),
            rng.normal(0, 0.3, 25),
            2.0,
        )
        for _ in range(4):
            gm = float(rng.uniform(0.2, 5.0))
            gp = float(rng.uniform(0.2, 5.0))
            rm = rng.standard_normal(25)
            rp = rng.standard_normal(20)

            def pair(a, b):
                params = BeliefParams(a, b, gm, gp)
                return tuple(linear_pair(params, layer.factors, 2.0, fw)[0] for fw in (True, False))

            fd_p, fd_m = divergence_finite_difference(pair, rm, rp, epsilon=1e-6)
            params = BeliefParams(rm, rp, gm, gp)
            alpha_p, alpha_m = (linear_pair(params, layer.factors, 2.0, fw)[1] for fw in (True, False))
            worst = max(worst, abs(alpha_p - fd_p), abs(alpha_m - fd_m))
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-4 and elapsed < 60
        assert _verdict(7, ok, f"worst |analytic - finite difference| {worst:.2e} ({elapsed:.0f} s)")


class TestCriterion8QuadratureVsOracle:
    def test_relu_posterior_means_match_the_fine_grid(self):
        start = time.perf_counter()
        rng = np.random.default_rng(88)
        worst = 0.0
        # parameter ranges chosen so the posterior mass stays inside the
        # oracle's [-12, 12] window
        for _ in range(200):
            rm = rng.uniform(-3, 3)
            rp = rng.uniform(-3, 3)
            gm = rng.uniform(0.8, 8.0)
            gp = rng.uniform(0.8, 8.0)
            zp, zm, _, _ = both_sides(
                dn.scalar_pair_mmse, "relu", NOISELESS, np.array([rm]), np.array([rp]), gm, gp
            )
            op, om, _, _ = trapezoid_mmse("relu", rm, rp, gm, gp)
            worst = max(worst, abs(zp[0] - op), abs(zm[0] - om))
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-6 and elapsed < 60
        assert _verdict(8, ok, f"worst |closed form - fine grid| {worst:.2e} on 200 cases ({elapsed:.0f} s)")


class TestCriterion9ParameterLimits:
    def test_trial_mean_parameters_match_the_recursion(self, paper_experiment):
        # Each trial mean must lie within max(5%, 3 SEM) of the recursion,
        # SEM being the mean's standard error relative to |ref| (ddof 1).
        # Entries the trials resolve keep the flat 5% bound.  Where the
        # per-trial spread is wide (the width-20 layer late in the run) the
        # mean is noise-limited, and a divergence, a convex function of the
        # same trial's precisions, has an arithmetic mean that sits about
        # CV^2 off the recursion even when the precisions' mean matches.
        res = paper_experiment
        ok_trials = res.ok_trials
        n = len(ok_trials)
        worst = 0.0
        ok = True
        offenders = []
        for k in (9, PAPER_ITERS - 1):
            for name in ("gamma_plus", "gamma_minus", "alpha_plus", "alpha_minus"):
                ref = getattr(res.se_result, name)[k]
                values = np.array([getattr(t, name)[k] for t in ok_trials])
                rels = np.abs(values.mean(axis=0) - ref) / np.abs(ref)
                sems = values.std(axis=0, ddof=1) / math.sqrt(n) / np.abs(ref)
                bounds = np.maximum(0.05, 3.0 * sems)
                worst = max(worst, float(np.max(rels)))
                ok = ok and bool(np.all(rels <= bounds))
                for ell in np.flatnonzero(rels > 0.05):
                    offenders.append(
                        f"{name}[{ell}]@k{k + 1}={rels[ell]:.3f} "
                        f"(SEM {sems[ell]:.3f}, bound {bounds[ell]:.3f})"
                    )
        excluded = [
            f"layer {t.error_layer} @k{t.error_iteration + 1}: {t.error}"
            if t.error_iteration is not None else t.error
            for t in res.trials
            if t.error is not None
        ]
        detail = f"worst trial-mean parameter gap {worst:.1%} over {n}/{len(res.trials)} trials"
        if excluded:
            detail += f" (excluded: {'; '.join(excluded)})"
        if offenders:
            detail += f"; entries above 5%: {', '.join(offenders)}"
        assert _verdict(9, ok, detail)
