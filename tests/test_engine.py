"""Alternating-pass iteration: bookkeeping identities and exact references."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlvamp import denoisers as dn
from mlvamp import engine
from mlvamp.denoisers import GAMMA_MAX, GAMMA_MIN
from mlvamp.engine import (
    EngineConfig,
    build_denoiser_bank,
    fixed_point_report,
    initialize,
    nmse_db,
    run,
)
from mlvamp.errors import DivergedIterationError, UndefinedMetricError
from mlvamp.model import (
    NOISELESS,
    LinearLayerSpec,
    NetworkSpec,
    NonlinearLayerSpec,
    SignalSet,
    forward_generate,
    linear_layer_from_factors,
)
from conftest import (
    exact_gaussian_posterior, haar, layer_from_square_factors, make_gaussian_chain, make_relu_network,
)


class TestInitialize:
    def test_pseudo_observations_start_at_zero(self):
        spec = make_gaussian_chain((8, 6, 5), (1.0, 1.0), seed=1)
        state = initialize(spec, EngineConfig())
        for r in state.r_minus + state.r_plus:
            np.testing.assert_array_equal(r, 0.0)

    def test_gamma_init_assignment(self):
        spec = make_gaussian_chain((8, 6, 5), (1.0, 1.0), seed=1)
        state = initialize(spec, EngineConfig(gamma_init=1.0))
        np.testing.assert_array_equal(state.gamma_minus, 1.0)

    def test_the_bank_holds_the_callers_network(self):
        # every affine layer carries its factors, so the bank copies nothing
        spec = make_gaussian_chain((8, 6, 5), (1.0, 1.0), seed=1)
        assert build_denoiser_bank(spec, np.zeros(5), "mmse").spec is spec

    def test_determinism(self):
        spec = make_gaussian_chain((8, 6, 5), (1.0, 1.0), seed=1)
        sig = forward_generate(spec, 2)
        cfg = EngineConfig(max_iters=5, convergence_tol=0.0)
        a = run(spec, sig.y, cfg)
        b = run(spec, sig.y, cfg)
        for za, zb in zip(a[0].zhat_plus, b[0].zhat_plus):
            np.testing.assert_array_equal(za, zb)


def _run_checking_pass_identities(spec, y, cfg):
    """Step ``cfg.max_iters`` iterations; after every pass, for every signal,
    eta = gamma_other / alpha and (1 - alpha) r_new + alpha r_old = zhat."""
    bank = build_denoiser_bank(spec, y, cfg.mode)
    state = initialize(spec, cfg)
    for k in range(cfg.max_iters):
        book = engine.Bookkeeping(cfg.alpha_clip, cfg.damping, iteration=k)
        old_minus = [r.copy() for r in state.r_minus]
        engine.forward_pass(state, bank, book)
        for ell in range(state.num_signals):
            a = state.alpha_plus[ell]
            assert state.eta_plus[ell] == pytest.approx(state.gamma_minus[ell] / a, rel=1e-12)
            if cfg.damping == 1.0:  # undamped, gamma_plus = eta - gamma_minus
                assert state.gamma_plus[ell] == pytest.approx(
                    state.eta_plus[ell] - state.gamma_minus[ell], rel=1e-12
                )
            recon = (1 - a) * state.r_plus[ell] + a * old_minus[ell]
            np.testing.assert_allclose(recon, state.zhat_plus[ell], atol=1e-10)
        old_plus = [r.copy() for r in state.r_plus]
        engine.backward_pass(state, bank, book)
        for ell in range(state.num_signals):
            a = state.alpha_minus[ell]
            assert state.eta_minus[ell] == pytest.approx(state.gamma_plus[ell] / a, rel=1e-12)
            recon = (1 - a) * state.r_minus[ell] + a * old_plus[ell]
            np.testing.assert_allclose(recon, state.zhat_minus[ell], atol=1e-10)


@st.composite
def gaussian_chains(draw):
    """An all-affine chain of 2-3 layers, widths 2-10, noise precisions 0.5-4."""
    n_layers = draw(st.integers(2, 3))
    dims = draw(st.lists(st.integers(2, 10), min_size=n_layers + 1, max_size=n_layers + 1))
    nus = draw(st.lists(st.floats(0.5, 4.0), min_size=n_layers, max_size=n_layers))
    return make_gaussian_chain(tuple(dims), tuple(nus), seed=draw(st.integers(0, 10_000)))


class TestFixedPointProperties:
    @given(spec=gaussian_chains(), damping=st.sampled_from((1.0, 0.7)))
    @settings(max_examples=40, deadline=None)
    def test_pass_identities_hold_after_every_pass(self, spec, damping):
        y = forward_generate(spec, 1).y
        _run_checking_pass_identities(spec, y, EngineConfig(max_iters=8, damping=damping))

    @given(spec=gaussian_chains(), damping=st.sampled_from((1.0, 0.7)))
    @settings(max_examples=40, deadline=None)
    def test_converged_run_has_tiny_residuals(self, spec, damping):
        y = forward_generate(spec, 1).y
        cfg = EngineConfig(max_iters=500, damping=damping, convergence_tol=1e-12)
        _, _, report = run(spec, y, cfg)
        assert max(report.eta_residual, report.combination_residual, report.moment_match) <= 1e-8


class TestUpdateArithmetic:
    def test_precision_bookkeeping(self):
        # undamped: eta = gamma_other / alpha, the side's precision eta - gamma_other
        book = engine.Bookkeeping(damping=1.0)
        eta, gamma = book.update(0.7, 1.3, 0.25)
        assert eta == pytest.approx(1.3 / 0.25, rel=1e-15)
        assert gamma == pytest.approx(eta - 1.3, rel=1e-15)
        assert book.events == 0

    def test_out_of_range_alpha_is_clipped_and_counted(self):
        book = engine.Bookkeeping(alpha_clip=1e-3)
        assert book.clip(0.4) == 0.4 and book.events == 0
        assert book.clip(1e-5) == 1e-3 and book.events == 1
        assert book.clip(1.0) == 1.0 - 1e-3 and book.events == 2
        # an opposite precision outside [GAMMA_MIN, GAMMA_MAX] is a clip too
        _, gamma = book.update(1.0, 1e-12, 0.5)
        assert gamma == GAMMA_MIN and book.events == 3
        with pytest.raises(DivergedIterationError):
            book.clip(math.nan, layer=2)

    def test_damping_leaves_a_fixed_point_in_place(self):
        # at a fixed point (alpha = gamma_other / (gamma + gamma_other)) the
        # damped update returns the old precision; elsewhere it moves part way
        gamma, other = 2.5, 4.0
        book = engine.Bookkeeping(damping=0.3)
        _, again = book.update(gamma, other, other / (gamma + other))
        assert again == pytest.approx(gamma, rel=1e-14)
        _, moved = book.update(gamma, other, 0.5)
        assert moved == pytest.approx(gamma ** 0.7 * 4.0 ** 0.3, rel=1e-14)
        assert engine.damp(gamma, gamma, 0.3) == pytest.approx(gamma, rel=1e-15)

    def test_identities_hold_during_a_run(self):
        spec = make_gaussian_chain((10, 8, 6), (1.0, 2.0), seed=3)
        _run_checking_pass_identities(spec, forward_generate(spec, 4).y, EngineConfig(max_iters=6))

    def test_symmetric_layer_has_equal_divergences(self):
        # A square affine layer with equal precisions on both sides has the
        # same mean derivative in both directions.
        from mlvamp.denoisers import BeliefParams, linear_pair

        rng = np.random.default_rng(5)
        left = haar(7, 50)
        right = haar(7, 51)
        layer = linear_layer_from_factors(left, np.ones(7), right, np.zeros(7), 1.5)
        params = BeliefParams(rng.standard_normal(7), rng.standard_normal(7), 0.8, 0.8)
        _, alpha_plus = linear_pair(params, layer.factors, 1.5, True)
        _, alpha_minus = linear_pair(params, layer.factors, 1.5, False)
        assert alpha_plus == pytest.approx(alpha_minus, rel=1e-12)

    @pytest.mark.parametrize("value", [-math.inf, -1.0, 0.0, 1e-12, 0.3, 1.0, 2e11, math.inf])
    def test_clips_agree_with_numpy(self, value):
        assert engine.clip_alpha(value, 1e-6) == float(np.clip(value, 1e-6, 1.0 - 1e-6))
        assert dn.clip_gamma(value) == float(np.clip(value, GAMMA_MIN, GAMMA_MAX))

    def test_clips_keep_nan(self):
        assert math.isnan(engine.clip_alpha(math.nan)) and math.isnan(dn.clip_gamma(math.nan))
        assert math.isnan(engine.clip_alpha(np.float64(math.nan)))


class TestSweepSchedule:
    """``sweep`` calls one step per signal, in schedule order, and writes that
    side's alpha, eta and gamma through ``Bookkeeping.update``."""

    @pytest.mark.parametrize("forward", [True, False])
    def test_one_step_per_signal_on_the_sweeps_side(self, forward):
        fields = engine.Precisions.start(3, 1e-2)
        fields.update(gamma_plus=np.array([0.3, 1.1, 2.4]), gamma_minus=np.array([0.7, 0.2, 1.9]))
        prec = engine.Precisions(**fields)
        before = {name: value.copy() for name, value in fields.items()}
        side, other = ("plus", "minus") if forward else ("minus", "plus")
        alphas = [0.2, 0.45, 0.7]
        seen = []

        def step(ell):
            seen.append((ell, getattr(prec, f"gamma_{side}").copy()))
            return alphas[ell]

        engine.sweep(prec, forward, step, engine.Bookkeeping(damping=0.6))
        order = [0, 1, 2] if forward else [2, 1, 0]
        assert [ell for ell, _ in seen] == order
        reference = engine.Bookkeeping(damping=0.6)
        expected = [reference.update(before[f"gamma_{side}"][ell], before[f"gamma_{other}"][ell],
                                     alphas[ell]) for ell in range(3)]
        np.testing.assert_array_equal(getattr(prec, f"alpha_{side}"), alphas)
        np.testing.assert_array_equal(getattr(prec, f"eta_{side}"), [eta for eta, _ in expected])
        np.testing.assert_array_equal(getattr(prec, f"gamma_{side}"), [g for _, g in expected])
        for name in (f"alpha_{other}", f"eta_{other}", f"gamma_{other}"):
            np.testing.assert_array_equal(getattr(prec, name), before[name])
        # each step sees the signals visited before it updated, and its own not yet
        for i, (ell, gammas) in enumerate(seen):
            done = order[:i]
            for j in range(3):
                want = expected[j][1] if j in done else before[f"gamma_{side}"][j]
                assert gammas[j] == want


class TestRotationCache:
    """An engine run rotates each affine message once per sweep and serves
    that product to the other sweep; it must change no bit."""

    @staticmethod
    def paper_like_run(truth=True):
        spec = make_relu_network(
            (20, 60, 60, 80, 80, 40), rho=0.4, nu_lin=math.inf, nu_act=math.inf, nu_meas=500.0, seed=2
        )
        sig = forward_generate(spec, 5)
        cfg = EngineConfig(max_iters=8, convergence_tol=0.0, damping=0.7)
        return run(spec, sig.y, cfg, truth=sig if truth else None)

    def test_cached_run_equals_one_that_rotates_every_message(self, monkeypatch):
        cached = self.paper_like_run()
        monkeypatch.setattr(
            engine.Rotations, "__call__", lambda self, f, side, m: dn.rotate_message(f, side, m)
        )
        every = self.paper_like_run()
        (state_a, trace_a, report_a), (state_b, trace_b, report_b) = cached, every
        assert len(trace_a.rows) == len(trace_b.rows) == 16
        for row_a, row_b in zip(trace_a.rows, trace_b.rows):
            for name in ("nmse_db", "gamma_plus", "gamma_minus", "alpha_plus", "alpha_minus",
                         "consistency", "max_delta", "clip_events"):
                np.testing.assert_array_equal(getattr(row_a, name), getattr(row_b, name))
        for name in ("r_minus", "r_plus", "zhat_plus", "zhat_minus"):
            for a, b in zip(getattr(state_a, name), getattr(state_b, name)):
                np.testing.assert_array_equal(a, b)
        assert report_a == report_b

    def test_two_rotations_per_affine_layer_and_iteration(self, monkeypatch):
        # the other two products of an affine layer's iteration rotate its
        # estimates back; the observation is rotated once per run
        calls, rotate = [], dn.rotate_message

        def counted(factors, side, message):
            calls.append(side)
            return rotate(factors, side, message)

        monkeypatch.setattr(dn, "rotate_message", counted)
        self.paper_like_run(truth=False)
        iters, pair_layers = 8, 2
        # each pair layer: one fresh product per sweep, plus its first
        # forward sweep's zero minus message; the output layer: r_plus once
        # per iteration, plus y once
        assert len(calls) == pair_layers * (2 * iters + 1) + (iters + 1)

    def test_a_replaced_message_is_rotated_afresh(self):
        rng = np.random.default_rng(9)
        factors = layer_from_square_factors(
            haar(6, 1), np.ones(5), haar(5, 2), np.zeros(6), 1.0
        ).factors
        rotate = engine.Rotations()
        message = rng.standard_normal(5)
        first = rotate(factors, "right", message)
        assert rotate(factors, "right", message) is first
        # an equal copy is another message: computed, never served
        copy = message.copy()
        again = rotate(factors, "right", copy)
        assert again is not first
        np.testing.assert_array_equal(again, first)
        # a message dropped right after its rotation: the next array may take
        # its storage, and with it its identity, unless the cache holds it
        for _ in range(20):
            rotate(factors, "right", rng.standard_normal(5))
            message = rng.standard_normal(5)
            np.testing.assert_array_equal(
                rotate(factors, "right", message), factors.right_orthogonal @ message
            )


class TestScalarChainIsExactInOneSweep:
    def test_single_sweep_matches_the_smoother(self):
        # Width-1 chain: the Gaussian messages are exact, so one full sweep
        # reproduces the exact posterior means.
        spec = make_gaussian_chain((1, 1, 1, 1), (2.0, 1.0, 3.0), seed=7, bias_scale=0.5)
        sig = forward_generate(spec, 8)
        means, _ = exact_gaussian_posterior(spec, sig.y)
        cfg = EngineConfig(max_iters=1, convergence_tol=0.0, gamma_init=1e-9, alpha_clip=1e-12)
        state, _, _ = run(spec, sig.y, cfg)
        for ell in range(3):
            assert state.zhat_minus[ell][0] == pytest.approx(means[ell][0], rel=1e-6)


class TestGaussianChain:
    def _setup(self):
        spec = make_gaussian_chain((12, 9, 7), (1.0, 1.0), seed=11)
        sig = forward_generate(spec, 12)
        return spec, sig

    def test_converges_to_the_exact_posterior_mean(self):
        spec, sig = self._setup()
        cfg = EngineConfig(max_iters=100, convergence_tol=1e-12)
        state, trace, report = run(spec, sig.y, cfg, truth=sig)
        means, _ = exact_gaussian_posterior(spec, sig.y)
        for ell in range(2):
            err = np.linalg.norm(state.zhat_plus[ell] - means[ell])
            assert err / np.linalg.norm(means[ell]) < 1e-9

    def test_fixed_point_residuals(self):
        spec, sig = self._setup()
        cfg = EngineConfig(max_iters=100, convergence_tol=1e-12)
        _, _, report = run(spec, sig.y, cfg)
        assert report.consistency_residual <= 1e-8
        assert report.eta_residual <= 1e-8
        assert report.combination_residual <= 1e-8
        assert report.moment_match <= 1e-8

    def test_map_stationarity_on_gaussian_chain(self):
        spec, sig = self._setup()
        cfg = EngineConfig(max_iters=100, mode="map", convergence_tol=1e-12)
        _, _, report = run(spec, sig.y, cfg)
        assert report.map_stationarity <= 1e-6

    def test_monotone_error_after_burn_in(self):
        spec = make_gaussian_chain((12, 9, 7), (1.0, 1.0), seed=11, unit_spectrum=True)
        sig = forward_generate(spec, 12)
        cfg = EngineConfig(max_iters=40, convergence_tol=0.0)
        _, trace, _ = run(spec, sig.y, cfg, truth=sig)
        nm = np.array([row.nmse_db for row in trace.rows])
        ratios = 10 ** (nm[:, 0] / 10)
        assert np.all(np.diff(ratios[4::2]) <= 1e-9)   # forward halves
        assert np.all(np.diff(ratios[5::2]) <= 1e-9)   # backward halves

    def test_error_wiggle_decays_on_conditioned_chains(self):
        # A geometric spectrum makes the approach a damped spiral: error
        # along the way may wiggle at the 1e-5 scale but never grows
        # sustainedly.
        spec, sig = self._setup()
        cfg = EngineConfig(max_iters=40, convergence_tol=0.0)
        _, trace, _ = run(spec, sig.y, cfg, truth=sig)
        nm = np.array([row.nmse_db for row in trace.rows])
        ratios = 10 ** (nm[:, 0] / 10)
        assert np.all(np.diff(ratios[4::2]) <= 1e-5)
        assert np.all(np.diff(ratios[24::2]) <= 1e-12)

    def test_rotating_the_measurement_leaves_traces_unchanged(self):
        spec, sig = self._setup()
        cfg = EngineConfig(max_iters=20, convergence_tol=0.0)
        _, trace_a, _ = run(spec, sig.y, cfg, truth=sig)
        rot = haar(7, 999)
        final = spec.layers[-1]
        rotated = LinearLayerSpec.from_weight(
            weight=rot @ final.weight, bias=rot @ final.bias, noise_precision=final.noise_precision
        )
        spec2 = NetworkSpec(layers=spec.layers[:-1] + (rotated,), dims=spec.dims)
        _, trace_b, _ = run(spec2, rot @ sig.y, cfg, truth=sig)
        a = np.array([row.nmse_db for row in trace_a.rows])
        b = np.array([row.nmse_db for row in trace_b.rows])
        np.testing.assert_allclose(a, b, atol=1e-8)


class TestRunControl:
    def test_zero_iterations(self):
        spec = make_gaussian_chain((6, 5, 4), (1.0, 1.0), seed=13)
        sig = forward_generate(spec, 14)
        state, trace, _ = run(spec, sig.y, EngineConfig(max_iters=0))
        assert len(trace.rows) == 0
        for r in state.r_minus:
            np.testing.assert_array_equal(r, 0.0)

    def test_half_iteration_indexing(self):
        spec = make_gaussian_chain((6, 5, 4), (1.0, 1.0), seed=13)
        sig = forward_generate(spec, 14)
        _, trace, _ = run(spec, sig.y, EngineConfig(max_iters=3, convergence_tol=0.0))
        assert [row.half_iter for row in trace.rows] == [1, 2, 3, 4, 5, 6]
        assert [row.direction for row in trace.rows] == ["forward", "backward"] * 3

    def test_a_zero_plus_estimate_is_measured_against_the_minus_one(self):
        # after the first iteration the input prior's plus estimate is still
        # exactly zero: its gap |zhat_minus| / |zhat_minus| is 1, not a
        # division by a floor; two zero estimates agree
        spec = make_gaussian_chain((6, 5, 4), (1.0, 1.0), seed=13)
        sig = forward_generate(spec, 14)
        state, trace, _ = run(spec, sig.y, EngineConfig(max_iters=1, convergence_tol=0.0))
        assert not np.any(state.zhat_plus[0]) and np.any(state.zhat_minus[0])
        assert trace.rows[1].consistency < 10.0
        state.zhat_minus[1] = state.zhat_plus[1]
        assert engine._consistency(state) == 1.0
        assert engine._consistency(initialize(spec, EngineConfig())) == 0.0

    def test_divergence_error_carries_context(self):
        spec = make_gaussian_chain((6, 5, 4), (1.0, 1.0), seed=13)
        y = np.full(4, np.nan)
        with pytest.raises(DivergedIterationError) as info:
            run(spec, y, EngineConfig(max_iters=3))
        assert info.value.iteration == 0

    @pytest.mark.parametrize(
        "signal, bad, match",
        [(1, np.zeros(5), "zero reference signal at layer 1"),
         (0, np.ones(5), "truth signal 0 is not a vector of length 6"),
         (0, np.r_[1e308, np.ones(5)], "energy inf is not finite at layer 0"),
         (1, np.r_[np.ones(4), math.nan], "energy nan is not finite at layer 1"),
         (0, np.r_[np.ones(5), -math.inf], "energy inf is not finite at layer 0")],
        ids=["zero", "short", "overflow", "nan", "infinite"],
    )
    def test_truth_is_checked_before_the_first_sweep(self, monkeypatch, signal, bad, match):
        spec = make_gaussian_chain((6, 5, 4), (1.0, 1.0), seed=13)
        sig = forward_generate(spec, 14)
        truth = SignalSet(signals=tuple(bad if ell == signal else z
                                        for ell, z in enumerate(sig.signals)))

        def no_sweep(*args):
            raise AssertionError("a sweep ran")

        monkeypatch.setattr(engine, "forward_pass", no_sweep)
        with pytest.raises(UndefinedMetricError, match=match):
            run(spec, sig.y, EngineConfig(max_iters=3), truth=truth)
        with pytest.raises(UndefinedMetricError, match="truth holds 1 signals, not 2"):
            run(spec, sig.y, EngineConfig(max_iters=3), truth=SignalSet(signals=sig.signals[:1]))


class TestTraceFields:
    """The trace's fields are the public definitions evaluated on the states
    the run passed through, bit for bit."""

    @staticmethod
    def problem():
        spec = make_relu_network((6, 16, 16, 12, 12, 9), 0.4, 80.0, 80.0, 200.0, seed=5)
        return spec, forward_generate(spec, 6)

    def test_last_rows_are_the_final_estimates_errors_and_consistency(self):
        spec, truth = self.problem()
        state, trace, report = run(spec, truth.y, EngineConfig(max_iters=7, convergence_tol=0.0),
                                   truth=truth)
        fwd, back = trace.rows[-2:]
        for row, estimates in ((fwd, state.zhat_plus), (back, state.zhat_minus)):
            assert row.nmse_db == tuple(nmse_db(z, truth.signals[ell])
                                        for ell, z in enumerate(estimates))
        assert back.consistency == engine._consistency(state) == report.consistency_residual

    @pytest.mark.parametrize("k", [1, 4])
    def test_max_delta_is_the_largest_relative_change_of_an_estimate(self, k):
        spec, truth = self.problem()
        cfg = EngineConfig(max_iters=k, convergence_tol=0.0)
        old, _, _ = run(spec, truth.y, cfg)
        new, trace, _ = run(spec, truth.y, replace(cfg, max_iters=k + 1))
        want = max(
            np.linalg.norm(a - b) / max(np.linalg.norm(b), engine._TINY)
            for a, b in zip(new.zhat_plus + new.zhat_minus, old.zhat_plus + old.zhat_minus)
        )
        assert trace.rows[-1].max_delta == want

    def test_a_column_stacks_one_field_over_the_rows_or_one_directions(self):
        spec, truth = self.problem()
        _, trace, _ = run(spec, truth.y, EngineConfig(max_iters=3, convergence_tol=0.0), truth=truth)
        back = trace.rows[1::2]
        np.testing.assert_array_equal(trace.column("nmse_db"), [row.nmse_db for row in trace.rows])
        np.testing.assert_array_equal(trace.column("gamma_plus", "backward"),
                                      [row.gamma_plus for row in back])
        np.testing.assert_array_equal(trace.column("consistency", "backward"),
                                      [row.consistency for row in back])
        assert trace.column("alpha_minus", "forward").shape == (3, len(spec.dims) - 1)
        # a run stopped before its first row keeps one column per hidden signal
        empty = engine.IterationTrace(3)
        assert empty.column("nmse_db").shape == (0, 3) and empty.column("consistency").shape == (0,)


class TestNmse:
    def test_exact_recovery_floors_at_minus_300(self):
        z = np.ones(4)
        assert nmse_db(z, z) == -300.0

    def test_zero_estimate_is_zero_db(self):
        z = np.array([1.0, 2.0])
        assert nmse_db(np.zeros(2), z) == 0.0

    def test_log_arithmetic(self):
        z0 = np.array([10.0, 0.0])
        zhat = np.array([9.0, 0.3])  # error 1.09, ref 100 -> about 1%
        expected = 10 * math.log10(1.09 / 100.0)
        assert nmse_db(zhat, z0) == pytest.approx(expected)

    def test_zero_reference_rejected(self):
        with pytest.raises(UndefinedMetricError):
            nmse_db(np.ones(3), np.zeros(3))

    @pytest.mark.parametrize("bad", [1e308, math.nan, math.inf])
    def test_a_reference_of_non_finite_energy_is_rejected(self, bad):
        with pytest.raises(UndefinedMetricError, match="is not finite"):
            nmse_db(np.ones(3), np.array([1.0, bad, 1.0]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(UndefinedMetricError):
            nmse_db(np.ones(3), np.ones(4))


class TestFixedPointReport:
    def test_exact_fixed_point_has_tiny_residuals(self):
        # Build a state satisfying the stationarity identities by
        # construction and check the report sees residuals at round-off.
        spec = make_gaussian_chain((5, 4, 3), (1.0, 1.0), seed=20)
        state = initialize(spec, EngineConfig())
        rng = np.random.default_rng(21)
        for ell, d in enumerate(spec.dims[:-1]):
            gp, gm = 2.0, 3.0
            zc = rng.standard_normal(d)
            rp = zc + rng.standard_normal(d)
            rm = (zc * (gp + gm) - gp * rp) / gm  # combination identity
            state.gamma_plus[ell] = gp
            state.gamma_minus[ell] = gm
            state.r_plus[ell] = rp
            state.r_minus[ell] = rm
            state.zhat_plus[ell] = zc.copy()
            state.zhat_minus[ell] = zc.copy()
            state.eta_plus[ell] = gp + gm
            state.eta_minus[ell] = gp + gm
            state.alpha_plus[ell] = gm / (gp + gm)
            state.alpha_minus[ell] = gp / (gp + gm)
        report = fixed_point_report(state, spec, np.zeros(3), "mmse")
        assert report.consistency_residual <= 1e-12
        assert report.eta_residual <= 1e-12
        assert report.combination_residual <= 1e-12

    def test_perturbation_is_detected(self):
        spec = make_gaussian_chain((12, 9, 7), (1.0, 1.0), seed=11)
        sig = forward_generate(spec, 12)
        state, _, _ = run(spec, sig.y, EngineConfig(max_iters=60, convergence_tol=1e-12))
        norm = np.linalg.norm(state.zhat_plus[0])
        state.zhat_plus[0] = state.zhat_plus[0] + 0.1
        report = fixed_point_report(state, spec, sig.y, "mmse")
        expected = 0.1 * math.sqrt(state.zhat_plus[0].size) / norm
        assert report.consistency_residual == pytest.approx(expected, rel=0.05)


class TestMapOnReluNetworks:
    def test_converged_map_run_is_stationary(self):
        spec = make_relu_network(
            (60, 200, 200, 150, 150, 240),
            rho=0.9,
            nu_lin=2000.0,
            nu_act=2000.0,
            nu_meas=3000.0,
            seed=2,
        )
        sig = forward_generate(spec, 31)
        cfg = EngineConfig(max_iters=200, mode="map", convergence_tol=1e-11)
        _, trace, report = run(spec, sig.y, cfg, truth=sig)
        assert len(trace.rows) < 400
        assert report.consistency_residual <= 1e-8
        assert report.map_stationarity <= 1e-6

    def test_stationarity_requires_smooth_conditionals(self):
        spec = make_relu_network(
            (20, 40, 40, 30), rho=0.6, nu_lin=NOISELESS, nu_act=NOISELESS, nu_meas=100.0, seed=3
        )
        sig = forward_generate(spec, 5)
        _, _, report = run(spec, sig.y, EngineConfig(max_iters=10, mode="map", convergence_tol=0.0))
        assert report.map_stationarity is None
