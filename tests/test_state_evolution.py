"""Deterministic scalar recursion against closed forms and the engine."""

import math
from dataclasses import replace

import numpy as np
import pytest

from mlvamp import denoisers as dn
from mlvamp import harness
from mlvamp import state_evolution as se
from mlvamp.engine import EngineConfig, clip_alpha, run
from mlvamp.errors import InvalidModelError
from mlvamp.model import NOISELESS, forward_generate, geometric_singular_values as sv
from mlvamp.state_evolution import (
    LinearLaw,
    NetworkLaw,
    SEConfig,
    SeparableLaw,
    run_se,
    se_initial_pass,
)
import full_term_moments as ref
from matched_recursion import matched_mmse_recursion
from conftest import exact_gaussian_posterior, make_gaussian_chain, make_relu_network


class TestInitialPass:
    def test_unit_normal_input(self):
        law = NetworkLaw.from_network(make_gaussian_chain((6, 5, 4), (1.0, 1.0), seed=1))
        tau, mu = se_initial_pass(law)
        assert tau[0] == 1.0 and mu[0] == 0.0

    def test_identity_noiseless_chain_preserves_the_second_moment(self):
        law = NetworkLaw(
            layers=(
                LinearLaw(np.ones(5), 5, 5, NOISELESS, bbar_atoms=np.zeros(5)),
                SeparableLaw("identity", NOISELESS, 5),
                LinearLaw(np.ones(5), 5, 5, NOISELESS, bbar_atoms=np.zeros(5)),
            ),
            dims=(5, 5, 5, 5),
        )
        tau, _ = se_initial_pass(law)
        np.testing.assert_allclose(tau, 1.0, rtol=1e-12)

    def test_relu_of_standard_normal(self):
        # E[max(Z, 0)^2] = 1/2 by symmetry; Monte-Carlo cross-check.
        law = NetworkLaw(
            layers=(
                LinearLaw(np.ones(4), 4, 4, NOISELESS, bbar_atoms=np.zeros(4)),
                SeparableLaw("relu", NOISELESS, 4),
            ),
            dims=(4, 4, 4),
        )
        tau, _ = se_initial_pass(law)
        assert tau[2] == pytest.approx(0.5, abs=1e-9)
        z = np.random.default_rng(5).standard_normal(2_000_000)
        assert tau[2] == pytest.approx(np.mean(np.maximum(z, 0) ** 2), abs=2e-3)

    def test_bias_mean_shifts_the_activation_statistics(self):
        mu_b = -0.6
        law = NetworkLaw(
            layers=(
                LinearLaw(
                    np.ones(4), 4, 4, NOISELESS, bbar_atoms=None, bbar_var=mu_b**2, bias_mean=mu_b
                ),
                SeparableLaw("relu", NOISELESS, 4),
            ),
            dims=(4, 4, 4),
        )
        tau, mu = se_initial_pass(law)
        assert mu[1] == mu_b
        # E[relu(N(mu_b, 1))^2], independent closed form
        from scipy.stats import norm

        expected = (1 + mu_b**2) * norm.cdf(mu_b) + mu_b * norm.pdf(mu_b)
        assert tau[2] == pytest.approx(expected, rel=1e-8)


class TestNullSpaceBias:
    def test_the_null_bias_energy_gives_the_square_basis_moments(self):
        # compact factors keep only the null-space bias energy of an expanding
        # layer; a square SVD's per-component null atoms give the same moments
        spec = make_relu_network((10, 30, 30, 60, 60, 20), 0.6, NOISELESS, NOISELESS, 50.0, seed=3)
        law = NetworkLaw.from_network(spec)
        square = []
        for layer, layer_law in zip(spec.layers, law.layers):
            if layer.kind == "linear":
                u = np.linalg.svd(layer.weight, full_matrices=True)[0]
                layer_law = replace(layer_law, bbar_atoms=u.T @ layer.bias)
            square.append(layer_law)
        reference = replace(law, layers=tuple(square))
        np.testing.assert_allclose(se_initial_pass(law)[0], se_initial_pass(reference)[0], rtol=1e-12)
        cfg = SEConfig(iterations=10, damping=0.7)
        np.testing.assert_allclose(
            run_se(law, cfg).nmse_db, run_se(reference, cfg).nmse_db, rtol=0, atol=1e-9
        )


class TestScalarUpdates:
    def test_input_layer_shrinkage(self):
        alpha, K, mse = se._input_step(1.0, 1.0, clip_alpha)
        assert alpha == pytest.approx(0.5)
        eta = 1.0 / alpha
        assert eta == pytest.approx(2.0)
        assert eta - 1.0 == pytest.approx(1.0)  # prior-only extrinsic precision

    def test_precision_arithmetic(self):
        gamma_plus, alpha_minus = 2.0, 0.5
        eta = gamma_plus / alpha_minus
        assert eta == 4.0 and eta - gamma_plus == 2.0

    def test_relu_forward_step_against_frozen_monte_carlo(self):
        # 1e7-sample oracle at truth variance 1, plus-error variance 0.3,
        # tau=0.5, matched precisions, conditionally calibrated channels;
        # values frozen from the oracle run with roughly 3-sigma bands.  A
        # calibrated input channel has its error orthogonal to the message,
        # i.e. E[truth * error] = -0.3 in the full-covariance convention.
        layer = SeparableLaw("relu", NOISELESS, 100)
        K = np.array([[1.0, -0.3], [-0.3, 0.3]])
        alpha, K_new, mse = se._separable_step(
            layer, True, K, 0.0, 0.5, 1 / 0.5, 1 / 0.3, "mmse", 40, clip_alpha
        )
        assert alpha == pytest.approx(0.174631, abs=3e-4)
        assert mse == pytest.approx(0.087391, abs=3e-4)
        assert K_new[1, 1] == pytest.approx(0.105873, abs=4e-4)
        alpha_b, tau_new, mse_b = se._separable_step(
            layer, False, K, 0.0, 0.5, 1 / 0.5, 1 / 0.3, "mmse", 40, clip_alpha
        )
        assert alpha_b == pytest.approx(0.839399, abs=3e-4)
        assert tau_new == pytest.approx(1.568166, abs=2e-3)
        assert mse_b == pytest.approx(0.251883, abs=4e-4)

    def test_exact_observation_collapses_the_backward_error(self):
        # Noiseless square measurement with unit spectrum reveals the layer
        # input: the backward error variance vanishes.
        law = NetworkLaw(
            layers=(LinearLaw(np.ones(40), 40, 40, NOISELESS, bbar_atoms=np.zeros(40)),),
            dims=(40, 40),
        )
        K = np.array([[1.3, 0.0], [0.0, 0.4]])
        alpha, tau_new, mse = se.se_backward_layer(
            law, 1, K, 0.0, 0.0, math.inf, 2.5, "mmse", 20, clip_alpha
        )
        assert tau_new <= 1e-9
        assert mse <= 1e-9

    def test_monte_carlo_expectations_agree_with_quadrature(self):
        # (alpha, mse) of a 2e6-sample Monte-Carlo run of this step (Philox
        # substream (4, 1)), frozen
        layer = SeparableLaw("relu", NOISELESS, 100)
        K = np.array([[1.0, 0.0], [0.0, 0.3]])
        quad = se._separable_step(layer, True, K, -0.3, 0.5, 2.0, 3.0, "mmse", 30, clip_alpha)
        assert quad[0] == pytest.approx(0.14527620554670118, abs=3e-3)
        assert quad[2] == pytest.approx(0.06833017849249548, abs=3e-3)

    #: run_se curves (4 iterations, flattened nmse_db) of the relu-measurement
    #: law below, from the quadrature that integrated the minus axis in full,
    #: and the grid points each observed-layer call evaluated then.
    FULL_GRID_CURVES = {
        "mmse": [
            -0.0008685021078054198, -4.169005551614444, -6.833929311513333, -10.958362113341973,
            -6.833929311513334, -12.507601836615832, -9.048124505392863, -14.423671143567693,
            -9.048124505392863, -14.990495997982194, -10.024299350101657, -15.841563766967901,
            -10.024299350101655, -16.096989255963347, -10.486878024813464, -16.507009099220692,
        ],
        "map": [
            -0.0008685021078054198, -4.169005551614444, -5.745037874276308, -9.220400262149415,
            -5.745037874276308, -11.278082647740233, -7.894903587967116, -12.916650284694732,
            -7.894903587967116, -13.69823633779589, -8.898202515670912, -14.40481751779755,
            -8.898202515670912, -14.823469819984329, -9.380171327577365, -15.133211389991775,
        ],
    }
    FULL_GRID_POINTS = 52_800

    @pytest.mark.parametrize("mode", ["mmse", "map"])
    def test_exact_observation_integrates_no_minus_axis(self, mode, monkeypatch):
        # at an exactly observed separable layer (tau_m = 0) the minus message
        # is never read, so its quadrature axis collapses to one node
        from mlvamp import denoisers as dn
        from mlvamp.model import geometric_singular_values

        law = NetworkLaw(
            layers=(
                LinearLaw(geometric_singular_values(60, 40, 3.0), 60, 40, 100.0,
                          bbar_var=0.3**2 + 1.0, bias_mean=0.3),
                SeparableLaw("relu", NOISELESS, 60),
            ),
            dims=(40, 60, 60),
        )
        sizes = []
        fields = dn.separable_output_fields

        def counted(r_plus, *args):
            sizes.append(np.size(r_plus))
            return fields(r_plus, *args)

        monkeypatch.setattr(dn, "separable_output_fields", counted)
        res = run_se(law, SEConfig(iterations=4, mode=mode, quad_order=20))
        np.testing.assert_allclose(res.nmse_db.ravel(), self.FULL_GRID_CURVES[mode], rtol=1e-12)
        assert sizes == [self.FULL_GRID_POINTS // 20] * 4


def _mixed_activation_law():
    """Hidden sign, sigmoid and identity layers between affine ones."""
    return NetworkLaw(
        layers=(
            LinearLaw(sv(40, 20, 3.0), 40, 20, 100.0, bbar_var=0.3**2 + 0.5, bias_mean=0.3),
            SeparableLaw("sign", NOISELESS, 40),
            LinearLaw(sv(40, 40, 2.0), 40, 40, 100.0, bbar_var=0.5),
            SeparableLaw("sigmoid", NOISELESS, 40),
            LinearLaw(sv(30, 40, 2.0), 30, 40, 100.0, bbar_var=0.5),
            SeparableLaw("identity", NOISELESS, 30),
            LinearLaw(sv(25, 30, 2.0), 25, 30, 100.0),
        ),
        dims=(20, 40, 40, 40, 40, 30, 30, 25),
    )


def _noisy_relu_law():
    """A noisy hidden relu (the output-noise axis is integrated) and a noisy
    relu measurement layer (observed exactly, gm = inf)."""
    return NetworkLaw(
        layers=(
            LinearLaw(sv(40, 20, 3.0), 40, 20, 100.0, bbar_var=0.3**2 + 0.5, bias_mean=0.3),
            SeparableLaw("relu", 50.0, 40),
            LinearLaw(sv(30, 40, 2.0), 30, 40, 100.0, bbar_var=0.2**2 + 0.5, bias_mean=-0.2),
            SeparableLaw("relu", 50.0, 30),
        ),
        dims=(20, 40, 40, 30, 30),
    )


class TestBroadcastGrid:
    """The quadrature's axes broadcast against each other instead of being
    meshed into one flat grid; the predictor's numbers must not move."""

    LAWS = {"sign-sigmoid-identity": _mixed_activation_law, "noisy-relu": _noisy_relu_law}
    #: run_se curves (4 iterations, order 8, flattened nmse_db) of the laws
    #: above, from the quadrature that evaluated every factor on the flat grid
    FLAT_GRID_CURVES = {
        "noisy-relu": {
            "mmse": [
                -0.0008685021078054198, -3.33944186698076, -4.612413888583673, -6.702506958514735,
                -1.9775620716386548, -4.628326971812033, -6.348594971993952, -9.492007845310082,
                -1.9775620716386533, -5.974831302453616, -7.725008150706377, -10.703122750571993,
                -2.506358624957711, -6.291263699665039, -8.090217857062381, -11.200549068698065,
                -2.50635862495771, -6.638017628500891, -8.435464639272084, -11.483697734818401,
                -2.649167332718581, -6.721496765067356, -8.527984620587755, -11.607199321181966,
                -2.6491673327185783, -6.814482667064089, -8.618863176853782, -11.680909229085248,
                -2.687531885510619, -6.836768632384445, -8.643254758900719, -11.713369291300765,
            ],
            "map": [
                -0.0008685021078054198, -3.33944186698076, -4.323625369520871, -6.423326863834263,
                -2.7390828103234934, -4.337526622064931, -5.969938525157049, -8.422609949452552,
                -2.7390828103234934, -6.925091324289134, -7.84223522607284, -10.71467489081865,
                -3.438555932523435, -6.734465177234586, -8.40856396889156, -11.012463119608821,
                -3.438555932523433, -7.771557757596406, -8.83981318124716, -11.877876860250272,
                -3.627561662693766, -7.332687627061327, -9.038886065313553, -11.663530799881752,
                -3.627561662693766, -7.996437359045774, -9.105424306538232, -12.181551381122894,
                -3.692391365803762, -7.4880661096419985, -9.20340043797669, -11.815675235856514,
            ],
        },
        "sign-sigmoid-identity": {
            "mmse": [
                -0.0008685021078054198, -3.33944186698076, -1.9519799088656151, -3.674309345203825,
                -10.843322851566802, -13.644414201403318, -13.644414201403317, -1.3630279635206803,
                -4.171208829447809, -3.490583487281522, -5.310396899453434, -12.552691216667425,
                -17.965531103511314, -17.965531103511314, -1.363027963520682, -5.183269430647178,
                -4.667471501998206, -6.562017157771843, -13.887324701090034, -18.535569311578076,
                -18.535569311578076, -1.62023286453514, -5.330770737254412, -4.820827774251465,
                -6.715300300013919, -14.031560331515088, -18.79636316869831, -18.796363168698306,
                -1.6202328645351392, -5.517426589655505, -5.087478639029046, -6.976375483437129,
                -14.301928038178684, -18.888928361775207, -18.88892836177521, -1.6693274390456945,
                -5.545162614421805, -5.112749807885005, -7.002771609213456, -14.3242904668191,
                -18.925367942001103, -18.925367942001103, -1.669327439045695, -5.580734495017241,
                -5.164005469255239, -7.050856008075299, -14.375091542798524, -18.94229212018057,
                -18.94229212018057, -1.678599093819329, -5.585878122968175, -5.168312573823679,
                -7.057094085008541, -14.379104224562889, -18.948784028889825, -18.948784028889825,
            ],
            "map": [
                -0.0008685021078054198, -3.33944186698076, -0.30234119336521764, -2.045808181045758,
                -9.18255000779547, -12.39307160190996, -12.393071601909957, -2.2478209807752316,
                -3.3562486954001924, -0.3745002846782705, -2.1963463611632013, -10.656299526332301,
                -16.841511756730814, -16.841511756730817, -2.2478209807752316, -6.315958587374403,
                -2.916664030001942, -4.694596096761451, -11.806685891968387, -17.2879702669325,
                -17.2879702669325, -2.3220027361705786, -5.201497551228557, -2.9166771542031578,
                -4.718852325351679, -11.825581262639087, -17.636042665902558, -17.636042665902554,
                -2.3220027361705777, -6.412059524396265, -3.3490659026449574, -5.140023673585886,
                -12.246945748668256, -17.847900989169542, -17.847900989169545, -2.4271839371436323,
                -5.361630884442759, -3.349075269397904, -5.142879932637015, -12.247002055570794,
                -17.873835315191823, -17.873835315191823, -2.4271839371436306, -6.542738475941718,
                -3.4300593812656817, -5.219998534432468, -12.32548456780382, -17.912228870776612,
                -17.912228870776612, -2.419306895561487, -5.443806296526006, -3.4300684829726444,
                -5.222203026779986, -12.325494583220078, -17.916823152030695, -17.916823152030695,
            ],
        },
    }

    @pytest.mark.parametrize("mode", ["mmse", "map"])
    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_curves_match_the_flat_grid(self, law, mode):
        config = SEConfig(iterations=4, mode=mode, quad_order=8)
        res = run_se(self.LAWS[law](), config)
        np.testing.assert_allclose(res.nmse_db.ravel(), self.FLAT_GRID_CURVES[law][mode], rtol=1e-12)

    def test_kinked_axis_is_built_once_and_read_only(self):
        first, again = se._kinked_axis(-0.4, 20), se._kinked_axis(-0.4, 20)
        assert all(a is b for a, b in zip(first, again))
        for arr in first:
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestLayoutReuse:
    """A separable layer's node axes and weight tensor are built once per
    layout and shared, read-only, by every step that uses it."""

    def test_a_second_grid_shares_the_read_only_arrays(self):
        K = np.array([[1.3, -0.2], [-0.2, 0.4]])
        first = se._grid(K, 0.3, 0.5, 0.02, 8, kink=0.0)
        again = se._grid(K, 0.3, 0.5, 0.02, 8, kink=0.0)
        t_minus, w = first[2], first[4]
        assert again[2] is t_minus and again[4] is w
        assert w.shape == (se._kinked_axis(-0.3 / math.sqrt(1.3 - 0.09), 8)[0].size, 8, 8, 8)
        for arr in (t_minus, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_no_state_leaks_between_laws(self):
        config = SEConfig(iterations=4, quad_order=8)
        se._layout.cache_clear()
        a = run_se(_noisy_relu_law(), config)
        run_se(_mixed_activation_law(), config)
        again = run_se(_noisy_relu_law(), config)
        np.testing.assert_array_equal(again.nmse_db, a.nmse_db)
        np.testing.assert_array_equal(again.mse, a.mse)

    def test_the_cache_is_bounded(self):
        K = np.array([[1.0, 0.0], [0.0, 0.5]])
        for mu in np.linspace(-0.9, 0.9, 20):
            se._grid(K, mu, 0.5, 0.0, 8, kink=0.0)
        info = se._layout.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize <= 8


class TestDefaultQuadOrder:
    def test_default_order_is_within_2e_5_db_of_order_20(self):
        # the paper law at M = 300, where the default is farthest from order 20
        # (1.2e-5 dB at damping 0.7 with calibration seed 0)
        recipe = harness.SyntheticRecipe(measurements=300)
        law = harness.recipe_law(recipe, harness.calibrate_recipe(recipe, 0))
        default = run_se(law, SEConfig(damping=0.7))
        order20 = run_se(law, SEConfig(damping=0.7, quad_order=20))
        assert np.max(np.abs(default.nmse_db - order20.nmse_db)) <= 2e-5


class TestGaussianChainFixedPoint:
    def test_fixed_point_matches_exact_posterior_variances(self):
        # Orthogonal factors with a unit spectrum make the per-layer average
        # posterior variance deterministic; the scalar recursion hits it.
        spec = make_gaussian_chain(
            (30, 24, 18), (1.0, 2.0), seed=5, unit_spectrum=True
        )
        law = NetworkLaw.from_network(spec)
        res = run_se(law, SEConfig(iterations=300, stop_tol=1e-14))
        sig = forward_generate(spec, 6)
        _, avg_vars = exact_gaussian_posterior(spec, sig.y)
        got = 1.0 / (res.gamma_plus[-1] + res.gamma_minus[-1])
        np.testing.assert_allclose(got, avg_vars, rtol=1e-9)

    def test_engine_parameters_match_exactly_on_affine_chains(self):
        # Affine-layer divergences are data independent, so the engine's
        # precision trajectory equals the scalar recursion's.
        spec = make_gaussian_chain((12, 9, 7), (1.0, 1.0), seed=11)
        sig = forward_generate(spec, 12)
        state, _, _ = run(spec, sig.y, EngineConfig(max_iters=50, convergence_tol=1e-13))
        law = NetworkLaw.from_network(spec)
        res = run_se(law, SEConfig(iterations=300, stop_tol=1e-14))
        np.testing.assert_allclose(state.gamma_plus, res.gamma_plus[-1], rtol=1e-6)
        np.testing.assert_allclose(state.gamma_minus, res.gamma_minus[-1], rtol=1e-6)

    def test_symmetric_chain_is_direction_symmetric(self):
        # Unit-spectrum square chain with equal noise everywhere: forward and
        # backward precisions agree at the fixed point by symmetry.
        spec = make_gaussian_chain(
            (16, 16, 16), (1.0, 1.0), seed=9, bias_scale=0.0, unit_spectrum=True
        )
        law = NetworkLaw.from_network(spec)
        res = run_se(law, SEConfig(iterations=200, stop_tol=1e-14))
        # interior signal: the chain looks the same from both ends
        assert res.gamma_plus[-1, 1] == pytest.approx(res.gamma_minus[-1, 0], rel=1e-9)

    def test_zero_iterations_returns_prior_errors(self):
        law = NetworkLaw.from_network(make_gaussian_chain((8, 6, 5), (1.0, 1.0), seed=2))
        res = run_se(law, SEConfig(iterations=1))
        tau, _ = se_initial_pass(law)
        # first forward half-iteration with a vacuous backward message:
        # layer-0 estimate is essentially zero, error = prior second moment
        assert res.mse[0, 0] == pytest.approx(tau[0], rel=1e-3)

    def test_determinism(self):
        law = NetworkLaw.from_network(make_gaussian_chain((8, 6, 5), (1.0, 1.0), seed=2))
        a = run_se(law, SEConfig(iterations=10))
        b = run_se(law, SEConfig(iterations=10))
        np.testing.assert_array_equal(a.nmse_db, b.nmse_db)

    def test_psd_second_moments(self):
        spec = make_relu_network(
            (10, 30, 30, 20), rho=0.4, nu_lin=NOISELESS, nu_act=NOISELESS, nu_meas=50.0, seed=4
        )
        law = NetworkLaw.from_network(spec)
        res = run_se(law, SEConfig(iterations=20))
        for K in res.K_plus.reshape(-1, 2, 2):
            assert np.min(np.linalg.eigvalsh(K)) >= -1e-12
        assert np.all(res.tau_minus >= 0)


class TestMatchedRecursion:
    def test_scalar_gaussian_chain_matches_wiener_algebra(self):
        # Width-1 chain solved by hand: the fixed point must reproduce the
        # exact scalar posterior variances.
        spec = make_gaussian_chain((1, 1, 1), (1.0, 1.0), seed=3, bias_scale=0.0,
                                   unit_spectrum=True)
        law = NetworkLaw.from_network(spec)
        mr = matched_mmse_recursion(law, SEConfig())
        sig = forward_generate(spec, 4)
        _, avg_vars = exact_gaussian_posterior(spec, sig.y)
        np.testing.assert_allclose(mr.mse, avg_vars, rtol=1e-9)
        assert mr.converged
        assert mr.residual <= 1e-8

    def test_update_arithmetic(self):
        # mse 0.25 with gamma_minus 1 leaves opposite precision 3.
        assert 1.0 / 0.25 - 1.0 == 3.0

    def test_agrees_with_the_full_recursion(self):
        spec = make_relu_network(
            (12, 40, 40, 30), rho=0.4, nu_lin=NOISELESS, nu_act=NOISELESS, nu_meas=80.0, seed=8
        )
        law = NetworkLaw.from_network(spec)
        full = run_se(law, SEConfig(iterations=400, stop_tol=1e-13))
        mr = matched_mmse_recursion(law, SEConfig())
        assert mr.converged and mr.residual <= 1e-8
        np.testing.assert_allclose(full.gamma_plus[-1], mr.gamma_plus, rtol=1e-4)
        np.testing.assert_allclose(full.gamma_minus[-1], mr.gamma_minus, rtol=1e-4)


class TestMatchedRecursionBudget:
    def test_a_spent_sweep_budget_is_reported(self, monkeypatch):
        # criterion 6 gates on `converged`, so running out of sweeps must not pass silently
        monkeypatch.setattr("matched_recursion.MAX_SWEEPS", 2)
        recipe = harness.SyntheticRecipe()
        law = harness.recipe_law(recipe, harness.calibrate_recipe(recipe, 3))
        mr = matched_mmse_recursion(law, SEConfig())
        assert mr.sweeps == 2 and not mr.converged


class TestEngineAgreement:
    def test_trial_mean_parameters_track_the_recursion(self):
        # Small-scale version of the acceptance gate: trial means of the
        # engine's divergences track the recursion within a few percent in
        # the early iterations.
        spec_builder = lambda seed: make_relu_network(
            (40, 160, 160, 120), rho=0.4, nu_lin=NOISELESS, nu_act=NOISELESS,
            nu_meas=200.0, seed=seed,
        )
        law = NetworkLaw.from_network(spec_builder(1))
        res = run_se(law, SEConfig(iterations=5))
        acc = []
        for seed in range(1, 9):
            spec = spec_builder(seed)
            sig = forward_generate(spec, seed + 100)
            state, _, _ = run(spec, sig.y, EngineConfig(max_iters=5, convergence_tol=0.0))
            acc.append(np.concatenate([state.alpha_plus, state.alpha_minus]))
        mean = np.mean(acc, axis=0)
        target = np.concatenate([res.alpha_plus[4], res.alpha_minus[4]])
        np.testing.assert_allclose(mean, target, rtol=0.08)

    def test_cross_moment_tracks_the_engine_messages(self):
        # The forward pass carries E[truth * plus error].  The prior's
        # extrinsic message is zero (up to rounding), so at layer 0 the error
        # is minus the truth (K01 = -K11); under damping the deeper layers
        # depart from the orthogonal value -1, and the predicted ratio
        # K01 / K11 must follow the engine's trial average of
        # (1/N) z . (r_plus - z).
        spec_builder = lambda seed: make_relu_network(
            (40, 160, 160, 120), rho=0.4, nu_lin=NOISELESS, nu_act=NOISELESS,
            nu_meas=200.0, seed=seed,
        )
        law = NetworkLaw.from_network(spec_builder(1))
        res = run_se(law, SEConfig(iterations=6, damping=0.7))
        for K in res.K_plus:
            assert K[0, 0, 1] == pytest.approx(-K[0, 1, 1], rel=1e-12)
        for k in (2, 4, 6):
            moments = []
            for seed in range(1, 9):
                spec = spec_builder(seed)
                sig = forward_generate(spec, seed + 100)
                cfg = EngineConfig(max_iters=k, convergence_tol=0.0, damping=0.7)
                state, _, _ = run(spec, sig.y, cfg)
                np.testing.assert_allclose(state.r_plus[0], 0.0, atol=1e-12)
                errors = [rp - z for rp, z in zip(state.r_plus, sig.signals)]
                moments.append(
                    [(z @ e / z.size, e @ e / z.size) for z, e in zip(sig.signals, errors)]
                )
            mean = np.mean(moments, axis=0)
            K = res.K_plus[k - 1]
            np.testing.assert_allclose(
                K[:, 0, 1] / K[:, 1, 1], mean[:, 0] / mean[:, 1], atol=0.15,
                err_msg=f"K01 / K11 after {k} iterations",
            )


class TestConfigChecks:
    @pytest.mark.parametrize(
        "fields",
        [{"iterations": 0}, {"iterations": 2.5}, {"gamma_init": math.nan},
         {"gamma_init": math.inf}, {"gamma_init": 1e300}, {"alpha_clip": 0.7},
         {"mode": "mean"}, {"damping": 0.0}],
        ids=lambda fields: ",".join(f"{k}={v!r}" for k, v in fields.items()),
    )
    def test_a_bad_field_is_rejected(self, fields):
        with pytest.raises(InvalidModelError):
            SEConfig(**fields)



def _affine_law(k, n_out, n_in, nu, bias):
    """An affine law of ``k`` singular values; ``bias``: "none", "gaussian"
    (a shared variance) or "atoms" (per-component values)."""
    rng = np.random.default_rng([k, n_out, n_in])
    values = np.sort(rng.uniform(0.3, 2.0, k))[::-1]
    atoms = rng.normal(size=n_out) if bias == "atoms" else None
    return LinearLaw(values, n_out, n_in, nu, bbar_atoms=atoms,
                     bbar_var=0.45 if bias == "gaussian" else 0.0)


def _assert_same_returns(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


class TestFullTermMoments:
    """The steps form only the moment terms that can be nonzero; they return
    the bits of the moments that sum every term (``full_term_moments``)."""

    K = np.array([[1.3, -0.4], [-0.4, 0.7]])
    #: (singular values, n_out, n_in): square, zero-padded forward, backward, both
    SHAPES = {"square": (40, 40, 40), "pad-out": (25, 45, 25), "pad-in": (25, 25, 45),
              "pad-both": (20, 35, 30)}

    @staticmethod
    def both(layer, step, K, tau_m):
        """The package's and the reference's ``(alpha, K or tau, mse)``."""
        forward, gm = step == "forward", math.inf if step == "observed" else 2.5
        args = (layer, forward, K, tau_m, gm, 1.7, clip_alpha)
        with np.errstate(invalid="ignore"):
            return se._affine_step(*args), ref.affine_step(*args)

    @pytest.mark.parametrize("step", ["forward", "backward", "observed"])
    @pytest.mark.parametrize("tau_m", [0.0, 0.35])
    @pytest.mark.parametrize("bias", ["none", "gaussian", "atoms"])
    @pytest.mark.parametrize("nu", [NOISELESS, 40.0])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_affine_step(self, shape, nu, bias, tau_m, step):
        layer = _affine_law(*self.SHAPES[shape], nu, bias)
        _assert_same_returns(*self.both(layer, step, self.K, tau_m))

    @pytest.mark.parametrize("step", ["forward", "backward"])
    @pytest.mark.parametrize("bad", [(0, 0, math.inf), (0, 1, math.inf), (0, 1, math.nan),
                                     (1, 1, math.inf), (1, 1, math.nan), ("tau", math.inf),
                                     ("tau", math.nan)], ids=str)
    @pytest.mark.parametrize("bias", ["gaussian", "atoms"])
    def test_a_non_finite_input_propagates_as_before(self, bias, bad, step):
        # the skipped terms multiply K01, K11 and tau_m by zero: 0 * inf is NaN
        K, tau_m = self.K.copy(), 0.35
        if bad[0] == "tau":
            tau_m = bad[1]
        else:
            K[bad[0], bad[1]] = K[bad[1], bad[0]] = bad[2]
        layer = _affine_law(*self.SHAPES["pad-both"], 40.0, bias)
        got, want = self.both(layer, step, K, tau_m)
        assert not np.isfinite(want[1]).all()
        _assert_same_returns(got, want)

    @pytest.mark.parametrize("forward", [True, False])
    @pytest.mark.parametrize("nu", [NOISELESS, 50.0], ids=["3-D", "noisy-4-D"])
    def test_extrinsic_moments(self, nu, forward):
        xi_var = 0.0 if math.isinf(nu) else 1.0 / nu
        p0, r_plus, t_minus, xi, w = se._grid(self.K, 0.2, 0.3, xi_var, 12, kink=0.0)
        assert w.ndim == (3 if math.isinf(nu) else 4)
        q0 = np.maximum(p0, 0.0) + xi
        r_minus = q0 + math.sqrt(0.3) * t_minus
        est, d = dn.scalar_pair("mmse", "relu", nu, r_minus, r_plus, 2.0, 1.5, forward)
        alpha = clip_alpha(np.sum(w * d))
        truth, message = (q0, r_minus) if forward else (p0, r_plus)
        got = se._extrinsic_moments(w, truth, message, est, alpha, forward)
        _assert_same_returns(got, ref._extrinsic_moments(w, truth, message, est, alpha, forward))

    @pytest.mark.parametrize("mode", ["mmse", "map"])
    def test_paper_law_run_keeps_every_bit(self, monkeypatch, mode):
        law = harness.recipe_law(harness.SyntheticRecipe(),
                                 harness.calibrate_recipe(harness.SyntheticRecipe(), 0))
        config = SEConfig(iterations=50, mode=mode, damping=0.7)
        got = run_se(law, config)
        monkeypatch.setattr(se, "_affine_step", ref.affine_step)
        monkeypatch.setattr(se, "_extrinsic_moments", ref._extrinsic_moments)
        monkeypatch.setattr(dn, "_total", np.sum)
        want = run_se(law, config)
        assert len(got.gamma_plus) == len(want.gamma_plus) == 50
        for name, value in vars(want).items():
            np.testing.assert_array_equal(getattr(got, name), value, err_msg=name)
