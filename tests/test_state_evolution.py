"""Deterministic scalar recursion against closed forms and the engine."""

import json
import math
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest

from mlvamp import denoisers as dn
from mlvamp import harness
from mlvamp import state_evolution as se
from mlvamp.engine import EngineConfig, clip_alpha, run
from mlvamp.errors import InvalidModelError
from mlvamp.model import (
    NOISELESS, NetworkSpec, NonlinearLayerSpec, forward_generate, geometric_singular_values as sv,
)
from mlvamp.state_evolution import LinearLaw, SEConfig, network_law, run_se, se_initial_pass
import composite_legendre as oracle
import full_term_moments as ref
from matched_recursion import matched_mmse_recursion
from conftest import exact_gaussian_posterior, make_gaussian_chain, make_relu_network


class TestInitialPass:
    def test_unit_normal_input(self):
        law = network_law(make_gaussian_chain((6, 5, 4), (1.0, 1.0), seed=1))
        tau, mu = se_initial_pass(law)
        assert tau[0] == 1.0 and mu[0] == 0.0

    def test_identity_noiseless_chain_preserves_the_second_moment(self):
        law = NetworkSpec(
            layers=(
                LinearLaw(np.ones(5), 5, 5, NOISELESS, bbar_atoms=np.zeros(5)),
                NonlinearLayerSpec("identity", NOISELESS),
                LinearLaw(np.ones(5), 5, 5, NOISELESS, bbar_atoms=np.zeros(5)),
            ),
            dims=(5, 5, 5, 5),
        )
        tau, _ = se_initial_pass(law)
        np.testing.assert_allclose(tau, 1.0, rtol=1e-12)

    def test_relu_of_standard_normal(self):
        # E[max(Z, 0)^2] = 1/2 by symmetry; Monte-Carlo cross-check.
        law = NetworkSpec(
            layers=(
                LinearLaw(np.ones(4), 4, 4, NOISELESS, bbar_atoms=np.zeros(4)),
                NonlinearLayerSpec("relu", NOISELESS),
            ),
            dims=(4, 4, 4),
        )
        tau, _ = se_initial_pass(law)
        assert tau[2] == pytest.approx(0.5, abs=1e-9)
        z = np.random.default_rng(5).standard_normal(2_000_000)
        assert tau[2] == pytest.approx(np.mean(np.maximum(z, 0) ** 2), abs=2e-3)

    def test_bias_mean_shifts_the_activation_statistics(self):
        mu_b = -0.6
        law = NetworkSpec(
            layers=(
                LinearLaw(
                    np.ones(4), 4, 4, NOISELESS, bbar_atoms=None, bbar_var=mu_b**2, bias_mean=mu_b
                ),
                NonlinearLayerSpec("relu", NOISELESS),
            ),
            dims=(4, 4, 4),
        )
        tau, mu = se_initial_pass(law)
        assert mu[1] == mu_b
        # E[relu(N(mu_b, 1))^2], independent closed form
        from scipy.stats import norm

        expected = (1 + mu_b**2) * norm.cdf(mu_b) + mu_b * norm.pdf(mu_b)
        assert tau[2] == pytest.approx(expected, rel=1e-8)


class TestLawIsANetwork:
    """A law is a ``NetworkSpec``: its checks hold, and its separable layers
    are the network's own."""

    def test_a_mismatched_width_is_rejected(self):
        with pytest.raises(InvalidModelError):
            NetworkSpec(layers=(LinearLaw(np.ones(4), 4, 5, NOISELESS),), dims=(4, 4))

    def test_an_unknown_activation_is_rejected(self):
        with pytest.raises(InvalidModelError):
            NetworkSpec(
                layers=(LinearLaw(np.ones(4), 4, 4, NOISELESS), NonlinearLayerSpec("tanh")),
                dims=(4, 4, 4),
            )

    def test_the_network_law_keeps_the_separable_layers(self):
        spec = make_relu_network((10, 30, 30, 20), 0.6, NOISELESS, 5.0, 50.0, seed=3)
        law = network_law(spec)
        assert law.dims == spec.dims and law.layers[1] is spec.layers[1]
        assert [layer.kind for layer in law.layers] == [layer.kind for layer in spec.layers]

    def test_the_recipe_law_has_the_built_networks_separable_layers(self):
        recipe = harness.SyntheticRecipe(hidden_dims=(6, 10, 10, 8, 8), measurements=5)
        cal = harness.calibrate_recipe(recipe, 1)
        law = harness.recipe_law(recipe, cal)
        spec = harness.build_synthetic_network(recipe, 2, cal)
        assert law.dims == spec.dims
        for ell in (1, 3):
            assert law.layers[ell] == spec.layers[ell]

    def test_an_affine_law_compares_and_hashes_by_identity(self):
        spec = make_relu_network((10, 30, 30, 20), 0.6, NOISELESS, 5.0, 50.0, seed=3)
        first, again = network_law(spec).layers[0], network_law(spec).layers[0]
        assert first == first and first != again
        assert len({first, again}) == 2


class TestNullSpaceBias:
    def test_the_null_bias_energy_gives_the_square_basis_moments(self):
        # compact factors keep only the null-space bias energy of an expanding
        # layer; a square SVD's per-component null atoms give the same moments
        spec = make_relu_network((10, 30, 30, 60, 60, 20), 0.6, NOISELESS, NOISELESS, 50.0, seed=3)
        law = network_law(spec)
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
        layer = NonlinearLayerSpec("relu", NOISELESS)
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
        law = NetworkSpec(
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
        layer = NonlinearLayerSpec("relu", NOISELESS)
        K = np.array([[1.0, 0.0], [0.0, 0.3]])
        quad = se._separable_step(layer, True, K, -0.3, 0.5, 2.0, 3.0, "mmse", 30, clip_alpha)
        assert quad[0] == pytest.approx(0.14527620554670118, abs=3e-3)
        assert quad[2] == pytest.approx(0.06833017849249548, abs=3e-3)

    #: run_se curves (4 iterations, flattened nmse_db) of the relu-measurement
    #: law below, from the quadrature that integrated the minus axis in full
    FULL_GRID_CURVES = {
        "mmse": [
            -0.0008685021078054198, -4.169005551614444, -6.833929312047613, -10.95836211400458,
            -6.833929312047613, -12.507601837216171, -9.04812450284841, -14.423671141176705,
            -9.04812450284841, -14.990495995116635, -10.024299352994475, -15.841563769124978,
            -10.024299352994475, -16.096989259268945, -10.486878024935473, -16.507009100005405,
        ],
        "map": [
            -0.0008685021078054198, -4.169005551614444, -5.735812518451371, -9.21933406474652,
            -5.735812518451371, -11.267664338634571, -7.882055450010941, -12.909948070434826,
            -7.882055450010943, -13.683950093350143, -8.888348646188783, -14.393992545020936,
            -8.888348646188781, -14.812443382448494, -9.382967004959788, -15.125269123965076,
        ],
    }

    @pytest.mark.parametrize("mode", ["mmse", "map"])
    def test_exact_observation_integrates_no_minus_axis(self, mode, monkeypatch):
        # at an exactly observed separable layer (tau_m = 0) the minus message
        # is never read, so its quadrature axis collapses to one node
        from mlvamp import denoisers as dn
        from mlvamp.model import geometric_singular_values

        law = NetworkSpec(
            layers=(
                LinearLaw(geometric_singular_values(60, 40, 3.0), 60, 40, 100.0,
                          bbar_var=0.3**2 + 1.0, bias_mean=0.3),
                NonlinearLayerSpec("relu", NOISELESS),
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
        # each call evaluates the truth axis times the r_plus axis
        tau, mu = se_initial_pass(law)
        truth_axis = se._kinked_axis(-mu[1] / math.sqrt(tau[1] - mu[1] ** 2), 20)[0]
        assert sizes == [truth_axis.size * 20] * 4


def _mixed_activation_law():
    """Hidden sign, sigmoid and identity layers between affine ones."""
    return NetworkSpec(
        layers=(
            LinearLaw(sv(40, 20, 3.0), 40, 20, 100.0, bbar_var=0.3**2 + 0.5, bias_mean=0.3),
            NonlinearLayerSpec("sign", NOISELESS),
            LinearLaw(sv(40, 40, 2.0), 40, 40, 100.0, bbar_var=0.5),
            NonlinearLayerSpec("sigmoid", NOISELESS),
            LinearLaw(sv(30, 40, 2.0), 30, 40, 100.0, bbar_var=0.5),
            NonlinearLayerSpec("identity", NOISELESS),
            LinearLaw(sv(25, 30, 2.0), 25, 30, 100.0),
        ),
        dims=(20, 40, 40, 40, 40, 30, 30, 25),
    )


def _noisy_relu_law():
    """A noisy hidden relu (the output-noise axis is integrated) and a noisy
    relu measurement layer (observed exactly, gm = inf)."""
    return NetworkSpec(
        layers=(
            LinearLaw(sv(40, 20, 3.0), 40, 20, 100.0, bbar_var=0.3**2 + 0.5, bias_mean=0.3),
            NonlinearLayerSpec("relu", 50.0),
            LinearLaw(sv(30, 40, 2.0), 30, 40, 100.0, bbar_var=0.2**2 + 0.5, bias_mean=-0.2),
            NonlinearLayerSpec("relu", 50.0),
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
                -0.0008685021078054198, -3.33944186698076, -4.61241388860621, -6.702506958536497,
                -1.9775620800679283, -4.628326983361748, -6.348594989426569, -9.4920079242585,
                -1.977562080067929, -5.974831313153608, -7.725008171599227, -10.703122782685233,
                -2.506358622788124, -6.2912637060283245, -8.090217865150468, -11.200549105352769,
                -2.506358622788127, -6.638017625811944, -8.435464638341514, -11.48369773373619,
                -2.649167331728993, -6.721496764891346, -8.527984617734674, -11.607199330958156,
                -2.649167331728993, -6.814482665845063, -8.618863173714393, -11.680909225259711,
                -2.687531886640345, -6.836768632547714, -8.643254755798958, -11.71336929607347,
            ],
            "map": [
                -0.0008685021078054198, -3.33944186698076, -4.323709859800053, -6.423408545234745,
                -2.7213483446363678, -4.331153397085608, -5.964689667450486, -8.429427274730216,
                -2.7213483446363664, -6.9033310578716325, -7.828193372117722, -10.698054051994003,
                -3.4424684280933295, -6.726079023042685, -8.395725093671063, -10.994454142294936,
                -3.4424684280933286, -7.776229673873355, -8.837494781029244, -11.877993012246549,
                -3.631852461355014, -7.332954936299888, -9.039660672041695, -11.656284582727118,
                -3.631852461355014, -8.001526229745457, -9.103446226779182, -12.174485107964447,
                -3.70542103159541, -7.49514026136795, -9.206014983251587, -11.818359725617276,
            ],
        },
        "sign-sigmoid-identity": {
            "mmse": [
                -0.0008685021078054198, -3.33944186698076, -1.9519799089010283, -3.6743093452386946,
                -10.843322851600686, -13.64441420142761, -13.644414201427608, -1.3630279643232295,
                -4.171208829614497, -3.490583487309629, -5.310396899481096, -12.552691216694017,
                -17.965531103525844, -17.965531103525848, -1.3630279643232286, -5.183269431696436,
                -4.667471486475182, -6.56201715009042, -13.88732469364341, -18.53556930901429,
                -18.53556930901429, -1.6202328823836294, -5.330770740913065, -4.820827765576967,
                -6.715300291863847, -14.031560323651833, -18.796363165271927, -18.796363165271927,
                -1.6202328823836278, -5.517426612698227, -5.087478619069098, -6.976375478440756,
                -14.301928033274745, -18.888928359379037, -18.888928359379037, -1.6693274698292262,
                -5.545162614570112, -5.112749803148379, -7.002771604543353, -14.324290462200826,
                -18.925367940050833, -18.92536794005083, -1.6693274698292262, -5.580734534666824,
                -5.164005456339227, -7.05085601016595, -14.375091544535403, -18.94229212030718,
                -18.942292120307183, -1.678599123575701, -5.585878129706174, -5.1683125766454205,
                -7.0570940874727555, -14.379104226796029, -18.9487840298122, -18.9487840298122,
            ],
            "map": [
                -0.0008685021078054198, -3.33944186698076, -0.322625271316535, -2.0658765979593903,
                -9.202189632144576, -12.408535490338874, -12.408535490338874, -2.2033525480457787,
                -3.353546206458618, -0.3948270915968214, -2.21646460657202, -10.674986457244762,
                -16.853601800050974, -16.853601800050978, -2.203352548045779, -6.260158781717063,
                -2.896576124752137, -4.6749473975190465, -11.78720998038703, -17.27917775913968,
                -17.27917775913968, -2.3283494994212615, -5.165189853289424, -2.8965892188550817,
                -4.699131759759673, -11.806101962642279, -17.624853766951865, -17.62485376695187,
                -2.3283494994212606, -6.419704937416096, -3.3581223412908163, -5.148848303306908,
                -12.255718810716143, -17.85093303123322, -17.85093303123322, -2.4087334271915974,
                -5.371806453593861, -3.358131702436437, -5.151751266453135, -12.25577906545876,
                -17.87865923747026, -17.878659237470256, -2.4087334271915974, -6.519751180003772,
                -3.4569377775946, -5.246299921262808, -12.351525802515791, -17.925407743613942,
                -17.925407743613942, -2.4230879840289075, -5.426340948832646, -3.45694689166508,
                -5.248519803033331, -12.35153804513098, -17.931007838666897, -17.931007838666897,
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


def _gaussian_moments(a, b, kmax):
    """``int_a^b t^k exp(-t^2 / 2) dt`` for k = 0 .. kmax, as 100-digit decimals.

    The closed-form recurrence ``M_k = (k - 1) M_{k-2} + a^(k-1) g(a) - b^(k-1) g(b)``,
    ``g(t) = exp(-t^2 / 2)``, multiplies an error in ``M_0`` by ``(k - 1)!!``, so
    ``M_0`` is summed from its Taylor series at that precision.
    """
    with localcontext() as ctx:
        ctx.prec = 100
        a, b = Decimal(a), Decimal(b)  # exact: a float is a binary fraction
        g_a, g_b = (-a * a / 2).exp(), (-b * b / 2).exp()
        # M_0 = sum_n (-1/2)^n / n! (b^(2n+1) - a^(2n+1)) / (2n + 1)
        m0, n, coef, term = Decimal(0), 0, Decimal(1), Decimal(1)
        while 2 * n <= max(a * a, b * b) or abs(term) > Decimal("1e-95"):
            term = coef * (b ** (2 * n + 1) - a ** (2 * n + 1)) / (2 * n + 1)
            m0 += term
            n += 1
            coef /= -2 * n
        moments = [m0, g_a - g_b]
        for k in range(2, kmax + 1):
            moments.append((k - 1) * moments[k - 2] + a ** (k - 1) * g_a - b ** (k - 1) * g_b)
        return moments


class TestKinkedAxis:
    """Each panel of the kinked truth axis carries the Gauss rule of the
    standard normal density restricted to that panel."""

    #: nodes per panel on |t| <= 1, [1, 2], [2, 4] and the [4, 8.5] tails
    COUNTS = {8: (14, 10, 6, 3), 12: (14, 10, 6, 3), 40: (20, 15, 9, 5)}

    @pytest.mark.parametrize("order", sorted(COUNTS))
    @pytest.mark.parametrize("kink_z", [0.25, -0.4, 1.3, -3.0, 6.0, 20.0])
    def test_each_panel_is_the_gauss_rule_of_the_normal_density(self, kink_z, order):
        t, w = se._kinked_axis(kink_z, order)
        edges = sorted({0.0, *se._AXIS_OFFSETS, *-se._AXIS_OFFSETS, *([kink_z] if abs(kink_z) < 8.5 else [])})
        total = _gaussian_moments(edges[0], edges[-1], 0)[0]  # the weights sum to one over the axis
        assert np.all(w > 0)
        covered = 0
        for a, b in zip(edges[:-1], edges[1:]):
            inside = (t > a) & (t < b)
            n = int(inside.sum())
            covered += n
            assert n == self.COUNTS[order][int(np.searchsorted([1.0, 2.0, 4.0], min(abs(a), abs(b)), "right"))]
            exact = [float(m / total) for m in _gaussian_moments(a, b, 2 * n - 1)]
            quad = [float(np.sum(w[inside] * t[inside] ** k)) for k in range(2 * n)]
            np.testing.assert_allclose(quad, exact, rtol=1e-12, atol=0)
        assert covered == t.size  # every node lies strictly inside a panel


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
        # (2.8e-6 dB at damping 0.7 with calibration seed 0)
        recipe = harness.SyntheticRecipe(measurements=300)
        law = harness.recipe_law(recipe, harness.calibrate_recipe(recipe, 0))
        default = run_se(law, SEConfig(damping=0.7))
        order20 = run_se(law, SEConfig(damping=0.7, quad_order=20))
        assert np.max(np.abs(default.nmse_db - order20.nmse_db)) <= 2e-5


class TestOracleCurves:
    """The paper-law mmse curves (calibration seed 0, damping 0.7, 50 iterations)
    at the default order against the frozen curves of the composite-Legendre
    oracle at 32 nodes per panel and order 40 (``composite_legendre.py``)."""

    #: largest |change| in nmse_db allowed at each M, fixed before measuring
    BOUND_DB = {100: 1e-6, 300: 5e-5}

    @pytest.mark.parametrize("measurements", sorted(BOUND_DB))
    def test_the_default_order_holds_the_oracle_curves(self, measurements):
        frozen = json.loads(oracle.FROZEN.read_text())[f"M={measurements} damping=0.7"]
        res = run_se(oracle.paper_law(measurements), SEConfig(damping=0.7))
        assert np.max(np.abs(res.nmse_db - np.array(frozen))) <= self.BOUND_DB[measurements]


class TestGaussianChainFixedPoint:
    def test_fixed_point_matches_exact_posterior_variances(self):
        # Orthogonal factors with a unit spectrum make the per-layer average
        # posterior variance deterministic; the scalar recursion hits it.
        spec = make_gaussian_chain(
            (30, 24, 18), (1.0, 2.0), seed=5, unit_spectrum=True
        )
        law = network_law(spec)
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
        law = network_law(spec)
        res = run_se(law, SEConfig(iterations=300, stop_tol=1e-14))
        np.testing.assert_allclose(state.gamma_plus, res.gamma_plus[-1], rtol=1e-6)
        np.testing.assert_allclose(state.gamma_minus, res.gamma_minus[-1], rtol=1e-6)

    def test_symmetric_chain_is_direction_symmetric(self):
        # Unit-spectrum square chain with equal noise everywhere: forward and
        # backward precisions agree at the fixed point by symmetry.
        spec = make_gaussian_chain(
            (16, 16, 16), (1.0, 1.0), seed=9, bias_scale=0.0, unit_spectrum=True
        )
        law = network_law(spec)
        res = run_se(law, SEConfig(iterations=200, stop_tol=1e-14))
        # interior signal: the chain looks the same from both ends
        assert res.gamma_plus[-1, 1] == pytest.approx(res.gamma_minus[-1, 0], rel=1e-9)

    def test_zero_iterations_returns_prior_errors(self):
        law = network_law(make_gaussian_chain((8, 6, 5), (1.0, 1.0), seed=2))
        res = run_se(law, SEConfig(iterations=1))
        tau, _ = se_initial_pass(law)
        # first forward half-iteration with a vacuous backward message:
        # layer-0 estimate is essentially zero, error = prior second moment
        assert res.mse[0, 0] == pytest.approx(tau[0], rel=1e-3)

    def test_determinism(self):
        law = network_law(make_gaussian_chain((8, 6, 5), (1.0, 1.0), seed=2))
        a = run_se(law, SEConfig(iterations=10))
        b = run_se(law, SEConfig(iterations=10))
        np.testing.assert_array_equal(a.nmse_db, b.nmse_db)

    def test_psd_second_moments(self):
        spec = make_relu_network(
            (10, 30, 30, 20), rho=0.4, nu_lin=NOISELESS, nu_act=NOISELESS, nu_meas=50.0, seed=4
        )
        law = network_law(spec)
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
        law = network_law(spec)
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
        law = network_law(spec)
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
        law = network_law(spec_builder(1))
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
        law = network_law(spec_builder(1))
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
