"""Network construction, random ensembles, and sampling."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from mlvamp import model
from mlvamp.errors import (
    DegenerateModelError,
    InvalidModelError,
    NumericFailureError,
    UndefinedMetricError,
)
from mlvamp.model import (
    NOISELESS,
    LinearLayerSpec,
    NetworkSpec,
    NonlinearLayerSpec,
    calibrate_noise_to_snr,
    forward_generate,
    geometric_singular_values,
    linear_layer_from_factors,
    network_from_json,
    network_to_json,
    sample_haar_orthogonal,
)
from mlvamp.seeding import substream
from conftest import haar, layer_from_square_factors, network_from_layers


class TestHaarSampling:
    def test_one_by_one_is_sign(self):
        for seed in range(20):
            q = haar(1, seed)
            assert q.shape == (1, 1)
            assert abs(abs(q[0, 0]) - 1.0) < 1e-14

    @pytest.mark.parametrize("n", [2, 4, 50])
    def test_orthogonality(self, n):
        q = haar(n, 123)
        err = np.max(np.abs(q.T @ q - np.eye(n)))
        assert err <= 1e-10

    @pytest.mark.parametrize("n", [0, 5.7, True, "5"])
    def test_zero_size_rejected(self, n):
        with pytest.raises(InvalidModelError):
            haar(n, 1)

    def test_numpy_integer_sizes_are_counts(self):
        np.testing.assert_array_equal(
            sample_haar_orthogonal(np.int64(7), substream(3, 0x7C), columns=np.int32(3)),
            sample_haar_orthogonal(7, substream(3, 0x7C), columns=3),
        )

    @pytest.mark.parametrize("shape, columns", [
        ((1, 1), None), ((3, 5), None), ((997, 784), 7), ((784, 784), 100),
        ((2, model.DRAW_BLOCK + 3), None), ((5, 2 * model.DRAW_BLOCK), 4),
    ])
    def test_blockwise_draw_is_the_one_call_draw(self, shape, columns):
        drawn = model.standard_normal_fortran(substream(5, 0x7C), shape, columns)
        whole = substream(5, 0x7C).standard_normal(shape)
        assert drawn.flags.f_contiguous
        assert np.array_equal(drawn, whole[:, :columns])

    @pytest.mark.parametrize("n, k", [(7, 3), (100, 20), (500, 100), (784, 500)])
    def test_thin_columns_are_the_square_draws(self, n, k):
        # the same Gaussian from the same substream: the thin QR's columns,
        # sign fix included, are the square draw's first k to rounding
        for seed in (1, 2):
            square = sample_haar_orthogonal(n, substream(seed, 0x7C))
            thin = sample_haar_orthogonal(n, substream(seed, 0x7C), columns=k)
            assert thin.shape == (n, k)
            assert np.max(np.abs(thin - square[:, :k])) <= 1e-15

    @pytest.mark.parametrize("n, k", [(7, 3), (100, 20), (784, 100)])
    def test_rows_are_the_square_draws(self, n, k):
        # every reflector applied to the first k unit vectors, sign fix
        # included, gives the square draw's first k rows to rounding
        for seed in (1, 2):
            square = sample_haar_orthogonal(n, substream(seed, 0x7C))
            rows = sample_haar_orthogonal(n, substream(seed, 0x7C), rows=k)
            assert rows.shape == (k, n)
            assert np.max(np.abs(rows - square[:k])) <= 1e-15
            np.testing.assert_array_equal(np.sign(rows), np.sign(square[:k]))

    def test_all_columns_are_the_square_draw(self):
        np.testing.assert_array_equal(
            sample_haar_orthogonal(50, substream(3, 0x7C), columns=50),
            sample_haar_orthogonal(50, substream(3, 0x7C)),
        )

    def test_all_rows_are_the_square_draw(self):
        np.testing.assert_array_equal(
            sample_haar_orthogonal(50, substream(3, 0x7C), rows=50),
            sample_haar_orthogonal(50, substream(3, 0x7C)),
        )

    @staticmethod
    def front_end_draw(n, rng, columns=None, rows=None):
        """The reference: the same draw through numpy's and scipy's QR front ends, sign-fixed."""
        k = n if columns is None and rows is None else (rows if columns is None else columns)
        g = rng.standard_normal((n, n))
        if rows is not None and k < n:
            q, r = scipy.linalg.qr_multiply(g, np.eye(k, n), mode="right", overwrite_a=True)
        else:
            q, r = np.linalg.qr(g[:, :k])
        d = np.sign(np.diag(r))
        d[d == 0] = 1.0
        return q * d

    @pytest.mark.parametrize("n, side", [
        (784, {"rows": 100}), (784, {"columns": 500}), (500, {}),
        (500, {"columns": 100}), (100, {"columns": 20}), (20, {}),
        (3, {}), (130, {"columns": 1}), (997, {"rows": 7}), (1000, {"columns": 999}),
    ])
    def test_lapack_draw_keeps_the_qr_front_ends_bits(self, n, side):
        # the paper network's draws and edge shapes (a draw inside one block, a
        # row count that does not divide the blocks): the same Gaussian, the
        # same LAPACK blocking, so the same bits, in the engine's C order
        for seed in (1, 2):
            drawn = sample_haar_orthogonal(n, substream(seed, 0x7C), **side)
            assert np.array_equal(drawn, self.front_end_draw(n, substream(seed, 0x7C), **side))
            assert drawn.flags.c_contiguous

    def test_lapack_failure_is_a_numeric_failure(self):
        def fails(*args, lwork, **kwargs):
            return (np.zeros(1), np.zeros(1), np.array([8.0]), -1 if lwork > 0 else 0)

        with pytest.raises(NumericFailureError, match="info -1"):
            model._lapack(fails, np.eye(2))

    @pytest.mark.parametrize("columns", [0, 6, 2.5, True])
    def test_columns_outside_the_matrix_rejected(self, columns):
        with pytest.raises(InvalidModelError):
            sample_haar_orthogonal(5, substream(1, 0x7C), columns=columns)

    @pytest.mark.parametrize("rows", [0, 6, 2.5, True])
    def test_rows_outside_the_matrix_rejected(self, rows):
        with pytest.raises(InvalidModelError):
            sample_haar_orthogonal(5, substream(1, 0x7C), rows=rows)

    def test_columns_and_rows_together_rejected(self):
        with pytest.raises(InvalidModelError, match="not both"):
            sample_haar_orthogonal(5, substream(1, 0x7C), columns=2, rows=2)

    def test_first_and_second_moments(self):
        # Monte-Carlo check of the uniform law: entries have mean 0 and
        # variance 1/n.
        n, draws = 50, 10_000
        vals = np.empty(draws)
        for i in range(draws):
            vals[i] = haar(n, 10_000 + i)[0, 0]
        sigma = math.sqrt(1.0 / n / draws)
        assert abs(np.mean(vals)) < 4 * sigma
        assert abs(np.var(vals) - 1.0 / n) < 0.1 / n

    def test_rotation_invariance(self):
        # Statistics of R @ Q match those of Q for a fixed rotation R.
        n, draws = 8, 2000
        rot = haar(n, 777)
        plain = np.empty(draws)
        rotated = np.empty(draws)
        for i in range(draws):
            q = haar(n, 20_000 + i)
            plain[i] = q[0, 0]
            rotated[i] = (rot @ haar(n, 50_000 + i))[0, 0]
        sigma = math.sqrt(1.0 / n / draws)
        assert abs(np.mean(plain) - np.mean(rotated)) < 4 * math.sqrt(2) * sigma
        assert abs(np.var(plain) - np.var(rotated)) < 8 * math.sqrt(2.0 / n) / math.sqrt(draws)


class TestGeometricSingularValues:
    def test_unit_condition_number_is_constant(self):
        s = geometric_singular_values(3, 3, 1.0)
        assert np.all(s == s[0])

    def test_condition_number_exact(self):
        s = geometric_singular_values(100, 784, 10.0)
        assert s.size == 100
        assert s[0] / s[-1] == pytest.approx(10.0, rel=1e-12)

    def test_normalized_geometric_vector(self):
        # Independent construction: solve the normalization directly.
        ratio = 8.0 ** (-1.0 / 3.0)
        raw = ratio ** np.arange(4)
        expected = raw * math.sqrt(4.0 / np.sum(raw * raw))
        s = geometric_singular_values(4, 4, 8.0)
        np.testing.assert_allclose(s, expected, rtol=1e-12)
        assert np.sum(s * s) == pytest.approx(4.0)
        np.testing.assert_allclose(s[:-1] / s[1:], 8.0 ** (1.0 / 3.0), rtol=1e-12)

    def test_invalid_condition_number(self):
        with pytest.raises(InvalidModelError):
            geometric_singular_values(4, 4, 0.5)

    @pytest.mark.parametrize("m, n, cond", [
        (0, 4, 2.0), (4, 0, 2.0), (4.7, 4, 2.0), (4, True, 2.0), (4, "4", 2.0),
        (4, 4, math.nan), (4, 4, math.inf), (4, 4, True), (4, 4, "2"),
    ])
    def test_invalid_arguments_are_rejected(self, m, n, cond):
        with pytest.raises(InvalidModelError):
            geometric_singular_values(m, n, cond)

    def test_numpy_integer_sizes_are_counts(self):
        np.testing.assert_array_equal(
            geometric_singular_values(np.int64(5), np.int32(3), 2.0),
            geometric_singular_values(5, 3, 2.0),
        )

    @given(
        m=st.integers(min_value=1, max_value=40),
        n=st.integers(min_value=1, max_value=40),
        cond=st.floats(min_value=1.0, max_value=1e4),
    )
    @settings(max_examples=60, deadline=None)
    def test_descending_and_normalized(self, m, n, cond):
        s = geometric_singular_values(m, n, cond)
        assert s.size == min(m, n)
        assert np.all(np.diff(s) <= 1e-12)
        assert np.sum(s * s) == pytest.approx(min(m, n), rel=1e-9)


class TestSvdFactorization:
    def test_identity(self):
        layer = LinearLayerSpec(weight=np.eye(3), bias=np.zeros(3), noise_precision=1.0)
        f = layer.factors
        np.testing.assert_allclose(f.singular_values, np.ones(3))

    def test_diagonal(self):
        layer = LinearLayerSpec(
            weight=np.diag([3.0, 2.0, 1.0]), bias=np.zeros(3), noise_precision=1.0
        )
        f = layer.factors
        np.testing.assert_allclose(f.singular_values, [3.0, 2.0, 1.0])

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(42)
        w = rng.standard_normal((20, 50))
        layer = LinearLayerSpec(weight=w, bias=rng.standard_normal(20), noise_precision=2.0)
        f = layer.factors
        err = np.max(np.abs(f.to_weight() - w))
        assert err <= 1e-8 * np.max(np.abs(w))

    @pytest.mark.parametrize("shape", [(7, 4), (4, 7), (5, 5)])
    def test_a_dense_layer_carries_the_svd_of_its_weight(self, shape):
        # factored once, at construction, and the weight itself is kept
        w = np.random.default_rng(shape[0]).standard_normal(shape)
        layer = LinearLayerSpec(weight=w, bias=np.ones(shape[0]), noise_precision=1.0)
        u, s, vt = np.linalg.svd(w, full_matrices=False)
        f = layer.factors
        for got, want in ((f.left_orthogonal, u), (f.singular_values, s), (f.right_orthogonal, vt)):
            np.testing.assert_array_equal(got, want)
        assert layer.weight is w
        assert (layer.out_dim, layer.in_dim) == shape

    @pytest.mark.parametrize("shape", [(3, 0), (0, 3)])
    def test_a_weight_with_an_empty_axis_is_rejected(self, shape):
        with pytest.raises(InvalidModelError, match="positive dimensions"):
            LinearLayerSpec(weight=np.zeros(shape), bias=np.zeros(shape[0]), noise_precision=1.0)
        k = min(shape)
        with pytest.raises(InvalidModelError, match="positive dimensions"):
            linear_layer_from_factors(np.zeros((shape[0], k)), np.zeros(k),
                                      np.zeros((k, shape[1])), np.zeros(shape[0]), 1.0)

    @pytest.mark.parametrize("shape", [(7, 4), (4, 7), (5, 5)])
    def test_zero_padding_reproduces_the_affine_map(self, shape):
        # s * (right @ z) + bbar must equal left.T @ (W z + b) on the range,
        # and the null components (singular value 0) carry the bias alone
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        w = rng.standard_normal(shape)
        b = rng.standard_normal(shape[0])
        f = LinearLayerSpec(weight=w, bias=b, noise_precision=1.0).factors
        for _ in range(5):
            z = rng.standard_normal(shape[1])
            out = w @ z + b
            lhs = f.singular_values * (f.right_orthogonal @ z) + f.transformed_bias
            rhs = f.left_orthogonal.T @ out
            scale = np.max(np.abs(rhs))
            assert np.max(np.abs(lhs - rhs)) <= 1e-8 * scale
            null = out - f.left_orthogonal @ rhs
            assert np.max(np.abs(null - (b - f.left_orthogonal @ f.transformed_bias))) <= 1e-8 * scale

    @pytest.mark.parametrize("n", [4, 784])
    def test_a_bent_compact_factor_is_rejected(self, n):
        # an n x 3 left factor with orthonormal columns, and its transpose as
        # a 3 x n right factor, each bent by 1e-6 in one entry
        thin, small = sample_haar_orthogonal(n, substream(5, 0x7C), columns=3), haar(3, 6)
        s = geometric_singular_values(n, 3, 2.0)
        linear_layer_from_factors(thin, s, small, np.ones(n), 1.0)
        linear_layer_from_factors(small, s, thin.T, np.ones(3), 1.0)
        bent = thin.copy()
        bent[n // 2, 1] += 1e-6
        with pytest.raises(InvalidModelError, match="not orthogonal"):
            linear_layer_from_factors(bent, s, small, np.ones(n), 1.0)
        with pytest.raises(InvalidModelError, match="not orthogonal"):
            linear_layer_from_factors(small, s, bent.T, np.ones(3), 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("part", ["left", "singular_values", "right", "bias"])
    def test_a_non_finite_factor_or_bias_is_rejected(self, part, bad):
        # no dense weight is formed to catch it, so the factors' own checks must
        parts = {
            "left": sample_haar_orthogonal(6, substream(5, 0x7C), columns=4),
            "singular_values": geometric_singular_values(6, 4, 2.0),
            "right": haar(4, 6),
            "bias": np.ones(6),
        }
        linear_layer_from_factors(*parts.values(), 1.0)
        parts[part] = parts[part].copy()
        parts[part].flat[-1] = bad
        with pytest.raises(InvalidModelError):
            linear_layer_from_factors(*parts.values(), 1.0)

    def test_compact_factors_of_the_wrong_shape_are_rejected(self):
        thin, small = sample_haar_orthogonal(6, substream(5, 0x7C), columns=4), haar(3, 6)
        with pytest.raises(InvalidModelError, match="left factor"):
            linear_layer_from_factors(thin, np.ones(3), small, np.ones(6), 1.0)

    @pytest.mark.parametrize("shape", [(100, 20), (20, 100), (64, 64), (100, 784), (784, 500)])
    def test_weight_keeps_the_bits_of_the_dense_diagonal_product(self, shape):
        # to_weight scales left's columns; multiplying by the dense diagonal
        # matrix, as it once did, sums the same products and exact zeros
        n_out, n_in = shape
        s = geometric_singular_values(n_out, n_in, 10.0)
        u, v = haar(n_out, 3), haar(n_in, 4)
        f = layer_from_square_factors(u, s, v, np.zeros(n_out), 1.0).factors
        smat = np.zeros(shape)
        smat[: s.size, : s.size] = np.diag(s)
        np.testing.assert_array_equal(f.to_weight(), u @ smat @ v)


class TestFactorConsistency:
    """A bias or weight given beside a layer's factors must agree with them."""

    @staticmethod
    def package_layer():
        left = sample_haar_orthogonal(6, substream(5, 0x7C), columns=4)
        return linear_layer_from_factors(left, geometric_singular_values(6, 4, 2.0), haar(4, 6),
                                         np.linspace(-1.0, 1.0, 6), 1.0)

    def test_a_bias_other_than_the_factors_is_rejected(self):
        layer = self.package_layer()
        with pytest.raises(InvalidModelError, match="bias disagrees"):
            LinearLayerSpec(bias=layer.bias + 1.0, noise_precision=1.0, factors=layer.factors)
        with pytest.raises(InvalidModelError, match="bias disagrees"):
            replace(layer, bias=np.zeros(6))

    def test_a_weight_the_factors_do_not_reproduce_is_rejected(self):
        layer = self.package_layer()
        w = layer.weight
        bent, wide, broken = w.copy(), np.zeros((6, 5)), w.copy()
        bent[2, 1] += 1e-6
        broken[0, 0] = math.nan
        for bad in (bent, wide, broken):
            with pytest.raises(InvalidModelError, match="weight disagrees"):
                LinearLayerSpec(weight=bad, bias=layer.bias, noise_precision=1.0,
                                factors=layer.factors)
        near = w.copy()
        near[2, 1] += 1e-12
        kept = LinearLayerSpec(weight=near, bias=layer.bias, noise_precision=1.0,
                               factors=layer.factors)
        np.testing.assert_array_equal(kept.__dict__["_weight"], near)  # stored, as given

    def test_replace_keeps_a_package_made_layer_compact(self):
        layer = self.package_layer()
        noisier = replace(layer, noise_precision=2.0)
        assert noisier.__dict__["_weight"] is None and noisier.factors is layer.factors
        np.testing.assert_array_equal(noisier.weight, layer.weight)

    def test_replace_keeps_a_loaded_weight_bit_for_bit(self):
        w = np.random.default_rng(11).standard_normal((5, 7))
        doc = {"dims": [7, 5], "layers": [{"kind": "linear", "weight": w.tolist(),
                                           "bias": [0.5] * 5, "noise_precision": 3.0}]}
        layer = network_from_json(doc).layers[0]
        assert not np.array_equal(layer.factors.to_weight(), layer.weight)  # the SVD rounds
        noisier = replace(layer, noise_precision=2.0)
        assert noisier.weight is layer.weight
        np.testing.assert_array_equal(noisier.weight.view(np.uint64), w.view(np.uint64))


class TestNetworkValidation:
    def test_dims_mismatch_rejected(self):
        layer = LinearLayerSpec(weight=np.eye(3), bias=np.zeros(3), noise_precision=1.0)
        with pytest.raises(InvalidModelError):
            NetworkSpec(layers=(layer,), dims=(3, 4))

    def test_consecutive_separable_rejected(self):
        lin = LinearLayerSpec(weight=np.eye(3), bias=np.zeros(3), noise_precision=1.0)
        with pytest.raises(InvalidModelError):
            network_from_layers(
                (lin, NonlinearLayerSpec("relu"), NonlinearLayerSpec("relu"))
            )


class TestForwardGenerate:
    def test_identity_chain_copies_the_input(self):
        lin = LinearLayerSpec(weight=np.eye(5), bias=np.zeros(5), noise_precision=NOISELESS)
        spec = network_from_layers((lin, NonlinearLayerSpec("identity"), lin))
        sig = forward_generate(spec, 3)
        for z in sig.signals[1:]:
            np.testing.assert_array_equal(z, sig.signals[0])

    def test_relu_zeroes_negative_components(self):
        lin = LinearLayerSpec(
            weight=np.eye(1) * -2.5, bias=np.zeros(1), noise_precision=NOISELESS
        )
        spec = network_from_layers((lin, NonlinearLayerSpec("relu")))
        sig = forward_generate(spec, 0)
        pre = sig.signals[1][0]
        assert sig.signals[2][0] == (pre if pre > 0 else 0.0)

    def test_determinism(self):
        rng = np.random.default_rng(0)
        lin = LinearLayerSpec(
            weight=rng.standard_normal((4, 4)), bias=rng.standard_normal(4), noise_precision=2.0
        )
        spec = network_from_layers((lin, NonlinearLayerSpec("relu"), lin))
        a = forward_generate(spec, 99)
        b = forward_generate(spec, 99)
        for za, zb in zip(a.signals, b.signals):
            np.testing.assert_array_equal(za, zb)

    def test_variance_propagation(self):
        # One linear-Gaussian layer: component variance of the output is
        # mean-square singular value + noise variance.  Aggregated over
        # many seeds to reach ~2e5 effective components.
        n, nu = 500, 4.0
        u = haar(n, 1)
        v = haar(n, 2)
        s = geometric_singular_values(n, n, 3.0)
        layer = linear_layer_from_factors(u, s, v, np.zeros(n), nu)
        spec = network_from_layers((layer,))
        total = 0.0
        draws = 400
        for seed in range(draws):
            total += float(np.mean(forward_generate(spec, seed).signals[1] ** 2))
        expected = float(np.mean(s * s)) + 1.0 / nu
        assert total / draws == pytest.approx(expected, rel=0.03)


class TestSnrCalibration:
    def _two_layer(self):
        rng = np.random.default_rng(5)
        w1 = rng.standard_normal((30, 20)) / math.sqrt(20)
        w2 = rng.standard_normal((25, 30)) / math.sqrt(30)
        return network_from_layers(
            (
                LinearLayerSpec(weight=w1, bias=np.zeros(30), noise_precision=NOISELESS),
                NonlinearLayerSpec("relu"),
                LinearLayerSpec(weight=w2, bias=np.zeros(25), noise_precision=1.0),
            )
        )

    def test_zero_db_matches_signal_power(self):
        spec = self._two_layer()
        nu = calibrate_noise_to_snr(spec, 0.0, trials=200, seed=1)
        power = 0.0
        final = spec.layers[-1]
        for t in range(200):
            sig = forward_generate(spec, 10_000 + t)
            power += float(np.sum((final.weight @ sig.signals[-2]) ** 2))
        power /= 200 * final.out_dim
        assert 1.0 / nu == pytest.approx(power, rel=0.1)

    def test_thirty_db_algebra(self):
        spec = self._two_layer()
        nu0 = calibrate_noise_to_snr(spec, 0.0, trials=100, seed=2)
        nu30 = calibrate_noise_to_snr(spec, 30.0, trials=100, seed=2)
        assert nu30 / nu0 == pytest.approx(1e3, rel=1e-9)

    def test_realized_snr_on_fresh_draws(self):
        spec = self._two_layer()
        nu = calibrate_noise_to_snr(spec, 30.0, trials=300, seed=3)
        final = spec.layers[-1]
        spec2 = NetworkSpec(
            layers=spec.layers[:-1]
            + (
                LinearLayerSpec(
                    weight=final.weight, bias=final.bias, noise_precision=nu
                ),
            ),
            dims=spec.dims,
        )
        sig_power = 0.0
        noise_power = 0.0
        for t in range(300):
            sig = forward_generate(spec2, 777_000 + t)
            clean = final.weight @ sig.signals[-2]
            sig_power += float(clean @ clean)
            noise_power += float(np.sum((sig.y - clean) ** 2))
        realized = 10.0 * math.log10(sig_power / noise_power)
        assert abs(realized - 30.0) <= 0.5

    def test_degenerate_model_rejected(self):
        spec = network_from_layers(
            (LinearLayerSpec(weight=np.zeros((3, 3)), bias=np.zeros(3), noise_precision=1.0),)
        )
        with pytest.raises(DegenerateModelError):
            calibrate_noise_to_snr(spec, 10.0, trials=3, seed=0)


class TestJsonRoundTrip:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        spec = network_from_layers(
            (
                LinearLayerSpec(
                    weight=rng.standard_normal((4, 3)),
                    bias=rng.standard_normal(4),
                    noise_precision=NOISELESS,
                ),
                NonlinearLayerSpec("sigmoid", noise_precision=5.0),
                LinearLayerSpec(
                    weight=rng.standard_normal((2, 4)),
                    bias=rng.standard_normal(2),
                    noise_precision=3.5,
                ),
            )
        )
        doc = network_to_json(spec)
        text = json.dumps(doc)
        back = network_from_json(json.loads(text))
        assert back.dims == spec.dims
        for a, b in zip(back.layers, spec.layers):
            assert a.kind == b.kind
            if a.kind == "linear":
                np.testing.assert_allclose(a.weight, b.weight)
                np.testing.assert_allclose(a.bias, b.bias)
                assert a.noise_precision == b.noise_precision
            else:
                assert a.activation == b.activation
                assert a.noise_precision == b.noise_precision

    @staticmethod
    def small_doc():
        return {"dims": [1, 2, 2], "layers": [
            {"kind": "linear", "weight": [[1.0], [0.5]], "bias": [0.0, 0.1], "noise_precision": 2},
            {"kind": "nonlinear", "activation": "relu", "noise": {"kind": "gaussian", "precision": 3.0}},
        ]}

    def test_a_small_document_loads(self):
        spec = network_from_json(self.small_doc())
        assert spec.dims == (1, 2, 2) and spec.layers[0].noise_precision == 2.0

    @pytest.mark.parametrize(
        "path, value",
        [
            (("dims", 0), 1.9),
            (("dims", 0), True),
            (("layers", 0, "noise_precision"), True),
            (("layers", 0, "noise_precision"), "2.5"),
            (("layers", 1, "noise", "precision"), "1e400"),
            (("layers", 1, "noise", "precision"), math.inf),  # what a JSON 1e400 parses to
            pytest.param(("layers", 0, "noise_precision"), 10**400, id="int-past-the-float-range"),
            (("layers", 0, "noiseless"), "false"),
            (("layers", 0, "noiseless"), 0),
            *((("layers", 0, key, *index), value) for key, index in (("weight", (0, 0)), ("bias", (1,)))
              for value in (True, False, "0", "2.5")),
        ],
        ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else repr(v),
    )
    def test_a_value_of_the_wrong_json_type_is_rejected(self, path, value):
        doc = self.small_doc()
        *outer, last = path
        target = doc
        for key in outer:
            target = target[key]
        target[last] = value
        with pytest.raises(InvalidModelError):
            network_from_json(doc)

    def test_schema_fields(self):
        spec = network_from_layers(
            (
                LinearLayerSpec(weight=np.eye(2), bias=np.zeros(2), noise_precision=NOISELESS),
                NonlinearLayerSpec("relu"),
            )
        )
        doc = network_to_json(spec)
        assert doc["dims"] == [2, 2, 2]
        assert doc["layers"][0]["noiseless"] is True
        assert doc["layers"][1]["noise"] == {"kind": "none"}
