"""Scalar and affine pair estimators against independent oracles."""

import math
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, log_ndtr

from mlvamp import denoisers as dn
from mlvamp.denoisers import (
    BeliefParams,
    gauss_hermite_rule,
    input_denoiser,
    linear_pair,
    map_pair_nonlinear,
    mmse_pair_nonlinear,
    output_linear,
    scalar_pair_map,
    scalar_pair_mmse,
    separable_output_fields,
)
from mlvamp.errors import NumericFailureError
from mlvamp.model import (
    NOISELESS,
    LinearLayerSpec,
    NonlinearLayerSpec,
    zero_pad,
)
import four_field_rules
from conftest import (
    both_sides, divergence_finite_difference, haar, layer_from_square_factors, scalar_belief_cost,
)

GAMMAS = st.floats(min_value=0.05, max_value=20.0)
RS = st.floats(min_value=-4.0, max_value=4.0)


def trapezoid_mmse(activation, rm, rp, gm, gp, lo=-12.0, hi=12.0, step=1e-4):
    """Fine-grid reference for deterministic separable posterior stats.

    Midpoint grids split at zero so activation kinks / jumps never straddle
    a cell.
    """
    from mlvamp.model import apply_activation

    neg = np.arange(lo, 0.0, step) + 0.5 * step
    pos = np.arange(0.0, hi, step) + 0.5 * step
    xs = np.concatenate([neg, pos])
    phi = apply_activation(activation, xs)
    logw = -0.5 * gm * (phi - rm) ** 2 - 0.5 * gp * (xs - rp) ** 2
    logw -= logw.max()
    w = np.exp(logw)
    w /= w.sum()
    ex = w @ xs
    ep = w @ phi
    vx = w @ (xs - ex) ** 2
    vp = w @ (phi - ep) ** 2
    return ep, ex, gm * vp, gp * vx


def stable_seed(*parts):
    return zlib.crc32(repr(parts).encode()) % 2**31


def grid_map(activation, nu, rm, rp, gm, gp, lo=-10.0, hi=10.0, step=1e-5):
    """Brute-force minimizer of the (profiled) belief cost."""
    xs = np.arange(lo, hi + step, step)
    cost = scalar_belief_cost(activation, nu, xs, rm, rp, gm, gp)
    return xs[np.argmin(cost)]


def _pair_cost(activation, nu, z_out, x_in, rm, rp, gm, gp):
    """Belief cost at a returned (output, input) pair.

    For deterministic channels the output determines the branch, which
    matters exactly at the sign channel's open boundary.
    """
    if math.isinf(nu):
        g_eff, out = gm, z_out
    else:
        g_eff = nu * gm / (nu + gm)
        out = (z_out * (nu + gm) - gm * rm) / nu  # invert the posterior blend
    return 0.5 * g_eff * (out - rm) ** 2 + 0.5 * gp * (x_in - rp) ** 2


class TestQuadratureRule:
    def test_weights_normalized_and_moments_exact(self):
        rule = gauss_hermite_rule(12)
        assert rule.weights.sum() == pytest.approx(1.0, rel=1e-12)
        # exact standard-normal moments up to degree 2 * order - 1
        for p, want in ((2, 1.0), (4, 3.0), (6, 15.0), (8, 105.0)):
            assert rule.weights @ rule.nodes**p == pytest.approx(want, rel=1e-10)
        assert abs(rule.weights @ rule.nodes**3) < 1e-12

    def test_rule_is_built_once_and_read_only(self):
        rule = gauss_hermite_rule(20)
        again = gauss_hermite_rule(20)
        assert again.nodes is rule.nodes and again.weights is rule.weights
        for arr in (rule.nodes, rule.weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestInputDenoiser:
    def test_zero_input(self):
        zhat, _ = input_denoiser(np.zeros(5), 2.0)
        np.testing.assert_array_equal(zhat, 0.0)

    def test_conjugacy_arithmetic(self):
        zhat, alpha = input_denoiser(np.array([2.0]), 1.0)
        assert zhat[0] == pytest.approx(1.0)
        assert alpha == pytest.approx(0.5)

    def test_large_precision_limit(self):
        zhat, alpha = input_denoiser(np.array([1.7]), 1e9)
        assert zhat[0] == pytest.approx(1.7, rel=1e-8)
        assert alpha == pytest.approx(1.0, abs=1e-8)

    def test_divergence_matches_finite_difference(self):
        rng = np.random.default_rng(0)
        r = rng.standard_normal(20)
        _, alpha = input_denoiser(r, 1.0)

        def fn(rm, rp):
            return input_denoiser(rm, 1.0)[0], rp

        fd, _ = divergence_finite_difference(fn, r, np.zeros(1))
        assert abs(fd - 0.5) < 1e-7
        assert abs(alpha - fd) < 1e-7


class TestLinearPair:
    def _factors(self, n_out, n_in, seed, cond=3.0):
        from mlvamp.model import geometric_singular_values

        u = haar(n_out, seed)
        v = haar(n_in, seed + 1)
        s = geometric_singular_values(n_out, n_in, cond)
        rng = np.random.default_rng(seed)
        layer = layer_from_square_factors(u, s, v, rng.normal(0, 0.3, n_out), 2.0)
        return layer

    def test_zero_inputs_give_zero(self):
        # with zero pseudo-observations and zero bias every output is zero
        f = self._factors(6, 4, 10).factors
        zero_bias = type(f)(
            left_orthogonal=f.left_orthogonal,
            singular_values=f.singular_values,
            right_orthogonal=f.right_orthogonal,
            bias=np.zeros(6),
        )
        params = BeliefParams(np.zeros(6), np.zeros(4), 1.3, 0.7)
        for forward in (True, False):
            zhat, _ = linear_pair(params, zero_bias, 1.5, forward)
            np.testing.assert_allclose(zhat, 0.0, atol=1e-15)

    def test_scalar_case_against_direct_solve(self):
        # s=1, b=0, nu=1, both precisions 1, both observations 1.
        aq, ap, ab = dn.linear_gains_plus(np.array([1.0]), 1.0, 1.0, 1.0)
        bq, bp, bb = dn.linear_gains_minus(np.array([1.0]), 1.0, 1.0, 1.0)
        qhat = aq[0] + ap[0]
        phat = bq[0] + bp[0]
        assert qhat == pytest.approx(1.0, rel=1e-12)
        assert phat == pytest.approx(1.0, rel=1e-12)

    def test_generic_case_against_direct_solve(self):
        # s=0.5, b=0.1, nu=2, gm=1, gp=3, u_out=2, u_in=0 (direct 2x2 oracle).
        s, b, nu, gm, gp, u_out, u_in = 0.5, 0.1, 2.0, 1.0, 3.0, 2.0, 0.0
        mat = np.array([[gm + nu, -nu * s], [-nu * s, gp + nu * s * s]])
        rhs = np.array([gm * u_out + nu * b, gp * u_in - nu * s * b])
        q_ref, p_ref = np.linalg.solve(mat, rhs)
        assert q_ref == pytest.approx(0.8)
        assert p_ref == pytest.approx(0.2)
        aq, ap, ab = dn.linear_gains_plus(np.array([s]), nu, gm, gp)
        bq, bp, bb = dn.linear_gains_minus(np.array([s]), nu, gm, gp)
        assert aq[0] * u_out + ap[0] * u_in + ab[0] * b == pytest.approx(q_ref, rel=1e-12)
        assert bq[0] * u_out + bp[0] * u_in + bb[0] * b == pytest.approx(p_ref, rel=1e-12)

    def test_strong_input_prior_pins_the_input(self):
        layer = self._factors(5, 5, 20)
        f = layer.factors
        rng = np.random.default_rng(1)
        r_plus = rng.standard_normal(5)
        params = BeliefParams(rng.standard_normal(5), r_plus, 1.0, 1e10)
        zhat_minus, _ = linear_pair(params, f, 2.0, False)
        np.testing.assert_allclose(zhat_minus, r_plus, atol=1e-6)

    @given(
        s=st.floats(min_value=0.0, max_value=5.0),
        nu=st.floats(min_value=0.1, max_value=50.0),
        gm=GAMMAS,
        gp=GAMMAS,
        u_out=RS,
        u_in=RS,
        b=st.floats(min_value=-2.0, max_value=2.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_gains_solve_the_per_component_system(self, s, nu, gm, gp, u_out, u_in, b):
        mat = np.array([[gm + nu, -nu * s], [-nu * s, gp + nu * s * s]])
        rhs = np.array([gm * u_out + nu * b, gp * u_in - nu * s * b])
        q_ref, p_ref = np.linalg.solve(mat, rhs)
        aq, ap, ab = dn.linear_gains_plus(np.array([s]), nu, gm, gp)
        bq, bp, bb = dn.linear_gains_minus(np.array([s]), nu, gm, gp)
        assert aq[0] * u_out + ap[0] * u_in + ab[0] * b == pytest.approx(q_ref, rel=1e-9, abs=1e-12)
        assert bq[0] * u_out + bp[0] * u_in + bb[0] * b == pytest.approx(p_ref, rel=1e-9, abs=1e-12)

    def test_noiseless_limit_matches_large_precision(self):
        s = np.array([1.4, 0.6, 0.0])
        for gm, gp in ((0.5, 2.0), (3.0, 0.2)):
            exact = dn.linear_gains_plus(s, NOISELESS, gm, gp)
            big = dn.linear_gains_plus(s, 1e12, gm, gp)
            for a, b in zip(exact, big):
                np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-11)
            exact = dn.linear_gains_minus(s, NOISELESS, gm, gp)
            big = dn.linear_gains_minus(s, 1e12, gm, gp)
            for a, b in zip(exact, big):
                np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-11)

    def test_map_and_mmse_agree_on_affine_layers(self):
        # The affine solve serves both modes; the engine pair wrappers for
        # separable layers must also coincide when the activation is linear.
        rng = np.random.default_rng(3)
        layer = NonlinearLayerSpec("identity", noise_precision=2.0)
        params = BeliefParams(rng.standard_normal(30), rng.standard_normal(30), 1.2, 0.8)
        for forward in (True, False):
            a, _ = mmse_pair_nonlinear(params, layer, forward)
            b, _ = map_pair_nonlinear(params, layer, forward)
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_rotational_consistency(self):
        # Conjugating the orthogonal factors by fixed rotations and rotating
        # the inputs rotates the outputs covariantly.
        layer = self._factors(6, 4, 40)
        f = layer.factors
        rng = np.random.default_rng(4)
        r_minus = rng.standard_normal(6)
        r_plus = rng.standard_normal(4)
        base = [linear_pair(BeliefParams(r_minus, r_plus, 1.1, 0.9), f, 2.0, fw) for fw in (True, False)]
        for k in range(5):
            rot_out = haar(6, 100 + k)
            rot_in = haar(4, 200 + k)
            f2 = type(f)(
                left_orthogonal=rot_out @ f.left_orthogonal,
                singular_values=f.singular_values,
                right_orthogonal=f.right_orthogonal @ rot_in.T,
                bias=rot_out @ f.bias,
            )
            params = BeliefParams(rot_out @ r_minus, rot_in @ r_plus, 1.1, 0.9)
            for rot, fw, (zhat, alpha) in zip((rot_out, rot_in), (True, False), base):
                res_z, res_alpha = linear_pair(params, f2, 2.0, fw)
                np.testing.assert_allclose(res_z, rot @ zhat, atol=1e-8)
                assert res_alpha == pytest.approx(alpha, rel=1e-10)

    @staticmethod
    def direct_gains(s, nu, gm, gp, forward):
        """The gains as each formula wrote out its products: the bit reference."""
        if math.isinf(nu):
            den = gp + gm * s * s
            if forward:
                return gm * s * s / den, s * gp / den, gp / den
            aq = gm * s / den
            return aq, gp / den, -aq
        det = gm * gp + nu * (gp + gm * s * s)
        if forward:
            return gm * (gp + nu * s * s) / det, nu * s * gp / det, nu * gp / det
        aq = nu * s * gm / det
        return aq, gp * (gm + nu) / det, -aq

    @pytest.mark.parametrize("nu", [NOISELESS, 2.0, 1e-3, 7.5e4])
    @pytest.mark.parametrize("forward", [True, False])
    def test_gains_keep_the_direct_formulas_bits(self, nu, forward):
        # the shared products (gm s, gm s s, nu s) are formed once, in the
        # order each formula wrote them
        rng = np.random.default_rng(stable_seed("affine-gains"))
        s = np.concatenate([np.zeros(3), rng.uniform(0.0, 5.0, 200), [1e-9, 1e3]])
        gains = dn.linear_gains_plus if forward else dn.linear_gains_minus
        for gm in (dn.GAMMA_MIN, 0.37, 3.1, dn.GAMMA_MAX):
            for gp in (dn.GAMMA_MIN, 0.9, 42.0, dn.GAMMA_MAX):
                for arg in (s, 0.0):
                    want = self.direct_gains(np.asarray(arg, float), nu, gm, gp, forward)
                    for got, ref in zip(gains(arg, nu, gm, gp), want, strict=True):
                        assert np.array_equal(got, ref, equal_nan=True)


def square_basis_pair(params, u, s, v, bias, nu, forward):
    """``linear_pair`` in the square SVD basis: every null component is formed
    and solved with its zero-padded singular value."""
    gm, gp = params.gamma_minus, params.gamma_plus
    u_out, u_in, bbar = u.T @ params.r_minus, v @ params.r_plus, u.T @ bias
    n = u.shape[0] if forward else v.shape[0]
    s = zero_pad(s, n)
    if forward:
        g_q, g_p, g_b = dn.linear_gains_plus(s, nu, gm, gp)
        return u @ (g_q * u_out + g_p * zero_pad(u_in, n) + g_b * bbar), float(np.mean(g_q))
    g_q, g_p, g_b = dn.linear_gains_minus(s, nu, gm, gp)
    est = g_q * zero_pad(u_out, n) + g_p * u_in + g_b * zero_pad(bbar, n)
    return v.T @ est, float(np.mean(g_p))


def square_basis_output(r_plus, gamma_plus, y, u, s, v, bias, nu):
    """``output_linear`` in the square SVD basis."""
    n = v.shape[0]
    g_r, g_obs = dn.observed_linear_gains(zero_pad(s, n), nu, gamma_plus)
    phat = g_r * (v @ r_plus) + g_obs * zero_pad(u.T @ y - u.T @ bias, n)
    return v.T @ phat, float(np.mean(g_r))


class TestCompactFactors:
    """The compact factors solve every null component at once by projection;
    the square basis forms and solves each one."""

    @staticmethod
    def close(compact, square):
        (z, alpha), (z_ref, alpha_ref) = compact, square
        assert np.max(np.abs(z - z_ref)) <= 1e-12 * np.max(np.abs(z_ref))
        assert abs(alpha - alpha_ref) <= 1e-12 * abs(alpha_ref)

    @pytest.mark.parametrize("shape", [(50, 20), (20, 50), (784, 100), (100, 784)])
    @pytest.mark.parametrize("nu", [NOISELESS, 2.0])
    def test_pair_and_output_match_the_square_basis(self, shape, nu):
        from mlvamp.model import geometric_singular_values

        n_out, n_in = shape
        rng = np.random.default_rng(n_out + n_in)
        u, v = haar(n_out, 30), haar(n_in, 31)
        s = geometric_singular_values(n_out, n_in, 5.0)
        bias = rng.normal(0.4, 0.3, n_out)
        f = layer_from_square_factors(u, s, v, bias, nu).factors
        assert f.left_orthogonal.shape == (n_out, s.size)
        assert f.right_orthogonal.shape == (s.size, n_in)
        params = BeliefParams(rng.standard_normal(n_out), rng.standard_normal(n_in), 1.3, 0.6)
        for forward in (True, False):
            self.close(
                linear_pair(params, f, nu, forward),
                square_basis_pair(params, u, s, v, bias, nu, forward),
            )
        y = rng.standard_normal(n_out)
        self.close(
            output_linear(params.r_plus, 0.6, y, f, nu),
            square_basis_output(params.r_plus, 0.6, y, u, s, v, bias, nu),
        )


class TestReluMmse:
    def test_identity_gaussian_symmetric_zero(self):
        layer = NonlinearLayerSpec("identity", noise_precision=1.0)
        params = BeliefParams(np.zeros(3), np.zeros(3), 1.0, 1.0)
        for forward in (True, False):
            zhat, _ = mmse_pair_nonlinear(params, layer, forward)
            np.testing.assert_allclose(zhat, 0.0, atol=1e-14)

    def test_vacuous_output_message_limit(self):
        # gamma_minus -> 0: the input estimate returns r_plus and the output
        # estimate becomes the prior mean of phi under N(r_plus, 1/gamma_plus).
        gm, gp, rp = 1e-11, 2.0, 0.4
        zp, zm, _, _ = both_sides(
            scalar_pair_mmse, "relu", NOISELESS, np.array([0.0]), np.array([rp]), gm, gp
        )
        assert zm[0] == pytest.approx(rp, abs=1e-6)
        sigma = 1.0 / math.sqrt(gp)
        from scipy.stats import norm

        expected = rp * norm.cdf(rp / sigma) + sigma * norm.pdf(rp / sigma)
        assert zp[0] == pytest.approx(expected, rel=1e-6)

    def test_frozen_oracle_case(self):
        # Trapezoid oracle ([-12, 12], step 1e-4) at gm=2, gp=1, rm=0.3,
        # rp=-0.2; values frozen from the oracle run.
        zp, zm, _, _ = both_sides(
            scalar_pair_mmse, "relu", NOISELESS, np.array([0.3]), np.array([-0.2]), 2.0, 1.0
        )
        assert zp[0] == pytest.approx(0.190880779347, abs=1e-9)
        assert zm[0] == pytest.approx(-0.358335544059, abs=1e-9)
        op, om, odp, odm = trapezoid_mmse("relu", 0.3, -0.2, 2.0, 1.0)
        assert zp[0] == pytest.approx(op, abs=1e-8)
        assert zm[0] == pytest.approx(om, abs=1e-8)

    @pytest.mark.parametrize("activation", ["relu", "sign", "identity", "sigmoid"])
    def test_against_trapezoid_oracle(self, activation):
        rng = np.random.default_rng(stable_seed(activation))
        for _ in range(12):
            rm = rng.uniform(-1.2, 1.2) if activation == "sign" else rng.uniform(-3, 3)
            if activation == "sigmoid":
                rm = rng.uniform(0.1, 0.9)
            rp = rng.uniform(-3, 3)
            gm = rng.uniform(0.1, 5.0)
            gp = rng.uniform(0.1, 5.0)
            zp, zm, dp, dm = both_sides(
                scalar_pair_mmse, activation, NOISELESS, np.array([rm]), np.array([rp]), gm, gp
            )
            op, om, odp, odm = trapezoid_mmse(activation, rm, rp, gm, gp)
            assert zp[0] == pytest.approx(op, abs=1e-6)
            assert zm[0] == pytest.approx(om, abs=1e-6)
            assert dp[0] == pytest.approx(odp, abs=5e-6)
            assert dm[0] == pytest.approx(odm, abs=5e-6)

    def test_noisy_channel_reduction(self):
        # Additive output noise folds into an effective precision; validate
        # against a 2-d trapezoid over (x, z).
        nu, gm, gp, rm, rp = 3.0, 1.5, 0.8, 0.7, -0.4
        zp, zm, _, _ = both_sides(
            scalar_pair_mmse, "relu", nu, np.array([rm]), np.array([rp]), gm, gp
        )
        xs = np.arange(-10, 10, 4e-3)
        zs = np.arange(-10, 10, 4e-3)
        X, Z = np.meshgrid(xs, zs, indexing="ij")
        logw = (
            -0.5 * nu * (Z - np.maximum(X, 0.0)) ** 2
            - 0.5 * gm * (Z - rm) ** 2
            - 0.5 * gp * (X - rp) ** 2
        )
        w = np.exp(logw - logw.max())
        w /= w.sum()
        assert zm[0] == pytest.approx(float((w * X).sum()), abs=2e-5)
        assert zp[0] == pytest.approx(float((w * Z).sum()), abs=2e-5)

    def test_quadrature_order_doubling(self):
        # Sigmoid posterior integrals barely move when the default order
        # doubles.
        rng = np.random.default_rng(11)
        order = dn.DEFAULT_QUAD_ORDER
        worst = 0.0
        for _ in range(40):
            rm = rng.uniform(0.05, 0.95)
            rp = rng.uniform(-3, 3)
            gm = rng.uniform(0.1, 10)
            gp = rng.uniform(0.1, 10)
            a, b = (
                [stat for fw in (False, True)
                 for stat in dn._sigmoid_stats(np.array([rm]), np.array([rp]), gm, gp, fw, order=o)]
                for o in (order, 2 * order)
            )
            worst = max(worst, max(abs(x[0] - y[0]) for x, y in zip(a, b)))
        assert worst <= 1e-8

    def test_non_finite_weights_name_the_flat_component(self):
        # the bad component is (1, 1) of a (2, 3) input: flat index 4
        r_out = np.full((2, 3), 0.5)
        r_out[1, 1] = np.nan
        with pytest.raises(NumericFailureError, match=r"at component 4$"):
            dn._sigmoid_stats(r_out, np.zeros((2, 3)), 2.0, 1.0, True)


def two_pass_relu_stats(r_out, r_in, g_out, g_in):
    """The relu rule with two positive-branch ``log_ndtr`` passes: one for the
    branch weight at ``m_pos sqrt(gt)``, one inside the truncated moments.

    Returns the four statistics and, for each, the size of the terms it
    sums: a sum of opposite signs (``E[x]``) or a variance taken as a
    difference of moments magnifies a rounding-level change in the terms.
    """
    r_out, r_in = np.asarray(r_out, float), np.asarray(r_in, float)
    sig_in = 1.0 / math.sqrt(g_in)
    gt = g_out + g_in
    m_pos = (g_out * r_out + g_in * r_in) / gt
    log_neg = -0.5 * g_out * r_out**2 + log_ndtr(-r_in * math.sqrt(g_in)) - 0.5 * math.log(g_in)
    log_pos = (
        -0.5 * (g_out * g_in / gt) * (r_out - r_in) ** 2
        + log_ndtr(m_pos * math.sqrt(gt))
        - 0.5 * math.log(gt)
    )
    w_pos, w_neg = four_field_rules._branch_weights(log_pos, log_neg)
    e_neg, v_neg = four_field_rules._trunc_upper_moments(r_in, sig_in, 0.0)
    e_pos, v_pos = four_field_rules._trunc_lower_moments(m_pos, 1.0 / math.sqrt(gt), 0.0)
    ex = w_neg * e_neg + w_pos * e_pos
    ex2 = w_neg * (v_neg + e_neg**2) + w_pos * (v_pos + e_pos**2)
    vx = np.clip(ex2 - ex**2, 0.0, None)
    ephi = w_pos * e_pos
    ephi2 = w_pos * (v_pos + e_pos**2)
    vphi = np.clip(ephi2 - ephi**2, 0.0, None)
    scales = (w_neg * np.abs(e_neg) + w_pos * np.abs(e_pos), ex2, np.abs(ephi), ephi2)
    return (ex, vx, ephi, vphi), scales


class TestSharedReluLogMass:
    """``_relu_stats`` evaluates the positive branch's log-mass once, for its
    weight and its truncated moments; the two-pass rule is the reference."""

    #: (g_out, g_in) pairs at which the argument reaches +-37 with O(1) messages
    PRECISIONS = [(1.0, 1.0), (3.0, 0.7), (40.0, 0.02), (150.0, 2.5), (400.0, 300.0), (2500.0, 0.3)]

    @staticmethod
    def assert_matches_two_passes(r_out, r_in, g_out, g_in):
        t = (g_out * r_out + g_in * r_in) / (g_out + g_in) * math.sqrt(g_out + g_in)
        assert t.min() <= -36.0 and t.max() >= 36.0
        wants, scales = two_pass_relu_stats(r_out, r_in, g_out, g_in)
        gots = [*dn._relu_stats(r_out, r_in, g_out, g_in, False),
                *dn._relu_stats(r_out, r_in, g_out, g_in, True)]
        for got, want, scale in zip(gots, wants, scales):
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-12 * scale)

    @pytest.mark.parametrize("g_out, g_in", PRECISIONS)
    @pytest.mark.parametrize("seed", range(5))
    def test_engine_vectors(self, g_out, g_in, seed):
        # a 784-vector whose positive-branch argument m_pos sqrt(gt) spans -37 .. 37
        gt = g_out + g_in
        r_in = np.random.default_rng(seed).standard_normal(784)
        r_out = (np.linspace(-37.0, 37.0, 784) * math.sqrt(gt) - g_in * r_in) / g_out
        self.assert_matches_two_passes(r_out, r_in, g_out, g_in)

    @pytest.mark.parametrize("g_out, g_in", PRECISIONS)
    def test_broadcast_predictor_grid(self, g_out, g_in):
        # the predictor's layout: truth on axis 0, r_plus's and r_minus's
        # nodes on axes 1 and 2, broadcast against each other
        nodes = gauss_hermite_rule(12).nodes
        truth = np.linspace(-37.0, 37.0, 132)[:, None, None] / math.sqrt(g_out + g_in)
        r_in = truth + 0.1 * nodes[None, :, None]
        r_out = truth + 0.1 * nodes[None, None, :]
        self.assert_matches_two_passes(r_out, r_in, g_out, g_in)

    def test_the_positive_moments_keep_their_bits(self):
        # the shared log-mass is the one the textbook moments compute for themselves
        m, sig = np.linspace(-40.0, 40.0, 801), 1.0 / math.sqrt(7.3)
        for got, want in zip(dn._moments_above(m, sig, m / sig, log_ndtr(m / sig)),
                             four_field_rules._trunc_lower_moments(m, sig, 0.0)):
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestBranchWeights:
    """``_branch_weight`` forms ``1 / (1 + exp(log_b - log_a))`` with numpy's
    ``exp``; ``expit(log_a - log_b)`` is the reference."""

    def test_matches_expit(self):
        rng = np.random.default_rng(stable_seed("branch-weights"))
        edges = [np.inf, -np.inf, np.nan, 0.0, -0.0, 36.7, 37.0, -709.78, -709.79]
        gap = np.concatenate([np.linspace(-750.0, 750.0, 150_001),
                              30.0 * rng.standard_normal(100_000), edges])
        want = expit(gap)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w_a = dn._branch_weight(gap, 0.0)
        finite = np.isfinite(want)
        assert np.all(np.abs(w_a - want)[finite] <= 4 * np.spacing(want[finite]))
        for exact in (0.0, 1.0):
            assert np.all(w_a[want == exact] == exact)
        np.testing.assert_array_equal(np.isnan(w_a), np.isnan(want))


class TestOneSideRules:
    """Each separable rule returns, bit for bit, the side it is asked for of
    the rule that computed both (``four_field_rules``), NaN and inf included."""

    @staticmethod
    def messages(activation, layout, finite):
        rng = np.random.default_rng(stable_seed(activation, layout))
        if layout == "engine":  # one 784-vector per message
            r_out, r_in = rng.standard_normal((2, 784)) * 3.0
        else:  # the predictor's broadcast grid: r_in on axis 1, r_out on axis 2
            truth = np.linspace(-4.0, 4.0, 12)[:, None, None]
            nodes = gauss_hermite_rule(12).nodes
            r_in = truth + 0.7 * nodes[None, :, None]
            r_out = truth + 0.7 * nodes[None, None, :]
        if activation == "sigmoid":
            r_out = expit(r_out)
        if not finite:
            r_out.flat[[3, 4]] = np.nan, np.inf
            r_in.flat[[5, 6]] = -np.inf, np.nan
        return r_out, r_in

    @staticmethod
    def outcome(rule, *args):
        try:
            return rule(*args)
        except NumericFailureError as exc:
            return str(exc)

    @pytest.mark.parametrize("finite", [True, False])
    @pytest.mark.parametrize("layout", ["engine", "grid"])
    @pytest.mark.parametrize("nu", [NOISELESS, 4.0])
    @pytest.mark.parametrize("mode", ["mmse", "map"])
    @pytest.mark.parametrize("activation", ["identity", "relu", "sign", "sigmoid"])
    def test_the_side_asked_for_keeps_its_bits(self, activation, mode, nu, layout, finite):
        r_out, r_in = self.messages(activation, layout, finite)
        args = (activation, nu, r_out, r_in, 1.7, 0.6)
        with np.errstate(all="ignore"):
            want = self.outcome(getattr(four_field_rules, f"scalar_pair_{mode}"), *args)
            got = [self.outcome(dn.scalar_pair, mode, *args, fw) for fw in (True, False)]
        if isinstance(want, str):  # the sigmoid rule rejects non-finite weights
            assert not finite and got == [want, want]
            return
        zp, zm, dp, dm = want
        for (z, d), (z_want, d_want) in zip(got, ((zp, dp), (zm, dm))):
            assert z.shape == z_want.shape and d.shape == d_want.shape
            np.testing.assert_array_equal(z, z_want)
            np.testing.assert_array_equal(d, d_want)


class TestReluMap:
    def test_consistent_interior_point(self):
        zp, zm, _, _ = both_sides(
            scalar_pair_map, "relu", NOISELESS, np.array([1.0]), np.array([1.0]), 1.3, 0.7
        )
        assert zm[0] == pytest.approx(1.0)
        assert zp[0] == pytest.approx(1.0)

    def test_negative_branch(self):
        zp, zm, _, _ = both_sides(
            scalar_pair_map, "relu", NOISELESS, np.array([-1.0]), np.array([-1.0]), 1.3, 0.7
        )
        assert zm[0] == pytest.approx(-1.0)
        assert zp[0] == pytest.approx(0.0)

    def test_frozen_grid_oracle_case(self):
        # Grid search ([-10, 10], step 1e-5) at gm=gp=1, rm=2, rp=-0.5.
        zp, zm, _, _ = both_sides(
            scalar_pair_map, "relu", NOISELESS, np.array([2.0]), np.array([-0.5]), 1.0, 1.0
        )
        assert zm[0] == pytest.approx(0.75, abs=1e-9)
        assert zp[0] == pytest.approx(0.75, abs=1e-9)
        assert grid_map("relu", NOISELESS, 2.0, -0.5, 1.0, 1.0) == pytest.approx(0.75, abs=2e-5)

    def test_tie_break_takes_the_nonnegative_branch(self):
        # Symmetric configuration where both branches cost the same.
        zp, zm, _, _ = both_sides(
            scalar_pair_map, "relu", NOISELESS, np.array([0.0]), np.array([0.0]), 1.0, 1.0
        )
        assert zm[0] == 0.0 and zp[0] == 0.0

    @pytest.mark.parametrize("activation,nu", [("relu", NOISELESS), ("relu", 5.0), ("sign", NOISELESS), ("sigmoid", NOISELESS)])
    def test_against_grid_oracle(self, activation, nu):
        rng = np.random.default_rng(17)
        for _ in range(10):
            rm = rng.uniform(-1.2, 1.2) if activation == "sign" else rng.uniform(-2.5, 2.5)
            if activation == "sigmoid":
                rm = rng.uniform(0.1, 0.9)
            rp = rng.uniform(-2.5, 2.5)
            gm = rng.uniform(0.2, 4.0)
            gp = rng.uniform(0.2, 4.0)
            zp, zm, _, _ = both_sides(
                scalar_pair_map, activation, nu, np.array([rm]), np.array([rp]), gm, gp
            )
            ref = grid_map(activation, nu, rm, rp, gm, gp)
            cost_mine = _pair_cost(activation, nu, zp[0], zm[0], rm, rp, gm, gp)
            cost_ref = scalar_belief_cost(activation, nu, ref, rm, rp, gm, gp)
            # the minimizer may sit in a flat region; compare costs
            assert cost_mine <= cost_ref + 1e-8

    def test_proximal_property(self):
        # The maximizer never has a larger cost than the input point.
        rng = np.random.default_rng(23)
        for activation in ("relu", "sign", "identity", "sigmoid"):
            for _ in range(25):
                rm = rng.uniform(0.1, 0.9) if activation == "sigmoid" else rng.uniform(-3, 3)
                rp = rng.uniform(-3, 3)
                gm = rng.uniform(0.1, 5)
                gp = rng.uniform(0.1, 5)
                zp, zm, _, _ = both_sides(
                    scalar_pair_map, activation, NOISELESS, np.array([rm]), np.array([rp]), gm, gp
                )
                at_opt = _pair_cost(activation, NOISELESS, zp[0], zm[0], rm, rp, gm, gp)
                at_input = scalar_belief_cost(activation, NOISELESS, rp, rm, rp, gm, gp)
                assert at_opt <= at_input + 1e-12


class TestDivergences:
    """Analytic divergences versus central finite differences."""

    def _random_params(self, rng, activation):
        rm = rng.uniform(0.1, 0.9, 25) if activation == "sigmoid" else rng.uniform(-3, 3, 25)
        rp = rng.uniform(-3, 3, 25)
        gm = float(rng.uniform(0.2, 5))
        gp = float(rng.uniform(0.2, 5))
        return rm, rp, gm, gp

    @pytest.mark.parametrize("activation", ["identity", "relu", "sign", "sigmoid"])
    @pytest.mark.parametrize("nu", [NOISELESS, 4.0])
    def test_mmse_alpha_identity(self, activation, nu):
        rng = np.random.default_rng(stable_seed(activation, nu))
        for _ in range(4):
            rm, rp, gm, gp = self._random_params(rng, activation)

            def fn(a, b):
                zp, zm, _, _ = both_sides(scalar_pair_mmse, activation, nu, a, b, gm, gp)
                return zp, zm

            fd_p, fd_m = divergence_finite_difference(fn, rm, rp, epsilon=1e-5)
            zp, zm, dp, dm = both_sides(scalar_pair_mmse, activation, nu, rm, rp, gm, gp)
            assert float(np.mean(dp)) == pytest.approx(fd_p, abs=1e-4)
            assert float(np.mean(dm)) == pytest.approx(fd_m, abs=1e-4)

    @pytest.mark.parametrize("activation", ["identity", "relu", "sigmoid"])
    def test_map_alpha_matches_branch_slopes(self, activation):
        rng = np.random.default_rng(stable_seed(activation, "map"))
        for _ in range(4):
            rm, rp, gm, gp = self._random_params(rng, activation)

            def fn(a, b):
                zp, zm, _, _ = both_sides(scalar_pair_map, activation, NOISELESS, a, b, gm, gp)
                return zp, zm

            fd_p, fd_m = divergence_finite_difference(fn, rm, rp, epsilon=1e-6)
            _, _, dp, dm = both_sides(scalar_pair_map, activation, NOISELESS, rm, rp, gm, gp)
            assert float(np.mean(dp)) == pytest.approx(fd_p, abs=1e-4)
            assert float(np.mean(dm)) == pytest.approx(fd_m, abs=1e-4)

    def test_constant_map_has_zero_divergence(self):
        def fn(a, b):
            return np.ones_like(a), np.ones_like(b)

        fd_p, fd_m = divergence_finite_difference(fn, np.zeros(4), np.zeros(4))
        assert fd_p == 0.0 and fd_m == 0.0

    def test_linear_pair_divergence(self):
        from mlvamp.model import geometric_singular_values

        u = haar(8, 5)
        v = haar(6, 6)
        s = geometric_singular_values(8, 6, 4.0)
        rng = np.random.default_rng(7)
        layer = layer_from_square_factors(u, s, v, rng.normal(0, 0.3, 8), 2.0)
        f = layer.factors
        gm, gp = 1.3, 0.6

        def fn(a, b):
            params = BeliefParams(a, b, gm, gp)
            return linear_pair(params, f, 2.0, True)[0], linear_pair(params, f, 2.0, False)[0]

        rm = rng.standard_normal(8)
        rp = rng.standard_normal(6)
        fd_p, fd_m = divergence_finite_difference(fn, rm, rp, epsilon=1e-6)
        params = BeliefParams(rm, rp, gm, gp)
        # mean derivative in the original coordinates equals the mean of the
        # per-component gains in the rotated ones
        assert linear_pair(params, f, 2.0, True)[1] == pytest.approx(fd_p, abs=1e-7)
        assert linear_pair(params, f, 2.0, False)[1] == pytest.approx(fd_m, abs=1e-7)


class TestObservedSeparableOutput:
    """``separable_output_fields`` on an exactly observed relu or sign output
    keeps the bits of the textbook truncated moments (``four_field_rules``)."""

    R_PLUS = np.concatenate([[0.0, -0.0, 1e-300, -1e-300, -40.0, 40.0],
                             np.linspace(-40.0, 40.0, 161),
                             3.0 * np.random.default_rng(7).standard_normal(200)])

    @staticmethod
    def want(activation, mode, r, gp, y):
        sd = 1.0 / math.sqrt(gp)
        if mode == "mmse":  # the posterior moments on each side of 0, variances scaled by gp
            (e_pos, v_pos), (e_neg, v_neg) = (four_field_rules._trunc_lower_moments(r, sd),
                                              four_field_rules._trunc_upper_moments(r, sd))
            pos, neg = (e_pos, gp * v_pos), (e_neg, gp * v_neg)
        else:  # each side's maximizer and its slope
            pos = np.maximum(r, 0.0), (r > 0.0).astype(float)
            neg = np.minimum(r, 0.0), (r < 0.0).astype(float)
        if activation == "relu":  # y > 0 reveals the input, y = 0 puts it below 0
            pos = y, np.zeros_like(y)
        up = y > 0
        return np.where(up, pos[0], neg[0]), np.where(up, pos[1], neg[1])

    @pytest.mark.parametrize("gp", [1e-10, 1e-3, 0.37, 1.0, 7.3, 1e3, 1e10])
    @pytest.mark.parametrize("mode", ["mmse", "map"])
    @pytest.mark.parametrize("activation", ["relu", "sign"])
    def test_fields_keep_their_bits(self, activation, mode, gp):
        r = self.R_PLUS
        up = np.arange(r.size) % 3 == 0
        for mask in (up, ~up):  # each special input on both sides
            y = np.where(mask, 1.5, 0.0) if activation == "relu" else np.where(mask, 1.0, -1.0)
            got = separable_output_fields(r, gp, y, activation, NOISELESS, mode)
            for g, w in zip(got, self.want(activation, mode, r, gp, y)):
                np.testing.assert_array_equal(g.view(np.uint64), w.view(np.uint64))


class TestOutputDenoisers:
    def test_exact_identity_observation(self):
        y = np.array([0.3, -1.2])
        zhat, _ = separable_output_fields(
            np.array([5.0, 5.0]), 1e-9, y, "identity", NOISELESS, "mmse"
        )
        np.testing.assert_allclose(zhat, y)

    def test_awgn_scalar_channel(self):
        y = np.array([2.0])
        zhat, _ = separable_output_fields(np.array([0.5]), 1.0, y, "identity", 1.0, "mmse")
        assert zhat[0] == pytest.approx(1.25)  # (y + r)/2 with nu=gp=1

    def test_occlusion_rows(self):
        # Selection-matrix measurement: observed coordinates follow the
        # conjugacy formula, erased coordinates return the pseudo-observation.
        keep = np.array([1.0, 0.0, 1.0, 0.0])
        w = np.diag(keep)[keep > -1]  # full 4x4 diag with zero rows
        layer = LinearLayerSpec.from_weight(
            weight=np.diag(keep), bias=np.zeros(4), noise_precision=2.0
        )
        f = layer.factors
        rng = np.random.default_rng(9)
        r_plus = rng.standard_normal(4)
        y = np.array([0.7, 0.0, -0.3, 0.0])
        zhat, _ = output_linear(r_plus, 3.0, y, f, 2.0)
        for i in range(4):
            if keep[i] > 0:
                expected = (3.0 * r_plus[i] + 2.0 * y[i]) / 5.0
            else:
                expected = r_plus[i]
            assert zhat[i] == pytest.approx(expected, abs=1e-12)

    def test_relu_exact_observation(self):
        y = np.array([1.5, 0.0])
        r_plus = np.array([0.3, 0.8])
        zhat, _ = separable_output_fields(r_plus, 2.0, y, "relu", NOISELESS, "mmse")
        assert zhat[0] == pytest.approx(1.5)
        # y == 0 leaves an upper-truncated posterior; reference by trapezoid
        xs = np.arange(-12, 0, 1e-5)
        w = np.exp(-0.5 * 2.0 * (xs - 0.8) ** 2)
        w /= w.sum()
        assert zhat[1] == pytest.approx(float(w @ xs), abs=1e-5)

    def test_relu_map_exact_observation(self):
        zhat, _ = separable_output_fields(
            np.array([0.8, -0.4]), 2.0, np.array([0.0, 0.0]), "relu", NOISELESS, "map"
        )
        assert zhat[0] == pytest.approx(0.0)
        assert zhat[1] == pytest.approx(-0.4)
