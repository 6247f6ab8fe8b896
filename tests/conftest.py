"""Shared builders for network fixtures, exact Gaussian references and
finite-difference oracles."""

import numpy as np
import pytest

from mlvamp.denoisers import _effective_channel
from mlvamp.model import (
    NOISELESS,
    LinearLayerSpec,
    NetworkSpec,
    NonlinearLayerSpec,
    apply_activation,
    geometric_singular_values,
    linear_layer_from_factors,
    sample_haar_orthogonal,
)
from mlvamp.seeding import substream


def haar(n, seed):
    """``sample_haar_orthogonal`` on the integer seed's own substream."""
    return sample_haar_orthogonal(n, substream(seed, 0x0A17))


def layer_from_square_factors(left, s, right, bias, noise_precision):
    """``linear_layer_from_factors`` on square orthogonal factors (such as
    ``haar`` draws), cut to their first ``s.size`` columns and rows."""
    k = s.size
    return linear_layer_from_factors(left[:, :k].copy(), s, right[:k].copy(), bias, noise_precision)


def both_sides(rule, *args):
    """``(zhat_plus, zhat_minus, d_plus, d_minus)`` of a one-side scalar pair rule
    (``scalar_pair_mmse`` or ``scalar_pair_map``), asked once for each side."""
    (zp, dp), (zm, dm) = rule(*args, True), rule(*args, False)
    return zp, zm, dp, dm


def network_from_layers(layers):
    """A network whose ``dims`` follow from its layers; the first must be affine."""
    dims = [layers[0].in_dim]
    for layer in layers:
        dims.append(layer.out_dim if layer.kind == "linear" else dims[-1])
    return NetworkSpec(layers=tuple(layers), dims=tuple(dims))


def divergence_finite_difference(fn, r_minus, r_plus, epsilon=1e-6):
    """Central-difference estimate of both mean divergences of a pair map.

    ``fn(r_minus, r_plus) -> (zhat_plus, zhat_minus)``.  Validates the
    analytic values; O(N^2) evaluations.
    """
    r_minus = np.asarray(r_minus, float)
    r_plus = np.asarray(r_plus, float)
    n_minus, n_plus = r_minus.size, r_plus.size
    acc_p = 0.0
    for i in range(n_minus):
        hi = r_minus.copy()
        lo = r_minus.copy()
        hi[i] += epsilon
        lo[i] -= epsilon
        zp_hi, _ = fn(hi, r_plus)
        zp_lo, _ = fn(lo, r_plus)
        acc_p += (zp_hi[i] - zp_lo[i]) / (2.0 * epsilon)
    acc_m = 0.0
    for i in range(n_plus):
        hi = r_plus.copy()
        lo = r_plus.copy()
        hi[i] += epsilon
        lo[i] -= epsilon
        _, zm_hi = fn(r_minus, hi)
        _, zm_lo = fn(r_minus, lo)
        acc_m += (zm_hi[i] - zm_lo[i]) / (2.0 * epsilon)
    return acc_p / n_minus, acc_m / n_plus


def scalar_belief_cost(activation, noise_precision, x, r_minus, r_plus, gamma_minus, gamma_plus):
    """Negative log of the (profiled) belief as a function of the layer input.

    For noisy channels the output variable is profiled out analytically,
    which preserves the joint minimizer.
    """
    g_eff = _effective_channel(gamma_minus, noise_precision)
    phi = apply_activation(activation, x)
    return 0.5 * g_eff * (phi - r_minus) ** 2 + 0.5 * gamma_plus * (x - r_plus) ** 2


def make_gaussian_chain(dims, noise_precisions, conds=None, seed=0, bias_scale=0.3,
                        unit_spectrum=False):
    """All-affine chain with orthogonally mixed weights."""
    rng = np.random.default_rng(seed)
    conds = conds or [2.0] * (len(dims) - 1)
    layers = []
    for i in range(len(dims) - 1):
        n_in, n_out = dims[i], dims[i + 1]
        left = haar(n_out, seed * 1000 + 2 * i)
        right = haar(n_in, seed * 1000 + 2 * i + 1)
        if unit_spectrum:
            s = np.ones(min(n_out, n_in))
        else:
            s = geometric_singular_values(n_out, n_in, conds[i])
        bias = rng.normal(0.0, bias_scale, n_out)
        layers.append(layer_from_square_factors(left, s, right, bias, noise_precisions[i]))
    return network_from_layers(tuple(layers))


def exact_gaussian_posterior(spec, y):
    """Closed-form joint posterior (mean and covariance) of an affine chain."""
    dims = spec.dims[:-1]
    off = np.concatenate([[0], np.cumsum(dims)])
    n_tot = off[-1]
    prec = np.zeros((n_tot, n_tot))
    lin = np.zeros(n_tot)
    prec[: dims[0], : dims[0]] += np.eye(dims[0])
    for i, layer in enumerate(spec.layers):
        if layer.kind != "linear":
            raise ValueError("exact posterior requires an all-affine chain")
        nu, w, b = layer.noise_precision, layer.weight, layer.bias
        a = off[i]
        prec[a : a + dims[i], a : a + dims[i]] += nu * w.T @ w
        if i < len(spec.layers) - 1:
            bidx = off[i + 1]
            prec[bidx : bidx + dims[i + 1], bidx : bidx + dims[i + 1]] += nu * np.eye(dims[i + 1])
            prec[a : a + dims[i], bidx : bidx + dims[i + 1]] += -nu * w.T
            prec[bidx : bidx + dims[i + 1], a : a + dims[i]] += -nu * w
            lin[a : a + dims[i]] += -nu * w.T @ b
            lin[bidx : bidx + dims[i + 1]] += nu * b
        else:
            lin[a : a + dims[i]] += nu * w.T @ (np.asarray(y) - b)
    cov = np.linalg.inv(prec)
    mean = cov @ lin
    means = [mean[off[i] : off[i + 1]] for i in range(len(dims))]
    avg_vars = [
        float(np.trace(cov[off[i] : off[i + 1], off[i] : off[i + 1]])) / dims[i]
        for i in range(len(dims))
    ]
    return means, avg_vars


def make_relu_network(dims, rho, nu_lin, nu_act, nu_meas, seed=0, cond=3.0, bias_std=0.5):
    """Alternating affine/relu chain with bias means tuned to a positive fraction."""
    from scipy.special import ndtri

    rng = np.random.default_rng(seed)
    layers = []
    v = 1.0
    n_pairs = (len(dims) - 2) // 2
    for i in range(n_pairs + 1):
        n_in = dims[2 * i]
        n_out = dims[2 * i + 1]
        last = i == n_pairs
        left = haar(n_out, seed * 777 + 2 * i)
        right = haar(n_in, seed * 777 + 2 * i + 1)
        s = geometric_singular_values(n_out, n_in, cond)
        v_pre = float(np.sum(s * s)) / n_out * v
        sigma_pre = np.sqrt(v_pre + bias_std**2)
        mu_b = 0.0 if last else sigma_pre * ndtri(rho)
        bias = rng.normal(mu_b, bias_std, n_out)
        layers.append(
            layer_from_square_factors(left, s, right, bias, nu_meas if last else nu_lin)
        )
        if not last:
            layers.append(NonlinearLayerSpec("relu", noise_precision=nu_act))
            x = mu_b + sigma_pre * rng.standard_normal(20_000)
            v = float(np.mean(np.maximum(x, 0.0) ** 2))
            if np.isfinite(nu_act):
                v += 1.0 / nu_act
    return network_from_layers(tuple(layers))
