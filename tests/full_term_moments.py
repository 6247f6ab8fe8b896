"""The predictor's moment algebra as it was when every moment summed all its terms.

``_affine_step`` here forms each affine-layer moment as the component mean of
all seven terms of ``_cross_moment``, zero coefficients and zero variances
included, from the gains the caller picked; ``affine_step`` picks them as
``se_forward_layer`` and ``se_backward_layer`` did and has the package's
signature.  ``_extrinsic_moments`` takes its grid sums with ``np.sum`` and
forms ``w * truth`` anew for each truth moment.  They are the reference for the
package's steps, which must return the same bits.
"""

import math

import numpy as np

from mlvamp import denoisers as dn
from mlvamp.model import zero_pad


def _bias_terms(layer, n):
    """(deterministic per-component value, shared Gaussian variance)."""
    if layer.bbar_atoms is not None:
        return zero_pad(layer.bbar_atoms, n), 0.0
    return np.zeros(n), float(layer.bbar_var)


def _cross_moment(ca, da, cb, db, K, tau_m, xi_var, b_var):
    return (
        ca[0] * cb[0] * K[0, 0]
        + (ca[0] * cb[1] + ca[1] * cb[0]) * K[0, 1]
        + ca[1] * cb[1] * K[1, 1]
        + ca[2] * cb[2] * tau_m
        + ca[3] * cb[3] * xi_var
        + ca[4] * cb[4] * b_var
        + da * db
    )


def _affine_step(layer, forward, gains, K_prev, tau_m, clip):
    nu = layer.noise_precision
    xi_var = 0.0 if math.isinf(nu) else 1.0 / nu
    s = zero_pad(layer.singular_values, layer.n_out if forward else layer.n_in)
    atoms, b_var = _bias_terms(layer, s.size)
    g_q, g_p, g_b = gains
    one = np.ones_like(s)
    zero = np.zeros_like(s)
    # (coefficients on X, deterministic part) of the estimate, truth and message
    c_est, d_est = (g_q * s + g_p, g_p, g_q, g_q, g_q + g_b), atoms * (g_q + g_b)
    if forward:
        c_t, d_t, c_msg = (s, zero, zero, one, one), atoms, (zero, zero, one, zero, zero)
        alpha = clip(np.mean(g_q))
    else:
        c_t, d_t, c_msg = (one, zero, zero, zero, zero), zero, (zero, one, zero, zero, zero)
        alpha = clip(np.mean(g_p))
    c_err = tuple(ce - ct for ce, ct in zip(c_est, c_t))
    d_err = d_est - d_t
    scale = 1.0 / (1.0 - alpha)
    c_ext = tuple((ce - alpha * cm) * scale for ce, cm in zip(c_err, c_msg))
    d_ext = d_err * scale

    def moment(ca, da, cb, db):
        return float(np.mean(_cross_moment(ca, da, cb, db, K_prev, tau_m, xi_var, b_var)))

    mse, k11 = moment(c_err, d_err, c_err, d_err), moment(c_ext, d_ext, c_ext, d_ext)
    if not forward:
        return alpha, k11, mse
    k01 = moment(c_t, d_t, c_ext, d_ext)
    return alpha, np.array([[moment(c_t, d_t, c_t, d_t), k01], [k01, k11]]), mse


def affine_step(layer, forward, K_prev, tau_m, gm, gp_prev, clip):
    """``_affine_step`` with the gains of the layer's precisions (``gm = inf``:
    the observed output)."""
    nu = layer.noise_precision
    if forward:
        s = zero_pad(layer.singular_values, layer.n_out)
        gains = dn.linear_gains_plus(s, nu, gm, gp_prev)
    else:
        s = zero_pad(layer.singular_values, layer.n_in)
        if math.isinf(gm):
            g_r, g_obs = dn.observed_linear_gains(s, nu, gp_prev)
            gains = (g_obs, g_r, -g_obs)
        else:
            gains = dn.linear_gains_minus(s, nu, gm, gp_prev)
    return _affine_step(layer, forward, gains, K_prev, tau_m, clip)


def _extrinsic_moments(w, truth, message, est, alpha, forward):
    err = est - truth
    ext = err - alpha * (message - truth)
    ext /= 1.0 - alpha

    def moment(a, b):  # sum(w * a * b), with one product on the full grid
        prod = w * a
        prod *= b
        return float(np.sum(prod))

    mse, k11 = moment(err, err), moment(ext, ext)
    if not forward:
        return alpha, k11, mse
    k01 = moment(truth, ext)
    return alpha, np.array([[moment(truth, truth), k01], [k01, k11]]), mse
