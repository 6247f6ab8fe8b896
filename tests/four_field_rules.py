"""The separable rules as they were when each call returned both sides.

``scalar_pair_mmse`` and ``scalar_pair_map`` here return ``(zhat_plus,
zhat_minus, d_plus, d_minus)`` from one evaluation, and the posterior
statistics ``(E[x], Var[x], E[phi(x)], Var[phi(x)])``; they clamp with
``np.clip``.  They are the reference for the package's one-side rules, which
must return bit for bit the side they are asked for.  Helpers the one-side
rules did not change are imported from the package.
"""

import math

import numpy as np
from scipy.special import expit, log_ndtr

from mlvamp.denoisers import (
    _MAP,
    _PANEL_OFFSETS,
    DEFAULT_QUAD_ORDER,
    _branch_weight,
    _effective_channel,
    _norm_logpdf,
    _sigmoid_basins,
    _sigmoid_cost_derivs,
)
from mlvamp.errors import NumericFailureError


def _trunc_lower_moments(mu, sigma, cut=0.0, log_mass=None):
    """Mean and variance of N(mu, sigma^2) conditioned on exceeding ``cut``.

    ``log_mass`` is the log-probability of the condition,
    ``log_ndtr((mu - cut) / sigma)``, when the caller has it.
    """
    alpha = (cut - mu) / sigma
    if log_mass is None:
        log_mass = log_ndtr(-alpha)
    lam = np.exp(_norm_logpdf(alpha) - log_mass)
    mean = mu + sigma * lam
    var = sigma * sigma * np.clip(1.0 - lam * (lam - alpha), 0.0, 1.0)
    return mean, var


def _trunc_upper_moments(mu, sigma, cut=0.0, log_mass=None):
    """Mean and variance of N(mu, sigma^2) conditioned on staying below ``cut``.

    ``log_mass`` is ``log_ndtr((cut - mu) / sigma)``, when the caller has it.
    """
    mean, var = _trunc_lower_moments(-np.asarray(mu, dtype=float), sigma, -cut, log_mass)
    return -mean, var


def _branch_weights(log_a, log_b):
    """Normalized (w_a, w_b) from log-masses, stable under large gaps."""
    wa = _branch_weight(log_a, log_b)
    return wa, 1.0 - wa


def _identity_stats(r_out, r_in, g_out, g_in):
    gt = g_out + g_in
    m = (g_out * r_out + g_in * r_in) / gt
    v = np.broadcast_to(np.asarray(1.0 / gt), np.shape(m)).copy()
    return m, v, m, v


def _relu_stats(r_out, r_in, g_out, g_in):
    # not broadcast up front: a factor of r_in alone is evaluated on r_in's points
    r_out, r_in = np.asarray(r_out, float), np.asarray(r_in, float)
    sig_in = 1.0 / math.sqrt(g_in)
    gt = g_out + g_in
    sig_pos = 1.0 / math.sqrt(gt)
    m_pos = (g_out * r_out + g_in * r_in) / gt
    # each branch's log-mass, P(x > 0) under N(m_pos, sig_pos^2) and P(x < 0)
    # under N(r_in, sig_in^2), is shared by its weight and its moments
    log_mass = log_ndtr(m_pos / sig_pos)
    log_neg_mass = log_ndtr(-(r_in / sig_in))
    log_neg = -0.5 * g_out * r_out**2 + log_neg_mass - 0.5 * math.log(g_in)
    log_pos = -0.5 * (g_out * g_in / gt) * (r_out - r_in) ** 2 + log_mass - 0.5 * math.log(gt)
    w_pos, w_neg = _branch_weights(log_pos, log_neg)
    e_neg, v_neg = _trunc_upper_moments(r_in, sig_in, 0.0, log_neg_mass)
    e_pos, v_pos = _trunc_lower_moments(m_pos, sig_pos, 0.0, log_mass)
    ex = w_neg * e_neg + w_pos * e_pos
    ex2 = w_neg * (v_neg + e_neg**2) + w_pos * (v_pos + e_pos**2)
    vx = np.clip(ex2 - ex**2, 0.0, None)
    ephi = w_pos * e_pos
    ephi2 = w_pos * (v_pos + e_pos**2)
    vphi = np.clip(ephi2 - ephi**2, 0.0, None)
    return ex, vx, ephi, vphi


def _sign_stats(r_out, r_in, g_out, g_in):
    r_out, r_in = np.asarray(r_out, float), np.asarray(r_in, float)
    sig_in = 1.0 / math.sqrt(g_in)
    # log P(x > 0) and log P(x < 0) under N(r_in, sig_in^2): weights and moments share them
    z = r_in / sig_in
    log_pos_mass, log_neg_mass = log_ndtr(z), log_ndtr(-z)
    log_pos = -0.5 * g_out * (1.0 - r_out) ** 2 + log_pos_mass
    log_neg = -0.5 * g_out * (1.0 + r_out) ** 2 + log_neg_mass
    w_pos, w_neg = _branch_weights(log_pos, log_neg)
    e_pos, v_pos = _trunc_lower_moments(r_in, sig_in, 0.0, log_pos_mass)
    e_neg, v_neg = _trunc_upper_moments(r_in, sig_in, 0.0, log_neg_mass)
    ex = w_neg * e_neg + w_pos * e_pos
    ex2 = w_neg * (v_neg + e_neg**2) + w_pos * (v_pos + e_pos**2)
    vx = np.clip(ex2 - ex**2, 0.0, None)
    ephi = w_pos - w_neg
    vphi = np.clip(1.0 - ephi**2, 0.0, 1.0)
    return ex, vx, ephi, vphi



def _sigmoid_stats(r_out, r_in, g_out, g_in, order=DEFAULT_QUAD_ORDER):
    """Posterior statistics for the sigmoid channel.

    The belief has at most two basins (prior pull versus the channel's
    preferred level set).  Both local modes are located, panel edges are
    placed geometrically around each at its own curvature scale, and each
    panel is integrated with a Gauss-Legendre rule: robust to bimodality
    and narrow channel constraints, spectrally accurate per panel.
    """
    r_out, r_in = np.broadcast_arrays(np.asarray(r_out, float), np.asarray(r_in, float))
    x_a, x_b = _sigmoid_basins(r_out, r_in, g_out, g_in)
    floor = 0.25 * g_in
    edge_sets = []
    for mode in (x_a, x_b):
        _, _, _, curv = _sigmoid_cost_derivs(mode, r_out, r_in, g_out, g_in)
        scale = 1.0 / np.sqrt(np.maximum(curv, floor))
        edge_sets.append(mode[..., None] + scale[..., None] * _PANEL_OFFSETS)
        edge_sets.append(mode[..., None] - scale[..., None] * _PANEL_OFFSETS)
    # prior-scale panels bridge the basins and bound the reachable tails
    prior_scale = np.broadcast_to(1.0 / math.sqrt(g_in), r_in.shape)
    edge_sets.append(r_in[..., None] + prior_scale[..., None] * _PANEL_OFFSETS)
    edge_sets.append(r_in[..., None] - prior_scale[..., None] * _PANEL_OFFSETS)
    edges = np.sort(np.concatenate(edge_sets, axis=-1), axis=-1)
    per_panel = max(order // 6, 10)
    nodes, weights = np.polynomial.legendre.leggauss(per_panel)
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])  # (..., panels)
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])
    xs = (mid[..., None] + half[..., None] * nodes).reshape(r_out.shape + (-1,))
    lw = np.broadcast_to(
        (half[..., None] * weights), half.shape + (per_panel,)
    ).reshape(r_out.shape + (-1,))
    s = expit(xs)
    log_w = (
        -0.5 * g_out * (s - r_out[..., None]) ** 2
        - 0.5 * g_in * (xs - r_in[..., None]) ** 2
        + np.log(np.clip(lw, 1e-300, None))
    )
    log_w -= np.max(log_w, axis=-1, keepdims=True)
    w = np.exp(log_w)
    if not np.all(np.isfinite(w)):
        bad = int(np.flatnonzero(~np.all(np.isfinite(w), axis=-1))[0])
        raise NumericFailureError(f"non-finite quadrature weights at component {bad}")
    w /= np.sum(w, axis=-1, keepdims=True)
    ex = np.sum(w * xs, axis=-1)
    vx = np.clip(np.sum(w * xs * xs, axis=-1) - ex**2, 0.0, None)
    ephi = np.sum(w * s, axis=-1)
    vphi = np.clip(np.sum(w * s * s, axis=-1) - ephi**2, 0.0, None)
    return ex, vx, ephi, vphi



_STATS = {
    "identity": _identity_stats,
    "relu": _relu_stats,
    "sign": _sign_stats,
    "sigmoid": _sigmoid_stats,
}



def scalar_pair_mmse(activation, noise_precision, r_minus, r_plus, gamma_minus, gamma_plus):
    """Componentwise posterior means and derivative fields for one separable layer.

    Returns ``(zhat_plus, zhat_minus, d_plus, d_minus)`` where the ``d``
    arrays are per-component derivatives d zhat_plus / d r_minus and
    d zhat_minus / d r_plus obtained from the Gaussian-channel variance
    identity rather than numerical differentiation.
    """
    g_eff = _effective_channel(gamma_minus, noise_precision)
    ex, vx, ephi, vphi = _STATS[activation](r_minus, r_plus, g_eff, gamma_plus)
    if math.isinf(noise_precision):
        ez, vz = ephi, vphi
    else:
        nu = noise_precision
        shrink = nu / (nu + gamma_minus)
        ez = shrink * ephi + (1.0 - shrink) * np.asarray(r_minus, float)
        vz = 1.0 / (nu + gamma_minus) + shrink * shrink * vphi
    d_plus = gamma_minus * vz
    d_minus = gamma_plus * vx
    return ez, ex, d_plus, d_minus



def scalar_pair_map(activation, noise_precision, r_minus, r_plus, gamma_minus, gamma_plus):
    """Componentwise joint maximizers and branch-slope derivative fields."""
    g_eff = _effective_channel(gamma_minus, noise_precision)
    xhat, phi, dxm, dxp, slope = _MAP[activation](r_minus, r_plus, g_eff, gamma_plus)
    if math.isinf(noise_precision):
        zp = phi
        d_plus = slope * dxm
    else:
        nu = noise_precision
        zp = (nu * phi + gamma_minus * np.asarray(r_minus, float)) / (nu + gamma_minus)
        d_plus = (nu * slope * dxm + gamma_minus) / (nu + gamma_minus)
    return zp, xhat, d_plus, dxp
