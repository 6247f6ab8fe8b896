"""Per-layer estimation functions and their mean divergences.

Every layer of the chain gets a pair estimator that consumes Gaussian
pseudo-observations ``r_minus`` (of the layer output, precision
``gamma_minus``) and ``r_plus`` (of the layer input, precision
``gamma_plus``).  Each call serves one sweep direction and returns
``(estimate, divergence)`` for the one side that sweep updates: forward the
layer output, backward the layer input.  The divergence is the mean
input-output derivative needed by the message update.

Separable layers use scalar posterior-mean (``mmse``) or joint-maximizer
(``map``) rules applied componentwise; affine layers reduce to a
per-component 2x2 solve in the SVD basis, identical for both modes, whose
null components share one gain and are solved at once by projection.
Divergences are analytic everywhere: posterior-variance identities for
the mmse rules, branch slopes for the map rules, and closed-form gains
for the affine solve.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, log_ndtr

from .errors import InvalidModelError, NumericFailureError

#: Clipping bounds for message precisions.  Chosen to keep the 2x2 affine
#: systems well-conditioned in double precision while permitting
#: near-exact constraints.
GAMMA_MIN = 1e-11
GAMMA_MAX = 1e11

#: Default Legendre budget of the sigmoid rule (``_sigmoid_stats``): each
#: panel gets ``max(order // 6, 10)`` nodes, 10 at this default.  Chosen so
#: that doubling it moves posterior statistics by less than 1e-8 across the
#: operating range.
DEFAULT_QUAD_ORDER = 60

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def clip_gamma(gamma):
    """A precision clamped to ``[GAMMA_MIN, GAMMA_MAX]``; NaN stays NaN."""
    return float(min(max(gamma, GAMMA_MIN), GAMMA_MAX))


@dataclass(frozen=True)
class BeliefParams:
    """Pseudo-observations and precisions entering one layer's belief."""

    r_minus: np.ndarray
    r_plus: np.ndarray
    gamma_minus: float
    gamma_plus: float

    def __post_init__(self):
        for name in ("gamma_minus", "gamma_plus"):
            g = getattr(self, name)
            if not (GAMMA_MIN <= g <= GAMMA_MAX):
                raise InvalidModelError(f"{name}={g} outside [{GAMMA_MIN}, {GAMMA_MAX}]")


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes/weights integrating against the standard normal measure.

    Weights sum to one; the rule is exact for polynomials up to degree
    ``2 * order - 1``.  A rule hashes by identity (``gauss_hermite_rule``
    builds one per order), so it can key a cache.
    """

    nodes: np.ndarray
    weights: np.ndarray
    order: int


@functools.lru_cache(maxsize=32)
def gauss_hermite_rule(order):
    """Gauss-Hermite rule for expectations under N(0, 1); built once per order, read-only."""
    nodes, weights = np.polynomial.hermite.hermgauss(int(order))
    nodes, weights = nodes * math.sqrt(2.0), weights / math.sqrt(math.pi)
    nodes.flags.writeable = weights.flags.writeable = False
    return QuadratureRule(nodes=nodes, weights=weights, order=int(order))


# ---------------------------------------------------------------------------
# Truncated-normal building blocks (stable for extreme arguments)
# ---------------------------------------------------------------------------


def _norm_logpdf(x):
    return -0.5 * x * x - _LOG_SQRT_2PI


def _moments_above(mu, sigma, z, log_mass):
    """Mean and variance of N(mu, sigma^2) above the cut ``z`` standard
    deviations below ``mu``, whose log-mass ``log_ndtr(z)`` is ``log_mass``.

    At ``z = -alpha`` this is the textbook form in ``alpha``, bit for bit:
    negation is exact, so ``lam + z == lam - alpha`` and the pdf is even.
    """
    lam = np.exp(_norm_logpdf(z) - log_mass)
    mean = mu + sigma * lam
    var = sigma * sigma * np.minimum(np.maximum(1.0 - lam * (lam + z), 0.0), 1.0)
    return mean, var


def _branch_weight(log_a, log_b):
    """Normalized weight ``w_a`` of branch a from the log-masses, stable under large gaps.

    ``w_a = 1 / (1 + exp(log_b - log_a))`` with numpy's ``exp``.  Where the
    ``exp`` overflows, ``w_a`` is 0, as ``expit(log_a - log_b)`` gives;
    elsewhere the two agree to 4 ulp.  On large gaps it costs about 60% of
    ``expit``.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(log_b - log_a))


# ---------------------------------------------------------------------------
# Scalar posterior statistics per activation (deterministic channel)
#
# Under the density w(x) propto exp(-g_out/2 (phi(x) - r_out)^2 - g_in/2 (x - r_in)^2)
# each returns the mean and variance of phi(x) (``forward``) or of x: the one
# side the caller's sweep reads.
# ---------------------------------------------------------------------------


def _identity_stats(r_out, r_in, g_out, g_in, forward):
    gt = g_out + g_in
    m = (g_out * r_out + g_in * r_in) / gt
    return m, np.broadcast_to(np.asarray(1.0 / gt), np.shape(m)).copy()


def _relu_stats(r_out, r_in, g_out, g_in, forward):
    # not broadcast up front: a factor of r_in alone is evaluated on r_in's points
    r_out, r_in = np.asarray(r_out, float), np.asarray(r_in, float)
    sig_in = 1.0 / math.sqrt(g_in)
    gt = g_out + g_in
    sig_pos = 1.0 / math.sqrt(gt)
    m_pos = (g_out * r_out + g_in * r_in) / gt
    # each branch's standardized distance to the cut and its log-mass, P(x > 0)
    # under N(m_pos, sig_pos^2) and P(x < 0) under N(r_in, sig_in^2), are
    # shared by its weight and its moments
    z_pos, z_neg = m_pos / sig_pos, -(r_in / sig_in)
    log_mass, log_neg_mass = log_ndtr(z_pos), log_ndtr(z_neg)
    log_neg = -0.5 * g_out * r_out**2 + log_neg_mass - 0.5 * math.log(g_in)
    log_pos = -0.5 * (g_out * g_in / gt) * (r_out - r_in) ** 2 + log_mass - 0.5 * math.log(gt)
    w_pos = _branch_weight(log_pos, log_neg)
    e_pos, v_pos = _moments_above(m_pos, sig_pos, z_pos, log_mass)
    if forward:  # phi(x) is 0 on the negative branch
        ephi = w_pos * e_pos
        return ephi, np.maximum(w_pos * (v_pos + e_pos**2) - ephi**2, 0.0)
    w_neg = 1.0 - w_pos
    e_neg, v_neg = _moments_above(-r_in, sig_in, z_neg, log_neg_mass)
    e_neg = -e_neg
    ex = w_neg * e_neg + w_pos * e_pos
    ex2 = w_neg * (v_neg + e_neg**2) + w_pos * (v_pos + e_pos**2)
    return ex, np.maximum(ex2 - ex**2, 0.0)


def _sign_stats(r_out, r_in, g_out, g_in, forward):
    r_out, r_in = np.asarray(r_out, float), np.asarray(r_in, float)
    sig_in = 1.0 / math.sqrt(g_in)
    # log P(x > 0) and log P(x < 0) under N(r_in, sig_in^2): weights and moments share them
    z = r_in / sig_in
    log_pos_mass, log_neg_mass = log_ndtr(z), log_ndtr(-z)
    log_pos = -0.5 * g_out * (1.0 - r_out) ** 2 + log_pos_mass
    log_neg = -0.5 * g_out * (1.0 + r_out) ** 2 + log_neg_mass
    w_pos = _branch_weight(log_pos, log_neg)
    w_neg = 1.0 - w_pos
    if forward:  # phi(x) is +1 or -1
        ephi = w_pos - w_neg
        return ephi, np.minimum(np.maximum(1.0 - ephi**2, 0.0), 1.0)
    e_pos, v_pos = _moments_above(r_in, sig_in, z, log_pos_mass)
    e_neg, v_neg = _moments_above(-r_in, sig_in, -z, log_neg_mass)
    e_neg = -e_neg
    ex = w_neg * e_neg + w_pos * e_pos
    ex2 = w_neg * (v_neg + e_neg**2) + w_pos * (v_pos + e_pos**2)
    return ex, np.maximum(ex2 - ex**2, 0.0)


def _sigmoid_cost_derivs(x, r_out, r_in, g_out, g_in):
    s = expit(x)
    sp = s * (1.0 - s)
    grad = g_out * sp * (s - r_out) + g_in * (x - r_in)
    curv = g_out * (sp * (1.0 - 2.0 * s) * (s - r_out) + sp * sp) + g_in
    return s, sp, grad, curv


def _sigmoid_cost(x, r_out, r_in, g_out, g_in):
    return 0.5 * g_out * (expit(x) - r_out) ** 2 + 0.5 * g_in * (x - r_in) ** 2


def _sigmoid_mode(r_out, r_in, g_out, g_in, start):
    """Componentwise local mode of the sigmoid-channel belief, from ``start``.

    Safeguarded Newton, at most 100 steps: steps that fail to decrease the
    cost are halved (handles basins without an interior minimum, where plain
    damped Newton can cycle).
    """
    x = np.array(np.broadcast_to(start, np.broadcast(r_out, r_in).shape), dtype=float)
    floor = 0.25 * g_in
    cost = _sigmoid_cost(x, r_out, r_in, g_out, g_in)
    for _ in range(100):
        _, _, grad, curv = _sigmoid_cost_derivs(x, r_out, r_in, g_out, g_in)
        step = np.clip(grad / np.maximum(curv, floor), -8.0, 8.0)
        for _ in range(25):
            trial = x - step
            trial_cost = _sigmoid_cost(trial, r_out, r_in, g_out, g_in)
            improved = trial_cost <= cost
            if np.all(improved):
                break
            step = np.where(improved, step, 0.5 * step)
        x = x - step
        cost = _sigmoid_cost(x, r_out, r_in, g_out, g_in)
        if np.max(np.abs(step)) < 1e-13:
            break
    return x


def _sigmoid_basins(r_out, r_in, g_out, g_in):
    """Local modes found from both candidate basins (prior and channel)."""
    clipped = np.clip(r_out, 1e-6, 1.0 - 1e-6)
    channel_start = np.log(clipped) - np.log1p(-clipped)
    x_a = _sigmoid_mode(r_out, r_in, g_out, g_in, r_in)
    x_b = _sigmoid_mode(r_out, r_in, g_out, g_in, channel_start)
    return x_a, x_b


_PANEL_OFFSETS = np.array([0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0])


def _sigmoid_stats(r_out, r_in, g_out, g_in, forward, order=DEFAULT_QUAD_ORDER):
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
    v = s if forward else xs
    mean = np.sum(w * v, axis=-1)
    return mean, np.maximum(np.sum(w * v * v, axis=-1) - mean**2, 0.0)


_STATS = {
    "identity": _identity_stats,
    "relu": _relu_stats,
    "sign": _sign_stats,
    "sigmoid": _sigmoid_stats,
}


def _effective_channel(gamma_minus, noise_precision):
    """Fold additive output noise into an effective observation precision."""
    if math.isinf(noise_precision):
        return gamma_minus
    return noise_precision * gamma_minus / (noise_precision + gamma_minus)


def scalar_pair_mmse(
    activation, noise_precision, r_minus, r_plus, gamma_minus, gamma_plus, forward
):
    """Componentwise posterior means and derivative field of one side of a separable layer.

    Returns ``(zhat_plus, d_plus)`` for the output (``forward``) or
    ``(zhat_minus, d_minus)`` for the input, the ``d`` array being the
    per-component derivative d zhat_plus / d r_minus or d zhat_minus / d r_plus
    obtained from the Gaussian-channel variance identity rather than
    numerical differentiation.
    """
    g_eff = _effective_channel(gamma_minus, noise_precision)
    mean, var = _STATS[activation](r_minus, r_plus, g_eff, gamma_plus, forward)
    if not forward:
        return mean, gamma_plus * var
    if math.isinf(noise_precision):
        return mean, gamma_minus * var
    nu = noise_precision
    shrink = nu / (nu + gamma_minus)
    ez = shrink * mean + (1.0 - shrink) * np.asarray(r_minus, float)
    vz = 1.0 / (nu + gamma_minus) + shrink * shrink * var
    return ez, gamma_minus * vz


def _relu_map(r_out, r_in, g_out, g_in):
    r_out, r_in = np.broadcast_arrays(np.asarray(r_out, float), np.asarray(r_in, float))
    gt = g_out + g_in
    x_pos = np.maximum((g_out * r_out + g_in * r_in) / gt, 0.0)
    cost_pos = 0.5 * g_out * (x_pos - r_out) ** 2 + 0.5 * g_in * (x_pos - r_in) ** 2
    x_neg = np.minimum(r_in, 0.0)
    cost_neg = 0.5 * g_out * r_out**2 + 0.5 * g_in * (x_neg - r_in) ** 2
    take_pos = cost_pos <= cost_neg
    xhat = np.where(take_pos, x_pos, x_neg)
    phi = np.maximum(xhat, 0.0)
    interior_pos = take_pos & (x_pos > 0.0)
    dxm = np.where(interior_pos, g_out / gt, 0.0)
    dxp = np.where(interior_pos, g_in / gt, np.where(~take_pos & (r_in < 0.0), 1.0, 0.0))
    slope = np.where(interior_pos, 1.0, 0.0)
    return xhat, phi, dxm, dxp, slope


def _identity_map(r_out, r_in, g_out, g_in):
    gt = g_out + g_in
    xhat = (g_out * np.asarray(r_out, float) + g_in * np.asarray(r_in, float)) / gt
    shape = np.shape(xhat)
    return (
        xhat,
        xhat,
        np.full(shape, g_out / gt),
        np.full(shape, g_in / gt),
        np.ones(shape),
    )


def _sign_map(r_out, r_in, g_out, g_in):
    r_out, r_in = np.broadcast_arrays(np.asarray(r_out, float), np.asarray(r_in, float))
    x_pos = np.maximum(r_in, 0.0)
    x_neg = np.minimum(r_in, 0.0)
    cost_pos = 0.5 * g_out * (1.0 - r_out) ** 2 + 0.5 * g_in * (x_pos - r_in) ** 2
    cost_neg = 0.5 * g_out * (1.0 + r_out) ** 2 + 0.5 * g_in * (x_neg - r_in) ** 2
    take_pos = cost_pos <= cost_neg
    xhat = np.where(take_pos, x_pos, x_neg)
    phi = np.where(take_pos, 1.0, -1.0)
    interior = np.where(take_pos, r_in > 0.0, r_in < 0.0)
    dxp = interior.astype(float)
    dxm = np.zeros_like(dxp)
    slope = np.zeros_like(dxp)
    return xhat, phi, dxm, dxp, slope


def _sigmoid_map(r_out, r_in, g_out, g_in):
    r_out, r_in = np.broadcast_arrays(np.asarray(r_out, float), np.asarray(r_in, float))
    # the cost can have two local minima: keep the cheaper basin's mode
    x_a, x_b = _sigmoid_basins(r_out, r_in, g_out, g_in)
    cost_a = _sigmoid_cost(x_a, r_out, r_in, g_out, g_in)
    cost_b = _sigmoid_cost(x_b, r_out, r_in, g_out, g_in)
    xhat = np.where(cost_a <= cost_b, x_a, x_b)
    s, sp, _, curv = _sigmoid_cost_derivs(xhat, r_out, r_in, g_out, g_in)
    curv = np.maximum(curv, 1e-12)
    dxm = g_out * sp / curv
    dxp = g_in / curv
    return xhat, s, dxm, dxp, sp


_MAP = {
    "identity": _identity_map,
    "relu": _relu_map,
    "sign": _sign_map,
    "sigmoid": _sigmoid_map,
}


def scalar_pair_map(
    activation, noise_precision, r_minus, r_plus, gamma_minus, gamma_plus, forward
):
    """Componentwise joint maximizers and branch-slope derivative field of one
    side: the output (``forward``) or the input."""
    g_eff = _effective_channel(gamma_minus, noise_precision)
    xhat, phi, dxm, dxp, slope = _MAP[activation](r_minus, r_plus, g_eff, gamma_plus)
    if not forward:
        return xhat, dxp
    if math.isinf(noise_precision):
        return phi, slope * dxm
    nu = noise_precision
    zp = (nu * phi + gamma_minus * np.asarray(r_minus, float)) / (nu + gamma_minus)
    return zp, (nu * slope * dxm + gamma_minus) / (nu + gamma_minus)


def scalar_pair(
    mode, activation, noise_precision, r_minus, r_plus, gamma_minus, gamma_plus, forward
):
    """Dispatch to the mmse or map componentwise rule."""
    fn = scalar_pair_mmse if mode == "mmse" else scalar_pair_map
    return fn(activation, noise_precision, r_minus, r_plus, gamma_minus, gamma_plus, forward)


# ---------------------------------------------------------------------------
# Affine layers: per-component 2x2 solve in the SVD basis
# ---------------------------------------------------------------------------


def linear_gains_plus(s, nu, gamma_minus, gamma_plus):
    """Output-side gains (a_q, a_p, a_b) of the per-component affine solve.

    The output estimate per SVD component is
    ``a_q * u_out + a_p * u_in + a_b * bbar``.  ``nu = inf`` uses the exact
    analytic noise-free limit.
    """
    s = np.asarray(s, dtype=float)
    gss = gamma_minus * s * s
    if math.isinf(nu):
        den = gamma_plus + gss
        return gss / den, s * gamma_plus / den, gamma_plus / den
    det = gamma_minus * gamma_plus + nu * (gamma_plus + gss)
    nus = nu * s
    return gamma_minus * (gamma_plus + nus * s) / det, nus * gamma_plus / det, nu * gamma_plus / det


def linear_gains_minus(s, nu, gamma_minus, gamma_plus):
    """Input-side gains (a_q, a_p, a_b): estimate is a_q*u_out + a_p*u_in + a_b*bbar."""
    s = np.asarray(s, dtype=float)
    gs = gamma_minus * s
    if math.isinf(nu):
        den = gamma_plus + gs * s
        aq = gs / den
        return aq, gamma_plus / den, -aq
    det = gamma_minus * gamma_plus + nu * (gamma_plus + gs * s)
    aq = nu * s * gamma_minus / det
    return aq, gamma_plus * (gamma_minus + nu) / det, -aq


def observed_linear_gains(s, nu, gamma_plus):
    """Input-side gains when the layer output is observed exactly.

    Estimate is ``g_r * u_in + g_obs * (u_obs - bbar)``; this is the exact
    ``gamma_minus -> inf`` limit of :func:`linear_gains_minus`.
    """
    s = np.asarray(s, dtype=float)
    if math.isinf(nu):
        positive = s > 0
        g_r = np.where(positive, 0.0, 1.0)
        g_obs = np.divide(1.0, s, out=np.zeros_like(s), where=positive)
        return g_r, g_obs
    den = gamma_plus + nu * s * s
    return gamma_plus / den, nu * s / den


def rotate_message(factors, side, message):
    """The ``k`` range coordinates of ``message``: ``left.T @ message`` (side
    ``"left"``) or ``right @ message`` (side ``"right"``)."""
    if side == "left":
        return factors.left_orthogonal.T @ message
    return factors.right_orthogonal @ message


def _rotate_back(back, est, gains, n, null):
    """An estimate in the signal basis and its divergence.

    ``est`` and ``gains`` hold the ``k`` range components; ``back`` (``n x k``)
    maps them back.  When ``n > k`` the other ``n - k`` components share a
    gain, and their estimate is the null-space part of a vector: ``null()``
    returns that gain, the vector and its range coordinates.
    """
    k = est.size
    if n == k:
        return back @ est, float(gains.sum()) / n
    null_gain, null_part, null_coords = null()
    alpha = (float(gains.sum()) + (n - k) * float(null_gain)) / n
    return back @ (est - null_coords) + null_part, alpha


def linear_pair(params, factors, noise_precision, forward, rotate=rotate_message):
    """One side's estimate of an affine layer and its divergence.

    Rotates the pseudo-observations into the range coordinates with
    ``rotate`` (a caller may serve products it already has), solves the
    per-component 2x2 system for the output (``forward``) or the input, and
    rotates that side back.  The side's null-space components (singular value
    0) are solved at once by projection.  Identical for mmse and map.
    """
    gm, gp = params.gamma_minus, params.gamma_plus
    u_out = rotate(factors, "left", params.r_minus)
    u_in = rotate(factors, "right", params.r_plus)
    b = factors.transformed_bias
    gains = linear_gains_plus if forward else linear_gains_minus
    g_q, g_p, g_b = gains(factors.singular_values, noise_precision, gm, gp)
    est = g_q * u_out + g_p * u_in + g_b * b
    _check_finite(est)

    def null():
        c_q, c_p, c_b = gains(0.0, noise_precision, gm, gp)
        if forward:  # an output null component weighs its message and its bias
            return c_q, c_q * params.r_minus + c_b * factors.bias, c_q * u_out + c_b * b
        return c_p, c_p * params.r_plus, c_p * u_in  # an input one its message alone

    if forward:
        return _rotate_back(factors.left_orthogonal, est, g_q, factors.out_dim, null)
    return _rotate_back(factors.right_orthogonal.T, est, g_p, factors.in_dim, null)


# ---------------------------------------------------------------------------
# Endpoint estimators
# ---------------------------------------------------------------------------


def input_denoiser(r_minus, gamma_minus):
    """Estimate of the chain input under its standard-normal prior.

    The posterior-mean and maximizer coincide; the divergence is the
    shrinkage slope ``gamma / (gamma + 1)``.
    """
    g = gamma_minus
    return g * np.asarray(r_minus, float) / (g + 1.0), g / (g + 1.0)


def output_linear(r_plus, gamma_plus, y, factors, noise_precision, rotate=rotate_message):
    """Estimate of the last hidden signal under an affine measurement of it."""
    r_plus = np.asarray(r_plus, float)
    u_in = rotate(factors, "right", r_plus)
    u_obs = rotate(factors, "left", np.asarray(y, float))
    g_r, g_obs = observed_linear_gains(factors.singular_values, noise_precision, gamma_plus)
    phat = g_r * u_in + g_obs * (u_obs - factors.transformed_bias)

    def null():
        c_r = observed_linear_gains(np.zeros(1), noise_precision, gamma_plus)[0][0]
        return c_r, c_r * r_plus, c_r * u_in

    return _rotate_back(factors.right_orthogonal.T, phat, g_r, factors.in_dim, null)


def separable_output_fields(r_plus, gamma_plus, y, activation, noise_precision, mode):
    """Componentwise (estimate, derivative) for an observed separable channel.

    A noisy channel reduces to the scalar pair rule with the observation in
    the output slot; deterministic channels invert or truncate explicitly.
    """
    r_plus = np.asarray(r_plus, float)
    y = np.asarray(y, float)
    if math.isfinite(noise_precision):
        return scalar_pair(mode, activation, math.inf, y, r_plus, noise_precision, gamma_plus, False)

    sd = 1.0 / math.sqrt(gamma_plus)
    if activation == "identity":
        zm = y.copy()
        dm = np.zeros_like(y)
    elif activation == "relu":
        if np.any(y < 0):
            raise NumericFailureError("negative observation is infeasible for a relu channel")
        on = y > 0
        if mode == "mmse":  # where y = 0 the input is below 0: its moments are -x's above 0
            z = -(r_plus / sd)
            e_neg, v_neg = _moments_above(-r_plus, sd, z, log_ndtr(z))
            zm = np.where(on, y, -e_neg)
            dm = np.where(on, 0.0, gamma_plus * v_neg)
        else:
            zm = np.where(on, y, np.minimum(r_plus, 0.0))
            dm = np.where(on, 0.0, (r_plus < 0.0).astype(float))
    elif activation == "sign":
        if not np.all(np.abs(y) == 1.0):
            raise NumericFailureError("sign-channel observations must be +/-1")
        pos = y > 0
        if mode == "mmse":
            z = r_plus / sd
            e_pos, v_pos = _moments_above(r_plus, sd, z, log_ndtr(z))
            e_neg, v_neg = _moments_above(-r_plus, sd, -z, log_ndtr(-z))
            zm = np.where(pos, e_pos, -e_neg)
            dm = gamma_plus * np.where(pos, v_pos, v_neg)
        else:
            zm = np.where(pos, np.maximum(r_plus, 0.0), np.minimum(r_plus, 0.0))
            dm = np.where(pos, r_plus > 0.0, r_plus < 0.0).astype(float)
    else:
        raise InvalidModelError("deterministic sigmoid measurements are not invertible here")
    return zm, dm


# ---------------------------------------------------------------------------
# Public operation wrappers
# ---------------------------------------------------------------------------


def mmse_pair_nonlinear(params, layer, forward):
    """Posterior-mean estimate of a separable layer's output (``forward``) or input."""
    return _estimate(scalar_pair_mmse(
        layer.activation, layer.noise_precision,
        params.r_minus, params.r_plus, params.gamma_minus, params.gamma_plus, forward,
    ))


def map_pair_nonlinear(params, layer, forward):
    """Joint-maximizer estimate of a separable layer's output (``forward``) or input."""
    return _estimate(scalar_pair_map(
        layer.activation, layer.noise_precision,
        params.r_minus, params.r_plus, params.gamma_minus, params.gamma_plus, forward,
    ))


def _estimate(fields):
    """``(estimate, divergence)`` of a scalar pair rule's ``(estimate, derivative
    field)``: the estimate checked finite, and the field's mean."""
    z, d = fields
    _check_finite(z)
    return z, _mean(d)


def _mean(d):
    """``float(np.mean(d))`` of a float array, bit for bit, without its wrapper."""
    return float(np.add.reduce(d, axis=None) / d.size)


def _total(a):
    """``float(np.sum(a))`` of a float array, bit for bit, without its wrapper."""
    return float(np.add.reduce(a, axis=None))


def _check_finite(z):
    if np.isfinite(z).all():
        return
    bad = int(np.argwhere(~np.isfinite(np.ravel(z))).ravel()[0])
    raise NumericFailureError(f"denoiser produced non-finite value (component {bad})")
