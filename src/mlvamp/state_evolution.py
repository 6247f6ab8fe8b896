"""Deterministic scalar recursion predicting the large-system behavior.

The recursion mirrors the engine sweep for sweep, but every vector is
replaced by a scalar random variable: true signals become Gaussians with
the same second moments (orthogonal mixing makes components Gaussian in
the wide limit) and each estimator call becomes an expectation over a
small scalar model of its inputs.

The two pseudo-observations play asymmetric roles, matching their cavity
semantics in the algorithm: the input-side message summarizes everything
upstream, so its error is correlated with the truth it estimates (at the
prior, ``r_plus = 0`` and the error is exactly minus the truth), while the
output-side message summarizes the downstream likelihood (truth plus
independent noise).  The forward pass therefore tracks the full joint
second moments of (truth, plus-side error).  At a Bayes-optimal fixed
point the plus-side error is orthogonal to the message itself
(``K01 = -K11``), and the per-layer belief is the true conditional of the
scalar model, which is what makes the posterior-variance identities hold
there.

Bookkeeping per hidden signal:

* ``tau_zero``   second moment of the true signal components,
* ``K_plus``     2x2 second-moment matrix of (true signal, plus-side error);
                 the off-diagonal ``E[truth * error]`` is carried through
                 every forward step,
* ``tau_minus``  second moment of the minus-side error,
* ``mu``         mean of the true components where the basis is NOT freshly
                 mixed (a separable layer's input keeps the upstream affine
                 layer's bias mean; a mixed basis is mean-free).

Affine-layer expectations average per-component closed forms over the
empirical singular-value / transformed-bias samples; separable-layer
expectations integrate over a kink-aware tensor quadrature grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import denoisers as dn
from .engine import ALPHA_MIN, Bookkeeping, EngineConfig, Precisions, sweep
from .errors import MAX_SIDE, check_count, check_real
from .model import NetworkSpec, apply_activation, zero_pad


# ---------------------------------------------------------------------------
# Perturbation laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearLaw:
    """Empirical/parametric law of one affine layer's invariants.

    ``bbar_atoms`` carries instantiated transformed-bias components paired
    with the singular values; when absent the transformed bias is modeled
    as an independent zero-mean Gaussian of variance ``bbar_var``.
    ``bias_mean`` is the mean of the *raw* bias components: it survives as
    a shift of the layer-output components in the unmixed basis.
    """

    singular_values: np.ndarray
    out_dim: int
    in_dim: int
    noise_precision: float
    bbar_atoms: np.ndarray | None = None
    bbar_var: float = 0.0
    bias_mean: float = 0.0

    kind = "linear"

    def bias_terms(self, n):
        """(deterministic per-component value, or None where there is none;
        shared Gaussian variance)."""
        if self.bbar_atoms is not None:
            return zero_pad(self.bbar_atoms, n), 0.0
        return None, float(self.bbar_var)


def network_law(spec):
    """Instance-level law of a network: a ``NetworkSpec`` whose affine layers are
    ``LinearLaw``s of their empirical singular values and bias samples, and whose
    separable layers are the spec's own."""
    laws = []
    for layer in spec.layers:
        if layer.kind == "linear":
            f = layer.factors
            layer = LinearLaw(f.singular_values.copy(), f.out_dim, f.in_dim, layer.noise_precision,
                              _bias_atoms(f), bias_mean=float(np.mean(layer.bias)))
        laws.append(layer)
    return NetworkSpec(layers=tuple(laws), dims=spec.dims)


def _bias_atoms(factors):
    """Transformed-bias atoms of an affine layer's ``out_dim`` output components.

    The range components are ``left.T @ bias``.  The null components share
    every coefficient (singular value 0), so only their total bias energy
    ``|bias - left (left.T bias)|^2`` enters a moment; it is spread evenly
    over them, which is the transformed bias in a null basis of its own.
    """
    b, null = factors.transformed_bias, factors.out_dim - factors.transformed_bias.size
    if null == 0:
        return b.copy()
    resid = factors.bias - factors.left_orthogonal @ b
    return np.concatenate([b, np.full(null, math.sqrt(float(resid @ resid) / null))])


@dataclass(frozen=True)
class SEConfig:
    iterations: int = 50
    mode: str = "mmse"
    gamma_init: float = 1e-4
    damping: float = 1.0
    alpha_clip: float = ALPHA_MIN
    stop_tol: float = 0.0
    #: Gauss-Hermite nodes per message axis (a kinked truth axis keeps max(order // 2, 12)
    #: Legendre nodes per panel); 12 keeps paper-law mmse curves within 2e-5 dB of order 20.
    quad_order: int = 12

    def __post_init__(self):
        check_count("iterations", self.iterations, 1)
        # the fields an engine run shares are checked as the engine checks them
        EngineConfig(max_iters=self.iterations, mode=self.mode, gamma_init=self.gamma_init,
                     damping=self.damping, alpha_clip=self.alpha_clip)
        check_count("quad_order", self.quad_order, 1, MAX_SIDE)  # sides the rule's companion matrix
        check_real("stop_tol", self.stop_tol, 0.0)


@dataclass
class SEResult:
    """Each iteration's end values, under ``TrialResult``'s names and shapes
    ``(iterations, L)``, and the error predicted after each half-iteration."""

    gamma_plus: np.ndarray
    gamma_minus: np.ndarray
    alpha_plus: np.ndarray
    alpha_minus: np.ndarray
    K_plus: np.ndarray  # (iterations, L, 2, 2) second moments of (true, plus error), cross term included
    tau_minus: np.ndarray  # (iterations, L) second moments of the minus error
    nmse_db: np.ndarray  # (half_iterations, L) predicted NMSE in dB
    mse: np.ndarray  # same grid, linear scale


# ---------------------------------------------------------------------------
# Initial pass: true-signal second moments and unmixed-basis means
# ---------------------------------------------------------------------------


def activation_second_moment(name, mean, var):
    """``E[phi(X)^2]`` for ``X ~ N(mean, var)``; closed forms where kinks exist."""
    sd = math.sqrt(max(var, 0.0))
    if name == "identity":
        return mean * mean + var
    if name == "sign":
        return 1.0
    if name == "relu":
        if sd == 0.0:
            return max(mean, 0.0) ** 2
        z = mean / sd
        phi = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        return (mean * mean + var) * ndtr(z) + mean * sd * phi
    rule = dn.gauss_hermite_rule(60)
    x = mean + sd * rule.nodes
    phi_vals = apply_activation(name, x)
    return float(np.sum(rule.weights * phi_vals * phi_vals))


def se_initial_pass(law):
    """Second moments ``tau_zero[0..L]`` and means ``mu[0..L]`` of the chain.

    ``mu[ell]`` is nonzero only where the component basis is not freshly
    mixed before the next layer consumes it: the output of an affine layer
    feeding a separable layer keeps its raw bias mean.
    """
    n = law.num_layers
    tau = np.zeros(n + 1)
    mu = np.zeros(n + 1)
    tau[0] = 1.0
    for ell, layer in enumerate(law.layers, start=1):
        if layer.kind == "linear":
            atoms, bvar = layer.bias_terms(layer.out_dim)
            s = zero_pad(layer.singular_values, layer.out_dim)
            noise = 0.0 if math.isinf(layer.noise_precision) else 1.0 / layer.noise_precision
            atom_energy = 0.0 if atoms is None else np.mean(atoms * atoms)
            tau[ell] = float(np.mean(s * s) * tau[ell - 1] + atom_energy + bvar + noise)
            next_separable = ell < n and law.layers[ell].kind == "nonlinear"
            mu[ell] = layer.bias_mean if next_separable else 0.0
        else:
            var = max(tau[ell - 1] - mu[ell - 1] ** 2, 0.0)
            second = activation_second_moment(layer.activation, mu[ell - 1], var)
            if math.isfinite(layer.noise_precision):
                second += 1.0 / layer.noise_precision
            tau[ell] = second
            mu[ell] = 0.0
    return tau, mu


# ---------------------------------------------------------------------------
# Affine-layer scalar steps (exact second-moment algebra per component)
# ---------------------------------------------------------------------------
#
# Independent basis per component: X = (P0, Pp, Qm, Xi, Bg) with
#   (P0, Pp) ~ N(0, K),  Qm ~ N(0, tau_m),  Xi ~ N(0, 1/nu),  Bg ~ N(0, bvar)
# plus a deterministic per-component bias atom.  Every quantity of
# interest is affine in X, so all moments are exact.  A moment is the
# component mean of its K00, K01, K11, tau_m, xi_var, bvar and atom terms,
# summed in that order; a term that is exactly zero is left out.


def _square(c, d, K, variances):
    """The moment of ``(c, d)`` with itself (``d`` None: zero)."""
    cross = c[0] * c[1]
    acc = c[0] * c[0] * K[0, 0] + (cross + cross) * K[0, 1] + c[1] * c[1] * K[1, 1]
    for ci, var in zip(c[2:], variances):
        if var != 0.0:
            acc += ci * ci * var
    if d is not None:
        acc += d * d
    return dn._mean(acc)


def _affine_step(layer, forward, K_prev, tau_m, gm, gp_prev, clip):
    """Update at an affine layer from the per-component gains (g_q, g_p, g_b) of gm and gp_prev.

    The estimate is ``g_q u_out + g_p u_in + g_b bbar``.  Forward it
    estimates the output ``Q0 = s P0 + Xi + Bg + atoms`` from its message
    ``Q0 + Qm`` (divergence: the mean of ``g_q``); backward, the input ``P0``
    from ``P0 + Pp`` (the mean of ``g_p``).  An exactly observed output is
    the backward step with ``gm = inf`` and ``tau_m = 0``.  Returns
    ``(alpha, K, mse)`` forward, ``K`` the second moments of (truth, extrinsic
    error), and ``(alpha, tau, mse)`` backward, ``tau = K11``: the recursion
    models the minus error as noise independent of the truth.
    """
    nu = layer.noise_precision
    s = zero_pad(layer.singular_values, layer.out_dim if forward else layer.in_dim)
    if forward:
        g_q, g_p, g_b = dn.linear_gains_plus(s, nu, gm, gp_prev)
    elif math.isinf(gm):
        g_p, g_q = dn.observed_linear_gains(s, nu, gp_prev)
    else:
        g_q, g_p, _ = dn.linear_gains_minus(s, nu, gm, gp_prev)
    atoms, b_var = layer.bias_terms(s.size)
    variances = (tau_m, 0.0 if math.isinf(nu) else 1.0 / nu, b_var)  # of Qm, Xi, Bg
    alpha = clip(dn._mean(g_q if forward else g_p))
    # (coefficients on X, deterministic part) of the error, estimate - truth, and
    # of the extrinsic error, (error - alpha * message error) / (1 - alpha).  The
    # truth is (s, 0, 0, 1, 1; atoms) forward and (1, 0, 0, 0, 0; 0) backward,
    # the message error Qm's unit vector, then Pp's.  Backward g_b = -g_q, so the
    # error's coefficients stop at Xi.
    if forward:
        c_err = (g_q * s + g_p - s, g_p, g_q, g_q - 1.0, g_q + g_b - 1.0)
        d_err = None if atoms is None else atoms * (g_q + g_b) - atoms
    else:
        c_err, d_err = (g_q * s + g_p - 1.0, g_p, g_q, g_q), None
    scale, unit = 1.0 / (1.0 - alpha), 2 if forward else 1
    c_ext = [(c - alpha if i == unit else c) * scale for i, c in enumerate(c_err)]
    d_ext = None if d_err is None else d_err * scale
    mse, k11 = _square(c_err, d_err, K_prev, variances), _square(c_ext, d_ext, K_prev, variances)
    if not forward:
        return alpha, k11, mse
    k00 = s * s * K_prev[0, 0]
    k01 = s * c_ext[0] * K_prev[0, 0] + s * c_ext[1] * K_prev[0, 1]
    for c, var in zip(c_ext[3:], variances[1:]):
        if var != 0.0:
            k00 += var
            k01 += c * var
    if atoms is not None:
        k00 += atoms * atoms
        k01 += atoms * d_ext
    # the truth's zero coefficients meet K01 (in k00), K11 and tau_m: 0 * inf is NaN
    lost = (K_prev[1, 1], tau_m)
    k01 = dn._mean(k01) if all(map(math.isfinite, lost)) else math.nan
    k00 = dn._mean(k00) if all(map(math.isfinite, (*lost, K_prev[0, 1]))) else math.nan
    return alpha, np.array([[k00, k01], [k01, k11]]), mse


# ---------------------------------------------------------------------------
# Separable-layer scalar steps (grid expectations)
# ---------------------------------------------------------------------------


_AXIS_OFFSETS = np.array([0.5, 1.0, 2.0, 4.0, 8.5])


@functools.lru_cache(maxsize=256)
def _kinked_axis(kink_z, order):
    """Standard-normal quadrature with a panel edge at ``kink_z``.

    Composite Gauss-Legendre over [-8.5, 8.5] with geometrically refined
    edges; exact handling of integrands with one kink (relu / sign signal
    laws), spectrally accurate elsewhere.  Built once per (kink, order); the
    arrays are read-only.
    """
    edges = np.concatenate([[0.0], _AXIS_OFFSETS, -_AXIS_OFFSETS])
    if np.isfinite(kink_z) and abs(kink_z) < 8.5:
        edges = np.concatenate([edges, [kink_z]])
    edges = np.unique(edges)
    nodes, weights = np.polynomial.legendre.leggauss(max(order // 2, 12))
    a, b = edges[:-1, None], edges[1:, None]  # one panel per row
    t = (0.5 * (a + b) + 0.5 * (b - a) * nodes).ravel()
    w = (0.5 * (b - a) * weights).ravel() * np.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
    w /= w.sum()
    t.flags.writeable = w.flags.writeable = False
    return t, w


@functools.lru_cache(maxsize=8)
def _layout(rule, kink_z, n_axes, noiseless):
    """``_grid``'s node axes and weight tensor, ``(t, w)``: built once per
    layout and read-only; at most eight are kept (a noisy layer's ``w`` is
    1.8 MB at order 12)."""
    axes_nodes = [rule.nodes] * n_axes
    axes_weights = [rule.weights] * n_axes
    if kink_z is not None:
        axes_nodes[0], axes_weights[0] = _kinked_axis(kink_z, rule.order)
    if noiseless:
        # a noiseless minus message: the integrand is constant along t_minus
        axes_nodes[2], axes_weights[2] = np.zeros(1), np.ones(1)
    t = np.meshgrid(*axes_nodes, indexing="ij", sparse=True)
    w = 1.0
    for a in np.meshgrid(*axes_weights, indexing="ij", sparse=True):
        w = w * a
    for a in (*t, w):
        a.flags.writeable = False
    return tuple(t), w


def _grid(K, mu, tau_m, xi_var, order, kink=None):
    """Joint nodes/weights for the separable-layer integration.

    Returns ``(p0, r_plus, t_minus, xi, w)``.  The two messages play the
    asymmetric roles they have in the algorithm.  The input-side message is
    ``r_plus = p0 + e`` with the plus error ``e`` jointly Gaussian with the
    truth as ``K`` says: ``E[e^2] = K11`` and ``E[p0 e] = K01``.  The truth
    has mean ``mu``; ``K01`` is a raw second moment, so the covariance of the
    error with the centred truth is ``K01 - mu E[e]``.  Where ``mu`` is
    nonzero (an affine layer's output, in its unmixed basis) the affine
    step's error has no bias component (its bias gains sum to one), so
    ``E[e] = 0`` and that covariance is ``K01``.  The message is built by
    regressing it on the centred truth,

        r_plus = mu + b (p0 - mu) + s t,    b = (Var(p0) + K01) / Var(p0),
        s^2 = K11 - K01^2 / Var(p0);

    a pair that is not jointly admissible (``s^2 < 0``) is projected by
    clamping ``Var(r_plus) = Var(p0) + 2 K01 + K11`` at zero,
    ``|Cov(p0, r_plus)|`` at Cauchy-Schwarz and ``s`` at zero.  A
    Bayes-optimal channel (``K01 = -K11``, error orthogonal to the message)
    reproduces ``b = 1 - K11 / Var(p0)`` and ``s^2 = b K11``.  The
    output-side message is a downstream likelihood summary, i.e. the true
    output plus independent noise of variance ``tau_m`` (assembled by the
    caller from ``t_minus``).  ``order`` is ``SEConfig.quad_order``; a
    kinked activation puts a panel edge of the truth axis exactly at the
    kink.  Each axis keeps a dimension, so a factor is evaluated only on
    the axes it reads and broadcasts to the tensor product ``w`` spans.
    """
    var_p0 = max(K[0, 0] - mu * mu, 0.0)
    sd_p0 = math.sqrt(var_p0)
    kink_z = (kink - mu) / sd_p0 if kink is not None and sd_p0 > 0 else None
    t, w = _layout(dn.gauss_hermite_rule(order), kink_z, 3 + (xi_var > 0), tau_m <= 0)
    p0 = mu + sd_p0 * t[0]
    k01, k11 = K[0, 1], max(K[1, 1], 0.0)
    if var_p0 > 0:
        var_r = max(var_p0 + 2.0 * k01 + k11, 0.0)
        lim = math.sqrt(var_p0 * var_r)
        b = min(max(var_p0 + k01, -lim), lim) / var_p0
        # s^2 as the Schur complement: Var(r_plus) - b^2 Var(p0) without
        # cancelling two O(Var(p0)) terms when the error is small
        s2 = k11 - k01 * k01 / var_p0
    else:
        b, s2 = 0.0, k11
    r_plus = mu + b * (p0 - mu) + math.sqrt(max(s2, 0.0)) * t[1]
    xi = math.sqrt(xi_var) * t[3] if xi_var > 0 else 0.0
    return p0, r_plus, t[2], xi, w


def _separable_step(layer, forward, K_prev, mu_prev, tau_m, gm, gp_prev, mode, order, clip):
    """Update at a separable layer: returns what the affine step returns.

    Forward, the estimate is of the output ``q0 = phi(p0) + xi`` from its
    message ``r_minus``; backward, of the input ``p0`` from ``r_plus``.  At an
    exactly observed output (``gm = inf``, backward) the observation ``q0``
    replaces the minus message.
    """
    xi_var = 0.0 if math.isinf(layer.noise_precision) else 1.0 / layer.noise_precision
    kink = 0.0 if layer.activation in ("relu", "sign") else None
    p0, r_plus, t_minus, xi, w = _grid(K_prev, mu_prev, tau_m, xi_var, order, kink=kink)
    q0 = apply_activation(layer.activation, p0) + xi
    if math.isinf(gm):
        est, d = dn.separable_output_fields(
            r_plus, gp_prev, q0, layer.activation, layer.noise_precision, mode
        )
        return _extrinsic_moments(w, p0, r_plus, est, clip(dn._total(w * d)), False)
    r_minus = q0 + math.sqrt(max(tau_m, 0.0)) * t_minus
    est, d = dn.scalar_pair(
        mode, layer.activation, layer.noise_precision, r_minus, r_plus, gm, gp_prev, forward
    )
    truth, message = (q0, r_minus) if forward else (p0, r_plus)
    return _extrinsic_moments(w, truth, message, est, clip(dn._total(w * d)), forward)


def _extrinsic_moments(w, truth, message, est, alpha, forward):
    """The affine step's returns, on the grid.  ``K`` holds raw second moments,
    means included: the next (mixing) layer sees them as the covariance of
    mean-free rotated components."""
    err = est - truth
    ext = err - alpha * (message - truth)
    ext /= 1.0 - alpha

    def moment(a, b):  # sum(w * a * b), with one product on the full grid
        prod = w * a
        prod *= b
        return dn._total(prod)

    mse, k11 = moment(err, err), moment(ext, ext)
    if not forward:
        return alpha, k11, mse
    w_truth = w * truth
    k01 = dn._total(w_truth * ext)
    return alpha, np.array([[dn._total(w_truth * truth), k01], [k01, k11]]), mse


def _input_step(gm, tau_m, clip):
    """Forward update for the standard-normal input prior (exact algebra)."""
    slope = gm / (1.0 + gm)
    alpha = clip(slope)
    mse_plus = slope * slope * tau_m + (1.0 - slope) ** 2
    scale = 1.0 / (1.0 - alpha)
    # Qp = ((slope - alpha) Qm - (1 - slope) Z) / (1 - alpha)
    # (unclipped, ca = 0: the prior's extrinsic message is 0 and Qp = -Z)
    ca, cz = (slope - alpha) * scale, -(1.0 - slope) * scale
    k11 = ca * ca * tau_m + cz * cz
    return alpha, np.array([[1.0, cz], [cz, k11]]), mse_plus


# ---------------------------------------------------------------------------
# Full recursion
# ---------------------------------------------------------------------------


def se_forward_layer(law, ell, K_prev, mu_prev, tau_m, gm, gp_prev, mode, order, clip):
    """One forward update at layer ``ell`` (1-based): ``(alpha, K_new, mse_plus)``."""
    layer = law.layers[ell - 1]
    if layer.kind == "linear":
        return _affine_step(layer, True, K_prev, tau_m, gm, gp_prev, clip)
    return _separable_step(layer, True, K_prev, mu_prev, tau_m, gm, gp_prev, mode, order, clip)


def se_backward_layer(law, ell, K_prev, mu_prev, tau_m, gm, gp_prev, mode, order, clip):
    """One backward update at layer ``ell`` (1-based): ``(alpha, tau_new, mse_minus)``.

    The measurement layer is observed exactly: it takes ``gm = inf`` and
    ``tau_m = 0``.
    """
    layer = law.layers[ell - 1]
    if layer.kind == "nonlinear":
        return _separable_step(layer, False, K_prev, mu_prev, tau_m, gm, gp_prev, mode, order, clip)
    return _affine_step(layer, False, K_prev, tau_m, gm, gp_prev, clip)


def run_se(law, config):
    """Iterate the scalar recursion and emit per-half-iteration error predictions.

    The recursion runs the engine's sweep schedule and precision bookkeeping
    (``engine.sweep``, ``engine.Bookkeeping``) on plain ``Precisions``; its
    messages are the plus-side moments ``K`` and the minus-side error second
    moments ``tau_m``.
    """
    n = law.num_layers  # hidden signals 0 .. n-1
    tau0, mu = se_initial_pass(law)
    prec = Precisions(**Precisions.start(n, config.gamma_init))
    # prior messages are zero, so the plus error is minus the truth
    K = np.array([[[t, -t], [-t, t]] for t in tau0[:n]])
    tau_m = tau0[:n].copy()

    ends = []  # per iteration: the SEResult fields up to tau_minus
    nmse_rows = []
    for k in range(config.iterations):
        book = Bookkeeping(config.alpha_clip, config.damping, iteration=k)
        mse = np.zeros((2, n))

        # each step's clip names the signal it updates, as the engine's does
        def forward(ell):
            clip = functools.partial(book.clip, layer=ell)
            if ell == 0:
                alpha, K[0], mse[0, 0] = _input_step(prec.gamma_minus[0], tau_m[0], clip)
            else:
                alpha, K[ell], mse[0, ell] = se_forward_layer(
                    law, ell, K[ell - 1], mu[ell - 1], tau_m[ell], prec.gamma_minus[ell],
                    prec.gamma_plus[ell - 1], config.mode, config.quad_order, clip=clip,
                )
            return alpha

        def backward(ell):
            observed = ell == n - 1
            alpha, tau_m[ell], mse[1, ell] = se_backward_layer(
                law, ell + 1, K[ell], mu[ell], 0.0 if observed else tau_m[ell + 1],
                math.inf if observed else prec.gamma_minus[ell + 1], prec.gamma_plus[ell],
                config.mode, config.quad_order, clip=functools.partial(book.clip, layer=ell),
            )
            return alpha

        sweep(prec, True, forward, book)
        sweep(prec, False, backward, book)
        nmse_rows += [mse[0] / tau0[:n], mse[1] / tau0[:n]]
        ends.append([a.copy() for a in (prec.gamma_plus, prec.gamma_minus, prec.alpha_plus,
                                        prec.alpha_minus, K, tau_m)])
        if k > 0 and config.stop_tol > 0:
            params, prev = (np.concatenate(end[:2]) for end in (ends[-1], ends[-2]))
            change = np.max(np.abs(params - prev) / np.maximum(np.abs(prev), 1e-30))
            if change < config.stop_tol:
                break

    nmse = np.array(nmse_rows)
    return SEResult(*map(np.array, zip(*ends)),
                    nmse_db=10.0 * np.log10(np.maximum(nmse, 1e-30)), mse=nmse * tau0[:n])
