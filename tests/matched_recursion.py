"""The matched posterior-mean fixed point, solved apart from ``run_se``.

Under matched (Bayes-optimal) channels each plus-side error has variance
``1/gamma_plus`` and is orthogonal to its message (``K01 = -K11``), and each
minus-side error has variance ``1/gamma_minus``.  Every precision then follows
from the posterior variance of one layer: ``gamma_plus = 1/mse - gamma_minus``
forward and the mirrored update backward.  This module binds the channels that
way itself, with the affine posterior variances in closed form, rather than
through the predictor's tracked moments, so it is an independent reference for
the fixed point ``run_se`` reaches.

The fixed point is solved by Anderson mixing (Walker & Ni, SIAM J. Numer.
Anal. 2011) on the 2L log-precisions; the map is one undamped sweep in the
engine's order, each precision clamped as the engine clamps it.
"""

import math
from dataclasses import dataclass

import numpy as np

from mlvamp import denoisers as dn
from mlvamp.engine import clip_alpha
from mlvamp.errors import InvalidModelError
from mlvamp.model import zero_pad
from mlvamp.state_evolution import _separable_step, se_initial_pass

#: Anderson history depth and mixing.
DEPTH = 6
MIXING = 0.5
#: Converged once a sweep moves no log-precision by this much.
TOL = 1e-12
MAX_SWEEPS = 500


@dataclass
class MatchedResult:
    gamma_plus: np.ndarray
    gamma_minus: np.ndarray
    mse: np.ndarray
    residual: float
    converged: bool
    sweeps: int


def _matched_K(tau0, gp_prev):
    """Plus-side moments of a matched channel: error variance ``1/gp``,
    orthogonal to the message (``K01 = -K11``)."""
    k11 = 1.0 / gp_prev
    return np.array([[tau0, -k11], [-k11, k11]])


def _matched_mse(law, ell, forward, tau0, mu, gm, gp_prev, order):
    """Posterior variance of the output (forward) or input (backward) of layer
    ``ell`` under matched channels; ``gm = inf`` at the observed output."""
    layer = law.layers[ell - 1]
    if layer.kind == "linear":
        nu = layer.noise_precision
        s = zero_pad(layer.singular_values, layer.n_out if forward else layer.n_in)
        if forward:
            aq, _, _ = dn.linear_gains_plus(s, nu, gm, gp_prev)
            return float(np.mean(aq)) / gm
        if not math.isinf(gm):
            return float(np.mean(dn.linear_gains_minus(s, nu, gm, gp_prev)[1])) / gp_prev
        if math.isinf(nu):
            return float(np.mean(np.where(s > 0, 0.0, 1.0 / gp_prev)))
        return float(np.mean(1.0 / (gp_prev + nu * s * s)))
    K = _matched_K(tau0[ell - 1], gp_prev)
    return _separable_step(
        layer, forward, K, mu[ell - 1], 1.0 / gm, gm, gp_prev, "mmse", order, clip_alpha
    )[2]


def matched_mmse_recursion(law, config):
    """Fixed point of the matched posterior-mean precision recursion, started
    from ``config.gamma_init``, and the residual of both updates there."""
    if config.mode != "mmse":
        raise InvalidModelError("the matched recursion is defined for mmse mode")
    order = config.quad_order
    n = law.num_layers
    tau0, mu = se_initial_pass(law)
    gm = np.full(n, float(config.gamma_init))
    gp = np.full(n, float(config.gamma_init))

    def visit(update):
        """Set each precision, in sweep order, to ``update(old, matched target)``."""
        gp[0] = update(gp[0], (1.0 + gm[0]) - gm[0])
        for ell in range(1, n):
            mse = _matched_mse(law, ell, True, tau0, mu, gm[ell], gp[ell - 1], order)
            gp[ell] = update(gp[ell], 1.0 / mse - gm[ell])
        mse = _matched_mse(law, n, False, tau0, mu, math.inf, gp[n - 1], order)
        gm[n - 1] = update(gm[n - 1], 1.0 / mse - gp[n - 1])
        for ell in range(n - 1, 0, -1):
            mse = _matched_mse(law, ell, False, tau0, mu, gm[ell], gp[ell - 1], order)
            gm[ell - 1] = update(gm[ell - 1], 1.0 / mse - gp[ell - 1])

    def step(x):
        """One undamped sweep from the log-precisions ``x``: what it moves them by."""
        gp[:], gm[:] = np.exp(x[:n]), np.exp(x[n:])
        visit(lambda old, raw: dn.clip_gamma(raw))
        return np.log(np.concatenate([gp, gm])) - x

    x = np.log(np.concatenate([gp, gm]))
    xs, fs = [], []
    f, sweeps = step(x), 1
    while np.max(np.abs(f)) >= TOL and sweeps < MAX_SWEEPS:
        xs, fs = xs[-DEPTH:] + [x], fs[-DEPTH:] + [f]
        dx, df = np.diff(xs, axis=0).T, np.diff(fs, axis=0).T
        coef = np.linalg.lstsq(df, f, rcond=None)[0]
        x = x + MIXING * f - (dx + MIXING * df) @ coef
        f, sweeps = step(x), sweeps + 1

    residual = 0.0

    def measure(old, raw):
        nonlocal residual
        residual = max(residual, abs(old - raw) / abs(old))
        return old

    visit(measure)
    return MatchedResult(
        gamma_plus=gp,
        gamma_minus=gm,
        mse=1.0 / (gp + gm),
        residual=float(residual),
        converged=bool(np.max(np.abs(f)) < TOL),
        sweeps=sweeps,
    )
