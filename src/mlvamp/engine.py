"""Alternating forward/backward message-passing over a layered network.

The engine keeps, for every hidden signal ``z_0 .. z_{L-1}``, two running
estimates (one per sweep direction), the extrinsic pseudo-observations
``r_minus`` / ``r_plus`` with scalar precisions ``gamma_minus`` /
``gamma_plus``, and the divergence bookkeeping that ties them together:
after each estimator call ``eta = gamma / alpha`` and the opposite-side
precision is ``eta - gamma``.  The sweep schedule and that bookkeeping are
shared with the scalar predictor in ``state_evolution``, which runs the same
algorithm on scalars.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import denoisers as dn
from .errors import (
    DivergedIterationError,
    InvalidModelError,
    NumericFailureError,
    UndefinedMetricError,
    check_count,
    check_real,
)
from .model import NetworkSpec, activation_slope, apply_activation

#: Divergences are clamped to [ALPHA_MIN, 1 - ALPHA_MIN] before the
#: extrinsic division; clamp events are logged in the trace.
ALPHA_MIN = 1e-6

#: Floor used when a metric denominator could vanish.
_TINY = 1e-300


@dataclass(frozen=True)
class EngineConfig:
    """Run-time knobs for the message-passing iteration."""

    max_iters: int = 50
    mode: str = "mmse"
    gamma_init: float = 1e-4
    damping: float = 1.0
    alpha_clip: float = ALPHA_MIN
    convergence_tol: float = 0.0

    def __post_init__(self):
        if self.mode not in ("mmse", "map"):
            raise InvalidModelError("mode must be 'mmse' or 'map'")
        if not (0.0 < self.damping <= 1.0):
            raise InvalidModelError("damping must lie in (0, 1]")
        check_count("max_iters", self.max_iters, 0)
        check_real("convergence_tol", self.convergence_tol, 0.0)
        check_real("gamma_init", self.gamma_init, dn.GAMMA_MIN, dn.GAMMA_MAX)
        # clip_alpha clamps to [alpha_clip, 1 - alpha_clip], a point or empty from 0.5 on
        check_real("alpha_clip", self.alpha_clip, 0.0, 0.5)
        if self.alpha_clip <= 0:
            raise InvalidModelError("alpha_clip must be positive")


@dataclass
class Precisions:
    """Per-signal precisions and divergences of both sides (``eta = gamma / alpha``)."""

    gamma_minus: np.ndarray
    gamma_plus: np.ndarray
    alpha_plus: np.ndarray
    alpha_minus: np.ndarray
    eta_plus: np.ndarray
    eta_minus: np.ndarray

    @staticmethod
    def start(n, gamma_init):
        """The fields of ``n`` signals before the first sweep: every gamma at
        ``gamma_init``, every alpha at 0.5, so every eta at ``2 gamma_init``."""
        g = float(gamma_init)
        return dict(
            gamma_minus=np.full(n, g), gamma_plus=np.full(n, g),
            alpha_plus=np.full(n, 0.5), alpha_minus=np.full(n, 0.5),
            eta_plus=np.full(n, 2.0 * g), eta_minus=np.full(n, 2.0 * g),
        )


@dataclass
class MessageState(Precisions):
    """All per-layer iterates for hidden signals 0 .. L-1."""

    r_minus: list
    r_plus: list
    zhat_plus: list
    zhat_minus: list

    @property
    def num_signals(self):
        return len(self.r_minus)


@dataclass(frozen=True)
class TraceRow:
    """Snapshot taken after one directional pass."""

    half_iter: int
    direction: str
    nmse_db: tuple | None
    gamma_plus: np.ndarray
    gamma_minus: np.ndarray
    alpha_plus: np.ndarray
    alpha_minus: np.ndarray
    consistency: float
    max_delta: float
    clip_events: int


@dataclass
class IterationTrace:
    rows: list = field(default_factory=list)


@dataclass(frozen=True)
class FixedPointReport:
    """Residuals of the identities any fixed point must satisfy."""

    consistency_residual: float
    eta_residual: float
    combination_residual: float
    map_stationarity: float | None
    moment_match: float | None

    def as_dict(self):
        return asdict(self)


# ---------------------------------------------------------------------------
# The schedule and the precision bookkeeping, shared with the predictor
# ---------------------------------------------------------------------------


def clip_alpha(alpha, bound=ALPHA_MIN):
    """A divergence clamped to ``[bound, 1 - bound]``; NaN stays NaN."""
    return float(min(max(alpha, bound), 1.0 - bound))


def damp(old, new, damping):
    """Geometric damping of a precision; a fixed point (``new == old``) stays put."""
    if damping >= 1.0:
        return new
    return float(old ** (1.0 - damping) * new**damping)


class Bookkeeping:
    """The precision bookkeeping of one iteration, for vectors and scalars alike.

    An estimator call on one side of a signal yields the divergence alpha.
    ``clip`` clamps it before the extrinsic division; ``update`` then sets
    ``eta = gamma_other / alpha`` and the side's precision to the damped
    ``clip_gamma(eta - gamma_other)``.  Clips of either are counted in
    ``events``.
    """

    def __init__(self, alpha_clip=ALPHA_MIN, damping=1.0, iteration=0):
        self.alpha_clip = alpha_clip
        self.damping = damping
        self.iteration = iteration
        self.events = 0

    def clip(self, alpha, layer=None):
        if not math.isfinite(alpha):
            raise DivergedIterationError(
                f"divergence estimate is not finite at layer {layer}",
                layer=layer,
                iteration=self.iteration,
            )
        clipped = clip_alpha(alpha, self.alpha_clip)
        if clipped != alpha:
            self.events += 1
        return clipped

    def update(self, gamma, gamma_other, alpha):
        """``(eta, new gamma)`` for the side whose clipped divergence is ``alpha``."""
        eta = gamma_other / alpha
        raw = eta - gamma_other
        new = dn.clip_gamma(raw)
        if new != raw:  # out of range, or not a number
            self.events += 1
        return eta, damp(gamma, new, self.damping)


def sweep(prec, forward, endpoint, pair, book):
    """One directional sweep of the schedule over the precisions ``prec``.

    Forward, the input prior updates the plus side of signal 0, then the
    pair at layer ``ell = 1 .. L-1`` that of signal ``ell``.  Backward, the
    observed output layer updates the minus side of signal L-1, then the
    pair at layer ``ell = L-1 .. 1`` that of signal ``ell - 1``.
    ``endpoint()`` and ``pair(ell)`` run the estimator, store the new
    extrinsic message and return the divergence clipped by ``book.clip``.
    """
    n = prec.gamma_plus.size
    if forward:
        for ell in range(n):
            alpha = pair(ell) if ell > 0 else endpoint()
            prec.alpha_plus[ell] = alpha
            prec.eta_plus[ell], prec.gamma_plus[ell] = book.update(
                prec.gamma_plus[ell], prec.gamma_minus[ell], alpha
            )
    else:
        for ell in range(n - 1, -1, -1):
            alpha = pair(ell + 1) if ell < n - 1 else endpoint()
            prec.alpha_minus[ell] = alpha
            prec.eta_minus[ell], prec.gamma_minus[ell] = book.update(
                prec.gamma_minus[ell], prec.gamma_plus[ell], alpha
            )


# ---------------------------------------------------------------------------
# Engine state and sweeps
# ---------------------------------------------------------------------------


class Rotations:
    """The messages of one engine run in their layers' range coordinates.

    Called as ``dn.rotate_message``.  The engine replaces a message and never
    changes one in place, so the last product of each (layer, side) is served
    again while its message object is current.  That object is held here, so
    its identity cannot pass to a new array.  Each affine message is then
    rotated once per sweep: the backward sweep reuses the forward sweep's
    ``right @ r_plus``, the next forward sweep the backward sweep's
    ``left.T @ r_minus``, and the observation is rotated once per run.
    """

    def __init__(self):
        self._last = {}

    def __call__(self, factors, side, message):
        key = (id(factors), side)
        last = self._last.get(key)
        if last is not None and last[0] is message:
            return last[1]
        rotated = dn.rotate_message(factors, side, message)
        self._last[key] = (message, rotated)
        return rotated


@dataclass(frozen=True)
class DenoiserBank:
    """The network (each affine layer carries its SVD factors), plus y, the
    mode and the run's rotation cache."""

    spec: NetworkSpec
    y: np.ndarray
    mode: str
    rotate: Rotations = field(default_factory=Rotations)


def build_denoiser_bank(spec, y, mode):
    """The bank of one run over ``spec``, once ``y`` is checked against it."""
    y = np.asarray(y, float)
    if y.shape != (spec.dims[-1],):
        raise InvalidModelError("observation length mismatches the network output width")
    return DenoiserBank(spec=spec, y=y, mode=mode)


def initialize(spec, config):
    """Fresh state: all pseudo-observations zero, precisions at gamma_init."""
    n = spec.num_layers
    dims = spec.dims[:-1]
    return MessageState(
        **Precisions.start(n, config.gamma_init),
        r_minus=[np.zeros(d) for d in dims],
        r_plus=[np.zeros(d) for d in dims],
        zhat_plus=[np.zeros(d) for d in dims],
        zhat_minus=[np.zeros(d) for d in dims],
    )


def signal_power_ladder(spec):
    """A-priori per-component second moments of the signals z_0 .. z_L.

    The predictor's initial pass over the network's own law; used to detect
    runaway estimates.
    """
    from .state_evolution import network_law, se_initial_pass  # it imports this module

    return se_initial_pass(network_law(spec))[0]


def _pair_estimate(state, bank, ell, forward, iteration):
    """``(estimate, divergence)`` at the pair layer ``ell`` (1-based) from the
    current messages: of its output (signal ``ell``) forward, of its input
    (signal ``ell - 1``) backward.  A failure names that signal."""
    layer = bank.spec.layers[ell - 1]
    params = dn.BeliefParams(
        state.r_minus[ell], state.r_plus[ell - 1], state.gamma_minus[ell], state.gamma_plus[ell - 1]
    )
    try:
        if layer.kind == "linear":
            return dn.linear_pair(
                params, layer.factors, layer.noise_precision, forward, rotate=bank.rotate
            )
        if bank.mode == "mmse":
            return dn.mmse_pair_nonlinear(params, layer, forward)
        return dn.map_pair_nonlinear(params, layer, forward)
    except NumericFailureError as exc:
        signal = ell if forward else ell - 1
        raise DivergedIterationError(str(exc), layer=signal, iteration=iteration) from exc


def _output_estimate(state, bank, iteration):
    """``(estimate, divergence)`` of the last hidden signal given the observation."""
    last = state.num_signals - 1
    layer = bank.spec.layers[-1]
    r_plus, gamma_plus = state.r_plus[last], state.gamma_plus[last]
    try:
        if layer.kind == "linear":
            return dn.output_linear(
                r_plus, gamma_plus, bank.y, layer.factors, layer.noise_precision, rotate=bank.rotate
            )
        zm, dm = dn.separable_output_fields(
            r_plus, gamma_plus, bank.y, layer.activation, layer.noise_precision, bank.mode
        )
        return zm, dn._mean(dm)
    except NumericFailureError as exc:
        raise DivergedIterationError(str(exc), layer=last, iteration=iteration) from exc


def _extrinsic(zhat, message, alpha, ell, book):
    """Clipped divergence and extrinsic message ``(zhat - alpha message) / (1 - alpha)``."""
    if not np.isfinite(zhat).all():
        raise DivergedIterationError(
            f"non-finite estimate at layer {ell}", layer=ell, iteration=book.iteration
        )
    alpha = book.clip(alpha, ell)
    return alpha, (zhat - alpha * message) / (1.0 - alpha)


def forward_pass(state, bank, book):
    """One left-to-right sweep; updates the plus-side quantities."""

    def update(ell, estimate):
        zhat, alpha = estimate
        alpha, state.r_plus[ell] = _extrinsic(zhat, state.r_minus[ell], alpha, ell, book)
        state.zhat_plus[ell] = zhat
        return alpha

    sweep(
        state,
        True,
        lambda: update(0, dn.input_denoiser(state.r_minus[0], state.gamma_minus[0])),
        lambda ell: update(ell, _pair_estimate(state, bank, ell, True, book.iteration)),
        book,
    )
    return state


def backward_pass(state, bank, book):
    """One right-to-left sweep; updates the minus-side quantities."""

    def update(ell, estimate):
        zhat, alpha = estimate
        alpha, state.r_minus[ell] = _extrinsic(zhat, state.r_plus[ell], alpha, ell, book)
        state.zhat_minus[ell] = zhat
        return alpha

    sweep(
        state,
        False,
        lambda: update(state.num_signals - 1, _output_estimate(state, bank, book.iteration)),
        lambda ell: update(ell - 1, _pair_estimate(state, bank, ell, False, book.iteration)),
        book,
    )
    return state


def _norm(x):
    """Euclidean norm of a 1-D float vector, as ``np.linalg.norm`` computes it."""
    return math.sqrt(x @ x)


def nmse_db(zhat, z0):
    """Normalized squared error in decibels; floored at -300 dB."""
    z0 = np.asarray(z0, float)
    zhat = np.asarray(zhat, float)
    if zhat.shape != z0.shape:
        raise UndefinedMetricError("estimate and reference lengths differ")
    ref = float(z0 @ z0)
    if ref <= 0.0:
        raise UndefinedMetricError("zero reference signal")
    return _nmse_db(zhat, z0, ref)


def _nmse_db(zhat, z0, ref):
    """``nmse_db`` of a same-length float estimate against ``z0``, whose energy is ``ref``."""
    err = z0 - zhat
    return 10.0 * math.log10(max(float(err @ err) / ref, 1e-30))


def _references(truth, spec):
    """Each hidden truth signal with its energy, checked once for a run's error rows."""
    widths = spec.dims[:-1]
    if len(truth.signals) < len(widths):
        raise UndefinedMetricError(f"truth holds {len(truth.signals)} signals, not {len(widths)}")
    refs = []
    for ell, (width, z0) in enumerate(zip(widths, truth.signals)):
        z0 = np.asarray(z0, float)
        if z0.shape != (width,):
            raise UndefinedMetricError(f"truth signal {ell} is not a vector of length {width}")
        ref = float(z0 @ z0)
        if ref <= 0.0:
            raise UndefinedMetricError(f"zero reference signal at layer {ell}")
        refs.append((z0, ref))
    return refs


def _consistency(state):
    """Largest ``||zhat_plus - zhat_minus|| / ||zhat_plus||`` over the signals.

    A zero plus estimate (as the prior's can be in the first iteration) is
    measured against the minus estimate instead; two zero estimates agree.
    """
    worst = 0.0
    for zp, zm in zip(state.zhat_plus, state.zhat_minus):
        gap = _norm(zp - zm)
        if gap > 0.0:
            worst = max(worst, gap / (_norm(zp) or _norm(zm)))
    return worst


def run(spec, y, config, truth=None):
    """Alternate sweeps until the budget or the convergence tolerance is hit.

    Pure function of ``(spec, y, config)``; ``truth`` only adds per-pass
    error metrics to the trace.  Returns ``(state, trace, report)``.
    """
    bank = build_denoiser_bank(spec, y, config.mode)
    refs = None if truth is None else _references(truth, bank.spec)
    state = initialize(spec, config)
    power = signal_power_ladder(bank.spec)
    trace = IterationTrace()
    for k in range(config.max_iters):
        prev = state.zhat_plus + state.zhat_minus  # estimates are replaced, never mutated
        book = Bookkeeping(config.alpha_clip, config.damping, iteration=k)
        try:
            forward_pass(state, bank, book)
            _check_blowup(state.zhat_plus, power, k)
            _record(trace, state, 2 * k + 1, "forward", refs, book.events, math.nan)
            backward_pass(state, bank, book)
            _check_blowup(state.zhat_minus, power, k)
        except DivergedIterationError as exc:
            exc.trace = trace
            raise
        delta = math.inf if k == 0 else max(
            _norm(new - old) / max(_norm(old), _TINY)
            for new, old in zip(state.zhat_plus + state.zhat_minus, prev)
        )
        _record(trace, state, 2 * k + 2, "backward", refs, book.events, delta)
        if config.convergence_tol > 0 and delta < config.convergence_tol:
            break
    report = fixed_point_report(state, spec, y, config.mode)
    return state, trace, report


#: Estimates whose energy exceeds this multiple of the prior signal energy
#: are runaway iterates, not estimates.
BLOWUP_FACTOR = 1e3


def _check_blowup(estimates, power, iteration):
    """Raise unless each of one side's estimates' energy ``z @ z`` is within
    the energy bound.

    A sweep replaces one side only; the other passed after the sweep before.
    """
    for ell, z in enumerate(estimates):
        if not float(z @ z) <= BLOWUP_FACTOR * z.size * power[ell]:
            raise DivergedIterationError(
                f"estimate energy exceeds {BLOWUP_FACTOR:.0e} x the prior signal "
                f"energy at layer {ell}",
                layer=ell,
                iteration=iteration,
            )


def _record(trace, state, half, direction, refs, clip_events, delta):
    """Append one pass's row; ``refs`` are the truth's ``_references``, if any."""
    nmse = None
    if refs is not None:
        estimates = state.zhat_plus if direction == "forward" else state.zhat_minus
        nmse = tuple(_nmse_db(zh, z0, ref) for zh, (z0, ref) in zip(estimates, refs))
    trace.rows.append(
        TraceRow(
            half_iter=half,
            direction=direction,
            nmse_db=nmse,
            gamma_plus=state.gamma_plus.copy(),
            gamma_minus=state.gamma_minus.copy(),
            alpha_plus=state.alpha_plus.copy(),
            alpha_minus=state.alpha_minus.copy(),
            consistency=_consistency(state) if direction == "backward" else math.nan,
            max_delta=delta,
            clip_events=clip_events,
        )
    )


# ---------------------------------------------------------------------------
# Fixed-point diagnostics
# ---------------------------------------------------------------------------


def combined_estimate(state, ell):
    """Precision-weighted combination of both pseudo-observations."""
    gp, gm = state.gamma_plus[ell], state.gamma_minus[ell]
    return (gp * state.r_plus[ell] + gm * state.r_minus[ell]) / (gp + gm)


def fixed_point_report(state, spec, y, mode):
    """Residuals of the stationarity identities at the current state."""
    n = state.num_signals
    consistency = _consistency(state)
    eta_res = 0.0
    comb_res = 0.0
    for ell in range(n):
        eta_sum = state.gamma_plus[ell] + state.gamma_minus[ell]
        eta_res = max(
            eta_res,
            abs(state.eta_plus[ell] - eta_sum) / state.eta_plus[ell],
            abs(state.eta_minus[ell] - eta_sum) / state.eta_minus[ell],
        )
        zc = combined_estimate(state, ell)
        denom = max(_norm(state.zhat_plus[ell]), _TINY)
        comb_res = max(
            comb_res,
            _norm(state.zhat_plus[ell] - zc) / denom,
            _norm(state.zhat_minus[ell] - zc) / denom,
        )

    stationarity = None
    if mode == "map" and all(math.isfinite(l.noise_precision) for l in spec.layers):
        zs = [combined_estimate(state, ell) for ell in range(n)]
        stationarity = map_stationarity(spec, y, zs)

    moment = None
    if mode == "mmse":
        moment = 0.0
        for ell in range(n):
            eta_sum = state.gamma_plus[ell] + state.gamma_minus[ell]
            var_out = state.alpha_plus[ell] / state.gamma_minus[ell]
            var_in = state.alpha_minus[ell] / state.gamma_plus[ell]
            moment = max(
                moment,
                abs(var_out * eta_sum - 1.0),
                abs(var_in * eta_sum - 1.0),
            )
        moment = max(moment, consistency, comb_res)

    return FixedPointReport(
        consistency_residual=consistency,
        eta_residual=eta_res,
        combination_residual=comb_res,
        map_stationarity=stationarity,
        moment_match=moment,
    )


def map_stationarity(spec, y, zs):
    """Relative gradient norm of the joint negative log-density at ``zs``.

    All layer conditionals must have finite noise precision so the
    objective is differentiable; at relu kinks (``|x| <= 1e-12``) the
    subgradient element of least magnitude is selected (zero whenever the
    interval contains it).
    """
    grads = [np.zeros_like(z) for z in zs]
    contribs = [_norm(zs[0])]
    grads[0] += zs[0]
    kinks = []  # (signal index, component mask, coefficient array)
    for ell, layer in enumerate(spec.layers, start=1):
        x = zs[ell - 1]
        z = y if ell == len(spec.layers) else zs[ell]
        nu = layer.noise_precision
        if layer.kind == "linear":
            w = layer.weight  # a package-made layer builds it on each read
            resid = z - w @ x - layer.bias
            if ell != len(spec.layers):
                grads[ell] += nu * resid
                contribs.append(_norm(nu * resid))
            back = -nu * (w.T @ resid)
            grads[ell - 1] += back
            contribs.append(_norm(back))
        else:
            phi = apply_activation(layer.activation, x)
            resid = z - phi
            if ell != len(spec.layers):
                grads[ell] += nu * resid
                contribs.append(_norm(nu * resid))
            slope = activation_slope(layer.activation, x)
            if layer.activation == "relu":
                at_kink = np.abs(x) <= 1e-12
                slope = np.where(at_kink, 0.0, slope)
                if np.any(at_kink):
                    kinks.append((ell - 1, at_kink, -nu * resid))
            back = -nu * slope * resid
            grads[ell - 1] += back
            contribs.append(_norm(back))
    for idx, mask, coef in kinks:
        g = grads[idx]
        t = np.clip(np.divide(g, -coef, out=np.zeros_like(g), where=coef != 0.0), 0.0, 1.0)
        g[mask] = (g + coef * t)[mask]
    total = math.sqrt(sum(float(g @ g) for g in grads))
    scale = max(max(contribs), _TINY)
    return total / scale
