"""Layered stochastic network: construction, sampling, and random ensembles.

A network is an ordered list of layers mapping a signal chain
``z_0 -> z_1 -> ... -> z_L`` where ``y = z_L`` is the observation.
Affine layers apply ``z = W x + b (+ Gaussian noise)``; separable layers
apply a scalar activation componentwise (optionally with additive
Gaussian noise).  The input ``z_0`` is always i.i.d. standard normal.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgeqrf, dorgqr, dormqr
from scipy.special import expit

from .errors import (
    DegenerateModelError, InvalidModelError, MlvampError, NumericFailureError, check_count, check_real,
)
from .seeding import substream

#: Sentinel for an exact (noise-free) conditional: precision -> infinity.
NOISELESS = math.inf

ACTIVATIONS = ("identity", "relu", "sign", "sigmoid")

ORTHOGONALITY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-8


def apply_activation(name, x):
    """Evaluate the scalar activation ``name`` componentwise."""
    x = np.asarray(x, dtype=float)
    if name == "identity":
        return x
    if name == "relu":
        return np.maximum(x, 0.0)
    if name == "sign":
        return np.where(x >= 0.0, 1.0, -1.0)
    if name == "sigmoid":
        return expit(x)
    raise InvalidModelError(f"unknown activation {name!r}")


def activation_slope(name, x):
    """Derivative of the activation, right-continuous at kinks."""
    x = np.asarray(x, dtype=float)
    if name == "identity":
        return np.ones_like(x)
    if name == "relu":
        return np.where(x >= 0.0, 1.0, 0.0)
    if name == "sign":
        return np.zeros_like(x)
    if name == "sigmoid":
        s = expit(x)
        return s * (1.0 - s)
    raise InvalidModelError(f"unknown activation {name!r}")


def _check_orthonormal(q):
    """Raise unless ``q``'s columns are orthonormal, probed in O(nk) on a fixed
    ``p``: ``max|q.T @ (q @ p) - p|`` must stay within ``ORTHOGONALITY_TOL``."""
    probe = np.random.default_rng(0).standard_normal(q.shape[1])
    err = np.max(np.abs(q.T @ (q @ probe) - probe))
    if not err <= ORTHOGONALITY_TOL:  # a non-finite entry makes err NaN
        raise InvalidModelError(f"factor not orthogonal (|QtQp - p| = {err:.3e})")


@dataclass(frozen=True)
class SvdFactors:
    """Compact SVD ``W = left @ diag(s) @ right`` of an affine layer.

    With ``k = min(n_out, n_in)``, ``left`` is ``n_out x k`` with orthonormal
    columns, ``s`` holds the ``k`` singular values sorted descending, and
    ``right`` is ``k x n_in`` with orthonormal rows (applied untransposed).
    The null space past these ``k`` directions is never formed: its
    components all have singular value 0 and share every gain, so it enters
    only by projection (``x - left @ (left.T @ x)``).  ``bias`` is the layer's
    raw bias and ``transformed_bias`` its range coordinates ``left.T @ bias``.
    Orthonormality is probe-checked on ``left`` and ``right.T``; entries are finite.
    """

    left_orthogonal: np.ndarray
    singular_values: np.ndarray
    right_orthogonal: np.ndarray
    bias: np.ndarray
    transformed_bias: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n_out = self.left_orthogonal.shape[0]
        n_in = self.right_orthogonal.shape[1]
        k = min(n_out, n_in)
        if k < 1:
            raise InvalidModelError("an affine layer needs positive dimensions")
        if self.singular_values.shape != (k,):
            raise InvalidModelError("need min(n_out, n_in) singular values")
        if self.left_orthogonal.shape != (n_out, k):
            raise InvalidModelError("left factor must be n_out x min(n_out, n_in)")
        if self.right_orthogonal.shape != (k, n_in):
            raise InvalidModelError("right factor must be min(n_out, n_in) x n_in")
        if not np.all(np.isfinite(self.singular_values) & (self.singular_values >= 0)):
            raise InvalidModelError("singular values must be finite and nonnegative")
        if np.any(np.diff(self.singular_values) > 0):
            raise InvalidModelError("singular values must be sorted descending")
        _check_orthonormal(self.left_orthogonal)
        _check_orthonormal(self.right_orthogonal.T)
        if self.bias.shape != (n_out,) or not np.all(np.isfinite(self.bias)):
            raise InvalidModelError("bias must hold n_out finite entries")
        object.__setattr__(self, "transformed_bias", self.left_orthogonal.T @ self.bias)

    @property
    def out_dim(self):
        return self.left_orthogonal.shape[0]

    @property
    def in_dim(self):
        return self.right_orthogonal.shape[1]

    def to_weight(self):
        """Reassemble the dense weight matrix: ``left`` with its columns scaled by
        the singular values, times ``right``."""
        return (self.left_orthogonal * self.singular_values) @ self.right_orthogonal


class _Weight:
    """``LinearLayerSpec.weight``: the stored matrix, else the factors multiplied out."""

    def __get__(self, layer, owner=None):
        if layer is None:
            return None  # the field's default
        w = layer.__dict__["_weight"]
        return layer.factors.to_weight() if w is None else w

    def __set__(self, layer, value):
        layer.__dict__["_weight"] = None if value is None else np.asarray(value, dtype=float)


@dataclass(frozen=True, kw_only=True)
class LinearLayerSpec:
    """Affine layer ``z_out = weight @ z_in + bias + noise``.

    ``noise_precision`` is the inverse variance of the additive Gaussian
    noise; ``NOISELESS`` (infinity) means the map is exact.  Every layer
    carries its compact ``factors``: a package-made layer holds only them and
    builds ``weight`` when read; one made from a dense ``weight`` (as a loaded
    network's are) keeps it, factored by one checked SVD at construction.  A
    ``bias`` given with ``factors`` must equal theirs, and a ``weight`` must be
    their product within ``RECONSTRUCTION_TOL``; one equal to it is not kept.
    """

    weight: np.ndarray | None = _Weight()
    bias: np.ndarray
    noise_precision: float
    factors: SvdFactors | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        w = self.__dict__["_weight"]
        b = np.asarray(self.bias, dtype=float)
        object.__setattr__(self, "bias", b)
        if self.factors is None:
            if w is None:
                raise InvalidModelError("an affine layer needs a weight or its factors")
            object.__setattr__(self, "factors", _svd_factors(w, b))
        elif w is not None:  # beside its factors, as ``dataclasses.replace`` passes it
            rebuilt = self.factors.to_weight()
            if w.shape != rebuilt.shape or not _relative_gap(rebuilt, w) <= RECONSTRUCTION_TOL:
                raise InvalidModelError("weight disagrees with the layer's factors")
            if np.array_equal(w, rebuilt):
                object.__setattr__(self, "weight", None)
        if not np.array_equal(b, self.factors.bias):  # the factors check its shape and entries
            raise InvalidModelError("bias disagrees with the layer's factors")
        if not (self.noise_precision > 0):
            raise InvalidModelError("noise_precision must be positive (or NOISELESS)")

    @property
    def out_dim(self):
        return self.factors.out_dim

    @property
    def in_dim(self):
        return self.factors.in_dim

    @property
    def kind(self):
        return "linear"


def _svd_factors(weight, bias):
    """The compact SVD of a dense weight, checked against it."""
    if weight.ndim != 2 or not np.all(np.isfinite(weight)):
        raise InvalidModelError("weight must be a matrix of finite entries")
    try:
        u, s, vt = np.linalg.svd(weight, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"SVD failed for a {weight.shape} layer") from exc
    factors = SvdFactors(left_orthogonal=u, singular_values=s, right_orthogonal=vt, bias=bias)
    gap = _relative_gap(factors.to_weight(), weight)
    if gap > RECONSTRUCTION_TOL:
        raise NumericFailureError(f"relative SVD reconstruction error {gap:.3e} exceeds tolerance")
    return factors


def _relative_gap(rebuilt, weight):
    """``max|rebuilt - weight|`` over the largest ``|weight|``; NaN for a non-finite weight."""
    return np.max(np.abs(rebuilt - weight)) / max(np.max(np.abs(weight)), 1e-300)


@dataclass(frozen=True)
class NonlinearLayerSpec:
    """Separable layer ``z_out = phi(z_in) (+ Gaussian noise)``.

    ``noise_precision == NOISELESS`` models a deterministic activation,
    i.e. a conditional point mass at ``phi(z_in)``.
    """

    activation: str
    noise_precision: float = NOISELESS

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise InvalidModelError(f"unknown activation {self.activation!r}")
        if not (self.noise_precision > 0):
            raise InvalidModelError("noise_precision must be positive (or NOISELESS)")

    @property
    def kind(self):
        return "nonlinear"


@dataclass(frozen=True)
class NetworkSpec:
    """Full generative model: layer list plus the signal dimensions N_0..N_L."""

    layers: tuple
    dims: tuple

    def __post_init__(self):
        layers = tuple(self.layers)
        dims = tuple(check_count("a dimension", d, 1) for d in self.dims)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "dims", dims)
        if len(dims) != len(layers) + 1:
            raise InvalidModelError("need one dimension per signal z_0..z_L")
        prev_kind = None
        for ell, layer in enumerate(layers, start=1):
            if layer.kind == "linear":
                if layer.in_dim != dims[ell - 1] or layer.out_dim != dims[ell]:
                    raise InvalidModelError(f"layer {ell} weight shape mismatches dims")
            else:
                if dims[ell] != dims[ell - 1]:
                    raise InvalidModelError(f"separable layer {ell} must preserve dimension")
                if prev_kind == "nonlinear":
                    raise InvalidModelError("consecutive separable layers are not supported")
            prev_kind = layer.kind

    @property
    def num_layers(self):
        return len(self.layers)


@dataclass(frozen=True)
class SignalSet:
    """One realization of the signal chain; ``signals[ell]`` has length dims[ell]."""

    signals: tuple

    @property
    def y(self):
        return self.signals[-1]


def zero_pad(vec, n):
    """``vec`` cut or zero-padded to length ``n``: an SVD component with no
    partner across an affine layer has singular value and bias 0."""
    out = np.zeros(n)
    k = min(n, vec.size)
    out[:k] = vec[:k]
    return out


def _lapack(routine, *args, **kwargs):
    """Call a scipy LAPACK wrapper with the workspace its query returns, as
    ``scipy.linalg``'s QR does: a smaller ``lwork`` changes the blocking and so
    the bits.  A nonzero ``info`` is a ``NumericFailureError``."""
    work = routine(*args, lwork=-1, **kwargs)[-2]
    *out, _, info = routine(*args, lwork=int(work[0].real), **kwargs)
    if info != 0:
        raise NumericFailureError(f"LAPACK {routine.__name__} returned info {info}")
    return out


#: Values per block of a Gaussian drawn into a Fortran-ordered array.
DRAW_BLOCK = 1 << 16


def standard_normal_fortran(rng, shape, columns=None):
    """The first ``columns`` columns of ``rng.standard_normal(shape)``, in a
    Fortran-ordered array that LAPACK can work on in place.

    The C-ordered draw is taken a block of about ``DRAW_BLOCK`` values at a
    time, so no full-size C-ordered copy is made.  The blocks read the stream
    in the one-call draw's order, so the array holds its values.
    """
    n, width = shape
    out = np.empty((n, width if columns is None else columns), order="F")
    step = max(1, DRAW_BLOCK // width)
    block = np.empty((min(step, n), width))
    for start in range(0, n, step):
        rows = block[: min(step, n - start)]
        rng.standard_normal(out=rows)
        out[start : start + len(rows)] = rows[:, : out.shape[1]]
    return out


def sample_haar_orthogonal(n, rng, columns=None, rows=None):
    """Draw an ``n x n`` orthogonal matrix from the uniform (Haar) law with
    ``rng``, or only its first ``columns`` columns or its first ``rows`` rows.

    Orthonormalizes an i.i.d. standard-normal matrix and absorbs the sign
    of the triangular factor's diagonal, which makes the law exactly Haar
    (Mezzadri, Notices AMS 2007).  The first ``k`` Householder reflectors
    depend only on the first ``k`` columns, so a thin QR of those gives the
    first ``k`` columns of the full draw (to rounding) without forming the
    rest.  Rows need every reflector but not the formed ``Q``: the reflectors
    are applied to the first ``k`` unit vectors.  The full Gaussian matrix is
    drawn either way, so all read the same numbers from ``rng``.  LAPACK
    (``geqrf``, then ``orgqr`` or ``ormqr``) works in place on the
    Fortran-ordered columns it needs, drawn straight into it.  The result is
    C-ordered: on a Fortran-ordered factor the engine's products run another
    BLAS kernel, with other rounding.
    """
    check_count("matrix size", n, 1)
    if columns is not None and rows is not None:
        raise InvalidModelError("draw columns or rows, not both")
    k = n if columns is None and rows is None else (rows if columns is None else columns)
    check_count("columns" if rows is None else "rows", k, 1)
    if k > n:
        raise InvalidModelError(f"columns or rows must be at most n = {n}, not {k}")
    by_rows = rows is not None and k < n
    g = standard_normal_fortran(rng, (n, n), n if by_rows else k)
    qr, tau = _lapack(dgeqrf, g, overwrite_a=True)
    d = np.sign(np.diag(qr))  # read before orgqr overwrites qr with Q
    d[d == 0] = 1.0
    if by_rows:  # Q^T applied to the first k unit vectors: Q's first k rows, transposed
        (qt,) = _lapack(dormqr, "L", "T", qr, tau, np.eye(n, k, order="F"), overwrite_c=True)
        q = qt.T
    else:
        (q,) = _lapack(dorgqr, qr, tau, overwrite_a=True)
    return np.multiply(q, d, order="C")


def geometric_singular_values(m, n, cond):
    """Geometrically spaced singular values for an ``m x n`` matrix.

    Returns ``min(m, n)`` values sorted descending with constant successive
    ratio, ``s_max / s_min == cond`` and unit mean square
    (``sum(s^2) == min(m, n)``).
    """
    check_count("m", m, 1)
    check_count("n", n, 1)
    check_real("condition number", cond, 1.0)
    k = min(m, n)
    if k == 1 or cond == 1:
        s = np.ones(k)
    else:
        ratio = cond ** (-1.0 / (k - 1))
        s = ratio ** np.arange(k)
    return s * math.sqrt(k / np.sum(s * s))


def linear_layer_from_factors(left, singular_values, right, bias, noise_precision):
    """Build an affine layer directly from its compact factors (see ``SvdFactors``)."""
    left, right = np.asarray(left, dtype=float), np.asarray(right, dtype=float)
    s = np.asarray(singular_values, dtype=float)
    bias = np.asarray(bias, dtype=float)
    factors = SvdFactors(left_orthogonal=left, singular_values=s, right_orthogonal=right, bias=bias)
    return LinearLayerSpec(bias=bias, noise_precision=noise_precision, factors=factors)


def forward_generate(spec, seed):
    """Sample the signal chain ``z_0 .. z_L`` for ``(spec, seed)``.

    Pure function: identical inputs give bit-identical outputs.  The input
    uses substream (seed, 0); the noise of layer ``ell`` uses (seed, ell).
    """
    signals = [substream(seed, 0).standard_normal(spec.dims[0])]
    for ell, layer in enumerate(spec.layers, start=1):
        rng = substream(seed, ell)
        x = signals[-1]
        if layer.kind == "linear":
            f = layer.factors
            z = f.left_orthogonal @ (f.singular_values * (f.right_orthogonal @ x)) + layer.bias
        else:
            z = apply_activation(layer.activation, x)
        if math.isfinite(layer.noise_precision):
            z = z + rng.standard_normal(z.size) / math.sqrt(layer.noise_precision)
        signals.append(z)
    return SignalSet(signals=tuple(signals))


def calibrate_noise_to_snr(spec, snr_db, trials, seed):
    """Measurement-noise precision achieving ``snr_db`` on one network, such as a loaded one.

    The final layer must be affine.  Signal power ``E||W z + b||^2`` is
    estimated by Monte-Carlo over ``trials`` forward generations of ``spec``;
    the returned precision makes ``10 log10(signal_power / noise_power)``
    equal ``snr_db``.  ``harness.calibrate_recipe`` calibrates a recipe's
    ensemble in closed form instead.
    """
    final = spec.layers[-1]
    if final.kind != "linear":
        raise InvalidModelError("SNR calibration requires an affine measurement layer")
    if trials < 1:
        raise InvalidModelError("need at least one calibration trial")
    power, w = 0.0, final.weight
    for t in range(int(trials)):
        sig = forward_generate(spec, substream(seed, 0xCA11B, t).integers(2**63))
        clean = w @ sig.signals[-2] + final.bias
        power += float(clean @ clean)
    power /= trials
    if power <= 0:
        raise DegenerateModelError("measured signal power is zero; cannot set an SNR")
    m = final.out_dim
    return m * 10.0 ** (snr_db / 10.0) / power


# ---------------------------------------------------------------------------
# JSON persistence (schema: see README, "Network file")
# ---------------------------------------------------------------------------


def network_to_json(spec):
    """Serialize a network to the JSON document schema."""
    layers = []
    for layer in spec.layers:
        if layer.kind == "linear":
            entry = {
                "kind": "linear",
                "weight": layer.weight.tolist(),
                "bias": layer.bias.tolist(),
            }
            if math.isfinite(layer.noise_precision):
                entry["noise_precision"] = layer.noise_precision
            else:
                entry["noiseless"] = True
        else:
            noise = (
                {"kind": "none"}
                if not math.isfinite(layer.noise_precision)
                else {"kind": "gaussian", "precision": layer.noise_precision}
            )
            entry = {"kind": "nonlinear", "activation": layer.activation, "noise": noise}
        layers.append(entry)
    return {"dims": list(spec.dims), "layers": layers}


def number_array(name, value):
    """A JSON array, nested or not, as a float array; an entry that is not a JSON
    number (a bool, a string, null, a row where a number belongs) is an InvalidModelError."""
    if not set(map(type, np.asarray(value, dtype=object).flat)) <= {int, float}:
        raise InvalidModelError(f"{name} must hold only numbers")
    return np.asarray(value, dtype=float)


def network_from_json(doc):
    """Inverse of :func:`network_to_json`; a malformed document is an InvalidModelError.
    A precision is finite: noiseless is ``"noiseless": true`` or ``"noise": {"kind": "none"}``."""
    if not isinstance(doc, dict):
        raise InvalidModelError("a network must be a JSON object")
    layers = []
    try:
        for entry in doc["layers"]:
            if entry["kind"] == "linear":
                noiseless = entry.get("noiseless", False)
                if type(noiseless) is not bool:  # "false" would be truthy
                    raise InvalidModelError(f"noiseless must be true or false, not {noiseless!r}")
                nu = NOISELESS if noiseless else check_real("a precision", entry["noise_precision"])
                layers.append(
                    LinearLayerSpec(
                        weight=number_array("weight", entry["weight"]),
                        bias=number_array("bias", entry["bias"]),
                        noise_precision=nu,
                    )
                )
            elif entry["kind"] == "nonlinear":
                noise = entry.get("noise", {"kind": "none"})
                noiseless = noise["kind"] == "none"
                nu = NOISELESS if noiseless else check_real("a precision", noise["precision"])
                layers.append(NonlinearLayerSpec(activation=entry["activation"], noise_precision=nu))
            else:
                raise InvalidModelError(f"unknown layer kind {entry.get('kind')!r}")
        return NetworkSpec(layers=tuple(layers), dims=tuple(doc["dims"]))
    except MlvampError:
        raise
    except (TypeError, ValueError) as exc:
        raise InvalidModelError(f"invalid network: {exc}") from exc


def save_network(spec, path):
    with open(path, "w") as fh:
        json.dump(network_to_json(spec), fh)


def load_network(path):
    with open(path) as fh:
        return network_from_json(json.load(fh))
