"""Multi-layer vector approximate message passing and its deterministic predictor."""

import ctypes
import glob
import os

import numpy as np


def _compute_on_one_blas_thread():
    """Set the OpenBLAS libraries bundled with numpy and with scipy to one thread.

    A blocked factorization (the Haar draws' QR) sums in an order that
    depends on the thread count, so results would depend on the host's
    cores.  Parallelism comes from the trial pool instead; forked workers
    inherit the setting.  numpy's library (``numpy.libs``) has 64-bit
    integers and a ``64_`` suffix on its symbols, scipy's (``scipy.libs``,
    which ``scipy.linalg`` and ``scipy.special`` use) has neither.  A
    library that is not bundled is left as it is.
    """
    site = os.path.dirname(os.path.dirname(np.__file__))
    for libs, setter_name in (
        ("numpy.libs", "scipy_openblas_set_num_threads64_"),
        ("scipy.libs", "scipy_openblas_set_num_threads"),
    ):
        for path in glob.glob(os.path.join(site, libs, "*openblas*.so*")):
            try:
                setter = getattr(ctypes.CDLL(path), setter_name)
            except (OSError, AttributeError):
                continue
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setter(1)


_compute_on_one_blas_thread()

from .denoisers import (
    BeliefParams,
    QuadratureRule,
    input_denoiser,
    linear_pair,
    map_pair_nonlinear,
    mmse_pair_nonlinear,
)
from .engine import EngineConfig, FixedPointReport, IterationTrace, MessageState, nmse_db, run
from .model import (
    LinearLayerSpec,
    NetworkSpec,
    NonlinearLayerSpec,
    SignalSet,
    SvdFactors,
    NOISELESS,
    calibrate_noise_to_snr,
    forward_generate,
    geometric_singular_values,
    load_network,
    sample_haar_orthogonal,
    save_network,
)
from .state_evolution import (
    NetworkLaw,
    SEConfig,
    run_se,
    se_initial_pass,
)

__all__ = [
    "BeliefParams",
    "EngineConfig",
    "FixedPointReport",
    "IterationTrace",
    "LinearLayerSpec",
    "MessageState",
    "NetworkLaw",
    "NetworkSpec",
    "NonlinearLayerSpec",
    "NOISELESS",
    "SEConfig",
    "SignalSet",
    "QuadratureRule",
    "SvdFactors",
    "calibrate_noise_to_snr",
    "input_denoiser",
    "linear_pair",
    "map_pair_nonlinear",
    "mmse_pair_nonlinear",
    "forward_generate",
    "geometric_singular_values",
    "load_network",
    "nmse_db",
    "run",
    "run_se",
    "sample_haar_orthogonal",
    "save_network",
    "se_initial_pass",
]

__version__ = "0.1.0"
