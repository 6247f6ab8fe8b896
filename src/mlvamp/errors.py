"""Exception types shared across the package, and the argument checks that raise them."""

import math
import sys

import numpy as np


class MlvampError(Exception):
    """Base class for all package-specific failures."""


class InvalidModelError(MlvampError, ValueError):
    """A network description or argument violates a structural requirement."""


#: The longest side of a square float64 array numpy can size: past it numpy
#: raises ValueError ("array is too big"), where a smaller one fails, if at
#: all, with MemoryError.
MAX_SIDE = math.isqrt(np.iinfo(np.intp).max // 8)


def check_count(name, value, least, most=math.inf):
    """``value`` as an int; ``InvalidModelError`` unless it is an integer, not a bool,
    with ``least <= value <= most``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise InvalidModelError(f"{name} must be an integer of at least {least}, not {value!r}")
    if value > most:
        raise InvalidModelError(f"{name} must be at most {most}, not {value!r}")
    return int(value)


def check_real(name, value, least=-math.inf, below=math.inf):
    """``value`` as a float; ``InvalidModelError`` unless it is a real number, not a
    bool, within the float range (so finite) and with ``least <= value < below``."""
    real = not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating))
    # compared, not converted: an int past the float range does not convert
    if not (real and abs(value) <= sys.float_info.max and least <= value < below):
        raise InvalidModelError(
            f"{name} must be a finite number in [{least}, {below}), not {value!r}"
        )
    return float(value)


class DegenerateModelError(MlvampError, ValueError):
    """A model is structurally valid but numerically unusable (e.g. zero signal power)."""


class UndefinedMetricError(MlvampError, ValueError):
    """A metric was requested on inputs where it is undefined (e.g. zero reference)."""


class NumericFailureError(MlvampError, RuntimeError):
    """A numerical routine produced non-finite or infeasible values."""


class DivergedIterationError(MlvampError, RuntimeError):
    """The iteration left its admissible region; carries layer/iteration context."""

    def __init__(self, message, layer=None, iteration=None, trace=None):
        super().__init__(message)
        self.layer = layer
        self.iteration = iteration
        self.trace = trace


class WorkerLostError(MlvampError, RuntimeError):
    """A pool worker died (killed, say, for want of memory) before its job returned."""
