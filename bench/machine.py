"""Record of the machine and software a benchmark result was measured on.

Everything is read as found; the benchmark sets no thread or worker
variable for the program, so the record shows what the program saw.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform


def _blas():
    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        info = {}
    return {
        "name": info.get("name"),
        "version": info.get("version"),
        "threads": _openblas_threads(np),
    }


def _openblas_threads(np):
    """Thread count reported by the OpenBLAS that numpy loaded, if one is found."""
    site = os.path.dirname(os.path.dirname(np.__file__))
    candidates = glob.glob(os.path.join(site, "numpy.libs", "*openblas*.so*"))
    candidates += glob.glob(os.path.join(site, "scipy_openblas*", "lib", "*openblas*.so*"))
    for path in candidates:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit(root):
    """Commit of the checkout, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def machine_record(root):
    import numpy as np
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": _blas(),
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MLVAMP_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
    }
