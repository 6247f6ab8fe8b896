"""Golden CLI outputs: one small paper-recipe problem, every subcommand, byte for byte.

``tests/golden/config.json`` is the paper recipe at a reduced budget (3 trials,
8 iterations, damping 0.7).  ``compute`` runs each subcommand of ``CASES`` on it
in-process and returns its output bytes; ``tests/golden/MANIFEST.json`` holds
their sha256 and the record of the libraries they were made with.  Small
outputs are also stored beside the manifest, so a change shows as a diff;
``generate``'s network and signals (about 12 MB) and the ``sweep`` CSV are
kept as hashes only.

The bits depend on the LAPACK and BLAS build (and the CPU kernel OpenBLAS
picks), so ``machine_record`` names them.  Regenerate everything with

    PYTHONPATH=src python tests/golden_outputs.py

after a change that is meant to move the numbers, and list what moved.
"""

import contextlib
import csv
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import tempfile
from pathlib import Path

import numpy as np
import scipy

from mlvamp.cli import cli_main

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN / "MANIFEST.json"

#: (CLI arguments, trial workers, {output: stored beside the manifest}).
#: ``{cfg}`` is the config file, ``{dir}`` the work directory and ``{golden}``
#: the golden directory.  An output is the file of that name in the work
#: directory, or what the command printed if its name ends in ``.stdout``.
#: Later cases read files that earlier ones wrote.
#:
#: ``map-network.json`` and ``map-network.signals.json`` are a fixed noisy
#: network: ``generate`` on the recipe ``{"hidden_dims": [6, 12, 12, 16, 16],
#: "measurements": 10}`` with master seed 3, then each of the four noiseless
#: generative layers given noise precision 1000.0 (``"noise_precision"`` on an
#: affine layer, a ``"gaussian"`` noise on a separable one); the measurement
#: layer keeps its calibrated precision.  With noise on every layer, ``--mode
#: map`` reports ``map_stationarity``, which reads the loaded weight matrices.
CASES = (
    ("generate --config {cfg} --out {dir}/generate-network.json", 1,
     {"generate-network.json": False, "generate-network.signals.json": False}),
    ("se --config {cfg} --out {dir}/se-mmse.csv", 1, {"se-mmse.csv": True}),
    ("se --config {cfg} --mode map --out {dir}/se-map.csv", 1, {"se-map.csv": True}),
    ("run --config {cfg} --out {dir}/run-inline.csv", 1, {"run-inline.csv": True}),
    ("run --config {cfg} --out {dir}/run-2-workers.csv", 2, {"run-2-workers.csv": True}),
    ("sweep --config {cfg} --measurements 50,100 --out {dir}/sweep.csv", 1,
     {"sweep.csv": False, "sweep.stdout": True}),
    ("compare --config {cfg} --out {dir}/compare-fresh.json", 1, {"compare-fresh.json": True}),
    ("compare --config {cfg} --empirical {dir}/run-inline.csv --predicted {dir}/se-mmse.csv", 1,
     {"compare-files.stdout": True}),
    ("fixedpoint --config {cfg}", 1, {"fixedpoint.stdout": True}),
    ("fixedpoint --config {cfg} --network {dir}/generate-network.json "
     "--signals {dir}/generate-network.signals.json", 1, {"fixedpoint-network.stdout": True}),
    ("run --config {cfg} --network {dir}/generate-network.json "
     "--signals {dir}/generate-network.signals.json --out {dir}/run-network.csv", 1,
     {"run-network.csv": True}),
    ("run --config {cfg} --mode map --out {dir}/run-map.csv", 1, {"run-map.csv": True}),
    ("fixedpoint --config {cfg} --mode map --network {golden}/map-network.json "
     "--signals {golden}/map-network.signals.json", 1, {"fixedpoint-map-network.stdout": True}),
)


def _openblas_configs():
    """The runtime configuration string (version and CPU kernel) of the
    OpenBLAS bundled with numpy and with scipy, or None where it is not bundled."""
    site = os.path.dirname(os.path.dirname(np.__file__))
    out = {}
    for key, libs, symbol in (
        ("openblas_numpy", "numpy.libs", "scipy_openblas_get_config64_"),
        ("openblas_scipy", "scipy.libs", "scipy_openblas_get_config"),
    ):
        out[key] = None
        for path in sorted(glob.glob(os.path.join(site, libs, "*openblas*.so*"))):
            try:
                getter = getattr(ctypes.CDLL(path), symbol)
            except (OSError, AttributeError):
                continue
            getter.restype = ctypes.c_char_p
            out[key] = " ".join(getter().decode().split())
    return out


def machine_record():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **_openblas_configs(),
        "machine": platform.machine(),
    }


def compute(workdir):
    """Run every case in ``workdir``; ``{output name: bytes}``."""
    workdir = Path(workdir)
    outputs = {}
    saved = os.environ.get("MLVAMP_THREADS")
    try:
        for command, workers, names in CASES:
            os.environ["MLVAMP_THREADS"] = str(workers)
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                code = cli_main([arg.format(cfg=GOLDEN / "config.json", dir=workdir, golden=GOLDEN)
                                 for arg in command.split()])
            if code != 0:
                raise RuntimeError(f"mlvamp {command} exited {code}")
            for name in names:
                if name.endswith(".stdout"):
                    outputs[name] = printed.getvalue().encode()
                else:
                    outputs[name] = (workdir / name).read_bytes()
    finally:
        if saved is None:
            os.environ.pop("MLVAMP_THREADS", None)
        else:
            os.environ["MLVAMP_THREADS"] = saved
    return outputs


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def column_changes(old, new):
    """``{column: largest absolute change}`` between two result CSVs with the
    same rows, over the numeric columns that changed (NaN against NaN is no
    change); None if their rows or columns differ."""
    tables = [list(csv.DictReader(ln for ln in text.decode().splitlines() if not ln.startswith("#")))
              for text in (old, new)]
    if len(tables[0]) != len(tables[1]) or not tables[0] or tables[0][0].keys() != tables[1][0].keys():
        return None
    changes = {}
    for key in tables[0][0]:
        try:
            a, b = (np.array([float(row[key]) for row in table]) for table in tables)
        except ValueError:
            continue
        # a NaN on one side only is an infinite change
        delta = np.where(np.isnan(a) & np.isnan(b), 0.0, np.nan_to_num(np.abs(a - b), nan=np.inf))
        if delta.max() > 0:
            changes[key] = float(delta.max())
    return changes


def regenerate(workdir):
    """Write every output and the manifest; print what moved in each stored CSV."""
    outputs = compute(workdir)
    stored = sorted(name for _, _, names in CASES for name, keep in names.items() if keep)
    for name in stored:
        path = GOLDEN / name
        if name.endswith(".csv") and path.exists() and path.read_bytes() != outputs[name]:
            print(f"{name}: largest absolute change per column {column_changes(path.read_bytes(), outputs[name])}")
        path.write_bytes(outputs[name])
    manifest = {
        "machine": machine_record(),
        "outputs": {name: sha256(data) for name, data in outputs.items()},
        "stored": stored,
    }
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(regenerate(tmp), indent=2))
