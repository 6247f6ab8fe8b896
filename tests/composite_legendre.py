"""The predictor's accuracy oracle: a composite Gauss-Legendre truth axis.

``composite_legendre_axis`` is the kinked truth axis the predictor used
before its panels carried Gauss rules of the normal density: on the same
panel edges (0, +-0.5, +-1, +-2, +-4, +-8.5 and the kink) it puts
``per_panel`` Legendre nodes on every panel and multiplies their weights by
the normal density.  At 32 nodes per panel and ``quad_order`` 40 it is the
reference the predictor's paper-law mmse curves are held against
(``oracle_curves``).  Regenerate the frozen curves with

    PYTHONPATH=src python tests/composite_legendre.py

which takes about a minute on one core.
"""

import json
import math
from pathlib import Path

import numpy as np

from mlvamp import harness
from mlvamp import state_evolution as se

#: the oracle's nodes per panel and ``quad_order``
PER_PANEL = 32
ORDER = 40
#: (measurements, damping) of the frozen paper-law curves, calibration seed 0, 50 iterations
CASES = ((100, 0.7), (300, 0.7))
FROZEN = Path(__file__).resolve().parent / "oracle_curves.json"


def composite_legendre_axis(kink_z, per_panel):
    """``(t, w)``: ``per_panel`` Gauss-Legendre nodes on each panel, weighted by
    the standard normal density and normalised to sum to one."""
    edges = np.concatenate([[0.0], se._AXIS_OFFSETS, -se._AXIS_OFFSETS])
    if np.isfinite(kink_z) and abs(kink_z) < 8.5:
        edges = np.concatenate([edges, [kink_z]])
    edges = np.unique(edges)
    nodes, weights = np.polynomial.legendre.leggauss(per_panel)
    a, b = edges[:-1, None], edges[1:, None]  # one panel per row
    t = (0.5 * (a + b) + 0.5 * (b - a) * nodes).ravel()
    w = (0.5 * (b - a) * weights).ravel() * np.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
    return t, w / w.sum()


def paper_law(measurements):
    recipe = harness.SyntheticRecipe(measurements=measurements)
    return harness.recipe_law(recipe, harness.calibrate_recipe(recipe, 0))


def oracle_curves(law, config):
    """``run_se(law, config)`` with the oracle truth axis in place of the predictor's."""
    kinked, se._kinked_axis = se._kinked_axis, lambda kink_z, order: composite_legendre_axis(kink_z, PER_PANEL)
    se._layout.cache_clear()
    try:
        return se.run_se(law, config)
    finally:
        se._kinked_axis = kinked
        se._layout.cache_clear()


def main():
    frozen = {}
    for m, damping in CASES:
        res = oracle_curves(paper_law(m), se.SEConfig(damping=damping, quad_order=ORDER))
        frozen[f"M={m} damping={damping}"] = res.nmse_db.tolist()
    FROZEN.write_text(json.dumps(frozen) + "\n")


if __name__ == "__main__":
    main()
