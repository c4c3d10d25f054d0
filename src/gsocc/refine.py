"""Positional refinement: bounded offsets along the +/- axis basis.

Delta mu = B^T sigmoid(w) per Gaussian, where B holds the six rows
+/- delta_max * e_x, e_y, e_z and the (P, 6) weights w are ordered
+x, -x, +y, -y, +z, -z. Per axis a the offset is
delta_max * sigmoid(w_2a) - delta_max * sigmoid(w_2a+1): zero weights cancel
exactly, and the offset stays inside (-delta_max, delta_max). It is computed
elementwise, with no matrix product, so it does not depend on the BLAS
kernel. Only means change; every other attribute is carried through
untouched.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .core import GaussianSet
from .errors import ShapeError

# Surface-snap offsets stop this fraction of delta_max short of the bound,
# where the inverse sigmoid is finite.
SNAP_MARGIN = 1e-3


def refine_positions(gs: GaussianSet, delta_max: float, weights: np.ndarray) -> GaussianSet:
    """Apply mu' = mu + B^T sigmoid(w) per Gaussian for (P, 6) weights."""
    if not (math.isfinite(delta_max) and delta_max > 0):
        raise ValueError(f"delta_max must be finite and positive, got {delta_max}")
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(gs), 6):
        raise ShapeError(f"weights must be ({len(gs)}, 6), got {weights.shape}")
    if weights.any():
        from scipy.special import expit

        sigmoid = expit(weights)
    else:
        # expit(+-0) is exactly 0.5: all-zero weights need no scipy.special.
        sigmoid = np.full(weights.shape, 0.5)
    scaled = delta_max * sigmoid
    return dataclasses.replace(gs, means=gs.means + (scaled[:, 0::2] - scaled[:, 1::2]))


class SurfaceSnapWeights:
    """Weight provider that pulls each mean toward the nearest scene surface.

    Stands in for the learned refinement network in harness experiments: the
    desired offset is the vector to the nearest point on the synthetic
    scene's surface, clamped per axis to SNAP_MARGIN short of delta_max and
    converted to weights by inverting the sigmoid on each +/- pair
    symmetrically.
    """

    def __init__(self, scene):
        self.scene = scene

    def __call__(self, gs: GaussianSet, delta_max: float) -> np.ndarray:
        from scipy.special import logit

        from .synth import nearest_surface_points

        desired = nearest_surface_points(self.scene, gs.means) - gs.means
        limit = delta_max * (1 - SNAP_MARGIN)
        clamped = np.clip(desired, -limit, limit)
        # On a +/- pair, w_+ = -w_- = logit((1 + o/delta_max) / 2) gives offset o.
        w_pos = logit((1.0 + clamped / delta_max) / 2.0)
        weights = np.empty((len(gs), 6))
        weights[:, 0::2] = w_pos
        weights[:, 1::2] = -w_pos
        return weights
