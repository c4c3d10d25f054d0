"""Positional refinement: bounded offsets from sigmoid-weighted basis rows.

Delta mu = B^T sigmoid(w) per Gaussian. The default basis pairs +/- rows
along each axis with magnitude delta_max, so zero weights cancel exactly
and the per-axis offset stays inside (-delta_max, delta_max). Only means
change; every other attribute is carried through untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GaussianSet
from .errors import ShapeError


@dataclass(frozen=True)
class OffsetBasis:
    """Fixed basis rows (K_b, 3) in meters, paired as row[2k+1] = -row[2k]."""

    rows: np.ndarray
    delta_max: float

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != 3 or rows.shape[0] % 2:
            raise ShapeError(f"basis must be (2k, 3), got {rows.shape}")
        if not np.array_equal(rows[1::2], -rows[0::2]):
            raise ValueError("basis rows must come in +/- pairs")
        if (np.linalg.norm(rows, axis=1) > self.delta_max * (1 + 1e-12)).any():
            raise ValueError(f"basis row norms must be <= delta_max={self.delta_max}")
        object.__setattr__(self, "rows", rows)

    @property
    def num_rows(self) -> int:
        return self.rows.shape[0]


def default_basis(delta_max: float) -> OffsetBasis:
    """Six rows {+/- delta_max * e_x, e_y, e_z}."""
    eye = np.eye(3) * delta_max
    rows = np.empty((6, 3))
    rows[0::2] = eye
    rows[1::2] = -eye
    return OffsetBasis(rows=rows, delta_max=delta_max)


def refine_positions(gs: GaussianSet, basis: OffsetBasis, weights: np.ndarray) -> GaussianSet:
    """Apply mu' = mu + B^T sigmoid(w) per Gaussian."""
    from scipy.special import expit

    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(gs), basis.num_rows):
        raise ShapeError(
            f"weights must be ({len(gs)}, {basis.num_rows}), got {weights.shape}"
        )
    delta = expit(weights) @ basis.rows
    return GaussianSet(
        means=gs.means + delta,
        scales=gs.scales,
        rotations=gs.rotations,
        opacities=gs.opacities,
        semantics=gs.semantics,
        source_index=gs.source_index,
    )


def zero_weights(gs: GaussianSet, basis: OffsetBasis) -> np.ndarray:
    """Identity refinement: all-zero weights cancel over the +/- pairs."""
    return np.zeros((len(gs), basis.num_rows))


class SurfaceSnapWeights:
    """Weight provider that pulls each mean toward the nearest scene surface.

    Stands in for the learned refinement network in harness experiments: the
    desired offset is the (basis-clamped) vector to the nearest point on the
    synthetic scene's surface, converted to weights by inverting the sigmoid
    on each +/- pair symmetrically.
    """

    def __init__(self, scene, margin: float = 1e-3):
        self.scene = scene
        self.margin = margin

    def __call__(self, gs: GaussianSet, basis: OffsetBasis) -> np.ndarray:
        from scipy.special import logit

        from .synth import nearest_surface_points

        target = nearest_surface_points(self.scene, gs.means)
        desired = target - gs.means
        if basis.num_rows != 6:
            raise ShapeError("surface-snap weights require the 6-row axis basis")
        mags = np.linalg.norm(basis.rows[0::2], axis=1)  # per-axis delta_max
        limit = mags * (1 - self.margin)
        clamped = np.clip(desired, -limit, limit)
        # On a +/- pair, w_+ = -w_- = logit((1 + o/mag) / 2) gives offset o.
        frac = (1.0 + clamped / mags) / 2.0
        w_pos = logit(frac)
        weights = np.empty((len(gs), 6))
        weights[:, 0::2] = w_pos
        weights[:, 1::2] = -w_pos
        return weights
