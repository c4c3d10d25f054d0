"""Pixel-aligned Gaussian initialization from per-view depth maps.

Each valid depth pixel unprojects along its viewing ray (mu = o + d * v
with unit v, so depth is along-ray distance rather than z-depth) and takes
its remaining attributes from an AttributeProvider. Output order is
deterministic (view, row, col) raster order; no-return pixels are skipped.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .core import CameraModel, GaussianSet, concat_gaussian_sets
from .errors import ShapeError


class AttributeProvider(Protocol):
    """Maps pixels of one view to Gaussian attributes.

    Called with a view id and parallel row/col index arrays; returns
    (scales (n, 3), rotations (n, 4), opacities (n,), logits (n, C)).
    Outputs must satisfy the `GaussianSet.validate()` invariants.
    """

    num_classes: int

    def __call__(self, view: int, rows: np.ndarray, cols: np.ndarray): ...


@dataclass(frozen=True)
class ConstantAttributes:
    """Same attributes at every pixel. The everyday provider for pipelines
    without a learned attribute head."""

    scale: np.ndarray
    rotation: np.ndarray
    opacity: float
    logits: np.ndarray

    @property
    def num_classes(self) -> int:
        return np.asarray(self.logits).shape[0]

    def __call__(self, view: int, rows: np.ndarray, cols: np.ndarray):
        n = len(rows)
        return (
            np.tile(np.asarray(self.scale, dtype=np.float64), (n, 1)),
            np.tile(np.asarray(self.rotation, dtype=np.float64), (n, 1)),
            np.full(n, float(self.opacity)),
            np.tile(np.asarray(self.logits, dtype=np.float64), (n, 1)),
        )


def unproject_pixels(
    cam: CameraModel, rows: np.ndarray, cols: np.ndarray, depths: np.ndarray
) -> np.ndarray:
    """World positions mu = o + d * v of the rays through pixels (rows, cols)
    of one camera, with d >= 0 the along-ray distance in meters. Each mu
    reprojects to its pixel center under the same camera."""
    v = cam.ray_directions(rows, cols)
    return cam.origin + np.asarray(depths, dtype=np.float64)[:, None] * v


def _init_one_view(view, cam, depth_map, attrs):
    valid = depth_map.valid
    rows, cols = np.nonzero(valid)  # row-major raster order
    means = unproject_pixels(cam, rows, cols, depth_map.depth[valid])
    scales, rotations, opacities, logits = attrs(view, rows, cols)
    prov = np.stack(
        [np.full(len(rows), view, dtype=np.uint32), rows.astype(np.uint32), cols.astype(np.uint32)],
        axis=1,
    )
    return GaussianSet(
        means=means,
        scales=np.asarray(scales, dtype=np.float64),
        rotations=np.asarray(rotations, dtype=np.float64),
        opacities=np.asarray(opacities, dtype=np.float64),
        semantics=np.asarray(logits, dtype=np.float64),
        source_index=prov,
    )


def init_gaussians(
    cams: list,
    depths: list,
    attrs: AttributeProvider,
    n_workers: int = 1,
) -> GaussianSet:
    """One Gaussian per valid depth pixel across all views.

    Emits primitives in (view, row, col) raster order with provenance
    recorded; pixels whose depth is the no-return sentinel are skipped.
    Per-view work may run on `n_workers` threads; each view writes its own
    block, so the result is identical for any worker count.
    """
    if len(cams) != len(depths):
        raise ShapeError(f"{len(cams)} cameras but {len(depths)} depth maps")
    for i, (cam, dm) in enumerate(zip(cams, depths)):
        if dm.depth.shape != (cam.height, cam.width):
            raise ShapeError(
                f"view {i}: depth map {dm.depth.shape} does not match "
                f"camera grid {(cam.height, cam.width)}"
            )
    if not cams:
        return GaussianSet.empty(attrs.num_classes)
    jobs = list(enumerate(zip(cams, depths)))
    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            parts = list(pool.map(lambda j: _init_one_view(j[0], *j[1], attrs), jobs))
    else:
        parts = [_init_one_view(i, cam, dm, attrs) for i, (cam, dm) in jobs]
    return concat_gaussian_sets(parts)
