"""Pixel-aligned Gaussian initialization from per-view depth maps.

Each valid depth pixel unprojects along its viewing ray (mu = o + d * v
with unit v, so depth is along-ray distance rather than z-depth) and takes
its remaining attributes from an AttributeProvider. Output order is
deterministic (view, row, col) raster order; no-return pixels are skipped.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Protocol

import numpy as np

from .core import CameraModel, GaussianSet
from .errors import ShapeError


class AttributeProvider(Protocol):
    """Maps pixels of one view to Gaussian attributes.

    Called with a view id and parallel row/col index arrays; returns
    (scales (n, 3), rotations (n, 4), opacities (n,), logits (n, C)).
    Outputs must satisfy the `GaussianSet.validate()` invariants.
    """

    num_classes: int

    def __call__(self, view: int, rows: np.ndarray, cols: np.ndarray): ...


def unproject_pixels(
    cam: CameraModel, rows: np.ndarray, cols: np.ndarray, depths: np.ndarray
) -> np.ndarray:
    """World positions mu = o + d * v of the rays through pixels (rows, cols)
    of one camera, with d >= 0 the along-ray distance in meters. Each mu
    reprojects to its pixel center under the same camera."""
    v = cam.ray_directions(rows, cols)
    return cam.origin + np.asarray(depths, dtype=np.float64)[:, None] * v


def _init_one_view(view, cam, depth_map, valid, attrs, out, start):
    """Writes the Gaussians of one view's `valid` pixels into rows
    start, start + 1, ... of the preallocated set `out`."""
    rows, cols = np.nonzero(valid)  # row-major raster order
    block = slice(start, start + len(rows))
    out.means[block] = unproject_pixels(cam, rows, cols, depth_map.depth[valid])
    fields = ("scales", "rotations", "opacities", "semantics")
    for name, value in zip(fields, attrs(view, rows, cols)):
        dst = getattr(out, name)[block]
        if np.shape(value) != dst.shape:
            raise ShapeError(
                f"view {view}: attribute provider returned {name} of shape "
                f"{np.shape(value)}, expected {dst.shape}"
            )
        dst[...] = value
    out.source_index[block] = np.stack([np.full(len(rows), view), rows, cols], axis=1)


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
    block of one preallocated set, so the result is identical for any
    worker count.
    """
    if len(cams) != len(depths):
        raise ShapeError(f"{len(cams)} cameras but {len(depths)} depth maps")
    for i, (cam, dm) in enumerate(zip(cams, depths)):
        if dm.depth.shape != (cam.height, cam.width):
            raise ShapeError(
                f"view {i}: depth map {dm.depth.shape} does not match "
                f"camera grid {(cam.height, cam.width)}"
            )
    valid = [dm.valid for dm in depths]
    starts = np.cumsum([0] + [int(np.count_nonzero(v)) for v in valid])
    p, c = int(starts[-1]), attrs.num_classes
    out = GaussianSet(
        means=np.empty((p, 3)),
        scales=np.empty((p, 3)),
        rotations=np.empty((p, 4)),
        opacities=np.empty(p),
        semantics=np.empty((p, c)),
        source_index=np.empty((p, 3), dtype=np.uint32),
    )
    jobs = [(i, cam, dm, v, attrs, out, int(start))
            for i, (cam, dm, v, start) in enumerate(zip(cams, depths, valid, starts))]
    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            list(pool.map(lambda job: _init_one_view(*job), jobs))
    else:
        for job in jobs:
            _init_one_view(*job)
    return out
