"""Pixel-aligned Gaussian initialization from per-view depth maps.

Each valid depth pixel unprojects along its viewing ray (mu = o + d * v
with unit v, so depth is along-ray distance rather than z-depth) and takes
its remaining attributes from an AttributeProvider. Output order is
deterministic (view, row, col) raster order; no-return pixels are skipped.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from . import formats
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


def _view_block(view, cam, depth_map, attrs) -> GaussianSet:
    """The Gaussians of one view's valid pixels, in row-major raster order."""
    valid = depth_map.valid
    rows, cols = np.nonzero(valid)
    n, c = len(rows), attrs.num_classes
    fields = {}
    for (name, shape), value in zip(
        (("scales", (n, 3)), ("rotations", (n, 4)), ("opacities", (n,)), ("semantics", (n, c))),
        attrs(view, rows, cols),
    ):
        if np.shape(value) != shape:
            raise ShapeError(
                f"view {view}: attribute provider returned {name} of shape "
                f"{np.shape(value)}, expected {shape}"
            )
        fields[name] = np.asarray(value, dtype=np.float64)
    return GaussianSet(
        means=unproject_pixels(cam, rows, cols, depth_map.depth[valid]),
        **fields,
        source_index=np.stack([np.full(n, view), rows, cols], axis=1).astype(np.uint32),
    )


def init_gaussians(
    cams: list,
    depths: list,
    attrs: AttributeProvider,
    path,
) -> formats.GaussianFile:
    """One Gaussian per valid depth pixel across all views, streamed to the
    GSB1 file `path`.

    Emits primitives in (view, row, col) raster order with provenance
    recorded; pixels whose depth is the no-return sentinel are skipped.
    Each view's block is built in view order on the calling thread and
    appended to the file as soon as it is built, so one block is in memory
    at a time. Returns the file's
    `formats.read_gaussian_means`, every row checked.
    """
    if len(cams) != len(depths):
        raise ShapeError(f"{len(cams)} cameras but {len(depths)} depth maps")
    for i, (cam, dm) in enumerate(zip(cams, depths)):
        if dm.depth.shape != (cam.height, cam.width):
            raise ShapeError(
                f"view {i}: depth map {dm.depth.shape} does not match "
                f"camera grid {(cam.height, cam.width)}"
            )
    p = sum(int(np.count_nonzero(dm.valid)) for dm in depths)
    with formats.gaussian_block_writer(path, p, attrs.num_classes) as write:
        for view, (cam, dm) in enumerate(zip(cams, depths)):
            write(_view_block(view, cam, dm, attrs))
    return formats.read_gaussian_means(path)
