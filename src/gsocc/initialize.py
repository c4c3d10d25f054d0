"""Pixel-aligned Gaussian initialization from per-view depth maps.

Each valid depth pixel is placed along its viewing ray (mu = o + d * v
with unit v, so depth is along-ray distance rather than z-depth) and takes
its remaining attributes from an AttributeProvider. The rays are the ones
the depths were cast along, so no ray is built twice. Output order is
deterministic (view, row, col) raster order; no-return pixels are skipped.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from . import formats
from .core import GaussianSet
from .errors import ShapeError


class AttributeProvider(Protocol):
    """Maps pixels of one view to Gaussian attributes.

    Called with a view id and parallel row/col index arrays; returns
    (scales (n, 3), rotations (n, 4), opacities (n,), logits (n, C)).
    Outputs must satisfy the `GaussianSet.validate()` invariants.
    """

    num_classes: int

    def __call__(self, view: int, rows: np.ndarray, cols: np.ndarray): ...


def _view_block(view, origin, rays, depth_map, attrs, c) -> GaussianSet:
    """The Gaussians of one view's valid pixels, in row-major raster order."""
    valid = depth_map.valid
    rows, cols = np.nonzero(valid)
    n = len(rows)
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
        means=origin + depth_map.depth[valid][:, None] * rays[valid.ravel()],
        **fields,
        source_index=np.stack([np.full(n, view), rows, cols], axis=1).astype(np.uint32),
    )


def init_gaussians(views, num_classes: int, path) -> formats.GaussianFile:
    """One Gaussian per valid depth pixel across all views, streamed to the
    GSB1 file `path` with `num_classes` classes.

    `views` yields, per camera in view order, (origin, rays, depth_map,
    attrs): the camera's (3,) origin, the (H*W, 3) unit rays through its
    pixel centers in row-major order (`CameraModel.pixel_rays()`), its
    (H, W) DepthMap of along-ray depths and the AttributeProvider of its
    pixels. Emits primitives in (view, row, col) raster order with
    provenance recorded; pixels whose depth is the no-return sentinel are
    skipped. Each view's block is built on the calling thread and appended
    to the file as soon as the view is yielded, so no view is held after
    the next is drawn. Returns the file's `formats.read_gaussian_means`,
    every row checked.
    """
    with formats.gaussian_block_writer(path, num_classes) as write:
        for view, (origin, rays, depth_map, attrs) in enumerate(views):
            write(_view_block(view, origin, rays, depth_map, attrs, num_classes))
    return formats.read_gaussian_means(path)
