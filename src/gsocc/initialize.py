"""Pixel-aligned Gaussian initialization from per-view depth maps.

Each valid depth pixel is placed along its viewing ray (mu = o + d * v
with unit v, so depth is along-ray distance rather than z-depth) and takes
its remaining attributes from a row of its view's attribute table, which an
AttributeProvider gives with the table row of each pixel. The rays are the
ones the depths were cast along, so no ray is built twice. Output order is
deterministic (view, row, col) raster order; no-return pixels are skipped.

The records are rounded to the f32 of the GSB1 file once: each view's means
are rounded as they are placed and its table as it arrives, both are checked
in memory, and init keeps the f32 means it wrote instead of reading the
file back.
"""

from __future__ import annotations

import itertools
from pathlib import Path
from typing import Protocol

import numpy as np

from . import formats
from .errors import ShapeError


class AttributeProvider(Protocol):
    """Gives the pixels of one view their Gaussian attributes as rows of a
    small table.

    Called with a view id and parallel row/col index arrays of the view's n
    valid pixels; returns (table, index). `table` is (K, 8 + C) float64, each
    row a GSB1 record without its mean: scale xyz, rotation wxyz, opacity,
    then C logits. `index` is (n,) integers in [0, K), the table row of each
    pixel. Every table row must satisfy the `GaussianSet.validate()`
    invariants.
    """

    def __call__(self, view: int, rows: np.ndarray, cols: np.ndarray): ...


def _view_block(view, origin, rays, depth_map, attrs, c) -> tuple:
    """(means, table, index, provenance) of one view's valid pixels, in
    row-major raster order: their (n, 3) f32 means, the provider's (K, 8 + c)
    attribute table and (n,) table rows, and their (n, 3) u32 (view, row,
    col) triples. Raises ShapeError when the provider's table or index breaks
    the AttributeProvider contract."""
    depth = depth_map.depth
    flat = np.flatnonzero(np.isfinite(depth))
    rows, cols = np.divmod(flat, depth.shape[1])
    n = flat.size
    table, index = attrs(view, rows, cols)
    table, index = np.asarray(table), np.asarray(index)
    if table.ndim != 2 or table.shape[1] != 8 + c:
        raise ShapeError(
            f"view {view}: attribute provider returned a table of shape {table.shape},"
            f" expected (K, {8 + c})"
        )
    if index.shape != (n,) or index.dtype.kind not in "iu":
        raise ShapeError(
            f"view {view}: attribute provider returned an index of {index.dtype} and shape"
            f" {index.shape}, expected ({n},) integers"
        )
    if n and not (index.min() >= 0 and index.max() < len(table)):
        raise ShapeError(
            f"view {view}: attribute provider returned an index outside [0, {len(table)})"
        )
    # The products and sums of origin + d * r, rounded to f32 once.
    placed = rays.take(flat, axis=0)
    placed *= depth.take(flat)[:, None]
    means = np.empty((n, 3), dtype=np.float32)
    with np.errstate(over="ignore"):  # a mean beyond the f32 range is inf; the check rejects it
        np.add(placed, origin, out=means, casting="same_kind")
    provenance = np.empty((n, 3), dtype=np.uint32)
    provenance[:, 0] = view
    provenance[:, 1] = rows
    provenance[:, 2] = cols
    return means, table, index, provenance


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
    to the file as soon as the view is yielded, and its inputs are dropped
    before the next is drawn.

    Before a block is written, its f32 means and its provider's f32 table
    are checked as `formats.read_gaussian_means` checks records, which
    covers every record, since each one is a table row behind its mean; a
    failed check raises ConfigError naming `path`. Returns the file as a
    `formats.GaussianFile` holding the f32 means written, without reading
    the file back.
    """

    def append(view, inputs):
        means, table, index, provenance = _view_block(view, *inputs, num_classes)
        with np.errstate(over="ignore"):  # an attribute beyond f32 is inf; rejected below
            table = table.astype(np.float32)
        formats.check_gaussian_rows(path, means, table)
        write(means, table, index, provenance)
        return means

    # `map` drops each view's inputs when its call returns, so no view's
    # arrays are held while the next is drawn (a for loop's target, or the
    # tuple enumerate reuses, would hold the previous one).
    with formats.gaussian_block_writer(path, num_classes) as write:
        kept = list(map(append, itertools.count(), views))
    means = np.concatenate(kept) if kept else np.empty((0, 3), dtype=np.float32)
    return formats.GaussianFile(Path(path), means, num_classes)
