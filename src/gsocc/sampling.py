"""Grid-based sampling: voxelize means, key, group, keep one per voxel.

Keys are collision-free linear indices over the bounded grid extents
rather than a modular spatial hash; the scene volume is bounded, so
injectivity is free and there is no collision handling. Grouping is a
stable sort by key. The keys are cast to the narrowest unsigned type
that holds every cell index (`narrow_keys`), which keeps their order, and
sorted by `_stable_key_order`. numpy's stable argsort is a radix sort for
types of 16 bits or fewer and a timsort for wider ones, so wider keys are
sorted one 16-bit digit at a time, least significant first: one pass on a
grid of at most 65 536 cells, two on one of at most 2^32 cells. The
per-group representative is drawn by a seeded splitmix64 mix so the result
is a pure function of (input, spec, seed) regardless of worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .core import VoxelGridSpec

# Means per chunk of the key computation.
_KEY_ROWS = 1 << 16

# Marker key for means outside the grid extents.
OUT_OF_BOUNDS = np.uint64(0xFFFFFFFFFFFFFFFF)

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over uint64 values (vectorized, wrapping)."""
    z = np.asarray(x, dtype=np.uint64) + _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def voxel_coords(means: np.ndarray, spec: VoxelGridSpec, where=True) -> np.ndarray:
    """floor(mean / grid_size) per component; floor is toward -inf. Rows
    where the (P, 1) mask `where` is False get 0 instead, so a mean outside
    the grid (NaN, or beyond the int64 range of coords) is never cast."""
    q = np.divide(means, spec.grid_size, out=np.zeros(np.shape(means)), where=where)
    return np.floor(q, out=q).astype(np.int64)


def _chunk_keys(means: np.ndarray, spec: VoxelGridSpec) -> np.ndarray:
    # Column by column: a reduction over the short last axis is slow.
    in_bounds = np.ones(means.shape[0], dtype=bool)
    for axis in range(3):
        m = means[:, axis]
        in_bounds &= (m >= spec.min_corner[axis]) & (m < spec.max_corner[axis])
    v = voxel_coords(means, spec, where=in_bounds[:, None]) - spec.v_min
    dy, dz = int(spec.dims[1]), int(spec.dims[2])
    lin = (v[:, 0] * dy + v[:, 1]) * dz + v[:, 2]
    keys = lin.astype(np.uint64)
    keys[~in_bounds] = OUT_OF_BOUNDS
    return keys


def voxel_keys(means: np.ndarray, spec: VoxelGridSpec, n_workers: int = 1) -> np.ndarray:
    """(P,) uint64 keys; out-of-extent means get OUT_OF_BOUNDS.

    In-bounds means satisfy min_corner <= mean < max_corner on every axis.
    Keys are elementwise; they are computed in chunks of _KEY_ROWS means on
    up to `n_workers` threads (at most one per CPU), which bounds the
    temporaries and does not change any key.
    """
    means = np.atleast_2d(np.asarray(means, dtype=np.float64))
    n = means.shape[0]
    out = np.empty(n, dtype=np.uint64)

    def work(lo):
        out[lo : lo + _KEY_ROWS] = _chunk_keys(means[lo : lo + _KEY_ROWS], spec)

    chunks = range(0, n, _KEY_ROWS)
    n_workers = min(n_workers, os.cpu_count() or 1, len(chunks))
    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            list(pool.map(work, chunks))
    else:
        for lo in chunks:
            work(lo)
    return out


def narrow_keys(keys: np.ndarray, spec: VoxelGridSpec) -> np.ndarray:
    """In-bounds `keys` cast to the narrowest unsigned type that holds
    every cell index of `spec`; values and order are unchanged."""
    return keys.astype(np.min_scalar_type(spec.num_cells - 1))


def _stable_key_order(keys: np.ndarray, spec: VoxelGridSpec) -> np.ndarray:
    """np.argsort(keys, kind="stable") of in-bounds `keys` from narrow_keys,
    as a least-significant-digit radix sort over 16-bit digits: each pass is
    numpy's stable (radix) argsort of one digit, in the order so far."""
    order = None
    for shift in range(0, max((spec.num_cells - 1).bit_length(), 1), 16):
        digits = keys if order is None else keys[order]
        if keys.dtype.itemsize > 2:
            digits = (digits >> shift).astype(np.uint16)
        step = np.argsort(digits, kind="stable")
        order = step if order is None else order[step]
    return order


def sample_indices(
    means: np.ndarray, spec: VoxelGridSpec, seed: int, n_workers: int = 1
) -> np.ndarray:
    """Input rows of the one Gaussian kept per occupied voxel, sorted by key.

    Out-of-extent means are discarded. Within a voxel the representative
    is drawn uniformly by splitmix64(seed XOR key) mod group size over the
    group members in global input order. The rows depend only on (means,
    spec, seed), not on n_workers.
    """
    keys = voxel_keys(means, spec, n_workers)
    in_bounds = np.flatnonzero(keys != OUT_OF_BOUNDS)
    if in_bounds.size == 0:
        return in_bounds
    keys = narrow_keys(keys[in_bounds], spec)
    # Stable sort keeps global input order within each key group.
    order = _stable_key_order(keys, spec)
    sorted_keys = keys[order]
    sorted_global = in_bounds[order]
    starts = np.flatnonzero(np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1])))
    sizes = np.diff(np.concatenate((starts, [sorted_keys.size])))
    group_keys = sorted_keys[starts].astype(np.uint64)
    draw = splitmix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) ^ group_keys)
    return sorted_global[starts + (draw % sizes.astype(np.uint64)).astype(np.int64)]


def sample_representatives(gs, spec: VoxelGridSpec, seed: int, n_workers: int = 1):
    """Keep exactly one input Gaussian per occupied voxel: the rows of
    sample_indices, taken from `gs` (a GaussianSet, or a formats.GaussianFile
    whose rows are read from its file). No attribute is modified."""
    return gs.take(sample_indices(gs.means, spec, seed, n_workers))
