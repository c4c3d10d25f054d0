"""Grid-based sampling: voxelize means, key, group, keep one per voxel.

Keys are collision-free linear indices over the bounded grid extents
rather than a modular spatial hash; the scene volume is bounded, so
injectivity is free and there is no collision handling. Grouping is
sort-by-key on the 64-bit key array (numpy's stable integer argsort, a
radix sort, is the performance path), and the per-group representative is
drawn by a seeded splitmix64 mix so the result is a pure function of
(input, spec, seed) regardless of worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .core import GaussianSet, VoxelGridSpec

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


def voxel_coords(means: np.ndarray, spec: VoxelGridSpec) -> np.ndarray:
    """floor(mean / grid_size) per component; floor is toward -inf."""
    return np.floor(np.asarray(means, dtype=np.float64) / spec.grid_size).astype(np.int64)


def voxel_keys(means: np.ndarray, spec: VoxelGridSpec) -> np.ndarray:
    """(P,) uint64 keys; out-of-extent means get OUT_OF_BOUNDS.

    In-bounds means satisfy min_corner <= mean < max_corner on every axis.
    """
    means = np.atleast_2d(np.asarray(means, dtype=np.float64))
    in_bounds = ((means >= spec.min_corner) & (means < spec.max_corner)).all(axis=1)
    v = voxel_coords(means, spec) - spec.v_min
    dy, dz = int(spec.dims[1]), int(spec.dims[2])
    lin = (v[:, 0] * dy + v[:, 1]) * dz + v[:, 2]
    keys = lin.astype(np.uint64)
    keys[~in_bounds] = OUT_OF_BOUNDS
    return keys


def _keys_parallel(means: np.ndarray, spec: VoxelGridSpec, n_workers: int) -> np.ndarray:
    n = means.shape[0]
    n_workers = min(n_workers, os.cpu_count() or 1)  # the keys do not depend on it
    if n_workers <= 1 or n < 2 * n_workers:
        return voxel_keys(means, spec)
    out = np.empty(n, dtype=np.uint64)
    bounds = np.linspace(0, n, n_workers + 1, dtype=np.int64)

    def work(i):
        lo, hi = bounds[i], bounds[i + 1]
        out[lo:hi] = voxel_keys(means[lo:hi], spec)

    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        list(pool.map(work, range(n_workers)))
    return out


def sample_representatives(
    gs: GaussianSet, spec: VoxelGridSpec, seed: int, n_workers: int = 1
) -> GaussianSet:
    """Keep exactly one input Gaussian per occupied voxel.

    Out-of-extent Gaussians are discarded. Within a voxel the representative
    is drawn uniformly by splitmix64(seed XOR key) mod group size over the
    group members in global input order; the output is sorted by key. No
    attribute is modified, and the result does not depend on n_workers.
    """
    if len(gs) == 0:
        return gs
    keys = _keys_parallel(gs.means, spec, n_workers)
    in_bounds = np.flatnonzero(keys != OUT_OF_BOUNDS)
    if in_bounds.size == 0:
        return gs.take(np.zeros(0, dtype=np.int64))
    keys = keys[in_bounds]
    # Stable sort keeps global input order within each key group.
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    sorted_global = in_bounds[order]
    starts = np.flatnonzero(np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1])))
    sizes = np.diff(np.concatenate((starts, [sorted_keys.size])))
    draw = splitmix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) ^ sorted_keys[starts])
    chosen = sorted_global[starts + (draw % sizes.astype(np.uint64)).astype(np.int64)]
    return gs.take(chosen)
