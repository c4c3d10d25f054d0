import dataclasses
import functools
import os
from collections import defaultdict
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gsocc import sampling
from gsocc.core import VoxelGridSpec
from gsocc.pipeline import distinct_occupied_voxels
from gsocc.sampling import (
    OUT_OF_BOUNDS,
    narrow_keys,
    sample_representatives,
    splitmix64,
    voxel_coords,
    voxel_keys,
)

from conftest import random_gaussian_set

SPEC = VoxelGridSpec(
    min_corner=np.array([-8.0, -8.0, -4.0]),
    max_corner=np.array([8.0, 8.0, 4.0]),
    grid_size=0.5,
)


def splitmix64_oracle(x):
    """Pure-python splitmix64, independent of the numpy implementation."""
    mask = (1 << 64) - 1
    z = (x + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def dict_grouping_oracle(means, spec):
    """Brute-force 3-D dictionary grouping: voxel tuple -> input indices."""
    groups = defaultdict(list)
    for i, m in enumerate(means):
        if ((m >= spec.min_corner) & (m < spec.max_corner)).all():
            v = tuple(int(np.floor(c / spec.grid_size)) for c in m)
            groups[v].append(i)
    return groups


class TestVoxelize:
    def test_floor_arithmetic(self):
        assert voxel_coords(np.array([[1.2, -0.7, 0.3]]), SPEC).tolist() == [[2, -2, 0]]

    def test_boundary_is_half_open(self):
        assert voxel_coords(np.array([[1.0, 0.0, 0.0]]), SPEC)[0, 0] == 2

    def test_out_of_extent_yields_marker(self):
        keys = voxel_keys(np.array([[9.0, 0.0, 0.0], [8.0, 0.0, 0.0], [-8.0, 0.0, 0.0]]), SPEC)
        assert keys[0] == OUT_OF_BOUNDS
        assert keys[1] == OUT_OF_BOUNDS  # max is exclusive
        assert keys[2] != OUT_OF_BOUNDS

    def test_far_and_nan_means_key_without_a_cast_warning(self):
        """Means whose voxel coords overflow int64 are keyed out of bounds;
        RuntimeWarnings are errors under the test settings."""
        far = np.array([[1e30, 0.0, 0.0], [-1e30, 0.0, 0.0], [np.nan, 0.0, 0.0], [1.2, -0.7, 0.3]])
        keys = voxel_keys(far, SPEC)
        assert (keys[:3] == OUT_OF_BOUNDS).all()
        assert keys[3] == voxel_keys(far[3:], SPEC)[0] != OUT_OF_BOUNDS

    def test_keys_match_dictionary_oracle(self, rng):
        means = rng.uniform(-10, 10, size=(10_000, 3))
        keys = voxel_keys(means, SPEC)
        oracle = dict_grouping_oracle(means, SPEC)
        # key <-> voxel coordinate is a bijection over in-bounds points
        seen = {}
        for i, m in enumerate(means):
            in_b = ((m >= SPEC.min_corner) & (m < SPEC.max_corner)).all()
            if not in_b:
                assert keys[i] == OUT_OF_BOUNDS
                continue
            v = tuple(int(np.floor(c / SPEC.grid_size)) for c in m)
            if keys[i] in seen:
                assert seen[keys[i]] == v
            else:
                seen[keys[i]] = v
        assert len(seen) == len(oracle)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-7.99, 7.99), min_size=3, max_size=3))
    def test_key_roundtrip_property(self, point):
        point = np.array([[point[0], point[1], np.clip(point[2], -3.99, 3.99)]])
        key = voxel_keys(point, SPEC)[0]
        assert key != OUT_OF_BOUNDS
        # invert the linear index and compare with the voxel coordinate
        dy, dz = int(SPEC.dims[1]), int(SPEC.dims[2])
        k = int(key)
        v = np.array([k // (dy * dz), (k // dz) % dy, k % dz]) + SPEC.v_min
        np.testing.assert_array_equal(v, voxel_coords(point, SPEC)[0])


class TestSplitmix:
    def test_matches_pure_python_oracle(self, rng):
        xs = rng.integers(0, 2**63, size=100, dtype=np.uint64)
        got = splitmix64(xs)
        for x, g in zip(xs, got):
            assert int(g) == splitmix64_oracle(int(x))


class TestSampleRepresentatives:
    def test_distinct_voxels_passthrough(self, rng):
        # grid-aligned means, all in separate voxels
        coords = np.stack(np.meshgrid([0, 1, 2], [0, 1], [0, 1], indexing="ij"), -1).reshape(-1, 3)
        gs = random_gaussian_set(rng, len(coords))
        gs = dataclasses.replace(gs, means=coords * 0.5 + 0.25)
        out = sample_representatives(gs, SPEC, seed=1)
        assert len(out) == len(gs)
        got = out.means[np.lexsort(out.means.T)]
        want = gs.means[np.lexsort(gs.means.T)]
        np.testing.assert_array_equal(got, want)

    def test_single_voxel_group_keeps_one_member(self, rng):
        gs = random_gaussian_set(rng, 50)
        means = np.array([1.1, 1.2, 0.1]) + rng.uniform(0, 0.35, size=(50, 3))
        gs = dataclasses.replace(gs, means=np.clip(means, 1.01, 1.49))
        out = sample_representatives(gs, SPEC, seed=7)
        assert len(out) == 1
        match = (np.abs(gs.means - out.means[0]) < 1e-12).all(axis=1)
        assert match.any()

    def test_count_matches_dict_oracle(self, rng):
        for trial in range(10):
            gs = random_gaussian_set(rng, 500, lo=(-10, -10, -6), hi=(10, 10, 6))
            out = sample_representatives(gs, SPEC, seed=trial)
            oracle = dict_grouping_oracle(gs.means, SPEC)
            assert len(out) == len(oracle)

    def test_representative_comes_from_its_group(self, rng):
        gs = random_gaussian_set(rng, 400)
        out = sample_representatives(gs, SPEC, seed=3)
        oracle = dict_grouping_oracle(gs.means, SPEC)
        for i in range(len(out)):
            v = tuple(int(np.floor(c / SPEC.grid_size)) for c in out.means[i])
            members = oracle[v]
            assert any((gs.means[j] == out.means[i]).all() for j in members)

    def test_idempotent(self, rng):
        gs = random_gaussian_set(rng, 300)
        once = sample_representatives(gs, SPEC, seed=9)
        twice = sample_representatives(once, SPEC, seed=9)
        np.testing.assert_array_equal(once.means, twice.means)
        np.testing.assert_array_equal(once.semantics, twice.semantics)

    def test_deterministic_across_runs_and_workers(self, rng):
        gs = random_gaussian_set(rng, 2000)
        base = sample_representatives(gs, SPEC, seed=42, n_workers=1)
        for workers in (1, 4, 8):
            again = sample_representatives(gs, SPEC, seed=42, n_workers=workers)
            np.testing.assert_array_equal(base.means, again.means)
            np.testing.assert_array_equal(base.rotations, again.rotations)
            np.testing.assert_array_equal(base.source_index, again.source_index)

    def test_worker_pool_capped_at_cpu_count(self, rng, monkeypatch):
        pool_sizes = []

        class InlinePool:  # records the requested size and starts no thread
            def __init__(self, max_workers):
                pool_sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(sampling, "ThreadPoolExecutor", InlinePool)
        gs = random_gaussian_set(rng, 1000)
        base = sample_representatives(gs, SPEC, seed=3, n_workers=1)
        wide = sample_representatives(gs, SPEC, seed=3, n_workers=os.cpu_count() + 5)
        assert all(size <= os.cpu_count() for size in pool_sizes)
        np.testing.assert_array_equal(base.source_index, wide.source_index)

    def test_attributes_unmutated(self, rng):
        gs = random_gaussian_set(rng, 200)
        out = sample_representatives(gs, SPEC, seed=5)
        # every output row appears verbatim in the input
        for i in range(len(out)):
            row_match = (gs.means == out.means[i]).all(axis=1)
            j = int(np.flatnonzero(row_match)[0])
            np.testing.assert_array_equal(gs.scales[j], out.scales[i])
            np.testing.assert_array_equal(gs.rotations[j], out.rotations[i])
            assert gs.opacities[j] == out.opacities[i]
            np.testing.assert_array_equal(gs.semantics[j], out.semantics[i])

    def test_empty_set_passthrough(self, rng):
        gs = random_gaussian_set(rng, 0)
        out = sample_representatives(gs, SPEC, seed=0)
        assert len(out) == 0

    def test_output_sorted_by_key(self, rng):
        gs = random_gaussian_set(rng, 500)
        out = sample_representatives(gs, SPEC, seed=11)
        keys = voxel_keys(out.means, SPEC)
        assert (np.diff(keys.astype(np.int64)) > 0).all()

    def test_seed_changes_choice_within_groups(self, rng):
        gs = random_gaussian_set(rng, 1000, lo=(-2, -2, -1), hi=(2, 2, 1))
        a = sample_representatives(gs, SPEC, seed=1)
        b = sample_representatives(gs, SPEC, seed=2)
        assert len(a) == len(b)
        assert not np.array_equal(a.means, b.means)


# Grids of 256, 65 536, 65 537 and 2^33 cells: their keys narrow to uint8,
# uint16, uint32 and uint64.
WIDTH_SPECS = [
    (VoxelGridSpec(np.zeros(3), np.array(hi), 1.0), dtype)
    for hi, dtype in (
        ((16.0, 16.0, 1.0), np.uint8),
        ((256.0, 256.0, 1.0), np.uint16),
        ((65537.0, 1.0, 1.0), np.uint32),
        ((65536.0, 65536.0, 2.0), np.uint64),
    )
]


def clustered_means(rng, spec, n):
    """`n` means: half spread over the extents, half jittered around 40
    points so that voxels hold several, and every tenth one outside."""
    lo, hi = spec.min_corner, spec.max_corner
    means = rng.uniform(lo, hi, size=(n, 3))
    centers = rng.uniform(lo, hi, size=(40, 3))
    half = n // 2
    jitter = rng.uniform(-0.6, 0.6, size=(half, 3)) * spec.grid_size
    means[:half] = np.clip(centers[rng.integers(0, 40, half)] + jitter, lo, np.nextafter(hi, lo))
    means[::10] = hi + rng.uniform(0.0, 3.0, size=(len(means[::10]), 3))
    return means


def sample_indices_uint64_oracle(means, spec, seed):
    """sample_indices with the stable sort made on the uint64 keys."""
    keys = voxel_keys(means, spec)
    rows = np.flatnonzero(keys != OUT_OF_BOUNDS)
    if rows.size == 0:
        return rows
    keys = keys[rows]
    order = np.argsort(keys, kind="stable")
    sorted_keys, sorted_rows = keys[order], rows[order]
    starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
    sizes = np.diff(np.r_[starts, sorted_keys.size]).astype(np.uint64)
    draw = splitmix64(np.uint64(seed) ^ sorted_keys[starts])
    return sorted_rows[starts + (draw % sizes).astype(np.int64)]


class TestNarrowedKeySort:
    def test_key_width_follows_the_cell_count(self):
        for spec, dtype in WIDTH_SPECS:
            keys = np.array([0, spec.num_cells - 1], dtype=np.uint64)
            narrow = narrow_keys(keys, spec)
            assert narrow.dtype == dtype
            assert narrow.tolist() == keys.tolist()

    def test_sample_indices_equal_the_uint64_sort(self, rng):
        for spec, _ in WIDTH_SPECS:
            for n in (1, 9, 5000):
                means = clustered_means(rng, spec, n)
                for seed in (0, 7, 2**64 - 1):
                    got = sampling.sample_indices(means, spec, seed)
                    assert np.array_equal(got, sample_indices_uint64_oracle(means, spec, seed))

    def test_distinct_count_equals_np_unique(self, rng, monkeypatch):
        # Small chunks so that two workers share the keying.
        monkeypatch.setattr(sampling, "_KEY_ROWS", 512)
        for spec, _ in WIDTH_SPECS:
            means = clustered_means(rng, spec, 5000)
            keys = voxel_keys(means, spec)
            want = np.unique(keys[keys != OUT_OF_BOUNDS]).size
            assert 0 < want < 4500
            outside = np.tile(spec.max_corner, (7, 1))
            for n_workers in (1, 2):
                count = functools.partial(distinct_occupied_voxels, spec=spec, n_workers=n_workers)
                assert count(SimpleNamespace(means=means)) == want
                assert count(SimpleNamespace(means=np.empty((0, 3)))) == 0
                assert count(SimpleNamespace(means=outside)) == 0
