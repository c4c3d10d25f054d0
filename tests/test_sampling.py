import dataclasses
import os
from collections import defaultdict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gsocc import sampling
from gsocc.core import VoxelGridSpec
from gsocc.sampling import (
    OUT_OF_BOUNDS,
    sample_representatives,
    splitmix64,
    voxel_keys,
    voxelize_key,
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
        vk = voxelize_key(np.array([1.2, -0.7, 0.3]), SPEC)
        assert vk.v.tolist() == [2, -2, 0]

    def test_boundary_is_half_open(self):
        vk = voxelize_key(np.array([1.0, 0.0, 0.0]), SPEC)
        assert vk.v[0] == 2

    def test_out_of_extent_yields_marker(self):
        assert voxelize_key(np.array([9.0, 0.0, 0.0]), SPEC) is None
        assert voxelize_key(np.array([8.0, 0.0, 0.0]), SPEC) is None  # max is exclusive
        assert voxelize_key(np.array([-8.0, 0.0, 0.0]), SPEC) is not None

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
        point = np.array([point[0], point[1], np.clip(point[2], -3.99, 3.99)])
        vk = voxelize_key(point, SPEC)
        assert vk is not None
        # invert the linear index and compare with the voxel coordinate
        dy, dz = int(SPEC.dims[1]), int(SPEC.dims[2])
        k = vk.key
        v = np.array([k // (dy * dz), (k // dz) % dy, k % dz]) + SPEC.v_min
        np.testing.assert_array_equal(v, vk.v)


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
