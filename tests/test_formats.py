import re
import struct

import numpy as np
import pytest

from gsocc.core import DepthMap, OccupancyGrid
from gsocc.errors import ConfigError
from gsocc.formats import (
    GSB_MAGIC,
    gaussian_set_from_json,
    gaussian_set_to_json,
    read_basis_json,
    read_depth_map,
    read_gaussian_set,
    read_occupancy,
    write_basis_json,
    write_depth_map,
    write_gaussian_set,
    write_occupancy,
)

from conftest import random_gaussian_set


class TestGSB1:
    def test_roundtrip_exact_at_f32(self, tmp_path, rng):
        gs = random_gaussian_set(rng, 37, num_classes=5)
        path = tmp_path / "set.gsb"
        write_gaussian_set(path, gs)
        back = read_gaussian_set(path)
        assert len(back) == 37 and back.num_classes == 5
        np.testing.assert_array_equal(back.means, gs.means.astype(np.float32))
        np.testing.assert_array_equal(back.semantics, gs.semantics.astype(np.float32))
        np.testing.assert_array_equal(back.source_index, gs.source_index)

    def test_header_layout(self, tmp_path, rng):
        gs = random_gaussian_set(rng, 3, num_classes=2)
        path = tmp_path / "set.gsb"
        write_gaussian_set(path, gs)
        raw = path.read_bytes()
        assert raw[:8] == GSB_MAGIC
        p, c = struct.unpack_from("<II", raw, 8)
        assert (p, c) == (3, 2)
        record_floats = 3 + 3 + 4 + 1 + 2
        assert len(raw) == 16 + p * record_floats * 4 + p * 12

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.gsb"
        path.write_bytes(b"NOPE0000" + b"\x00" * 16)
        with pytest.raises(ConfigError):
            read_gaussian_set(path)

    def test_json_mirror_roundtrip(self, rng):
        gs = random_gaussian_set(rng, 11, num_classes=3)
        again = gaussian_set_from_json(gaussian_set_to_json(gs))
        np.testing.assert_array_equal(again.means, gs.means)
        np.testing.assert_array_equal(again.opacities, gs.opacities)
        np.testing.assert_array_equal(again.source_index, gs.source_index)


class TestDPM1:
    def test_roundtrip_with_sentinel(self, tmp_path, rng):
        depth = rng.uniform(1, 9, size=(6, 7))
        depth[2, 3] = np.inf
        dm = DepthMap(depth=depth, uncertainty=np.full((6, 7), 0.25))
        path = tmp_path / "d.dpm"
        write_depth_map(path, dm)
        back = read_depth_map(path)
        assert np.isinf(back.depth[2, 3])
        np.testing.assert_array_equal(back.depth, depth.astype(np.float32))
        np.testing.assert_array_equal(back.uncertainty, np.float32(0.25) * np.ones((6, 7)))


class TestOCC1:
    def grid(self, rng):
        labels = rng.integers(0, 4, size=(5, 4, 3)).astype(np.uint8)
        return OccupancyGrid(dims=(5, 4, 3), origin=np.array([-1.0, 0.0, 2.0]),
                             voxel_size=0.5, labels=labels, empty_id=0)

    def test_roundtrip_labels_only(self, tmp_path, rng):
        grid = self.grid(rng)
        path = tmp_path / "g.occ"
        write_occupancy(path, grid, num_classes=3)
        back, c, probs = read_occupancy(path)
        assert c == 3 and probs is None
        assert back.dims == (5, 4, 3)
        assert back.voxel_size == 0.5
        np.testing.assert_array_equal(back.labels, grid.labels)
        np.testing.assert_allclose(back.origin, grid.origin, atol=1e-7)

    def test_roundtrip_with_probs(self, tmp_path, rng):
        grid = self.grid(rng)
        probs = rng.dirichlet(np.ones(4), size=(5, 4, 3))
        path = tmp_path / "g.occ"
        write_occupancy(path, grid, num_classes=3, probs=probs)
        _, _, back = read_occupancy(path)
        np.testing.assert_array_equal(back, probs.astype(np.float32))

    def test_prob_shape_validated(self, tmp_path, rng):
        grid = self.grid(rng)
        with pytest.raises(ConfigError):
            write_occupancy(tmp_path / "g.occ", grid, num_classes=3,
                            probs=np.zeros((5, 4, 3, 2)))


def _occ_with_probs(path, rng):
    labels = rng.integers(0, 3, size=(4, 4, 2)).astype(np.uint8)
    grid = OccupancyGrid(dims=(4, 4, 2), origin=np.zeros(3), voxel_size=0.5, labels=labels)
    write_occupancy(path, grid, num_classes=2, probs=rng.dirichlet(np.ones(3), size=(4, 4, 2)))


WRITERS = {
    "gsb": lambda path, rng: write_gaussian_set(path, random_gaussian_set(rng, 4)),
    "dpm": lambda path, rng: write_depth_map(
        path, DepthMap(depth=rng.uniform(1, 5, size=(3, 4)), uncertainty=np.ones((3, 4)))),
    "occ": _occ_with_probs,
}
READERS = {"gsb": read_gaussian_set, "dpm": read_depth_map, "occ": read_occupancy}


@pytest.mark.parametrize("fmt, damage", [
    pytest.param(fmt, damage, id=f"{fmt}-{damage}")
    for fmt in ("gsb", "dpm", "occ")
    for damage in ("truncated-payload", "trailing-bytes", "truncated-header")
] + [pytest.param("gsb", "opacity-3.0", id="gsb-opacity-3.0")])
def test_malformed_file_rejected_naming_it(tmp_path, rng, fmt, damage):
    path = tmp_path / f"bad.{fmt}"
    if damage == "opacity-3.0":
        gs = random_gaussian_set(rng, 4)
        gs.opacities[1] = 3.0
        write_gaussian_set(path, gs)
    else:
        WRITERS[fmt](path, rng)
        raw = path.read_bytes()
        path.write_bytes({"truncated-payload": raw[:-1], "trailing-bytes": raw + b"\0\0",
                          "truncated-header": raw[:10]}[damage])
    with pytest.raises(ConfigError, match=re.escape(str(path))):
        READERS[fmt](path)


def test_basis_json_roundtrip(tmp_path):
    rows = np.array([[0.25, 0.0, 0.0], [-0.25, 0.0, 0.0]])
    path = tmp_path / "basis.json"
    write_basis_json(path, rows)
    np.testing.assert_array_equal(read_basis_json(path), rows)
