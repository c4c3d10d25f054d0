import numpy as np
import pytest

import gsocc
from gsocc.core import (
    CameraModel,
    DepthMap,
    GaussianSet,
    OccupancyGrid,
    VoxelGridSpec,
    quaternion_to_matrices,
    row_norms,
)
from gsocc.errors import ConfigError, InvalidRotationError, ShapeError

from conftest import random_unit_quaternions


def quat_rotate_oracle(q, v):
    """Rotate v by q via quaternion products: q * (0, v) * conj(q).

    Independent of the matrix formula used by the implementation.
    """
    w, x, y, z = q

    def mul(a, b):
        aw, ax, ay, az = a
        bw, bx, by, bz = b
        return np.array(
            [
                aw * bw - ax * bx - ay * by - az * bz,
                aw * bx + ax * bw + ay * bz - az * by,
                aw * by - ax * bz + ay * bw + az * bx,
                aw * bz + ax * by - ay * bx + az * bw,
            ]
        )

    p = np.array([0.0, *v])
    conj = np.array([w, -x, -y, -z])
    return mul(mul(q, p), conj)[1:]


def rotation_matrix_oracle(q):
    return np.stack([quat_rotate_oracle(q, e) for e in np.eye(3)], axis=1)


class TestTypes:
    def test_gaussian_set_provenance_length_enforced(self, rng):
        with pytest.raises(ShapeError):
            GaussianSet(
                means=np.zeros((2, 3)),
                scales=np.ones((2, 3)),
                rotations=np.tile([1.0, 0, 0, 0], (2, 1)),
                opacities=np.ones(2),
                semantics=np.zeros((2, 3)),
                source_index=np.zeros((1, 3), dtype=np.uint32),
            )

    def test_camera_rejects_skewed_rotation(self):
        bad = np.eye(3)
        bad[0, 1] = 0.01
        with pytest.raises(InvalidRotationError):
            CameraModel(fx=10, fy=10, cx=5, cy=5, height=10, width=10,
                        rotation=bad, translation=np.zeros(3))

    def test_camera_rejects_nonpositive_focal(self):
        with pytest.raises(ValueError):
            CameraModel(fx=0, fy=10, cx=5, cy=5, height=10, width=10,
                        rotation=np.eye(3), translation=np.zeros(3))

    @pytest.mark.parametrize("name", ["fx", "fy", "cx", "cy"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_camera_rejects_non_finite_intrinsics(self, name, value):
        intrinsics = {"fx": 10.0, "fy": 10.0, "cx": 5.0, "cy": 5.0, name: value}
        with pytest.raises(ValueError, match="finite"):
            CameraModel(**intrinsics, height=10, width=10,
                        rotation=np.eye(3), translation=np.zeros(3))

    def test_depth_map_rejects_nonpositive_uncertainty(self):
        with pytest.raises(ValueError):
            DepthMap(depth=np.ones((2, 2)), uncertainty=np.zeros((2, 2)))

    def test_depth_map_accepts_sentinel(self):
        dm = DepthMap(depth=np.array([[1.0, np.inf]]), uncertainty=np.ones((1, 2)))
        assert dm.valid.tolist() == [[True, False]]

    def test_occupancy_grid_shape_checked(self):
        labels = np.zeros((2, 2, 3), dtype=np.uint8)
        grid = OccupancyGrid(origin=np.zeros(3), voxel_size=0.5, labels=labels,
                             probs=np.zeros((2, 2, 3, 5)))
        assert grid.dims == (2, 2, 3)
        for labels, probs in ((labels, np.zeros((2, 2, 2, 5))), (labels, np.zeros((2, 2, 3))),
                              (labels[0], None)):
            with pytest.raises(ShapeError):
                OccupancyGrid(origin=np.zeros(3), voxel_size=0.5, labels=labels, probs=probs)

    def test_voxel_grid_spec_dims(self):
        spec = VoxelGridSpec(
            min_corner=np.array([-50.0, -50.0, -5.0]),
            max_corner=np.array([50.0, 50.0, 3.0]),
            grid_size=0.5,
        )
        assert spec.dims.tolist() == [200, 200, 16]
        assert spec.v_min.tolist() == [-100, -100, -10]

    def test_voxel_grid_spec_rejects_int64_key_overflow(self):
        edge = 2.0**21
        spec = VoxelGridSpec(min_corner=np.zeros(3), max_corner=np.array([edge, edge, edge - 1]),
                             grid_size=1.0)
        assert spec.num_cells == 2**63 - 2**42
        with pytest.raises(ConfigError):
            VoxelGridSpec(min_corner=np.zeros(3), max_corner=np.full(3, edge), grid_size=1.0)
        with pytest.raises(ConfigError):  # 1.28e20 cells on the default pipeline extents
            VoxelGridSpec(min_corner=np.array([-16.0, -16.0, -4.0]),
                          max_corner=np.array([16.0, 16.0, 4.0]), grid_size=4e-6)

    def test_voxel_grid_spec_rejects_inverted_extents(self):
        with pytest.raises(ValueError):
            VoxelGridSpec(
                min_corner=np.array([1.0, 0.0, 0.0]),
                max_corner=np.array([0.0, 1.0, 1.0]),
                grid_size=0.5,
            )


def test_quaternion_matrix_is_orthonormal(rng):
    for r in quaternion_to_matrices(random_unit_quaternions(rng, 25)):
        np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_quaternion_double_cover(rng):
    q = random_unit_quaternions(rng, 50)
    np.testing.assert_array_equal(quaternion_to_matrices(q), quaternion_to_matrices(-q))


def test_batched_rotations_match_scalar_bitwise(rng):
    q = random_unit_quaternions(rng, 200)
    batched = quaternion_to_matrices(q)
    assert batched.shape == (200, 3, 3)
    # Each row depends on its own quaternion only, bit for bit.
    assert np.array_equal(batched, np.concatenate([quaternion_to_matrices(r[None]) for r in q]))
    np.testing.assert_allclose(batched, np.stack([rotation_matrix_oracle(r) for r in q]),
                               atol=1e-12)
    for bad in (1.01, np.nan):
        q_bad = q.copy()
        q_bad[57] *= bad
        with pytest.raises(InvalidRotationError):
            quaternion_to_matrices(q_bad)


def test_public_names_resolve_once():
    assert len(gsocc.__all__) == len(set(gsocc.__all__))
    assert [name for name in gsocc.__all__ if not hasattr(gsocc, name)] == []


def ray_directions_oracle(cam, rows, cols):
    """The stacked camera-frame directions over np.linalg.norm, rotated:
    the formula `CameraModel.ray_directions` must reproduce bit for bit."""
    u = np.asarray(cols, dtype=np.float64) + 0.5
    v = np.asarray(rows, dtype=np.float64) + 0.5
    d = np.stack([(u - cam.cx) / cam.fx, (v - cam.cy) / cam.fy, np.ones_like(u)], axis=-1)
    d /= np.linalg.norm(d, axis=-1, keepdims=True)
    return d @ np.asarray(cam.rotation, dtype=np.float64).T


def test_ray_directions_bitwise_the_stacked_norm(rng):
    for q in random_unit_quaternions(rng, 12):
        h, w = (int(n) for n in rng.integers(1, 40, size=2))
        cam = CameraModel(
            fx=float(rng.uniform(0.5, 500.0)), fy=float(rng.uniform(0.5, 500.0)),
            cx=float(rng.uniform(-w, 2 * w)), cy=float(rng.uniform(-h, 2 * h)),
            height=h, width=w, rotation=quaternion_to_matrices(q[None])[0],
            translation=rng.uniform(-5, 5, size=3),
        )
        for stride in (1, 2, 3, 7):
            rr, cc = np.mgrid[0:h:stride, 0:w:stride]
            want = ray_directions_oracle(cam, rr.ravel(), cc.ravel())
            assert np.array_equal(cam.pixel_rays(stride), want)
            # (H, 1) rows and (W,) cols broadcast to the grid's rays.
            rows, cols = np.arange(0, h, stride)[:, None], np.arange(0, w, stride)
            grid = ray_directions_oracle(cam, rr, cc)
            assert np.array_equal(cam.ray_directions(rows, cols), grid)
        # Any array shape: here one (rows, cols) grid, and one pixel.
        assert np.array_equal(cam.ray_directions(rr, cc), ray_directions_oracle(cam, rr, cc))
        assert np.array_equal(cam.ray_directions(3, 4), ray_directions_oracle(cam, 3, 4))


def test_validate_quaternion_norm_bounds(rng):
    gs = GaussianSet(
        means=np.zeros((3, 3)),
        scales=np.ones((3, 3)),
        rotations=random_unit_quaternions(rng, 3),
        opacities=np.ones(3),
        semantics=np.zeros((3, 2)),
        source_index=np.zeros((3, 3), dtype=np.uint32),
    )
    for scale in (1 + 5e-7, 1 - 5e-7):
        gs.rotations[1] = gs.rotations[0] * scale
        gs.validate()
    for bad in (1 + 2e-6, 1 - 2e-6, np.nan):
        gs.rotations[1] = gs.rotations[0] * bad
        with pytest.raises(InvalidRotationError):
            gs.validate()
    gs.rotations[1] = gs.rotations[0]
    gs.rotations[1, 2] = np.nan
    with pytest.raises(InvalidRotationError):
        gs.validate()


def test_row_norms_bitwise_np_linalg_norm(rng):
    for shape in ((200_000, 3), (200_000, 4), (8_192, 4), (5, 3), (1, 4), (0, 3)):
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        for arr in (a, np.asfortranarray(a)):
            assert np.array_equal(row_norms(arr), np.linalg.norm(a, axis=1))
