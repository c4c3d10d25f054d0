import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsocc.core import (
    S_MIN,
    CameraModel,
    DepthMap,
    GaussianSet,
    OccupancyGrid,
    VoxelGridSpec,
    covariance_of,
    quaternion_to_matrix,
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


class TestCovariance:
    def test_identity_case(self):
        cov = covariance_of(np.ones(3), np.array([1.0, 0.0, 0.0, 0.0]))
        np.testing.assert_array_equal(cov, np.eye(3))

    def test_axis_aligned_scaling(self):
        cov = covariance_of(np.array([2.0, 1.0, 1.0]), np.array([1.0, 0.0, 0.0, 0.0]))
        np.testing.assert_array_equal(cov, np.diag([4.0, 1.0, 1.0]))

    def test_matches_matrix_oracle(self, rng):
        scale = np.array([1.0, 2.0, 3.0])
        for q in random_unit_quaternions(rng, 20):
            r = rotation_matrix_oracle(q)
            expected = r @ np.diag(scale) @ np.diag(scale).T @ r.T
            np.testing.assert_allclose(covariance_of(scale, q), expected, atol=1e-9)

    def test_non_unit_quaternion_rejected(self):
        with pytest.raises(InvalidRotationError):
            covariance_of(np.ones(3), np.array([1.0, 0.1, 0.0, 0.0]))

    def test_scale_below_floor_clamped(self):
        cov = covariance_of(np.array([1e-9, 1.0, 1.0]), np.array([1.0, 0.0, 0.0, 0.0]))
        assert cov[0, 0] == pytest.approx(S_MIN**2)

    def test_symmetric_psd_property(self, rng):
        for _ in range(200):
            scale = rng.uniform(S_MIN, 2.0, size=3)
            q = random_unit_quaternions(rng, 1)[0]
            cov = covariance_of(scale, q)
            np.testing.assert_allclose(cov, cov.T, atol=1e-9)
            eig = np.linalg.eigvalsh(cov)
            assert (eig >= S_MIN**2 * (1 - 1e-6)).all()

    def test_quaternion_double_cover(self, rng):
        for q in random_unit_quaternions(rng, 50):
            s = rng.uniform(S_MIN, 2.0, size=3)
            np.testing.assert_array_equal(covariance_of(s, q), covariance_of(s, -q))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(0.01, 5.0), min_size=3, max_size=3),
        st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
            lambda q: np.linalg.norm(q) > 1e-3
        ),
    )
    def test_determinant_identity(self, scale, quat):
        scale = np.asarray(scale)
        quat = np.asarray(quat) / np.linalg.norm(quat)
        det = np.linalg.det(covariance_of(scale, quat))
        np.testing.assert_allclose(det, np.prod(scale) ** 2, rtol=1e-6)


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

    def test_depth_map_rejects_nonpositive_uncertainty(self):
        with pytest.raises(ValueError):
            DepthMap(depth=np.ones((2, 2)), uncertainty=np.zeros((2, 2)))

    def test_depth_map_accepts_sentinel(self):
        dm = DepthMap(depth=np.array([[1.0, np.inf]]), uncertainty=np.ones((1, 2)))
        assert dm.valid.tolist() == [[True, False]]

    def test_occupancy_grid_shape_checked(self):
        with pytest.raises(ShapeError):
            OccupancyGrid(dims=(2, 2, 2), origin=np.zeros(3), voxel_size=0.5,
                          labels=np.zeros((2, 2, 3), dtype=np.uint8))

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
    for q in random_unit_quaternions(rng, 25):
        r = quaternion_to_matrix(q)
        np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)
