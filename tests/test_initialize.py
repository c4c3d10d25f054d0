from dataclasses import dataclass

import numpy as np
import pytest

from gsocc.core import CameraModel, DepthMap
from gsocc.errors import ShapeError
from gsocc.formats import read_gaussian_set
from gsocc.initialize import init_gaussians
from gsocc.synth import look_rotation

from conftest import init_oracle, unproject_pixels


def make_camera(rng=None, height=8, width=10):
    if rng is None:
        return CameraModel(fx=20.0, fy=20.0, cx=width / 2, cy=height / 2,
                           height=height, width=width,
                           rotation=np.eye(3), translation=np.zeros(3))
    fwd = rng.standard_normal(3)
    fwd[2] = fwd[2] * 0.2 + 0.1  # keep away from straight up
    return CameraModel(
        fx=rng.uniform(10, 40), fy=rng.uniform(10, 40),
        cx=width / 2 + rng.uniform(-1, 1), cy=height / 2 + rng.uniform(-1, 1),
        height=height, width=width,
        rotation=look_rotation(fwd),
        translation=rng.uniform(-3, 3, size=3),
    )


def project(cam, points):
    """Reprojection oracle: world points -> continuous (row, col) pixel
    coordinates plus camera-frame z. A point on the ray of pixel (r, c)
    projects to (r + 0.5, c + 0.5)."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    local = (pts - cam.origin) @ np.asarray(cam.rotation, dtype=np.float64)
    z = local[:, 2]
    return cam.fy * local[:, 1] / z + cam.cy, cam.fx * local[:, 0] / z + cam.cx, z


@dataclass(frozen=True)
class ConstantAttributes:
    """Attribute provider with the same attributes at every pixel."""

    scale: np.ndarray
    rotation: np.ndarray
    opacity: float
    logits: np.ndarray

    @property
    def num_classes(self) -> int:
        return np.asarray(self.logits).shape[0]

    def __call__(self, view, rows, cols):
        n = len(rows)
        return (
            np.tile(np.asarray(self.scale, dtype=np.float64), (n, 1)),
            np.tile(np.asarray(self.rotation, dtype=np.float64), (n, 1)),
            np.full(n, float(self.opacity)),
            np.tile(np.asarray(self.logits, dtype=np.float64), (n, 1)),
        )


ATTRS = ConstantAttributes(
    scale=np.array([0.2, 0.2, 0.2]),
    rotation=np.array([1.0, 0.0, 0.0, 0.0]),
    opacity=0.8,
    logits=np.array([1.0, 0.0, 0.0]),
)


class PixelAttributes:
    """Attributes that differ from pixel to pixel and from view to view."""

    num_classes = 3

    def __call__(self, view, rows, cols):
        u = (view + 1) * 0.01 + rows * 1e-3 + cols * 1e-4
        q = np.stack([np.ones_like(u), u, -u, 2 * u], axis=1)
        return (
            np.stack([0.1 + u, 0.2 + u, 0.3 + u], axis=1),
            q / np.linalg.norm(q, axis=1, keepdims=True),
            0.5 + u,
            np.stack([u, -u, rows * 1.0], axis=1),
        )


def init_set(path, cams, depths, attrs=ATTRS):
    """The set init_gaussians streams to `path` from each camera's pixel
    rays, read back whole; its returned means are the file's."""
    views = ((cam.origin, cam.pixel_rays(), dm, attrs) for cam, dm in zip(cams, depths))
    means = init_gaussians(views, attrs.num_classes, path).means
    gs = read_gaussian_set(path)
    assert np.array_equal(means, gs.means)
    return gs


def unproject_one(cam, row, col, d):
    return unproject_pixels(cam, np.array([row]), np.array([col]), np.array([d]))[0]


class TestUnproject:
    def test_zero_depth_gives_camera_origin(self, rng):
        cam = make_camera(rng)
        mu = unproject_one(cam, 3, 7, 0.0)
        np.testing.assert_array_equal(mu, cam.origin)

    def test_principal_point_along_optical_axis(self):
        cam = CameraModel(fx=20.0, fy=20.0, cx=4.5, cy=2.5, height=8, width=10,
                          rotation=np.eye(3), translation=np.zeros(3))
        mu = unproject_one(cam, 2, 4, 5.0)  # pixel center (2.5, 4.5) == (cy, cx)
        np.testing.assert_allclose(mu, [0.0, 0.0, 5.0], atol=1e-12)

    def test_projection_roundtrip(self, rng):
        for _ in range(25):
            cam = make_camera(rng)
            row = int(rng.integers(0, cam.height))
            col = int(rng.integers(0, cam.width))
            mu = unproject_one(cam, row, col, 7.3)
            r, c, z = project(cam, mu)
            assert z[0] > 0
            np.testing.assert_allclose([r[0], c[0]], [row + 0.5, col + 0.5], atol=1e-4)

    def test_mean_lies_on_pixel_ray(self, rng):
        for _ in range(20):
            cam = make_camera(rng)
            rows = rng.integers(0, cam.height, size=30)
            cols = rng.integers(0, cam.width, size=30)
            depths = rng.uniform(0.5, 40.0, size=30)
            mus = unproject_pixels(cam, rows, cols, depths)
            v = cam.ray_directions(rows, cols)
            rel = mus - cam.origin
            cross = np.linalg.norm(np.cross(rel, v), axis=1)
            assert (cross <= 1e-6 * np.linalg.norm(rel, axis=1)).all()


class TestInitGaussians:
    def test_counting_and_provenance(self, tmp_path):
        cam = make_camera(height=2, width=2)
        dm = DepthMap(depth=np.full((2, 2), 3.0), uncertainty=np.full((2, 2), 1e-3))
        gs = init_set(tmp_path / "init.gsb", [cam], [dm])
        assert len(gs) == 4
        np.testing.assert_array_equal(
            gs.source_index,
            [[0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1]],
        )

    def test_all_sentinel_gives_empty_set(self, tmp_path):
        cam = make_camera(height=2, width=2)
        dm = DepthMap(depth=np.full((2, 2), np.inf), uncertainty=np.full((2, 2), 1e-3))
        gs = init_set(tmp_path / "init.gsb", [cam], [dm])
        assert len(gs) == 0
        assert gs.num_classes == 3

    def test_count_equals_valid_pixels(self, tmp_path, rng):
        cams, dms, expect = [], [], 0
        for _ in range(3):
            cam = make_camera(rng)
            depth = rng.uniform(1, 10, size=(cam.height, cam.width))
            mask = rng.random(depth.shape) < 0.3
            depth[mask] = np.inf
            expect += int((~mask).sum())
            cams.append(cam)
            dms.append(DepthMap(depth=depth, uncertainty=np.full(depth.shape, 0.01)))
        gs = init_set(tmp_path / "init.gsb", cams, dms)
        assert len(gs) == expect

    def test_two_cameras_facing_plane(self, tmp_path):
        # Both cameras look along +z at the plane z = 5; depth is the exact
        # along-ray distance, so every mean must land on the plane.
        plane_z = 5.0
        cams = []
        for tx in (-0.5, 0.5):
            cams.append(CameraModel(fx=16.0, fy=16.0, cx=8.0, cy=6.0, height=12, width=16,
                                    rotation=np.eye(3),
                                    translation=np.array([tx, 0.0, 0.0])))
        dms = []
        for cam in cams:
            rr, cc = np.meshgrid(np.arange(cam.height), np.arange(cam.width), indexing="ij")
            dirs = cam.ray_directions(rr.ravel(), cc.ravel())
            t = (plane_z - cam.origin[2]) / dirs[:, 2]
            dms.append(DepthMap(depth=t.reshape(cam.height, cam.width),
                                uncertainty=np.full((cam.height, cam.width), 1e-3)))
        gs = init_set(tmp_path / "init.gsb", cams, dms)
        assert len(gs) == 2 * 12 * 16
        np.testing.assert_allclose(gs.means[:, 2], plane_z, atol=1e-3)

    def test_bit_identical_across_runs(self, tmp_path, rng):
        # Five views; the middle one has no return at all, so its block of
        # the file is empty and the next view starts right after the view
        # before it.
        cams, dms = [], []
        for view in range(5):
            cam = make_camera(rng)
            depth = rng.uniform(1, 10, size=(cam.height, cam.width))
            depth[rng.random(depth.shape) < 0.2] = np.inf
            if view == 2:
                depth[:] = np.inf
            cams.append(cam)
            dms.append(DepthMap(depth=depth, uncertainty=np.full(depth.shape, 0.01)))
        attrs = PixelAttributes()
        want = init_oracle(cams, dms, [attrs] * len(cams))
        assert 2 not in want.source_index[:, 0]
        fields = ("means", "scales", "rotations", "opacities", "semantics")
        for run in (1, 2):
            got = init_set(tmp_path / f"init{run}.gsb", cams, dms, attrs)
            # The file stores f32; each field is the oracle's rounded to it.
            for name in fields:
                expected = getattr(want, name).astype(np.float32)
                assert np.array_equal(getattr(got, name), expected), (run, name)
            assert np.array_equal(got.source_index, want.source_index), run
        assert (tmp_path / "init1.gsb").read_bytes() == (tmp_path / "init2.gsb").read_bytes()

    def test_provider_shape_mismatch_raises(self, tmp_path, rng):
        cam = make_camera(rng)
        dm = DepthMap(depth=np.ones((cam.height, cam.width)),
                      uncertainty=np.ones((cam.height, cam.width)))
        wide = ConstantAttributes(scale=np.ones(4), rotation=np.array([1.0, 0, 0, 0]),
                                  opacity=0.5, logits=np.zeros(3))
        with pytest.raises(ShapeError, match="scales"):
            init_set(tmp_path / "init.gsb", [cam], [dm], wide)
