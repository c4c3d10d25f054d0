from dataclasses import dataclass

import numpy as np
import pytest

from gsocc import formats, pipeline
from gsocc.core import CameraModel, DepthMap
from gsocc.errors import ConfigError, ShapeError
from gsocc.formats import GSB_MAGIC, read_gaussian_set
from gsocc.initialize import init_gaussians
from gsocc.pipeline import PipelineConfig, run_pipeline, write_cast, write_scene
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
    """Attribute provider with the same attributes at every pixel: one table
    row, which every pixel takes."""

    scale: np.ndarray
    rotation: np.ndarray
    opacity: float
    logits: np.ndarray

    @property
    def num_classes(self) -> int:
        return np.asarray(self.logits).shape[0]

    def __call__(self, view, rows, cols):
        row = np.concatenate([self.scale, self.rotation, [self.opacity], self.logits])
        return row[None, :].astype(np.float64), np.zeros(len(rows), dtype=np.intp)


ATTRS = ConstantAttributes(
    scale=np.array([0.2, 0.2, 0.2]),
    rotation=np.array([1.0, 0.0, 0.0, 0.0]),
    opacity=0.8,
    logits=np.array([1.0, 0.0, 0.0]),
)


class PixelAttributes:
    """Attributes that differ from pixel to pixel and from view to view: one
    table row per pixel, in pixel order."""

    num_classes = 3

    def __call__(self, view, rows, cols):
        u = (view + 1) * 0.01 + rows * 1e-3 + cols * 1e-4
        q = np.stack([np.ones_like(u), u, -u, 2 * u], axis=1)
        table = np.concatenate([
            np.stack([0.1 + u, 0.2 + u, 0.3 + u], axis=1),
            q / np.linalg.norm(q, axis=1, keepdims=True),
            (0.5 + u)[:, None],
            np.stack([u, -u, rows * 1.0], axis=1),
        ], axis=1)
        return table, np.arange(len(rows))


class Returned:
    """Attribute provider that returns the given table and index."""

    num_classes = 3

    def __init__(self, table, index):
        self.table, self.index = table, index

    def __call__(self, view, rows, cols):
        return self.table, self.index


def init_set(path, cams, depths, attrs=ATTRS):
    """The set init_gaussians streams to `path` from each camera's pixel
    rays, read back whole; its returned means are the file's f32 means."""
    views = ((cam.origin, cam.pixel_rays(), dm, attrs) for cam, dm in zip(cams, depths))
    means = init_gaussians(views, attrs.num_classes, path).means
    gs = read_gaussian_set(path)
    assert means.dtype == np.float32
    assert means.tobytes() == gs.means.astype(np.float32).tobytes()
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
        with pytest.raises(ShapeError, match=r"table of shape \(1, 12\), expected \(K, 11\)"):
            init_set(tmp_path / "init.gsb", [cam], [dm], wide)

    @pytest.mark.parametrize("table, index, message", [
        (np.ones(11), np.zeros(4, dtype=np.intp), r"table of shape \(11,\)"),
        (np.ones((1, 11)), np.zeros(4), r"index of float64 and shape \(4,\), expected \(4,\) integers"),
        (np.ones((1, 11)), np.zeros(3, dtype=np.intp), r"index of int64 and shape \(3,\)"),
        (np.ones((1, 11)), np.zeros((4, 1), dtype=np.intp), r"shape \(4, 1\)"),
        (np.ones((2, 11)), np.array([0, 1, -1, 0]), r"index outside \[0, 2\)"),
        (np.ones((2, 11)), np.array([0, 2, 1, 0], dtype=np.uint8), r"index outside \[0, 2\)"),
    ])
    def test_provider_contract_breaches_raise(self, tmp_path, table, index, message):
        # An index of -1 would otherwise take the last table row.
        cam = make_camera(height=2, width=2)
        dm = DepthMap(depth=np.full((2, 2), 3.0), uncertainty=np.full((2, 2), 1e-3))
        with pytest.raises(ShapeError, match=message):
            init_set(tmp_path / "init.gsb", [cam], [dm], Returned(table, index))

    def test_shared_rows_equal_rows_per_pixel(self, tmp_path, rng):
        # Three table rows shared by every pixel give the bytes of the same
        # attributes given one row per pixel.
        cam = make_camera(rng)
        depth = rng.uniform(1, 10, size=(cam.height, cam.width))
        depth[rng.random(depth.shape) < 0.3] = np.inf
        dm = DepthMap(depth=depth, uncertainty=np.full(depth.shape, 0.01))
        table = PixelAttributes()(0, np.arange(3), np.arange(3))[0]
        index = rng.integers(0, 3, size=int(dm.valid.sum()))
        init_set(tmp_path / "shared.gsb", [cam], [dm], Returned(table, index))
        init_set(tmp_path / "own.gsb", [cam], [dm], Returned(table[index], np.arange(len(index))))
        assert (tmp_path / "shared.gsb").read_bytes() == (tmp_path / "own.gsb").read_bytes()

    def test_mean_beyond_f32_range_rejected(self, tmp_path):
        cam = make_camera(height=2, width=2)
        depth = np.full((2, 2), 3.0)
        depth[1, 0] = 1e39  # finite in float64, inf in f32
        dm = DepthMap(depth=depth, uncertainty=np.full((2, 2), 1e-3))
        path = tmp_path / "gaussians_init.gsb.partial"
        with pytest.raises(ConfigError, match=r"gaussians_init\.gsb\.partial: means must be finite"):
            init_set(path, [cam], [dm])
        assert path.read_bytes()[:8] != GSB_MAGIC


class TestKeepWhatWasWritten:
    CONFIG = {"seed": 7, "num_boxes": 3, "resolution": [24, 32], "focal": 16.0}

    def test_init_stage_never_reopens_its_file(self, tmp_path, monkeypatch):
        config = PipelineConfig.from_dict(self.CONFIG)
        scene = write_scene(config, tmp_path / "scene.json")

        def refused(*args):
            raise AssertionError("init read its file back")

        monkeypatch.setattr(formats, "read_gaussian_means", refused)
        monkeypatch.setattr(formats, "read_gaussian_set", refused)
        init_set, _ = write_cast(config, scene, lambda name: tmp_path / name)
        monkeypatch.undo()
        assert len(init_set) > 1000 and init_set.means.dtype == np.float32
        whole = formats.read_gaussian_set(tmp_path / "gaussians_init.gsb")
        assert init_set.means.tobytes() == whole.means.astype(np.float32).tobytes()

    @pytest.mark.parametrize("column, value", [(1, 0.0), (5, 0.5), (7, 1.5), (9, np.inf)])
    def test_bad_table_row_fails_init(self, tmp_path, monkeypatch, column, value):
        # Scale below s_min, a rotation off unit norm, opacity above 1, an
        # infinite logit: each in the table row of class 1.
        class Damaged(pipeline.GroundTruthClassAttributes):
            def __call__(self, view, rows, cols):
                table, index = super().__call__(view, rows, cols)
                table = table.copy()
                table[1, column] = value
                return table, index

        monkeypatch.setattr(pipeline, "GroundTruthClassAttributes", Damaged)
        config = PipelineConfig.from_dict({**self.CONFIG, "out_dir": str(tmp_path / "run")})
        with pytest.raises(ConfigError, match=r"gaussians_init\.gsb\.partial: "):
            run_pipeline(config)
        assert not (tmp_path / "run" / "gaussians_init.gsb").exists()
