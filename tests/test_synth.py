import math
import warnings

import numpy as np
import pytest
from scipy.spatial import cKDTree

from gsocc import synth
from gsocc.core import CameraModel, quaternion_to_matrices
from gsocc.errors import ConfigError, ShapeError
from gsocc.pipeline import PipelineConfig
from gsocc.synth import (
    Box,
    SceneSpec,
    generate_scene,
    nearest_surface_points,
    rasterize_gt_grid,
    ray_hit_classes,
    render_depth_maps,
)

from conftest import unproject_pixels


def oriented_box_contains_oracle(box, p):
    """Independent point-in-box test using explicit scalar trig."""
    dx, dy, dz = p[0] - box.center[0], p[1] - box.center[1], p[2] - box.center[2]
    c, s = math.cos(-box.yaw), math.sin(-box.yaw)
    lx = c * dx - s * dy
    ly = s * dx + c * dy
    return (
        abs(lx) <= box.half_extents[0]
        and abs(ly) <= box.half_extents[1]
        and abs(dz) <= box.half_extents[2]
    )


def slab_intersect_oracle(box, o, v):
    """Scalar slab test in the box frame; returns entry distance or inf."""
    c, s = math.cos(-box.yaw), math.sin(-box.yaw)

    def to_local(p):
        dx, dy, dz = p[0] - box.center[0], p[1] - box.center[1], p[2] - box.center[2]
        return np.array([c * dx - s * dy, s * dx + c * dy, dz])

    def rot_local(p):
        return np.array([c * p[0] - s * p[1], s * p[0] + c * p[1], p[2]])

    ol, vl = to_local(o), rot_local(v)
    t0, t1 = -math.inf, math.inf
    for a in range(3):
        if vl[a] == 0:
            if abs(ol[a]) > box.half_extents[a]:
                return math.inf
        else:
            ta = (-box.half_extents[a] - ol[a]) / vl[a]
            tb = (box.half_extents[a] - ol[a]) / vl[a]
            if ta > tb:
                ta, tb = tb, ta
            t0, t1 = max(t0, ta), min(t1, tb)
    if t0 > t1 or t1 <= 0:
        return math.inf
    return max(t0, 0.0)


class TestGenerateScene:
    def test_same_seed_byte_identical(self):
        a = generate_scene(PipelineConfig(seed=123)).to_json()
        b = generate_scene(PipelineConfig(seed=123)).to_json()
        assert a == b

    def test_zero_boxes_gives_ground_only(self):
        scene = generate_scene(PipelineConfig(seed=5, num_boxes=0))
        assert scene.boxes == ()

    def test_hundred_seeds_within_extents(self):
        cfg = PipelineConfig()
        lo = np.asarray(cfg.extents_min)
        hi = np.asarray(cfg.extents_max)
        for seed in range(100):
            scene = generate_scene(PipelineConfig(seed=seed))
            for box in scene.boxes:
                assert (box.center >= lo).all() and (box.center <= hi).all()
                assert box.class_id in cfg.box_classes

    def test_json_roundtrip(self):
        scene = generate_scene(PipelineConfig(seed=9))
        again = SceneSpec.from_json(scene.to_json(), num_classes=4)
        assert again.to_json() == scene.to_json()

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError, match="positive volume"):
            PipelineConfig(extents_min=(0, 0, 0), extents_max=(0, 1, 1))


class TestRasterize:
    def test_grid_aligned_box_claims_exact_volume(self):
        box = Box(center=np.array([2.0, 2.0, 2.0]), half_extents=np.ones(3),
                  yaw=0.0, class_id=3)
        scene = SceneSpec(seed=0, boxes=(box,), ground_z=-50.0, ground_class=1,
                          extents_min=np.array([0.0, 0.0, 0.0]),
                          extents_max=np.array([4.0, 4.0, 4.0]))
        grid = rasterize_gt_grid(scene, (8, 8, 8), np.zeros(3), 0.5)
        assert int((grid.labels == 3).sum()) == 64
        assert int((grid.labels != 0).sum()) == 64

    def test_empty_scene_all_empty(self):
        scene = SceneSpec(seed=0, boxes=(), ground_z=-50.0, ground_class=1,
                          extents_min=np.array([0.0, 0.0, 0.0]),
                          extents_max=np.array([4.0, 4.0, 4.0]))
        grid = rasterize_gt_grid(scene, (8, 8, 8), np.zeros(3), 0.5)
        assert (grid.labels == 0).all()

    def test_rotated_box_matches_containment_oracle(self, rng):
        box = Box(center=np.array([1.7, 2.2, 1.9]), half_extents=np.array([1.2, 0.7, 0.9]),
                  yaw=0.83, class_id=2)
        scene = SceneSpec(seed=0, boxes=(box,), ground_z=-50.0, ground_class=1,
                          extents_min=np.array([0.0, 0.0, 0.0]),
                          extents_max=np.array([4.0, 4.0, 4.0]))
        grid = rasterize_gt_grid(scene, (8, 8, 8), np.zeros(3), 0.5)
        for i in range(8):
            for j in range(8):
                for k in range(8):
                    center = np.array([i + 0.5, j + 0.5, k + 0.5]) * 0.5
                    want = 2 if oriented_box_contains_oracle(box, center) else 0
                    assert grid.labels[i, j, k] == want

    def test_bounded_raster_matches_full_grid_containment(self, rng):
        # Rotated boxes that touch or cross the grid faces, some of them
        # grid-aligned so voxel centers fall on their faces, some entirely
        # outside the grid (not the scene); later boxes override earlier ones.
        dims, origin, vox = (12, 10, 6), np.array([-3.0, -2.5, -1.5]), 0.5
        lo, hi = origin, origin + np.array(dims) * vox
        boxes = []
        for i in range(40):
            center = rng.uniform(lo - 1.5, hi + 1.5)
            half = rng.uniform(0.2, 2.0, size=3)
            yaw = rng.uniform(-np.pi, np.pi)
            if i % 4 == 0:
                center = np.round(center / vox) * vox
                half = np.round(half / vox) * vox + 0.25
                yaw = 0.0
            boxes.append(Box(center=center, half_extents=half, yaw=yaw, class_id=1 + i % 3))
        scene = SceneSpec(seed=0, boxes=tuple(boxes), ground_z=-1.2, ground_class=4,
                          extents_min=lo - 4.0, extents_max=hi + 4.0)
        idx = np.stack(np.meshgrid(*(np.arange(d) for d in dims), indexing="ij"), axis=-1)
        centers = (origin + (idx + 0.5) * vox).reshape(-1, 3)
        want = np.zeros(dims, dtype=np.uint8)
        want[:, :, 0] = 4
        for box in boxes:
            want[box.contains(centers).reshape(dims)] = box.class_id
        grid = rasterize_gt_grid(scene, dims, origin, vox)
        np.testing.assert_array_equal(grid.labels, want)

    def test_ground_layer_and_overrides(self):
        box = Box(center=np.array([1.0, 1.0, 0.25]), half_extents=np.array([0.4, 0.4, 0.4]),
                  yaw=0.0, class_id=2)
        scene = SceneSpec(seed=0, boxes=(box,), ground_z=0.1, ground_class=1,
                          extents_min=np.array([0.0, 0.0, 0.0]),
                          extents_max=np.array([4.0, 4.0, 4.0]))
        grid = rasterize_gt_grid(scene, (8, 8, 8), np.zeros(3), 0.5)
        assert grid.labels[6, 6, 0] == 1          # ground layer [0, 0.5) holds z=0.1
        assert grid.labels[2, 2, 0] == 2          # box overrides ground


class TestDepthMaps:
    def plane_camera(self):
        # +z-forward camera staring straight at the horizontal plane z = 5
        from gsocc.core import CameraModel

        return CameraModel(fx=20.0, fy=20.0, cx=8.0, cy=6.0, height=12, width=16,
                           rotation=np.eye(3), translation=np.zeros(3))

    def test_principal_pixel_hits_plane_exactly(self):
        scene = SceneSpec(seed=0, boxes=(), ground_z=5.0, ground_class=1,
                          extents_min=np.array([-10.0, -10.0, 0.0]),
                          extents_max=np.array([10.0, 10.0, 6.0]))
        dm = render_depth_maps(scene, [self.plane_camera()], 0.0)[0]
        # pixel (5, 7) has center (5.5, 7.5); principal point is (6, 8) ->
        # use the exact principal ray via a 1-pixel camera check instead
        rr = np.array([5])
        cc = np.array([7])
        cam = self.plane_camera()
        v = cam.ray_directions(rr, cc)[0]
        expected = 5.0 / v[2]
        assert dm.depth[5, 7] == pytest.approx(expected, abs=1e-12)
        center_depth = ray_hit_classes(scene, np.zeros(3), np.array([[0.0, 0.0, 1.0]]))[0][0]
        assert center_depth == 5.0

    def test_sky_pixels_are_sentinel(self):
        scene = generate_scene(PipelineConfig(seed=3))
        cams = PipelineConfig(resolution=(24, 32), focal=16.0, pitch_deg=0.0).cameras()
        dms = render_depth_maps(scene, cams, 0.0)
        assert any(not dm.valid.all() for dm in dms)
        for dm in dms:
            assert np.isinf(dm.depth[~dm.valid]).all()

    def test_matches_bruteforce_intersector(self, rng):
        scene = generate_scene(PipelineConfig(seed=17))
        cam = PipelineConfig(resolution=(12, 16), focal=8.0, cam_height=0.4,
                             pitch_deg=15.0).cameras()[2]
        dm = render_depth_maps(scene, [cam], 0.0)[0]
        for row in range(0, cam.height, 3):
            for col in range(0, cam.width, 5):
                v = cam.ray_directions(np.array([row]), np.array([col]))[0]
                best = math.inf
                if v[2] != 0:
                    t = (scene.ground_z - cam.origin[2]) / v[2]
                    if t > 0:
                        best = t
                for box in scene.boxes:
                    best = min(best, slab_intersect_oracle(box, cam.origin, v))
                if math.isinf(best):
                    assert not dm.valid[row, col]
                else:
                    assert dm.depth[row, col] == pytest.approx(best, abs=1e-6)

    def test_noise_is_seeded_and_deterministic(self):
        scene = generate_scene(PipelineConfig(seed=11))
        cams = PipelineConfig(resolution=(12, 16), focal=8.0).cameras()
        a = render_depth_maps(scene, cams, noise_std=0.05)
        b = render_depth_maps(scene, cams, noise_std=0.05)
        for da, db in zip(a, b):
            np.testing.assert_array_equal(da.depth, db.depth)
            assert (da.uncertainty == 0.05).all()

    def test_noiseless_outputs_bitwise_deterministic(self):
        scene = generate_scene(PipelineConfig(seed=11))
        cams = PipelineConfig(resolution=(12, 16), focal=8.0).cameras()
        a = render_depth_maps(scene, cams, 0.0)
        b = render_depth_maps(scene, cams, 0.0)
        for da, db in zip(a, b):
            np.testing.assert_array_equal(da.depth, db.depth)


class TestConsistency:
    def test_unprojected_pixels_near_occupied_voxel_centers(self):
        # Steep, narrow-FOV rig keeps every surface hit inside the bounded
        # volume; the remaining error is pure surface-to-center quantization.
        dims = (64, 64, 16)
        origin = np.array([-16.0, -16.0, -4.0])
        bound = math.sqrt(3) / 2 * 0.5 + 1e-12
        for seed in (0, 1, 2, 42):
            scene = generate_scene(PipelineConfig(seed=seed))
            grid = rasterize_gt_grid(scene, dims, origin, 0.5)
            cams = PipelineConfig(focal=96.0, pitch_deg=30.0).cameras()
            depths = render_depth_maps(scene, cams, 0.0)
            centers = origin + (np.argwhere(grid.labels != 0) + 0.5) * 0.5
            tree = cKDTree(centers)
            total = ok = 0
            for cam, dm in zip(cams, depths):
                rows, cols = np.nonzero(dm.valid)
                pts = unproject_pixels(cam, rows, cols, dm.depth[dm.valid])
                d, _ = tree.query(pts)
                total += len(pts)
                ok += int((d <= bound).sum())
            assert ok / total >= 0.99


def test_nearest_surface_points_on_plane_and_box(rng):
    box = Box(center=np.array([3.0, 0.0, 0.0]), half_extents=np.array([1.0, 1.0, 1.0]),
              yaw=0.0, class_id=2)
    scene = SceneSpec(seed=0, boxes=(box,), ground_z=-2.0, ground_class=1,
                      extents_min=np.array([-8.0, -8.0, -4.0]),
                      extents_max=np.array([8.0, 8.0, 4.0]))
    # nearer to the ground plane
    p = np.array([[-5.0, 0.0, -1.5]])
    np.testing.assert_allclose(nearest_surface_points(scene, p), [[-5.0, 0.0, -2.0]])
    # nearer to the box's -x face
    p = np.array([[1.0, 0.0, 0.0]])
    np.testing.assert_allclose(nearest_surface_points(scene, p), [[2.0, 0.0, 0.0]])
    # interior points project to the closest face
    p = np.array([[3.9, 0.0, 0.0]])
    np.testing.assert_allclose(nearest_surface_points(scene, p), [[4.0, 0.0, 0.0]])


def full_cast_reference(scene, o, dirs):
    """Every ray slab-tested against every box: the cast without any cull."""
    dirs = np.atleast_2d(dirs)
    best = np.full(len(dirs), np.inf)
    cls = np.zeros(len(dirs), dtype=np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_plane = (scene.ground_z - o[2]) / dirs[:, 2]
    plane_hit = (dirs[:, 2] != 0) & (t_plane > 0)
    best[plane_hit] = t_plane[plane_hit]
    cls[plane_hit] = scene.ground_class
    for box in scene.boxes:
        t = box.ray_hits(o, dirs)
        closer = t < best
        best[closer] = t[closer]
        cls[closer] = box.class_id
    return best, cls


def scene_of(*boxes, ground_z=-50.0):
    return SceneSpec(seed=0, boxes=tuple(boxes), ground_z=ground_z, ground_class=1,
                     extents_min=np.full(3, -100.0), extents_max=np.full(3, 100.0))


def random_dirs(rng, n):
    d = rng.standard_normal((n, 3))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


class TestConeCull:
    """ray_hit_classes culls rays per box; its hits must equal the full cast
    bit for bit."""

    def assert_same_as_full_cast(self, scene, o, dirs):
        o = np.asarray(o, dtype=np.float64)
        depth, cls = ray_hit_classes(scene, o, dirs)
        want_depth, want_cls = full_cast_reference(scene, o, dirs)
        np.testing.assert_array_equal(depth, want_depth)
        np.testing.assert_array_equal(cls, want_cls)
        return want_depth, want_cls

    def test_seeded_random_scenes_and_origins(self, rng):
        hits = 0
        for seed in range(12):
            scene = generate_scene(PipelineConfig(seed=seed))
            dirs = random_dirs(rng, 3000)
            origins = [rng.uniform([-3, -3, -1], [3, 3, 1.5]) for _ in range(3)]
            origins.append(scene.boxes[0].center)  # inside a box
            for o in origins:
                depth, cls = self.assert_same_as_full_cast(scene, o, dirs)
                hits += int((cls > 1).sum())
        assert hits > 1000  # the rays do reach boxes

    def test_camera_pixel_rays(self):
        for seed in (3, 7, 11):
            scene = generate_scene(PipelineConfig(seed=seed))
            for cam in PipelineConfig().cameras():
                self.assert_same_as_full_cast(scene, cam.origin, cam.pixel_rays())

    def test_boxes_behind_straddling_and_around_the_origin(self, rng):
        # Rays fan out over the +x half space from the origin.
        dirs = random_dirs(rng, 4000)
        dirs[:, 0] = np.abs(dirs[:, 0])
        behind = Box(center=np.array([-6.0, 1.0, 0.5]), half_extents=np.array([1.0, 2.0, 0.7]),
                     yaw=0.4, class_id=2)
        straddling = Box(center=np.array([0.3, 4.0, -0.5]),
                         half_extents=np.array([1.5, 1.0, 1.2]), yaw=-0.9, class_id=3)
        around = Box(center=np.array([0.4, -0.2, 0.1]), half_extents=np.array([0.8, 0.6, 0.5]),
                     yaw=1.1, class_id=4)
        front = Box(center=np.array([7.0, -1.0, 0.0]), half_extents=np.array([1.0, 1.0, 1.0]),
                    yaw=0.2, class_id=2)
        seen = set()
        for boxes in [(behind,), (straddling,), (around,), (behind, straddling, front),
                      (front, around, behind)]:
            _, cls = self.assert_same_as_full_cast(scene_of(*boxes, ground_z=-3.0),
                                                   np.zeros(3), dirs)
            seen |= set(np.unique(cls).tolist())
        assert seen == {0, 1, 2, 3, 4}

    def test_box_behind_the_origin_tests_no_ray(self, rng, monkeypatch):
        tested = []
        full = Box.ray_hits

        def counted(box, o, dirs):
            tested.append((box.class_id, len(dirs)))
            return full(box, o, dirs)

        monkeypatch.setattr(Box, "ray_hits", counted)
        dirs = random_dirs(rng, 2000)
        dirs[:, 0] = np.abs(dirs[:, 0])
        behind = Box(center=np.array([-6.0, 1.0, 0.5]), half_extents=np.array([1.0, 2.0, 0.7]),
                     yaw=0.4, class_id=2)
        front = Box(center=np.array([7.0, -1.0, 0.0]), half_extents=np.array([1.0, 1.0, 1.0]),
                    yaw=0.2, class_id=3)
        ray_hit_classes(scene_of(behind, front), np.zeros(3), dirs)
        counts = dict(tested)
        assert counts[2] == 0
        assert 0 < counts[3] < len(dirs) // 4

    def test_origin_on_a_bounding_sphere(self, rng):
        # half extents (1, 2, 2) give a bounding radius of exactly 3.
        he = np.array([1.0, 2.0, 2.0])
        dirs = random_dirs(rng, 4000)
        for center in ([3.0, 0.0, 0.0], [1.0, 2.0, 2.0], [0.0, -3.0, 0.0],
                       [np.nextafter(3.0, 4.0), 0.0, 0.0], [1.0, 2.0, np.nextafter(2.0, 3.0)]):
            box = Box(center=np.array(center), half_extents=he, yaw=0.0, class_id=2)
            self.assert_same_as_full_cast(scene_of(box), np.zeros(3), dirs)
            rotated = Box(center=np.array(center), half_extents=he, yaw=0.7, class_id=3)
            self.assert_same_as_full_cast(scene_of(rotated), np.zeros(3), dirs)
        # At the corner of [1, 2, 2]: every ray into the box hits at t = 0.
        corner = Box(center=np.array([1.0, 2.0, 2.0]), half_extents=he, yaw=0.0, class_id=2)
        depth, _ = self.assert_same_as_full_cast(scene_of(corner), np.zeros(3), dirs)
        assert (depth[(dirs > 0).all(axis=1)] == 0.0).all()

    def test_rays_grazing_box_edges_and_corners(self):
        boxes = [
            Box(center=np.array([5.0, 0.0, 0.0]), half_extents=np.array([1.0, 1.0, 1.0]),
                yaw=0.0, class_id=2),
            Box(center=np.array([4.0, 3.0, -1.0]), half_extents=np.array([0.5, 1.5, 0.25]),
                yaw=0.6, class_id=3),
        ]
        o = np.array([0.0, 0.0, 0.0])
        signs = np.array(np.meshgrid([-1, 1], [-1, 1], [-1, 1])).reshape(3, -1).T
        for box in boxes:
            rot = box._yaw_rotation()
            corners = box.center + (signs * box.half_extents) @ rot.T
            # Points on each edge: midpoints of corner pairs differing in one axis.
            edges = [(corners[i] + corners[j]) / 2 for i in range(8) for j in range(i + 1, 8)
                     if np.count_nonzero(signs[i] != signs[j]) == 1]
            targets = np.vstack([corners, edges])
            dirs = targets - o
            nudged = [np.where(dirs == 0, 0.0, np.nextafter(dirs, dirs + s)) for s in (-1, 1)]
            all_dirs = np.vstack([dirs, *nudged])
            self.assert_same_as_full_cast(scene_of(box), o, all_dirs)
            self.assert_same_as_full_cast(scene_of(box), o, all_dirs / np.linalg.norm(
                all_dirs, axis=1, keepdims=True))

    def test_rays_tangent_to_the_bounding_sphere_at_a_corner(self, rng):
        # The ray from o through corner q runs along the sphere's tangent
        # plane at q: the edge of the bounding cone. The slab test may or
        # may not count the graze as a hit; the cull must keep the ray.
        found_hits = 0
        for _ in range(300):
            he = rng.uniform(0.3, 2.0, size=3)
            box = Box(center=rng.uniform(-2, 2, size=3), half_extents=he,
                      yaw=rng.uniform(-np.pi, np.pi), class_id=2)
            sign = rng.choice([-1.0, 1.0], size=3)
            q = box.center + (sign * he) @ box._yaw_rotation().T
            radial = q - box.center
            u = np.cross(radial, rng.standard_normal(3))
            o = q + rng.uniform(2.0, 20.0) * u / np.linalg.norm(u)
            dirs = (q - o)[None, :] * np.array([[1.0], [0.5], [3.0]])
            depth, _ = self.assert_same_as_full_cast(scene_of(box), o, dirs)
            found_hits += int(np.isfinite(depth).sum())
        assert found_hits > 0

    def test_axis_parallel_rays(self):
        axes = np.vstack([np.eye(3), -np.eye(3)])
        aligned = Box(center=np.array([4.0, 0.0, 0.0]), half_extents=np.array([1.0, 1.0, 1.0]),
                      yaw=0.0, class_id=2)
        rotated = Box(center=np.array([0.0, -5.0, 0.5]), half_extents=np.array([2.0, 1.0, 1.0]),
                      yaw=np.pi / 2, class_id=3)
        above = Box(center=np.array([0.5, 0.0, 6.0]), half_extents=np.array([0.5, 2.0, 1.0]),
                    yaw=0.0, class_id=4)
        scene = scene_of(aligned, rotated, above, ground_z=-2.0)
        # Origins inside slabs, on slab faces and outside them.
        for o in ([0.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.5], [3.0, 0.0, 0.0],
                  [0.0, -5.0, 0.5], [1.0, -4.0, 6.0]):
            self.assert_same_as_full_cast(scene, o, axes)
            self.assert_same_as_full_cast(scene, o, 7.5 * axes)
        depth, cls = ray_hit_classes(scene, np.zeros(3), axes)
        assert depth[0] == 3.0 and cls[0] == 2
        assert depth[5] == 2.0 and cls[5] == 1

    def test_non_unit_and_zero_directions(self, rng):
        scene = generate_scene(PipelineConfig(seed=5))
        dirs = random_dirs(rng, 3000) * 10.0 ** rng.uniform(-3, 3, size=(3000, 1))
        dirs[::97] = 0.0
        for o in (np.array([0.0, 0.0, 0.5]), scene.boxes[1].center):
            depth, _ = self.assert_same_as_full_cast(scene, o, dirs)
        # A zero direction from inside a box hits it at t = 0.
        assert (depth[::97] == 0.0).all()
        # Scaling a direction scales its along-ray depth.
        unit, _ = ray_hit_classes(scene, np.zeros(3), dirs[1:2] / np.linalg.norm(dirs[1]))
        scaled, _ = ray_hit_classes(scene, np.zeros(3), dirs[1:2])
        assert scaled[0] * np.linalg.norm(dirs[1]) == pytest.approx(unit[0], rel=1e-12)


def reduction_ray_hits(box, o, dirs):
    """Box.ray_hits with t_near and t_far taken by numpy's max and min
    reductions over the (n, 3) slab bounds."""
    rot = box._yaw_rotation()
    o_l = (o - box.center) @ rot
    d_l = dirs @ rot
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t1 = (-box.half_extents - o_l) / d_l
        t2 = (box.half_extents - o_l) / d_l
    t_lo = np.minimum(t1, t2)
    t_hi = np.maximum(t1, t2)
    par = d_l == 0.0
    inside_slab = np.broadcast_to(np.abs(o_l) <= box.half_extents, d_l.shape)
    t_lo[par] = np.where(inside_slab[par], -np.inf, np.inf)
    t_hi[par] = np.where(inside_slab[par], np.inf, -np.inf)
    t_near = t_lo.max(axis=1)
    t_far = t_hi.min(axis=1)
    hit = (t_near <= t_far) & (t_far > 0)
    return np.where(hit, np.where(t_near > 0, t_near, 0.0), np.inf)


def test_slab_bounds_equal_the_reductions(rng):
    """Box.ray_hits equals the reduction form bit for bit on random yawed
    boxes, for rays parallel to world and box axes, origins on a face and
    inside, and direction components of +-0 and subnormals."""
    axes = np.vstack([np.eye(3), -np.eye(3)])
    for trial in range(40):
        yaw = [0.0, np.pi / 2, -np.pi, rng.uniform(-np.pi, np.pi)][trial % 4]
        box = Box(center=rng.uniform(-5, 5, 3), half_extents=rng.uniform(0.1, 3.0, 3),
                  yaw=yaw, class_id=1)
        rot = box._yaw_rotation()
        dirs = np.vstack([random_dirs(rng, 200), axes, axes @ rot.T])
        odd = rng.choice([0.0, -0.0, 5e-324, -5e-324, 1e-310], size=dirs.shape)
        dirs = np.vstack([dirs, np.where(rng.random(dirs.shape) < 0.3, odd, dirs)])
        face = rng.integers(0, 3)
        local = rng.uniform(-1, 1, 3) * box.half_extents
        local[face] = box.half_extents[face] * rng.choice([-1.0, 1.0])
        for o in (box.center + rot @ local, box.center, rng.uniform(-12, 12, 3)):
            got = box.ray_hits(o, dirs)
            assert got.tobytes() == reduction_ray_hits(box, o, dirs).tobytes()


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_subnormal_direction_component_casts_like_zero(axis):
    # 1 / 5e-324 overflows to inf: the cast must neither warn nor differ from
    # the ray whose component is exactly 0.
    tiny = np.array([[1.0, 0.5, -0.25], [0.3, -1.0, 0.1], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    tiny[:, axis] = 5e-324
    zeroed = tiny.copy()
    zeroed[:, axis] = 0.0
    box = Box(center=np.array([0.0, 0.0, 0.0]), half_extents=np.array([1.0, 2.0, 0.75]),
              yaw=0.0, class_id=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for o in ([0.2, -0.3, 0.1], [5.0, 0.5, 0.2], [0.5, 6.0, -3.0], [0.0, 0.0, 0.5]):
            o = np.asarray(o)
            np.testing.assert_array_equal(box.ray_hits(o, tiny), box.ray_hits(o, zeroed))
            for scene in (generate_scene(PipelineConfig(seed=7)), scene_of(box, ground_z=-1.0)):
                for got, want in zip(ray_hit_classes(scene, o, tiny),
                                     ray_hit_classes(scene, o, zeroed)):
                    np.testing.assert_array_equal(got, want)


def random_camera(rng, height, width, focal):
    """A pinhole camera of `height` x `width` pixels with focal lengths near
    `focal` px, a principal point in or around the image and a random pose."""
    q = rng.standard_normal((1, 4))
    return CameraModel(
        fx=focal * rng.uniform(0.8, 1.25), fy=focal * rng.uniform(0.8, 1.25),
        cx=rng.uniform(-0.5, 1.5) * width, cy=rng.uniform(-0.5, 1.5) * height,
        height=height, width=width, rotation=quaternion_to_matrices(q / np.linalg.norm(q))[0],
        translation=rng.uniform(-3.0, 3.0, size=3),
    )


def scene_around(rng, cam):
    """Boxes ahead of, beside, behind and around the camera, one of whose
    bounding spheres (but not the box) holds its origin."""
    o, fwd = cam.origin, cam.rotation[:, 2]
    side = np.cross(fwd, rng.standard_normal(3))
    side /= np.linalg.norm(side)
    centers = [o + rng.uniform(2.0, 40.0) * fwd + rng.uniform(-6.0, 6.0) * side,
               o + rng.uniform(2.0, 40.0) * fwd + rng.uniform(-1.0, 1.0, size=3),
               o + rng.uniform(2.0, 10.0) * side,
               o - rng.uniform(2.0, 20.0) * fwd,
               o + rng.uniform(-0.3, 0.3, size=3)]
    boxes = [Box(center=c, half_extents=rng.uniform(0.2, 2.0, size=3),
                 yaw=rng.uniform(-np.pi, np.pi), class_id=int(rng.integers(2, 5)))
             for c in centers]
    # Half extents (1, 1, 1) around a center sqrt(2) < 1.2 < sqrt(3) from o
    # along x: o is inside the bounding sphere, outside the box.
    boxes.append(Box(center=o + np.array([1.2, 0.0, 0.0]), half_extents=np.ones(3),
                     yaw=0.0, class_id=3))
    order = rng.permutation(len(boxes))
    return scene_of(*(boxes[i] for i in order), ground_z=o[2] - rng.uniform(0.5, 3.0))


class TestTileCull:
    """With the pixel grid, ray_hit_classes tests each box's cone per pixel
    tile before per ray; it must keep the same rays, in the same order, as
    the per-ray test over every ray."""

    SIZES = [(1, 1), (16, 16), (17, 33), (40, 7), (64, 48), (23, 90)]
    FOCALS = [1.0, 3.0, 20.0, 150.0, 1000.0]

    def cameras(self, rng):
        for height, width in self.SIZES:
            for focal in self.FOCALS:
                yield random_camera(rng, height, width, focal)

    def test_grid_call_equals_the_call_without_it(self, rng, monkeypatch):
        tested = []
        full = Box.ray_hits

        def recorded(box, o, dirs):
            tested.append((box.class_id, dirs.tobytes()))
            return full(box, o, dirs)

        monkeypatch.setattr(Box, "ray_hits", recorded)
        hits = 0
        for cam in self.cameras(rng):
            scene, rays, grid = scene_around(rng, cam), cam.pixel_rays(), (cam.height, cam.width)
            for o in (cam.origin, cam.origin + rng.uniform(-0.2, 0.2, size=3)):
                tested.clear()
                want = ray_hit_classes(scene, o, rays)
                per_ray = list(tested)
                tested.clear()
                got = ray_hit_classes(scene, o, rays, grid)
                # Every box sees the same rays, in the same order.
                assert tested == per_ray
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
                hits += int((want[1] > 1).sum())
        assert hits > 1000  # the rays do reach boxes

    def test_corner_rays_bound_every_ray_of_a_tile(self, rng):
        guarded = bounded = 0
        for cam in self.cameras(rng):
            rays = cam.pixel_rays()
            tiles = synth._PixelTiles(rays, (cam.height, cam.width))
            rows, cols = np.divmod(np.arange(len(rays)), cam.width)
            tile = (rows // synth._TILE) * tiles.tiles[1] + cols // synth._TILE
            axes = tiles.axes[tile]
            # Accurate at small angles, unlike an arccos of the dot product.
            apart = np.arctan2(np.linalg.norm(np.cross(axes, rays), axis=1),
                               np.einsum("ij,ij->i", axes, rays))
            # The corners alone bound the tile, to a tenth of the slack.
            assert (apart <= tiles.half[tile] - synth._TILE_SLACK / 10).all()
            guarded += int(np.isinf(tiles.half).sum())
            bounded += int(np.isfinite(tiles.half).sum())
        # Small focal lengths put some tile corners 90 degrees or more apart.
        assert guarded > 0 and bounded > 0

    def test_tiles_spare_the_per_ray_test(self, rng, monkeypatch):
        counted = []
        norms = synth.row_norms

        def recorded(a):
            counted.append(len(a))
            return norms(a)

        cam = PipelineConfig(resolution=(96, 128), focal=64.0).cameras()[0]
        scene = generate_scene(PipelineConfig(seed=7))
        monkeypatch.setattr(synth, "row_norms", recorded)
        rays = cam.pixel_rays()
        ray_hit_classes(scene, cam.origin, rays)
        # Without a grid, one norms pass serves the per-ray test of every box.
        assert counted == [len(rays)]
        counted.clear()
        ray_hit_classes(scene, cam.origin, rays, (cam.height, cam.width))
        outside = sum(
            np.linalg.norm(b.center - cam.origin) > np.linalg.norm(b.half_extents)
            for b in scene.boxes
        )
        assert outside > 1
        assert sum(counted) < outside * len(rays) / 4

    def test_grid_must_hold_the_rays(self):
        rays = PipelineConfig().cameras()[0].pixel_rays()
        for grid in [(48, 63), (64, 48 + 1), (0, 0)]:
            with pytest.raises(ShapeError):
                ray_hit_classes(generate_scene(PipelineConfig()), np.zeros(3), rays, grid)
