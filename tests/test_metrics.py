import dataclasses

import numpy as np
import pytest
from scipy.spatial import cKDTree

from gsocc.core import CameraModel, OccupancyGrid
from gsocc.errors import ShapeError, UndefinedMetricError
from gsocc.metrics import (
    _CHUNK,
    _nearest_occupied,
    evaluate,
    first_hits,
    init_quality,
    iou_miou,
    ray_iou,
)
from gsocc.synth import look_rotation

from conftest import random_gaussian_set


def grid_of(labels, origin=(0.0, 0.0, 0.0), voxel_size=1.0):
    labels = np.asarray(labels, dtype=np.uint8)
    return OccupancyGrid(origin=np.asarray(origin, dtype=np.float64), voxel_size=voxel_size,
                         labels=labels)


def iou_set_oracle(pred, gt):
    """Set-arithmetic IoU: indices as python sets."""
    pred = pred.reshape(-1)
    gt = gt.reshape(-1)
    p_occ = {i for i in range(pred.size) if pred[i] != 0}
    g_occ = {i for i in range(gt.size) if gt[i] != 0}
    binary = len(p_occ & g_occ) / len(p_occ | g_occ)
    per_class = {}
    for c in set(int(gt[i]) for i in g_occ):
        pc = {i for i in range(pred.size) if pred[i] == c}
        gc = {i for i in g_occ if gt[i] == c}
        per_class[c] = len(pc & gc) / len(pc | gc)
    return binary, sum(per_class.values()) / len(per_class), per_class


def first_hit_enumeration_oracle(grid, o, v):
    """Independent first-hit: slab-test every voxel whose label is not 0,
    min entry t. A voxel whose slab interval ends at t1 <= 0 lies behind the
    origin, or the origin only touches it, so the ray does not enter it."""
    best = None
    occ = np.argwhere(grid.labels != 0)
    for idx in occ:
        lo = np.asarray(grid.origin) + idx * grid.voxel_size
        hi = lo + grid.voxel_size
        t0, t1 = 0.0, np.inf
        ok = True
        for a in range(3):
            if v[a] == 0:
                if not (lo[a] <= o[a] < hi[a]):
                    ok = False
                    break
            else:
                ta, tb = (lo[a] - o[a]) / v[a], (hi[a] - o[a]) / v[a]
                if ta > tb:
                    ta, tb = tb, ta
                t0, t1 = max(t0, ta), min(t1, tb)
        if not ok or t0 > t1 or t1 <= 0:
            continue
        if best is None or t0 < best[0]:
            best = (t0, int(grid.labels[tuple(idx)]))
    return best


class TestIoU:
    def test_identity(self, rng):
        labels = rng.integers(0, 4, size=(6, 6, 3)).astype(np.uint8)
        iou, miou, _ = iou_miou(labels, labels)
        assert iou == 1.0 and miou == 1.0

    def test_empty_pred_against_occupied_gt(self):
        gt = np.zeros((4, 4, 2), dtype=np.uint8)
        gt[1, 1, 1] = 2
        iou, miou, per_class = iou_miou(np.zeros_like(gt), gt)
        assert iou == 0.0 and miou == 0.0 and per_class == {2: 0.0}

    def test_random_grids_match_set_oracle(self, rng):
        for _ in range(10):
            pred = rng.integers(0, 5, size=(8, 8, 8)).astype(np.uint8)
            gt = rng.integers(0, 5, size=(8, 8, 8)).astype(np.uint8)
            got = iou_miou(pred, gt)
            want = iou_set_oracle(pred, gt)
            assert got[0] == want[0]
            assert got[1] == pytest.approx(want[1], abs=1e-12)
            assert got[2] == pytest.approx(want[2])

    def test_binary_iou_symmetric(self, rng):
        pred = rng.integers(0, 3, size=(5, 5, 5)).astype(np.uint8)
        gt = rng.integers(0, 3, size=(5, 5, 5)).astype(np.uint8)
        assert iou_miou(pred, gt)[0] == iou_miou(gt, pred)[0]

    def test_dim_mismatch_raises(self):
        with pytest.raises(ShapeError):
            iou_miou(np.zeros((2, 2, 2)), np.zeros((2, 2, 3)))

    def test_gt_without_occupied_voxel_raises(self):
        # mIoU would average no class and come out NaN.
        empty = grid_of(np.zeros((4, 4, 4)))
        pred = grid_of(np.ones((4, 4, 4)))
        cam = forward_camera((0.1, 2.0, 2.0))
        for p in (empty, pred):
            with pytest.raises(UndefinedMetricError, match="no occupied voxel"):
                evaluate(p, empty, [cam])


def ray_iou_oracle(pred, gt, cams, taus, stride):
    """Ray IoU from enumeration-oracle first hits, tallied in per-class dicts."""
    hits = []
    for cam in cams:
        rows, cols = np.meshgrid(np.arange(0, cam.height, stride),
                                 np.arange(0, cam.width, stride), indexing="ij")
        for r, c in zip(rows.ravel(), cols.ravel()):
            v = cam.ray_directions(np.array([r]), np.array([c]))[0]
            hits.append(
                (first_hit_enumeration_oracle(pred, cam.origin, v),
                 first_hit_enumeration_oracle(gt, cam.origin, v))
            )
    out = {}
    for tau in taus:
        tp, fp, fn = {}, {}, {}
        for hp, hg in hits:
            if hp is None and hg is None:
                continue
            if hp and hg and hp[1] == hg[1] and abs(hp[0] - hg[0]) <= tau:
                tp[hg[1]] = tp.get(hg[1], 0) + 1
                continue
            if hg:
                fn[hg[1]] = fn.get(hg[1], 0) + 1
            if hp:
                fp[hp[1]] = fp.get(hp[1], 0) + 1
        classes = sorted(set(tp) | set(fp) | set(fn))
        out[tau] = np.mean(
            [tp.get(c, 0) / (tp.get(c, 0) + fp.get(c, 0) + fn.get(c, 0)) for c in classes]
        )
    return out


def forward_camera(origin, yaw_deg=0.0, pitch_deg=0.0, size=(8, 8), focal=6.0):
    yaw = np.deg2rad(yaw_deg)
    pitch = np.deg2rad(pitch_deg)
    f = np.array([np.cos(yaw) * np.cos(pitch), np.sin(yaw) * np.cos(pitch), -np.sin(pitch)])
    h, w = size
    return CameraModel(fx=focal, fy=focal, cx=w / 2, cy=h / 2, height=h, width=w,
                       rotation=look_rotation(f), translation=np.asarray(origin, dtype=np.float64))


class TestRayIoU:
    def make_scene_grid(self):
        labels = np.zeros((8, 8, 8), dtype=np.uint8)
        labels[6, 3:5, 3:5] = 1   # wall ahead
        labels[5, 1, 2] = 2
        labels[4, 6, 5] = 3
        labels[7, 7, 6] = 2
        return grid_of(labels, origin=(0, 0, 0), voxel_size=1.0)

    def cams(self):
        return [forward_camera((0.37, 4.03, 4.11), yaw_deg=1.5)]

    def test_identical_grids_score_one(self):
        gt = self.make_scene_grid()
        per = ray_iou(gt, gt, self.cams(), thresholds=(1.0, 2.0, 4.0), stride=2)
        assert all(v == 1.0 for v in per.values())

    def test_empty_prediction_scores_zero(self):
        gt = self.make_scene_grid()
        pred = grid_of(np.zeros((8, 8, 8), dtype=np.uint8))
        per = ray_iou(pred, gt, self.cams(), thresholds=(2.0,), stride=2)
        assert per[2.0] == 0.0

    def test_matches_enumeration_oracle(self, rng):
        gt = self.make_scene_grid()
        pred_labels = gt.labels.copy()
        pred_labels[6, 3, 3] = 0      # drop part of the wall
        pred_labels[5, 3:5, 3:5] = 1  # and hallucinate it one voxel closer
        pred_labels[4, 6, 5] = 2      # wrong class
        pred = grid_of(pred_labels)
        cam = self.cams()[0]
        stride, taus = 2, (0.5, 1.0, 2.0)
        got = ray_iou(pred, gt, [cam], thresholds=taus, stride=stride)
        expect = ray_iou_oracle(pred, gt, [cam], taus, stride)
        for tau in taus:
            assert got[tau] == pytest.approx(expect[tau], abs=0)

    def test_two_cameras_match_enumeration_oracle(self):
        gt = self.make_scene_grid()
        pred_labels = gt.labels.copy()
        pred_labels[6, 4, 4] = 2      # wrong class in the wall
        pred_labels[2, 5:7, 2:5] = 3  # hallucinated block
        pred_labels[4, 6, 5] = 0      # missed box
        pred = grid_of(pred_labels)
        cams = self.cams() + [forward_camera((7.63, 4.41, 3.87), yaw_deg=183.0, pitch_deg=4.0)]
        stride, taus = 2, (0.5, 1.0, 2.0)
        got = ray_iou(pred, gt, cams, thresholds=taus, stride=stride)
        expect = ray_iou_oracle(pred, gt, cams, taus, stride)
        assert got == {tau: pytest.approx(expect[tau], abs=0) for tau in taus}
        assert got != ray_iou(pred, gt, cams[:1], thresholds=taus, stride=stride)

    def test_monotone_in_threshold(self):
        gt = self.make_scene_grid()
        pred_labels = np.zeros_like(gt.labels)
        pred_labels[4, 3:5, 3:5] = 1  # wall two voxels closer than gt
        pred = grid_of(pred_labels)
        per = ray_iou(pred, gt, self.cams(), thresholds=(0.5, 1.0, 2.0, 4.0), stride=2)
        vals = [per[t] for t in (0.5, 1.0, 2.0, 4.0)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_no_ray_hits_grid_raises(self):
        gt = self.make_scene_grid()
        away = forward_camera((50.0, 50.0, 50.0), yaw_deg=0.0)
        with pytest.raises(UndefinedMetricError):
            ray_iou(gt, gt, [away], thresholds=(1.0,), stride=4)

    def test_first_hits_axis_ray(self):
        gt = self.make_scene_grid()
        o = np.array([[0.5, 3.5, 3.5]])
        v = np.array([[1.0, 0.0, 0.0]])
        inside, t, lab = first_hits([gt.labels], gt.origin, gt.voxel_size, o, v)
        # first non-empty voxel along +x at row (3,3) is x-index 6, entered at t = 5.5
        assert inside[0] and (t[0, 0], lab[0, 0]) == (5.5, 1)

    def test_first_hits_match_enumeration_oracle(self, rng):
        """Random small grids and rays, origins inside and outside the box,
        zero and axis-aligned direction components, two grids marched
        together: per ray and grid the march agrees with the oracle."""
        compared = hit = missed_box = started_inside = 0
        for _ in range(40):
            dims = tuple(int(d) for d in rng.integers(2, 9, size=3))
            voxel_size = float(rng.choice([0.25, 0.3, 0.5, 1.0]))
            origin = rng.uniform(-2.0, 2.0, size=3)
            extent = np.asarray(dims) * voxel_size
            grids = [
                grid_of(np.where(rng.random(dims) < 0.12, rng.integers(1, 4, size=dims), 0),
                        origin, voxel_size)
                for _ in range(2)
            ]
            o = origin + rng.uniform(-0.5, 1.5, size=(30, 3)) * extent
            v = origin + rng.uniform(0.0, 1.0, size=(30, 3)) * extent - o
            v[rng.random(30) < 0.2] = rng.normal(size=3)  # some rays aim anywhere
            v[rng.random((30, 3)) < 0.2] = 0.0
            v[:5] = np.eye(3)[rng.integers(0, 3, size=5)] * rng.choice([-1.0, 1.0], size=(5, 1))
            v[~v.any(axis=1), 2] = -1.0
            inside, t, lab = first_hits([g.labels for g in grids], origin, voxel_size, o, v)
            missed_box += int(np.count_nonzero(~inside))
            started_inside += int(np.count_nonzero(((o > origin) & (o < origin + extent)).all(1)))
            for r in range(len(o)):
                for g, grid in enumerate(grids):
                    want = first_hit_enumeration_oracle(grid, o[r], v[r])
                    compared += 1
                    if want is None:
                        assert lab[g, r] == -1 and np.isnan(t[g, r])
                    else:
                        hit += 1
                        assert inside[r] and lab[g, r] == want[1]
                        assert abs(t[g, r] - want[0]) <= 1e-9
        assert 0 < hit < compared and missed_box > 0 and started_inside > 0

    def test_first_hits_from_voxel_corners_match_enumeration_oracle(self):
        """Ray origins on voxel corners, inside and outside the box, with
        zero direction components: the march starts in the cell the ray
        enters, and a ray that only touches a voxel at its origin does not
        hit it."""
        rng = np.random.default_rng(20261019)
        hit = 0
        for _ in range(200):
            dims = tuple(int(d) for d in rng.integers(2, 7, size=3))
            voxel_size = float(rng.choice([0.25, 0.5, 1.0]))
            origin = voxel_size * rng.integers(-4, 5, size=3)
            grid = grid_of(np.where(rng.random(dims) < 0.15, rng.integers(1, 4, size=dims), 0),
                           origin, voxel_size)
            o = origin + voxel_size * rng.integers(-1, np.asarray(dims) + 2, size=(30, 3))
            v = rng.normal(size=(30, 3))
            v[rng.random((30, 3)) < 0.2] = 0.0
            v[~v.any(axis=1), 2] = -1.0
            _, t, lab = first_hits([grid.labels], origin, voxel_size, o, v)
            for r in range(len(o)):
                want = first_hit_enumeration_oracle(grid, o[r], v[r])
                if want is None:
                    assert lab[0, r] == -1 and np.isnan(t[0, r])
                else:
                    hit += 1
                    assert lab[0, r] == want[1] and abs(t[0, r] - want[0]) <= 1e-9
        assert 0 < hit < 6000

    def test_first_hits_depend_on_transparency_not_label_values(self, rng):
        """Shifting every non-empty label by the same amount (to negative
        labels below the no-hit value -1, to int8's lowest values, to uint8
        labels up to 255) while 0 stays empty shifts the hit labels and
        changes nothing else."""
        dims, origin, voxel_size = (6, 5, 4), np.zeros(3), 0.5
        base = (rng.random(dims) < 0.3) * rng.integers(1, 4, size=dims)
        o = rng.uniform(-0.5, 3.5, size=(200, 3))
        v = rng.normal(size=(200, 3))
        want_in, want_t, want_lab = first_hits([base], origin, voxel_size, o, v)
        assert (want_lab >= 0).any()
        for shift, dtype in ((-5, np.int64), (-129, np.int8), (252, np.uint8)):
            labels = np.where(base > 0, base + shift, 0).astype(dtype)
            inside, t, lab = first_hits([labels], origin, voxel_size, o, v)
            assert np.array_equal(inside, want_in)
            assert np.array_equal(t, want_t, equal_nan=True)
            assert np.array_equal(lab, np.where(want_lab >= 0, want_lab + shift, -1))

class TestInitQuality:
    def test_center_placed_gaussians(self, rng):
        labels = np.zeros((6, 6, 4), dtype=np.uint8)
        occupied = [(1, 2, 3), (4, 4, 1), (0, 0, 0)]
        for idx in occupied:
            labels[idx] = 2
        grid = grid_of(labels, origin=(-1.0, -1.0, 0.0), voxel_size=0.5)
        gs = random_gaussian_set(rng, len(occupied))
        import dataclasses
        centers = np.array([grid.origin + (np.array(i) + 0.5) * 0.5 for i in occupied])
        gs = dataclasses.replace(gs, means=centers)
        perc, dist = init_quality(gs, grid)
        assert perc == 100.0
        assert dist == 0.0

    def test_single_gaussian_one_pitch_away(self, rng):
        labels = np.zeros((6, 6, 4), dtype=np.uint8)
        labels[2, 2, 1] = 1
        grid = grid_of(labels, origin=(0.0, 0.0, 0.0), voxel_size=0.5)
        center = grid.origin + (np.array([2, 2, 1]) + 0.5) * 0.5
        import dataclasses
        gs = dataclasses.replace(random_gaussian_set(rng, 1),
                                 means=(center + [0.5, 0.0, 0.0])[None, :])
        perc, dist = init_quality(gs, grid)
        assert dist == pytest.approx(0.5, abs=1e-12)
        assert perc == 0.0

    def test_matches_bruteforce_nearest_search(self, rng):
        labels = (rng.random((32, 32, 16)) < 0.02).astype(np.uint8) * 3
        if labels.sum() == 0:
            labels[5, 5, 5] = 3
        grid = grid_of(labels, origin=(-8.0, -8.0, -4.0), voxel_size=0.5)
        gs = random_gaussian_set(rng, 1000, lo=(-9, -9, -5), hi=(9, 9, 5))
        perc, dist = init_quality(gs, grid)

        centers = grid.origin + (np.argwhere(labels != 0) + 0.5) * 0.5
        d_all = np.linalg.norm(gs.means[:, None, :] - centers[None, :, :], axis=2)
        brute_dist = d_all.min(axis=1).mean()
        assert dist == pytest.approx(brute_dist, abs=1e-6)

        idx = np.floor((gs.means - grid.origin) / 0.5).astype(int)
        inside = ((idx >= 0) & (idx < np.array(grid.dims))).all(axis=1)
        occ = np.zeros(len(gs), dtype=bool)
        occ[inside] = labels[idx[inside, 0], idx[inside, 1], idx[inside, 2]] != 0
        assert perc == 100.0 * occ.sum() / len(gs)

    def test_fully_empty_gt_raises(self, rng):
        grid = grid_of(np.zeros((4, 4, 4), dtype=np.uint8))
        with pytest.raises(UndefinedMetricError):
            init_quality(random_gaussian_set(rng, 5), grid)


def lattice_means(rng, grid, n, f32=False):
    """n means over the grid and one voxel around it. Each component is
    random, on a voxel face plane, or one ulp above or below that plane, so
    means lie on faces, edges and corners and just off them."""
    vs = grid.voxel_size
    lo = grid.origin - vs
    hi = grid.origin + (np.asarray(grid.dims) + 1) * vs
    m = rng.uniform(lo, hi, size=(n, 3))
    face = grid.origin + np.round((m - grid.origin) / vs) * vs
    pick = rng.integers(0, 4, size=(n, 3))
    m = np.where(pick == 1, face, m)
    m = np.where(pick == 2, np.nextafter(face, np.inf), m)
    m = np.where(pick == 3, np.nextafter(face, -np.inf), m)
    return m.astype(np.float32).astype(np.float64) if f32 else m


def assert_matches_tree(means, grid):
    """The own-voxel route and the tree agree bit for bit, per mean and in
    the mean; returns how many means lie in an occupied voxel."""
    occ = grid.labels != 0
    centers = grid.origin + (np.argwhere(occ) + 0.5) * grid.voxel_size
    want = cKDTree(centers).query(means)[0]  # the full tree query
    occupied, got = _nearest_occupied(means, grid, occ)
    np.testing.assert_array_equal(got, want)
    gs = dataclasses.replace(random_gaussian_set(np.random.default_rng(0), len(means)), means=means)
    perc, dist = init_quality(gs, grid)
    assert dist == want.mean()
    assert perc == 100.0 * np.count_nonzero(occupied) / len(means)
    return int(np.count_nonzero(occupied))


class TestOwnVoxelRoute:
    """The own-voxel route of Dist. returns the KD-tree's distances exactly."""

    @pytest.mark.parametrize("voxel_size", [0.3, 1 / 3, 0.5, 0.1])
    @pytest.mark.parametrize(
        "origin", [(0.0, 0.0, 0.0), (-16.3, -16.3, -4.1), (1000.1, -2000.7, 50.3)]
    )
    @pytest.mark.parametrize("f32", [False, True])
    def test_lattice_means_match_tree(self, rng, voxel_size, origin, f32):
        for density in (0.05, 0.3, 0.8):
            labels = (rng.random((7, 6, 5)) < density).astype(np.uint8) * 2
            labels[3, 3, 2] = 2
            grid = grid_of(labels, origin=origin, voxel_size=voxel_size)
            own = assert_matches_tree(lattice_means(rng, grid, 3000, f32), grid)
            assert 0 < own < 3000

    def test_boundary_voxels_whose_near_neighbour_is_outside(self, rng):
        labels = np.zeros((5, 5, 5), dtype=np.uint8)
        labels[[0, -1], :, :] = labels[:, [0, -1], :] = labels[:, :, [0, -1]] = 1
        grid = grid_of(labels, origin=(-16.3, 3.1, 1000.1), voxel_size=1 / 3)
        # Offsets toward the outside of the grid from each boundary center.
        q = np.argwhere(labels == 1)[rng.integers(0, np.count_nonzero(labels), 3000)]
        outward = np.where(q == 0, -1.0, np.where(q == 4, 1.0, 0.0))
        sign = np.where(outward == 0, rng.choice([-1, 1], q.shape), outward)
        off = rng.uniform(0.0, 0.5, size=q.shape) * sign
        means = grid.origin + (q + 0.5 + off) * grid.voxel_size
        assert assert_matches_tree(means, grid) > 2000

    def test_single_occupied_voxel(self, rng):
        labels = np.zeros((4, 5, 3), dtype=np.uint8)
        labels[1, 4, 0] = 2
        grid = grid_of(labels, origin=(7.7, -3.3, 0.1), voxel_size=0.3)
        assert assert_matches_tree(lattice_means(rng, grid, 3000, f32=True), grid) > 0

    def test_fully_occupied_grid(self, rng):
        labels = np.ones((6, 4, 3), dtype=np.uint8)
        grid = grid_of(labels, origin=(-1.9, 2.2, -0.4), voxel_size=1 / 3)
        means = lattice_means(rng, grid, 3000)
        occupied, _ = _nearest_occupied(means, grid, grid.labels == 1)
        idx = np.floor((means - grid.origin) / grid.voxel_size)
        assert np.array_equal(occupied, ((idx >= 0) & (idx < grid.dims)).all(axis=1))
        assert assert_matches_tree(means, grid) == np.count_nonzero(occupied) > 500

    def test_more_means_than_one_pass(self, rng):
        labels = (rng.random((16, 16, 8)) < 0.9).astype(np.uint8) * 3
        grid = grid_of(labels, origin=(-8.1, -8.1, -4.1), voxel_size=0.3)
        means = lattice_means(rng, grid, 3 * _CHUNK + 123, f32=True)
        assert assert_matches_tree(means, grid) > _CHUNK

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_mean_goes_to_the_tree(self, rng, bad):
        grid = grid_of(np.ones((4, 4, 4), dtype=np.uint8))
        gs = random_gaussian_set(rng, 3)
        means = np.array([[0.5, 0.5, 0.5], [bad, 1.0, 1.0], [2.5, 1.5, 0.5]])
        with pytest.raises(ValueError, match="finite"):
            init_quality(dataclasses.replace(gs, means=means), grid)

