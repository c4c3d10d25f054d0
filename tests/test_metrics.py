import dataclasses

import numpy as np
import pytest
from scipy.spatial import cKDTree

from gsocc.core import CameraModel, OccupancyGrid
from gsocc.errors import ConfigError, ShapeError, UndefinedMetricError
from gsocc.formats import read_occupancy
from gsocc.metrics import (
    _CHUNK,
    _nearest_occupied,
    camera_rays,
    evaluate,
    first_hits,
    init_quality,
    iou_miou,
    ray_iou,
)
from gsocc.pipeline import PipelineConfig, run_pipeline
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
                evaluate(p, empty, [cam], thresholds=(1.0, 2.0, 4.0), stride=4)


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


def lockstep_march_oracle(label_grids, origin, voxel_size, o, v):
    """The lockstep march first_hits ran before its bitmask grid, kept as the
    reference it must match bit for bit: per-ray state in (R, 3) rows, an
    argmin step, a gather from every grid, and the active rays compacted
    after every step. One change: a grid counts as hit once it has a hit
    (`found`), where the march took a negative label for no hit and let a
    later voxel overwrite it."""
    lo = np.asarray(origin, dtype=np.float64)
    dims = np.asarray(label_grids[0].shape)
    hi = lo + dims * voxel_size
    o = np.asarray(o, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    moving = v != 0.0
    v_safe = np.where(moving, v, 1.0)
    t0 = np.zeros(len(v))
    t1 = np.full(len(v), np.inf)
    inside = np.ones(len(v), dtype=bool)
    for a in range(3):
        ta = np.where(moving[:, a], (lo[a] - o[:, a]) / v_safe[:, a], -np.inf)
        tb = np.where(moving[:, a], (hi[a] - o[:, a]) / v_safe[:, a], np.inf)
        swap = ta > tb
        ta, tb = np.where(swap, tb, ta), np.where(swap, ta, tb)
        t0 = np.where(ta > t0, ta, t0)
        t1 = np.where(tb < t1, tb, t1)
        inside &= moving[:, a] | ((lo[a] <= o[:, a]) & (o[:, a] < hi[a]))
    inside &= t0 < t1

    ray = np.flatnonzero(inside)
    o, v, v_safe, moving, t1 = o[ray], v[ray], v_safe[ray], moving[ray], t1[ray]
    t_entry = t0[ray]
    q = (o + t_entry[:, None] * v - lo) / voxel_size
    idx = np.clip(np.where(v < 0, np.ceil(q) - 1, np.floor(q)), 0, dims - 1).astype(np.int64)
    step = np.sign(v).astype(np.int64)
    boundary = lo + (idx + (v > 0)) * voxel_size
    t_max = np.where(moving, (boundary - o) / v_safe, np.inf)
    t_delta = np.where(moving, voxel_size / np.abs(v_safe), np.inf)

    t_hit = np.full((len(label_grids), inside.size), np.nan)
    lab_hit = np.full(t_hit.shape, -1, dtype=np.int64)
    found = np.zeros(t_hit.shape, dtype=bool)
    while ray.size:
        done = np.ones(ray.size, dtype=bool)
        for g, labels in enumerate(label_grids):
            pending = ~found[g, ray]
            lab = labels[idx[:, 0], idx[:, 1], idx[:, 2]]
            new = pending & (lab != 0)
            found[g, ray[new]] = True
            lab_hit[g, ray[new]] = lab[new]
            t_hit[g, ray[new]] = t_entry[new]
            done &= new | ~pending
        rows = np.arange(ray.size)
        axis = np.argmin(t_max, axis=1)
        t_entry = t_max[rows, axis]
        nxt = idx[rows, axis] + step[rows, axis]
        # A finite entry excludes a zero direction, which would never move.
        keep = ~done & (t_entry <= t1) & np.isfinite(t_entry) & (0 <= nxt) & (nxt < dims[axis])
        idx[rows, axis] = nxt
        t_max[rows, axis] += t_delta[rows, axis]
        ray, idx, step, t_max, t_delta, t1, t_entry = (
            x[keep] for x in (ray, idx, step, t_max, t_delta, t1, t_entry)
        )
    return inside, t_hit, lab_hit


def assert_march_bitwise(label_grids, origin, voxel_size, o, v):
    """first_hits equals lockstep_march_oracle bit for bit: inside, t (as
    uint64 views, so signed zeros count) and label. Returns first_hits'
    result. The oracle overflows to inf for tiny direction components and
    says so; first_hits must not."""
    got = first_hits(label_grids, origin, voxel_size, o, v)
    with np.errstate(over="ignore", invalid="ignore"):
        want = lockstep_march_oracle(label_grids, origin, voxel_size, o, v)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1].view(np.uint64), want[1].view(np.uint64))
    assert np.array_equal(got[2], want[2])
    return got


def random_label_grids(rng, dims, n_grids, dtype):
    """`n_grids` grids of `dims` with about a third of the voxels non-empty,
    their labels drawn over the whole nonzero range of `dtype`."""
    lo, hi = (1, 256) if dtype == np.uint8 else (-128, 128) if dtype == np.int8 else (-2**40, 2**40)
    grids = []
    for _ in range(n_grids):
        labels = rng.integers(lo, hi, size=dims)
        labels[labels == 0] = 1
        grids.append(np.where(rng.random(dims) < 0.35, labels, 0).astype(dtype))
    return grids


def random_march_rays(rng, origin, voxel_size, dims, n):
    """(o, v) of `n` rays: origins inside and outside the box, on voxel
    planes (some axes) and on voxel corners (all axes), a few an ulp off a
    plane; directions drawn at random, on the lattice (exact ties at voxel
    edges and corners), along an axis, with zero, subnormal and tiny
    components, and a few aimed past a box edge so that they only touch it."""
    extent = np.asarray(dims) * voxel_size
    o = origin + rng.uniform(-1.0, 2.0, size=(n, 3)) * extent
    kind = rng.integers(0, 4, size=n)
    o[kind == 0] = origin + rng.uniform(0.0, 1.0, size=(np.count_nonzero(kind == 0), 3)) * extent
    lattice = origin + voxel_size * rng.integers(-2, np.asarray(dims) + 3, size=(n, 3))
    on_plane = ((kind == 2)[:, None] & (rng.random((n, 3)) < 0.5)) | (kind == 3)[:, None]
    o = np.where(on_plane, lattice, o)
    off = rng.random((n, 3)) < 0.05
    o[off] = np.nextafter(o[off], rng.choice([-np.inf, np.inf], size=np.count_nonzero(off)))

    v = rng.normal(size=(n, 3))
    dkind = rng.integers(0, 4, size=n)
    v[dkind == 1] = rng.integers(-2, 3, size=(np.count_nonzero(dkind == 1), 3))
    axes = np.flatnonzero(dkind == 2)
    sign = rng.choice([-1.0, 1.0], size=(axes.size, 1))
    v[axes] = np.eye(3)[rng.integers(0, 3, size=axes.size)] * sign
    v[rng.random((n, 3)) < 0.15] = 0.0
    tiny = rng.random((n, 3)) < 0.06
    v[tiny] = rng.choice([5e-324, -5e-324, -2.5e-320, 1e-310, 1e-300, -1e-305],
                         size=np.count_nonzero(tiny))
    # Past an edge: from outside, through a point of a z-parallel box edge,
    # in the xy direction that keeps to the outside of both of its faces.
    touch = rng.random(n) < 0.05
    corner = origin + extent * rng.integers(0, 2, size=(np.count_nonzero(touch), 3))
    corner[:, 2] = origin[2] + rng.uniform(0.0, 1.0, size=len(corner)) * extent[2]
    side = np.where(corner[:, :2] > origin[:2], 1.0, -1.0)
    d = np.zeros((len(corner), 3))
    d[:, 0] = rng.choice([-1.0, 1.0], size=len(corner))
    d[:, 1] = -d[:, 0] * side[:, 0] * side[:, 1]
    o[touch], v[touch] = corner - 0.5 * voxel_size * d, d
    return o, v


class TestBitmaskMarch:
    """first_hits against lockstep_march_oracle, bit for bit."""

    def test_rays_that_never_move_record_only_their_start_cell(self):
        """A ray whose direction components are all zero or subnormal has
        an exit distance of inf and reaches its next voxel plane at inf: it
        records its start cell and stops there."""
        labels = np.ones((5, 3, 3), dtype=np.uint8)
        labels[2, 1, 1] = 0
        o = np.array([[2.5, 1.5, 1.5], [2.5, 1.5, 1.5], [0.5, 0.5, 0.5]])
        v = np.array([[5e-324, 0.0, 0.0], [-1e-310, 0.0, -5e-324], [2.5e-320, 0.0, 0.0]])
        inside, t, lab = assert_march_bitwise([labels, labels[::-1]], np.zeros(3), 1.0, o, v)
        assert inside.all() and list(lab[0]) == [-1, -1, 1] and t[0, 2] == 0.0
        still = np.zeros((2, 3))
        inside, t, lab = assert_march_bitwise([labels], np.zeros(3), 1.0, o[:2], still)
        assert inside.all() and list(lab[0]) == [-1, -1]

    def test_first_plane_behind_the_origin_at_minus_inf_ends_the_ray(self):
        """An origin just past voxel plane 124 whose voxel coordinate rounds
        below 124 starts in cell 123, with that plane 1.8e-15 behind it. With
        a subnormal x component the plane is at -inf: the ray ends after its
        start cell and records nothing in cell 124."""
        origin, voxel_size = np.array([-36.243100771282236, 0.0, 0.0]), 1 / 3
        labels = np.zeros((126, 2, 2), dtype=np.uint8)
        labels[124:] = 2
        o = np.array([[5.090232562051093, 0.5 * voxel_size, 0.5 * voxel_size]] * 2)
        v = np.array([[5e-324, 0.0, 1.0], [5e-324, 0.0, 0.0]])
        assert np.floor((o[0, 0] - origin[0]) / voxel_size) == 123
        assert origin[0] + 124 * voxel_size < o[0, 0]
        inside, _, lab = assert_march_bitwise([labels, labels], origin, voxel_size, o, v)
        assert inside.all() and (lab == -1).all()

    @pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.int64])
    @pytest.mark.parametrize("n_grids", [1, 2, 7])
    def test_random_rays_match_the_lockstep_march(self, n_grids, dtype):
        rng = np.random.default_rng(1000 * n_grids + np.dtype(dtype).num)
        hits = missed = ties = 0
        for case in range(30):
            dims = tuple(int(d) for d in rng.integers(1, 8, size=3))
            voxel_size = float(rng.choice([0.25, 0.5, 1.0, 0.3]))
            if case % 3:
                origin = voxel_size * rng.integers(-4, 5, size=3).astype(np.float64)
            else:
                origin = rng.uniform(-3.0, 3.0, size=3)
            grids = random_label_grids(rng, dims, n_grids, dtype)
            o, v = random_march_rays(rng, origin, voxel_size, dims, 80)
            inside, t, lab = assert_march_bitwise(grids, origin, voxel_size, o, v)
            hits += int(np.count_nonzero(lab >= 0))
            missed += int(np.count_nonzero(~inside))
            ties += int(np.count_nonzero(np.abs(v[:, 0]) == np.abs(v[:, 1])))
        assert hits > 0 and missed > 0 and ties > 0

    def test_default_pipeline_grids_and_rig_rays(self, tmp_path):
        """The default config's pred.occ and gt.occ, marched by the rays of
        its stride-4 rig, as ray_iou marches them."""
        config = PipelineConfig.from_dict({"seed": 7, "out_dir": str(tmp_path)})
        run_pipeline(config)
        pred = read_occupancy(tmp_path / "pred.occ", config.num_classes)
        gt = read_occupancy(tmp_path / "gt.occ", config.num_classes)
        o, v = camera_rays(config.cameras(), 4)
        grids = [pred.labels, gt.labels]
        _, _, lab = assert_march_bitwise(grids, pred.origin, pred.voxel_size, o, v)
        assert (lab >= 0).all(axis=0).sum() > len(v) // 2

    def test_negative_label_is_a_hit_in_every_grid(self):
        """A negative label is a hit like any other non-empty one, also while
        the ray marches on for another grid: a later voxel of that grid does
        not overwrite it."""
        first = np.zeros((4, 1, 1), dtype=np.int8)
        first[3] = 5
        second = np.array([-7, 0, -3, 0], dtype=np.int8).reshape(4, 1, 1)
        o, v = np.array([[0.5, 0.5, 0.5]]), np.array([[1.0, 0.0, 0.0]])
        _, t, lab = assert_march_bitwise([first, second], np.zeros(3), 1.0, o, v)
        assert lab[:, 0].tolist() == [5, -7] and t[:, 0].tolist() == [2.5, 0.0]

    @pytest.mark.parametrize("second", [(8, 8, 8), (2, 2, 2), (4, 4, 5), (4, 4)])
    def test_grids_of_another_shape_rejected(self, second):
        # A larger second grid used to be read as its sub-block, a smaller
        # one to raise a bare IndexError.
        first = np.zeros((4, 4, 4), dtype=np.uint8)
        first[3, 3, 3] = 1
        o, v = np.array([[0.5, 0.5, 0.5]]), np.array([[1.0, 1.0, 1.0]])
        with pytest.raises(ShapeError, match="shape"):
            first_hits([first, np.full(second, 2, dtype=np.uint8)], np.zeros(3), 1.0, o, v)

    @pytest.mark.parametrize("bad", [(0, 1, np.nan), (0, 0, np.nan), (1, 2, np.inf), (1, 0, -np.inf)])
    def test_non_finite_ray_rejected(self, bad):
        # A NaN direction used to pass the slab test as inside, and its start
        # cell wrapped to a real voxel or the ring: every ray read as a miss.
        which, axis, value = bad
        labels = np.ones((64, 64, 16), dtype=np.uint8)
        rays = [np.array([[0.5, 0.5, 0.5]] * 2), np.array([[1.0, 0.5, 0.25]] * 2)]
        rays[which][1, axis] = value
        with pytest.raises(ValueError, match="finite"):
            first_hits([labels, labels], np.zeros(3), 1.0, *rays)

    def test_ray_iou_rejects_a_camera_with_nan_focal_length(self):
        scene = TestRayIoU()
        gt = scene.make_scene_grid()
        with pytest.raises(ValueError, match="finite"):
            cams = [dataclasses.replace(cam, fx=np.nan) for cam in scene.cams()]
            ray_iou(gt, gt, cams, thresholds=(1.0, 2.0, 4.0), stride=4)

    @pytest.mark.parametrize("n_grids", [0, 8])
    def test_one_to_seven_grids(self, n_grids):
        grids = [np.ones((2, 2, 2), dtype=np.uint8)] * n_grids
        o, v = np.array([[0.5, 0.5, 0.5]]), np.array([[1.0, 0.0, 0.0]])
        with pytest.raises(ShapeError, match="1 to 7 grids"):
            first_hits(grids, np.zeros(3), 1.0, o, v)


class TestRaySampling:
    """ray_iou and evaluate take the stride and thresholds PipelineConfig
    takes, and reject the rest with its ConfigError."""

    CASES = {
        "stride-0": ({"stride": 0}, {"ray_stride": 0}),
        "stride-negative": ({"stride": -1}, {"ray_stride": -1}),
        "no-threshold": ({"thresholds": ()}, {"ray_thresholds": []}),
        "threshold-zero": ({"thresholds": (1.0, 0.0)}, {"ray_thresholds": [1.0, 0.0]}),
        "threshold-negative": ({"thresholds": (-2.0,)}, {"ray_thresholds": [-2.0]}),
        "threshold-nan": ({"thresholds": (np.nan,)}, None),
        "threshold-inf": ({"thresholds": (1.0, np.inf)}, None),
    }

    @pytest.mark.parametrize("score", ["ray_iou", "evaluate"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejected_as_the_config_rejects_it(self, case, score):
        kwargs, field = self.CASES[case]
        kwargs = {"thresholds": (1.0, 2.0, 4.0), "stride": 4, **kwargs}
        scene = TestRayIoU()
        gt = scene.make_scene_grid()
        with pytest.raises(ConfigError) as got:
            {"ray_iou": ray_iou, "evaluate": evaluate}[score](gt, gt, scene.cams(), **kwargs)
        if field is not None:
            with pytest.raises(ConfigError) as want:
                PipelineConfig.from_dict(field)
            assert str(got.value) == str(want.value)
        else:
            assert str(got.value) == "ray_thresholds must be finite positive meters"


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
    """The own-voxel route, the block search and the tree agree bit for bit,
    per mean and in the mean; returns how many means lie in an occupied
    voxel."""
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
    """The own-voxel route and the block search of Dist. return the KD-tree's
    distances exactly."""

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


def test_sparse_grid_sends_uncertified_means_to_the_tree(rng, monkeypatch):
    """On a sparse grid, many means have no occupied voxel within their
    27-voxel block: the tree answers them, and the block search the others,
    bit for bit as one full tree query."""
    import scipy.spatial

    labels = np.zeros((40, 40, 12), dtype=np.uint8)
    labels[[3, 20, 21, 35, 9], [4, 20, 22, 30, 37], [1, 6, 6, 10, 0]] = [1, 2, 2, 3, 1]
    grid = grid_of(labels, origin=(-10.3, 7.9, -2.2), voxel_size=0.5)
    centers = grid.origin + (np.argwhere(labels != 0) + 0.5) * grid.voxel_size
    # Means around each occupied center, up to 5 voxels away, on and next to
    # voxel faces, and means anywhere over the grid and one voxel around it.
    near = centers[rng.integers(0, len(centers), 3000)] + rng.uniform(-2.5, 2.5, (3000, 3))
    face = grid.origin + np.round((near - grid.origin) / 0.5) * 0.5
    near = np.where(rng.integers(0, 2, near.shape) == 1, np.nextafter(face, np.inf), near)
    means = np.concatenate([near, lattice_means(rng, grid, 3000)])
    queried = []

    class CountingTree(scipy.spatial.cKDTree):
        def query(self, x, *args, **kwargs):
            queried.append(len(x))
            return super().query(x, *args, **kwargs)

    monkeypatch.setattr(scipy.spatial, "cKDTree", CountingTree)
    inside = assert_matches_tree(means, grid)
    # One tree query per call; the tree answered some means, and fewer than
    # lie outside an occupied voxel, so the block search certified others.
    assert len(queried) == 2 and 0 < queried[0] < len(means) - inside
