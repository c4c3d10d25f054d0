"""Evaluation metrics: voxel IoU / mIoU, ray-level IoU (RayIoU, as in
SparseOcc), and the initialization-quality pair (occupied percentage, mean
distance to the nearest occupied voxel center).

RayIoU casts a ray through every stride-th pixel center of every camera and
marches all of them in lockstep through the predicted and ground-truth
grids: one Amanatides-Woo voxel traversal advances every active ray as rows
of (R, 3) arrays, and a ray leaves the active set once both grids have a
hit or it leaves the box. A ray starts in the cell it enters, so an origin
on a voxel plane starts on the side the ray moves to, and a ray that only
touches the box hits nothing. Per ray, the first non-empty hits are compared: a
per-class true positive requires matching classes and a hit-distance gap
within the threshold. TP/FP/FN are counted per class with np.bincount, and
the per-class IoUs are averaged in ascending class order.

Perc./Dist. find each mean's gt voxel by floor. The voxels are the Voronoi
cells of their center lattice, so a mean in an occupied voxel is nearest
to its own center unless the floor put it on the wrong side of a face by
rounding. A mean in an occupied voxel that is no nearer, per axis, to the
neighbour center on its side than to its own takes the distance to its
own center, computed with the KD-tree's center values and distance
formula, so the result is bitwise the tree's; the KD-tree answers every
other mean.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .core import OccupancyGrid
from .errors import ShapeError, UndefinedMetricError


def iou_miou(pred: np.ndarray, gt: np.ndarray):
    """Binary occupied-vs-empty IoU plus per-class IoU and their mean; label
    0 is empty.

    mIoU averages the classes present in gt; per-class values come back as
    {class: iou}. Raises UndefinedMetricError when gt has no occupied
    voxel, since mIoU then averages no class.
    """
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ShapeError(f"pred {pred.shape} vs gt {gt.shape}")
    pred = pred.reshape(-1)
    gt = gt.reshape(-1)
    pred_occ = pred != 0
    gt_occ = gt != 0
    if not gt_occ.any():
        raise UndefinedMetricError("ground truth grid has no occupied voxel")
    iou = int(np.count_nonzero(pred_occ & gt_occ)) / int(np.count_nonzero(pred_occ | gt_occ))
    per_class = {}
    for c in np.unique(gt[gt_occ]):
        pc = pred == c
        gc = gt == c
        per_class[int(c)] = int(np.count_nonzero(pc & gc)) / int(np.count_nonzero(pc | gc))
    return iou, float(np.mean(list(per_class.values()))), per_class


def first_hits(label_grids, origin, voxel_size, o, v):
    """First non-empty voxel of every ray in each of several label grids.

    `label_grids` are G (X, Y, Z) label volumes sharing one geometry (min
    corner `origin`, cubic voxels of `voxel_size`); `o` and `v` are (R, 3)
    ray origins and directions; the march passes through the voxels
    labelled 0. All rays take Amanatides-Woo steps together;
    a ray leaves the active set once every grid has a hit or it leaves the
    box. Returns (inside, t, label): inside is (R,) bool, true for rays that
    run a positive length through the box (t0 < t1 in the slab test; a ray
    that only touches it, at its origin or elsewhere, hits nothing); t (G, R)
    is the entry distance of the hit voxel (NaN for no hit) and label (G, R)
    its label (-1 for no hit). The march starts in the cell the ray enters:
    per axis, with q the entry point in voxel units, floor(q) for a
    direction component >= 0 and ceil(q) - 1 for a negative one, clipped to
    the grid.
    """
    lo = np.asarray(origin, dtype=np.float64)
    dims = np.asarray(label_grids[0].shape)
    hi = lo + dims * voxel_size
    o = np.asarray(o, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    moving = v != 0.0
    v_safe = np.where(moving, v, 1.0)
    # Slab test: [t0, t1] is the part of the ray inside the box. np.where
    # rather than minimum/maximum keeps the earlier value on ties (signed
    # zeros), so hit distances are bitwise stable.
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
    # The start cell is the one the ray enters: on a voxel plane, the cell
    # below it for a negative direction component.
    q = (o + t_entry[:, None] * v - lo) / voxel_size
    idx = np.clip(np.where(v < 0, np.ceil(q) - 1, np.floor(q)), 0, dims - 1).astype(np.int64)
    step = np.sign(v).astype(np.int64)
    boundary = lo + (idx + (v > 0)) * voxel_size
    t_max = np.where(moving, (boundary - o) / v_safe, np.inf)
    t_delta = np.where(moving, voxel_size / np.abs(v_safe), np.inf)

    t_hit = np.full((len(label_grids), inside.size), np.nan)
    lab_hit = np.full(t_hit.shape, -1, dtype=np.int64)
    while ray.size:
        done = np.ones(ray.size, dtype=bool)
        for g, labels in enumerate(label_grids):
            pending = lab_hit[g, ray] < 0
            lab = labels[idx[:, 0], idx[:, 1], idx[:, 2]]
            new = pending & (lab != 0)
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


def ray_iou(
    pred: OccupancyGrid,
    gt: OccupancyGrid,
    cams: list,
    thresholds=(1.0, 2.0, 4.0),
    stride: int = 4,
):
    """Per-threshold ray-level IoU over rays from every camera through each
    stride-th pixel center. Returns {threshold: iou}."""
    if pred.dims != gt.dims or pred.voxel_size != gt.voxel_size or not np.array_equal(
        np.asarray(pred.origin), np.asarray(gt.origin)
    ):
        raise ShapeError("pred and gt grids must share geometry")
    dirs = [cam.pixel_rays(stride) for cam in cams]
    origins = [np.broadcast_to(cam.origin, d.shape) for cam, d in zip(cams, dirs)]
    inside, t, lab = first_hits(
        [pred.labels, gt.labels],
        pred.origin,
        pred.voxel_size,
        np.concatenate([np.empty((0, 3)), *origins]),
        np.concatenate([np.empty((0, 3)), *dirs]),
    )
    if not inside.any():
        raise UndefinedMetricError("no rays intersect the grid")
    hit_p, hit_g = lab >= 0
    n = int(lab.max()) + 1
    out = {}
    for tau in thresholds:
        tp = hit_g & (lab[0] == lab[1]) & (np.abs(t[0] - t[1]) <= tau)
        tp_c = np.bincount(lab[1, tp], minlength=n)
        total = tp_c + np.bincount(lab[1, hit_g & ~tp], minlength=n)
        total += np.bincount(lab[0, hit_p & ~tp], minlength=n)
        classes = np.flatnonzero(total)
        out[float(tau)] = float(np.mean(tp_c[classes] / total[classes])) if classes.size else 1.0
    return out


# Means per pass of the own-voxel route; keeps its temporaries in cache.
_CHUNK = 1 << 14


def _nearest_occupied(means: np.ndarray, gt: OccupancyGrid, occ: np.ndarray):
    """(occupied, dist) of (P, 3) `means` against the voxels of `gt` that the
    (X, Y, Z) bool mask `occ` marks occupied.

    occupied (P,) tells whether a mean's containing voxel (by floor) is
    occupied; dist (P,) is its distance to the nearest occupied voxel
    center, bitwise what `cKDTree(centers).query(means)[0]` returns. A mean
    in an occupied voxel whose own center is nearest takes the own-voxel
    route (see `init_quality`); every other mean is queried in the KD-tree.
    """
    origin = np.asarray(gt.origin, dtype=np.float64)
    vs = gt.voxel_size
    dims = np.asarray(gt.dims)
    # Occupancy and center coordinates with two empty voxels around the
    # grid. An out-of-grid or NaN mean is clipped onto the inner ring, which
    # reads as empty, and its neighbour indices stay in the padded arrays;
    # the tree query answers it (and rejects a non-finite one).
    flat = np.pad(occ, 2).ravel()
    strides = np.array([(dims[1] + 4) * (dims[2] + 4), dims[2] + 4, 1])
    centers = [origin[a] + (np.arange(-2, dims[a] + 2) + 0.5) * vs for a in range(3)]
    occupied = np.empty(len(means), dtype=bool)
    own = np.empty(len(means), dtype=bool)
    dist = np.empty(len(means))
    for lo in range(0, len(means), _CHUNK):
        chunk = slice(lo, lo + _CHUNK)
        p = np.ascontiguousarray(means[chunk].T)
        k = np.floor((p - origin[:, None]) / vs)
        k = (np.fmin(np.fmax(k, -1), dims[:, None]) + 2).astype(np.intp)
        occupied[chunk] = flat[(k[0] * strides[0] + k[1] * strides[1]) + k[2]]
        own[chunk] = occupied[chunk]
        # Per axis: the squared offset to the own center, which must be at
        # most the one to the neighbour center on the mean's side.
        sq = []
        for a in range(3):
            d = p[a] - centers[a][k[a]]
            e = p[a] - centers[a][k[a] + np.where(d >= 0, 1, -1)]
            sq.append(d * d)
            own[chunk] &= e * e >= sq[a]
        # cKDTree's sum (dx*dx + dy*dy) + dz*dz.
        np.sqrt((sq[0] + sq[1]) + sq[2], out=dist[chunk])
    rest = ~own
    if rest.any():
        from scipy.spatial import cKDTree

        tree = cKDTree(origin + (np.argwhere(occ) + 0.5) * vs)
        dist[rest] = tree.query(means[rest])[0]
    return occupied, dist


def init_quality(gs, gt: OccupancyGrid):
    """(perc, dist) initialization quality of the means of `gs` (a
    GaussianSet or a formats.GaussianFile) against a ground-truth grid.

    perc: percentage of Gaussians whose containing gt voxel is non-empty
    (out-of-grid means count as unoccupied). dist: mean Euclidean distance
    from each mean to the nearest occupied voxel center, exact.

    The voxels are the Voronoi cells of their center lattice. For a mean p
    in voxel q with offset d = p - c_q (|d_a| <= s/2 up to the rounding of
    the floor, far below s^2; s the voxel size), any center outside the
    2x2x2 block of q and its neighbours on the side of d (per axis the sign
    of d_a, + at 0) is farther from p than c_q by at least s^2 in squared
    distance. Each other center of the block differs from c_q on some axes,
    where its squared offset is e_a*e_a, e = p - (the neighbour center),
    in place of d_a*d_a. When q is occupied and e_a*e_a >= d_a*d_a on every
    axis, the squared distance to every block center, summed as the tree
    does, is at least the own one, since rounded addition is monotone; so
    the own center is the nearest occupied one, bit for bit. Its distance
    uses the tree's centers origin + (idx + 0.5) * voxel_size and
    cKDTree's own formula sqrt((dx*dx + dy*dy) + dz*dz), so it equals the
    tree query. Only a mean the floor put on the wrong side of a face by
    rounding fails the test; it goes to the KD-tree with every mean outside
    an occupied voxel. Both routes fill one (P,) array in input order, so
    the mean sums the same values in the same order as one full tree
    query.
    """
    occ = gt.labels != 0
    if not occ.any():
        raise UndefinedMetricError("ground truth grid has no occupied voxel")
    if len(gs) == 0:
        raise UndefinedMetricError("no Gaussians to score")
    occupied, dist = _nearest_occupied(gs.means, gt, occ)
    perc = 100.0 * float(np.count_nonzero(occupied)) / len(gs)
    return perc, float(dist.mean())


@dataclass(frozen=True)
class MetricReport:
    iou: float
    miou: float
    per_class_iou: dict
    rayiou: float
    rayiou_per_threshold: dict
    perc: float | None = None
    dist: float | None = None

    def to_json(self) -> str:
        doc = asdict(self)
        doc["per_class_iou"] = {str(k): v for k, v in self.per_class_iou.items()}
        doc["rayiou_per_threshold"] = {str(k): v for k, v in self.rayiou_per_threshold.items()}
        return json.dumps(doc, sort_keys=True, indent=2)


def evaluate(
    pred: OccupancyGrid,
    gt: OccupancyGrid,
    cams: list,
    gaussians=None,
    thresholds=(1.0, 2.0, 4.0),
    stride: int = 4,
) -> MetricReport:
    """IoU, mIoU and RayIoU of `pred` against `gt` in one report, plus
    Perc./Dist. of the means of `gaussians` when it is given. Raises
    UndefinedMetricError when `gt` has no occupied voxel."""
    iou, miou, per_class = iou_miou(pred.labels, gt.labels)
    ray_per = ray_iou(pred, gt, cams, thresholds=thresholds, stride=stride)
    rayiou = float(np.mean(list(ray_per.values())))
    perc = dist = None
    if gaussians is not None:
        perc, dist = init_quality(gaussians, gt)
    return MetricReport(
        iou=iou,
        miou=miou,
        per_class_iou=per_class,
        rayiou=rayiou,
        rayiou_per_threshold=ray_per,
        perc=perc,
        dist=dist,
    )
