"""Evaluation metrics: voxel IoU / mIoU, ray-level IoU (RayIoU, as in
SparseOcc), and the initialization-quality pair (occupied percentage, mean
distance to the nearest occupied voxel center).

RayIoU casts a ray through every stride-th pixel center of every camera and
marches all of them in lockstep through the predicted and ground-truth
grids: one Amanatides-Woo voxel traversal advances every active ray as rows
of (R, 3) arrays, and a ray leaves the active set once both grids have a
hit or it leaves the box. Per ray, the first non-empty hits are compared: a
per-class true positive requires matching classes and a hit-distance gap
within the threshold. TP/FP/FN are counted per class with np.bincount, and
the per-class IoUs are averaged in ascending class order. Voxels labeled
`unknown_id` are excluded from voxel metrics and are transparent to the ray
march.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np
from scipy.spatial import cKDTree

from .core import GaussianSet, OccupancyGrid
from .errors import ShapeError, UndefinedMetricError


def iou_miou(
    pred: np.ndarray,
    gt: np.ndarray,
    empty_id: int = 0,
    unknown_id: int | None = None,
):
    """Binary occupied-vs-empty IoU plus per-class IoU and their mean.

    Voxels where gt equals `unknown_id` are excluded. mIoU averages only
    classes present in gt; per-class values come back as {class: iou}.
    A union of zero (both grids empty) counts as perfect agreement.
    """
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ShapeError(f"pred {pred.shape} vs gt {gt.shape}")
    pred = pred.reshape(-1)
    gt = gt.reshape(-1)
    keep = np.ones(gt.shape, dtype=bool) if unknown_id is None else gt != unknown_id
    pred_occ = pred != empty_id
    gt_occ = gt != empty_id
    if unknown_id is not None:
        pred_occ &= pred != unknown_id
    inter = int(np.count_nonzero(pred_occ & gt_occ & keep))
    union = int(np.count_nonzero((pred_occ | gt_occ) & keep))
    iou = inter / union if union else 1.0
    per_class = {}
    for c in np.unique(gt[keep]):
        c = int(c)
        if c == empty_id or (unknown_id is not None and c == unknown_id):
            continue
        pc = (pred == c) & keep
        gc = (gt == c) & keep
        u = int(np.count_nonzero(pc | gc))
        per_class[c] = int(np.count_nonzero(pc & gc)) / u if u else 1.0
    miou = float(np.mean(list(per_class.values()))) if per_class else float("nan")
    return iou, miou, per_class


def first_hits(label_grids, origin, voxel_size, o, v, transparent):
    """First non-transparent voxel of every ray in each of several label grids.

    `label_grids` are G (X, Y, Z) label volumes sharing one geometry (min
    corner `origin`, cubic voxels of `voxel_size`); `o` and `v` are (R, 3)
    ray origins and directions; `transparent[g]` lists the labels the march
    passes through in grid g. All rays take Amanatides-Woo steps together;
    a ray leaves the active set once every grid has a hit or it leaves the
    box. Returns (inside, t, label): inside is (R,) bool, true for rays that
    meet the box; t (G, R) is the entry distance of the hit voxel (NaN for
    no hit) and label (G, R) its label (-1 for no hit).
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
    inside &= t0 <= t1

    ray = np.flatnonzero(inside)
    o, v, v_safe, moving, t1 = o[ray], v[ray], v_safe[ray], moving[ray], t1[ray]
    t_entry = t0[ray]
    p = o + t_entry[:, None] * v
    idx = np.clip(((p - lo) / voxel_size).astype(np.int64), 0, dims - 1)
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
            new = pending & ~np.isin(lab, list(transparent[g]))
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
    unknown_id: int | None = None,
):
    """Per-threshold ray-level IoU over rays from every camera through each
    stride-th pixel center. Returns {threshold: iou}."""
    if pred.dims != gt.dims or pred.voxel_size != gt.voxel_size or not np.array_equal(
        np.asarray(pred.origin), np.asarray(gt.origin)
    ):
        raise ShapeError("pred and gt grids must share geometry")
    unknown = set() if unknown_id is None else {unknown_id}
    origins, dirs = [np.empty((0, 3))], [np.empty((0, 3))]
    for cam in cams:
        rr, cc = np.meshgrid(
            np.arange(0, cam.height, stride), np.arange(0, cam.width, stride), indexing="ij"
        )
        dirs.append(cam.ray_directions(rr.ravel(), cc.ravel()))
        origins.append(np.broadcast_to(cam.origin, dirs[-1].shape))
    inside, t, lab = first_hits(
        [pred.labels, gt.labels],
        pred.origin,
        pred.voxel_size,
        np.concatenate(origins),
        np.concatenate(dirs),
        [{pred.empty_id} | unknown, {gt.empty_id} | unknown],
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


def occupied_voxel_centers(gt: OccupancyGrid, unknown_id: int | None = None) -> np.ndarray:
    occ = gt.labels != gt.empty_id
    if unknown_id is not None:
        occ &= gt.labels != unknown_id
    idx = np.argwhere(occ)
    return np.asarray(gt.origin) + (idx + 0.5) * gt.voxel_size


def init_quality(gs: GaussianSet, gt: OccupancyGrid, unknown_id: int | None = None):
    """(perc, dist) initialization quality against a ground-truth grid.

    perc: percentage of Gaussians whose containing gt voxel is non-empty
    (out-of-grid means count as unoccupied). dist: mean Euclidean distance
    from each mean to the nearest occupied voxel center (exact nearest-
    neighbor query over the occupied centers).
    """
    centers = occupied_voxel_centers(gt, unknown_id)
    if centers.shape[0] == 0:
        raise UndefinedMetricError("ground truth grid has no occupied voxel")
    if len(gs) == 0:
        raise UndefinedMetricError("no Gaussians to score")
    origin = np.asarray(gt.origin, dtype=np.float64)
    idx = np.floor((gs.means - origin) / gt.voxel_size).astype(np.int64)
    dims = np.asarray(gt.dims)
    inside = ((idx >= 0) & (idx < dims)).all(axis=1)
    occupied = np.zeros(len(gs), dtype=bool)
    ii = idx[inside]
    occ_mask = gt.labels != gt.empty_id
    if unknown_id is not None:
        occ_mask = occ_mask & (gt.labels != unknown_id)
    occupied[inside] = occ_mask[ii[:, 0], ii[:, 1], ii[:, 2]]
    perc = 100.0 * float(np.count_nonzero(occupied)) / len(gs)
    dist = float(cKDTree(centers).query(gs.means)[0].mean())
    return perc, dist


@dataclass(frozen=True)
class MetricReport:
    iou: float
    miou: float
    per_class_iou: dict
    rayiou: float | None = None
    rayiou_per_threshold: dict | None = None
    perc: float | None = None
    dist: float | None = None

    def to_json(self) -> str:
        doc = asdict(self)
        doc["per_class_iou"] = {str(k): v for k, v in self.per_class_iou.items()}
        if self.rayiou_per_threshold is not None:
            doc["rayiou_per_threshold"] = {
                str(k): v for k, v in self.rayiou_per_threshold.items()
            }
        return json.dumps(doc, sort_keys=True, indent=2)


def evaluate(
    pred: OccupancyGrid,
    gt: OccupancyGrid,
    cams: list | None = None,
    gaussians: GaussianSet | None = None,
    thresholds=(1.0, 2.0, 4.0),
    stride: int = 4,
    unknown_id: int | None = None,
) -> MetricReport:
    """Bundle every metric the grids/cameras/Gaussians allow into one report."""
    iou, miou, per_class = iou_miou(pred.labels, gt.labels, gt.empty_id, unknown_id)
    rayiou = ray_per = None
    if cams:
        ray_per = ray_iou(pred, gt, cams, thresholds=thresholds, stride=stride, unknown_id=unknown_id)
        rayiou = float(np.mean(list(ray_per.values())))
    perc = dist = None
    if gaussians is not None:
        perc, dist = init_quality(gaussians, gt, unknown_id)
    return MetricReport(
        iou=iou,
        miou=miou,
        per_class_iou=per_class,
        rayiou=rayiou,
        rayiou_per_threshold=ray_per,
        perc=perc,
        dist=dist,
    )
