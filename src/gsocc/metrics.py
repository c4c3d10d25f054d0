"""Evaluation metrics: voxel IoU / mIoU, ray-level IoU (RayIoU, as in
SparseOcc), and the initialization-quality pair (occupied percentage, mean
distance to the nearest occupied voxel center).

RayIoU casts a ray through every stride-th pixel center of every camera and
marches all of them in lockstep through the predicted and ground-truth
grids (`first_hits`): one Amanatides-Woo voxel traversal advances every ray
as (3, R) rows of state, crossing the nearest voxel plane with ties taken x
before y before z. The grids are read through one padded uint8 bitmask,
one bit per grid (up to 7) and a STOP bit on the ring of cells around the
box, so a step reads one byte per ray by flat index. A ray is dead once
both grids have a hit, it reads STOP, or its next entry lies beyond its
exit; dead rays are compacted away only once fewer than half the rays are
live. A ray starts in the cell it enters, so an origin on a voxel plane
starts on the side the ray moves to, and a ray that only touches the box
hits nothing. Per ray, the first non-empty hits are compared: a per-class
true positive requires matching classes and a hit-distance gap within the
threshold. TP/FP/FN are counted per class with np.bincount, and the
per-class IoUs are averaged in ascending class order. The stride and
thresholds follow PipelineConfig's rules (`check_ray_sampling`).

Perc./Dist. find each mean's gt voxel by floor. The voxels are the Voronoi
cells of their center lattice, so a mean in an occupied voxel is nearest
to its own center unless the floor put it on the wrong side of a face by
rounding. A mean in an occupied voxel that is no nearer, per axis, to the
neighbour center on its side than to its own takes the distance to its
own center. Every other mean searches the 27 voxels around its voxel
(clamped onto the grid) and takes the least distance to their occupied
centers when no center outside the block can be nearer. Both use the
centers and the distance formula of cKDTree(centers).query, so every
distance is bitwise the tree's; the rare mean that its block does not
certify, a non-finite one included, is queried in a KD-tree, and
scipy.spatial is imported only then.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import OccupancyGrid
from .errors import ConfigError, ShapeError, UndefinedMetricError, entries_error


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


# Bit of the padded bitmask grid of first_hits that marks the ring of cells
# around the box; bits 0-6 mark the non-empty voxels of up to 7 grids.
_STOP = 0x80
_MAX_GRIDS = 7


def first_hits(label_grids, origin, voxel_size, o, v):
    """First non-empty voxel of every ray in each of several label grids.

    `label_grids` are G (X, Y, Z) label volumes sharing one geometry (min
    corner `origin`, cubic voxels of `voxel_size`); `o` and `v` are (R, 3)
    ray origins and directions; the march passes through the voxels
    labelled 0. Returns (inside, t, label): inside is (R,) bool, true for
    rays that run a positive length through the box (t0 < t1 in the slab
    test; a ray that only touches it, at its origin or elsewhere, hits
    nothing); t (G, R) is the entry distance of the hit voxel (NaN for no
    hit) and label (G, R) its label (-1 for no hit). The march starts in the
    cell the ray enters: per axis, with q the entry point in voxel units,
    floor(q) for a direction component >= 0 and ceil(q) - 1 for a negative
    one, clipped to the grid. Raises ShapeError unless there are 1 to 7
    grids of one (X, Y, Z) shape, and ValueError for a non-finite ray.

    All rays take Amanatides-Woo steps together, with their state kept as
    (3, R) rows. The grids are read through one (X+2, Y+2, Z+2) uint8
    bitmask: bit g is set where grid g is non-zero, and the one-voxel ring
    around the box holds only the STOP bit. Each step reads one byte per
    ray by flat index; a ray that steps out of the box reads STOP on its
    next step and is dropped before it records anything. Labels are read
    from the grids themselves, in the step of the hit and only for the rays
    that hit. A step crosses the nearest voxel plane, x before y before z on
    ties (argmin's order). A ray's pending bits are the grids it has yet to
    hit plus STOP; the ray is dead once they are zero: every grid hit, the
    box left, or its next entry beyond its exit t1 (a ray that never moves
    included). Dead rays keep stepping, but record nothing, until fewer than
    half the rays are live; then the state is compacted to the live ones.
    """
    if not 1 <= len(label_grids) <= _MAX_GRIDS:
        raise ShapeError(f"first_hits takes 1 to {_MAX_GRIDS} grids, got {len(label_grids)}")
    shape = np.shape(label_grids[0])
    if len(shape) != 3 or any(np.shape(g) != shape for g in label_grids):
        raise ShapeError(
            f"label grids must share one (X, Y, Z) shape, got {[np.shape(g) for g in label_grids]}"
        )
    lo = np.asarray(origin, dtype=np.float64)
    dims = np.asarray(shape)
    hi = lo + dims * voxel_size
    # Rays as (3, R) rows of origins and directions.
    o = np.ascontiguousarray(np.asarray(o, dtype=np.float64).T)
    v = np.ascontiguousarray(np.asarray(v, dtype=np.float64).T)
    if not (np.isfinite(o).all() and np.isfinite(v).all()):
        raise ValueError("ray origins and directions must be finite")
    moving = v != 0.0
    v_safe = np.where(moving, v, 1.0)
    # Slab test: [t0, t1] is the part of the ray inside the box. np.where
    # rather than minimum/maximum keeps the earlier value on ties (signed
    # zeros), so hit distances are bitwise stable. A tiny direction
    # component puts a plane distance at inf (or -inf), which is what it is.
    t0 = np.zeros(v.shape[1])
    t1 = np.full(v.shape[1], np.inf)
    inside = np.ones(v.shape[1], dtype=bool)
    for a in range(3):
        with np.errstate(over="ignore"):
            ta = np.where(moving[a], (lo[a] - o[a]) / v_safe[a], -np.inf)
            tb = np.where(moving[a], (hi[a] - o[a]) / v_safe[a], np.inf)
        swap = ta > tb
        ta, tb = np.where(swap, tb, ta), np.where(swap, ta, tb)
        t0 = np.where(ta > t0, ta, t0)
        t1 = np.where(tb < t1, tb, t1)
        inside &= moving[a] | ((lo[a] <= o[a]) & (o[a] < hi[a]))
    inside &= t0 < t1

    ray = np.flatnonzero(inside)
    o, v, v_safe, moving = o[:, ray], v[:, ray], v_safe[:, ray], moving[:, ray]
    te = t0[ray]
    # The start cell is the one the ray enters: on a voxel plane, the cell
    # below it for a negative direction component.
    lo, top = lo[:, None], dims[:, None] - 1
    q = (o + te * v - lo) / voxel_size
    idx = np.clip(np.where(v < 0, np.ceil(q) - 1, np.floor(q)), 0, top).astype(np.int64)
    boundary = lo + (idx + (v > 0)) * voxel_size
    padded = tuple(dims + 2)
    strides = np.array([padded[1] * padded[2], padded[2], 1])
    # Float rows: t_max (3), t_delta (3), t1; int rows: the flat step per
    # axis (3), the flat index, the ray number. A finite t1 makes te <= t1
    # false for te = inf, a ray that does not move.
    fl = np.empty((7, ray.size))
    with np.errstate(over="ignore"):
        fl[0:3] = np.where(moving, (boundary - o) / v_safe, np.inf)
        fl[3:6] = np.where(moving, voxel_size / np.abs(v_safe), np.inf)
    fl[6] = np.minimum(t1[ray], np.finfo(np.float64).max)
    # A first t_max of -inf (a subnormal direction component) ends the ray
    # after its start cell: te <= NaN is false.
    fl[6, np.isneginf(fl[0:3]).any(axis=0)] = np.nan
    it = np.empty((5, ray.size), dtype=np.int64)
    it[0:3] = np.sign(v).astype(np.int64) * strides[:, None]
    it[3] = strides @ (idx + 1)
    it[4] = ray
    del o, v, v_safe, moving, q, idx, boundary, t0, t1  # only fl and it march on

    bits = np.full(padded, _STOP, dtype=np.uint8)
    inner = bits[1:-1, 1:-1, 1:-1]
    np.not_equal(label_grids[0], 0, out=inner.view(bool))
    for g, labels in enumerate(label_grids[1:], 1):
        inner |= (np.asarray(labels) != 0).view(np.uint8) << g
    pend = np.full(ray.size, _STOP | ((1 << len(label_grids)) - 1), dtype=np.uint8)

    t_hit = np.full((len(label_grids), inside.size), np.nan)
    lab_hit = np.full(t_hit.shape, -1, dtype=np.int64)
    live = ray.size
    while live:
        if 2 * live < pend.size:
            keep = np.flatnonzero(pend)
            fl, it, pend, te = fl[:, keep], it[:, keep], pend[keep], te[keep]
        t_max, t_delta, t_exit = fl[0:3], fl[3:6], fl[6]
        fstep, flat, ray = it[0:3], it[3], it[4]
        new = bits.take(flat, mode="clip")
        new &= pend
        pend ^= new
        hit = np.flatnonzero(new & (_STOP - 1))
        if hit.size:
            got, r, t_in = new[hit], ray[hit], te[hit]
            cell = [i - 1 for i in np.unravel_index(flat[hit], padded)]
            for g, labels in enumerate(label_grids):
                sel = np.flatnonzero(got & (1 << g))
                lab_hit[g, r[sel]] = labels[cell[0][sel], cell[1][sel], cell[2][sel]]
                t_hit[g, r[sel]] = t_in[sel]
        # Cross the nearest plane; ties go to x, then y (argmin's order).
        # A dead ray's t_max may overflow, or turn NaN after a first t_max
        # of -inf; no live ray's value does that where the lockstep march
        # did not.
        with np.errstate(over="ignore", invalid="ignore"):
            y_first = t_max[1] < t_max[0]
            te = np.where(y_first, t_max[1], t_max[0])
            z_first = t_max[2] < te
            te = np.where(z_first, t_max[2], te)
            y_first &= ~z_first
            x_first = ~(y_first | z_first)
            for a, mask in enumerate((x_first, y_first, z_first)):
                t_max[a] = np.where(mask, t_max[a] + t_delta[a], t_max[a])
        flat += fstep[0] * x_first + fstep[1] * y_first + fstep[2] * z_first
        pend *= (pend > _STOP) & (te <= t_exit)
        live = np.count_nonzero(pend)
    return inside, t_hit, lab_hit


def check_ray_sampling(thresholds, stride) -> None:
    """Raise ConfigError unless `stride` is at least 1 and `thresholds` hold
    at least one distance, each finite and positive: PipelineConfig's rules
    for ray_stride and ray_thresholds, in its words. PipelineConfig checks
    the count and finiteness of its tuples first, so those two checks here
    serve the direct callers, ray_iou and evaluate."""
    if stride < 1:
        raise ConfigError("ray_stride must be >= 1")
    if len(thresholds) == 0:
        raise entries_error("ray_thresholds", None, 0)
    if not all(t > 0 and math.isfinite(t) for t in thresholds):
        raise ConfigError("ray_thresholds must be finite positive meters")


def camera_rays(cams, stride: int):
    """(o, v): the (R, 3) origins and directions of the rays that ray_iou
    casts, through every stride-th pixel center of each camera in turn."""
    dirs = [cam.pixel_rays(stride) for cam in cams]
    origins = [np.broadcast_to(cam.origin, d.shape) for cam, d in zip(cams, dirs)]
    return np.concatenate([np.empty((0, 3)), *origins]), np.concatenate([np.empty((0, 3)), *dirs])


def ray_iou(
    pred: OccupancyGrid,
    gt: OccupancyGrid,
    cams: list,
    thresholds,
    stride: int,
):
    """Per-threshold ray-level IoU over rays from every camera through each
    stride-th pixel center. Returns {threshold: iou}. Raises ConfigError for
    a stride or thresholds that PipelineConfig would reject."""
    check_ray_sampling(thresholds, stride)
    if pred.dims != gt.dims or pred.voxel_size != gt.voxel_size or not np.array_equal(
        np.asarray(pred.origin), np.asarray(gt.origin)
    ):
        raise ShapeError("pred and gt grids must share geometry")
    inside, t, lab = first_hits(
        [pred.labels, gt.labels], pred.origin, pred.voxel_size, *camera_rays(cams, stride)
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

# Means per pass of the block search, which holds about 280 bytes per mean.
# Passes of _CHUNK means were not measurably faster on the dense-rig init
# means, and they raised the metrics stage's tracemalloc peak on a 192x256
# dense rig by 3 MiB, above the sample stage's.
_BLOCK_CHUNK = 1 << 12

# Voxel offsets of the 27-voxel block around a mean's clamped voxel.
_OFFS = np.arange(-1, 2)


def _block_search(p, q, occ_flat, strides, centers, dims):
    """(dist, ok) for the (3, n) widened means `p` whose clamped voxels
    have the (3, n) padded indices `q`: ok marks the means whose 27-voxel
    block certifies its least distance over the occupied centers, dist
    holds that distance (not meaningful where ok is False).

    The block certifies its least squared distance when that is at most a
    lower bound on the squared distance of every center outside it (see
    `init_quality`)."""
    # Per axis: the (3, n) squared offsets to the block's centers; the
    # squared offset to the grid's first or last center for a mean beyond
    # it, else 0, a bound for every center on that axis; and the squared
    # offset to the nearest center beyond the block (inf where the grid
    # ends first), a bound for every center outside the block on that axis.
    # The grid's voxels have the padded indices 2 .. dims + 1.
    sq, edge, out = [], [], []
    for a in range(3):
        d = p[a] - centers[a][q[a] + _OFFS[:, None]]
        sq.append(d * d)
        first, last = centers[a][2], centers[a][dims[a] + 1]
        g = np.maximum(np.maximum(first - p[a], p[a] - last), 0.0)
        edge.append(g * g)
        below = np.where(q[a] > 3, p[a] - centers[a][q[a] - 2], np.inf)
        above = np.where(q[a] < dims[a], centers[a][q[a] + 2] - p[a], np.inf)
        e = np.maximum(np.minimum(below, above), 0.0)
        out.append(e * e)
    # cKDTree's sum (dx*dx + dy*dy) + dz*dz over the block's occupied cells.
    best = np.full(p.shape[1], np.inf)
    base = (q[0] * strides[0] + q[1] * strides[1]) + q[2]
    for i in range(3):
        for j in range(3):
            sxy = sq[0][i] + sq[1][j]
            row = base + (_OFFS[i] * strides[0] + _OFFS[j] * strides[1])
            for k in range(3):
                np.minimum(best, sxy + sq[2][k], out=best, where=occ_flat[row + _OFFS[k]])
    bound = np.minimum(
        np.minimum((out[0] + edge[1]) + edge[2], (edge[0] + out[1]) + edge[2]),
        (edge[0] + edge[1]) + out[2],
    )
    # Only a finite least value is certified: a block with no occupied
    # center has none, even where no center lies outside it, and neither
    # has a non-finite mean.
    ok = (best <= bound) & (best < np.inf)
    return np.sqrt(best), ok


def _nearest_occupied(means: np.ndarray, gt: OccupancyGrid, occ: np.ndarray):
    """(occupied, dist) of (P, 3) `means` against the voxels of `gt` that the
    (X, Y, Z) bool mask `occ` marks occupied.

    occupied (P,) tells whether a mean's containing voxel (by floor) is
    occupied; dist (P,) is its distance to the nearest occupied voxel
    center, bitwise what `cKDTree(centers).query(means)[0]` returns. A mean
    in an occupied voxel whose own center is nearest takes the own-voxel
    route, every other mean the block search (see `init_quality`); a mean
    that its block does not certify is queried in a KD-tree.
    """
    origin = np.asarray(gt.origin, dtype=np.float64)
    vs = gt.voxel_size
    dims = np.asarray(gt.dims)
    # Occupancy and center coordinates with two empty voxels around the
    # grid. An out-of-grid or NaN mean is clipped onto the inner ring, which
    # reads as empty, for the own-voxel route, and onto the grid for the
    # block search, so the indices of its neighbours and of the centers
    # just beyond its block stay in the padded arrays; a non-finite mean
    # reaches the tree, which rejects it.
    flat = np.pad(occ, 2).ravel()
    strides = np.array([(dims[1] + 4) * (dims[2] + 4), dims[2] + 4, 1])
    centers = [origin[a] + (np.arange(-2, dims[a] + 2) + 0.5) * vs for a in range(3)]
    occupied = np.empty(len(means), dtype=bool)
    own = np.empty(len(means), dtype=bool)
    dist = np.empty(len(means))
    for lo in range(0, len(means), _CHUNK):
        chunk = slice(lo, lo + _CHUNK)
        # Widened a chunk at a time: exact for f32 means.
        p = np.ascontiguousarray(means[chunk].T, dtype=np.float64)
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
    rest = np.flatnonzero(~own)
    to_tree = []
    for lo in range(0, rest.size, _BLOCK_CHUNK):
        idx = rest[lo : lo + _BLOCK_CHUNK]
        p = np.ascontiguousarray(means[idx].T, dtype=np.float64)
        q = np.floor((p - origin[:, None]) / vs)
        q = (np.fmin(np.fmax(q, 0), dims[:, None] - 1) + 2).astype(np.intp)
        dist[idx], ok = _block_search(p, q, flat, strides, centers, dims)
        to_tree.append(idx[~ok])
    rest = np.concatenate([np.empty(0, dtype=np.intp), *to_tree])
    if rest.size:
        from scipy.spatial import cKDTree

        tree = cKDTree(origin + (np.argwhere(occ) + 0.5) * vs)
        dist[rest] = tree.query(np.asarray(means[rest], dtype=np.float64))[0]
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
    tree query.

    Every other mean (outside an occupied voxel, or put on the wrong side
    of a face by rounding) takes the block search. With q its voxel clamped
    onto the grid, the block holds the 27 voxels within 1 of q on every
    axis; its least squared distance over the occupied centers, in the
    tree's formula, is certified when it is at most a lower bound on the
    squared distance of every center outside the block. Such a center lies
    beyond the block on some axis a, where its offset is at least the
    offset to the center at q_a - 2 or q_a + 2 (inf on a side where the
    grid ends first); on each other axis its offset is at least the one to
    the grid's first or last center when the mean lies beyond it, and 0
    otherwise. Summed in the tree's order, and least over the three axes,
    these give the bound, since rounded subtraction, multiplication and
    addition are all monotone. A certified value is thus the tree's least
    squared distance, and its square root the tree's distance. The means
    their block does not certify go to the KD-tree; at seeds 7 and 11 no
    mean of the benchmark workloads does. All routes fill one (P,) array
    in input order, so the mean sums the same values in the same order as
    one full tree query.
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
    thresholds,
    stride: int,
    gaussians=None,
) -> MetricReport:
    """IoU, mIoU and RayIoU of `pred` against `gt` in one report, plus
    Perc./Dist. of the means of `gaussians` when it is given. Raises
    UndefinedMetricError when `gt` has no occupied voxel, and ConfigError
    as ray_iou does."""
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
