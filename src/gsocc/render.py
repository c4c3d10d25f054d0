"""Probabilistic rendering of a Gaussian set into a semantic occupancy grid.

Occupancy at a point is the complement of the product of per-Gaussian
non-occupancy probabilities, alpha = 1 - prod(1 - a_i * phi_i), with phi an
unnormalized Gaussian kernel cut off at Mahalanobis distance 3. Semantics
are the posterior-weighted average of softmaxed per-Gaussian logits, where
the posterior weight uses the fully normalized density
p = phi / ((2 pi)^(3/2) sx sy sz) so that broad and narrow primitives are
weighted scale-awarely. The per-voxel output vector is
[1 - alpha; alpha * e] over (empty + C classes). render_grid and
render_grid_bruteforce return it as the `probs` of a core.OccupancyGrid
whose labels are each voxel's first most probable channel, bit for bit
probs.argmax(axis=-1), taken with a running strict > over the contiguous
channels before they are interleaved.

Occupancy is evaluated at voxel centers, one sample per voxel. The product
is accumulated in log space (sum of log1p(-a * phi)) for stability with many
overlapping primitives.

The Mahalanobis term is m^2 = y0^2 + y1^2 + y2^2 with y = R^T (x - mean) / s,
and is built from per-axis vectors rather than a matrix product: for the
voxel-center offsets d_a along axis a, the terms p_a,k = (d_a * R_ak) / s_k
are small vectors, and y_k = (p_0,k[x] + p_1,k[y]) + p_2,k[z] is one
broadcast add, summed as m^2 = (y0^2 + y1^2) + y2^2. Only elementwise IEEE
operations are used, so the field does not depend on the BLAS kernel.

A term p_a,k is left out of y_k when R_ak is exactly 0 (or -0) for every
Gaussian of the chunk; the others are added in the same order. A left-out
term is d_a * 0 / s_k = +-0, and adding +-0 leaves a non-zero sum unchanged
and can only flip the sign of a zero one, whose square is +0 either way, so
m^2 keeps every bit. For axis-aligned Gaussians (every pipeline Gaussian has
the identity rotation) each y_k then spans one grid axis, and m^2 takes one
full-size broadcast add of small squares. Every row of a rotation has a
non-zero entry, so every axis still enters some y_k: the +inf padding below
still reaches m^2.

The grid renderer evaluates each Gaussian only over its box: per axis, the
voxel indices from floor to ceil of the exact 3-sigma axis bound
mean +- 3 sqrt(Sigma_kk), clipped to the grid. The nearest voxel outside that
range has its center half a voxel beyond the bound, so every voxel with
m^2 <= 9 is visited and the result matches the all-pairs reference to
rounding. There is no loop over Gaussians. Those whose box holds a voxel are
walked in index order in contiguous chunks, and each chunk is one dense array
over its largest box shape (the per-axis maximum extent). Per-axis terms past
a Gaussian's own box are +inf, so m^2 there is +inf and the cutoff test
drops them. A chunk holds at most _PAIR_BUDGET such padded (Gaussian, voxel)
pairs, which bounds the working memory; a Gaussian whose box alone is larger
forms a chunk of its own. The kept pairs come out in ascending Gaussian order
and are added with np.add.at: one call each for the log-occupancy and the
density sum, and one per class into the class-major (C, X, Y, Z) numerator.
Every voxel thus sums its terms in Gaussian order with the same float
operations as a per-Gaussian loop, and the field is bit-identical whatever
the chunking. The all-pairs reference, render_grid_bruteforce, uses the same
m^2 formula over the whole grid, one Gaussian at a time, with all nine terms.
"""

from __future__ import annotations

import numpy as np

from .core import GaussianSet, OccupancyGrid, quaternion_to_matrices

# Mahalanobis cutoff: contributions beyond 3 sigma are dropped exactly
# (both here and in the brute-force reference).
CUTOFF = 3.0
_CUTOFF_SQ = CUTOFF * CUTOFF
_DENSITY_NORM = (2.0 * np.pi) ** 1.5

# Most padded (Gaussian, voxel) pairs render_grid evaluates at once: about
# 24 bytes of working memory each (tracemalloc peak of one chunk), 1.5 MiB in
# all. On the fine-grid benchmark render, 1 << 14 was slower; 1 << 17 was
# about 7% faster, but it raised peak RSS by about 1 MiB on fine-grid and
# 1.3 MiB on dense-rig.
_PAIR_BUDGET = 1 << 16


def softmax_logits(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _axis_centers(origin, voxel_size, dims):
    return [origin[a] + (np.arange(dims[a]) + 0.5) * voxel_size for a in range(3)]


def _finalize(log_keep, sem_num, sem_den, origin, voxel_size):
    """The labelled grid with its probabilities from the accumulators, which
    it overwrites: the class-major (C, X, Y, Z) numerator `sem_num` with the
    class channels, `log_keep` with scratch values."""
    alpha = -np.expm1(log_keep)
    c = len(sem_num)
    covered = sem_den > 0
    uncovered = ~covered
    # Class by class on contiguous arrays: alpha times the class split
    # (uniform where no Gaussian covers the voxel).
    for num in sem_num:
        np.divide(num, sem_den, out=num, where=covered)
        np.copyto(num, 1.0 / c, where=uncovered)
        num *= alpha
    # Labels before the interleave: a running strict > over the contiguous
    # channels keeps the first maximum, as probs.argmax(axis=-1) does. The
    # running maximum takes the memory of log_keep, which is no longer read.
    best = np.subtract(1.0, alpha, out=log_keep)
    labels = np.zeros(alpha.shape, dtype=np.uint8)
    for k, num in enumerate(sem_num, 1):
        np.copyto(labels, k, where=num > best)
        np.maximum(best, num, out=best)
    # probs is the only (X, Y, Z, C)-sized result: the empty channel, then
    # the class channels, interleaved once.
    probs = np.empty(alpha.shape + (c + 1,))
    probs[..., 0] = 1.0 - alpha
    probs[..., 1:] = np.moveaxis(sem_num, 0, -1)
    return OccupancyGrid(origin=origin, voxel_size=float(voxel_size), labels=labels, probs=probs)


def render_grid(gs: GaussianSet, dims, origin, voxel_size: float) -> OccupancyGrid:
    """Render with per-Gaussian 3-sigma bounding-box culling."""
    dims = tuple(int(d) for d in dims)
    origin = np.asarray(origin, dtype=np.float64)
    c = gs.num_classes
    log_keep = np.zeros(dims)
    sem_num = np.zeros((c,) + dims)
    sem_den = np.zeros(dims)
    if len(gs):
        rots = quaternion_to_matrices(gs.rotations)
        # Per-axis half extent of the 3-sigma ellipsoid: 3 * sqrt(Sigma_kk).
        radii = CUTOFF * np.sqrt(np.einsum("pka,pa->pk", rots**2, gs.scales**2))
        los = np.floor((gs.means - radii - origin) / voxel_size).astype(np.int64)
        his = np.ceil((gs.means + radii - origin) / voxel_size).astype(np.int64)
        np.clip(los, 0, dims, out=los)
        np.clip(his, 0, dims, out=his)
        ext = his - los
        live = np.flatnonzero(ext.all(axis=1))
        axes = _axis_centers(origin, voxel_size, dims)
        # Class-major, so each class's softmax gather reads one row.
        sem_soft = np.ascontiguousarray(softmax_logits(gs.semantics).T)
        inv_norm = 1.0 / (_DENSITY_NORM * gs.scales.prod(axis=1))
        start = 0
        while start < len(live):
            # Padded pair count of each candidate chunk starting here. One within
            # budget holds at most _PAIR_BUDGET // (first box size) Gaussians,
            # so one candidate more than that finds where the chunk ends.
            window = ext[live[start : start + _PAIR_BUDGET // ext[live[start]].prod() + 1]]
            padded = np.arange(1, len(window) + 1) * np.maximum.accumulate(window).prod(axis=1)
            stop = start + max(int(np.searchsorted(padded, _PAIR_BUDGET, side="right")), 1)
            g, vox, m2 = _box_pairs(gs, rots, los, ext, live[start:stop], axes, dims)
            phi = np.exp(-0.5 * m2)
            a_phi = gs.opacities[g] * phi
            w = a_phi * inv_norm[g]
            # The accumulators are contiguous, so each reshape is a view.
            with np.errstate(divide="ignore"):
                np.add.at(log_keep.reshape(-1), vox, np.log1p(-a_phi))
            np.add.at(sem_den.reshape(-1), vox, w)
            for k in range(c):
                np.add.at(sem_num[k].reshape(-1), vox, w * sem_soft[k].take(g))
            start = stop
    return _finalize(log_keep, sem_num, sem_den, origin, voxel_size)


def _axis_terms(d, rots_a, scales):
    """(3, n, B) terms (d_a * R_ak) / s_k of y_k = (d @ R)_k / s_k, k = 0, 1, 2,
    from the (n, B) offsets `d` along one axis a of B Gaussians with rotation
    rows `rots_a` = R[:, a, :] and scales `scales`, both (B, 3)."""
    return d * rots_a.T[:, None, :] / scales.T[:, None, :]


def _mahalanobis_sq(p, used):
    """(nx, ny, nz, B) m^2 = (y0^2 + y1^2) + y2^2 from the per-axis terms `p`
    (three (3, n_a, B) arrays from _axis_terms), with
    y_k = (p0_k[x] + p1_k[y]) + p2_k[z] summed over the axes a where the
    (3, 3) mask `used[a, k]` is set. Each y_k spans only its axes; the
    Gaussian axis is innermost, so the inner loop of each broadcast add reads
    both operands contiguously."""
    grid = (p[0][:, :, None, None], p[1][:, None, :, None], p[2][:, None, None])
    full = (len(p[0][0]), len(p[1][0]), len(p[2][0]), p[0].shape[-1])
    m2 = None
    for k in range(3):
        terms = [t[k] for t, keep in zip(grid, used[:, k]) if keep]
        yk = terms[0]
        for t in terms[1:]:
            yk = yk + t
        # In place unless yk is still a view of p, and once m2 spans the chunk.
        yk = np.multiply(yk, yk, out=yk if len(terms) > 1 else None)
        m2 = yk if m2 is None else np.add(m2, yk, out=m2 if m2.shape == full else None)
    return m2


def _box_pairs(gs, rots, los, ext, idx, axes, dims):
    """(Gaussian, flat voxel index, m^2) of every pair within the cutoff
    between the Gaussians `idx` and the voxel centers of their boxes,
    ordered by Gaussian index. The chunk is one dense array over its largest
    box shape; voxels outside a Gaussian's own box get m^2 = inf."""
    shape = ext[idx].max(axis=0)
    used = rots[idx].any(axis=0)
    p = []
    for a in range(3):
        steps = np.arange(shape[a])[:, None]
        # Padding may run past the grid: it reads the last center, then its
        # terms become +inf, so every y_k and m^2 there is +inf.
        d = axes[a].take(los[idx, a] + steps, mode="clip") - gs.means[idx, a]
        pa = _axis_terms(d, rots[idx, a], gs.scales[idx])
        pa[:, steps >= ext[idx, a]] = np.inf
        p.append(pa)
    m2 = _mahalanobis_sq(p, used).reshape(-1, len(idx))
    # Pair numbers in the Gaussian-major (B, n) mask, so the pairs come out
    # in ascending Gaussian order.
    n, b = m2.shape
    pairs = np.flatnonzero(np.ascontiguousarray((m2 <= _CUTOFF_SQ).T))
    k = pairs // n
    j = pairs - k * n
    offsets = np.ravel_multi_index(np.indices(shape).reshape(3, -1), dims)
    base = np.ravel_multi_index(los[idx].T, dims)
    return idx.take(k), base.take(k) + offsets.take(j), m2.reshape(-1).take(j * b + k)


def render_grid_bruteforce(gs: GaussianSet, dims, origin, voxel_size: float) -> OccupancyGrid:
    """All-pairs reference renderer: every Gaussian against every voxel
    center, with the same cutoff and the same m^2 formula. Oracle for the
    culled path."""
    dims = tuple(int(d) for d in dims)
    origin = np.asarray(origin, dtype=np.float64)
    c = gs.num_classes
    n_vox = int(np.prod(dims))
    log_keep = np.zeros(n_vox)
    sem_num = np.zeros((c, n_vox))
    sem_den = np.zeros(n_vox)
    axes = _axis_centers(origin, voxel_size, dims)
    rots = quaternion_to_matrices(gs.rotations)
    with np.errstate(divide="ignore"):
        for i in range(len(gs)):
            # One Gaussian: B = 1, so m^2 comes out in flat voxel order.
            d = [(axes[a] - gs.means[i, a])[:, None] for a in range(3)]
            p = [_axis_terms(d[a], rots[i, a, None], gs.scales[i, None]) for a in range(3)]
            m2 = _mahalanobis_sq(p, np.ones((3, 3), dtype=bool)).reshape(-1)
            mask = m2 <= _CUTOFF_SQ
            if not mask.any():
                continue
            phi = np.exp(-0.5 * m2[mask])
            a_phi = gs.opacities[i] * phi
            w = a_phi / (_DENSITY_NORM * gs.scales[i].prod())
            log_keep[mask] += np.log1p(-a_phi)
            sem_den[mask] += w
            sem_num[:, mask] += w * softmax_logits(gs.semantics[i])[:, None]
    return _finalize(
        log_keep.reshape(dims),
        sem_num.reshape((c,) + dims),
        sem_den.reshape(dims),
        origin,
        voxel_size,
    )
