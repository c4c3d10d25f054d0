"""Forward evaluation of the training objectives.

Occupancy side: per-voxel cross-entropy plus Lovasz-Softmax (the "classes
present in ground truth" variant). Depth side: uncertainty-weighted
residual and forward-difference gradient terms with a log-uncertainty
regularizer. Norms are RMS over the valid pixels of each view ("per-view
sum with a per-pixel mean inside each norm"), and the log-uncertainty term
is likewise a per-pixel mean; no-return pixels are excluded from every
term. These are forward metrics only; there is no backward pass.
"""

from __future__ import annotations

import json
from dataclasses import asdict, astuple, dataclass

import numpy as np

from .core import DepthMap
from .errors import ConfigError, ShapeError, UndefinedMetricError

PROB_CLAMP = 1e-7

# Rows per block of the cross-entropy row-sum check: 512 KiB of float64.
_ROWS = 1 << 16


def _rows_and_labels(pred: np.ndarray, gt: np.ndarray) -> tuple:
    """(N, C) float64 predictions and (N,) labels of voxel-aligned `pred`
    and `gt`; raises ConfigError unless every label is a whole number in
    [0, C)."""
    pred = np.asarray(pred, dtype=np.float64).reshape(-1, np.asarray(pred).shape[-1])
    gt = np.asarray(gt).reshape(-1)
    if pred.shape[0] != gt.shape[0]:
        raise ShapeError(f"{pred.shape[0]} predictions vs {gt.shape[0]} labels")
    c = pred.shape[1]
    if gt.size and not (gt.min() >= 0 and gt.max() < c):
        raise ConfigError(f"labels must lie in [0, {c})")
    # A float label such as 0.5 would index, and score, as class 0.
    if gt.dtype.kind not in "biu" and not (gt % 1 == 0).all():
        raise ConfigError("labels must be whole numbers")
    return pred, gt


def cross_entropy_loss(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean -log(pred[gt]) over all voxels, probabilities clamped to
    [1e-7, 1]. Raises ConfigError unless every label is a whole number in
    [0, C) and every row sums to 1 within 1e-4 (a row with a NaN does not).

    The predictions are read a class column at a time, so a channel-major
    view costs no copy: the row sums are checked in blocks of _ROWS rows,
    and the picked probabilities are gathered into one n-length array."""
    pred, gt = _rows_and_labels(pred, gt)
    n, c = pred.shape
    for lo in range(0, n, _ROWS):
        block = pred[lo : lo + _ROWS]
        # Column adds: a reduction over the short last axis is slow.
        dev = block[:, 0].copy()
        for k in range(1, c):
            dev += block[:, k]
        dev -= 1.0
        if not (np.abs(dev, out=dev) <= 1e-4).all():
            raise ConfigError("prediction rows must sum to 1 within 1e-4")
    if n == 0:
        raise UndefinedMetricError("no voxels; cross-entropy mean undefined")
    picked = np.empty(n)
    for k in range(c):
        np.copyto(picked, pred[:, k], where=gt == k)
    np.clip(picked, PROB_CLAMP, 1.0, out=picked)
    np.log(picked, out=picked)
    return float(np.negative(picked, out=picked).mean())


def _stable_descending_order(e: np.ndarray) -> np.ndarray:
    """np.argsort(-e, kind="stable") without the stable float sort, which is
    a timsort. Its temporaries are freed when it returns."""
    k = len(e)
    first = np.argsort(-e)
    ranked = e[first]
    run = np.zeros(k, dtype=np.int64)
    np.cumsum(ranked[1:] != ranked[:-1], out=run[1:])
    run *= k
    run += first
    run.sort()
    return run % k


def lovasz_softmax_loss(pred: np.ndarray, gt: np.ndarray) -> float:
    """Lovasz-Softmax over classes present in gt.

    Per class: errors |1{gt=c} - pred_c| sorted descending, dotted with the
    Jaccard-extension gradient; the per-class terms are averaged. Raises
    ConfigError unless every label is a whole number in [0, C) and every
    prediction of a class present in gt is finite.

    Only the k non-zero errors are sorted, and only their k products are
    summed. A stable descending sort of all n errors puts the zero ones
    last, in index order, and leaves the first k as the stable sort of the
    non-zero ones. The gradient of that prefix depends only on the prefix
    cumsums and on the foreground total, which does not depend on the order.
    Each tail product of the full sort is a zero error times a finite
    gradient, an exact 0, so the loss is the full sort's sum of its first k
    products. The sum is np.add.reduce, numpy's pairwise sum: its grouping
    of the k products is fixed in numpy's source, so, unlike a BLAS dot,
    its bits do not depend on which BLAS kernel the machine selects.

    The stable descending order of the non-zero errors comes from
    _stable_descending_order: numpy's default (unstable) sort of the negated
    errors, then a sort of unique int64 keys run * k + position, where run
    numbers the runs of equal sorted values. Within a run the keys order the
    errors by position, as a stable sort does, whichever way the first sort
    broke the ties.

    The non-zero errors are found once for all classes: the row support is
    the rows where pred[:, c] != 1{gt=c} for some present class c. Each class
    reads its predictions and labels on that support only, in ascending row
    order, so its non-zero errors keep their order, and |1 - p| (foreground)
    or |p| (background) is |1{gt=c} - p| bit for bit. The foreground total
    is the class's label count.
    """
    pred, gt = _rows_and_labels(pred, gt)
    if gt.size == 0:
        raise UndefinedMetricError("empty grid; Lovasz mean undefined")
    classes, counts = np.unique(gt, return_counts=True)
    # A NaN prediction differs from every label, so its row is kept.
    wrong = np.zeros(len(gt), dtype=bool)
    for c in classes:
        wrong |= pred[:, int(c)] != (gt == c)
    rows = np.flatnonzero(wrong)
    gt_rows = gt.take(rows)
    losses = []
    for c, gts in zip(classes, counts.astype(np.float64)):
        fg = gt_rows == c
        errors = pred[:, int(c)].take(rows)
        np.subtract(1.0, errors, out=errors, where=fg)
        np.abs(errors, out=errors)
        nz = np.flatnonzero(errors)
        order = nz[_stable_descending_order(errors[nz])]
        head = fg[order].astype(np.float64)
        # The Jaccard index of each prefix, then in place its increments
        # (numpy reads the overlapping operand as a copy).
        grad = 1.0 - (gts - head.cumsum()) / (gts + (1.0 - head).cumsum())
        sorted_errors = errors[order]
        if not np.isfinite(sorted_errors).all():
            raise ConfigError(f"class {c} predictions must be finite")
        grad[1:] -= grad[:-1]
        losses.append(float(np.add.reduce(np.multiply(sorted_errors, grad, out=grad))))
    return float(np.mean(losses))


@dataclass(frozen=True)
class DepthLossBreakdown:
    residual: float
    gradient: float
    uncertainty: float

    @property
    def total(self) -> float:
        return self.residual + self.gradient + self.uncertainty

    def __add__(self, other: "DepthLossBreakdown") -> "DepthLossBreakdown":
        """Term-by-term sum: summing views from zeros in view order gives
        each term as one running float sum over the views."""
        return DepthLossBreakdown(*(a + b for a, b in zip(astuple(self), astuple(other))))


def _rms(values: np.ndarray) -> float:
    return float(np.sqrt(np.mean(values**2))) if values.size else 0.0


def depth_uncertainty_loss(pred: DepthMap, gt: DepthMap, alpha_unc: float) -> DepthLossBreakdown:
    """Uncertainty-weighted depth loss of one view.

    The ground-truth uncertainty channel is ignored.
    RMS(sigma * (dhat - d)) + RMS(sigma * (grad dhat - grad d))
    - alpha * mean(log sigma), with forward-difference gradients and all
    statistics over pixels valid in both maps.

    A view that is its own reference (`gt.depth is pred.depth`, as for a
    noise-free view) has exact-zero residual and gradient terms, which are
    not computed: on a valid pixel d - d is +0 for the finite d, sigma > 0
    times +0 is +0, and an RMS over +0s, or over no pixels, is 0.0.
    """
    if pred.depth.shape != gt.depth.shape:
        raise ShapeError(f"view shapes differ: {pred.depth.shape} vs {gt.depth.shape}")
    valid = pred.valid & gt.valid
    sig = pred.uncertainty
    if gt.depth is pred.depth:
        residual = gradient = 0.0
    else:
        # Sentinel pixels produce inf-inf before masking; silence, then drop.
        with np.errstate(invalid="ignore"):
            residual = _rms((sig * (pred.depth - gt.depth))[valid])
            grads = []
            for axis in (0, 1):
                dp = np.diff(pred.depth, axis=axis)
                dg = np.diff(gt.depth, axis=axis)
                # Views of a map without its last (head) or first (tail) line.
                head = (slice(None),) * axis + (slice(None, -1),)
                tail = (slice(None),) * axis + (slice(1, None),)
                ok = valid[tail] & valid[head]
                grads.append((sig[head] * (dp - dg))[ok])
            gradient = _rms(np.concatenate(grads))
    uncertainty = float(-alpha_unc * np.log(sig[valid]).mean()) if valid.any() else 0.0
    return DepthLossBreakdown(residual=residual, gradient=gradient, uncertainty=uncertainty)


@dataclass(frozen=True)
class LossReport:
    """Weighted objective breakdown; `total` satisfies the accounting
    identity total = l_occ*(ce+lov) + l_depth*(residual+gradient+unc)."""

    total: float
    occ_ce: float
    occ_lovasz: float
    depth_term: float
    gradient_term: float
    uncertainty_term: float
    lambda_occ: float
    lambda_depth: float
    alpha_unc: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


def compute_loss_report(
    pred_probs: np.ndarray,
    gt_labels: np.ndarray,
    depth: DepthLossBreakdown,
    lambda_occ: float,
    lambda_depth: float,
    alpha_unc: float,
) -> LossReport:
    """Occupancy losses of `pred_probs` against `gt_labels`, weighted with
    the `depth` terms, which were computed with `alpha_unc`."""
    ce = cross_entropy_loss(pred_probs, gt_labels)
    lov = lovasz_softmax_loss(pred_probs, gt_labels)
    total = lambda_occ * (ce + lov) + lambda_depth * depth.total
    return LossReport(
        total=total,
        occ_ce=ce,
        occ_lovasz=lov,
        depth_term=depth.residual,
        gradient_term=depth.gradient,
        uncertainty_term=depth.uncertainty,
        lambda_occ=lambda_occ,
        lambda_depth=lambda_depth,
        alpha_unc=alpha_unc,
    )
