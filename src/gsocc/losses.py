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
    [0, C) and every row sums to 1 within 1e-4 (a row with a NaN does not)."""
    pred, gt = _rows_and_labels(pred, gt)
    # Column adds: a reduction over the short last axis is slow.
    dev = pred[:, 0].copy()
    for col in pred.T[1:]:
        dev += col
    dev -= 1.0
    if not (np.abs(dev, out=dev) <= 1e-4).all():
        raise ConfigError("prediction rows must sum to 1 within 1e-4")
    if gt.shape[0] == 0:
        raise UndefinedMetricError("no voxels; cross-entropy mean undefined")
    picked = pred[np.arange(gt.shape[0]), gt.astype(np.int64)]
    return float(-np.log(np.clip(picked, PROB_CLAMP, 1.0)).mean())


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

    Only the k non-zero errors are sorted. A stable descending sort of all
    n errors puts the zero ones last, in index order, and leaves the first k
    as the stable sort of the non-zero ones. The gradient of that prefix
    depends only on the prefix cumsums and on the foreground total, which
    does not depend on the order. The dot still runs over all n entries, with
    the tail of both vectors zero. In the full sort each tail product is a
    zero error times a finite gradient, an exact 0, as it is here, and adding
    0 leaves a partial sum unchanged. Keeping the length keeps the BLAS
    kernel's grouping of the non-zero products, so the loss is the full
    sort's bit for bit.

    The stable descending order of the non-zero errors comes from
    _stable_descending_order: numpy's default (unstable) sort of the negated
    errors, then a sort of unique int64 keys run * k + position, where run
    numbers the runs of equal sorted values. Within a run the keys order the
    errors by position, as a stable sort does, whichever way the first sort
    broke the ties.
    """
    pred, gt = _rows_and_labels(pred, gt)
    if gt.size == 0:
        raise UndefinedMetricError("empty grid; Lovasz mean undefined")
    losses = []
    for c in np.unique(gt):
        fg = (gt == c).astype(np.float64)
        errors = np.subtract(fg, pred[:, int(c)])
        np.abs(errors, out=errors)
        nz = np.flatnonzero(errors)
        order = nz[_stable_descending_order(errors[nz])]
        head = fg[order]
        gts = fg.sum()
        jaccard = 1.0 - (gts - head.cumsum()) / (gts + (1.0 - head).cumsum())
        k = len(order)
        sorted_errors = np.zeros(len(errors))
        grad = np.zeros(len(errors))
        sorted_errors[:k] = errors[order]
        if not np.isfinite(sorted_errors[:k]).all():
            raise ConfigError(f"class {c} predictions must be finite")
        grad[:k] = jaccard
        grad[1:k] -= jaccard[:-1]
        losses.append(float(sorted_errors @ grad))
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
    """
    if pred.depth.shape != gt.depth.shape:
        raise ShapeError(f"view shapes differ: {pred.depth.shape} vs {gt.depth.shape}")
    valid = pred.valid & gt.valid
    sig = pred.uncertainty
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
    lambda_occ: float = 1.0,
    lambda_depth: float = 0.05,
    alpha_unc: float = 0.5,
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
