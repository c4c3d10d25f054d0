import itertools
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from gsocc.core import DepthMap
from gsocc.errors import GsoccError, UndefinedMetricError
from gsocc.losses import (
    compute_loss_report,
    cross_entropy_loss,
    depth_uncertainty_loss,
    lovasz_softmax_loss,
)


def lovasz_oracle(pred, gt):
    """Brute-force Lovasz extension via direct Jaccard differences over the
    sorted prefix sets. Set arithmetic only, no cumsum tricks."""
    class_losses = []
    for c in sorted(set(gt)):
        fg = {i for i, y in enumerate(gt) if y == c}
        errs = sorted(
            ((abs((1.0 if i in fg else 0.0) - pred[i][c]), i) for i in range(len(gt))),
            key=lambda t: -t[0],
        )
        prefix = set()
        prev_jac = 0.0
        loss = 0.0
        for m, i in errs:
            prefix.add(i)
            jac = 1.0 - len(fg - prefix) / len(fg | prefix)
            loss += m * (jac - prev_jac)
            prev_jac = jac
        class_losses.append(loss)
    return sum(class_losses) / len(class_losses)


def lovasz_full_sort(pred, gt):
    """Every error sorted, dotted with the Jaccard gradient of the whole
    order: the formula lovasz_softmax_loss must reproduce bit for bit.
    Also returns the number of non-zero errors per class."""

    def lovasz_gradient(gt_sorted):
        gts = gt_sorted.sum()
        intersection = gts - gt_sorted.cumsum()
        union = gts + (1.0 - gt_sorted).cumsum()
        jaccard = 1.0 - intersection / union
        jaccard[1:] = jaccard[1:] - jaccard[:-1]
        return jaccard

    losses, nonzero = [], []
    for c in np.unique(gt):
        fg = (gt == c).astype(np.float64)
        errors = np.abs(fg - pred[:, int(c)])
        order = np.argsort(-errors, kind="stable")
        losses.append(float(errors[order] @ lovasz_gradient(fg[order])))
        nonzero.append(int(np.count_nonzero(errors)))
    return float(np.mean(losses)), nonzero


def tied_zero_error_case(rng, n, c=4):
    """(pred, gt) with exact zero errors (one-hot rows), tied errors
    (probabilities rounded to 1-3 decimals), a class no voxel gets wrong
    (class 1: no non-zero error) and a class wrong everywhere (class 2: no
    zero error)."""
    gt = rng.integers(1, c, size=n)
    gt[rng.random(n) < 0.3] = 0
    pred = np.round(rng.dirichlet(np.ones(c), size=n), int(rng.integers(1, 4)))
    one_hot = rng.random(n) < 0.4
    pred[one_hot] = np.eye(c)[gt[one_hot]]
    pred[:, 1] = gt == 1
    pred[:, 2] = np.where(gt == 2, rng.uniform(0.05, 0.95, n).round(2), 0.5)
    gt[0], gt[-1] = 1, 2  # both classes present
    pred[[0, -1], 1] = [1.0, 0.0]
    pred[-1, 2] = 0.5
    return pred, gt


class TestCrossEntropy:
    def test_perfect_one_hot(self):
        gt = np.array([0, 1, 2, 1])
        pred = np.eye(3)[gt]
        assert cross_entropy_loss(pred, gt) <= 1e-6

    def test_uniform_two_class_is_ln2(self):
        pred = np.full((10, 2), 0.5)
        gt = np.array([0, 1] * 5)
        assert cross_entropy_loss(pred, gt) == pytest.approx(math.log(2), abs=1e-9)

    def test_matches_scalar_loop_oracle(self, rng):
        pred = rng.dirichlet(np.ones(4), size=30)
        gt = rng.integers(0, 4, size=30)
        got = cross_entropy_loss(pred, gt)
        total = 0.0
        for i in range(30):
            total += -math.log(min(max(pred[i][gt[i]], 1e-7), 1.0))
        assert got == pytest.approx(total / 30, abs=1e-9)

    def test_empty_grid_raises(self):
        with pytest.raises(UndefinedMetricError):
            cross_entropy_loss(np.empty((0, 2)), np.empty(0, dtype=int))

    def test_unnormalized_rows_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy_loss(np.full((3, 2), 0.4), np.zeros(3, dtype=int))

    def test_nan_and_inf_rows_rejected(self):
        for bad in (np.nan, np.inf):
            pred = np.array([[0.5, 0.5], [bad, 0.5], [0.25, 0.75]])
            with pytest.raises(GsoccError, match="sum to 1"):
                cross_entropy_loss(pred, np.array([0, 1, 1]))

    def test_row_sum_tolerance(self):
        gt = np.array([0, 1])
        cross_entropy_loss(np.array([[0.5, 0.5], [0.5, 0.5 + 9e-5]]), gt)
        with pytest.raises(ValueError, match="sum to 1"):
            cross_entropy_loss(np.array([[0.5, 0.5], [0.5, 0.5 + 2e-4]]), gt)

    def test_nonnegative(self, rng):
        for _ in range(20):
            pred = rng.dirichlet(np.ones(3), size=12)
            gt = rng.integers(0, 3, size=12)
            assert cross_entropy_loss(pred, gt) >= 0.0


@pytest.mark.parametrize("loss", [cross_entropy_loss, lovasz_softmax_loss])
@pytest.mark.parametrize("label", [-1, -3, 2, 255])
def test_labels_outside_the_classes_rejected(loss, label):
    pred = np.full((2, 2), 0.5)
    with pytest.raises(GsoccError, match=r"labels must lie in \[0, 2\)") as err:
        loss(pred, np.array([0, label]))
    assert isinstance(err.value, ValueError)


def test_lovasz_rejects_nan_predictions_of_a_present_class():
    pred = np.array([[0.5, 0.5], [np.nan, 0.5], [0.25, 0.75]])
    with pytest.raises(GsoccError, match="finite") as err:
        lovasz_softmax_loss(pred, np.array([0, 1, 1]))
    assert isinstance(err.value, ValueError)


class TestLovasz:
    def test_perfect_prediction_is_zero(self):
        gt = np.array([0, 1, 1, 0])
        pred = np.eye(2)[gt]
        assert lovasz_softmax_loss(pred, gt) == 0.0

    def test_single_voxel_case(self):
        pred = np.array([[0.7, 0.3]])
        gt = np.array([1])
        assert lovasz_softmax_loss(pred, gt) == pytest.approx(0.7, abs=1e-12)

    def test_all_64_patterns_match_prefix_jaccard_oracle(self, rng):
        pred = rng.dirichlet(np.ones(2), size=6)
        for pattern in itertools.product([0, 1], repeat=6):
            gt = np.array(pattern)
            got = lovasz_softmax_loss(pred, gt)
            want = lovasz_oracle(pred, gt.tolist())
            assert got == pytest.approx(want, abs=1e-6), pattern

    def test_bitwise_equal_to_the_full_sort(self, rng):
        # Only the non-zero errors are sorted; the loss must not move a bit.
        for n in (2, 3, 7, 31, 32, 33, 100, 1000, 4099):
            for _ in range(4):
                pred, gt = tied_zero_error_case(rng, n)
                want, nonzero = lovasz_full_sort(pred, gt)
                assert lovasz_softmax_loss(pred, gt) == want
                classes = np.unique(gt).tolist()
                assert nonzero[classes.index(1)] == 0
                assert nonzero[classes.index(2)] == n
        for seed in range(20):  # untied, unrounded errors with exact zeros
            r = np.random.default_rng(seed)
            pred = r.dirichlet(np.ones(3), size=500)
            gt = r.integers(0, 3, size=500)
            pred[::3] = np.eye(3)[gt[::3]]
            assert lovasz_softmax_loss(pred, gt) == lovasz_full_sort(pred, gt)[0]

    def test_per_class_term_bounded(self, rng):
        for _ in range(25):
            pred = rng.dirichlet(np.ones(3), size=10)
            gt = rng.integers(0, 3, size=10)
            loss = lovasz_softmax_loss(pred, gt)
            assert 0.0 <= loss <= 1.0

    def test_empty_grid_raises(self):
        with pytest.raises(UndefinedMetricError):
            lovasz_softmax_loss(np.zeros((0, 2)), np.zeros(0, dtype=int))


def flat_map(depth, unc=1.0):
    depth = np.asarray(depth, dtype=np.float64)
    return DepthMap(depth=depth, uncertainty=np.full(depth.shape, float(unc)))


class TestDepthLoss:
    def test_perfect_prediction_unit_confidence(self, rng):
        d = rng.uniform(1, 5, size=(4, 4))
        loss = depth_uncertainty_loss(flat_map(d), flat_map(d), alpha_unc=0.5)
        assert loss.total == 0.0

    def test_uncertainty_minimizer_matches_closed_form(self):
        # Single-pixel maps: loss(sigma) = sigma*|r| - alpha*log(sigma),
        # minimized at sigma* = alpha / |r|.
        alpha, r = 0.5, 0.8
        gt = flat_map([[2.0]])

        def loss_of(sigma):
            if sigma <= 0:
                return np.inf
            pred = DepthMap(depth=np.array([[2.0 + r]]),
                            uncertainty=np.array([[sigma]]))
            return depth_uncertainty_loss(pred, gt, alpha_unc=alpha).total

        res = minimize_scalar(loss_of, bracket=(1e-3, 10.0), method="golden",
                              options={"xtol": 1e-10})
        assert res.x == pytest.approx(alpha / r, abs=1e-3)

    def test_matches_scalar_loop_oracle(self, rng):
        alpha = 0.5
        pd = rng.uniform(1, 6, size=(4, 4))
        gd = rng.uniform(1, 6, size=(4, 4))
        pd[0, 1] = np.inf
        gd[2, 3] = np.inf
        sig = rng.uniform(0.2, 2.0, size=(4, 4))
        pred = DepthMap(depth=pd, uncertainty=sig)
        gt = flat_map(gd)
        got = depth_uncertainty_loss(pred, gt, alpha_unc=alpha)

        valid = [[math.isfinite(pd[i][j]) and math.isfinite(gd[i][j]) for j in range(4)]
                 for i in range(4)]
        res_sq, n_res, logs = [], 0, []
        for i in range(4):
            for j in range(4):
                if valid[i][j]:
                    res_sq.append((sig[i][j] * (pd[i][j] - gd[i][j])) ** 2)
                    logs.append(math.log(sig[i][j]))
        grad_sq = []
        for i in range(4):
            for j in range(4):
                if i + 1 < 4 and valid[i][j] and valid[i + 1][j]:
                    dpg = (pd[i + 1][j] - pd[i][j]) - (gd[i + 1][j] - gd[i][j])
                    grad_sq.append((sig[i][j] * dpg) ** 2)
                if j + 1 < 4 and valid[i][j] and valid[i][j + 1]:
                    dpg = (pd[i][j + 1] - pd[i][j]) - (gd[i][j + 1] - gd[i][j])
                    grad_sq.append((sig[i][j] * dpg) ** 2)
        assert got.residual == pytest.approx(math.sqrt(sum(res_sq) / len(res_sq)), abs=1e-7)
        assert got.gradient == pytest.approx(math.sqrt(sum(grad_sq) / len(grad_sq)), abs=1e-7)
        assert got.uncertainty == pytest.approx(-alpha * sum(logs) / len(logs), abs=1e-7)

    def test_monotone_along_interpolation(self, rng):
        gt_d = rng.uniform(1, 6, size=(5, 5))
        start = gt_d + rng.uniform(-1, 1, size=(5, 5))
        sig = rng.uniform(0.5, 1.5, size=(5, 5))
        gt = flat_map(gt_d)
        prev = None
        for t in np.linspace(1.0, 0.0, 10):
            pred = DepthMap(depth=gt_d + t * (start - gt_d), uncertainty=sig)
            total = depth_uncertainty_loss(pred, gt, alpha_unc=0.3).total
            if prev is not None:
                assert total <= prev + 1e-12
            prev = total

    def test_sentinel_pixels_excluded_everywhere(self):
        pred = DepthMap(depth=np.array([[1.0, np.inf]]), uncertainty=np.full((1, 2), 2.0))
        gt = flat_map([[1.0, 3.0]])
        loss = depth_uncertainty_loss(pred, gt, alpha_unc=1.0)
        assert loss.residual == 0.0
        # only the valid pixel's uncertainty enters the log term
        assert loss.uncertainty == pytest.approx(-math.log(2.0))


class TestLossReport:
    def test_accounting_identity(self, rng):
        pred = rng.dirichlet(np.ones(3), size=40)
        gt = rng.integers(0, 3, size=40)
        pd = flat_map(rng.uniform(1, 4, size=(4, 4)), unc=0.7)
        gd = flat_map(rng.uniform(1, 4, size=(4, 4)))
        rep = compute_loss_report(pred, gt, depth_uncertainty_loss(pd, gd, alpha_unc=0.5),
                                  lambda_occ=1.0, lambda_depth=0.05, alpha_unc=0.5)
        expect = rep.lambda_occ * (rep.occ_ce + rep.occ_lovasz) + rep.lambda_depth * (
            rep.depth_term + rep.gradient_term + rep.uncertainty_term
        )
        assert rep.total == pytest.approx(expect, abs=1e-9)

    def test_json_roundtrip_fields(self, rng):
        pred = rng.dirichlet(np.ones(2), size=8)
        gt = rng.integers(0, 2, size=8)
        depths = flat_map(rng.uniform(1, 4, size=(4, 4)))
        rep = compute_loss_report(pred, gt, depth_uncertainty_loss(depths, depths, 0.5))
        doc = rep.to_json()
        assert '"occ_ce"' in doc and '"total"' in doc
