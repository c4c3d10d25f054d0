import itertools
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from gsocc import losses
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


def channel_major(pred):
    """`pred` as the (N, C) view of (C, N) memory that the render's loss
    stage passes: the same values, each class a contiguous row."""
    return np.moveaxis(np.ascontiguousarray(pred.T), 0, -1)


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
        assert cross_entropy_loss(channel_major(pred), gt) == got

    def test_row_blocks_do_not_change_the_loss(self, rng, monkeypatch):
        pred = rng.dirichlet(np.ones(4), size=100)
        gt = rng.integers(0, 4, size=100)
        want = cross_entropy_loss(pred, gt)
        monkeypatch.setattr(losses, "_ROWS", 7)
        assert cross_entropy_loss(pred, gt) == want
        assert cross_entropy_loss(channel_major(pred), gt) == want
        pred[-1, 0] += 2e-4  # a row of the last, partial block (rows 98-99)
        with pytest.raises(GsoccError, match="sum to 1"):
            cross_entropy_loss(pred, gt)

    def test_channel_major_rows_are_read_without_a_copy(self, rng):
        # No (N, C) copy and no n-length temporary beyond the picked
        # probabilities: the peak stays below two n-length float64 arrays.
        import tracemalloc

        n = 524_288
        pred = channel_major(np.full((n, 5), 0.2))
        gt = rng.integers(0, 5, size=n).astype(np.uint8)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = cross_entropy_loss(pred, gt)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert loss == pytest.approx(math.log(5), abs=1e-12)
        assert peak < 2 * 8 * n, f"{peak / 2**20:.1f} MiB"

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


@pytest.mark.parametrize("loss", [cross_entropy_loss, lovasz_softmax_loss])
@pytest.mark.parametrize("labels", [[0.5, 1.0], [0.0, 1.25], [1.0, 1e-300]])
def test_labels_that_are_not_whole_numbers_rejected(loss, labels):
    # Label 0.5 used to index, and score, as class 0.
    pred = np.full((2, 2), 0.5)
    with pytest.raises(GsoccError, match="whole numbers") as err:
        loss(pred, np.array(labels))
    assert isinstance(err.value, ValueError)
    assert loss(pred, np.array([0.0, 1.0])) == loss(pred, np.array([0, 1]))


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
                assert lovasz_softmax_loss(channel_major(pred), gt) == want
                classes = np.unique(gt).tolist()
                assert nonzero[classes.index(1)] == 0
                assert nonzero[classes.index(2)] == n
        for seed in range(20):  # untied, unrounded errors with exact zeros
            r = np.random.default_rng(seed)
            pred = r.dirichlet(np.ones(3), size=500)
            gt = r.integers(0, 3, size=500)
            pred[::3] = np.eye(3)[gt[::3]]
            want = lovasz_full_sort(pred, gt)[0]
            assert lovasz_softmax_loss(pred, gt) == want
            assert lovasz_softmax_loss(channel_major(pred), gt) == want

    def test_ties_across_foreground_and_background_bitwise_the_full_sort(self, rng):
        # Multiples of 1/8 make |1 - p| of a foreground row equal |0 - q| of
        # a background row, so ties mix rows of both kinds, and their order
        # moves the Jaccard gradient.
        for n in (2, 9, 64, 1000, 5000):
            for c in (2, 3, 5):
                gt = rng.integers(0, c, size=n)
                pred = rng.integers(0, 9, size=(n, c)) / 8.0
                want = lovasz_full_sort(pred, gt)[0]
                assert lovasz_softmax_loss(pred, gt) == want
                assert lovasz_softmax_loss(channel_major(pred), gt) == want

    def test_long_runs_of_equal_errors_bitwise_the_full_sort(self, rng):
        # Four error values (1/8, 3/8, 5/8, 7/8), each held by about n / 4
        # rows of either kind.
        for n in (100, 4099, 30000):
            for _ in range(4):
                gt = rng.integers(0, 3, size=n)
                pred = rng.choice([0.125, 0.375, 0.625, 0.875], size=(n, 3))
                want = lovasz_full_sort(pred, gt)[0]
                assert lovasz_softmax_loss(pred, gt) == want
                assert lovasz_softmax_loss(channel_major(pred), gt) == want

    def test_descending_order_is_the_stable_sort(self, rng):
        for n in (1, 2, 3, 100, 5000):
            for values in (np.arange(1, 9) / 8.0, rng.random(n) + 0.5, np.ones(1)):
                e = rng.choice(values, n)
                want = np.argsort(-e, kind="stable")
                assert np.array_equal(losses._stable_descending_order(e), want)

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
