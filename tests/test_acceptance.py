"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion-4 and criterion-8 thresholds are frozen fixture values derived by
scripts/derive_acceptance_fixtures.py (committed in fixtures/); the
remaining criteria are closed-form or oracle-backed.
"""

import dataclasses
import itertools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
from scipy.optimize import minimize_scalar

from gsocc.attention import AttentionWeights, TokenSet, alternating_block, attention_rows, in_frame_pass
from gsocc.core import DepthMap, OccupancyGrid, VoxelGridSpec
from gsocc.losses import cross_entropy_loss, depth_uncertainty_loss, lovasz_softmax_loss
from gsocc.metrics import init_quality, iou_miou, ray_iou
from gsocc.pipeline import PipelineConfig, run_pipeline
from gsocc.refine import refine_positions
from gsocc.render import render_grid, render_grid_bruteforce
from gsocc.sampling import sample_representatives, voxel_keys, OUT_OF_BOUNDS
from gsocc.synth import look_rotation

from conftest import ACCEPTANCE_RESULTS, random_gaussian_set
from test_losses import lovasz_oracle
from test_sampling import dict_grouping_oracle

FIXTURES = json.loads(
    (Path(__file__).parent / "fixtures" / "acceptance_thresholds.json").read_text()
)


def report(criterion, ok, detail):
    ACCEPTANCE_RESULTS.append((criterion, ok, detail))
    line = f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}  {detail}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


SPEC = VoxelGridSpec(
    min_corner=np.array([-8.0, -8.0, -4.0]),
    max_corner=np.array([8.0, 8.0, 4.0]),
    grid_size=0.5,
)


def test_criterion_1_normalization(rng):
    t0 = time.perf_counter()
    worst_sum = 0.0
    for _ in range(1000):
        n = int(rng.integers(0, 25))
        gs = random_gaussian_set(rng, n, num_classes=3, lo=(-4, -4, -4), hi=(4, 4, 4))
        field = render_grid(gs, (16, 16, 16), np.array([-4.0, -4.0, -4.0]), 0.5)
        worst_sum = max(worst_sum, float(np.abs(field.probs.sum(axis=-1) - 1.0).max()))
        alpha = 1.0 - field.probs[..., 0]
        assert (alpha >= 0.0).all() and (alpha <= 1.0).all()
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst_sum <= 1e-5 and elapsed < 30.0,
        f"1000 renders: max |sum(o)-1| = {worst_sum:.2e}, alpha in [0,1], {elapsed:.1f}s",
    )


def test_criterion_2_renderer_oracle_equivalence(rng):
    t0 = time.perf_counter()
    worst = 0.0
    for scene in range(50):
        n = int(rng.integers(20, 201))
        gs = random_gaussian_set(rng, n, num_classes=3, lo=(-8, -8, -8), hi=(8, 8, 8))
        culled = render_grid(gs, (32, 32, 32), np.array([-8.0, -8.0, -8.0]), 0.5)
        brute = render_grid_bruteforce(gs, (32, 32, 32), np.array([-8.0, -8.0, -8.0]), 0.5)
        worst = max(worst, float(np.abs(culled.probs - brute.probs).max()))
    elapsed = time.perf_counter() - t0
    report(
        2,
        worst <= 1e-4 and elapsed < 60.0,
        f"50 scenes at 32^3: max |culled - brute| = {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_sampling_exactness(rng):
    ok = True
    for trial in range(100):
        n = int(rng.integers(0, 800))
        gs = random_gaussian_set(rng, n, lo=(-10, -10, -6), hi=(10, 10, 6))
        seed = int(rng.integers(2**63))
        base = sample_representatives(gs, SPEC, seed, n_workers=1)
        ok &= len(base) == len(dict_grouping_oracle(gs.means, SPEC))
        again = sample_representatives(base, SPEC, seed)
        ok &= np.array_equal(base.means, again.means)
        for workers in (4, 8):
            alt = sample_representatives(gs, SPEC, seed, n_workers=workers)
            ok &= np.array_equal(base.means, alt.means)
            ok &= np.array_equal(base.semantics, alt.semantics)
            ok &= np.array_equal(base.source_index, alt.source_index)
        if not ok:
            break
    report(3, ok, "100 sets: count == dictionary oracle, idempotent, thread-invariant")


def test_criterion_4_density_bias_reduction(tmp_path):
    fx = FIXTURES["density_bias"]
    cfg = PipelineConfig(out_dir=str(tmp_path / "run"))
    run_pipeline(cfg)
    from gsocc import formats

    init_set = formats.read_gaussian_set(tmp_path / "run" / "gaussians_init.gsb")
    sampled = formats.read_gaussian_set(tmp_path / "run" / "gaussians_sampled.gsb")
    reduction = 100.0 * (1.0 - len(sampled) / len(init_set))

    def near_far(means):
        d = np.linalg.norm(means, axis=1)
        return float((d < 10.0).sum()) / float((d >= 10.0).sum())

    before, after = near_far(init_set.means), near_far(sampled.means)
    ok = (
        reduction >= 50.0
        and after < before
        and abs(reduction - fx["reduction_pct"]) < 1e-6
        and abs(before - fx["near_far_before"]) < 1e-6
        and abs(after - fx["near_far_after"]) < 1e-6
    )
    report(
        4,
        ok,
        f"reduction {reduction:.2f}% (fixture {fx['reduction_pct']:.2f}%), "
        f"near/far {before:.3f} -> {after:.3f}",
    )


def test_criterion_5_refinement_algebra(rng):
    gs = random_gaussian_set(rng, 1000)
    out = refine_positions(gs, 0.25, np.zeros((1000, 6)))
    exact_zero = np.array_equal(out.means, gs.means)

    w = rng.standard_normal((100_000, 6)) * 6.0
    big = random_gaussian_set(rng, 100_000)
    moved = refine_positions(big, 0.25, w)
    bounded = bool((np.abs(moved.means - big.means) < 0.25).all())

    # The +/- axis rows of delta_max 0.25, in the weight order +x, -x, +y, -y, +z, -z.
    rows = np.empty((6, 3))
    rows[0::2] = np.eye(3) * 0.25
    rows[1::2] = -np.eye(3) * 0.25
    sig = 1.0 / (1.0 + np.exp(-w[:500]))
    oracle = np.zeros((500, 3))
    for i in range(500):
        for k in range(6):
            oracle[i] += sig[i, k] * rows[k]
    agree = float(np.abs((moved.means - big.means)[:500] - oracle).max())
    report(
        5,
        exact_zero and bounded and agree <= 1e-9,
        f"w=0 exact, sup-norm < s_g/2 over 1e5 draws, oracle gap {agree:.1e}",
    )


def test_criterion_6_loss_oracles(rng):
    pred = rng.dirichlet(np.ones(2), size=6)
    worst = 0.0
    for pattern in itertools.product([0, 1], repeat=6):
        gt = np.array(pattern)
        worst = max(worst, abs(lovasz_softmax_loss(pred, gt) - lovasz_oracle(pred, gt.tolist())))
    ce = cross_entropy_loss(np.full((4, 2), 0.5), np.array([0, 1, 0, 1]))
    ce_gap = abs(ce - math.log(2))

    alpha, r = 0.5, 0.8
    gt_map = DepthMap(depth=np.array([[2.0]]), uncertainty=np.array([[1.0]]))

    def loss_of(sigma):
        if sigma <= 0:
            return np.inf
        pred_map = DepthMap(depth=np.array([[2.0 + r]]), uncertainty=np.array([[sigma]]))
        return depth_uncertainty_loss(pred_map, gt_map, alpha_unc=alpha).total

    res = minimize_scalar(loss_of, bracket=(1e-3, 10.0), method="golden",
                          options={"xtol": 1e-10})
    sigma_gap = abs(res.x - alpha / r)
    report(
        6,
        worst <= 1e-6 and ce_gap <= 1e-9 and sigma_gap <= 1e-3,
        f"lovasz oracle gap {worst:.1e}, ln2 gap {ce_gap:.1e}, sigma* gap {sigma_gap:.1e}",
    )


def test_criterion_7_metric_oracles(rng):
    labels = rng.integers(0, 4, size=(16, 16, 8)).astype(np.uint8)
    grid = OccupancyGrid(origin=np.array([-4.0, -4.0, -2.0]), voxel_size=0.5, labels=labels)
    iou, miou, _ = iou_miou(labels, labels)
    from gsocc.core import CameraModel

    cam = CameraModel(fx=8.0, fy=8.0, cx=6.0, cy=6.0, height=12, width=12,
                      rotation=look_rotation(np.array([1.0, 0.13, -0.21])),
                      translation=np.array([-3.7, 0.11, 0.07]))
    rays = ray_iou(grid, grid, [cam], thresholds=(1.0, 2.0, 4.0), stride=2)
    identity_ok = iou == 1.0 and miou == 1.0 and all(v == 1.0 for v in rays.values())

    sparse = (rng.random((32, 32, 16)) < 0.01).astype(np.uint8) * 2
    sparse[3, 3, 3] = 2
    gt32 = OccupancyGrid(origin=np.array([-8.0, -8.0, -4.0]), voxel_size=0.5, labels=sparse)
    gs = random_gaussian_set(rng, 1000, lo=(-9, -9, -5), hi=(9, 9, 5))
    perc, dist = init_quality(gs, gt32)
    centers = gt32.origin + (np.argwhere(sparse != 0) + 0.5) * 0.5
    brute = np.linalg.norm(gs.means[:, None, :] - centers[None, :, :], axis=2).min(axis=1).mean()
    dist_gap = abs(dist - brute)

    occupied = np.argwhere(sparse != 0)[:50]
    placed = dataclasses.replace(
        random_gaussian_set(rng, len(occupied)),
        means=gt32.origin + (occupied + 0.5) * 0.5,
    )
    perc_c, dist_c = init_quality(placed, gt32)
    report(
        7,
        identity_ok and dist_gap <= 1e-6 and perc_c == 100.0 and dist_c == 0.0,
        f"pred=gt metrics all 1, dist vs all-pairs gap {dist_gap:.1e}, "
        f"center-placed ({perc_c:.0f}, {dist_c:.1f})",
    )


def test_criterion_8_end_to_end_sanity(tmp_path):
    fx = FIXTURES["end_to_end"]
    t0 = time.perf_counter()
    cfg = PipelineConfig(out_dir=str(tmp_path / "run"), threads=1, noise_std=0.0)
    assert cfg.grid_dims() == (64, 64, 16)
    summary = run_pipeline(cfg)
    elapsed = time.perf_counter() - t0
    ok = (
        summary["iou"] >= fx["iou_threshold"]
        and summary["miou"] >= fx["miou_threshold"]
        and elapsed < 300.0
    )
    report(
        8,
        ok,
        f"IoU {summary['iou']:.4f} >= {fx['iou_threshold']:.4f}, "
        f"mIoU {summary['miou']:.4f} >= {fx['miou_threshold']:.4f}, {elapsed:.1f}s",
    )


def test_criterion_9_attention_properties(rng):
    ok = True
    for trial in range(100):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(2, 8))
        c = int(rng.integers(2, 8))
        ts = TokenSet(rng.standard_normal((n, k, c)) * 3)
        w = AttentionWeights.random(trial, c)

        rows = attention_rows(ts.tokens[0] @ w.in_wq, ts.tokens[0] @ w.in_wk)
        ok &= bool(np.abs(rows.sum(axis=1) - 1.0).max() <= 1e-6)

        out = alternating_block(ts, w)
        perm = rng.permutation(n)
        out_p = alternating_block(TokenSet(ts.tokens[perm]), w)
        ok &= np.array_equal(out_p.tokens, out.tokens[perm])

        stage1 = in_frame_pass(ts, w)
        bumped = ts.tokens.copy()
        bumped[n - 1] += 1.0
        stage1_b = in_frame_pass(TokenSet(bumped), w)
        ok &= all(np.array_equal(stage1[i], stage1_b[i]) for i in range(n - 1))
        if not ok:
            break
    report(9, ok, "100 token sets: stochastic rows, exact equivariance, exact view-locality")


def test_criterion_10_sampling_performance(rng):
    n = 1_000_000
    gs = random_gaussian_set(rng, n, lo=(-16, -16, -4), hi=(16, 16, 4))
    spec = VoxelGridSpec(min_corner=np.array([-16.0, -16.0, -4.0]),
                         max_corner=np.array([16.0, 16.0, 4.0]), grid_size=0.5)
    t0 = time.perf_counter()
    keys = voxel_keys(gs.means, spec)
    sampled = sample_representatives(gs, spec, seed=0, n_workers=1)
    elapsed = time.perf_counter() - t0
    assert (keys != OUT_OF_BOUNDS).all()
    report(
        10,
        elapsed < 2.0 and len(sampled) > 0,
        f"voxelize+sort+sample of 1e6 Gaussians in {elapsed:.3f}s "
        f"({n / elapsed / 1e6:.1f}M/s), {len(sampled)} kept",
    )
