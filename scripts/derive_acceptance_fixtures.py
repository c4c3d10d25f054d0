#!/usr/bin/env python3
"""Derive and freeze the acceptance fixture values.

Two committed quantities come from reference runs rather than closed forms:

  * the grid-sampling reduction on the canonical surround-rig scene, and the
    near/far Gaussian ratios before and after sampling (density-bias check);
  * the end-to-end IoU / mIoU of the reference pipeline, where the final
    rendering uses the all-pairs brute-force renderer; the committed
    acceptance thresholds are those values minus 2 percentage points.

Run from the repository root:  python3 scripts/derive_acceptance_fixtures.py
It prints the derived document as JSON and writes no file, so reading a
derived value never touches the frozen fixture. A deliberate refresh of
tests/fixtures/acceptance_thresholds.json is a shell redirect, done by hand:

    python3 scripts/derive_acceptance_fixtures.py > tests/fixtures/acceptance_thresholds.json
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from gsocc import formats, metrics
from gsocc.pipeline import PipelineConfig, run_pipeline
from gsocc.render import render_grid_bruteforce
from gsocc.sampling import sample_representatives

CANONICAL = PipelineConfig()  # seed 0, surround6, 0.5 m cells, noiseless


def near_far_ratio(means, radius=10.0):
    d = np.linalg.norm(means, axis=1)
    near = int((d < radius).sum())
    far = int((d >= radius).sum())
    return near / far


def derive():
    with tempfile.TemporaryDirectory() as tmp:
        cfg = PipelineConfig(out_dir=str(Path(tmp) / "run"))
        summary = run_pipeline(cfg)
        out = Path(cfg.out_dir)

        init_set = formats.read_gaussian_set(out / "gaussians_init.gsb")
        sampled = sample_representatives(init_set, cfg.sampling_spec(), cfg.seed)
        reduction_pct = 100.0 * (1.0 - len(sampled) / len(init_set))

        refined = formats.read_gaussian_set(out / "gaussians_refined.gsb")
        gt = formats.read_occupancy(out / "gt.occ", cfg.num_classes)
        pred = render_grid_bruteforce(
            refined, cfg.grid_dims(), np.asarray(cfg.extents_min), cfg.voxel_size
        )
        iou, miou, _ = metrics.iou_miou(pred.labels, gt.labels)

    doc = {
        "density_bias": {
            "initial_count": len(init_set),
            "sampled_count": len(sampled),
            "reduction_pct": reduction_pct,
            "near_far_before": near_far_ratio(init_set.means),
            "near_far_after": near_far_ratio(sampled.means),
        },
        "end_to_end": {
            "reference_iou": iou,
            "reference_miou": miou,
            "iou_threshold": iou - 0.02,
            "miou_threshold": miou - 0.02,
        },
        "pipeline_summary": summary,
    }
    return doc


def main() -> None:
    print(json.dumps(derive(), indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
