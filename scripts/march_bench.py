#!/usr/bin/env python3
"""Time the RayIoU ray march, `metrics.first_hits`, on a benchmark workload.

Runs `run_pipeline` once on a workload config of `pipebench/run.py`
(hires-rays by default, seed 7) in a temporary directory, then calls
`first_hits` 15 times on that run's `pred.occ` and `gt.occ` and the rays
`metrics.ray_iou` casts for them (`metrics.camera_rays`). It prints the
median and quartiles of the call times, the machine (nproc, Python and
numpy versions) and a SHA-256 of the returned arrays, so that two checkouts
can be compared for speed and bitwise equality:

    python3 scripts/march_bench.py
    python3 scripts/march_bench.py --workload fine-grid
"""

from __future__ import annotations

import argparse
import hashlib
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "scripts"))

import numpy as np  # noqa: E402
from artifact_digests import SEED, load_workloads  # noqa: E402

from gsocc import formats  # noqa: E402
from gsocc.metrics import camera_rays, first_hits  # noqa: E402
from gsocc.pipeline import PipelineConfig, run_pipeline  # noqa: E402


CALLS = 15


def march_inputs(workload: str) -> tuple:
    """The first_hits arguments of one pipeline run of `workload`."""
    with tempfile.TemporaryDirectory() as tmp:
        doc = {**load_workloads()[workload], "seed": SEED, "out_dir": tmp}
        config = PipelineConfig.from_dict(doc)
        run_pipeline(config)
        pred = formats.read_occupancy(Path(tmp) / "pred.occ", config.num_classes)
        gt = formats.read_occupancy(Path(tmp) / "gt.occ", config.num_classes)
    o, v = camera_rays(config.cameras(), config.ray_stride)
    return [pred.labels, gt.labels], pred.origin, pred.voxel_size, o, v


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="hires-rays", choices=sorted(load_workloads()))
    args = parser.parse_args(argv)
    inputs = march_inputs(args.workload)
    times = []
    for _ in range(CALLS):
        start = time.perf_counter()
        out = first_hits(*inputs)
        times.append(time.perf_counter() - start)
    q1, median, q3 = statistics.quantiles(times, n=4)
    digest = hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in out)).hexdigest()
    print(f"workload {args.workload} seed {SEED}: {len(inputs[3])} rays, "
          f"grids {inputs[0][0].shape}")
    print(f"first_hits over {CALLS} calls: median {median * 1e3:.2f} ms "
          f"(Q1 {q1 * 1e3:.2f}, Q3 {q3 * 1e3:.2f})")
    print(f"nproc {os.cpu_count()}, Python {platform.python_version()}, numpy {np.__version__}")
    print(f"output sha256 {digest}")
    return 0

if __name__ == "__main__":
    sys.exit(main())
