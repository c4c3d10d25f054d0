#!/usr/bin/env python3
"""Time the render and the occupancy losses on a benchmark workload.

Runs `run_pipeline` once on a workload config of `pipebench/run.py`
(fine-grid by default, seed 7) in a temporary directory, then calls
`render.render_grid` on that run's refined set (`gaussians_refined.gsb`),
and `losses.cross_entropy_loss` and `losses.lovasz_softmax_loss` on the
rendered probabilities against the run's `gt.occ` labels, as `eval-loss`
does, 15 times each. It prints, per function, the median and quartiles of
the call times and the tracemalloc peak of one more call (measured apart
from the timed calls), the machine (nproc, Python and numpy versions) and a
SHA-256 of the probabilities (in (X, Y, Z, C+1) C order), the labels and
the two loss values, so that two checkouts can be compared for speed,
memory and bitwise equality:

    python3 scripts/splat_bench.py
    python3 scripts/splat_bench.py --workload dense-rig
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
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "scripts"))

import numpy as np  # noqa: E402
from artifact_digests import SEED, load_workloads  # noqa: E402

from gsocc import formats  # noqa: E402
from gsocc.losses import cross_entropy_loss, lovasz_softmax_loss  # noqa: E402
from gsocc.pipeline import PipelineConfig, run_pipeline  # noqa: E402
from gsocc.render import render_grid  # noqa: E402


CALLS = 15


def splat_inputs(workload: str) -> tuple:
    """The config, refined set and ground-truth labels of one pipeline run
    of `workload`."""
    with tempfile.TemporaryDirectory() as tmp:
        doc = {**load_workloads()[workload], "seed": SEED, "out_dir": tmp}
        config = PipelineConfig.from_dict(doc)
        run_pipeline(config)
        gs = formats.read_gaussian_set(Path(tmp) / "gaussians_refined.gsb")
        gt = formats.read_occupancy(Path(tmp) / "gt.occ", config.num_classes)
    return config, gs, gt.labels.reshape(-1)


def measure(fn, *args) -> tuple:
    """(result, call times in s, tracemalloc peak in bytes) of `fn(*args)`."""
    times = []
    for _ in range(CALLS):
        start = time.perf_counter()
        out = fn(*args)
        times.append(time.perf_counter() - start)
        del out
    tracemalloc.start()
    out = fn(*args)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return out, times, peak


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="fine-grid", choices=sorted(load_workloads()))
    args = parser.parse_args(argv)
    config, gs, gt = splat_inputs(args.workload)
    origin = np.asarray(config.extents_min, dtype=np.float64)
    grid, render_times, render_peak = measure(
        render_grid, gs, config.grid_dims(), origin, config.voxel_size
    )
    rows = grid.probs.reshape(-1, grid.probs.shape[-1])
    ce, ce_times, ce_peak = measure(cross_entropy_loss, rows, gt)
    lov, lov_times, lov_peak = measure(lovasz_softmax_loss, rows, gt)
    field_bytes = grid.probs.nbytes
    print(f"workload {args.workload} seed {SEED}: {len(gs)} Gaussians, "
          f"grid {grid.dims}, {grid.probs.shape[-1]} channels, "
          f"field {field_bytes / 2**20:.1f} MiB")
    for name, times, peak in (
        ("render_grid", render_times, render_peak),
        ("cross_entropy_loss", ce_times, ce_peak),
        ("lovasz_softmax_loss", lov_times, lov_peak),
    ):
        q1, median, q3 = statistics.quantiles(times, n=4)
        print(f"{name} over {CALLS} calls: median {median * 1e3:.2f} ms "
              f"(Q1 {q1 * 1e3:.2f}, Q3 {q3 * 1e3:.2f}); tracemalloc peak "
              f"{peak / 2**20:.1f} MiB ({peak / field_bytes:.2f}x the field)")
    print(f"nproc {os.cpu_count()}, Python {platform.python_version()}, numpy {np.__version__}")
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(grid.probs).tobytes())
    digest.update(np.ascontiguousarray(grid.labels).tobytes())
    digest.update(np.array([ce, lov]).tobytes())
    print(f"losses ce {ce!r} lovasz {lov!r}")
    print(f"output sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
