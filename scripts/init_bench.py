#!/usr/bin/env python3
"""Time the init stage and the grid-sampling kernel on a benchmark workload.

Generates the scene of a workload config of `pipebench/run.py` (dense-rig by
default, seed 7) and, in a temporary directory, calls `pipeline.write_cast`,
the pipeline's init stage (cast each camera, write its depth map, append its
Gaussians to gaussians_init.gsb, add its depth-loss terms), 15 times. Then
it calls `sampling.sample_indices` (voxel keys, their sort and the draw of
one Gaussian per occupied voxel) on the init set's means 15 times, with the
workload's threads. It prints, per function, the median and quartiles of the
call times and the tracemalloc peak of one more call (measured apart from
the timed calls), the machine (nproc, Python and numpy versions) and a
SHA-256 of the init file and of the sampled rows, so that two checkouts can
be compared for speed, memory and bitwise equality:

    python3 scripts/init_bench.py
    python3 scripts/init_bench.py --workload hires-rays

BLAS is pinned to one thread, as in pipebench.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "scripts"))

import numpy as np  # noqa: E402
from artifact_digests import SEED, load_workloads  # noqa: E402

from gsocc import synth  # noqa: E402
from gsocc.pipeline import PipelineConfig, write_cast  # noqa: E402
from gsocc.sampling import sample_indices  # noqa: E402

CALLS = 15


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
    parser.add_argument("--workload", default="dense-rig", choices=sorted(load_workloads()))
    args = parser.parse_args(argv)
    config = PipelineConfig.from_dict({**load_workloads()[args.workload], "seed": SEED})
    scene = synth.generate_scene(config)
    spec = config.sampling_spec()
    with tempfile.TemporaryDirectory() as tmp:
        (init_set, _), init_times, init_peak = measure(
            write_cast, config, scene, Path(tmp).joinpath
        )
        init_digest = hashlib.sha256((Path(tmp) / "gaussians_init.gsb").read_bytes()).hexdigest()
    rows, sample_times, sample_peak = measure(
        sample_indices, init_set.means, spec, config.seed, config.threads
    )
    pixels = sum(cam.height * cam.width for cam in config.cameras())
    print(f"workload {args.workload} seed {SEED}: {pixels} rig pixels, "
          f"{len(init_set)} Gaussians, {len(rows)} sampled, {config.threads} threads")
    for name, times, peak in (
        ("write_cast", init_times, init_peak),
        ("sample_indices", sample_times, sample_peak),
    ):
        q1, median, q3 = statistics.quantiles(times, n=4)
        print(f"{name} over {CALLS} calls: median {median * 1e3:.2f} ms "
              f"(Q1 {q1 * 1e3:.2f}, Q3 {q3 * 1e3:.2f}); tracemalloc peak "
              f"{peak / 2**20:.1f} MiB ({peak / pixels:.1f} B per rig pixel)")
    print(f"nproc {os.cpu_count()}, Python {platform.python_version()}, numpy {np.__version__}")
    print(f"init file sha256 {init_digest}")
    print(f"sampled rows sha256 {hashlib.sha256(rows.astype('<i8').tobytes()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
