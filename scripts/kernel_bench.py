#!/usr/bin/env python3
"""Time the pipeline's inner kernels on the benchmark workloads.

Runs `run_pipeline` once per workload config of `pipebench/run.py` at seed
7 in a temporary directory and reads the kernels' inputs from its files.
Each kernel of KERNELS runs on its own workload, or on W with
`--workload W`: the cast `synth.ray_hit_classes` of every camera with its
pixel grid, the init stage `pipeline.write_cast` with its commit (as
`run_pipeline` runs it, each call over the previous call's files), the keying
`sampling.voxel_keys` (with the config's threads),
`sampling.sample_indices` and Perc./Dist. of the init means
(`metrics.init_quality`) on dense-rig, `render_grid` and the occupancy
losses (as eval-loss calls them) on fine-grid, and `metrics.first_hits`,
the RayIoU march, on hires-rays. It prints the sizes of each run, then per
kernel the median and quartiles of CALLS calls, the tracemalloc peak of one
more call (the call alone: its inputs are built before tracing and its
digest after), a SHA-256 of the result (of gaussians_init.gsb for
write_cast) and a loss's value, and last the machine, so that two checkouts
can be compared for speed, memory and bitwise equality:

    python3 scripts/kernel_bench.py
    python3 scripts/kernel_bench.py render_grid first_hits
    python3 scripts/kernel_bench.py --workload fine-grid write_cast

BLAS is pinned to one thread, as in pipebench.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import platform  # noqa: E402
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

from gsocc import formats, synth  # noqa: E402
from gsocc.losses import cross_entropy_loss, lovasz_softmax_loss  # noqa: E402
from gsocc.metrics import camera_rays, first_hits, init_quality  # noqa: E402
from gsocc.pipeline import PipelineConfig, _run_stage, run_pipeline, write_cast  # noqa: E402
from gsocc.render import render_grid  # noqa: E402
from gsocc.sampling import sample_indices, voxel_keys  # noqa: E402

CALLS = 15


class Run:
    """The kernel inputs of one `run_pipeline` of `config`, read from the
    files it writes to `config.out_dir`."""

    def __init__(self, config: PipelineConfig):
        run_pipeline(config)
        out, c = Path(config.out_dir), config.num_classes
        self.config = config
        self.scene = synth.SceneSpec.from_json((out / "scene.json").read_text(), c)
        self.init = formats.read_gaussian_means(out / "gaussians_init.gsb")
        self.refined = formats.read_gaussian_set(out / "gaussians_refined.gsb")
        self.pred = formats.read_occupancy(out / "pred.occ", c)
        self.gt = formats.read_occupancy(out / "gt.occ", c)
        self.grid = config.grid_dims(), np.asarray(config.extents_min, float), config.voxel_size
        self.probs = render_grid(self.refined, *self.grid).probs
        self.rays = camera_rays(config.cameras(), config.ray_stride)
        self.cast_dir = out / "cast"
        self.cast_dir.mkdir()
        pixels = sum(cam.height * cam.width for cam in config.cameras())
        self.sizes = (
            f"{pixels} rig pixels, {len(self.init)} Gaussians, {len(self.refined)} sampled,"
            f" {config.threads} threads; {len(self.rays[1])} rays; grid {self.gt.dims},"
            f" {self.probs.shape[-1]} channels, field {self.probs.nbytes / 2**20:.1f} MiB"
        )

    def rows(self) -> tuple:
        """The rendered probabilities and labels as eval-loss passes them."""
        return self.probs.reshape(-1, self.probs.shape[-1]), self.gt.labels.reshape(-1)


def _bytes(*arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


def cast_rig(scene, views) -> list:
    """synth.ray_hit_classes of each (origin, pixel rays, (H, W) grid) of
    `views`: the (depths, classes) of every camera's cast."""
    return [synth.ray_hit_classes(scene, *view) for view in views]


def init_stage(config, scene, out_dir) -> tuple:
    """The init stage as `run_pipeline` runs it: `write_cast` into partial
    files, committed over the previous call's files in `out_dir`."""
    return _run_stage("init", out_dir, lambda stage: write_cast(config, scene, stage.path))


def rig_views(run: Run) -> tuple:
    """The scene and the (origin, pixel rays, grid) of each camera of `run`."""
    cams = run.config.cameras()
    return run.scene, [(cam.origin, cam.pixel_rays(), (cam.height, cam.width)) for cam in cams]


# name: (default workload, kernel, its arguments from a Run, the bytes its
# digest covers from the Run and the kernel's result)
KERNELS = {
    "ray_hit_classes": ("dense-rig", cast_rig, rig_views,
                        lambda r, casts: _bytes(*(a for cast in casts for a in cast))),
    "write_cast": ("dense-rig", init_stage, lambda r: (r.config, r.scene, r.cast_dir),
                   lambda r, out: (r.cast_dir / "gaussians_init.gsb").read_bytes()),
    "voxel_keys": ("dense-rig", voxel_keys,
                   lambda r: (r.init.means, r.config.sampling_spec(), r.config.threads),
                   lambda r, keys: keys.astype("<u8").tobytes()),
    "sample_indices": ("dense-rig", sample_indices,
                       lambda r: (r.init.means, r.config.sampling_spec(), r.config.seed,
                                  r.config.threads),
                       lambda r, rows: rows.astype("<i8").tobytes()),
    "init_quality": ("dense-rig", init_quality, lambda r: (r.init, r.gt),
                     lambda r, out: _bytes(np.array(out))),
    "render_grid": ("fine-grid", render_grid,
                    lambda r: (r.refined, *r.grid),
                    lambda r, grid: _bytes(grid.probs, grid.labels)),
    "cross_entropy_loss": ("fine-grid", cross_entropy_loss, Run.rows, lambda r, v: _bytes(v)),
    "lovasz_softmax_loss": ("fine-grid", lovasz_softmax_loss, Run.rows, lambda r, v: _bytes(v)),
    "first_hits": ("hires-rays", first_hits,
                   lambda r: ([r.pred.labels, r.gt.labels], r.pred.origin, r.pred.voxel_size,
                              *r.rays),
                   lambda r, out: _bytes(*out)),
}


def measure(fn, args) -> tuple:
    """(call times in s, tracemalloc peak in bytes, result) of CALLS timed
    calls of `fn(*args)` and one more traced call, whose result it returns."""
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
    return times, peak, out


def main(argv=None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kernels", nargs="*", metavar="KERNEL",
                        help=f"kernels to run (default: all of {', '.join(KERNELS)})")
    parser.add_argument("--workload", choices=sorted(workloads),
                        help="run every kernel on this workload instead of its own")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.kernels) - set(KERNELS))
    if unknown:
        parser.error(f"unknown kernels {unknown}; choose from {', '.join(KERNELS)}")
    groups = {}
    for name in args.kernels or KERNELS:
        groups.setdefault(args.workload or KERNELS[name][0], []).append(name)
    with tempfile.TemporaryDirectory() as tmp:
        for workload, names in groups.items():
            doc = {**workloads[workload], "seed": SEED, "out_dir": str(Path(tmp) / workload)}
            run = Run(PipelineConfig.from_dict(doc))
            print(f"workload {workload} seed {SEED}: {run.sizes}")
            for name in names:
                _, fn, inputs, digested = KERNELS[name]
                times, peak, out = measure(fn, inputs(run))
                # The "weibull" quartiles are statistics.quantiles' default
                # ones, and they are defined for a single call too.
                q1, median, q3 = np.percentile(times, [25, 50, 75], method="weibull") * 1e3
                value = f"; value {float(out)!r}" if isinstance(out, float) else ""
                print(f"{name} over {CALLS} calls: median {median:.2f} ms (Q1 {q1:.2f},"
                      f" Q3 {q3:.2f}); tracemalloc peak {peak / 2**20:.1f} MiB;"
                      f" sha256 {hashlib.sha256(digested(run, out)).hexdigest()}{value}")
            del run
    print(f"nproc {os.cpu_count()}, Python {platform.python_version()}, numpy {np.__version__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
