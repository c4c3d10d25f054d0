#!/usr/bin/env python3
"""Pipeline benchmark for gsocc.

    python3 pipebench/run.py --workload hires-rays --seed 7 --seconds 35 --trace 0

Runs `gsocc.pipeline.run_pipeline` on one named workload in a closed loop, one
run at a time, for `--seconds` seconds (the first run warms up and is not
timed), and checks the output of every run. With `--trace 0` it reports the end-to-end metrics; with
`--trace 1` it alternates untraced and traced runs and reports per-layer self
time and work counts from spans recorded around each layer's public functions
(see spans.py). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, with the metric names and units
of BENCHMARK.json. The full record, environment included, goes to
pipebench/results/. README.md in this directory says why each workload exists.
"""

from __future__ import annotations

import os

# The BLAS pool is pinned to one thread before numpy loads, so the pipeline's
# own worker threads plus BLAS never exceed the two cores the workloads target.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import ROOT_SPAN, Tracer, layer_names, layer_table  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "work"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 7
SETUP_MIN = 5

# Fields beyond these are PipelineConfig defaults; the seed comes from --seed.
WORKLOADS = {
    # RayIoU per-ray march dominates: 18 432 rays at stride 4.
    "hires-rays": {
        "resolution": [192, 256], "ray_stride": 4, "voxel_size": 0.5,
        "refine": "zero", "threads": 1,
    },
    # Gaussian-to-voxel splatting dominates: a 128x128x32 grid, few rays;
    # also the oracle-snap refine provider and the noisy-depth path.
    "fine-grid": {
        "resolution": [96, 128], "voxel_size": 0.25, "grid_size": 0.25,
        "ray_stride": 16, "refine": "oracle-snap", "noise_std": 0.05,
    },
    # Synthetic ray casting, init, GSB I/O and sampling of 614k Gaussians;
    # the only workload with pipeline worker threads.
    "dense-rig": {
        "resolution": [384, 512], "voxel_size": 1.0, "ray_stride": 32, "threads": 2,
    },
}

# What a user of the CLI pays before any stage runs.
SETUP_CHILD = (
    "import json, sys\n"
    "from gsocc.pipeline import PipelineConfig\n"
    "PipelineConfig.from_dict(json.loads(sys.argv[1])).cameras()\n"
)

SUMMARY_RATIOS = ("iou", "miou", "rayiou")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import gsocc from this checkout's src/, never from an installed copy."""
    if not (SRC / "gsocc" / "__init__.py").is_file():
        raise SystemExit(f"error: no gsocc package under {SRC}")
    sys.path.insert(0, str(SRC))
    import gsocc

    if SRC not in Path(gsocc.__file__).resolve().parents:
        raise SystemExit(f"error: gsocc imported from {gsocc.__file__}, not {SRC}")
    return gsocc


def config_doc(workload: str, seed: int, out_dir: Path) -> dict:
    return {**WORKLOADS[workload], "seed": seed, "out_dir": str(out_dir)}


def measure_setup(doc: dict) -> float:
    """Wall time of a fresh interpreter that imports gsocc (numpy and scipy
    with it) and builds the workload's PipelineConfig and cameras. No timeout:
    a wait with one polls in steps of up to 50 ms, which would quantize it."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, json.dumps(doc)],
        env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=ROOT, check=True,
    )
    return time.perf_counter() - t0


def check_summary(summary: dict, digest: str, first: tuple | None, reference) -> list[str]:
    """Problems with one run's output; empty when the run is correct."""
    problems = []
    counts = {k: summary[k] for k in ("sampled_count", "distinct_occupied_voxels", "refined_count")}
    if len(set(counts.values())) != 1:
        problems.append(f"sampled/distinct/refined counts differ: {counts}")
    for key in SUMMARY_RATIOS:
        v = summary[key]
        if not (isinstance(v, float) and math.isfinite(v) and 0.0 <= v <= 1.0):
            problems.append(f"{key}={v!r} is not a finite ratio in [0, 1]")
    if first is not None and (summary, digest) != first:
        problems.append("summary or pred.occ differs from the first run with this seed")
    if reference is not None:
        for key, want in reference.items():
            got = summary.get(key)
            same = (
                math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
                if isinstance(want, float) and isinstance(got, float)
                else got == want
            )
            if not same:
                problems.append(f"{key}={got!r} differs from the reference {want!r}")
    return problems


def tail(samples: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    rank = n - 10
    return {
        "value": sorted(samples)[rank - 1], "unit": "s",
        "percentile": 100.0 * rank / n, "rank": rank, "samples": n,
    }


def git_commit() -> str:
    """HEAD of this checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, np, scipy) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
        "pipeline_threads": WORKLOADS[args.workload].get("threads", 1),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def declared_metrics(trace: int) -> dict:
    """{name: unit} of the metrics BENCHMARK.json declares for this mode."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def per_layer_metrics(tables: list[dict], summary: dict, untraced: list, traced: list) -> dict:
    """Median over traced runs of each layer's self time, calls and work counts."""
    for t in tables:
        march = t.get("metrics.ray_iou")
        if march and march["total_s"] > 0:
            march["rays_per_s"] = march["rays"] / march["total_s"]
        sample = t.get("sampling.sample_representatives")
        if sample and sample["gaussians_in"] > 0:
            sample["kept_ratio"] = sample["kept"] / sample["gaussians_in"]
    out = {}
    for name in sorted(set(layer_names()).union(*tables)):
        keys = {"self_s", "calls"}.union(*(t.get(name, {}) for t in tables)) - {"total_s"}
        for key in sorted(keys):
            out[f"{name}.{key}"] = statistics.median(t.get(name, {}).get(key, 0) for t in tables)
    for key in SUMMARY_RATIOS:
        out[f"metrics.evaluate.{key}"] = summary[key]
    out["pipeline_s_traced"] = statistics.median(traced)
    out["trace_overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    gsocc = import_package()
    import numpy as np
    import scipy

    declared = declared_metrics(args.trace)
    reference = None
    if args.seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text())[args.workload]

    work = WORK / f"{args.workload}-{os.getpid()}"
    doc = config_doc(args.workload, args.seed, work)
    config = gsocc.PipelineConfig.from_dict(doc)

    tracer = Tracer()
    untraced, traced, tables, failures, setup = [], [], [], [], []
    first = None
    attempted = 0
    try:
        start = time.perf_counter()
        # Run 0 warms caches and is not timed; trace mode alternates untraced
        # (odd) and traced (even) runs after it. Each kind is timed at least once.
        min_runs = 3 if args.trace else 2
        while attempted < min_runs or time.perf_counter() - start < args.seconds:
            trace_this = args.trace and attempted > 0 and attempted % 2 == 0
            attempted += 1
            if not args.trace:
                # Spread over the run, so a slow spell on a shared machine
                # does not land on every set-up sample at once.
                setup.append(measure_setup(doc))
            try:
                if trace_this:
                    with tracer.installed(), tracer.span(ROOT_SPAN) as root:
                        summary = gsocc.run_pipeline(config)
                    elapsed = root.end - root.start
                else:
                    t0 = time.perf_counter()
                    summary = gsocc.run_pipeline(config)
                    elapsed = time.perf_counter() - t0
                digest = hashlib.sha256((work / "pred.occ").read_bytes()).hexdigest()
            except Exception as e:  # a failed run is counted, not fatal
                failures.append(f"run {attempted - 1}: {type(e).__name__}: {e}")
                continue
            problems = check_summary(summary, digest, first, reference)
            if first is None:
                first = (summary, digest)
            if problems:
                failures.append(f"run {attempted - 1}: " + "; ".join(problems))
                continue
            if attempted == 1:
                continue
            if trace_this:
                traced.append(elapsed)
                tables.append(layer_table(tracer.spans, root))
            else:
                untraced.append(elapsed)
        while not args.trace and len(setup) < SETUP_MIN:
            setup.append(measure_setup(doc))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORK.rmdir()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if not untraced or (args.trace and not traced):
        print("\n".join(failures) or "no timed run completed", file=sys.stderr)
        return 1
    if args.trace:
        values = per_layer_metrics(tables, first[0], untraced, traced)
    else:
        values = {
            "pipeline_s": statistics.median(untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
    missing = sorted(set(declared) - set(values))
    if missing:
        print(f"error: metrics declared but not measured: {missing}", file=sys.stderr)
        return 1

    record = {
        "environment": environment(args, np, scipy),
        "config": doc,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "error_rate": len(failures) / attempted,
        "summary": first[0] if first else None,
        "pipeline_s_samples": untraced,
        "pipeline_s_tail": tail(untraced),
        "pipeline_s_traced_samples": traced,
        "setup_s_samples": setup,
        "peak_rss_mb": peak_rss_mb,
        "metrics": values,
        "layers": tables,
        "work_counts": "computed from array sizes and file layouts, not measured",
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2))
    if args.trace:
        tracer.dump(RESULTS / f"{stem}-spans.json")

    print(f"workload {args.workload} seed {args.seed}: {attempted} runs "
          f"({len(untraced)} timed, {len(traced)} traced, 1 warm-up), "
          f"{len(failures)} failed")
    for line in failures:
        print(f"  FAILED {line}")
    if args.trace:
        share = sorted((v, k) for k, v in values.items() if k.endswith(".self_s"))[::-1]
        print("  largest self time: " + ", ".join(
            f"{k.removesuffix('.self_s')} {v:.3f} s ({100 * v / values['pipeline_s_traced']:.0f}%)"
            for v, k in share[:5]))
    else:
        print(f"  pipeline_s median {values['pipeline_s']:.4f} s over {len(untraced)} runs; "
              f"tail {record['pipeline_s_tail'] or 'omitted (needs >= 11 runs)'}")
        print(f"  quality iou {first[0]['iou']:.4f} miou {first[0]['miou']:.4f} "
              f"rayiou {first[0]['rayiou']:.4f}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
