#!/usr/bin/env python3
"""Print the peak RSS of one pipeline run at each of several rig sizes, and
how fast it grows per rig pixel.

For each camera resolution it runs `run_pipeline` once on the dense-rig
workload config of `pipebench/run.py` (1 m voxels, ray stride 32, 2 threads)
at seed 7, with the resolution replaced, in a fresh interpreter that imports
this checkout's src/, and reads that process's `ru_maxrss`. BLAS is pinned
to one thread, as in pipebench. The slope is the least-squares fit of peak
bytes against rig pixels (six cameras each):

    python3 scripts/peak_memory.py
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

from artifact_digests import SEED, load_workloads  # noqa: E402

SIZES = ((96, 128), (192, 256), (384, 512), (768, 512))
CAMERAS = 6
CONFIG = {**load_workloads()["dense-rig"], "seed": SEED}

CHILD = (
    "import json, resource, sys\n"
    "from gsocc.pipeline import PipelineConfig, run_pipeline\n"
    "run_pipeline(PipelineConfig.from_dict(json.loads(sys.argv[1])))\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
)


def peak_kib(resolution) -> int:
    """ru_maxrss (KiB on Linux) of a fresh process that runs the pipeline once."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    with tempfile.TemporaryDirectory() as out:
        doc = {**CONFIG, "resolution": list(resolution), "out_dir": out}
        done = subprocess.run(
            [sys.executable, "-c", CHILD, json.dumps(doc)],
            env=env, capture_output=True, text=True, check=True,
        )
    return int(done.stdout.split()[-1])


def main():
    pixels, peaks = [], []
    for h, w in SIZES:
        pixels.append(CAMERAS * h * w)
        peaks.append(peak_kib((h, w)) * 1024)
        print(f"{h}x{w}: {pixels[-1]} rig pixels, peak {peaks[-1] / 2**20:.1f} MiB", flush=True)
    mx, my = sum(pixels) / len(pixels), sum(peaks) / len(peaks)
    slope = sum((x - mx) * (y - my) for x, y in zip(pixels, peaks)) / sum(
        (x - mx) ** 2 for x in pixels
    )
    print(f"slope: {slope:.1f} bytes per rig pixel")


if __name__ == "__main__":
    main()
