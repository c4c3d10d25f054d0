"""Artifacts that do not depend on the machine's BLAS kernel or numpy's SIMD
dispatch.

Runs the hires-rays and fine-grid benchmark workloads at seed 7 in fresh
interpreters, BLAS on one thread: under the default BLAS kernel, under
OpenBLAS's generic Prescott kernel (`OPENBLAS_CORETYPE`) and, where numpy
dispatches AVX-512 targets on this host, with those targets disabled
(`NPY_DISABLE_CPU_FEATURES`). Each variant's files are compared with the
default run's, digest by digest, and the set of files that differ must be
exactly the known one, so a new dependence shows and a mended one does too.
"""

import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
WORKLOADS = ("hires-rays", "fine-grid")
VARIANT_VARS = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")

# Runs each config of argv[1] and prints numpy's dispatch targets in use.
CHILD = (
    "import json, sys\n"
    "import numpy\n"
    "from gsocc.pipeline import PipelineConfig, run_pipeline\n"
    "umath = (numpy._core if hasattr(numpy, '_core') else numpy.core)._multiarray_umath\n"
    "for doc in json.loads(sys.argv[1]):\n"
    "    run_pipeline(PipelineConfig.from_dict(doc))\n"
    "print(json.dumps([t for t in umath.__cpu_dispatch__ if umath.__cpu_features__[t]]))\n"
)


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        return "unknown"


# The dispatch targets above AVX2 that numpy would use on this host (numpy 2
# moved its dispatch tables from numpy.core to numpy._core).
UMATH = (np._core if hasattr(np, "_core") else np.core)._multiarray_umath
AVX512 = [
    t for t in UMATH.__cpu_dispatch__
    if UMATH.__cpu_features__[t] and ("AVX512" in t or t == "X86_V4")
]


@pytest.fixture(scope="module")
def artifact_digests():
    """scripts/artifact_digests.py, imported without writing bytecode."""
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec = importlib.util.spec_from_file_location(
            "artifact_digests", ROOT / "scripts" / "artifact_digests.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def run_variant(artifact_digests, out: Path, **variant) -> tuple:
    """({(workload, file): sha256}, dispatch targets in use) of the
    workloads run in one fresh interpreter under the `variant` variables."""
    workloads = artifact_digests.load_workloads()
    docs = [
        {**workloads[name], "seed": SEED, "out_dir": str(out / name)} for name in WORKLOADS
    ]
    env = {k: v for k, v in os.environ.items() if k not in VARIANT_VARS}
    env.update(variant, PYTHONPATH=str(ROOT / "src"))
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(docs)],
        env=env, capture_output=True, text=True, check=False,
    )
    assert done.returncode == 0, done.stderr
    files = {}
    for name in WORKLOADS:
        for line in artifact_digests.digests(name, out / name):
            workload, file, digest = line.split(" ")
            files[workload, file] = digest
    return files, json.loads(done.stdout.splitlines()[-1])


def differing(a: dict, b: dict) -> set:
    return {k for k in a.keys() | b.keys() if a.get(k) != b.get(k)}


@pytest.fixture(scope="module")
def default_run(artifact_digests, tmp_path_factory):
    return run_variant(artifact_digests, tmp_path_factory.mktemp("default"))


@pytest.mark.skipif(
    "openblas" not in _blas_name().lower() or platform.machine() not in ("x86_64", "AMD64"),
    reason="OPENBLAS_CORETYPE selects a kernel only in OpenBLAS on x86-64; "
    f"numpy's BLAS here is {_blas_name()} on {platform.machine()}",
)
def test_only_the_fine_grid_ray_products_follow_the_blas_kernel(
    artifact_digests, default_run, tmp_path
):
    # fine-grid's gradient_term still comes from the 3x3 BLAS products of
    # the ray path; the Lovasz sum no longer goes through BLAS.
    files, _ = run_variant(artifact_digests, tmp_path, OPENBLAS_CORETYPE="Prescott")
    assert differing(default_run[0], files) == {("fine-grid", "losses.json")}


@pytest.mark.skipif(not AVX512, reason="numpy dispatches no AVX-512 target on this host")
def test_no_artifact_follows_numpys_avx512_dispatch(artifact_digests, default_run, tmp_path):
    assert set(AVX512) <= set(default_run[1])
    files, in_use = run_variant(
        artifact_digests, tmp_path, NPY_DISABLE_CPU_FEATURES=" ".join(AVX512)
    )
    assert not set(AVX512) & set(in_use)
    assert differing(default_run[0], files) == set()
