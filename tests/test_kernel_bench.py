"""The kernel benchmark still fits the package.

`scripts/kernel_bench.py` imports the kernels it times by name and builds
their arguments from the files of a pipeline run, so renaming a kernel or
changing its arguments in the package breaks the script without failing
any other test. This runs every kernel once, twice over, on the smallest
benchmark workload.
"""

import importlib.util
import os
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def kernel_bench(monkeypatch):
    """scripts/kernel_bench.py with CALLS = 1, imported without writing
    bytecode; the import path and the BLAS variables it sets are restored
    afterwards."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("kernel_bench", ROOT / "scripts" / "kernel_bench.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "CALLS", 1)
    return module


def kernel_digests(kernel_bench, capsys) -> dict:
    """{kernel: the SHA-256 it prints} of every kernel run on hires-rays."""
    assert kernel_bench.main(["--workload", "hires-rays"]) == 0
    lines = capsys.readouterr().out.splitlines()
    return {
        line.split()[0]: re.search(r"sha256 ([0-9a-f]{64})", line).group(1)
        for line in lines
        if " over 1 calls: " in line
    }


def test_every_kernel_prints_the_same_digest_twice(kernel_bench, capsys):
    defaults = {workload for workload, *_ in kernel_bench.KERNELS.values()}
    assert defaults <= set(kernel_bench.load_workloads())
    first = kernel_digests(kernel_bench, capsys)
    assert list(first) == list(kernel_bench.KERNELS)
    assert kernel_digests(kernel_bench, capsys) == first


def test_load_workloads_leaves_the_process_as_it_was(monkeypatch):
    """Reading the workload configs neither pins the BLAS thread variables
    nor touches the import path or the imported modules."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "artifact_digests", ROOT / "scripts" / "artifact_digests.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    environ, path, modules = dict(os.environ), list(sys.path), dict(sys.modules)
    workloads = module.load_workloads()
    assert dict(os.environ) == environ
    assert sys.path == path
    assert sys.modules == modules
    assert set(workloads) == {"hires-rays", "fine-grid", "dense-rig"}
    assert workloads["dense-rig"]["resolution"] == [384, 512]
