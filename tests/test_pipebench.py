"""The benchmark's span tracer still fits the package.

`pipebench/spans.py` wraps module attributes by name and reads the work
counts of a call from its argument names, so renaming or deleting either in
the package breaks `pipebench/run.py --trace 1` without failing any other
test. This runs a small pipeline under the tracer, with the oracle-snap
refine and depth noise that the fine-grid workload uses.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from gsocc.pipeline import PipelineConfig, run_pipeline

ROOT = Path(__file__).resolve().parent.parent

# Declared per-layer units that are counts recorded by a wrapped layer; the
# other units are times, or values pipebench/run.py derives after the run.
COUNT_UNITS = ("count", "bytes")


@pytest.fixture
def spans(monkeypatch):
    """pipebench/spans.py, imported without writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("pipebench_spans", ROOT / "pipebench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_declared_layer_count_is_recorded(tmp_path, spans):
    names = spans.layer_names()  # raises AttributeError unless every LAYERS attribute resolves
    config = PipelineConfig.from_dict({
        "seed": 7, "resolution": [24, 32], "focal": 16.0, "ray_stride": 4,
        "refine": "oracle-snap", "noise_std": 0.05, "threads": 2, "out_dir": str(tmp_path),
    })
    tracer = spans.Tracer()
    with tracer.installed(), tracer.span(spans.ROOT_SPAN) as root:
        run_pipeline(config)
    table = spans.layer_table(tracer.spans, root)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    checked = 0
    for metric in declared:
        layer, _, key = metric["name"].rpartition(".")
        if layer in names and metric["unit"] in COUNT_UNITS:
            assert key in table.get(layer, {}), metric["name"]
            checked += 1
    assert checked > 0
