"""Every config that loads runs or fails as documented.

Draws whole configs, each field from its default and from edge and bound
values, on rigs of at most 16x24 pixels, and runs the pipeline with
warnings as errors. Three outcomes are accepted: a ConfigError before
`--out` exists, a run whose summary is finite, or an UndefinedMetricError
(exit 4), which the README documents for a run with no Gaussian, ray or
occupied voxel in the grid.

One bound is left out because a run at it takes seconds, not
milliseconds: `num_boxes` at MAX_BOXES, whose config load is tested in
test_cli.py. For the same reason a draw of 255 classes renders on 2 m
voxels. The largest Gaussian box the default extents accept (gauss_scale
1.3, a 7.8 m 3-sigma box in 8 m of z) loads only with the default extents,
so it also runs as an explicit example. So do three grid sizes that, with
the default extents, make sampling sort uint8, uint32 and uint64 keys; the
default grid size sorts uint16 keys. One more example, the default rig with
those Gaussians on 5 cm cells and 25 cm voxels, would render past
MAX_RENDER_PAIRS and must be rejected at load, not run for seconds.
"""

import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsocc.core import MAX_MAGNITUDE, S_MIN
from gsocc.errors import ConfigError, UndefinedMetricError
from gsocc.pipeline import PipelineConfig, run_pipeline

# Each field's default first, then edge and bound values. Extents come as
# (extents_min, extents_max) pairs: the default, 1 m boxes that the
# generated boxes miss, and a thin slab a voxel of 1 m divides.
FIELDS = {
    "seed": (0, 7, 2**64 - 1),
    "num_boxes": (6, 0, 1, 24),
    "box_classes": ((2, 3, 4), (1,), (4,)),
    "num_classes": (4, 1, 255),
    "ground_z": (-2.0, -4.0, 3.5, 100.0),
    "ground_class": (1, 4),
    "extents": (
        ((-16.0, -16.0, -4.0), (16.0, 16.0, 4.0)),
        ((-1.0, -1.0, -4.0), (1.0, 1.0, 4.0)),
        ((-16.0, -16.0, -1.0), (16.0, 16.0, 1.0)),
    ),
    "resolution": ((16, 24), (1, 1), (16, 1)),
    "focal": (32.0, 1e-3, MAX_MAGNITUDE),
    "cam_height": (0.5, 0.0, -3.0, MAX_MAGNITUDE),
    "pitch_deg": (12.0, 0.0, 89.0, 180.0, -90.0),
    "noise_std": (0.0, 0.05, MAX_MAGNITUDE),
    "gauss_scale": (0.3, S_MIN, 1.3, 1e6),
    "gauss_opacity": (0.9, 0.0, 1.0),
    # Default extents: 65 536 cells, then about 8.2e12, 4, 524 288 and 128,
    # so sampling sorts uint16, uint64, uint8, uint32 and uint8 keys.
    "grid_size": (0.5, 1e-3, 32.0, 0.25, 4.0),
    "refine": ("zero", "oracle-snap"),
    "voxel_size": (0.5, 1.0, 2.0),
    "lambda_occ": (1.0, 0.0, MAX_MAGNITUDE),
    "lambda_depth": (0.05, 0.0, MAX_MAGNITUDE),
    "alpha_unc": (0.5, 0.0, -MAX_MAGNITUDE),
    "ray_stride": (4, 1, 1000),
    "ray_thresholds": ((1.0, 2.0, 4.0), (1e-6,), (MAX_MAGNITUDE,)),
    "threads": (1, 2),
    "dump_probs": (False, True),
}


def _doc(fields: dict) -> dict:
    doc = dict(fields)
    if "extents" in doc:
        doc["extents_min"], doc["extents_max"] = doc.pop("extents")
    if doc.get("num_classes") == 255:
        # 256 channels on a grid of 0.5 m voxels take about 0.4 s a run.
        doc["voxel_size"] = 2.0
    return doc


# The rig is always drawn, so it stays small; each other field is drawn or
# left at its default, so most configs load and run.
config_docs = st.fixed_dictionaries(
    {"resolution": st.sampled_from(FIELDS["resolution"])},
    optional={name: st.sampled_from(values) for name, values in FIELDS.items()
              if name != "resolution"},
).map(_doc)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(config_docs)
@example({"resolution": (16, 24), "gauss_scale": 1.3})
@example({"resolution": (16, 24), "grid_size": 4.0})
@example({"resolution": (16, 24), "grid_size": 0.25})
@example({"resolution": (16, 24), "grid_size": 1e-3})
@example({"grid_size": 0.05, "voxel_size": 0.25, "gauss_scale": 1.3})
def test_every_loaded_config_runs_or_fails_as_documented(doc):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        out = Path(tmp) / "run"
        try:
            summary = run_pipeline(PipelineConfig.from_dict({**doc, "out_dir": str(out)}))
        except ConfigError:
            assert not out.exists()
            return
        except UndefinedMetricError:
            return
    assert all(math.isfinite(v) for v in summary.values()), summary
