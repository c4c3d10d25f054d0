"""In-process span tracer for the pipeline benchmark.

`gsocc.pipeline.run_pipeline` reaches every layer through a module attribute
that it, or a function it calls, looks up at call time: `pipeline.render_grid`,
`metrics.ray_iou`, `formats.write_gaussian_set` and so on. `Tracer.installed()`
replaces those attributes with wrappers that record one span per call (name,
start, end, parent id) and, after the span has closed, the work the call did
as counts computed from array sizes. The original attributes come back when
the block exits. Nothing in the package is edited, and the wrappers exist only
in the process that installs them.

Spans stay in memory; `Tracer.dump()` writes them out once the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

ROOT_SPAN = "pipeline.run_pipeline"
# Time spent computing the counts below, kept out of every layer's self time.
COUNTS_SPAN = "bench.counts"


def _gsb_bytes(gs) -> int:
    """Size of a GSB1 file for `gs`: header, f32 records, u32 provenance."""
    return 16 + len(gs) * (11 + gs.num_classes) * 4 + len(gs) * 3 * 4


def _occ_bytes(a) -> int:
    """Size of an OCC1 file: 41-byte header, u8 labels, optional f32 probs."""
    probs = a["probs"]
    return 41 + a["grid"].labels.size + (0 if probs is None else probs.size * 4)


def _sample_counts(result, a) -> dict:
    from gsocc.sampling import OUT_OF_BOUNDS, voxel_keys

    keys = voxel_keys(a["gs"].means, a["spec"])
    return {
        "gaussians_in": len(a["gs"]),
        "kept": len(result),
        "out_of_bounds": int(np.count_nonzero(keys == OUT_OF_BOUNDS)),
    }


def _ray_iou_rays(a) -> int:
    s = a["stride"]
    return sum(len(range(0, c.height, s)) * len(range(0, c.width, s)) for c in a["cams"])


# (module, attribute, counts(result, bound arguments) or None). The module is
# the one whose attribute the caller looks up, not always the defining one:
# run_pipeline calls `init_gaussians` through gsocc.pipeline's globals.
LAYERS = (
    ("gsocc.synth", "generate_scene", None),
    ("gsocc.synth", "rasterize_gt_grid", lambda r, a: {"voxels": int(np.prod(a["dims"]))}),
    ("gsocc.synth", "render_depth_maps", None),
    ("gsocc.synth", "ray_hit_classes", lambda r, a: {"rays": len(r[0])}),
    ("gsocc.pipeline", "GroundTruthClassAttributes", None),
    ("gsocc.pipeline", "init_gaussians", lambda r, a: {"gaussians_out": len(r)}),
    ("gsocc.formats", "write_gaussian_set", lambda r, a: {"bytes": _gsb_bytes(a["gs"])}),
    ("gsocc.formats", "read_gaussian_set", lambda r, a: {"bytes": _gsb_bytes(r)}),
    ("gsocc.formats", "write_depth_map", lambda r, a: {"bytes": 12 + 8 * a["dm"].depth.size}),
    ("gsocc.formats", "write_occupancy", lambda r, a: {"bytes": _occ_bytes(a)}),
    ("gsocc.pipeline", "sample_representatives", _sample_counts),
    ("gsocc.pipeline", "distinct_occupied_voxels", lambda r, a: {"gaussians_in": len(a["gs"])}),
    ("gsocc.pipeline", "refine_positions", lambda r, a: {"gaussians_in": len(a["gs"])}),
    ("gsocc.pipeline", "SurfaceSnapWeights", None),
    (
        "gsocc.pipeline",
        "render_grid",
        lambda r, a: {"gaussians_in": len(a["gs"]), "voxels": int(np.prod(a["dims"]))},
    ),
    ("gsocc.metrics", "evaluate", None),
    ("gsocc.metrics", "iou_miou", None),
    ("gsocc.metrics", "ray_iou", lambda r, a: {"rays": _ray_iou_rays(a)}),
    ("gsocc.metrics", "init_quality", None),
    ("gsocc.pipeline", "compute_loss_report", None),
    ("gsocc.losses", "cross_entropy_loss", None),
    ("gsocc.losses", "lovasz_softmax_loss", None),
    ("gsocc.losses", "depth_uncertainty_loss", None),
)


def layer_name(obj) -> str:
    """`<module>.<function>` with the package prefix dropped."""
    return f"{obj.__module__.removeprefix('gsocc.')}.{obj.__qualname__}"


def layer_names() -> list[str]:
    """Span names of every layer in LAYERS, called or not."""
    return [layer_name(getattr(importlib.import_module(m), a)) for m, a, _ in LAYERS]


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans from the thread that installed it and from pool threads.

    A span opened on a thread with no open span of its own (a worker of
    `init_gaussians` or `sample_representatives`) takes the innermost open
    span of the installing thread as its parent.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stacks: dict[int, list[int]] = {}
        self._home = threading.get_ident()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str):
        ident = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(ident, [])
            home = self._stacks.get(self._home) or [None]
            s = Span(len(self.spans), stack[-1] if stack else home[-1], name)
            self.spans.append(s)
            stack.append(s.id)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            with self._lock:
                stack.pop()

    def _wrap_function(self, fn, counts):
        name = layer_name(fn)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if counts is not None:
                with self.span(COUNTS_SPAN):
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    s.counts.update(counts(result, bound.arguments))
            return result

        return traced

    def _wrap_class(self, cls):
        name = layer_name(cls)
        tracer = self

        class Traced(cls):
            def __init__(self, *args, **kwargs):
                with tracer.span(name):
                    super().__init__(*args, **kwargs)

            def __call__(self, *args, **kwargs):
                with tracer.span(name):
                    return super().__call__(*args, **kwargs)

        Traced.__module__ = cls.__module__
        Traced.__name__ = cls.__name__
        Traced.__qualname__ = cls.__qualname__
        return Traced

    @contextmanager
    def installed(self):
        """Swap every attribute in LAYERS for its traced wrapper."""
        saved = []
        try:
            for module_name, attr, counts in LAYERS:
                module = importlib.import_module(module_name)
                orig = getattr(module, attr)
                wrapped = (
                    self._wrap_class(orig)
                    if inspect.isclass(orig)
                    else self._wrap_function(orig, counts)
                )
                saved.append((module, attr, orig))
                setattr(module, attr, wrapped)
            yield self
        finally:
            for module, attr, orig in reversed(saved):
                setattr(module, attr, orig)

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump([asdict(s) for s in self.spans], f)


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_table(spans: list[Span], root: Span) -> dict:
    """Per-layer totals for the spans under `root`: {name: {self_s, calls,
    total_s, <counts>}}. Self time is a span's duration minus the part of
    it that its child spans cover; pool-thread children may overlap."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    table: dict[str, dict] = {}
    todo = [root]
    while todo:
        s = todo.pop()
        kids = children.get(s.id, [])
        todo.extend(kids)
        clipped = [(max(k.start, s.start), min(k.end, s.end)) for k in kids]
        row = table.setdefault(s.name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        row["self_s"] += (s.end - s.start) - _covered(clipped)
        row["total_s"] += s.end - s.start
        row["calls"] += 1
        for key, value in s.counts.items():
            row[key] = row.get(key, 0) + value
    return table
