"""End-to-end orchestration: scene -> depth -> initialize -> sample ->
refine -> render -> metrics/losses, with every stage's artifact written to
disk.

Each stage is one `write_*` function, shared with the CLI subcommand of the
same stage. The init stage (write_cast) casts each camera once and, in the
same pass, writes the view's depth map, appends its Gaussians and adds its
depth-loss terms; the render-depth, init and eval-loss subcommands each run
the same cast_views and do only their own part. Within run_pipeline,
artifacts of a stage are written to <name>.partial and committed when the
stage completes, so a failed stage leaves its partial outputs behind for
inspection; a commit over a previous run's file swaps the two names and
unlinks the old file (see _Stage.commit). The stages after init consume the
GSB of the stage before: the init set's means are the f32 values init wrote
to its file, kept in memory; the sampled set is the rows sampling read from
that file, as written to its own; and the refined set, whose float64 means
its file rounds to f32, is reloaded. This makes the standalone subcommands
reproduce the pipeline's artifacts bitwise.
"""

from __future__ import annotations

import ctypes
import dataclasses
import json
import math
import os
import stat
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import formats, losses, metrics, synth
from .core import MAX_MAGNITUDE, S_MIN, DepthMap, GaussianSet, OccupancyGrid, VoxelGridSpec
from .errors import ConfigError, GsoccError, StageError, entries_error
from .initialize import init_gaussians
from .losses import compute_loss_report
from .refine import SurfaceSnapWeights, refine_positions
from .render import CUTOFF, MAX_RENDER_PAIRS, render_grid
from .sampling import OUT_OF_BOUNDS, narrow_keys, sample_representatives, voxel_keys
from .synth import MAX_BOXES

LOGIT_STRENGTH = 12.0

REFINE_MODES = ("zero", "oracle-snap")

# Largest rendered field accepted at config load: the (X, Y, Z, C+1) float64
# probabilities render_grid returns (fine-grid's is 20 MiB). The render fills
# the field in place and adds 12 bytes per voxel (the density sum, the labels
# and three boolean masks), 1 + 1.5 / (C+1) times the field, plus the chunk
# temporaries: its tracemalloc peak is 1.42x the field on the fine-grid
# seed-7 set (4 classes), and 1.75x plus a few MiB at 1 class.
MAX_FIELD_BYTES = 1 << 30

# Most pixels over all cameras of the rig accepted at config load (7x
# dense-rig). Every pixel casts a ray and may become a Gaussian; a run's
# peak memory grows by about 26 bytes per pixel (scripts/peak_memory.py,
# 2-core VM), since init casts, writes and drops one camera at a time, writes
# its records in chunks, and keeps only the f32 means it wrote.
MAX_RIG_PIXELS = 1 << 23

# Entries each tuple field must hold: an exact count, or None for at least one.
_TUPLE_LENGTHS = {
    "box_classes": None,
    "extents_min": 3,
    "extents_max": 3,
    "resolution": 2,
    "ray_thresholds": None,
}


def _fits(value, kind: type) -> bool:
    """Whether a config value fits a field whose default is of type `kind`.
    A bool fits only a bool field; a float field also takes an int."""
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    return isinstance(value, kind) or (kind is float and isinstance(value, int))


@dataclass
class PipelineConfig:
    seed: int = 0
    # synthetic scene (synth.generate_scene)
    num_boxes: int = 6
    box_classes: tuple = (2, 3, 4)
    num_classes: int = 4
    ground_z: float = -2.0
    ground_class: int = 1
    extents_min: tuple = (-16.0, -16.0, -4.0)
    extents_max: tuple = (16.0, 16.0, 4.0)
    # camera rig (synth.surround_rig)
    resolution: tuple = (48, 64)
    focal: float = 32.0
    cam_height: float = 0.5
    pitch_deg: float = 12.0
    noise_std: float = 0.0
    # gaussian attributes
    gauss_scale: float = 0.3
    gauss_opacity: float = 0.9
    # sampling / refinement / rendering
    grid_size: float = 0.5
    refine: str = "zero"
    voxel_size: float = 0.5
    # objectives and metrics
    lambda_occ: float = 1.0
    lambda_depth: float = 0.05
    alpha_unc: float = 0.5
    ray_stride: int = 4
    ray_thresholds: tuple = (1.0, 2.0, 4.0)
    # execution
    threads: int = 1
    dump_probs: bool = False
    out_dir: str = "out"

    def __post_init__(self):
        # Each value, or each entry of a tuple field (a list becomes a tuple),
        # must fit the type of the field's default; a tuple field must hold
        # the number of entries _TUPLE_LENGTHS gives, and a float field's
        # values must be finite with magnitude <= MAX_MAGNITUDE.
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            is_tuple = isinstance(f.default, tuple)
            if is_tuple and isinstance(value, list):
                value = tuple(value)
                setattr(self, f.name, value)
            kind = type(f.default[0] if is_tuple else f.default)
            values = value if isinstance(value, tuple) else (value,)
            if isinstance(value, tuple) != is_tuple or not all(_fits(v, kind) for v in values):
                raise ConfigError(f"{f.name} must hold {kind.__name__} values, got {value!r}")
            want = _TUPLE_LENGTHS.get(f.name)
            if is_tuple and (len(value) != want if want else not value):
                raise entries_error(f.name, want, len(value))
            if kind is float and not all(abs(v) <= MAX_MAGNITUDE for v in values):
                raise ConfigError(
                    f"{f.name} must be finite with magnitude <= {MAX_MAGNITUDE:g}, got {value!r}"
                )
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.num_boxes > MAX_BOXES:
            raise ConfigError(f"num_boxes {self.num_boxes} is above the limit of {MAX_BOXES}")
        # run_pipeline and gen-scene check the generated boxes against the
        # extents when they generate the scene. The ground plane must lie
        # below the top face, so the ground truth holds its voxel layer.
        lo, hi = self.extents_min, self.extents_max
        if not all(a < b for a, b in zip(lo, hi)):
            raise ConfigError("scene extents must have positive volume on all axes")
        if not lo[2] <= self.ground_z < hi[2]:
            raise ConfigError(
                f"ground_z {self.ground_z} must lie in [{lo[2]:g}, {hi[2]:g}), the z extents"
            )
        if self.num_boxes < 0:
            raise ConfigError("num_boxes must be >= 0")
        if self.refine not in REFINE_MODES:
            raise ConfigError(f"refine mode must be one of {REFINE_MODES}")
        if self.grid_size <= 0 or self.voxel_size <= 0:
            raise ConfigError("grid sizes must be positive")
        cells = self.sampling_spec().num_cells  # rejects a grid too fine for int64 voxel keys
        dims = self.grid_dims()  # rejects a voxel size that does not divide the extents
        if not all(r >= 1 for r in self.resolution):
            raise ConfigError("resolution entries must be >= 1: [height, width]")
        if self.focal <= 0:
            raise ConfigError("focal must be positive")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be >= 0")
        cams = self.cameras()
        pixels = sum(cam.height * cam.width for cam in cams)
        if pixels > MAX_RIG_PIXELS:
            raise ConfigError(
                f"{len(cams)} cameras of {cams[0].height}x{cams[0].width} pixels cast"
                f" {pixels} rays; the limit is {MAX_RIG_PIXELS} pixels over the rig"
            )
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        metrics.check_ray_sampling(self.ray_thresholds, self.ray_stride)
        if not 0.0 <= self.gauss_opacity <= 1.0:
            raise ConfigError("gauss_opacity must lie in [0, 1]")
        if self.gauss_scale < S_MIN:
            raise ConfigError(f"gauss_scale must be finite and >= s_min={S_MIN}")
        # A box wider than the grid puts every Gaussian in every voxel.
        span = min(hi - lo for lo, hi in zip(self.extents_min, self.extents_max))
        if 2 * CUTOFF * self.gauss_scale > span:
            raise ConfigError(f"gauss_scale {self.gauss_scale}: 3-sigma box wider than {span:g} m")
        if not 1 <= self.num_classes <= formats.MAX_CLASSES:
            raise ConfigError(f"num_classes must lie in [1, {formats.MAX_CLASSES}]")
        if not 1 <= self.ground_class <= self.num_classes or any(
            c > self.num_classes or c < 1 for c in self.box_classes
        ):
            raise ConfigError("class ids must lie in [1, num_classes]")
        field_bytes = math.prod(dims) * (self.num_classes + 1) * 8
        if field_bytes > MAX_FIELD_BYTES:
            raise ConfigError(
                f"a {'x'.join(map(str, dims))} grid of {self.num_classes + 1} channels renders"
                f" {field_bytes / 2**30:.2f} GiB of probabilities; the limit is"
                f" {MAX_FIELD_BYTES / 2**30:g} GiB"
            )
        # Sampling keeps at most one Gaussian per rig pixel and per sampling
        # cell, and each keeps the config's scale and the identity rotation,
        # so its 3-sigma box spans at most `reach` voxels per axis: a bound on
        # the padded pairs render_grid checks against MAX_RENDER_PAIRS.
        reach = math.ceil(2 * CUTOFF * self.gauss_scale / self.voxel_size) + 1
        box = math.prod(min(d, reach) for d in dims)
        pairs = min(pixels, cells) * box
        if pairs > MAX_RENDER_PAIRS:
            raise ConfigError(
                f"up to {min(pixels, cells)} sampled Gaussians with 3-sigma boxes of up to"
                f" {box} voxels render up to {pairs} (Gaussian, voxel) pairs; the render"
                f" limit is {MAX_RENDER_PAIRS}"
            )

    @staticmethod
    def from_file(path) -> "PipelineConfig":
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        return PipelineConfig.from_dict(doc)

    @staticmethod
    def from_dict(doc: dict) -> "PipelineConfig":
        if not isinstance(doc, dict):
            raise ConfigError(f"a config must be a JSON object, got {type(doc).__name__}")
        names = {f.name for f in dataclasses.fields(PipelineConfig)}
        unknown = set(doc) - names
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return PipelineConfig(**doc)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    # derived geometry -----------------------------------------------------

    def cameras(self) -> list:
        return synth.surround_rig(self)

    def grid_dims(self) -> tuple:
        lo = np.asarray(self.extents_min)
        hi = np.asarray(self.extents_max)
        counts = (hi - lo) / self.voxel_size
        if np.abs(counts - np.round(counts)).max() > 1e-9:
            raise ConfigError("extents must span an integer number of voxels")
        return tuple(int(round(d)) for d in counts)

    def sampling_spec(self) -> VoxelGridSpec:
        return VoxelGridSpec(
            min_corner=np.asarray(self.extents_min, dtype=np.float64),
            max_corner=np.asarray(self.extents_max, dtype=np.float64),
            grid_size=self.grid_size,
        )


class GroundTruthClassAttributes:
    """Attribute provider of one view that labels each pixel's Gaussian with
    the class of the surface its ray hits, read from the view's (H, W) uint8
    class map (0 for a miss, see cast_views). Scale/rotation/opacity are
    constants, so its table has one row per class id 0..C, whose logits are
    LOGIT_STRENGTH at that class (all 0 for a miss), and a pixel's table row
    is its class id."""

    def __init__(self, classes: np.ndarray, scale: float, opacity: float, num_classes: int):
        self.classes = classes
        table = np.zeros((num_classes + 1, 8 + num_classes))
        table[:, 0:3] = scale
        table[:, 3] = 1.0  # the identity rotation (1, 0, 0, 0)
        table[:, 7] = opacity
        table[1:, 8:] = np.eye(num_classes) * LOGIT_STRENGTH
        self.table = table

    def __call__(self, view: int, rows: np.ndarray, cols: np.ndarray):
        return self.table, self.classes[rows, cols]


_AT_FDCWD = -100
_RENAME_EXCHANGE = 2  # linux/fs.h


def _load_renameat2():
    """The C library's renameat2 (glibc >= 2.28, Linux), or None."""
    try:
        fn = ctypes.CDLL(None).renameat2
    except (AttributeError, OSError, TypeError):
        return None
    fn.argtypes = (ctypes.c_int, ctypes.c_char_p, ctypes.c_int, ctypes.c_char_p, ctypes.c_uint)
    fn.restype = ctypes.c_int
    return fn


_renameat2 = _load_renameat2()


def _swap(a: Path, b: Path) -> bool:
    """Exchange the files at `a` and `b` in one atomic step; False, with
    neither name changed, where the C library or the filesystem cannot."""
    if _renameat2 is None:
        return False
    return _renameat2(_AT_FDCWD, os.fsencode(a), _AT_FDCWD, os.fsencode(b), _RENAME_EXCHANGE) == 0


def _holds_regular_file(path: Path) -> bool:
    try:
        return stat.S_ISREG(os.lstat(path).st_mode)
    except OSError:
        return False


class _Stage:
    """Commit-on-success artifact writer for one pipeline stage."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.pending = []

    def path(self, filename: str) -> Path:
        p = self.out_dir / (filename + ".partial")
        self.pending.append((p, self.out_dir / filename))
        return p

    def commit(self):
        """Move each pending file to its final name, which holds the old or
        the new complete file at every instant. Over a regular file (a
        re-run into a used out dir) the two names are swapped and the old
        file, now at the partial name, is unlinked: its dirty pages are
        dropped before they reach storage, where a rename over it would make
        ext4 (auto_da_alloc) flush the new file. Any other target, or a failed
        swap, takes os.replace, which raises the error if there is one."""
        for partial, final in self.pending:
            if _holds_regular_file(final) and _swap(partial, final):
                os.unlink(partial)
            else:
                os.replace(partial, final)
        self.pending.clear()


def _run_stage(name, out_dir, fn):
    stage = _Stage(out_dir)
    try:
        result = fn(stage)
        stage.commit()
    except GsoccError:
        raise
    except Exception as e:
        raise StageError(name, str(e)) from e
    return result


def distinct_occupied_voxels(gs, spec: VoxelGridSpec, n_workers: int = 1) -> int:
    """Occupied voxels of `spec` among the means of `gs` (a GaussianSet or a
    formats.GaussianFile), keyed on up to `n_workers` threads: the sorted
    distinct keys, counted where neighbours differ."""
    keys = voxel_keys(gs.means, spec, n_workers)
    keys = narrow_keys(keys[keys != OUT_OF_BOUNDS], spec)
    if keys.size == 0:
        return 0
    keys.sort()
    return 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))


def run_pipeline(config: PipelineConfig) -> dict:
    """Execute all stages; returns the run summary dict. The init stage
    keeps the f32 means it wrote and checked, so gaussians_init.gsb is never
    read whole: sampling keys those means and loads only the rows it keeps,
    and the metrics score the same means."""
    # A scene whose boxes miss the extents is rejected before --out exists.
    scene = synth.generate_scene(config)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    _run_stage("gen-scene", out, lambda st: _write_text(st.path("scene.json"), scene.to_json()))
    gt_grid = _run_stage("rasterize-gt", out, lambda st: write_gt(config, scene, st.path("gt.occ")))
    staged, depth_loss = _run_stage("init", out, lambda st: write_cast(config, scene, st.path))
    # After init the run holds no per-pixel array: only the three depth-loss
    # terms and the init set's f32 means, as init wrote and checked them; the
    # sample stage loads the rows it keeps from the committed file, so its set
    # equals its own file's read-back. Each stage below consumes what the
    # stage before wrote, not an in-memory float64 set, so the standalone
    # subcommands reproduce the same bytes.
    init_set = dataclasses.replace(staged, path=out / "gaussians_init.gsb")
    sampled = _run_stage(
        "sample", out, lambda st: write_sampled(config, init_set, st.path("gaussians_sampled.gsb"))
    )
    _run_stage(
        "refine",
        out,
        lambda st: write_refined(config, sampled, scene, st.path("gaussians_refined.gsb")),
    )
    refined = formats.read_gaussian_set(out / "gaussians_refined.gsb")
    pred = _run_stage("render", out, lambda st: write_render(config, refined, st.path("pred.occ")))
    report = _run_stage(
        "metrics",
        out,
        lambda st: write_metrics(config, pred, gt_grid, init_set, st.path("metrics.json")),
    )
    loss_report = _run_stage(
        "eval-loss",
        out,
        lambda st: write_losses(config, pred.probs, gt_grid, depth_loss, st.path("losses.json")),
    )
    summary = {
        "initial_count": len(init_set),
        "sampled_count": len(sampled),
        "refined_count": len(refined),
        "distinct_occupied_voxels": distinct_occupied_voxels(
            init_set, config.sampling_spec(), config.threads
        ),
        "iou": report.iou,
        "miou": report.miou,
        "rayiou": report.rayiou,
        "perc": report.perc,
        "dist": report.dist,
        "loss_total": loss_report.total,
    }
    stage = _Stage(out)
    stage.path("summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2))
    stage.commit()
    return summary


# Stage functions: each one computes a stage from the config and its inputs,
# writes the stage's artifact and returns the in-memory result. run_pipeline
# and the matching CLI subcommand both call them.


def _write_text(path, text: str) -> None:
    """Write `text` to `path`, or print it when `path` is None."""
    if path is None:
        print(text)
    else:
        Path(path).write_text(text)


def write_scene(config: PipelineConfig, path) -> synth.SceneSpec:
    scene = synth.generate_scene(config)
    _write_text(path, scene.to_json())
    return scene


def write_gt(config: PipelineConfig, scene, path):
    origin = np.asarray(config.extents_min, dtype=np.float64)
    grid = synth.rasterize_gt_grid(scene, config.grid_dims(), origin, config.voxel_size)
    formats.write_occupancy(path, grid, config.num_classes)
    return grid


@dataclass(frozen=True)
class CastView:
    """One camera's cast (see cast_views)."""

    index: int
    origin: np.ndarray
    rays: np.ndarray  # (H*W, 3) unit rays through the pixel centers, row-major
    clean: np.ndarray  # (H, W) noise-free along-ray depths, +inf for a miss
    depth: DepthMap  # the clean depths with the config's seeded noise
    classes: np.ndarray  # (H, W) uint8 class of the surface hit, 0 for a miss


def cast_views(config: PipelineConfig, scene):
    """Cast every pixel ray of the rig once, one camera at a time in view
    order, and yield each camera's CastView. The render-depth, init and
    eval-loss work of a view all reads its one cast. The generator holds no
    view's arrays once it has yielded it, so a caller that drops its own
    references before drawing the next view holds one view at a time."""
    for view, cam in enumerate(config.cameras()):
        yield _cast_view(config, scene, view, cam)


def _cast_view(config: PipelineConfig, scene, view: int, cam) -> CastView:
    """The CastView of camera `cam`, view number `view`: its pixel rays cast
    by synth.ray_hit_classes with their (H, W) grid."""
    rays = cam.pixel_rays()
    hits, cls = synth.ray_hit_classes(scene, cam.origin, rays, (cam.height, cam.width))
    clean = hits.reshape(cam.height, cam.width)
    return CastView(
        view,
        cam.origin,
        rays,
        clean,
        synth.depth_map(scene.seed, view, clean, config.noise_std),
        cls.astype(np.uint8).reshape(clean.shape),
    )


def write_depth(path_for, view: CastView) -> None:
    """Write the depth map of `view` to `path_for("depth_<iii>.dpm")`."""
    formats.write_depth_map(path_for(f"depth_{view.index:03d}.dpm"), view.depth)


def view_depth_loss(config: PipelineConfig, scene, view: CastView) -> losses.DepthLossBreakdown:
    """The depth-loss terms of `view`: its noisy depths against the clean ones."""
    clean = synth.depth_map(scene.seed, view.index, view.clean)
    return losses.depth_uncertainty_loss(view.depth, clean, config.alpha_unc)


def write_gaussians(config: PipelineConfig, views, path) -> formats.GaussianFile:
    """Pixel-aligned Gaussians of the CastViews `views`, placed along the
    cast's rays, labelled from their class maps and streamed to `path`
    view by view; returns the file (a formats.GaussianFile) with the f32
    means written, every record checked."""
    scale, opacity, c = config.gauss_scale, config.gauss_opacity, config.num_classes

    def inputs(v: CastView) -> tuple:
        return v.origin, v.rays, v.depth, GroundTruthClassAttributes(v.classes, scale, opacity, c)

    # `map` keeps no reference to a view once its call returns, as a for
    # loop's target or a generator expression's would until the next view.
    return init_gaussians(map(inputs, views), c, path)


def write_cast(config: PipelineConfig, scene, path_for) -> tuple:
    """The pipeline's init stage: one pass over cast_views that writes each
    view's depth map, appends its Gaussians to
    `path_for("gaussians_init.gsb")` and adds its depth-loss terms. Returns
    (the init set as a formats.GaussianFile of its checked f32 means, the
    losses.DepthLossBreakdown summed over the views in view order). No view
    is held while the next camera is cast."""
    total = losses.DepthLossBreakdown(0.0, 0.0, 0.0)

    def record(view: CastView) -> CastView:
        nonlocal total
        write_depth(path_for, view)
        total += view_depth_loss(config, scene, view)
        return view

    views = map(record, cast_views(config, scene))
    init_set = write_gaussians(config, views, path_for("gaussians_init.gsb"))
    return init_set, total


def write_sampled(config: PipelineConfig, gs, path) -> GaussianSet:
    """Sample `gs`, a GaussianSet or a formats.GaussianFile whose kept rows
    are read from its file. The returned set of a GaussianFile equals the
    read-back of `path` bit for bit, since its rows come from f32 records."""
    sampled = sample_representatives(
        gs, config.sampling_spec(), config.seed, n_workers=config.threads
    )
    formats.write_gaussian_set(path, sampled)
    return sampled


def write_refined(config: PipelineConfig, gs: GaussianSet, scene, path) -> GaussianSet:
    """Refine per `config.refine`; oracle-snap needs the scene, zero ignores it."""
    delta_max = config.grid_size / 2.0
    if config.refine == "zero":
        weights = np.zeros((len(gs), 6))
    else:
        if scene is None:
            raise ConfigError("refine mode oracle-snap needs a scene")
        weights = SurfaceSnapWeights(scene)(gs, delta_max)
    refined = refine_positions(gs, delta_max, weights)
    formats.write_gaussian_set(path, refined)
    return refined


def render_field(config: PipelineConfig, gs: GaussianSet) -> OccupancyGrid:
    """The grid of `gs` rendered on the config's voxel grid, with its float64
    probabilities. Raises ConfigError when `gs` holds other than
    `config.num_classes` classes."""
    if gs.num_classes != config.num_classes:
        raise ConfigError(
            f"the Gaussian set holds {gs.num_classes} classes, but num_classes is"
            f" {config.num_classes}"
        )
    origin = np.asarray(config.extents_min, dtype=np.float64)
    return render_grid(gs, config.grid_dims(), origin, config.voxel_size)


def write_render(config: PipelineConfig, gs: GaussianSet, path) -> OccupancyGrid:
    grid = render_field(config, gs)
    formats.write_occupancy(
        path, grid, config.num_classes, probs=grid.probs if config.dump_probs else None
    )
    return grid


def write_metrics(config: PipelineConfig, pred, gt, gaussians, path) -> metrics.MetricReport:
    """Evaluate `pred` against `gt`; Perc./Dist. only when `gaussians` is given."""
    report = metrics.evaluate(
        pred,
        gt,
        cams=config.cameras(),
        gaussians=gaussians,
        thresholds=config.ray_thresholds,
        stride=config.ray_stride,
    )
    _write_text(path, report.to_json())
    return report


def write_losses(config: PipelineConfig, probs, gt, depth_loss, path):
    """Objectives on rendered `probs` against `gt`, with the depth terms
    `depth_loss` summed over the views of cast_views."""
    # The render's probs are a view over channel-major memory, and so are
    # these rows: the losses read them a class column at a time.
    report = compute_loss_report(
        probs.reshape(-1, probs.shape[-1]),
        gt.labels.reshape(-1),
        depth_loss,
        lambda_occ=config.lambda_occ,
        lambda_depth=config.lambda_depth,
        alpha_unc=config.alpha_unc,
    )
    _write_text(path, report.to_json())
    return report
