"""End-to-end orchestration: scene -> depth -> initialize -> sample ->
refine -> render -> metrics/losses, with every stage's artifact written to
disk.

Each stage is one `write_*` function, shared with the CLI subcommand of the
same stage. Within run_pipeline, artifacts of a stage are written to
<name>.partial and committed by rename when the stage completes, so a failed
stage leaves its partial outputs behind for inspection. The stages after init
consume the *reloaded* GSB of the stage before, which makes the standalone
subcommands reproduce the pipeline's artifacts bitwise.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import formats, metrics, synth
from .core import S_MIN, GaussianSet, VoxelGridSpec
from .errors import ConfigError, GsoccError, StageError
from .initialize import init_gaussians
from .losses import compute_loss_report
from .refine import SurfaceSnapWeights, default_basis, refine_positions, zero_weights
from .render import render_grid
from .sampling import sample_representatives, voxel_keys, OUT_OF_BOUNDS

LOGIT_STRENGTH = 12.0

REFINE_MODES = ("off", "zero", "oracle-snap")


@dataclass
class PipelineConfig:
    seed: int = 0
    # synthetic scene
    num_boxes: int = 6
    box_classes: tuple = (2, 3, 4)
    num_classes: int = 4
    ground_z: float = -2.0
    ground_class: int = 1
    extents_min: tuple = (-16.0, -16.0, -4.0)
    extents_max: tuple = (16.0, 16.0, 4.0)
    # camera rig
    rig: str = "surround6"
    resolution: tuple = (48, 64)
    focal: float = 32.0
    cam_height: float = 0.5
    pitch_deg: float = 12.0
    downsample: int = 1
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
        try:
            self._validate()
        except TypeError as e:  # a field of the wrong type, e.g. a string threshold
            raise ConfigError(f"config field of the wrong type: {e}") from e

    def _validate(self):
        if self.refine not in REFINE_MODES:
            raise ConfigError(f"refine mode must be one of {REFINE_MODES}")
        if self.rig not in synth.RIGS:
            raise ConfigError(f"unknown rig '{self.rig}'")
        if self.grid_size <= 0 or self.voxel_size <= 0:
            raise ConfigError("grid sizes must be positive")
        self.sampling_spec()  # rejects a grid too fine for int64 voxel keys
        if self.downsample < 1:
            raise ConfigError("downsample ratio must be >= 1")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.ray_stride < 1:
            raise ConfigError("ray_stride must be >= 1")
        if not self.ray_thresholds or not all(
            math.isfinite(t) and t > 0 for t in self.ray_thresholds
        ):
            raise ConfigError("ray_thresholds must be a non-empty list of finite positive meters")
        if not 0.0 <= self.gauss_opacity <= 1.0:
            raise ConfigError("gauss_opacity must lie in [0, 1]")
        if not (math.isfinite(self.gauss_scale) and self.gauss_scale >= S_MIN):
            raise ConfigError(f"gauss_scale must be finite and >= s_min={S_MIN}")
        if self.num_classes < 1 or self.ground_class > self.num_classes or any(
            c > self.num_classes or c < 1 for c in self.box_classes
        ):
            raise ConfigError("class ids must lie in [1, num_classes]")

    @staticmethod
    def from_file(path) -> "PipelineConfig":
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        return PipelineConfig.from_dict(doc)

    @staticmethod
    def from_dict(doc: dict) -> "PipelineConfig":
        names = {f.name for f in dataclasses.fields(PipelineConfig)}
        unknown = set(doc) - names
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        doc = {
            k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()
        }
        return PipelineConfig(**doc)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    # derived geometry -----------------------------------------------------

    def scene_config(self) -> synth.SceneConfig:
        return synth.SceneConfig(
            num_boxes=self.num_boxes,
            box_classes=self.box_classes,
            ground_z=self.ground_z,
            ground_class=self.ground_class,
            extents_min=self.extents_min,
            extents_max=self.extents_max,
        )

    def cameras(self) -> list:
        rig = synth.RIGS[self.rig](
            resolution=self.resolution,
            focal=self.focal,
            height=self.cam_height,
            pitch_deg=self.pitch_deg,
        )
        if self.downsample > 1:
            rig = [cam.scaled(1.0 / self.downsample) for cam in rig]
        return rig

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
    """Attribute provider that labels each pixel's Gaussian with the class
    of the surface its ray hits. Scale/rotation/opacity are constants."""

    def __init__(self, scene, cams, scale: float, opacity: float, num_classes: int):
        self.num_classes = num_classes
        self.scale = float(scale)
        self.opacity = float(opacity)
        self.class_maps = []
        for cam in cams:
            rr, cc = np.meshgrid(np.arange(cam.height), np.arange(cam.width), indexing="ij")
            _, cls = synth.ray_hit_classes(scene, cam.origin, cam.ray_directions(rr.ravel(), cc.ravel()))
            self.class_maps.append(cls.reshape(cam.height, cam.width))

    def __call__(self, view: int, rows: np.ndarray, cols: np.ndarray):
        n = len(rows)
        cls = self.class_maps[view][rows, cols]
        logits = np.zeros((n, self.num_classes))
        hit = cls > 0
        logits[np.flatnonzero(hit), cls[hit] - 1] = LOGIT_STRENGTH
        return (
            np.full((n, 3), self.scale),
            np.tile(np.array([1.0, 0.0, 0.0, 0.0]), (n, 1)),
            np.full(n, self.opacity),
            logits,
        )


class _Stage:
    """Commit-on-success artifact writer for one pipeline stage."""

    def __init__(self, name: str, out_dir: Path):
        self.name = name
        self.out_dir = out_dir
        self.pending = []

    def path(self, filename: str) -> Path:
        p = self.out_dir / (filename + ".partial")
        self.pending.append((p, self.out_dir / filename))
        return p

    def commit(self):
        for partial, final in self.pending:
            os.replace(partial, final)
        self.pending.clear()


def _run_stage(name, out_dir, fn):
    stage = _Stage(name, out_dir)
    try:
        result = fn(stage)
        stage.commit()
    except GsoccError:
        raise
    except Exception as e:
        raise StageError(name, str(e)) from e
    return result


def distinct_occupied_voxels(gs: GaussianSet, spec: VoxelGridSpec) -> int:
    keys = voxel_keys(gs.means, spec)
    keys = keys[keys != OUT_OF_BOUNDS]
    return int(np.unique(keys).size)


def run_pipeline(config: PipelineConfig) -> dict:
    """Execute all stages; returns the run summary dict."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    scene = _run_stage("gen-scene", out, lambda st: write_scene(config, st.path("scene.json")))
    gt_grid = _run_stage("rasterize-gt", out, lambda st: write_gt(config, scene, st.path("gt.occ")))
    depths = _run_stage("render-depth", out, lambda st: write_depths(config, scene, st.path))
    _run_stage(
        "init", out, lambda st: write_init(config, scene, depths, st.path("gaussians_init.gsb"))
    )
    # Each stage below consumes the artifact it reloads, not the in-memory
    # float64 set, so standalone subcommands reproduce the same bytes. The
    # float64 set is already dropped when the reload runs, which bounds peak
    # memory on large rigs.
    init_set = formats.read_gaussian_set(out / "gaussians_init.gsb")
    _run_stage(
        "sample", out, lambda st: write_sampled(config, init_set, st.path("gaussians_sampled.gsb"))
    )
    sampled = formats.read_gaussian_set(out / "gaussians_sampled.gsb")
    _run_stage(
        "refine",
        out,
        lambda st: write_refined(config, sampled, scene, st.path("gaussians_refined.gsb")),
    )
    refined = formats.read_gaussian_set(out / "gaussians_refined.gsb")
    field = _run_stage("render", out, lambda st: write_render(config, refined, st.path("pred.occ")))
    report = _run_stage(
        "metrics",
        out,
        lambda st: write_metrics(
            config, field.to_grid(), gt_grid, init_set, st.path("metrics.json")
        ),
    )
    # The depth loss compares against noise-free depth maps.
    losses = _run_stage(
        "eval-loss",
        out,
        lambda st: write_losses(
            config,
            field.probs,
            gt_grid,
            depths,
            depths if config.noise_std == 0 else synth.render_depth_maps(scene, config.cameras()),
            st.path("losses.json"),
        ),
    )
    summary = {
        "initial_count": len(init_set),
        "sampled_count": len(sampled),
        "refined_count": len(refined),
        "distinct_occupied_voxels": distinct_occupied_voxels(init_set, config.sampling_spec()),
        "iou": report.iou,
        "miou": report.miou,
        "rayiou": report.rayiou,
        "perc": report.perc,
        "dist": report.dist,
        "loss_total": losses.total,
    }
    stage = _Stage("summary", out)
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
    scene = synth.generate_scene(config.seed, config.scene_config())
    _write_text(path, scene.to_json())
    return scene


def write_gt(config: PipelineConfig, scene, path):
    origin = np.asarray(config.extents_min, dtype=np.float64)
    grid = synth.rasterize_gt_grid(scene, config.grid_dims(), origin, config.voxel_size)
    formats.write_occupancy(path, grid, config.num_classes)
    return grid


def write_depths(config: PipelineConfig, scene, path_for) -> list:
    """Write view i's depth map to `path_for("depth_<iii>.dpm")`."""
    depths = synth.render_depth_maps(scene, config.cameras(), noise_std=config.noise_std)
    for i, dm in enumerate(depths):
        formats.write_depth_map(path_for(f"depth_{i:03d}.dpm"), dm)
    return depths


def write_init(config: PipelineConfig, scene, depths: list, path) -> GaussianSet:
    cams = config.cameras()
    attrs = GroundTruthClassAttributes(
        scene, cams, config.gauss_scale, config.gauss_opacity, config.num_classes
    )
    gs = init_gaussians(cams, depths, attrs, n_workers=config.threads)
    formats.write_gaussian_set(path, gs)
    return gs


def write_sampled(config: PipelineConfig, gs: GaussianSet, path) -> GaussianSet:
    sampled = sample_representatives(
        gs, config.sampling_spec(), config.seed, n_workers=config.threads
    )
    formats.write_gaussian_set(path, sampled)
    return sampled


def write_refined(config: PipelineConfig, gs: GaussianSet, scene, path) -> GaussianSet:
    """Refine per `config.refine`; oracle-snap needs the scene, others ignore it."""
    basis = default_basis(config.grid_size / 2.0)
    if config.refine == "off":
        refined = gs
    elif config.refine == "zero":
        refined = refine_positions(gs, basis, zero_weights(gs, basis))
    else:
        if scene is None:
            raise ConfigError("refine mode oracle-snap needs a scene")
        refined = refine_positions(gs, basis, SurfaceSnapWeights(scene)(gs, basis))
    formats.write_gaussian_set(path, refined)
    return refined


def write_render(config: PipelineConfig, gs: GaussianSet, path):
    origin = np.asarray(config.extents_min, dtype=np.float64)
    field = render_grid(gs, config.grid_dims(), origin, config.voxel_size)
    formats.write_occupancy(
        path,
        field.to_grid(),
        config.num_classes,
        probs=field.probs if config.dump_probs else None,
    )
    return field


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


def write_losses(config: PipelineConfig, probs, gt, pred_depths, gt_depths, path):
    """Objectives on rendered `probs`; the depth term only when depths are given."""
    report = compute_loss_report(
        np.asarray(probs, dtype=np.float64).reshape(-1, probs.shape[-1]),
        gt.labels.reshape(-1),
        pred_depths=pred_depths,
        gt_depths=gt_depths,
        lambda_occ=config.lambda_occ,
        lambda_depth=config.lambda_depth,
        alpha_unc=config.alpha_unc,
    )
    _write_text(path, report.to_json())
    return report
