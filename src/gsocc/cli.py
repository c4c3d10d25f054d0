"""Command-line interface: one subcommand per pipeline stage.

Exit codes: 0 success, 2 config error, 3 stage failure, 4 undefined metric.
Every subcommand is a pure function of its inputs plus the declared seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import formats, losses, pipeline, synth
from .errors import ConfigError, GsoccError, StageError, UndefinedMetricError
from .pipeline import PipelineConfig, distinct_occupied_voxels, run_pipeline


def _float_tuple(text: str) -> tuple:
    return tuple(float(t) for t in text.split(","))


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", type=Path, help="pipeline config JSON; flags override fields")
    p.add_argument("--seed", type=int, help="base seed (u64)")
    p.add_argument("--grid-size", type=float, dest="grid_size", help="sampling cell size, meters")
    p.add_argument("--refine", choices=pipeline.REFINE_MODES)
    p.add_argument("--ray-stride", type=int, dest="ray_stride")
    p.add_argument("--threads", type=int)
    p.add_argument("--noise", type=float, dest="noise_std", help="depth noise std-dev, meters")
    p.add_argument("--dump-probs", action="store_true", dest="dump_probs", default=None)
    p.add_argument("--out", dest="out_dir", help="output directory")


def _load_config(args) -> PipelineConfig:
    """The --config document (or the defaults) with every given flag whose
    dest names a PipelineConfig field applied on top."""
    cfg = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    doc = cfg.to_dict()
    doc.update({k: v for k, v in vars(args).items() if k in doc and v is not None})
    return PipelineConfig.from_dict(doc)


def _read_scene(path, config: PipelineConfig) -> synth.SceneSpec:
    try:
        return synth.SceneSpec.from_json(Path(path).read_text(), config.num_classes)
    except OSError as e:
        raise ConfigError(f"cannot read scene {path}: {e}") from e


def _read_grid(path, config: PipelineConfig) -> formats.OccupancyGrid:
    """The OCC1 grid at `path`, which must lie on the config's voxel grid;
    it takes the config's float64 origin and voxel size, which
    run_pipeline's own grids hold."""
    grid = formats.read_occupancy(path, config.num_classes)
    origin = np.asarray(config.extents_min, dtype=np.float64)
    # OCC1 stores the origin and voxel size as f32.
    stored = (config.grid_dims(), *origin.astype(np.float32), np.float32(config.voxel_size))
    if (grid.dims, *grid.origin, grid.voxel_size) != stored:
        raise ConfigError(
            f"{path}: not the config's grid of {config.grid_dims()} voxels of"
            f" {config.voxel_size} m from {config.extents_min}"
        )
    return dataclasses.replace(grid, origin=origin, voxel_size=float(config.voxel_size))


def _emit(doc: dict):
    print(json.dumps(doc, sort_keys=True, indent=2))


def cmd_gen_scene(args) -> int:
    pipeline.write_scene(_load_config(args), args.scene or Path("scene.json"))
    return 0


def cmd_render_depth(args) -> int:
    cfg = _load_config(args)
    scene = _read_scene(args.scene, cfg)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for view in pipeline.cast_views(cfg, scene):
        pipeline.write_depth(out_dir.joinpath, view)
    return 0


def cmd_init(args) -> int:
    cfg = _load_config(args)
    views = pipeline.cast_views(cfg, _read_scene(args.scene, cfg))
    pipeline.write_gaussians(cfg, views, args.output)
    return 0


def cmd_sample(args) -> int:
    cfg = _load_config(args)
    gs = formats.read_gaussian_means(args.gaussians)
    if args.dry_run:
        _emit(
            {
                "input_count": len(gs),
                "distinct_occupied_voxels": distinct_occupied_voxels(
                    gs, cfg.sampling_spec(), cfg.threads
                ),
            }
        )
        return 0
    pipeline.write_sampled(cfg, gs, args.output)
    return 0


def cmd_refine(args) -> int:
    cfg = _load_config(args)
    gs = formats.read_gaussian_set(args.gaussians)
    scene = _read_scene(args.scene, cfg) if args.scene else None
    pipeline.write_refined(cfg, gs, scene, args.output)
    return 0


def cmd_render(args) -> int:
    cfg = _load_config(args)
    pipeline.write_render(cfg, formats.read_gaussian_set(args.gaussians), args.output)
    return 0


def cmd_metrics(args) -> int:
    cfg = _load_config(args)
    pred = _read_grid(args.pred, cfg)
    gt = _read_grid(args.gt, cfg)
    gaussians = formats.read_gaussian_means(args.gaussians) if args.gaussians else None
    pipeline.write_metrics(cfg, pred, gt, gaussians, args.output)
    return 0


def cmd_eval_loss(args) -> int:
    cfg = _load_config(args)
    scene = _read_scene(args.scene, cfg)
    gt = _read_grid(args.gt, cfg)
    pred = pipeline.render_field(cfg, formats.read_gaussian_set(args.gaussians))
    depth_loss = sum(
        (pipeline.view_depth_loss(cfg, scene, v) for v in pipeline.cast_views(cfg, scene)),
        losses.DepthLossBreakdown(0.0, 0.0, 0.0),
    )
    pipeline.write_losses(cfg, pred.probs, gt, depth_loss, args.output)
    return 0


def cmd_pipeline(args) -> int:
    cfg = _load_config(args)
    _emit(run_pipeline(cfg))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsocc",
        description="Gaussian semantic-occupancy pipeline: initialize, sample, refine, render, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-scene", help="generate a seeded synthetic scene")
    p.add_argument("--scene", type=Path, help="output scene JSON (default scene.json)")
    _add_common(p)
    p.set_defaults(fn=cmd_gen_scene)

    p = sub.add_parser("render-depth", help="render per-camera depth maps for a scene")
    p.add_argument("--scene", type=Path, required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_render_depth)

    p = sub.add_parser("init", help="pixel-aligned Gaussian initialization from a scene's depths")
    p.add_argument("--scene", type=Path, required=True)
    p.add_argument("--output", type=Path, required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_init)

    p = sub.add_parser("sample", help="grid-based sampling of a Gaussian set")
    p.add_argument("--gaussians", type=Path, required=True)
    out = p.add_mutually_exclusive_group(required=True)
    out.add_argument("--output", type=Path)
    out.add_argument("--dry-run", action="store_true", help="print the distinct-voxel count only")
    _add_common(p)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("refine", help="positional refinement of a Gaussian set")
    p.add_argument("--gaussians", type=Path, required=True)
    p.add_argument("--output", type=Path, required=True)
    p.add_argument("--scene", type=Path, help="scene JSON (for oracle-snap)")
    _add_common(p)
    p.set_defaults(fn=cmd_refine)

    p = sub.add_parser("render", help="render a Gaussian set into an occupancy grid")
    p.add_argument("--gaussians", type=Path, required=True)
    p.add_argument("--output", type=Path, required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("metrics", help="evaluate predicted vs ground-truth grids")
    p.add_argument("--pred", type=Path, required=True)
    p.add_argument("--gt", type=Path, required=True)
    p.add_argument("--gaussians", type=Path, help="optional set for Perc./Dist.")
    p.add_argument(
        "--ray-thresholds", type=_float_tuple, help="comma-separated meters, e.g. 1,2,4"
    )
    p.add_argument("--output", type=Path)
    _add_common(p)
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("eval-loss", help="evaluate objectives on a Gaussian set's rendered field")
    p.add_argument("--gaussians", type=Path, required=True, help="refined set to render")
    p.add_argument("--scene", type=Path, required=True, help="scene JSON to cast depths from")
    p.add_argument("--gt", type=Path, required=True)
    p.add_argument("--output", type=Path)
    _add_common(p)
    p.set_defaults(fn=cmd_eval_loss)

    p = sub.add_parser("pipeline", help="run all stages end to end")
    _add_common(p)
    p.set_defaults(fn=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except UndefinedMetricError as e:
        print(f"undefined metric: {e}", file=sys.stderr)
        return 4
    except StageError as e:
        print(f"stage failure: {e}", file=sys.stderr)
        return 3
    except GsoccError as e:
        print(f"error ({args.command}): {e}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
