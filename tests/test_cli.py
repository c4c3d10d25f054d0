import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import gsocc
from gsocc import formats, losses, pipeline, synth
from gsocc.cli import main
from gsocc.core import MAX_MAGNITUDE, CameraModel
from gsocc.errors import ConfigError
from gsocc.pipeline import (
    MAX_BOXES,
    MAX_FIELD_BYTES,
    MAX_RIG_PIXELS,
    PipelineConfig,
    _Stage,
    run_pipeline,
)
from gsocc.render import MAX_RENDER_PAIRS
from gsocc.sampling import sample_indices

SMALL_CONFIG = {
    "seed": 7,
    "num_boxes": 3,
    "resolution": [24, 32],
    "focal": 16.0,
    "ray_stride": 4,
    "extents_min": [-12.0, -12.0, -4.0],
    "extents_max": [12.0, 12.0, 4.0],
}


# (id, refine mode of both runs or None for the config's, subcommand argv,
# artifacts it writes). "{run}" is the pipeline's directory, "{new}" the
# subcommand's.
REPRODUCED_ARTIFACTS = [
    ("gen-scene", None, ["gen-scene", "--scene", "{new}/scene.json"], ["scene.json"]),
    ("render-depth", None, ["render-depth", "--scene", "{run}/scene.json", "--out", "{new}"],
     [f"depth_{i:03d}.dpm" for i in range(6)]),
    ("init", None, ["init", "--scene", "{run}/scene.json",
                    "--output", "{new}/gaussians_init.gsb"],
     ["gaussians_init.gsb"]),
    ("sample", None, ["sample", "--gaussians", "{run}/gaussians_init.gsb",
                      "--output", "{new}/gaussians_sampled.gsb"],
     ["gaussians_sampled.gsb"]),
    *(
        (f"refine-{mode}", mode, ["refine", "--refine", mode, "--scene", "{run}/scene.json",
                                  "--gaussians", "{run}/gaussians_sampled.gsb",
                                  "--output", "{new}/gaussians_refined.gsb"],
         ["gaussians_refined.gsb"])
        for mode in ("zero", "oracle-snap")
    ),
    ("render", None, ["render", "--gaussians", "{run}/gaussians_refined.gsb",
                      "--output", "{new}/pred.occ"],
     ["pred.occ"]),
    ("metrics", None, ["metrics", "--pred", "{run}/pred.occ", "--gt", "{run}/gt.occ",
                       "--gaussians", "{run}/gaussians_init.gsb",
                       "--output", "{new}/metrics.json"],
     ["metrics.json"]),
    ("eval-loss", None, ["eval-loss", "--gaussians", "{run}/gaussians_refined.gsb",
                         "--scene", "{run}/scene.json", "--gt", "{run}/gt.occ",
                         "--output", "{new}/losses.json"],
     ["losses.json"]),
]

# (id suffix, config overrides): SMALL_CONFIG itself, with seeded depth noise
# and the scene-reading refine mode, and on 0.1 m voxels, a size f32 does
# not hold: OCC1 stores the origin and voxel size as f32, and the ground
# plane lies on a voxel plane.
REPRODUCTION_CONFIGS = [
    ("", {}),
    ("-noisy", {"noise_std": 0.05, "refine": "oracle-snap"}),
    ("-0.1m", {"seed": 3, "num_boxes": 0, "extents_min": [-3.2, -3.2, -2.4],
               "extents_max": [3.2, 3.2, 0.8], "voxel_size": 0.1, "grid_size": 0.1}),
]


def _box(**fields):
    """Damage the first box of a scene document."""
    def damage(doc):
        doc["boxes"][0].update(fields)
        return doc
    return damage


# Scene documents `gsocc init --scene` must reject at load: a change applied
# to the default config's seed-7 scene, keyed by id.
SCENE_DAMAGE = {
    "not-an-object": lambda doc: [],
    "empty-object": lambda doc: {},
    "unknown-key": lambda doc: {**doc, "extra": 1},
    "missing-key": lambda doc: {k: v for k, v in doc.items() if k != "ground_z"},
    "boxes-not-a-list": lambda doc: {**doc, "boxes": 3},
    "box-not-an-object": lambda doc: {**doc, "boxes": [[1, 2]]},
    "box-unknown-key": _box(colour="red"),
    "yaw-string-nan": _box(yaw="nan"),
    "yaw-nan": _box(yaw=float("nan")),
    "center-inf": _box(center=[float("inf"), 0.0, 0.0]),
    "center-two-entries": _box(center=[1.0, 2.0]),
    "center-int-beyond-float": _box(center=[10**400, 0, 0]),
    "half-extent-negative": _box(half_extents=[1.0, -1.0, 1.0]),
    "half-extent-zero": _box(half_extents=[1.0, 0.0, 1.0]),
    "class-id-300": _box(class_id=300),
    "class-id-0": _box(class_id=0),
    "class-id-above-num-classes": _box(class_id=5),
    "class-id-float": _box(class_id=2.0),
    "ground-class-bool": lambda doc: {**doc, "ground_class": True},
    "seed-negative": lambda doc: {**doc, "seed": -1},
    "ground-z-1e300": lambda doc: {**doc, "ground_z": 1e300},
    "half-extent-1e300": _box(half_extents=[1e300, 1.0, 1.0]),
    "yaw-int-beyond-bound": _box(yaw=10**7),
    "too-many-boxes": lambda doc: {**doc, "boxes": doc["boxes"][:1] * (MAX_BOXES + 1)},
}


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return path


def run(args):
    return main([str(a) for a in args])


class TestPipelineCommand:
    def test_artifacts_written(self, tmp_path, config_file, capsys):
        out = tmp_path / "run"
        assert run(["pipeline", "--config", config_file, "--out", out]) == 0
        for name in (
            "scene.json", "gt.occ", "depth_000.dpm", "depth_005.dpm",
            "gaussians_init.gsb", "gaussians_sampled.gsb", "gaussians_refined.gsb",
            "pred.occ", "metrics.json", "losses.json", "summary.json",
        ):
            assert (out / name).exists(), name
        assert not list(out.glob("*.partial"))
        summary = json.loads(capsys.readouterr().out)
        assert summary["sampled_count"] <= summary["initial_count"]

    def test_same_config_twice_byte_identical(self, tmp_path, config_file):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["pipeline", "--config", config_file, "--out", out1]) == 0
        assert run(["pipeline", "--config", config_file, "--out", out2]) == 0
        for name in ("metrics.json", "pred.occ", "summary.json", "losses.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    @pytest.mark.parametrize("overrides, refine, argv, artifacts", [
        pytest.param(overrides, refine, argv, artifacts, id=name + suffix)
        for suffix, overrides in REPRODUCTION_CONFIGS
        for name, refine, argv, artifacts in REPRODUCED_ARTIFACTS
    ])
    def test_subcommand_reproduces_pipeline_artifact(self, tmp_path, overrides,
                                                     refine, argv, artifacts):
        # The subcommand reads the pipeline's own input files and must write
        # the pipeline's artifact byte for byte.
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({**SMALL_CONFIG, **overrides}))
        out, new = tmp_path / "run", tmp_path / "new"
        new.mkdir()
        refine_flag = ["--refine", refine] if refine else []
        assert run(["pipeline", "--config", config_file, *refine_flag, "--out", out]) == 0
        argv = [a.format(run=out, new=new) for a in argv]
        assert run([argv[0], "--config", config_file, *argv[1:]]) == 0
        for name in artifacts:
            assert (new / name).read_bytes() == (out / name).read_bytes(), name

    def test_dry_run_sample_matches_summary(self, tmp_path, config_file, capsys):
        out = tmp_path / "run"
        assert run(["pipeline", "--config", config_file, "--out", out]) == 0
        summary = json.loads((out / "summary.json").read_text())
        capsys.readouterr()
        assert run([
            "sample", "--config", config_file,
            "--gaussians", out / "gaussians_init.gsb", "--dry-run",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["distinct_occupied_voxels"] == summary["sampled_count"]
        assert doc["input_count"] == summary["initial_count"]

    def test_threads_do_not_change_outputs(self, tmp_path, config_file):
        out1, out2 = tmp_path / "t1", tmp_path / "t8"
        assert run(["pipeline", "--config", config_file, "--threads", 1, "--out", out1]) == 0
        assert run(["pipeline", "--config", config_file, "--threads", 8, "--out", out2]) == 0
        assert (out1 / "pred.occ").read_bytes() == (out2 / "pred.occ").read_bytes()
        assert (out1 / "metrics.json").read_bytes() == (out2 / "metrics.json").read_bytes()


class TestStageCommands:
    def test_scene_then_depth_then_init(self, tmp_path, config_file):
        scene = tmp_path / "scene.json"
        assert run(["gen-scene", "--config", config_file, "--scene", scene]) == 0
        assert scene.exists()
        depth_dir = tmp_path / "depths"
        assert run(["render-depth", "--config", config_file, "--scene", scene,
                    "--out", depth_dir]) == 0
        assert len(list(depth_dir.glob("depth_*.dpm"))) == 6
        gsb = tmp_path / "init.gsb"
        assert run(["init", "--config", config_file, "--scene", scene, "--output", gsb]) == 0
        # init casts the depths of the scene itself: one Gaussian per valid pixel
        valid = sum(int(formats.read_depth_map(p).valid.sum()) for p in depth_dir.iterdir())
        assert len(formats.read_gaussian_set(gsb)) == valid

    def test_metrics_subcommand(self, tmp_path, config_file, capsys):
        out = tmp_path / "run"
        assert run(["pipeline", "--config", config_file, "--out", out]) == 0
        capsys.readouterr()
        assert run(["metrics", "--config", config_file, "--pred", out / "pred.occ",
                    "--gt", out / "gt.occ", "--gaussians", out / "gaussians_init.gsb"]) == 0
        doc = json.loads(capsys.readouterr().out)
        pipeline_metrics = json.loads((out / "metrics.json").read_text())
        assert doc == pipeline_metrics


class TestErrors:
    def test_unknown_config_field_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"not_a_field": 1}))
        assert run(["pipeline", "--config", bad, "--out", tmp_path / "x"]) == 2

    @pytest.mark.parametrize("doc", ["[]", "null", "5"])
    def test_config_not_an_object_exit_2(self, tmp_path, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(doc)
        assert run(["gen-scene", "--config", bad, "--scene", tmp_path / "s.json"]) == 2
        assert not (tmp_path / "s.json").exists()

    def test_invalid_refine_mode_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"refine": "sideways"}))
        assert run(["pipeline", "--config", bad, "--out", tmp_path / "x"]) == 2

    @pytest.mark.parametrize("field, value", [
        pytest.param(field, value, id=f"{field}={value}")
        for field, value in [
            ("ray_stride", 0),
            ("ray_stride", -4),
            ("ray_thresholds", []),
            ("ray_thresholds", [-1.0]),
            ("gauss_opacity", 3.0),
            ("gauss_scale", 0.0),
            ("gauss_scale", -0.3),
            ("threads", "2"),
            ("ray_thresholds", 2.0),
            ("grid_size", 4e-6),
            ("voxel_size", 0.3),
            ("noise_std", float("inf")),
            ("noise_std", float("nan")),
            ("noise_std", -1.0),
            ("lambda_occ", float("nan")),
            ("alpha_unc", float("nan")),
            ("ground_z", float("nan")),
            ("focal", float("nan")),
            ("focal", -1.0),
            ("cam_height", float("nan")),
            ("resolution", [0, 16]),
            ("resolution", [16]),
            ("resolution", [48.5, 64]),
            ("rig", "surround6"),  # not config fields
            ("downsample", 2),
            ("num_boxes", -1),
            ("box_classes", []),
            ("num_classes", 300),  # above the 255 class ids a u8 OCC1 label holds
            ("seed", -1),
            ("seed", 2**64),
            ("seed", 1.5),
            ("seed", True),
            ("num_boxes", 2.5),
            ("num_classes", 4.0),
            ("threads", 1.5),
            ("ray_stride", 2.5),
            ("box_classes", [2.5]),
            ("focal", True),
            ("noise_std", 2**70),  # numpy holds no such int
            ("dump_probs", "no"),  # truthy, but not a bool
            ("ground_class", 0),
            ("ground_class", -1),
            ("extents_min", [1.0]),  # broadcast against extents_max, then a ShapeError
            ("extents_max", [16.0]),
            ("num_boxes", MAX_BOXES + 1),
            # magnitudes beyond MAX_MAGNITUDE, an int among them
            ("gauss_scale", 1e300),
            ("gauss_scale", 1e6),  # a 3-sigma box far wider than the extents
            ("noise_std", 1e300),
            ("cam_height", 1e300),
            ("alpha_unc", 1e308),
            ("cam_height", 10**7),
        ]
    ] + [
        # scenes gen-scene cannot build: the ground plane outside the z
        # extents, and boxes (4-13 m from the z axis) outside +-1 m extents
        pytest.param("ground_z", 100.0, id="ground_z=100.0"),
        pytest.param(None, {"ground_z": 100.0, "num_boxes": 0},
                     id="ground_z=100.0,num_boxes=0"),
        pytest.param(None, {"ground_z": 4.0, "num_boxes": 0}, id="ground_z=4.0,num_boxes=0"),
        pytest.param(None, {"extents_min": [-1.0, -1.0, -4.0],
                      "extents_max": [1.0, 1.0, 4.0]}, id="extents=1m"),
    ])
    def test_bad_config_value_exit_2(self, tmp_path, field, value):
        """`value` replaces `field` of SMALL_CONFIG; with no field, the dict
        `value` replaces the fields it names."""
        bad = tmp_path / "bad.json"
        doc = {**SMALL_CONFIG, **(value if field is None else {field: value})}
        bad.write_text(json.dumps(doc))
        assert run(["pipeline", "--config", bad, "--out", tmp_path / "x"]) == 2
        assert not (tmp_path / "x").exists()  # rejected at config load, before any stage

    def test_malformed_ray_thresholds_exit_2(self, tmp_path, config_file):
        run_dir = tmp_path / "run"
        assert run(["pipeline", "--config", config_file, "--out", run_dir]) == 0
        try:
            code = run(["metrics", "--config", config_file, "--pred", run_dir / "pred.occ",
                        "--gt", run_dir / "gt.occ", "--ray-thresholds", "1,abc"])
        except SystemExit as e:  # rejected by the argument parser
            code = e.code
        assert code == 2

    def test_oracle_snap_refine_without_scene_exit_2(self, tmp_path, config_file, rng):
        from gsocc.formats import write_gaussian_set
        from conftest import random_gaussian_set

        write_gaussian_set(tmp_path / "g.gsb", random_gaussian_set(rng, 4, num_classes=4))
        assert run(["refine", "--config", config_file, "--refine", "oracle-snap",
                    "--gaussians", tmp_path / "g.gsb", "--output", tmp_path / "r.gsb"]) == 2
        assert not (tmp_path / "r.gsb").exists()

    @pytest.mark.parametrize("field, value", [
        ("opacities", np.nan), ("scales", np.nan), ("means", np.nan), ("semantics", np.inf),
    ])
    def test_non_finite_gaussians_exit_2(self, tmp_path, config_file, rng, field, value):
        from gsocc.formats import write_gaussian_set
        from conftest import random_gaussian_set

        gs = random_gaussian_set(rng, 4, num_classes=4)
        getattr(gs, field)[1] = value
        write_gaussian_set(tmp_path / "g.gsb", gs)
        assert run(["render", "--config", config_file, "--gaussians", tmp_path / "g.gsb",
                    "--output", tmp_path / "pred.occ"]) == 2
        assert not (tmp_path / "pred.occ").exists()

    @pytest.mark.parametrize("command, classes, gt_classes", [
        pytest.param("render", 8, 4, id="render-8"),
        pytest.param("render --dump-probs", 3, 4, id="render --dump-probs-3"),
        pytest.param("eval-loss", 8, 4, id="eval-loss-8"),
        pytest.param("eval-loss", 3, 4, id="eval-loss-3"),
        pytest.param("eval-loss", 4, 8, id="eval-loss-gt-8"),
    ])
    def test_class_count_other_than_config_exit_2(self, tmp_path, config_file, rng,
                                                  command, classes, gt_classes):
        """A Gaussian set, or an eval-loss --gt, of other than the config's 4
        classes."""
        from gsocc.formats import write_gaussian_set
        from conftest import random_gaussian_set

        write_gaussian_set(tmp_path / "g.gsb", random_gaussian_set(rng, 4, num_classes=classes))
        argv = command.split()
        if command == "eval-loss":
            cfg = PipelineConfig(**{**SMALL_CONFIG, "num_classes": gt_classes})
            pipeline.write_gt(cfg, pipeline.write_scene(cfg, tmp_path / "scene.json"),
                              tmp_path / "gt.occ")
            argv += ["--scene", tmp_path / "scene.json", "--gt", tmp_path / "gt.occ"]
        out = tmp_path / "out"
        assert run([*argv, "--config", config_file, "--gaussians", tmp_path / "g.gsb",
                    "--output", out]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["render", "eval-loss"])
    def test_render_work_beyond_the_pair_limit_exit_2(self, tmp_path, rng, command):
        """5 000 Gaussians of scale 1e6 cover all 65 536 voxels of the default
        grid each: 3.3e8 (Gaussian, voxel) pairs, over render's 2**28."""
        from gsocc.formats import write_gaussian_set
        from conftest import random_gaussian_set

        gs = random_gaussian_set(rng, 5000, num_classes=4, scale_range=(1e6, 1e6))
        write_gaussian_set(tmp_path / "g.gsb", gs)
        argv = [command]
        if command == "eval-loss":
            cfg = PipelineConfig()
            pipeline.write_gt(cfg, pipeline.write_scene(cfg, tmp_path / "scene.json"),
                              tmp_path / "gt.occ")
            argv += ["--scene", tmp_path / "scene.json", "--gt", tmp_path / "gt.occ"]
        out = tmp_path / "pred.occ"
        assert run([*argv, "--gaussians", tmp_path / "g.gsb", "--output", out]) == 2
        assert not out.exists()

    def test_missing_scene_file_exit_2(self, tmp_path, config_file):
        assert run(["render-depth", "--config", config_file,
                    "--scene", tmp_path / "nope.json", "--out", tmp_path]) == 2

    @pytest.mark.parametrize("damage", sorted(SCENE_DAMAGE))
    def test_bad_scene_file_exit_2(self, tmp_path, config_file, damage):
        doc = json.loads(synth.generate_scene(PipelineConfig(seed=7)).to_json())
        text = json.dumps(SCENE_DAMAGE[damage](doc))
        with pytest.raises(ConfigError):
            synth.SceneSpec.from_json(text, num_classes=PipelineConfig().num_classes)
        (tmp_path / "scene.json").write_text(text)
        assert run(["init", "--config", config_file, "--scene", tmp_path / "scene.json",
                    "--output", tmp_path / "init.gsb"]) == 2
        assert not (tmp_path / "init.gsb").exists()

    @pytest.mark.parametrize("outputs", [[], ["--output", "s.gsb", "--dry-run"]])
    def test_sample_needs_one_of_output_and_dry_run(self, tmp_path, config_file, outputs):
        with pytest.raises(SystemExit) as e:
            run(["sample", "--config", config_file, "--gaussians", tmp_path / "g.gsb", *outputs])
        assert e.value.code == 2

    def test_undefined_metric_exit_4(self, tmp_path, config_file, rng):
        # a gt grid with no occupied voxel makes Perc./Dist. undefined; the
        # grids lie on the default config's grid, which metrics reads them onto
        from gsocc.core import OccupancyGrid
        from gsocc.formats import write_gaussian_set, write_occupancy
        from conftest import random_gaussian_set

        empty = OccupancyGrid(origin=np.array([-16.0, -16.0, -4.0]), voxel_size=0.5,
                              labels=np.zeros((64, 64, 16), dtype=np.uint8))
        write_occupancy(tmp_path / "gt.occ", empty, num_classes=4)
        write_occupancy(tmp_path / "pred.occ", empty, num_classes=4)
        write_gaussian_set(tmp_path / "g.gsb", random_gaussian_set(rng, 4))
        rc = run(["metrics", "--pred", tmp_path / "pred.occ", "--gt", tmp_path / "gt.occ",
                  "--gaussians", tmp_path / "g.gsb"])
        assert rc == 4
        # mIoU is as undefined: without Gaussians, no NaN is written either
        rc = run(["metrics", "--pred", tmp_path / "pred.occ", "--gt", tmp_path / "gt.occ",
                  "--output", tmp_path / "metrics.json"])
        assert rc == 4 and not (tmp_path / "metrics.json").exists()

    @pytest.mark.parametrize("flag", ["--pred", "--gt"])
    @pytest.mark.parametrize("damage", [
        {"labels": np.zeros((64, 64, 15), dtype=np.uint8)},
        {"origin": np.array([-16.0, -16.0, -3.5])},
        {"voxel_size": 0.25},
    ], ids=["dims", "origin", "voxel-size"])
    def test_grid_off_the_config_grid_exit_2(self, tmp_path, flag, damage):
        """metrics reads --pred and --gt onto the default config's grid; one
        with other dims, origin or voxel size is rejected before any metric."""
        from gsocc.core import OccupancyGrid
        from gsocc.formats import write_occupancy

        empty = OccupancyGrid(origin=np.array([-16.0, -16.0, -4.0]), voxel_size=0.5,
                              labels=np.zeros((64, 64, 16), dtype=np.uint8))
        for name in ("pred", "gt"):
            grid = dataclasses.replace(empty, **damage) if f"--{name}" == flag else empty
            write_occupancy(tmp_path / f"{name}.occ", grid, num_classes=4)
        rc = run(["metrics", "--pred", tmp_path / "pred.occ", "--gt", tmp_path / "gt.occ",
                  "--output", tmp_path / "metrics.json"])
        assert rc == 2 and not (tmp_path / "metrics.json").exists()

    def test_stage_failure_exit_code_and_partials(self, tmp_path, config_file):
        out = tmp_path / "run"
        out.mkdir()
        # a directory squatting on the commit target makes gen-scene fail
        (out / "scene.json").mkdir()
        (out / "scene.json.partial").write_text("")
        rc = run(["pipeline", "--config", config_file, "--out", out])
        assert rc == 3
        assert (out / "scene.json.partial").exists()

    def test_failed_stage_keeps_partial_outputs(self, tmp_path):
        stage = _Stage("demo", tmp_path)
        p = stage.path("artifact.bin")
        p.write_bytes(b"half-done")
        # no commit: the partial file must survive for inspection
        assert (tmp_path / "artifact.bin.partial").exists()
        assert not (tmp_path / "artifact.bin").exists()
        stage.commit()
        assert (tmp_path / "artifact.bin").exists()


def test_config_roundtrip(tmp_path):
    cfg = PipelineConfig(seed=3, num_boxes=2)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg.to_dict()))
    again = PipelineConfig.from_file(path)
    assert again == cfg


@pytest.mark.parametrize("doc", [
    {"voxel_size": 0.03125},  # 1024 x 1024 x 256 voxels, 5 channels: 10 GiB
    {"voxel_size": 0.0625},  # 1.25 GiB
    {"voxel_size": 0.125, "num_classes": 32},  # 33 channels: one past the limit
])
def test_oversized_field_rejected_at_load(doc):
    # Config load only: nothing is rendered, so nothing that size is allocated.
    with pytest.raises(ConfigError, match="GiB"):
        PipelineConfig.from_dict(doc)


def test_field_at_the_limit_accepted():
    cfg = PipelineConfig.from_dict({"voxel_size": 0.125, "num_classes": 31})
    assert np.prod(cfg.grid_dims()) * (cfg.num_classes + 1) * 8 == MAX_FIELD_BYTES


@pytest.mark.parametrize("doc", [
    {"resolution": [1024, 1366]},  # 6 cameras: 8 392 704 pixels, 4096 past the limit
    {"resolution": [1 << 20, 1 << 20]},
])
def test_oversized_rig_rejected_at_load(doc):
    # Config load only: no pixel ray or depth map is built.
    with pytest.raises(ConfigError, match=f"limit is {MAX_RIG_PIXELS} pixels"):
        PipelineConfig.from_dict(doc)


def test_rig_at_the_limit_accepted():
    cams = PipelineConfig.from_dict({"resolution": [1024, 1365]}).cameras()
    pixels = sum(cam.height * cam.width for cam in cams)
    assert MAX_RIG_PIXELS - 6 * 1024 < pixels <= MAX_RIG_PIXELS


# The default config on 5 cm sampling cells and 25 cm voxels with the widest
# Gaussians its extents accept: 18 432 rig pixels, each of whose Gaussians may
# be kept, times 33 x 33 x 32 voxels of a 3-sigma box is 6.4e8 padded pairs.
RENDER_WORK_PAST_THE_LIMIT = {"grid_size": 0.05, "voxel_size": 0.25, "gauss_scale": 1.3}


def test_render_work_past_the_limit_exits_2_at_load(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(RENDER_WORK_PAST_THE_LIMIT))
    start = time.perf_counter()
    assert run(["pipeline", "--config", bad, "--out", tmp_path / "x"]) == 2
    assert time.perf_counter() - start < 1.0
    assert not (tmp_path / "x").exists()


def test_render_work_at_the_limit_accepted():
    # 65 536 sampling cells (fewer than the 98 304 rig pixels) times 16^3
    # voxels of a 7.5 m box on 0.5 m voxels is MAX_RENDER_PAIRS; a wider
    # Gaussian reaches 17 voxels on x and y.
    doc = {"resolution": [128, 128], "gauss_scale": 1.25}
    assert PipelineConfig.from_dict(doc).sampling_spec().num_cells * 16**3 == MAX_RENDER_PAIRS
    with pytest.raises(ConfigError, match=f"render limit is {MAX_RENDER_PAIRS}"):
        PipelineConfig.from_dict({**doc, "gauss_scale": 1.26})


def test_box_count_limit_at_load():
    # Config load only: no box is generated.
    assert PipelineConfig.from_dict({"num_boxes": MAX_BOXES}).num_boxes == MAX_BOXES
    with pytest.raises(ConfigError, match=f"limit of {MAX_BOXES}"):
        PipelineConfig.from_dict({"num_boxes": MAX_BOXES + 1})


def test_value_at_the_magnitude_bound_loads():
    # Config and scene load only: nothing is run.
    assert PipelineConfig.from_dict({"cam_height": 10**6}).cam_height == MAX_MAGNITUDE
    doc = json.loads(synth.generate_scene(PipelineConfig(seed=7)).to_json())
    doc["boxes"][0]["yaw"] = -MAX_MAGNITUDE
    scene = synth.SceneSpec.from_json(json.dumps(doc), PipelineConfig().num_classes)
    assert scene.boxes[0].yaw == -MAX_MAGNITUDE


@pytest.mark.parametrize("damage", ["logit-nan", "rotation-not-unit"])
def test_bad_init_row_outside_the_kept_ones_rejected(tmp_path, monkeypatch, damage):
    """The sample stage loads only the kept rows of gaussians_init.gsb, but
    the pipeline still checks every row of it."""
    cfg = PipelineConfig(**{**SMALL_CONFIG, "out_dir": str(tmp_path / "clean")})
    run_pipeline(cfg)
    init = formats.read_gaussian_set(tmp_path / "clean" / "gaussians_init.gsb")
    kept = sample_indices(init.means, cfg.sampling_spec(), cfg.seed)
    row = int(np.setdiff1d(np.arange(len(init)), kept)[-1])
    bad_view, bad_row, bad_col = init.source_index[row]

    class Damaged(pipeline.GroundTruthClassAttributes):
        """Adds a damaged copy of the bad pixel's table row and points the
        pixel at it."""

        def __call__(self, view, rows, cols):
            table, index = super().__call__(view, rows, cols)
            index = index.astype(np.intp)
            hit = (view == bad_view) & (rows == bad_row) & (cols == bad_col)
            damaged = table[index[hit]]
            if damage == "logit-nan":
                damaged[:, 8] = np.nan
            else:
                damaged[:, 3:7] = [2.0, 0.0, 0.0, 0.0]
            index[hit] = len(table)
            return np.concatenate([table, damaged]), index

    monkeypatch.setattr(pipeline, "GroundTruthClassAttributes", Damaged)
    cfg.out_dir = str(tmp_path / "damaged")
    with pytest.raises(ConfigError, match="gaussians_init.gsb"):
        run_pipeline(cfg)


def test_init_builds_every_view_on_the_calling_thread(tmp_path, monkeypatch):
    """`threads` sets only the sampling workers: init builds each view's
    block in view order on the thread that runs the pipeline."""
    import threading

    calls = []

    class Recorded(pipeline.GroundTruthClassAttributes):
        def __call__(self, view, rows, cols):
            calls.append((view, threading.get_ident()))
            return super().__call__(view, rows, cols)

    monkeypatch.setattr(pipeline, "GroundTruthClassAttributes", Recorded)
    cfg = PipelineConfig(**{**SMALL_CONFIG, "threads": 2, "out_dir": str(tmp_path / "run")})
    run_pipeline(cfg)
    here = threading.get_ident()
    assert calls == [(view, here) for view in range(len(cfg.cameras()))]


@pytest.mark.parametrize("noise_std", [0.0, 0.05])
def test_pipeline_memory_per_rig_pixel(tmp_path, noise_std):
    """Peak Python-heap use of a run grows by well under the 132 bytes a
    float64 Gaussian takes per rig pixel: the cast keeps no noise-free depth
    map and no full uncertainty map, and after init the run holds the init
    set's means, not the set."""
    import tracemalloc

    import scipy.spatial  # noqa: F401  imported here, not inside the measured run
    import scipy.special  # noqa: F401

    cfg = PipelineConfig(resolution=(192, 256), voxel_size=1.0, ray_stride=32, threads=2,
                         seed=7, noise_std=noise_std, out_dir=str(tmp_path / "run"))
    pixels = sum(cam.height * cam.width for cam in cfg.cameras())
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_pipeline(cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / pixels < 50, f"{peak / pixels:.1f} bytes per rig pixel"


def test_pixel_rays_cast_once_per_camera(tmp_path, monkeypatch):
    """Depth maps, init class maps and the noise-free loss depths share one
    cast of every pixel ray, and init places its means along the cast's
    rays: the init stage builds each camera's rays once."""
    casts, rays, stage = [], [], [None]
    cast, directions = synth.ray_hit_classes, CameraModel.ray_directions
    run_stage = pipeline._run_stage

    def counted(scene, o, dirs):
        casts.append(len(dirs))
        return cast(scene, o, dirs)

    def recorded(cam, rows, cols):
        if stage[0] == "init":
            rays.append(np.broadcast(rows, cols).size)
        return directions(cam, rows, cols)

    def staged(name, out_dir, fn):
        stage[0] = name
        return run_stage(name, out_dir, fn)

    monkeypatch.setattr(synth, "ray_hit_classes", counted)
    monkeypatch.setattr(CameraModel, "ray_directions", recorded)
    monkeypatch.setattr(pipeline, "_run_stage", staged)
    cfg = PipelineConfig(**{**SMALL_CONFIG, "noise_std": 0.05, "refine": "oracle-snap",
                            "out_dir": str(tmp_path / "run")})
    run_pipeline(cfg)
    pixels = [cam.height * cam.width for cam in cfg.cameras()]
    assert casts == pixels
    assert rays == pixels


@pytest.mark.parametrize("command, calls", [
    ("pipeline", 6), ("render-depth", 0), ("init", 0), ("eval-loss", 6),
])
def test_depth_loss_only_where_it_is_used(tmp_path, config_file, monkeypatch, command, calls):
    """Only the pipeline and eval-loss sum the depth-loss terms, once per
    camera; render-depth and init do none of that work."""
    out = tmp_path / "run"
    assert run(["pipeline", "--config", config_file, "--out", out]) == 0
    counted = []
    loss = losses.depth_uncertainty_loss

    def counting(pred, gt, alpha_unc):
        counted.append(1)
        return loss(pred, gt, alpha_unc)

    monkeypatch.setattr(losses, "depth_uncertainty_loss", counting)
    new = tmp_path / "new"
    argv = {
        "pipeline": ["--out", new],
        "render-depth": ["--scene", out / "scene.json", "--out", new],
        "init": ["--scene", out / "scene.json", "--output", tmp_path / "init.gsb"],
        "eval-loss": ["--gaussians", out / "gaussians_refined.gsb", "--scene",
                      out / "scene.json", "--gt", out / "gt.occ", "--output", tmp_path / "l.json"],
    }[command]
    assert run([command, "--config", config_file, *argv]) == 0
    assert len(counted) == calls


def test_config_load_imports_no_numpy_random():
    # Config load checks the scene config but generates no scene, so it
    # does not pay the numpy.random import; gen-scene and run_pipeline do.
    src = str(Path(gsocc.__file__).resolve().parents[1])
    doc = {"seed": 7, "resolution": [384, 512], "voxel_size": 1.0, "ray_stride": 32,
           "threads": 2}
    code = (
        "import json, sys\n"
        "from gsocc.pipeline import PipelineConfig\n"
        "PipelineConfig.from_dict(json.loads(sys.argv[1])).cameras()\n"
        "print('numpy.random' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(doc)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
        check=True,
    )
    assert proc.stdout.strip() == "False"


def test_import_loads_no_scipy():
    # Only Perc./Dist. and the refine weights call scipy; the subcommands
    # that use neither do not pay its import.
    src = str(Path(gsocc.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, gsocc.cli; print('scipy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
        check=True,
    )
    assert proc.stdout.strip() == "False"
