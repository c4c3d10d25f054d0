import json

import numpy as np
import pytest

from gsocc.cli import main
from gsocc.pipeline import PipelineConfig, _Stage, run_pipeline

SMALL_CONFIG = {
    "seed": 7,
    "num_boxes": 3,
    "resolution": [24, 32],
    "focal": 16.0,
    "ray_stride": 4,
    "extents_min": [-12.0, -12.0, -4.0],
    "extents_max": [12.0, 12.0, 4.0],
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

    def test_refine_off_equals_refine_zero(self, tmp_path, config_file):
        out1, out2 = tmp_path / "off", tmp_path / "zero"
        assert run(["pipeline", "--config", config_file, "--refine", "off", "--out", out1]) == 0
        assert run(["pipeline", "--config", config_file, "--refine", "zero", "--out", out2]) == 0
        assert (out1 / "pred.occ").read_bytes() == (out2 / "pred.occ").read_bytes()

    @pytest.mark.parametrize("refine, argv, artifacts", [
        pytest.param("zero", ["gen-scene", "--scene", "{new}/scene.json"],
                     ["scene.json"], id="gen-scene"),
        pytest.param("zero", ["render-depth", "--scene", "{run}/scene.json", "--out", "{new}"],
                     [f"depth_{i:03d}.dpm" for i in range(6)], id="render-depth"),
        pytest.param("zero", ["sample", "--gaussians", "{run}/gaussians_init.gsb",
                              "--output", "{new}/gaussians_sampled.gsb"],
                     ["gaussians_sampled.gsb"], id="sample"),
        *(
            pytest.param(mode, ["refine", "--refine", mode, "--scene", "{run}/scene.json",
                                "--gaussians", "{run}/gaussians_sampled.gsb",
                                "--output", "{new}/gaussians_refined.gsb"],
                         ["gaussians_refined.gsb"], id=f"refine-{mode}")
            for mode in ("off", "zero", "oracle-snap")
        ),
        pytest.param("zero", ["render", "--gaussians", "{run}/gaussians_refined.gsb",
                              "--output", "{new}/pred.occ"],
                     ["pred.occ"], id="render"),
        pytest.param("zero", ["metrics", "--pred", "{run}/pred.occ", "--gt", "{run}/gt.occ",
                              "--gaussians", "{run}/gaussians_init.gsb",
                              "--output", "{new}/metrics.json"],
                     ["metrics.json"], id="metrics"),
    ])
    def test_subcommand_reproduces_pipeline_artifact(self, tmp_path, config_file,
                                                     refine, argv, artifacts):
        # The subcommand reads the pipeline's own input files and must write
        # the pipeline's artifact byte for byte.
        out, new = tmp_path / "run", tmp_path / "new"
        new.mkdir()
        assert run(["pipeline", "--config", config_file, "--refine", refine, "--out", out]) == 0
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
        depths = sorted(depth_dir.glob("depth_*.dpm"))
        assert len(depths) == 6
        gsb = tmp_path / "init.gsb"
        assert run(["init", "--config", config_file, "--scene", scene,
                    "--depths", *depths, "--output", gsb]) == 0
        assert gsb.exists()

    def test_eval_loss_requires_probs(self, tmp_path, config_file):
        out = tmp_path / "run"
        assert run(["pipeline", "--config", config_file, "--out", out]) == 0
        rc = run(["eval-loss", "--config", config_file,
                  "--pred", out / "pred.occ", "--gt", out / "gt.occ"])
        assert rc == 2

    def test_eval_loss_with_probs(self, tmp_path, config_file, capsys):
        out = tmp_path / "run"
        assert run(["pipeline", "--config", config_file, "--dump-probs", "--out", out]) == 0
        capsys.readouterr()
        assert run(["eval-loss", "--config", config_file,
                    "--pred", out / "pred.occ", "--gt", out / "gt.occ"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total"] >= 0

    def test_metrics_subcommand(self, tmp_path, config_file, capsys):
        out = tmp_path / "run"
        assert run(["pipeline", "--config", config_file, "--out", out]) == 0
        capsys.readouterr()
        assert run(["metrics", "--config", config_file, "--pred", out / "pred.occ",
                    "--gt", out / "gt.occ", "--gaussians", out / "gaussians_init.gsb"]) == 0
        doc = json.loads(capsys.readouterr().out)
        pipeline_metrics = json.loads((out / "metrics.json").read_text())
        assert doc == pipeline_metrics

    def test_bench_reports_throughput(self, capsys):
        assert run(["bench", "--count", 20000]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 20000 and doc["gaussians_per_second"] > 0


class TestErrors:
    def test_unknown_config_field_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"not_a_field": 1}))
        assert run(["pipeline", "--config", bad, "--out", tmp_path / "x"]) == 2

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
        ]
    ])
    def test_bad_config_value_exit_2(self, tmp_path, field, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SMALL_CONFIG, field: value}))
        assert run(["pipeline", "--config", bad, "--out", tmp_path / "x"]) == 2

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

    def test_missing_scene_file_exit_2(self, tmp_path, config_file):
        assert run(["render-depth", "--config", config_file,
                    "--scene", tmp_path / "nope.json", "--out", tmp_path]) == 2

    def test_undefined_metric_exit_4(self, tmp_path, config_file, rng):
        # a gt grid with no occupied voxel makes Perc./Dist. undefined
        from gsocc.core import OccupancyGrid
        from gsocc.formats import write_gaussian_set, write_occupancy
        from conftest import random_gaussian_set

        empty = OccupancyGrid(dims=(4, 4, 4), origin=np.zeros(3), voxel_size=0.5,
                              labels=np.zeros((4, 4, 4), dtype=np.uint8))
        write_occupancy(tmp_path / "gt.occ", empty, num_classes=3)
        write_occupancy(tmp_path / "pred.occ", empty, num_classes=3)
        write_gaussian_set(tmp_path / "g.gsb", random_gaussian_set(rng, 4))
        rc = run(["metrics", "--pred", tmp_path / "pred.occ", "--gt", tmp_path / "gt.occ",
                  "--gaussians", tmp_path / "g.gsb"])
        assert rc == 4

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


def test_downsample_ratio_scales_depth_grid(tmp_path):
    cfg = PipelineConfig(**{**SMALL_CONFIG, "downsample": 2,
                            "out_dir": str(tmp_path / "run")})
    cams = cfg.cameras()
    assert cams[0].height == SMALL_CONFIG["resolution"][0] // 2
    assert cams[0].width == SMALL_CONFIG["resolution"][1] // 2
    summary = run_pipeline(cfg)
    full = PipelineConfig(**{**SMALL_CONFIG, "out_dir": str(tmp_path / "full")})
    assert summary["initial_count"] < run_pipeline(full)["initial_count"]
