import json

import numpy as np
import pytest

from lidarpgt.cli import main

CONFIG = {
    "simulate": {
        "n_frames": 5,
        "intrinsics": {"fx": 500.0, "fy": 500.0, "cx": 400.0, "cy": 150.0, "width": 800, "height": 320},
        "ground_extent": [-8.0, 8.0, 4.0, 30.0],
        "ground_density": 15.0,
        "ego": {"velocity": [0.0, 0.1]},
        "objects": [
            {"cls": "vehicle", "position": [3.0, 12.0], "yaw": 0.5, "velocity": [0.4, 0.45]},
            {"cls": "pedestrian", "position": [-4.0, 10.0], "velocity": [0.3, 0.2]},
        ],
    },
    "sampler": {"sample_count": 40},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(CONFIG))
    assert main(["simulate", "--config", str(cfg), "--seed", "3", "--out", str(root / "seq")]) == 0
    assert main(["generate", str(root / "seq"), "--out", str(root / "pgt"), "--config", str(cfg)]) == 0
    return root


class TestCliRoundTrip:
    def test_sequence_files_exist(self, workspace):
        seq = workspace / "seq"
        assert (seq / "calib.txt").exists()
        assert (seq / "poses.txt").exists()
        for t in range(5):
            assert (seq / "velodyne" / f"{t:06d}.bin").exists()
            assert (seq / "depth" / f"{t:06d}.bin").exists()
            assert (seq / "flow" / f"{t:06d}.bin").exists()
            assert (seq / "label_2" / f"{t:06d}.txt").exists()

    def test_generate_outputs(self, workspace):
        pgt = workspace / "pgt"
        labels = sorted((pgt / "label_pgt").glob("*.txt"))
        diags = sorted((pgt / "diagnostics").glob("*.json"))
        assert len(labels) == 2 and len(diags) == 2  # 5 frames, horizon 3
        payload = json.loads(diags[0].read_text())
        assert payload["pixels"]
        entry = payload["pixels"][0]
        assert {"pixel", "smoothed_confidence", "anchors", "target_confidence"} <= set(entry)

    def test_evaluate_runs(self, workspace, capsys):
        code = main(
            [
                "evaluate",
                "--dets",
                str(workspace / "pgt" / "label_pgt"),
                "--gt",
                str(workspace / "seq" / "label_2"),
                "--mode",
                "bev",
                "--iou",
                "0.1,0.3",
                "--out",
                str(workspace / "report.json"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mAP" in out
        report = json.loads((workspace / "report.json").read_text())
        assert report["mode"] == "bev"
        assert set(report["mean_ap"]) == {"0.1", "0.3"}

    def test_evaluate_2d_mode(self, workspace):
        assert (
            main(
                [
                    "evaluate",
                    "--dets",
                    str(workspace / "pgt" / "label_pgt"),
                    "--gt",
                    str(workspace / "seq" / "label_2"),
                    "--mode",
                    "2d",
                    "--iou",
                    "0.3",
                    "--calib",
                    str(workspace / "seq" / "calib.txt"),
                ]
            )
            == 0
        )

    def test_evaluate_loss_runs(self, workspace, capsys):
        cfg = workspace / "cfg.json"
        code = main(["evaluate-loss", str(workspace / "seq"), "--pgt", str(workspace / "pgt"), "--config", str(cfg)])
        assert code == 0
        assert "total:" in capsys.readouterr().out

    def test_render_writes_ppm(self, workspace):
        out = workspace / "frame.ppm"
        code = main(
            [
                "render",
                str(workspace / "seq"),
                "--frame",
                "0",
                "--out",
                str(out),
                "--overlays",
                "gt,pseudo",
                "--pgt",
                str(workspace / "pgt"),
            ]
        )
        assert code == 0
        header = out.read_bytes()[:2]
        assert header == b"P6"

    def test_generate_idempotent(self, workspace, tmp_path):
        cfg = workspace / "cfg.json"
        out2 = tmp_path / "pgt2"
        before = (workspace / "seq" / "velodyne" / "000000.bin").read_bytes()
        assert main(["generate", str(workspace / "seq"), "--out", str(out2), "--config", str(cfg)]) == 0
        for name in ("label_pgt/000000.txt", "diagnostics/000001.json"):
            assert (workspace / "pgt" / name).read_bytes() == (out2 / name).read_bytes()
        # inputs are never mutated
        assert (workspace / "seq" / "velodyne" / "000000.bin").read_bytes() == before

    def test_simulate_deterministic(self, workspace, tmp_path):
        cfg = workspace / "cfg.json"
        out2 = tmp_path / "seq2"
        assert main(["simulate", "--config", str(cfg), "--seed", "3", "--out", str(out2)]) == 0
        a = (workspace / "seq" / "velodyne" / "000002.bin").read_bytes()
        b = (out2 / "velodyne" / "000002.bin").read_bytes()
        assert a == b

    def test_generate_independent_of_job_count(self, workspace, tmp_path):
        cfg = workspace / "cfg.json"
        out2 = tmp_path / "pgt_jobs2"
        assert (
            main(["generate", str(workspace / "seq"), "--out", str(out2), "--config", str(cfg), "--jobs", "2"])
            == 0
        )
        for name in ("label_pgt/000000.txt", "label_pgt/000001.txt", "diagnostics/000000.json"):
            assert (workspace / "pgt" / name).read_bytes() == (out2 / name).read_bytes()

    def test_file_backed_proposals_match_heuristic(self, workspace, tmp_path):
        import lidarpgt.config as cfgmod
        from lidarpgt.dataset import load_sequence, write_box_grid
        from lidarpgt.proposals import heuristic_grid

        cfg = json.loads((workspace / "cfg.json").read_text())
        spec = cfgmod.grid_spec(cfgmod._merge(cfgmod.DEFAULTS, cfg))
        seq = load_sequence(workspace / "seq")
        grids = tmp_path / "grids"
        grids.mkdir()
        for t in range(seq.n_frames):
            write_box_grid(grids / f"{t:06d}.bin", heuristic_grid(seq.read_cloud(t), spec))
        out2 = tmp_path / "pgt_file"
        code = main(
            [
                "generate",
                str(workspace / "seq"),
                "--out",
                str(out2),
                "--config",
                str(workspace / "cfg.json"),
                "--proposals",
                f"file:{grids}",
            ]
        )
        assert code == 0
        # float32 storage round-trip keeps the sampled pixels and labels identical
        a = (workspace / "pgt" / "label_pgt" / "000000.txt").read_text()
        b = (out2 / "label_pgt" / "000000.txt").read_text()
        assert a.count("\n") == b.count("\n")

    def test_render_bev_raster_export(self, workspace, tmp_path):
        from lidarpgt.dataset import read_raster

        out = tmp_path / "f.ppm"
        raster = tmp_path / "bev.bin"
        code = main(
            [
                "render",
                str(workspace / "seq"),
                "--frame",
                "0",
                "--out",
                str(out),
                "--overlays",
                "gt",
                "--bev-raster",
                str(raster),
            ]
        )
        assert code == 0
        arr, _ = read_raster(raster)
        assert arr.shape == (608, 608, 3)
        assert arr.min() >= 0.0 and arr.max() <= 1.0


class TestCliErrors:
    def test_missing_dets_dir(self, workspace, capsys):
        code = main(
            ["evaluate", "--dets", str(workspace / "nope"), "--gt", str(workspace / "seq" / "label_2")]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_sequence(self, tmp_path, capsys):
        code = main(["generate", str(tmp_path / "nothing"), "--out", str(tmp_path / "out")])
        assert code == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "simulate" in capsys.readouterr().out

    def test_bad_proposals_flag(self, workspace):
        code = main(
            ["generate", str(workspace / "seq"), "--out", str(workspace / "x"), "--proposals", "magic"]
        )
        assert code == 1

    def test_sequence_too_short_for_tracking(self, tmp_path, workspace, capsys):
        cfg = tmp_path / "cfg.json"
        small = dict(CONFIG)
        small["simulate"] = dict(CONFIG["simulate"], n_frames=2)
        cfg.write_text(json.dumps(small))
        seq = tmp_path / "short"
        assert main(["simulate", "--config", str(cfg), "--seed", "1", "--out", str(seq)]) == 0
        assert main(["generate", str(seq), "--out", str(tmp_path / "out")]) == 2

    def test_negative_jobs(self, workspace, capsys):
        code = main(["generate", str(workspace / "seq"), "--out", str(workspace / "x"), "--jobs", "-5"])
        assert code == 1
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, config, named",
        [
            ("generate", {"sampler": []}, ["sampler"]),
            ("generate", {"anchors": [{"name": "x"}]}, ["anchors", "dims"]),
            ("generate", {"grid": {"stride": "4"}}, ["grid", "stride"]),
            ("generate", {"scorer": {"k_frames": 2.5}}, ["scorer", "k_frames"]),
            ("generate", {"sampler": {"sample_cout": 10}}, ["sampler", "sample_cout"]),
            ("generate", {"sampelr": {"sample_count": 10}}, ["sampelr"]),
            ("simulate", {"simulate": {"ego": {"velocity": 3}}}, ["simulate", "velocity"]),
        ],
    )
    def test_malformed_config(self, workspace, tmp_path, capsys, command, config, named):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        out = str(tmp_path / "out")
        if command == "generate":
            argv = ["generate", str(workspace / "seq"), "--out", out, "--config", str(cfg)]
        else:
            argv = ["simulate", "--out", out, "--config", str(cfg)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert all(name in err for name in named), err

    @pytest.mark.parametrize(
        "iou", ["0.1:0.7:0", "0.1:0.7:-0.1", "0.1:0.7:nan", "nan", "0.1,nan", "0", "-0.2", "1.5", "0.1:1.2:0.1"]
    )
    def test_bad_iou_thresholds(self, workspace, capsys, iou):
        code = main(
            [
                "evaluate",
                "--dets",
                str(workspace / "pgt" / "label_pgt"),
                "--gt",
                str(workspace / "seq" / "label_2"),
                "--iou",
                iou,
            ]
        )
        assert code == 1
        assert "--iou" in capsys.readouterr().err
