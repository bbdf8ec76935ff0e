import json

import numpy as np
import pytest

from lidarpgt.bev import GridSpec
from lidarpgt.cli import main
from lidarpgt.dataset import load_sequence, read_cloud

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

    def test_evaluate_2d_keeps_empty_box_behind_camera(self, workspace, tmp_path):
        # a zero 2D box whose 3D box reaches behind the camera, as label_record writes it
        gt = tmp_path / "gt"
        gt.mkdir()
        (gt / "000000.txt").write_text(
            "Car 0.00 0 -10.00 0.00 0.00 0.00 0.00 1.50 1.60 3.90 2.00 2.55 0.50 0.00\n"
        )
        argv = ["evaluate", "--dets", str(workspace / "pgt" / "label_pgt"), "--gt", str(gt),
                "--mode", "2d", "--iou", "0.3", "--calib", str(workspace / "seq" / "calib.txt"),
                "--out", str(tmp_path / "report.json")]
        assert main(argv) == 0
        assert json.loads((tmp_path / "report.json").read_text())["mean_ap"] == {"0.3": 0.0}

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

    @pytest.mark.parametrize("jobs", ["5000", "0"])
    def test_workers_capped_at_window_count(self, workspace, tmp_path, monkeypatch, jobs):
        import lidarpgt.cli as cli

        started = []

        class SerialPool:
            """Stand-in executor: records the worker count and maps in-process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        out = tmp_path / "pgt"
        argv = ["generate", str(workspace / "seq"), "--out", str(out), "--config", str(workspace / "cfg.json")]
        assert main(argv + ["--jobs", jobs]) == 0
        assert started == [2]  # 5 frames, horizon 3: two windows
        for name in ("label_pgt/000001.txt", "diagnostics/000001.json"):
            assert (workspace / "pgt" / name).read_bytes() == (out / name).read_bytes()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sequence_loaded_once_per_run(self, workspace, tmp_path, monkeypatch, jobs):
        import concurrent.futures

        import lidarpgt.cli as cli

        loads = []

        def counting_load(root):
            loads.append(root)
            return load_sequence(root)

        monkeypatch.setattr(cli, "load_sequence", counting_load)
        # threads share this process, so loads made inside the workers are counted too
        monkeypatch.setattr(cli, "ProcessPoolExecutor", concurrent.futures.ThreadPoolExecutor)
        out = tmp_path / "pgt"
        argv = ["generate", str(workspace / "seq"), "--out", str(out), "--config", str(workspace / "cfg.json")]
        assert main(argv + ["--jobs", jobs]) == 0
        assert len(loads) == 1
        for name in ("label_pgt/000001.txt", "diagnostics/000001.json"):
            assert (workspace / "pgt" / name).read_bytes() == (out / name).read_bytes()

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

    def test_bad_proposals_flag(self, workspace, tmp_path):
        out = tmp_path / "x"
        code = main(["generate", str(workspace / "seq"), "--out", str(out), "--proposals", "magic"])
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--samples", "--seed", "--score-threshold", "--track-frames"])
    def test_evaluate_loss_has_no_sampler_or_scorer_flags(self, workspace, capsys, flag):
        code = main(["evaluate-loss", str(workspace / "seq"), "--pgt", str(workspace / "pgt"), flag, "2"])
        assert code == 1
        assert flag in capsys.readouterr().err

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
            ("generate", {"loss": {"alpha": 0.001, "gamma": 1.0}}, ["loss"]),
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



def _poison_raster(value):
    def corrupt(path):
        from lidarpgt.dataset import read_raster, write_raster

        arr, sentinel = read_raster(path)
        arr.reshape(-1)[-1] = value  # for a box grid: the last pixel's confidence
        write_raster(path, arr, sentinel)

    return corrupt


def _offset_occupied_cells(value):
    def corrupt(path):
        from lidarpgt.dataset import read_raster, write_raster

        arr, sentinel = read_raster(path)
        arr[arr[:, :, 7] > 0, 0:3] = value
        write_raster(path, arr, sentinel)

    return corrupt


def _set_grid_channel(channel, value, cells=(slice(None), slice(None))):
    def corrupt(path):
        from lidarpgt.dataset import read_raster, write_raster

        arr, sentinel = read_raster(path)
        arr[(*cells, channel)] = value
        write_raster(path, arr, sentinel)

    return corrupt


def _set_sidecar_shape(rows, cols):
    def corrupt(path):
        meta = json.loads(path.read_text())
        meta.update(rows=rows, cols=cols)
        path.write_text(json.dumps(meta))

    return corrupt


def _replace_line(index, text):
    def corrupt(path):
        lines = path.read_text().splitlines()
        lines[index] = text
        path.write_text("\n".join(lines) + "\n")

    return corrupt


# name: (corrupted file, relative to the sequence copy, and how)
CORRUPTIONS = {
    "calib-nan-rotation": ("calib.txt", _replace_line(1, "lidar_to_cam: nan -1 0 0 0 0 -1 0 1 0 0 0")),
    "calib-nan-focal": ("calib.txt", _replace_line(0, "intrinsics: nan 500 400 150 800 320")),
    "pose-nan": ("poses.txt", _replace_line(1, " ".join(["nan"] * 12))),
    "flow-nan": ("flow/000000.bin", _poison_raster(np.nan)),
    "depth-inf": ("depth/000001.bin", _poison_raster(np.inf)),
    "grid-nan-confidence": ("grids/000000.bin", _poison_raster(np.nan)),
    "grid-huge-offset": ("grids/000000.bin", _offset_occupied_cells(1e38)),
    "grid-confidence-above-one": ("grids/000000.bin", _set_grid_channel(7, 7.0, (0, 0))),
    "grid-negative-size": ("grids/000000.bin", _set_grid_channel(3, -1.0)),
    # same byte count as the 320x800 camera's rasters, wrong image shape
    "depth-shape-160x1600": ("depth/000001.bin.json", _set_sidecar_shape(160, 1600)),
    "flow-shape-160x1600": ("flow/000000.bin.json", _set_sidecar_shape(160, 1600)),
    "sidecar-no-rows": ("depth/000000.bin.json", lambda p: p.write_text('{"cols": 800, "channels": 1}')),
    "sidecar-list": ("flow/000000.bin.json", lambda p: p.write_text("[320, 800, 2]")),
    "sidecar-string-rows": (
        "depth/000000.bin.json", lambda p: p.write_text('{"rows": "320", "cols": 800, "channels": 1}')
    ),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupted_input_exits_2_naming_the_file(workspace, tmp_path, capsys, name):
    import shutil
    import warnings

    from lidarpgt.dataset import write_box_grid
    from lidarpgt.proposals import heuristic_grid

    seq = tmp_path / "seq"
    shutil.copytree(workspace / "seq", seq)
    relative, corrupt = CORRUPTIONS[name]
    argv = ["generate", str(seq), "--out", str(tmp_path / "out"), "--config", str(workspace / "cfg.json"), "--jobs", "1"]
    if relative.startswith("grids/"):
        grids = seq / "grids"
        grids.mkdir()
        for t in range(2):
            cloud = read_cloud(seq / "velodyne" / f"{t:06d}.bin")
            write_box_grid(grids / f"{t:06d}.bin", heuristic_grid(cloud, GridSpec()))
        argv += ["--proposals", f"file:{grids}"]
    corrupt(seq / relative)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(seq / relative.removesuffix(".json")) in err, err
    assert len(err.splitlines()) == 1 and len(err) < 400, err
