import functools
import json
import operator
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidarpgt.bev import GridSpec
from lidarpgt.cli import main
from lidarpgt.dataset import (
    load_sequence, read_box_grid, read_calib, read_cloud, read_diagnostics, read_labels, read_poses,
)
from lidarpgt.errors import LidarPgtError
from lidarpgt.pipeline import generate_pseudo_labels

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

    def test_diagnostics_read_back_equal_the_run(self, workspace, tmp_path, monkeypatch):
        import lidarpgt.cli as cli

        results = []

        def recording(*args):
            results.append(generate_pseudo_labels(*args))
            return results[-1]

        monkeypatch.setattr(cli, "generate_pseudo_labels", recording)
        out = tmp_path / "pgt"
        argv = ["generate", str(workspace / "seq"), "--out", str(out), "--config", str(workspace / "cfg.json")]
        assert main(argv + ["--jobs", "1"]) == 0
        assert len(results) == 2  # windows 0 and 1, in order

        def fields(label):
            box = label.box
            return label.pixel, box.centre.tolist(), box.dims.tolist(), box.yaw, label.confidence, label.anchor

        for t, result in enumerate(results):
            u_plus, u_minus = read_diagnostics(out / "diagnostics" / f"{t:06d}.json", GridSpec())
            assert result.u_minus
            assert [fields(l) for l in u_plus] == [fields(l) for l in result.u_plus]
            assert u_minus == result.u_minus
        assert any(result.u_plus for result in results)

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

    def test_evaluate_rows_named_by_report_key(self, workspace, tmp_path, capsys):
        out = tmp_path / "report.json"
        argv = ["evaluate", "--dets", str(workspace / "pgt" / "label_pgt"), "--gt", str(workspace / "seq" / "label_2"),
                "--iou", "0.101,0.104,0.5", "--out", str(out)]
        assert main(argv) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [row.split()[0] for row in rows] == ["0.101", "0.104", "0.5"]
        assert list(json.loads(out.read_text())["mean_ap"]) == ["0.101", "0.104", "0.5"]

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
        gt, dets = tmp_path / "gt", tmp_path / "dets"
        gt.mkdir()
        dets.mkdir()
        (gt / "000000.txt").write_text(
            "Car 0.00 0 -10.00 0.00 0.00 0.00 0.00 1.50 1.60 3.90 2.00 2.55 0.50 0.00\n"
        )
        (dets / "000000.txt").write_bytes((workspace / "pgt" / "label_pgt" / "000000.txt").read_bytes())
        argv = ["evaluate", "--dets", str(dets), "--gt", str(gt),
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

    def test_simulate_over_a_longer_scene(self, workspace, tmp_path):
        """A 4-frame scene simulated over a 5-frame one leaves none of its frames."""
        seq, short = tmp_path / "seq", tmp_path / "short.json"
        short.write_text(json.dumps(dict(CONFIG, simulate=dict(CONFIG["simulate"], n_frames=4))))
        assert main(["simulate", "--config", str(workspace / "cfg.json"), "--seed", "3", "--out", str(seq)]) == 0
        (seq / "velodyne" / "notes.txt").write_text("kept\n")
        assert main(["simulate", "--config", str(short), "--seed", "3", "--out", str(seq)]) == 0
        assert main(["simulate", "--config", str(short), "--seed", "3", "--out", str(tmp_path / "fresh")]) == 0
        (seq / "velodyne" / "notes.txt").unlink()  # a file not named as a frame stays
        files = lambda root: {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}
        assert files(seq) == files(tmp_path / "fresh")
        assert main(["generate", str(seq), "--out", str(tmp_path / "pgt"), "--config", str(short)]) == 0

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

    def test_rerun_with_fewer_windows_removes_stale_frames(self, workspace, tmp_path, capsys):
        out = tmp_path / "pgt"
        short = tmp_path / "k1.json"
        short.write_text(json.dumps(dict(CONFIG, scorer={"k_frames": 1})))
        assert main(["generate", str(workspace / "seq"), "--out", str(out), "--config", str(short)]) == 0
        assert len(list((out / "label_pgt").glob("*.txt"))) == 4
        (out / "label_pgt" / "notes.txt").write_text("kept\n")
        cfg = workspace / "cfg.json"
        assert main(["generate", str(workspace / "seq"), "--out", str(out), "--config", str(cfg)]) == 0
        # windows 2 and 3 of the first run are gone; a file not named as a frame stays
        assert sorted(p.name for p in (out / "label_pgt").iterdir()) == ["000000.txt", "000001.txt", "notes.txt"]
        assert sorted(p.name for p in (out / "diagnostics").iterdir()) == ["000000.json", "000001.json"]
        for t in range(2):
            for name in (f"label_pgt/{t:06d}.txt", f"diagnostics/{t:06d}.json"):
                assert (out / name).read_bytes() == (workspace / "pgt" / name).read_bytes()
        capsys.readouterr()
        assert main(["evaluate-loss", str(workspace / "seq"), "--pgt", str(out), "--config", str(cfg)]) == 0
        assert [line[:10] for line in capsys.readouterr().out.splitlines()[:-1]] == ["frame 0000", "frame 0001"]

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
        from lidarpgt.config import load_config
        from lidarpgt.dataset import load_sequence, write_box_grid
        from lidarpgt.proposals import heuristic_grid

        spec = load_config(workspace / "cfg.json").grid
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

    def test_render_draws_file_backed_proposals(self, workspace, tmp_path, capsys):
        from lidarpgt.bev import BoxCode, BoxGrid, pillar_centre
        from lidarpgt.config import load_config
        from lidarpgt.dataset import read_box_grid, write_box_grid
        from lidarpgt.geometry import LIDAR, Obb3
        from lidarpgt.render import PROPOSAL_COLOR, render_overlays, write_ppm

        spec = load_config(workspace / "cfg.json").grid
        grids = tmp_path / "grids"
        grids.mkdir()
        # one proposal above the confidence threshold in frame 0, no grid file for frame 1
        pixel = (spec.out_rows // 2, spec.out_cols // 2)
        grid = BoxGrid.zeros(spec)
        grid.set_code(pixel, BoxCode((0.1, -0.2, 0.0), (4.0, 1.8, 1.5), 0.4, 0.9))
        write_box_grid(grids / "000000.bin", grid)

        def render(frame, name, *proposals):
            out = tmp_path / f"{name}.ppm"
            argv = ["render", str(workspace / "seq"), "--frame", str(frame), "--out", str(out),
                    "--overlays", "proposals", "--config", str(workspace / "cfg.json"), *proposals]
            return main(argv), out

        code, drawn = render(0, "file", "--proposals", f"file:{grids}")
        assert code == 0
        cell = read_box_grid(grids / "000000.bin", spec).data[pixel]
        box = Obb3(pillar_centre(pixel, spec) + cell[0:3], cell[3:6], float(cell[6]), LIDAR)
        cloud = read_cloud(workspace / "seq" / "velodyne" / "000000.bin")
        write_ppm(tmp_path / "expected.ppm", render_overlays(cloud, spec, [(PROPOSAL_COLOR, [box])]))
        assert drawn.read_bytes() == (tmp_path / "expected.ppm").read_bytes()
        code, heuristic = render(0, "heuristic")
        assert code == 0 and heuristic.read_bytes() != drawn.read_bytes()

        capsys.readouterr()
        code, _ = render(1, "missing", "--proposals", f"file:{grids}")
        assert code == 2
        assert str(grids / "000001.bin") in capsys.readouterr().err

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
        arr = read_raster(raster)
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

    @pytest.mark.parametrize(
        "command, flag",
        [
            *(
                pytest.param("evaluate-loss", flag, id=flag)
                for flag in ("--samples", "--seed", "--score-threshold", "--track-frames")
            ),
            *(
                pytest.param("generate", flag, id=f"generate{flag}")
                for flag in (
                    "--sample-threshold", "--samples", "--seed", "--score-threshold",
                    "--moving-weight", "--inconsistency-weight", "--track-frames",
                )
            ),
        ],
    )
    def test_evaluate_loss_has_no_sampler_or_scorer_flags(
        self, workspace, tmp_path, capsys, command, flag
    ):
        # the config file is the only way to set these
        out = tmp_path / "out"
        if command == "generate":
            argv = ["generate", str(workspace / "seq"), "--out", str(out)]
        else:
            argv = ["evaluate-loss", str(workspace / "seq"), "--pgt", str(workspace / "pgt")]
        assert main(argv + [flag, "2"]) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_sequence_too_short_for_tracking(self, tmp_path, workspace, capsys):
        cfg = tmp_path / "cfg.json"
        small = dict(CONFIG)
        small["simulate"] = dict(CONFIG["simulate"], n_frames=2)
        cfg.write_text(json.dumps(small))
        seq = tmp_path / "short"
        assert main(["simulate", "--config", str(cfg), "--seed", "1", "--out", str(seq)]) == 0
        capsys.readouterr()
        assert main(["generate", str(seq), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: sequence has 2 frames; tracking needs at least 4\n"
        assert not (tmp_path / "out").exists()

    def test_negative_jobs(self, workspace, capsys):
        code = main(["generate", str(workspace / "seq"), "--out", str(workspace / "x"), "--jobs", "-5"])
        assert code == 1
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [("simulate", "--seed"), ("render", "--frame")])
    def test_negative_counts(self, workspace, tmp_path, capsys, command, flag):
        out = tmp_path / "out"
        argv = [command, "--out", str(out), flag, "-1"]
        if command == "render":
            argv.insert(1, str(workspace / "seq"))
        assert main(argv) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_render_frame_outside_the_sequence(self, workspace, tmp_path, capsys):
        seq, out = workspace / "seq", tmp_path / "f.ppm"
        assert main(["render", str(seq), "--frame", "99", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {seq}: frame 99 outside sequence of 5 frames\n"
        assert not out.exists()

    def test_evaluate_loss_diagnostics_of_a_frame_outside_the_sequence(
        self, workspace, tmp_path, capsys
    ):
        """A stray diagnostics frame exits 2 before any frame line, whatever the
        proposal source and whether or not a grid file exists for it."""
        import shutil

        from lidarpgt.dataset import write_box_grid
        from lidarpgt.proposals import heuristic_grid

        seq, diagnostics, grids = workspace / "seq", tmp_path / "pgt" / "diagnostics", tmp_path / "grids"
        shutil.copytree(workspace / "pgt" / "diagnostics", diagnostics)
        shutil.copy(diagnostics / "000000.json", diagnostics / "000099.json")
        grids.mkdir()
        grid = heuristic_grid(read_cloud(seq / "velodyne" / "000000.bin"), GridSpec())
        for t in (0, 1, 99):
            write_box_grid(grids / f"{t:06d}.bin", grid)
        argv = ["evaluate-loss", str(seq), "--pgt", str(tmp_path / "pgt"), "--config", str(workspace / "cfg.json")]
        from_file = ["--proposals", f"file:{grids}"]
        cases = {"heuristic": [], "grid of frame 99": from_file, "no grid of frame 99": from_file}
        for case, proposals in cases.items():
            if case == "no grid of frame 99":
                (grids / "000099.bin").unlink()
            assert main(argv + proposals) == 2, case
            out, err = capsys.readouterr()
            assert out == "", (case, out)
            assert err == f"error: {diagnostics / '000099.json'}: frame 99 outside {seq}, a sequence of 5 frames\n", case

    def test_evaluate_loss_two_diagnostics_files_of_one_frame(self, workspace, tmp_path, capsys):
        """Two files naming one frame exit 2 naming both, before any frame line."""
        import shutil

        diagnostics = tmp_path / "pgt" / "diagnostics"
        shutil.copytree(workspace / "pgt" / "diagnostics", diagnostics)
        shutil.copy(diagnostics / "000001.json", diagnostics / "1.json")
        argv = ["evaluate-loss", str(workspace / "seq"), "--pgt", str(tmp_path / "pgt"),
                "--config", str(workspace / "cfg.json")]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {diagnostics / '000001.json'} and {diagnostics / '1.json'}: both are frame 1\n"

    @pytest.mark.parametrize("overlays, bad", [("gt,psuedo", "'psuedo'"), ("gt,,pseudo", "''")])
    def test_unknown_overlay(self, workspace, tmp_path, capsys, overlays, bad):
        out = tmp_path / "f.ppm"
        argv = ["render", str(workspace / "seq"), "--out", str(out), "--overlays", overlays,
                "--pgt", str(workspace / "pgt")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "--overlays" in err and bad in err, err
        assert not out.exists()

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
            ("generate", {"sampler": {"seed": -1}}, ["sampler", "seed"]),
            ("simulate", {"simulate": {"seed": -1}}, ["simulate", "seed"]),
            # frames too large to build: refused before any array is allocated
            (
                "simulate", {"simulate": {"n_frames": 2, "ground_density": 1e9}},
                ["simulate: ground_density:", "MAX_FRAME_POINTS"],
            ),
            (
                "simulate",
                {"simulate": {"objects": [{"cls": "vehicle", "position": [0.0, 12.0], "density": 1e9}]}},
                ["simulate: objects[0].density:", "MAX_FRAME_POINTS"],
            ),
            # a float key given as an integer no float can hold
            ("generate", {"loss": {"alpha": 10**400}}, ["loss.alpha", "expected float"]),
            ("simulate", {"simulate": {"ground_density": 10**400}}, ["simulate.ground_density", "expected float"]),
            # no anchor, or anchor dims that are not three numbers
            ("generate", {"anchors": []}, ["anchors:", "at least one anchor"]),
            ("generate", {"anchors": [{"name": "x", "dims": [1.0, 2.0]}]}, ["anchors[0]", "dims"]),
            # offending values too long to echo whole are abridged
            ("generate", {"sampler": {"confidence_threshold": [0.5] * 1000}}, ["sampler.confidence_threshold", "..."]),
            ("generate", {"grid": {"x_range": [0.0] * 2000}}, ["grid.x_range", "expected a list of 2", "..."]),
            ("generate", {"anchors": [{"name": "x", "dims": [1.0] * 1000}]}, ["anchors[0]", "dims", "..."]),
            ("simulate", {"simulate": {"seed": -10**400}}, ["simulate.seed", "..."]),
            # a grid too large to allocate: refused before any array or output exists
            ("generate", {"grid": {"height": 200000, "width": 200000}}, ["grid:", "MAX_GRID_PIXELS"]),
            # within MAX_GRID_PIXELS, but a box grid of 4096 x 4096 cells at stride 1
            ("generate", {"grid": {"height": 4096, "width": 4096, "stride": 1}}, ["grid:", "MAX_GRID_CELLS"]),
            # a camera image too large to allocate: refused before any output exists
            (
                "simulate",
                {"simulate": {"n_frames": 2, "intrinsics": {"fx": 500.0, "fy": 500.0, "cx": 800.0, "cy": 187.0,
                                                            "width": 200000, "height": 200000}}},
                ["simulate.intrinsics:", "MAX_IMAGE_PIXELS"],
            ),
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
        assert len(err.splitlines()) == 1 and len(err) < 400, err
        assert not Path(out).exists()

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

    @pytest.mark.parametrize(
        "iou, pair, key",
        [
            ("0.1234561,0.1234562,0.5,0.5", ("0.1234561", "0.1234562"), "0.123456"),
            ("0.5,0.3,0.5", ("0.5", "0.5"), "0.5"),
        ],
    )
    def test_iou_thresholds_sharing_a_report_key(self, workspace, tmp_path, capsys, iou, pair, key):
        out = tmp_path / "r.json"
        argv = ["evaluate", "--dets", str(workspace / "pgt" / "label_pgt"), "--gt", str(workspace / "seq" / "label_2"),
                "--iou", iou, "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "--iou" in err and f"thresholds {pair[0]} and {pair[1]}" in err and repr(key) in err, err
        assert not out.exists()



def _poison_raster(value):
    def corrupt(path):
        from lidarpgt.dataset import read_raster, write_raster

        arr = read_raster(path)
        arr.reshape(-1)[-1] = value  # for a box grid: the last pixel's confidence
        write_raster(path, arr)

    return corrupt


def _offset_occupied_cells(value):
    def corrupt(path):
        from lidarpgt.dataset import read_raster, write_raster

        arr = read_raster(path)
        arr[arr[:, :, 7] > 0, 0:3] = value
        write_raster(path, arr)

    return corrupt


def _set_grid_channel(channel, value, cells=(slice(None), slice(None))):
    def corrupt(path):
        from lidarpgt.dataset import read_raster, write_raster

        arr = read_raster(path)
        arr[(*cells, channel)] = value
        write_raster(path, arr)

    return corrupt


def _set_sidecar(named=None, **fields):
    """Set sidecar fields; returns `named`, which the error must also give."""

    def corrupt(path):
        meta = json.loads(path.read_text())
        meta.update(fields)
        path.write_text(json.dumps(meta))
        return named

    return corrupt


def _replace_line(index, text):
    """Replace line `index`, or add it one past the last; returns `path:line`,
    which the error must give."""

    def corrupt(path):
        lines = path.read_text().splitlines()
        lines[index : index + 1] = [text]
        path.write_text("\n".join(lines) + "\n")
        return f"{path}:{index + 1}"

    return corrupt


def _set_field(index, column, value):
    """Set field `column` of line `index`; returns `path:line`, which the error must give."""

    def corrupt(path):
        fields = path.read_text().splitlines()[index].split()
        fields[column] = value
        return _replace_line(index, " ".join(fields))(path)

    return corrupt


def _write_text(text):
    def corrupt(path):
        path.write_text(text)

    return corrupt


def _prepend_byte(byte):
    def corrupt(path):
        path.write_bytes(byte + path.read_bytes())

    return corrupt


def _copy_of(name):
    """Put a copy of the sibling file `name` at the corrupted path."""

    def corrupt(path):
        path.write_bytes((path.parent / name).read_bytes())

    return corrupt


def _second_name_of(name):
    """Put a copy of the sibling frame file `name` at the corrupted path, a
    second file for the same frame; returns the sibling, which the error
    must also name."""

    def corrupt(path):
        _copy_of(name)(path)
        return str(path.parent / name)

    return corrupt


def _append_score(index, score):
    """Append a score to line `index`; returns `path:line`, which the error must give."""

    def corrupt(path):
        lines = path.read_text().splitlines()
        lines[index] += f" {score}"
        path.write_text("\n".join(lines) + "\n")
        return f"{path}:{index + 1}"

    return corrupt


def _signalling_nan(path):
    """Overwrite the first float32 with a signalling NaN, which warns when cast to float64."""
    path.write_bytes(bytes([1, 0, 0x80, 0x7F]) + path.read_bytes()[4:])


def _edit_entry(edit, boxed=False):
    """Apply `edit` to the first diagnostics entry (with a box, if `boxed`);
    returns the entry's name, which the error must give."""

    def corrupt(path):
        payload = json.loads(path.read_text())
        i = next(i for i, e in enumerate(payload["pixels"]) if not boxed or e["box_lidar"])
        edit(payload["pixels"][i])
        path.write_text(json.dumps(payload))
        return f"pixels[{i}]"

    return corrupt


def _edit_config(edit):
    """Apply `edit` to the config file's JSON object; returns what `edit`
    returns, which the error must give."""

    def corrupt(path):
        payload = json.loads(path.read_text())
        entry = edit(payload)
        path.write_text(json.dumps(payload))
        return entry

    return corrupt


def _anchors_named_vehicle(cfg):
    """Vehicle and pedestrian anchors, both named "vehicle"."""
    cfg["anchors"] = [{"name": "vehicle", "dims": [1.88, 1.63, 4.58]}, {"name": "vehicle", "dims": [0.45, 1.70, 0.27]}]
    return "anchors[1].name"


def _repeat_first_entry(path):
    """Append a copy of the first diagnostics entry; returns the message naming both."""
    payload = json.loads(path.read_text())
    payload["pixels"].append(payload["pixels"][0])
    path.write_text(json.dumps(payload))
    return f"pixels[{len(payload['pixels']) - 1}] repeats the pixel of pixels[0]"


# name: (corrupted file, relative to a copy of the workspace, and how); every
# command that reads the file is run on it
CORRUPTIONS = {
    "calib-nan-rotation": ("seq/calib.txt", _replace_line(1, "lidar_to_cam: nan -1 0 0 0 0 -1 0 1 0 0 0")),
    "calib-nan-focal": ("seq/calib.txt", _replace_line(0, "intrinsics: nan 500 400 150 800 320")),
    "calib-fractional-width": ("seq/calib.txt", _replace_line(0, "intrinsics: 500 500 400 150 800.7 320")),
    "calib-repeated-key": ("seq/calib.txt", _replace_line(2, "intrinsics: 900 900 400 150 800 320")),
    # the KITTI axis permutation tilted 3 degrees about the camera's x axis
    "calib-tilted": (
        "seq/calib.txt", _replace_line(1, "lidar_to_cam: 0 -1 0 0 -0.0523359562 0 -0.998629535 0 0.998629535 0 -0.0523359562 0")
    ),
    "pose-nan": ("seq/poses.txt", _replace_line(1, " ".join(["nan"] * 12))),
    "flow-nan": ("seq/flow/000000.bin", _poison_raster(np.nan)),
    "depth-inf": ("seq/depth/000001.bin", _poison_raster(np.inf)),
    "depth-signalling-nan": ("seq/depth/000001.bin", _signalling_nan),
    "velodyne-signalling-nan": ("seq/velodyne/000000.bin", _signalling_nan),
    "grid-nan-confidence": ("seq/grids/000000.bin", _poison_raster(np.nan)),
    "grid-huge-offset": ("seq/grids/000000.bin", _offset_occupied_cells(1e38)),
    "grid-confidence-above-one": ("seq/grids/000000.bin", _set_grid_channel(7, 7.0, (0, 0))),
    "grid-negative-size": ("seq/grids/000000.bin", _set_grid_channel(3, -1.0)),
    # same byte count as the 320x800 camera's rasters, wrong image shape
    "depth-shape-160x1600": ("seq/depth/000001.bin.json", _set_sidecar(rows=160, cols=1600)),
    "flow-shape-160x1600": ("seq/flow/000000.bin.json", _set_sidecar(rows=160, cols=1600)),
    # the reader reads only the float32 row-major layout that write_raster writes
    "depth-sidecar-f8-column-major": (
        "seq/depth/000001.bin.json", _set_sidecar("'dtype'", dtype="<f8", order="column-major")
    ),
    "flow-sidecar-column-major": ("seq/flow/000000.bin.json", _set_sidecar("'order'", order="column-major")),
    "grid-sidecar-f8": ("seq/grids/000000.bin.json", _set_sidecar("'dtype'", dtype="<f8")),
    "sidecar-no-rows": ("seq/depth/000000.bin.json", _write_text('{"cols": 800, "channels": 1}')),
    "sidecar-list": ("seq/flow/000000.bin.json", _write_text("[320, 800, 2]")),
    "sidecar-string-rows": ("seq/depth/000000.bin.json", _write_text('{"rows": "320", "cols": 800, "channels": 1}')),
    "diagnostics-pixel-too-short": ("pgt/diagnostics/000000.json", _write_text('{"pixels": [{"pixel": [0]}]}')),
    "diagnostics-list-root": ("pgt/diagnostics/000000.json", _write_text("[]")),
    "diagnostics-pixels-not-a-list": ("pgt/diagnostics/000000.json", _write_text('{"pixels": 3}')),
    "diagnostics-truncated": ("pgt/diagnostics/000000.json", _write_text("{")),
    "diagnostics-nan-target": (
        "pgt/diagnostics/000000.json", _edit_entry(lambda e: e.update(target_confidence=float("nan")))
    ),
    "diagnostics-string-target": (
        "pgt/diagnostics/000000.json", _edit_entry(lambda e: e.update(target_confidence="x"))
    ),
    "diagnostics-target-above-one": (
        "pgt/diagnostics/000000.json", _edit_entry(lambda e: e.update(target_confidence=1.5))
    ),
    "diagnostics-pixel-outside-grid": (
        "pgt/diagnostics/000000.json", _edit_entry(lambda e: e.update(pixel=[999, 0]))
    ),
    # window 0 of the workspace has no U+ entry, window 1 has one
    "diagnostics-negative-dims": (
        "pgt/diagnostics/000001.json", _edit_entry(lambda e: e["box_lidar"].update(dims=[-1.0, 1.0, 1.0]), True)
    ),
    "diagnostics-no-anchor": ("pgt/diagnostics/000001.json", _edit_entry(lambda e: e.pop("anchor"), True)),
    "diagnostics-repeated-pixel": ("pgt/diagnostics/000000.json", _repeat_first_entry),
    # per-anchor results are kept by name, so a repeated name would mix two anchors' results
    "config-repeated-anchor-name": ("cfg.json", _edit_config(_anchors_named_vehicle)),
    "config-not-utf8": ("cfg.json", _prepend_byte(b"\xff")),
    "calib-not-utf8": ("seq/calib.txt", _prepend_byte(b"\xff")),
    "pose-not-utf8": ("seq/poses.txt", _prepend_byte(b"\xff")),
    "label-not-utf8": ("seq/label_2/000000.txt", _prepend_byte(b"\xff")),
    "velodyne-stray-name": ("seq/velodyne/foo.bin", _copy_of("000000.bin")),
    "velodyne-duplicate-frame": ("seq/velodyne/4.bin", _second_name_of("000004.bin")),
    "diagnostics-stray-name": ("pgt/diagnostics/foo.json", _copy_of("000000.json")),
    "diagnostics-duplicate-frame": ("pgt/diagnostics/1.json", _second_name_of("000001.json")),
    # detection files are paired with ground-truth files by name
    "dets-past-last-frame": ("dets/000099.txt", _copy_of("000000.txt")),
    "dets-stray-name": ("dets/notes.txt", _write_text("scored by hand\n")),
    "dets-score-above-one": ("dets/000000.txt", _append_score(0, 1.5)),
    "dets-fractional-occlusion": ("dets/000000.txt", _set_field(0, 2, "1.7")),
}


# the commands that read a file, by the first prefix of its path that matches;
# `render` reads only the diagnostics file of the frame it draws
READERS = {
    "cfg.json": ("simulate", "generate"),
    "seq/calib.txt": ("generate", "evaluate", "evaluate-loss", "render"),
    "seq/label_2/": ("evaluate", "render"),
    "dets/": ("evaluate",),
    "seq/velodyne/": ("generate", "evaluate-loss", "render"),
    "seq/": ("generate",),
    "pgt/diagnostics/foo.json": ("evaluate-loss",),
    "pgt/diagnostics/1.json": ("evaluate-loss",),
    "pgt/diagnostics/": ("evaluate-loss", "render"),
}


def _readers(relative):
    return next(commands for prefix, commands in READERS.items() if relative.startswith(prefix))


CORRUPTION_CASES = [
    pytest.param(name, command, id=name if command == "generate" else f"{name}-{command}")
    for name, (relative, _) in sorted(CORRUPTIONS.items())
    for command in _readers(relative)
]


@pytest.mark.parametrize("name, command", CORRUPTION_CASES)
def test_corrupted_input_exits_2_naming_the_file(workspace, tmp_path, capsys, name, command):
    import shutil
    import warnings

    from lidarpgt.dataset import write_box_grid
    from lidarpgt.proposals import heuristic_grid

    seq, pgt, cfg = tmp_path / "seq", tmp_path / "pgt", str(tmp_path / "cfg.json")
    shutil.copytree(workspace / "seq", seq)
    shutil.copytree(workspace / "seq" / "label_2", tmp_path / "dets")
    shutil.copytree(workspace / "pgt" / "diagnostics", pgt / "diagnostics")
    shutil.copy(workspace / "cfg.json", cfg)
    relative, corrupt = CORRUPTIONS[name]
    frame = Path(relative).stem if Path(relative).stem.isdigit() else "0"
    argv = {
        "simulate": ["simulate", "--config", cfg, "--out", str(tmp_path / "sim")],
        "generate": ["generate", str(seq), "--out", str(tmp_path / "out"), "--config", cfg, "--jobs", "1"],
        "evaluate": ["evaluate", "--dets", str(tmp_path / "dets"), "--gt", str(seq / "label_2"),
                     "--mode", "2d", "--calib", str(seq / "calib.txt")],
        "evaluate-loss": ["evaluate-loss", str(seq), "--pgt", str(pgt), "--config", cfg],
        "render": ["render", str(seq), "--frame", frame, "--out", str(tmp_path / "f.ppm"),
                   "--overlays", "gt,pseudo", "--pgt", str(pgt), "--config", cfg],
    }[command]
    if relative.startswith("seq/grids/"):
        grids = seq / "grids"
        grids.mkdir()
        for t in range(2):
            cloud = read_cloud(seq / "velodyne" / f"{t:06d}.bin")
            write_box_grid(grids / f"{t:06d}.bin", heuristic_grid(cloud, GridSpec()))
        argv += ["--proposals", f"file:{grids}"]
    entry = corrupt(tmp_path / relative)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    err = capsys.readouterr().err
    # a raster's sidecar errors may name the raster
    assert str(tmp_path / relative.replace(".bin.json", ".bin")) in err, err
    assert entry is None or entry in err, err
    assert len(err.splitlines()) == 1 and len(err) < 400, err


@pytest.mark.parametrize("relative, value", [("depth/000004.bin", np.inf), ("flow/000003.bin", np.nan)])
def test_corrupt_raster_of_a_window_with_no_crops_exits_2(workspace, tmp_path, capsys, relative, value):
    """Tracking reads every raster of the window even when no point is tracked."""
    import shutil

    seq, cfg = tmp_path / "seq", tmp_path / "cfg.json"
    shutil.copytree(workspace / "seq", seq)
    (seq / "velodyne" / "000000.bin").write_bytes(b"")  # an empty cloud: no crop holds a point
    cfg.write_text(json.dumps({**CONFIG, "scorer": {"k_frames": 4}}))  # one window, frames 0..4
    argv = ["generate", str(seq), "--out", str(tmp_path / "out"), "--config", str(cfg), "--jobs", "1"]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("U+: 0 ")
    _poison_raster(value)(seq / relative)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(seq / relative) in err and len(err.splitlines()) == 1, err


@pytest.mark.skipif(
    sys.version_info < (3, 11), reason="before 3.11 the caller's stack holds a call's arguments until it returns"
)
def test_generate_frees_the_box_grid_before_tracking(workspace, tmp_path, monkeypatch):
    import gc

    import lidarpgt.pipeline as pipeline
    from lidarpgt.bev import BoxGrid

    def grids():
        return [o for o in gc.get_objects() if isinstance(o, BoxGrid)]

    before = grids()
    alive = []

    def tracking(*args, **kwargs):
        alive.append([g for g in grids() if not any(g is b for b in before)])
        return track_points(*args, **kwargs)

    track_points = pipeline.track_points
    monkeypatch.setattr(pipeline, "track_points", tracking)
    argv = ["generate", str(workspace / "seq"), "--out", str(tmp_path / "out"),
            "--config", str(workspace / "cfg.json"), "--jobs", "1"]
    assert main(argv) == 0
    assert alive == [[], []]  # one tracking call per window, none with a grid alive


def _killed_at_window_3(seq, cfg, grids, out, t):
    """A stand-in for `_generate_frame` whose worker is killed at window 3."""
    import os
    import signal

    if t == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return 0, 0, 0.0


def _interrupted(seq, cfg, grids, out, t):
    raise KeyboardInterrupt


@pytest.mark.parametrize(
    "stand_in, jobs, code, message",
    [
        (_killed_at_window_3, "2", 2,
         "error: a worker stopped abruptly (killed, or out of memory); the output is incomplete\n"),
        (_interrupted, "1", 130, "interrupted; the output is incomplete\n"),
    ],
    ids=["killed-worker", "ctrl-c"],
)
def test_generate_stopped_from_outside(workspace, tmp_path, capsys, monkeypatch, stand_in, jobs, code, message):
    import lidarpgt.cli as cli

    monkeypatch.setattr(cli, "_generate_frame", stand_in)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**CONFIG, "scorer": {"k_frames": 1}}))  # windows 0..3
    argv = ["generate", str(workspace / "seq"), "--out", str(tmp_path / "out"), "--config", str(cfg), "--jobs", jobs]
    assert main(argv) == code
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("made", [True, False])
def test_evaluate_loss_without_diagnostics_exits_2(workspace, tmp_path, capsys, made):
    diagnostics = tmp_path / "pgt" / "diagnostics"
    if made:
        diagnostics.mkdir(parents=True)
    argv = ["evaluate-loss", str(workspace / "seq"), "--pgt", str(tmp_path / "pgt"),
            "--config", str(workspace / "cfg.json")]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {diagnostics}: no diagnostics files\n")


def test_evaluate_loss_checks_every_frame_name_before_printing(workspace, tmp_path, capsys):
    import shutil

    diagnostics = tmp_path / "pgt" / "diagnostics"
    shutil.copytree(workspace / "pgt" / "diagnostics", diagnostics)
    _copy_of("000000.json")(diagnostics / "foo.json")
    argv = ["evaluate-loss", str(workspace / "seq"), "--pgt", str(tmp_path / "pgt"),
            "--config", str(workspace / "cfg.json")]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and str(diagnostics / "foo.json") in err, (out, err)


TEXT_READERS = {
    "seq/poses.txt": read_poses,
    "seq/calib.txt": read_calib,
    "seq/label_2/000000.txt": read_labels,
    "pgt/label_pgt/000001.txt": read_labels,  # one row, with a score column
}
ODD_FIELDS = st.sampled_from(
    [b"nan", b"inf", b"-inf", b"1e999", b"9" * 400, b"-" + b"9" * 30, b"0", b"-1", b"x", b":", b""]
)


def _edit_byte(raw, data):
    """Replace, insert or (with no byte) delete one byte, non-UTF-8 ones included."""
    at = data.draw(st.integers(0, len(raw)), label="at")
    byte = data.draw(st.binary(max_size=1), label="byte")
    return raw[:at] + byte + raw[at + (0 if data.draw(st.booleans(), label="insert") else 1):]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_text_readers_raise_only_package_errors(workspace, tmp_path_factory, data):
    import warnings

    relative = data.draw(st.sampled_from(sorted(TEXT_READERS)), label="file")
    raw = (workspace / relative).read_bytes()
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        if data.draw(st.booleans(), label="byte edit"):
            raw = _edit_byte(raw, data)
        else:
            lines = raw.split(b"\n")
            i = data.draw(st.integers(0, len(lines) - 1), label="line")
            fields = lines[i].split(b" ")
            j = data.draw(st.integers(0, len(fields) - 1), label="field")
            how = data.draw(st.sampled_from(["swap", "drop", "add"]), label="how")
            if how == "drop":
                del fields[j]
            else:
                fields[j:j + (how == "swap")] = [data.draw(ODD_FIELDS, label="value")]
            lines[i] = b" ".join(fields)
            raw = b"\n".join(lines)
    path = tmp_path_factory.getbasetemp() / "fuzzed.txt"
    path.write_bytes(raw)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "re-orthonormalizing")  # read_poses repairs a small drift
        try:
            TEXT_READERS[relative](path)
        except LidarPgtError as exc:
            assert str(path) in str(exc), exc


def _json_paths(node, path=()):
    """The key path of every value below `node` in a JSON tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


@pytest.fixture(scope="module")
def small_diagnostics(workspace):
    """A diagnostics file of `generate`'s entries, cut to the first U- and the first U+ one."""
    pixels = [
        entry for path in sorted((workspace / "pgt" / "diagnostics").glob("*.json"))
        for entry in json.loads(path.read_text())["pixels"]
    ]
    kept = [next(e for e in pixels if e["box_lidar"] is None), next(e for e in pixels if e["box_lidar"])]
    return json.dumps({"pixels": kept})


ODD_VALUES = st.one_of(
    st.sampled_from([float("nan"), float("inf"), -1.0, 1.5, 999, -1, 10**400, True, None, "x", [], {}]),
    st.floats(),
    st.integers(),
    st.lists(st.floats(), max_size=4),
)


def _edit_json(payload, data):
    """Swap one value below `payload` for an odd one, or drop it from its object."""
    paths = list(_json_paths(payload))
    if not paths:
        return
    *parents, key = data.draw(st.sampled_from(paths), label="path")
    parent = functools.reduce(operator.getitem, parents, payload)
    if isinstance(parent, dict) and data.draw(st.booleans(), label="drop"):
        del parent[key]
    else:
        parent[key] = data.draw(ODD_VALUES, label="value")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_read_diagnostics_raises_only_package_errors(small_diagnostics, tmp_path_factory, data):
    payload = json.loads(small_diagnostics)
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        _edit_json(payload, data)
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(payload))
    try:
        read_diagnostics(path, GridSpec())
    except LidarPgtError:
        pass


@pytest.fixture(scope="module")
def raster_sources(workspace, tmp_path_factory):
    """A valid file per binary reader: frame 0's cloud, depth and flow, and a box grid."""
    from lidarpgt.dataset import write_box_grid
    from lidarpgt.proposals import heuristic_grid

    grid = tmp_path_factory.mktemp("grid") / "000000.bin"
    write_box_grid(grid, heuristic_grid(read_cloud(workspace / "seq" / "velodyne" / "000000.bin"), GridSpec()))
    seq = workspace / "seq"
    return {
        "velodyne/000000.bin": seq / "velodyne" / "000000.bin",
        "depth/000000.bin": seq / "depth" / "000000.bin",
        "flow/000000.bin": seq / "flow" / "000000.bin",
        "grids/000000.bin": grid,
    }


# the fuzzed file, relative to a sequence root, and how it is read
BINARY_READERS = {
    "velodyne/000000.bin": lambda seq, path: read_cloud(path),
    "depth/000000.bin": lambda seq, path: seq.read_depth(0),
    "flow/000000.bin": lambda seq, path: seq.read_flow(0),
    "grids/000000.bin": lambda seq, path: read_box_grid(path, GridSpec()),
}
ODD_FLOATS = st.sampled_from([float("nan"), float("inf"), float("-inf"), 3e38, -3e38, -1.0, 0.0, 2.0, 1e-45])


def _edit_payload(raw, data):
    """One edit of a float32 payload: a byte, a float overwritten with an odd value, or a cut."""
    how = data.draw(st.sampled_from(["byte", "float", "cut"]), label="payload edit")
    if how == "float" and len(raw) >= 4:
        at = 4 * data.draw(st.integers(0, len(raw) // 4 - 1), label="float at")
        return raw[:at] + np.array(data.draw(ODD_FLOATS, label="float"), dtype="<f4").tobytes() + raw[at + 4:]
    if how == "cut":
        return raw[:data.draw(st.integers(0, len(raw)), label="length")]
    return _edit_byte(raw, data)


def _edit_sidecar(raw, data):
    """One edit of a sidecar: a byte, a value swapped or dropped, or the
    shape refolded to the same byte count (k times one axis, 1/k another)."""
    how = data.draw(st.sampled_from(["byte", "value", "refold"]), label="sidecar edit")
    try:
        meta = json.loads(raw)
    except ValueError:
        how = "byte"
    if how == "byte":
        return _edit_byte(raw, data)
    if how == "value":
        _edit_json(meta, data)
    elif isinstance(meta, dict):
        axes = [k for k in ("rows", "cols", "channels") if isinstance(meta.get(k), int)]
        if len(axes) >= 2:
            grow, shrink = data.draw(st.permutations(axes), label="axes")[:2]
            k = data.draw(st.sampled_from([2, 4, 8]), label="k")
            if meta[shrink] % k == 0:
                meta[grow], meta[shrink] = meta[grow] * k, meta[shrink] // k
    return json.dumps(meta).encode()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_binary_readers_raise_only_package_errors(workspace, raster_sources, tmp_path_factory, data):
    import dataclasses

    relative = data.draw(st.sampled_from(sorted(BINARY_READERS)), label="file")
    payload = raster_sources[relative].read_bytes()
    sidecar_source = raster_sources[relative].with_name(raster_sources[relative].name + ".json")
    sidecar = sidecar_source.read_bytes() if sidecar_source.exists() else None
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        if sidecar is not None and data.draw(st.booleans(), label="edit the sidecar"):
            sidecar = _edit_sidecar(sidecar, data)
        else:
            payload = _edit_payload(payload, data)
    root = tmp_path_factory.getbasetemp() / "fuzzed-seq"
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(payload)
    if sidecar is not None:
        path.with_name(path.name + ".json").write_bytes(sidecar)
    seq = dataclasses.replace(load_sequence(workspace / "seq"), root=root)
    try:
        BINARY_READERS[relative](seq, path)
    except LidarPgtError as exc:
        assert str(path) in str(exc), exc  # a sidecar's path starts with its raster's
