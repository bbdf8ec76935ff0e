import dataclasses
import functools
import json
import operator
import os
import shutil
import subprocess
import sys
import warnings
from collections.abc import Sequence
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidarpgt.bev import GridSpec
from lidarpgt.cli import main
from lidarpgt.config import read_run
from lidarpgt.dataset import (
    FRAME_FILES, load_sequence, read_box_grid, read_calib, read_cloud, read_diagnostics, read_labels, read_poses,
    write_poses,
)
from lidarpgt.errors import LidarPgtError
from lidarpgt.geometry import RigidTransform
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
    shutil.copytree(root / "seq" / "label_2", root / "dets")  # detections to corrupt
    return root


def _tree(root):
    """Every entry under `root` by its relative path: a file's bytes, None for a directory."""
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


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

    def test_diagnostics_format(self, workspace, tmp_path, monkeypatch):
        """Every entry's keys in order; each anchor's `alive` is its crop's row count, then the rows
        alive at each tracking step (zeros for a crop of < 3 rows, which is never tracked); and the
        scores are measured, or null, together."""
        import lidarpgt.pipeline as pipeline

        crop_rows, crop_sizes = pipeline._crop_rows, []

        def recording(*args):
            crops = crop_rows(*args)
            crop_sizes.append([len(rows) for per_pixel in crops for rows in per_pixel])
            return crops

        monkeypatch.setattr(pipeline, "_crop_rows", recording)
        out = tmp_path / "pgt"
        argv = ["generate", str(workspace / "seq"), "--out", str(out), "--config", str(workspace / "cfg.json")]
        assert main(argv + ["--jobs", "1"]) == 0
        assert _tree(out) == _tree(workspace / "pgt")
        k = json.loads((out / "run.json").read_text())["config"]["scorer"]["k_frames"]
        assert len(crop_sizes) == 2  # windows 0 and 1, in order
        stages = set()
        for t, sizes in enumerate(crop_sizes):
            payload = json.loads((out / "diagnostics" / f"{t:06d}.json").read_text())
            assert list(payload) == ["pixels"]
            anchors = []
            for entry in payload["pixels"]:
                keys = ["pixel", "smoothed_confidence", "anchors", "target_confidence", "box_lidar"]
                if entry["box_lidar"] is not None:
                    keys.append("anchor")
                    assert list(entry["box_lidar"]) == ["centre", "dims", "yaw"]
                assert list(entry) == keys
                assert list(entry["anchors"]) == ["pedestrian", "cyclist", "vehicle"]
                anchors += entry["anchors"].values()
            assert len(anchors) == len(sizes)
            for anchor, size in zip(anchors, sizes):
                assert list(anchor) == ["moving", "inconsistency", "confidence", "alive"]
                alive = anchor["alive"]
                assert len(alive) == k + 1 and all(type(n) is int for n in alive)
                assert alive[0] == size and alive == sorted(alive, reverse=True)
                assert (alive[1:] == [0] * k) == (size < 3)
                measured = [anchor[key] is not None for key in ("moving", "inconsistency", "confidence")]
                assert len(set(measured)) == 1
                assert not measured[0] or min(alive) >= 3  # a fitted set has >= 3 rows
                stages.add("scored" if measured[0] else "crop" if size < 3 else "tracked")
        assert {"scored", "crop"} <= stages, stages

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
        """A 4-frame scene simulated over a 5-frame one replaces each directory it
        writes whole: the tree equals a fresh run's."""
        seq, short = tmp_path / "seq", tmp_path / "short.json"
        short.write_text(json.dumps(dict(CONFIG, simulate=dict(CONFIG["simulate"], n_frames=4))))
        assert main(["simulate", "--config", str(workspace / "cfg.json"), "--seed", "3", "--out", str(seq)]) == 0
        (seq / "velodyne" / "notes.txt").write_text("not kept\n")
        assert main(["simulate", "--config", str(short), "--seed", "3", "--out", str(seq)]) == 0
        assert main(["simulate", "--config", str(short), "--seed", "3", "--out", str(tmp_path / "fresh")]) == 0
        assert _tree(seq) == _tree(tmp_path / "fresh")
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
        for name in ("label_pgt/000000.txt", "label_pgt/000001.txt", "diagnostics/000000.json", "run.json"):
            assert (workspace / "pgt" / name).read_bytes() == (out2 / name).read_bytes()

    def test_rerun_with_fewer_windows_removes_stale_frames(self, workspace, tmp_path, capsys):
        out = tmp_path / "pgt"
        short = tmp_path / "k1.json"
        short.write_text(json.dumps(dict(CONFIG, scorer={"k_frames": 1})))
        assert main(["generate", str(workspace / "seq"), "--out", str(out), "--config", str(short)]) == 0
        assert len(list((out / "label_pgt").glob("*.txt"))) == 4
        (out / "label_pgt" / "notes.txt").write_text("not kept\n")
        cfg = workspace / "cfg.json"
        assert main(["generate", str(workspace / "seq"), "--out", str(out), "--config", str(cfg)]) == 0
        # label_pgt/ and diagnostics/ are replaced whole: windows 2 and 3 of the first run are gone
        assert _tree(out) == _tree(workspace / "pgt")
        capsys.readouterr()
        assert main(["evaluate-loss", str(workspace / "seq"), "--pgt", str(out), "--config", str(cfg)]) == 0
        assert [line[:10] for line in capsys.readouterr().out.splitlines()[:-1]] == ["frame 0000", "frame 0001"]

    @pytest.mark.parametrize(
        "jobs, usable_cpus, pools",
        [
            pytest.param("5000", range(64), [2], id="5000"),
            pytest.param("0", range(64), [2], id="0"),
            pytest.param("0", {0}, [], id="0-one-usable-cpu"),
        ],
    )
    def test_workers_capped_at_window_count(self, workspace, tmp_path, monkeypatch, jobs, usable_cpus, pools):
        """--jobs 0 counts the CPUs this process may run on, not every CPU of the machine."""
        import lidarpgt.cli as cli

        started = []

        class SerialPool:
            """Stand-in executor: records the worker count and maps in-process."""

            def __init__(self, max_workers, **_):
                started.append(max_workers)

            def shutdown(self, cancel_futures):
                pass

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(usable_cpus), raising=False)
        out = tmp_path / "pgt"
        argv = ["generate", str(workspace / "seq"), "--out", str(out), "--config", str(workspace / "cfg.json")]
        assert main(argv + ["--jobs", jobs]) == 0
        assert started == pools  # 5 frames, horizon 3: two windows; one usable CPU starts no pool
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
        # threads share this process, so loads made inside the workers are counted too;
        # the workers' SIGINT initializer is for processes, and a thread may not set a handler
        monkeypatch.setattr(cli, "ProcessPoolExecutor", lambda jobs, **_: concurrent.futures.ThreadPoolExecutor(jobs))
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
        from lidarpgt.bev import BoxGrid, pillar_centre, rasterize
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
        grid.set_code(pixel, (0.1, -0.2, 0.0, 4.0, 1.8, 1.5, 0.4, 0.9))
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
        write_ppm(tmp_path / "expected.ppm", render_overlays(rasterize(cloud, spec), spec, [(PROPOSAL_COLOR, [box])]))
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
        arr = read_raster(raster, (608, 608, 3))
        assert arr.min() >= 0.0 and arr.max() <= 1.0

    def test_render_rasterizes_the_cloud_once(self, workspace, tmp_path, monkeypatch):
        import lidarpgt.bev as bev
        import lidarpgt.cli as cli
        import lidarpgt.render as render

        calls = []

        def counting(*args):
            calls.append(args)
            return bev.rasterize(*args)

        # the image and the exported raster are drawn from one raster
        for module in (cli, render):
            monkeypatch.setattr(module, "rasterize", counting, raising=False)
        argv = ["render", str(workspace / "seq"), "--out", str(tmp_path / "f.ppm"), "--overlays", "gt",
                "--bev-raster", str(tmp_path / "bev.bin")]
        assert main(argv) == 0
        assert len(calls) == 1


# the argv of each command on the workspace; {seq}, {pgt}, {dets} and {cfg} name the
# workspace's entries, or a row's copy of one, {tmp} the row's own directory
COMMANDS = {
    "simulate": "simulate --config {cfg} --out {out}",
    "generate": "generate {seq} --out {out} --config {cfg} --jobs 1",
    "evaluate": "evaluate --dets {dets} --gt {seq}/label_2 --mode 2d --calib {seq}/calib.txt --out {out}",
    "evaluate-loss": "evaluate-loss {seq} --pgt {pgt} --config {cfg}",
    "render": "render {seq} --frame 0 --out {out} --overlays gt,pseudo --pgt {pgt} --config {cfg}",
}

# LIDARPGT_CLI=installed runs the failure rows through the `lidarpgt` script on PATH
INSTALLED = os.environ.get("LIDARPGT_CLI") == "installed"


@dataclasses.dataclass(frozen=True)
class Failure:
    """A command line that must exit with `code` and one stderr line under 400
    characters naming each of `named`, print nothing on stdout and leave no
    {out}; run by the `fails` fixture."""

    command: str  # a key of COMMANDS, or an argv template of its own
    code: int
    named: Sequence[str] = ()
    flags: str = ""  # appended to the argv; of a flag given twice, the last counts
    config: dict | None = None  # written to {cfg} in place of the workspace's
    # (path relative to {tmp}, how): `how(path)` edits a copy of the workspace
    # entry the path lies in, if there is one, and may return one more name
    edit: tuple | None = None


@pytest.fixture
def fails(workspace, tmp_path, capsys):
    """Run a `Failure` row and check it: through `main`, or through the installed
    script, with warnings as errors either way."""

    def run(row):
        paths = {"tmp": tmp_path, "out": tmp_path / "out", "cfg": workspace / "cfg.json",
                 "seq": workspace / "seq", "pgt": workspace / "pgt", "dets": workspace / "dets"}
        if row.config is not None:
            paths["cfg"] = tmp_path / "cfg.json"
            paths["cfg"].write_text(json.dumps(row.config))
        named = []
        if row.edit:
            relative, how = row.edit
            source = workspace / Path(relative).parts[0]
            if source.exists():
                (shutil.copytree if source.is_dir() else shutil.copy)(source, tmp_path / source.name)
                paths[source.stem] = tmp_path / source.name  # cfg.json is {cfg}
            named.append(how(tmp_path / relative))
        named += [name.format(**paths) for name in row.named]
        argv = [arg.format(**paths) for arg in f"{COMMANDS.get(row.command, row.command)} {row.flags}".split()]
        capsys.readouterr()
        if INSTALLED:  # a call that never ends fails the row instead of hanging the run
            child = subprocess.run(["lidarpgt", *argv], env={**os.environ, "PYTHONWARNINGS": "error"},
                                   capture_output=True, text=True, timeout=60)
            code, out, err = child.returncode, child.stdout, child.stderr
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(argv)
            out, err = capsys.readouterr()
        assert code == row.code, (code, err)
        assert len(err.splitlines()) == 1 and len(err) < 400, err
        assert all(name in err for name in named if name is not None), (named, err)
        assert out == "" and not paths["out"].exists(), out

    return run


def _simulated(n_frames):
    """Simulate the test scene, cut to `n_frames`, at the edited path."""

    def edit(path):
        cfg = path.with_suffix(".json")
        cfg.write_text(json.dumps(dict(CONFIG, simulate=dict(CONFIG["simulate"], n_frames=n_frames))))
        assert main(["simulate", "--config", str(cfg), "--seed", "1", "--out", str(path)]) == 0

    return edit


class TestCliErrors:
    @pytest.mark.failure
    def test_missing_dets_dir(self, fails):
        fails(Failure("evaluate --dets {tmp}/nope --gt {seq}/label_2", 2, ["{tmp}/nope: detection directory"]))

    @pytest.mark.failure
    def test_missing_sequence(self, fails):
        fails(Failure("generate {tmp}/nothing --out {out}", 2, ["{tmp}/nothing: missing velodyne/"]))

    @pytest.mark.failure
    def test_unknown_command(self, fails):
        fails(Failure("frobnicate", 1, ["'frobnicate'"]))

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "simulate" in capsys.readouterr().out

    @pytest.mark.failure
    def test_bad_proposals_flag(self, fails):
        fails(Failure("generate", 1, ["--proposals", "'magic'"], "--proposals magic"))

    @pytest.mark.failure
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
    def test_evaluate_loss_has_no_sampler_or_scorer_flags(self, fails, command, flag):
        # the config file is the only way to set these
        fails(Failure(command, 1, [flag], f"{flag} 2"))

    @pytest.mark.failure
    def test_sequence_too_short_for_tracking(self, fails):
        named = ["error: sequence has 2 frames; tracking needs at least 4\n"]
        fails(Failure("generate {tmp}/short --out {out}", 2, named, edit=("short", _simulated(2))))

    @pytest.mark.failure
    def test_negative_jobs(self, fails):
        fails(Failure("generate", 1, ["--jobs"], "--jobs -5"))

    @pytest.mark.failure
    @pytest.mark.parametrize("command, flag", [("simulate", "--seed"), ("render", "--frame")])
    def test_negative_counts(self, fails, command, flag):
        fails(Failure(command, 1, [flag], f"{flag} -1"))

    @pytest.mark.failure
    def test_render_frame_outside_the_sequence(self, fails):
        fails(Failure("render", 2, ["error: {seq}: frame 99 outside sequence of 5 frames\n"], "--frame 99"))

    def test_evaluate_loss_diagnostics_of_a_frame_outside_the_sequence(
        self, workspace, tmp_path, capsys
    ):
        """A stray diagnostics frame exits 2 before any frame line, whatever the
        proposal source and whether or not a grid file exists for it."""
        from lidarpgt.dataset import write_box_grid
        from lidarpgt.proposals import heuristic_grid

        seq, grids = workspace / "seq", tmp_path / "grids"
        grids.mkdir()
        grid = heuristic_grid(read_cloud(seq / "velodyne" / "000000.bin"), GridSpec())
        for t in (0, 1, 99):
            write_box_grid(grids / f"{t:06d}.bin", grid)
        shutil.copytree(workspace / "pgt", tmp_path / "heuristic")
        argv = ["generate", str(seq), "--out", str(tmp_path / "file"), "--config", str(workspace / "cfg.json"),
                "--proposals", f"file:{grids}", "--jobs", "1"]
        assert main(argv) == 0
        for pgt in ("heuristic", "file"):
            shutil.copy(tmp_path / pgt / "diagnostics" / "000000.json", tmp_path / pgt / "diagnostics" / "000099.json")
        for case, pgt in {"heuristic": "heuristic", "grid of frame 99": "file", "no grid of frame 99": "file"}.items():
            if case == "no grid of frame 99":
                (grids / "000099.bin").unlink()  # no window read it, so run.json does not list it
            capsys.readouterr()
            assert main(["evaluate-loss", str(seq), "--pgt", str(tmp_path / pgt)]) == 2, case
            out, err = capsys.readouterr()
            assert out == "", (case, out)
            stray = tmp_path / pgt / "diagnostics" / "000099.json"
            assert err == f"error: {stray}: frame 99 outside {seq}, a sequence of 5 frames\n", case

    @pytest.mark.failure
    def test_evaluate_loss_two_diagnostics_files_of_one_frame(self, fails):
        """Two files naming one frame exit 2 naming both, before any frame line."""
        named = ["error: {pgt}/diagnostics/000001.json and {pgt}/diagnostics/1.json: both are frame 1\n"]
        fails(Failure("evaluate-loss", 2, named, edit=("pgt/diagnostics/1.json", _copy_of("000001.json"))))

    @pytest.mark.failure
    @pytest.mark.parametrize("overlays, bad", [("gt,psuedo", "'psuedo'"), ("gt,,pseudo", "''")])
    def test_unknown_overlay(self, fails, overlays, bad):
        fails(Failure("render", 1, ["--overlays", bad], f"--overlays {overlays}"))

    @pytest.mark.failure
    def test_evaluate_out_in_a_missing_directory(self, fails):
        """The report is written before the table is printed, so a failed write prints nothing."""
        fails(Failure("evaluate", 2, ["{tmp}/missing/r.json"], "--out {tmp}/missing/r.json"))

    @pytest.mark.failure
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
            # a grid range whose width or midpoint leaves the float range
            ("generate", {"grid": {"x_range": [-1e308, 1e308]}}, ["grid:", "finite width"]),
            ("generate", {"grid": {"y_range": [-1e308, 1e308]}}, ["grid:", "finite width"]),
            ("generate", {"grid": {"z_range": [1e308, 1.7e308]}}, ["grid:", "midpoint"]),
            ("render", {"grid": {"x_range": [-1e308, 1e308]}}, ["grid:", "finite width"]),
            ("render", {"grid": {"y_range": [-1e308, 1e308]}}, ["grid:", "finite width"]),
            ("render", {"grid": {"z_range": [1e308, 1.7e308]}}, ["grid:", "midpoint"]),
            # a simulated body, or the ground, past MAX_REACH_M, or a heading past the float range
            (
                "simulate",
                {"simulate": {"objects": [{"cls": "vehicle", "position": [3.0, 12.0], "velocity": [1e308, 0.0]}]}},
                ["simulate: objects[0].velocity:", "MAX_REACH_M"],
            ),
            (
                "simulate",
                {"simulate": {"objects": [{"cls": "vehicle", "position": [1e308, 15.0]}]}},
                ["simulate: objects[0].position:", "MAX_REACH_M"],
            ),
            ("simulate", {"simulate": {"ego": {"yaw_rate": 1e308}}}, ["simulate: ego.yaw_rate:", "float range"]),
            (
                "simulate",
                {"simulate": {"ground_extent": [-1e308, 1e308, 4.0, 30.0], "ground_density": 0.0}},
                ["simulate: ground_extent:", "MAX_REACH_M"],
            ),
            ("simulate", {"simulate": {"ground_y": 1e308}}, ["simulate: ground_y:", "MAX_REACH_M"]),
            # a focal length whose projected pixels overflow: refused before any output exists
            (
                "simulate", {"simulate": {"n_frames": 2, "intrinsics": {"fx": 1e308}}},
                ["simulate.intrinsics:", "MAX_FOCAL_PX"],
            ),
            (
                "simulate", {"simulate": {"n_frames": 2, "intrinsics": {"fy": 1e30}}},
                ["simulate.intrinsics:", "MAX_FOCAL_PX"],
            ),
        ],
    )
    def test_malformed_config(self, fails, command, config, named):
        fails(Failure(command, 2, named, config=config))

    @pytest.mark.failure
    @pytest.mark.parametrize(
        "iou",
        [
            "0.1:0.7:0", "0.1:0.7:-0.1", "0.1:0.7:nan", "nan", "0.1,nan", "0", "-0.2", "1.5", "0.1:1.2:0.1",
            "abc", "0.1:0.7",
            # ranges with an end past (0, 1] that a loop over their values would never finish
            "0.5:inf:0.1", "0.5:1e9:0.5", "-inf:0.5:0.1",
        ],
    )
    def test_bad_iou_thresholds(self, fails, iou):
        # `--iou=<range>`, so that a range starting with "-inf" is not read as a flag
        fails(Failure("evaluate", 1, ["--iou"], f"--iou={iou}"))

    @pytest.mark.failure
    @pytest.mark.parametrize(
        "iou, pair, key",
        [
            ("0.1234561,0.1234562,0.5,0.5", ("0.1234561", "0.1234562"), "0.123456"),
            ("0.5,0.3,0.5", ("0.5", "0.5"), "0.5"),
            ("0.5,0.5", ("0.5", "0.5"), "0.5"),
        ],
    )
    def test_iou_thresholds_sharing_a_report_key(self, fails, iou, pair, key):
        fails(Failure("evaluate", 1, ["--iou", f"thresholds {pair[0]} and {pair[1]}", repr(key)], f"--iou {iou}"))


def _stored_raster(path):
    """The raster at `path`, (rows, cols, channels) as its sidecar declares."""
    from lidarpgt.dataset import read_raster

    meta = json.loads(Path(str(path) + ".json").read_text())
    return read_raster(path, (meta["rows"], meta["cols"], meta["channels"]))


def _poison_raster(value):
    def corrupt(path):
        from lidarpgt.dataset import write_raster

        arr = _stored_raster(path)
        arr.reshape(-1)[-1] = value  # for a box grid: the last pixel's confidence
        write_raster(path, arr)

    return corrupt


def _offset_occupied_cells(value):
    def corrupt(path):
        from lidarpgt.dataset import write_raster

        arr = _stored_raster(path)
        arr[arr[:, :, 7] > 0, 0:3] = value
        write_raster(path, arr)

    return corrupt


def _set_grid_channel(channel, value, cells=(slice(None), slice(None))):
    def corrupt(path):
        from lidarpgt.dataset import write_raster

        arr = _stored_raster(path)
        arr[(*cells, channel)] = value
        write_raster(path, arr)

    return corrupt


def _halve_rows(path):
    """Rewrite a raster with its first half of rows, payload and sidecar alike;
    returns the sidecar, which the error must name."""
    from lidarpgt.dataset import write_raster

    arr = _stored_raster(path)
    write_raster(path, arr[: len(arr) // 2])
    return str(path) + ".json"


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
    second file for the same frame; returns the message naming both."""

    def corrupt(path):
        _copy_of(name)(path)
        return f"{path.parent / name} and {path}: both are frame {int(path.stem)}"

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


def _after_grids(corrupt):
    """Write heuristic box grids of frames 0 and 1 into the corrupted path's
    directory, then `corrupt` the path."""
    from lidarpgt.dataset import write_box_grid
    from lidarpgt.proposals import heuristic_grid

    def edit(path):
        path.parent.mkdir()
        for t in range(2):
            cloud = read_cloud(path.parents[1] / "velodyne" / f"{t:06d}.bin")
            write_box_grid(path.parent / f"{t:06d}.bin", heuristic_grid(cloud, GridSpec()))
        return corrupt(path)

    return edit


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
    # a focal length past MAX_FOCAL_PX, whose projected pixels overflow; the error names the file, not a line
    "calib-huge-focal": (
        "seq/calib.txt",
        _write_text("intrinsics: 500 1e308 400 150 800 320\nlidar_to_cam: 0 -1 0 0 0 0 -1 0 1 0 0 0\n"),
    ),
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
    # a self-consistent raster of half the image's rows: rejected by its sidecar, before the payload is read
    "depth-half-rows": ("seq/depth/000000.bin", _halve_rows),
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
    # the run.json of a generate output, which evaluate-loss and render take their inputs from
    "run-json-missing": ("pgt/run.json", Path.unlink),
    "run-json-truncated": ("pgt/run.json", _write_text("{")),
    "run-json-list-root": ("pgt/run.json", _write_text("[]")),
    "run-json-null-grids": ("pgt/run.json", _edit_config(lambda run: run.update(grids=None))),
    "run-json-unknown-proposals": ("pgt/run.json", _edit_config(lambda run: run.update(proposals="magic"))),
    "run-json-heuristic-with-grids": ("pgt/run.json", _edit_config(lambda run: run.update(grids={"a.bin": "0"}))),
    "run-json-config-list": ("pgt/run.json", _edit_config(lambda run: run.update(config=[]))),
    "run-json-bad-config": (
        "pgt/run.json", _edit_config(lambda run: run["config"]["grid"].update(stride="4") or "grid.stride")
    ),
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
    # detection files are paired with ground-truth files by the frame their names give
    "dets-past-last-frame": ("dets/000099.txt", _copy_of("000000.txt")),
    "dets-stray-name": ("dets/notes.txt", _write_text("scored by hand\n")),
    "dets-duplicate-frame": ("dets/1.txt", _second_name_of("000001.txt")),
    "label-duplicate-frame": ("seq/label_2/1.txt", _second_name_of("000001.txt")),
    "dets-score-above-one": ("dets/000000.txt", _append_score(0, 1.5)),
    "dets-fractional-occlusion": ("dets/000000.txt", _set_field(0, 2, "1.7")),
    # a middle frame's raster gone: refused when the sequence is indexed, before any frame is read
    "flow-missing-frame": ("seq/flow/000003.bin", Path.unlink),
    "depth-missing-frame": ("seq/depth/000002.bin", Path.unlink),
}


# the commands that read a file, by the first prefix of its path that matches;
# `render` reads only the diagnostics file of the frame it draws
READERS = {
    "cfg.json": ("simulate", "generate"),
    "seq/calib.txt": ("generate", "evaluate", "evaluate-loss", "render"),
    "seq/label_2/1.txt": ("evaluate",),
    "seq/label_2/": ("evaluate", "render"),
    "dets/": ("evaluate",),
    "seq/velodyne/": ("generate", "evaluate-loss", "render"),
    "seq/flow/000003.bin": ("generate", "evaluate-loss", "render"),
    "seq/depth/000002.bin": ("generate", "evaluate-loss", "render"),
    "seq/": ("generate",),
    "pgt/diagnostics/foo.json": ("evaluate-loss",),
    "pgt/diagnostics/1.json": ("evaluate-loss",),
    "pgt/diagnostics/": ("evaluate-loss", "render"),
    "pgt/run.json": ("evaluate-loss", "render"),
}


def _readers(relative):
    return next(commands for prefix, commands in READERS.items() if relative.startswith(prefix))


CORRUPTION_CASES = [
    pytest.param(name, command, id=name if command == "generate" else f"{name}-{command}")
    for name, (relative, _) in sorted(CORRUPTIONS.items())
    for command in _readers(relative)
]


@pytest.mark.failure
@pytest.mark.parametrize("name, command", CORRUPTION_CASES)
def test_corrupted_input_exits_2_naming_the_file(fails, name, command):
    relative, corrupt = CORRUPTIONS[name]
    frame, flags = Path(relative).stem, ""
    if command == "render" and frame.isdigit():
        flags = f"--frame {frame}"
    if relative.startswith("seq/grids/"):
        flags, corrupt = "--proposals file:{seq}/grids", _after_grids(corrupt)
    # a raster's sidecar errors may name the raster
    named = ["{tmp}/" + relative.replace(".bin.json", ".bin")]
    fails(Failure(command, 2, named, flags, edit=(relative, corrupt)))


@pytest.mark.parametrize("relative, value", [("depth/000004.bin", np.inf), ("flow/000003.bin", np.nan)])
def test_corrupt_raster_of_a_window_with_no_crops_exits_2(workspace, tmp_path, capsys, relative, value):
    """Tracking reads every raster of the window even when no point is tracked."""
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
    from lidarpgt.geometry import PointCloud

    def objects():
        return [o for o in gc.get_objects() if isinstance(o, (BoxGrid, PointCloud))]

    before = objects()
    alive = []

    def tracking(*args, **kwargs):
        alive.append([type(o).__name__ for o in objects() if not any(o is b for b in before)])
        return track_points(*args, **kwargs)

    track_points = pipeline.track_points
    monkeypatch.setattr(pipeline, "track_points", tracking)
    argv = ["generate", str(workspace / "seq"), "--out", str(tmp_path / "out"),
            "--config", str(workspace / "cfg.json"), "--jobs", "1"]
    assert main(argv) == 0
    assert alive == [[], []]  # one tracking call per window, none with a grid or a cloud alive


def _write_window(out, t):
    """Write a label file for window t, as `_generate_frame` would."""
    (out / "label_pgt" / f"{t:06d}.txt").write_text("")


def _killed_at_window_3(seq, cfg, grids, out, t):
    """A stand-in for `_generate_frame` whose worker is killed at window 3."""
    import os
    import signal

    _write_window(out, t)
    if t == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return 0, 0, 0.0


def _interrupted(seq, cfg, grids, out, t):
    _write_window(out, t)
    raise KeyboardInterrupt


@pytest.mark.parametrize(
    "stand_in, jobs, code, message",
    [
        (_killed_at_window_3, "2", 2, "error: a worker stopped abruptly (killed, or out of memory); --out is unchanged\n"),
        (_interrupted, "1", 130, "interrupted\n"),
        (_interrupted, "2", 130, "interrupted\n"),
    ],
    ids=["killed-worker", "ctrl-c", "ctrl-c-jobs-2"],
)
def test_generate_stopped_from_outside(workspace, tmp_path, capsys, monkeypatch, stand_in, jobs, code, message):
    """A stopped run leaves an earlier run's --out byte-identical, and makes no fresh one."""
    import lidarpgt.cli as cli

    monkeypatch.setattr(cli, "_generate_frame", stand_in)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**CONFIG, "scorer": {"k_frames": 1}}))  # windows 0..3
    earlier = tmp_path / "earlier"
    shutil.copytree(workspace / "pgt", earlier)
    (earlier / "keep.txt").write_text("kept\n")
    before = _tree(earlier)
    for out in (earlier, tmp_path / "fresh"):
        argv = ["generate", str(workspace / "seq"), "--out", str(out), "--config", str(cfg), "--jobs", jobs]
        assert main(argv) == code
        assert capsys.readouterr() == ("", message)
    assert _tree(earlier) == before
    assert not (tmp_path / "fresh").exists()


# run in a child process: a stand-in `_generate_frame` that sends SIGINT to its
# process group at window 1, as Ctrl-C in a terminal does, then runs the CLI.
# Under --jobs 2 it first waits until the other worker has written windows 0, 2
# and 3, so that the signal finds that worker waiting for work.
_SIGINT_AT_WINDOW_1 = """
import multiprocessing, os, signal, sys, time
import lidarpgt.cli as cli

def interrupt_at_window_1(seq, cfg, grids, out, t):
    (out / "label_pgt" / f"{t:06d}.txt").write_text("")
    if t == 1:
        others = [out / "label_pgt" / f"{u:06d}.txt" for u in (0, 2, 3)]
        while multiprocessing.parent_process() and not all(p.exists() for p in others):
            time.sleep(0.01)
        os.killpg(os.getpgrp(), signal.SIGINT)
    return 0, 0, 0.0

if __name__ == "__main__":
    cli._generate_frame = interrupt_at_window_1
    sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_generate_under_a_real_ctrl_c(workspace, tmp_path, jobs):
    """Every process of the run gets the SIGINT: the run exits 130 with one
    line, no worker traceback, and leaves --out as it was."""
    script, cfg, out = tmp_path / "interrupted.py", tmp_path / "cfg.json", tmp_path / "out"
    script.write_text(_SIGINT_AT_WINDOW_1)
    cfg.write_text(json.dumps({**CONFIG, "scorer": {"k_frames": 1}}))  # windows 0..3
    shutil.copytree(workspace / "pgt", out)
    before = _tree(out)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["generate", str(workspace / "seq"), "--out", str(out), "--config", str(cfg), "--jobs", jobs]
    # a session of its own: the signal reaches the child's process group, never this one
    child = subprocess.run([sys.executable, str(script), *argv], env=env, capture_output=True, text=True,
                           timeout=120, start_new_session=True)
    assert (child.returncode, child.stdout, child.stderr) == (130, "", "interrupted\n")
    assert _tree(out) == before


@pytest.mark.failure
@pytest.mark.parametrize("made", [True, False])
def test_evaluate_loss_without_diagnostics_exits_2(fails, made):
    """A generate output whose diagnostics/ is empty, or gone."""
    def edit(path):
        shutil.rmtree(path)
        if made:
            path.mkdir()

    named = ["error: {pgt}/diagnostics: no diagnostics files\n"]
    fails(Failure("evaluate-loss", 2, named, edit=("pgt/diagnostics", edit)))


@pytest.mark.failure
def test_evaluate_loss_checks_every_frame_name_before_printing(fails):
    fails(Failure("evaluate-loss", 2, ["{pgt}/diagnostics/foo.json"], edit=("pgt/diagnostics/foo.json", _copy_of("000000.json"))))


def _file_run(seq, corrupt):
    """Write heuristic box grids of `seq`'s frames 0 and 1 into the corrupted path's
    directory, generate {tmp}/filepgt from them, then `corrupt` the path."""
    from lidarpgt.dataset import write_box_grid
    from lidarpgt.proposals import heuristic_grid

    def edit(path):
        path.parent.mkdir(parents=True)
        for t in range(2):
            cloud = read_cloud(seq / "velodyne" / f"{t:06d}.bin")
            write_box_grid(path.parent / f"{t:06d}.bin", heuristic_grid(cloud, GridSpec()))
        cfg = path.parents[2] / "filepgt.json"
        cfg.write_text(json.dumps(CONFIG))
        argv = ["generate", str(seq), "--out", str(path.parents[2] / "filepgt"), "--config", str(cfg),
                "--proposals", f"file:{path.parent}", "--jobs", "1"]
        assert main(argv) == 0
        return corrupt(path)

    return edit


_FILE_RUN_READERS = {
    "evaluate-loss": "evaluate-loss {seq} --pgt {tmp}/filepgt",
    "render": "render {seq} --out {out} --overlays proposals --pgt {tmp}/filepgt",
}


@pytest.mark.failure
@pytest.mark.parametrize(
    "command, name, corrupt",
    [
        ("evaluate-loss", "000000.bin", _set_grid_channel(7, 0.0)),  # still a valid grid, but another
        ("render", "000000.bin", _set_grid_channel(7, 0.0)),
        ("render", "000001.bin.json", _set_sidecar(note="edited")),  # a key the reader ignores
        ("evaluate-loss", "000001.bin", Path.unlink),
    ],
    ids=["grid-edited-evaluate-loss", "grid-edited-render", "sidecar-edited-render", "grid-removed-evaluate-loss"],
)
def test_grid_file_changed_after_generate_exits_2(fails, workspace, command, name, corrupt):
    """run.json holds the SHA-256 of every grid file a window read; each is checked
    before anything is read, whichever frame is rendered."""
    fails(Failure(_FILE_RUN_READERS[command], 2, ["{tmp}/run/grids/" + name, "{tmp}/filepgt/run.json"],
                  edit=("run/grids/" + name, _file_run(workspace / "seq", corrupt))))


@pytest.mark.failure
@pytest.mark.parametrize("command", ["evaluate-loss", "render"])
def test_config_other_than_run_json_exits_2(fails, command):
    config = {**CONFIG, "sampler": {"sample_count": 42}}
    fails(Failure(command, 2, ["--config {cfg}", "{pgt}/run.json"], config=config))


@pytest.mark.failure
@pytest.mark.parametrize("command", ["evaluate-loss", "render"])
def test_proposals_other_than_run_json_exits_2(fails, command):
    fails(Failure(command, 2, ["--proposals", "{pgt}/run.json"], "--proposals file:{seq}"))


@pytest.mark.failure
def test_heuristic_proposals_for_a_file_run_exit_2(fails, workspace):
    """Scoring a file: run's targets against the heuristic grid is refused."""
    named = ["--proposals", "{tmp}/filepgt/run.json"]
    edit = ("run/grids/000000.bin", _file_run(workspace / "seq", lambda path: None))
    fails(Failure(_FILE_RUN_READERS["evaluate-loss"], 2, named, "--proposals heuristic", edit=edit))


def test_readers_take_their_inputs_from_run_json(workspace, tmp_path, capsys):
    """evaluate-loss and render print and write the same bytes with no --config and
    --proposals as with generate's, for a heuristic run and for a file: run."""
    from lidarpgt.dataset import write_box_grid
    from lidarpgt.proposals import heuristic_grid

    seq, cfg, grids = workspace / "seq", str(workspace / "cfg.json"), tmp_path / "grids"
    grids.mkdir()
    for t in range(2):  # scaled, so that they are not the heuristic grid itself
        grid = heuristic_grid(read_cloud(seq / "velodyne" / f"{t:06d}.bin"), GridSpec())
        grid.data[..., 7] *= 0.9
        write_box_grid(grids / f"{t:06d}.bin", grid)
    argv = ["generate", str(seq), "--out", str(tmp_path / "filepgt"), "--config", cfg, "--proposals", f"file:{grids}",
            "--jobs", "1"]
    assert main(argv) == 0
    for pgt, proposals in ((workspace / "pgt", "heuristic"), (tmp_path / "filepgt", f"file:{grids}")):
        outputs = []
        for flags in (["--config", cfg, "--proposals", proposals], []):
            capsys.readouterr()
            assert main(["evaluate-loss", str(seq), "--pgt", str(pgt), *flags]) == 0
            ppm, raster = tmp_path / "f.ppm", tmp_path / "bev.bin"
            argv = ["render", str(seq), "--frame", "1", "--out", str(ppm), "--overlays", "gt,pseudo,proposals",
                    "--pgt", str(pgt), "--bev-raster", str(raster), *flags]
            assert main(argv) == 0
            outputs.append((capsys.readouterr(), ppm.read_bytes(), raster.read_bytes()))
        assert outputs[0] == outputs[1], pgt
        assert "total:" in outputs[0][0].out
    heuristic, from_file = (workspace / "pgt" / "run.json").read_text(), (tmp_path / "filepgt" / "run.json").read_text()
    assert json.loads(heuristic)["grids"] == {} and sorted(json.loads(from_file)["grids"]) == [
        "000000.bin", "000000.bin.json", "000001.bin", "000001.bin.json"]


def test_window_output_does_not_depend_on_later_frames(workspace, tmp_path):
    """With the last frame and its pose cut, the one window left (frames 0..3)
    writes the bytes the full run wrote for it, and the same run.json."""
    seq = tmp_path / "seq"
    shutil.copytree(workspace / "seq", seq)
    for directory, suffix in FRAME_FILES.values():
        for path in (seq / directory).glob(f"000004{suffix}*"):
            path.unlink()
    poses = (seq / "poses.txt").read_text().splitlines(keepends=True)
    (seq / "poses.txt").write_text("".join(poses[:-1]))
    argv = ["generate", str(seq), "--out", str(tmp_path / "pgt"), "--config", str(workspace / "cfg.json"), "--jobs", "1"]
    assert main(argv) == 0
    for name in ("label_pgt/000000.txt", "diagnostics/000000.json", "run.json"):
        assert (tmp_path / "pgt" / name).read_bytes() == (workspace / "pgt" / name).read_bytes(), name
    assert sorted(p.name for p in (tmp_path / "pgt" / "label_pgt").iterdir()) == ["000000.txt"]


# run in a fresh interpreter: `import lidarpgt` loads no submodule, and `evaluate`
# (BEV and 2D) and `--help` load none of the modules that only the other commands use,
# hashlib among them (it hashes the grid files run.json lists)
_EVALUATE_IMPORTS = """
import contextlib, io, sys
import lidarpgt
loaded = sorted(m for m in sys.modules if m.startswith("lidarpgt."))
assert not loaded, f"import lidarpgt loaded {loaded}"
from lidarpgt.cli import main
seq, pgt = (f"{sys.argv[1]}/{name}" for name in ("seq", "pgt"))
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["evaluate", "--dets", f"{pgt}/label_pgt", "--gt", f"{seq}/label_2"]) == 0
    assert main(["evaluate", "--dets", f"{pgt}/label_pgt", "--gt", f"{seq}/label_2", "--mode", "2d",
                 "--calib", f"{seq}/calib.txt"]) == 0
    assert main(["--help"]) == 0
unused = ["lidarpgt." + m for m in ("pipeline", "sampling", "config", "simulate", "proposals", "loss", "render")]
loaded = sorted(set(sys.modules) & {*unused, "concurrent.futures.process", "multiprocessing", "hashlib"})
assert not loaded, f"evaluate loaded {loaded}"
"""

# run in a fresh interpreter: `_generate_frame` runs where no command has run, as in a
# spawned worker; each name that tests and the benchmark's tracer replace on
# lidarpgt.cli resolves before any command has run, to its module's object; and
# binding the other commands' names keeps a replacement made before it
_CLI_NAMES = """
import importlib, pathlib, sys
import lidarpgt.cli as cli
from lidarpgt.config import load_config
from lidarpgt.dataset import load_sequence
workspace, out = (pathlib.Path(arg) for arg in sys.argv[1:])
for directory in ("label_pgt", "diagnostics"):
    (out / directory).mkdir()
cli._generate_frame(load_sequence(workspace / "seq"), load_config(workspace / "cfg.json"), None, out, 1)
for name in ("label_pgt/000001.txt", "diagnostics/000001.json"):
    assert (out / name).read_bytes() == (workspace / "pgt" / name).read_bytes(), name
homes = {"make_scene": "simulate", "write_scene": "simulate", "heuristic_grid": "proposals",
         "grid_from_file": "proposals", "generate_pseudo_labels": "pipeline", "frame_loss_terms": "loss",
         "render_overlays": "render", "load_sequence": "dataset", "rasterize": "bev", "_generate_frame": "cli"}
for name, home in homes.items():
    assert getattr(cli, name) is getattr(importlib.import_module(f"lidarpgt.{home}"), name), name
assert cli.ProcessPoolExecutor is importlib.import_module("concurrent.futures.process").ProcessPoolExecutor
cli.heuristic_grid = stand_in = object()
cli._bind()
assert cli.heuristic_grid is stand_in and cli.make_scene is sys.modules["lidarpgt.simulate"].make_scene
"""


@pytest.mark.parametrize("script", [_EVALUATE_IMPORTS, _CLI_NAMES], ids=["evaluate-imports", "cli-names"])
def test_cli_imports_in_a_fresh_interpreter(workspace, tmp_path, script):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", script, str(workspace), str(tmp_path)],
                           env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr


def _diagnostics_close(a, b, rel_tol, where="diagnostics"):
    """Two parsed diagnostics files hold the same keys, lists, nulls (a -inf confidence) and
    integers, and floats equal within rel_tol."""
    if isinstance(a, dict) and isinstance(b, dict):
        assert a.keys() == b.keys(), where
        for key in a:
            _diagnostics_close(a[key], b[key], rel_tol, f"{where}.{key}")
    elif isinstance(a, list) and isinstance(b, list):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _diagnostics_close(x, y, rel_tol, f"{where}[{i}]")
    elif type(a) is float and type(b) is float:
        assert abs(a - b) <= rel_tol * max(abs(a), abs(b)), (where, a, b)
    else:
        assert a == b and type(a) is type(b), (where, a, b)


def _permute_cloud_rows(seq):
    rng = np.random.default_rng(0)
    for path in (seq / "velodyne").glob("*.bin"):
        rows = np.fromfile(path, dtype="<f4").reshape(-1, 4)
        rows[rng.permutation(len(rows))].tofile(path)


def _move_world(seq):
    """Compose every pose with one rigid motion: 0.7 rad about the tilted axis (0.3, 0.8, -0.5)
    (Rodrigues' formula), then a translation far from the origin."""
    x, y, z = np.array([0.3, 0.8, -0.5]) / np.linalg.norm([0.3, 0.8, -0.5])
    cross = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    rotation = np.eye(3) + np.sin(0.7) * cross + (1.0 - np.cos(0.7)) * cross @ cross
    motion = RigidTransform(rotation, np.array([1234.5, -3.0, -987.25]))
    write_poses(seq / "poses.txt", [motion.compose(pose) for pose in read_poses(seq / "poses.txt")])


@pytest.mark.parametrize("change", [_permute_cloud_rows, _move_world], ids=["row-order", "world-motion"])
def test_generate_does_not_depend_on_cloud_row_order_or_world_frame(workspace, tmp_path, change):
    """With every cloud's rows permuted, or the world frame moved, generate writes the same
    label bytes, and diagnostics that differ only by the rounding of sums taken in another
    order or of poses composed with the motion."""
    seq = tmp_path / "seq"
    shutil.copytree(workspace / "seq", seq)
    change(seq)
    out, cfg = tmp_path / "pgt", workspace / "cfg.json"
    assert main(["generate", str(seq), "--out", str(out), "--config", str(cfg), "--jobs", "1"]) == 0
    assert _tree(out / "label_pgt") == _tree(workspace / "pgt" / "label_pgt")
    for t in range(2):
        name = f"diagnostics/{t:06d}.json"
        changed, original = (json.loads((root / name).read_text()) for root in (out, workspace / "pgt"))
        _diagnostics_close(changed, original, rel_tol=1e-9, where=name)


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


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_read_run_raises_only_package_errors(workspace, tmp_path_factory, data):
    payload = json.loads((workspace / "pgt" / "run.json").read_text())
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        _edit_json(payload, data)
    pgt = tmp_path_factory.getbasetemp() / "fuzzed-pgt"
    pgt.mkdir(exist_ok=True)
    (pgt / "run.json").write_text(json.dumps(payload))
    try:
        read_run(pgt)
    except LidarPgtError as exc:
        assert str(pgt / "run.json") in str(exc), exc


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
