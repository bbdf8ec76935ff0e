"""Command-line entry point.

Commands: simulate a synthetic sequence, generate pseudo-ground-truth labels,
evaluate detections, inspect the training loss, and render BEV overlays.

Exit codes: 0 success, 1 usage error, 2 data error or a killed worker,
3 internal error, 130 interrupted.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import signal
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .bev import SIZE, YAW, grid_centres, rasterize
from .dataset import (
    committed, frame_files, frame_path, label_record, load_sequence, read_calib, read_diagnostics, read_run,
    write_diagnostics, write_labels, write_raster, write_run,
)
from .errors import ConfigInvalid, LidarPgtError, MalformedFile, MissingFrameData
from .evaluation import evaluate_sequence, threshold_key
from .geometry import LIDAR, Obb3, transform_obb
from .loss import LossBreakdown, frame_loss_terms
from .pipeline import FrameWindow, generate_pseudo_labels
from .proposals import grid_from_file, heuristic_grid
from .render import GT_COLOR, PROPOSAL_COLOR, PSEUDO_COLOR, render_overlays, write_ppm
from .simulate import make_scene, write_scene

_PGT_CLASS = "Mobile"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="lidarpgt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic sequence on disk")
    p.add_argument("--config", help="JSON config file (simulate section)")
    p.add_argument("--seed", type=_count, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("generate", help="produce pseudo-ground-truth labels for a sequence")
    p.add_argument("sequence", help="sequence directory")
    p.add_argument("--out", required=True)
    p.add_argument(
        "--proposals", type=_proposals, default="heuristic",
        help="'heuristic' or 'file:<dir>' with per-frame box-grid files",
    )
    p.add_argument("--jobs", type=_count, default=0, help="frame-level workers (0 = every usable CPU)")
    p.add_argument("--config", help="JSON config file overriding the defaults")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="score detections against ground truth")
    p.add_argument("--dets", required=True, help="directory of detection label files")
    p.add_argument("--gt", required=True, help="directory of ground-truth label files")
    p.add_argument("--mode", choices=("bev", "2d"), default="bev")
    p.add_argument(
        "--iou", type=_thresholds, default="0.1:0.7:0.1",
        help="thresholds in (0, 1]: start:stop:step or comma list",
    )
    p.add_argument("--calib", help="calib.txt used to project boxes in 2d mode")
    p.add_argument("--out", help="write the report as JSON here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("evaluate-loss", help="training-loss breakdown for generated labels")
    p.add_argument("sequence")
    p.add_argument("--pgt", required=True, help="output directory of a generate run")
    p.add_argument("--proposals", type=_proposals, default=argparse.SUPPRESS, help="must match --pgt's run.json")
    p.add_argument("--config", help="must match --pgt's run.json")
    p.set_defaults(func=cmd_evaluate_loss)

    p = sub.add_parser("render", help="render a BEV image with box overlays")
    p.add_argument("sequence")
    p.add_argument("--frame", type=_count, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--overlays", type=_overlays, default="gt", help="comma list of gt,pseudo,proposals")
    p.add_argument("--pgt", help="generate output directory (for pseudo overlays)")
    p.add_argument("--bev-raster", help="also export the raw BEV channels as a flat binary raster")
    p.add_argument(
        "--proposals", type=_proposals, default=argparse.SUPPRESS,
        help="'heuristic' (the default) or 'file:<dir>', for proposals overlays; with --pgt, must match its run.json",
    )
    p.add_argument("--config", help="JSON config file overriding the defaults; with --pgt, must match its run.json")
    p.set_defaults(func=cmd_render)
    return parser


def _proposals(text: str) -> Path | None:
    """None for the heuristic grid, else the directory of per-frame box-grid files."""
    if text == "heuristic":
        return None
    if text.startswith("file:"):
        return Path(text[5:])
    raise argparse.ArgumentTypeError(f"expected 'heuristic' or 'file:<dir>', got {text!r}")


def _count(text: str) -> int:
    """An integer >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _overlays(text: str) -> set[str]:
    names = [name.strip() for name in text.split(",")]
    for name in names:
        if name not in ("gt", "pseudo", "proposals"):
            raise argparse.ArgumentTypeError(
                f"expected a comma list of gt, pseudo and proposals, got {name!r} in {text!r}"
            )
    return set(names)


def _load_grid(grids: Path | None, seq, t, cfg: cfgmod.Config, cloud=None):
    if grids is None:
        cloud = seq.read_cloud(t) if cloud is None else cloud
        return heuristic_grid(cloud, cfg.grid, cfg.ground_margin)
    return grid_from_file(frame_path(grids, t, ".bin"), cfg.grid)


def _generate_frame(seq, cfg: cfgmod.Config, grids, out: Path, t: int):
    """Label the window starting at frame t and write its files; the run's
    inputs come first so that `functools.partial` binds them once."""
    # Per-frame seeds keep frames decorrelated but reproducible.
    sampler = dataclasses.replace(cfg.sampler, seed=cfg.sampler.seed + t)
    # no local name holds the window or the grid, so the pipeline can free them before tracking
    result = generate_pseudo_labels(
        FrameWindow.from_sequence(seq, t, cfg.scorer.k_frames), _load_grid(grids, seq, t, cfg),
        cfg.grid, sampler, cfg.anchors, cfg.scorer,
    )
    calib = seq.calibration
    records = [
        label_record(_PGT_CLASS, label.box, calib.lidar_to_cam, calib.intrinsics, label.confidence)
        for label in result.u_plus
    ]
    write_labels(frame_path(out / "label_pgt", t, ".txt"), records)
    write_diagnostics(frame_path(out / "diagnostics", t, ".json"), result)
    mean_conf_sum = sum(l.confidence for l in result.u_plus) + sum(c for _, c in result.u_minus)
    return len(result.u_plus), len(result.u_minus), mean_conf_sum


def cmd_simulate(args) -> int:
    cfg = cfgmod.load_config(args.config)
    seed = cfg.seed if args.seed is None else args.seed
    points_per_frame = write_scene(make_scene(cfg.scene, seed), cfg.scene, args.out, seed=seed)
    print(
        f"wrote {len(points_per_frame)} frames, {len(cfg.scene.objects)} objects, "
        f"~{sum(points_per_frame) // len(points_per_frame)} points/frame to {args.out}"
    )
    return 0


def cmd_generate(args) -> int:
    cfg = cfgmod.load_config(args.config)
    seq = load_sequence(args.sequence)
    n_windows = seq.n_frames - cfg.scorer.k_frames
    if n_windows <= 0:
        raise MissingFrameData(
            f"sequence has {seq.n_frames} frames; tracking needs at least {cfg.scorer.k_frames + 1}"
        )
    # --jobs 0: the CPUs this process may run on, where the platform can say
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    jobs = min(args.jobs or cpus or 1, n_windows)
    with committed(args.out) as out:
        (out / "label_pgt").mkdir()
        (out / "diagnostics").mkdir()
        work = functools.partial(_generate_frame, seq, cfg, args.proposals, out)
        # workers ignore the SIGINT that Ctrl-C sends the whole process group: the parent stops the run
        pool = None if jobs == 1 else ProcessPoolExecutor(
            jobs, initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN))
        try:
            results = list((pool.map if pool else map)(work, range(n_windows)))
        finally:
            if pool:  # on the way out, windows not yet handed to a worker do not run
                pool.shutdown(cancel_futures=True)
        write_run(out / "run.json", cfg.merged, args.proposals, range(n_windows))
    n_plus, n_minus, conf_sum = map(sum, zip(*results))
    total = n_plus + n_minus
    mean_conf = conf_sum / total if total else 0.0
    print(f"U+: {n_plus}  U-: {n_minus}  mean confidence: {mean_conf:.4f}")
    return 0


# Thresholds are rounded to 6 decimals, so a finer step only repeats them.
_MIN_IOU_STEP = 1e-6


def _thresholds(text: str) -> list[float]:
    """IoU thresholds in (0, 1] from `start:stop:step` or a comma list; no two may share a report key."""
    try:
        if "," in text or ":" not in text:
            values = [float(v) for v in text.split(",")]
        else:
            start, stop, step = (float(v) for v in text.split(":"))
            values = []
            while 0 < start <= stop + 1e-9 and stop <= 1 and step >= _MIN_IOU_STEP:  # at most 10**6 + 1 values
                values.append(round(start, 6))
                start += step
    except ValueError:
        values = []
    if not values or not all(0 < v <= 1 for v in values):
        raise argparse.ArgumentTypeError(
            f"expected thresholds in (0, 1] as a comma list or start:stop:step with "
            f"start <= stop and step >= {_MIN_IOU_STEP:g}, got {text!r}"
        )
    seen = {}
    for v in values:
        key = threshold_key(v)
        if key in seen:
            raise argparse.ArgumentTypeError(f"thresholds {seen[key]!r} and {v!r} share the report key {key!r}")
        seen[key] = v
    return values


def cmd_evaluate(args) -> int:
    intrinsics = read_calib(args.calib).intrinsics if args.calib else None
    report = evaluate_sequence(args.dets, args.gt, args.mode, args.iou, intrinsics)
    if args.out:
        Path(args.out).write_text(json.dumps(report.to_dict(), indent=1) + "\n")
    print(report.format_table())
    return 0


def _loss_terms_text(terms: LossBreakdown) -> str:
    return (
        f"centre={terms.centre:.6f} dims={terms.dims:.6f} yaw={terms.yaw:.6f} "
        f"conf+={terms.confidence_pos:.6f} conf-={terms.confidence_neg:.6f}"
    )


def _run_inputs(args):
    """The config and grid directory to read with: --pgt's run.json's, which flags given must match, else the flags'."""
    if not args.pgt:
        return cfgmod.load_config(args.config), vars(args).get("proposals")
    recorded, grids = read_run(args.pgt)
    if args.config and cfgmod.load_config(args.config).merged != recorded.merged:
        raise ConfigInvalid(f"--config {args.config} differs from the config in {Path(args.pgt) / 'run.json'}")
    if "proposals" in args and (args.proposals and args.proposals.resolve()) != grids:
        raise ConfigInvalid(f"--proposals differs from the proposals in {Path(args.pgt) / 'run.json'}")
    return recorded, grids


def cmd_evaluate_loss(args) -> int:
    cfg, grids = _run_inputs(args)
    seq = load_sequence(args.sequence)
    diag_dir = Path(args.pgt) / "diagnostics"
    frames = sorted(frame_files(diag_dir, ".json").items())
    if not frames:
        raise MalformedFile(f"{diag_dir}: no diagnostics files")
    last, path = frames[-1]
    if last >= seq.n_frames:
        raise MissingFrameData(f"{path}: frame {last} outside {seq.root}, a sequence of {seq.n_frames} frames")
    per_frame = []  # every frame is read before the first line is printed
    for t, path in frames:
        grid = _load_grid(grids, seq, t, cfg)
        u_plus, u_minus = read_diagnostics(path, cfg.grid)
        per_frame.append((t, frame_loss_terms(grid, u_plus, u_minus, cfg.grid, cfg.loss)))
    totals = LossBreakdown()
    for t, terms in per_frame:
        print(f"frame {t:04d}: total={terms.total:.6f} {_loss_terms_text(terms)}")
        for key, value in vars(terms).items():
            setattr(totals, key, getattr(totals, key) + value)
    print(f"total: {totals.total:.6f} {_loss_terms_text(totals)}")
    return 0


def cmd_render(args) -> int:
    cfg, grids = _run_inputs(args)
    seq = load_sequence(args.sequence)
    t = args.frame
    cloud = seq.read_cloud(t)
    overlays = []
    cam_to_lidar = seq.calibration.lidar_to_cam.invert()
    if "gt" in args.overlays and seq.path("label", t).exists():
        boxes = [transform_obb(r.box, cam_to_lidar, LIDAR) for r in seq.read_labels(t)]
        overlays.append((GT_COLOR, boxes))
    if "pseudo" in args.overlays:
        if not args.pgt:
            raise _UsageError("--pgt is required for the pseudo overlay")
        u_plus, _ = read_diagnostics(frame_path(Path(args.pgt) / "diagnostics", t, ".json"), cfg.grid)
        overlays.append((PSEUDO_COLOR, [label.box for label in u_plus]))
    if "proposals" in args.overlays:
        grid = _load_grid(grids, seq, t, cfg, cloud)
        shown = grid.confidence > cfg.sampler.confidence_threshold
        shown &= np.all(grid.data[:, :, SIZE] > 0, axis=2)
        centres = grid_centres(grid, cfg.grid)[shown.reshape(-1)]
        boxes = [Obb3(c, code[SIZE], float(code[YAW]), LIDAR) for c, code in zip(centres, grid.data[shown])]
        overlays.append((PROPOSAL_COLOR, boxes))
    raster = rasterize(cloud, cfg.grid)
    write_ppm(args.out, render_overlays(raster, cfg.grid, overlays))
    if args.bev_raster:
        write_raster(args.bev_raster, raster)
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    except (LidarPgtError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenProcessPool:
        print("error: a worker stopped abruptly (killed, or out of memory); --out is unchanged", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except Exception as exc:  # pragma: no cover - internal invariant violations
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
