"""Command-line entry point.

Commands: simulate a synthetic sequence, generate pseudo-ground-truth labels,
evaluate detections, inspect the training loss, and render BEV overlays.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .bev import decode_box
from .dataset import load_sequence, write_labels
from .errors import LidarPgtError
from .evaluation import evaluate_sequence, label_record
from .geometry import LIDAR, Obb3, transform_obb
from .loss import frame_loss_terms
from .pipeline import FrameWindow, PseudoLabel, generate_pseudo_labels
from .proposals import grid_from_file, heuristic_grid
from .render import GT_COLOR, PROPOSAL_COLOR, PSEUDO_COLOR, render_overlays, write_ppm
from .simulate import make_scene, write_scene

_PGT_CLASS = "Mobile"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _apply_overrides(cfg, args):
    over = {
        ("sampler", "confidence_threshold"): args.sample_threshold,
        ("sampler", "sample_count"): args.samples,
        ("sampler", "seed"): args.seed,
        ("scorer", "score_threshold"): args.score_threshold,
        ("scorer", "moving_weight"): args.moving_weight,
        ("scorer", "inconsistency_weight"): args.inconsistency_weight,
        ("scorer", "k_frames"): args.track_frames,
    }
    for (section, key), value in over.items():
        if value is not None:
            cfg[section][key] = value
    return cfg


def build_parser() -> _Parser:
    parser = _Parser(prog="lidarpgt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic sequence on disk")
    p.add_argument("--config", help="JSON config file (simulate section)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("generate", help="produce pseudo-ground-truth labels for a sequence")
    p.add_argument("sequence", help="sequence directory")
    p.add_argument("--out", required=True)
    p.add_argument(
        "--proposals", type=_proposals, default="heuristic",
        help="'heuristic' or 'file:<dir>' with per-frame box-grid files",
    )
    p.add_argument("--jobs", type=int, default=0, help="frame-level workers (0 = all cores)")
    p.add_argument("--config", help="JSON config file overriding the defaults")
    p.add_argument("--sample-threshold", type=float, help="confidence band split")
    p.add_argument("--samples", type=int, help="pixels sampled per frame")
    p.add_argument("--seed", type=int, help="sampler seed (per-frame seeds add the frame index)")
    p.add_argument("--score-threshold", type=float, help="anchor survival threshold")
    p.add_argument("--moving-weight", type=float)
    p.add_argument("--inconsistency-weight", type=float)
    p.add_argument("--track-frames", type=int, help="tracking horizon in frames")
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
    p.add_argument("--proposals", type=_proposals, default="heuristic")
    p.add_argument("--config", help="JSON config file overriding the defaults")
    p.set_defaults(func=cmd_evaluate_loss)

    p = sub.add_parser("render", help="render a BEV image with box overlays")
    p.add_argument("sequence")
    p.add_argument("--frame", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--overlays", default="gt", help="comma list of gt,pseudo,proposals")
    p.add_argument("--pgt", help="generate output directory (for pseudo overlays)")
    p.add_argument("--bev-raster", help="also export the raw BEV channels as a flat binary raster")
    p.add_argument("--config")
    p.set_defaults(func=cmd_render)
    return parser


def _proposals(text: str) -> Path | None:
    """None for the heuristic grid, else the directory of per-frame box-grid files."""
    if text == "heuristic":
        return None
    if text.startswith("file:"):
        return Path(text[5:])
    raise argparse.ArgumentTypeError(f"expected 'heuristic' or 'file:<dir>', got {text!r}")


def _load_grid(grids: Path | None, seq, t, spec, ground_margin, cloud=None):
    if grids is None:
        return heuristic_grid(seq.read_cloud(t) if cloud is None else cloud, spec, ground_margin)
    return grid_from_file(grids / f"{t:06d}.bin", spec)


def _diagnostics_payload(result):
    pixels = []
    by_pixel = {label.pixel: label for label in result.u_plus}
    targets = dict(result.u_minus)
    for diag in result.diagnostics:
        entry = {
            "pixel": list(diag.pixel),
            "smoothed_confidence": diag.smoothed_confidence,
            "chosen_anchor": diag.chosen_anchor,
            "anchors": {
                name: {
                    "moving": score.moving,
                    "inconsistency": score.inconsistency,
                    "confidence": None if score.confidence == -math.inf else score.confidence,
                }
                for name, score in diag.anchor_scores.items()
            },
        }
        label = by_pixel.get(diag.pixel)
        if label is not None:
            entry["target_confidence"] = label.confidence
            entry["box_lidar"] = {
                "centre": label.box.centre.tolist(),
                "dims": label.box.dims.tolist(),
                "yaw": label.box.yaw,
            }
            entry["anchor"] = label.anchor
        else:
            entry["target_confidence"] = targets[diag.pixel]
            entry["box_lidar"] = None
        pixels.append(entry)
    return {"pixels": pixels}


def _generate_frame(seq, spec, sampler, scorer, anchors, grids, ground_margin, out: Path, t: int):
    """Label the window starting at frame t and write its files; the run's
    inputs come first so that `functools.partial` binds them once."""
    # Per-frame seeds keep frames decorrelated but reproducible.
    sampler = dataclasses.replace(sampler, seed=sampler.seed + t)
    window = FrameWindow.from_sequence(seq, t, scorer.k_frames)
    grid = _load_grid(grids, seq, t, spec, ground_margin, window.cloud)
    result = generate_pseudo_labels(window, grid, spec, anchors, sampler, scorer)
    calib = seq.calibration
    records = [
        label_record(_PGT_CLASS, label.box, calib.lidar_to_cam, calib.intrinsics, label.confidence)
        for label in result.u_plus
    ]
    write_labels(out / "label_pgt" / f"{t:06d}.txt", records)
    (out / "diagnostics" / f"{t:06d}.json").write_text(
        json.dumps(_diagnostics_payload(result), indent=1) + "\n"
    )
    mean_conf_sum = sum(l.confidence for l in result.u_plus) + sum(c for _, c in result.u_minus)
    return len(result.u_plus), len(result.u_minus), mean_conf_sum


def cmd_simulate(args) -> int:
    cfg = cfgmod.load_config(args.config)
    sim, seed = cfgmod.sim_config(cfg)
    seed = args.seed if args.seed is not None else seed
    frames = make_scene(sim, seed)
    write_scene(frames, sim, args.out, seed=seed)
    n_points = sum(len(f.cloud) for f in frames) // len(frames)
    print(
        f"wrote {len(frames)} frames, {len(sim.objects)} objects, "
        f"~{n_points} points/frame to {args.out}"
    )
    return 0


def cmd_generate(args) -> int:
    if args.jobs < 0:
        raise _UsageError(f"--jobs must be >= 0 (0 = all cores), got {args.jobs}")
    cfg = _apply_overrides(cfgmod.load_config(args.config), args)
    seq = load_sequence(args.sequence)
    scorer = cfgmod.scorer_config(cfg)
    n_windows = seq.n_frames - scorer.k_frames
    if n_windows <= 0:
        print(
            f"sequence has {seq.n_frames} frames; tracking needs at least {scorer.k_frames + 1}",
            file=sys.stderr,
        )
        return 2
    out = Path(args.out)
    work = functools.partial(
        _generate_frame, seq, cfgmod.grid_spec(cfg), cfgmod.sampler_config(cfg), scorer,
        cfgmod.anchors(cfg), args.proposals, cfgmod.ground_margin(cfg), out,
    )
    (out / "label_pgt").mkdir(parents=True, exist_ok=True)
    (out / "diagnostics").mkdir(parents=True, exist_ok=True)
    jobs = min(args.jobs or os.cpu_count() or 1, n_windows)
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else contextlib.nullcontext() as pool:
        results = list((pool.map if pool else map)(work, range(n_windows)))
    n_plus = sum(r[0] for r in results)
    n_minus = sum(r[1] for r in results)
    total = n_plus + n_minus
    mean_conf = (sum(r[2] for r in results) / total) if total else 0.0
    print(f"U+: {n_plus}  U-: {n_minus}  mean confidence: {mean_conf:.4f}")
    return 0


# Thresholds are rounded to 6 decimals, so a finer step only repeats them.
_MIN_IOU_STEP = 1e-6


def _thresholds(text: str) -> list[float]:
    """IoU thresholds in (0, 1] from `start:stop:step` or a comma list."""
    try:
        if "," in text or ":" not in text:
            values = [float(v) for v in text.split(",")]
        else:
            start, stop, step = (float(v) for v in text.split(":"))
            values = []
            while step >= _MIN_IOU_STEP and start <= stop + 1e-9:
                values.append(round(start, 6))
                start += step
    except ValueError:
        values = []
    if not values or not all(0 < v <= 1 for v in values):
        raise argparse.ArgumentTypeError(
            f"expected thresholds in (0, 1] as a comma list or start:stop:step with "
            f"start <= stop and step >= {_MIN_IOU_STEP:g}, got {text!r}"
        )
    return values


def cmd_evaluate(args) -> int:
    intrinsics = None
    if args.calib:
        from .dataset import read_calib

        intrinsics = read_calib(args.calib).intrinsics
    report = evaluate_sequence(
        args.dets, args.gt, mode=args.mode, thresholds=args.iou,
        intrinsics=intrinsics,
    )
    print(report.format_table())
    if args.out:
        Path(args.out).write_text(json.dumps(report.to_dict(), indent=1) + "\n")
    return 0


def _labels_from_diagnostics(path) -> tuple[list, list]:
    payload = json.loads(Path(path).read_text())
    u_plus, u_minus = [], []
    for entry in payload["pixels"]:
        pixel = tuple(entry["pixel"])
        if entry["box_lidar"] is None:
            u_minus.append((pixel, entry["target_confidence"]))
        else:
            b = entry["box_lidar"]
            u_plus.append(
                PseudoLabel(
                    pixel,
                    Obb3(b["centre"], b["dims"], b["yaw"], LIDAR),
                    entry["target_confidence"],
                    entry["anchor"],
                )
            )
    return u_plus, u_minus


def cmd_evaluate_loss(args) -> int:
    cfg = cfgmod.load_config(args.config)
    seq = load_sequence(args.sequence)
    spec = cfgmod.grid_spec(cfg)
    loss_cfg = cfgmod.loss_config(cfg)
    diag_dir = Path(args.pgt) / "diagnostics"
    files = sorted(diag_dir.glob("*.json"))
    if not files:
        print(f"{diag_dir}: no diagnostics files", file=sys.stderr)
        return 2
    totals = {"centre": 0.0, "dims": 0.0, "yaw": 0.0, "confidence_pos": 0.0, "confidence_neg": 0.0}
    for path in files:
        t = int(path.stem)
        grid = _load_grid(args.proposals, seq, t, spec, cfgmod.ground_margin(cfg))
        u_plus, u_minus = _labels_from_diagnostics(path)
        terms = frame_loss_terms(grid, u_plus, u_minus, spec, loss_cfg)
        print(
            f"frame {t:04d}: total={terms.total:.6f} centre={terms.centre:.6f} "
            f"dims={terms.dims:.6f} yaw={terms.yaw:.6f} "
            f"conf+={terms.confidence_pos:.6f} conf-={terms.confidence_neg:.6f}"
        )
        for key in totals:
            totals[key] += getattr(terms, key)
    grand = sum(totals.values())
    print(
        f"total: {grand:.6f} centre={totals['centre']:.6f} dims={totals['dims']:.6f} "
        f"yaw={totals['yaw']:.6f} conf+={totals['confidence_pos']:.6f} "
        f"conf-={totals['confidence_neg']:.6f}"
    )
    return 0


def cmd_render(args) -> int:
    cfg = cfgmod.load_config(args.config)
    spec = cfgmod.grid_spec(cfg)
    seq = load_sequence(args.sequence)
    t = args.frame
    cloud = seq.read_cloud(t)
    wanted = {name.strip() for name in args.overlays.split(",") if name.strip()}
    overlays = []
    cam_to_lidar = seq.calibration.lidar_to_cam.invert()
    if "gt" in wanted and seq.label_path(t).exists():
        boxes = [
            transform_obb(r.box, cam_to_lidar, LIDAR) for r in seq.read_labels(t)
        ]
        overlays.append((GT_COLOR, boxes))
    if "pseudo" in wanted:
        if not args.pgt:
            raise _UsageError("--pgt is required for the pseudo overlay")
        u_plus, _ = _labels_from_diagnostics(Path(args.pgt) / "diagnostics" / f"{t:06d}.json")
        overlays.append((PSEUDO_COLOR, [label.box for label in u_plus]))
    if "proposals" in wanted:
        grid = heuristic_grid(cloud, spec, cfgmod.ground_margin(cfg))
        threshold = cfgmod.sampler_config(cfg).confidence_threshold
        shown = (grid.confidence > threshold) & np.all(grid.data[:, :, 3:6] > 0, axis=2)
        boxes = [decode_box(tuple(px), grid.code_at(px), spec) for px in np.argwhere(shown)]
        overlays.append((PROPOSAL_COLOR, boxes))
    image = render_overlays(cloud, spec, overlays)
    write_ppm(args.out, image)
    if args.bev_raster:
        from .bev import rasterize
        from .dataset import write_raster

        write_raster(args.bev_raster, rasterize(cloud, spec), sentinel=None)
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (LidarPgtError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal invariant violations
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
