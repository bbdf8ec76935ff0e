"""Detection metrics over KITTI label rows: BEV / 2D IoU matching,
class-agnostic AP and per-class accuracy."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import frame_files, read_labels
from .errors import BehindCamera, ConfigInvalid, MalformedFile
from .geometry import CameraIntrinsics, Obb3, iou_2d, project_box_2d, rotated_iou_bev


@dataclass(frozen=True)
class Detection:
    """A predicted box with its confidence."""

    box: object
    confidence: float

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("detection confidence must lie in [0, 1]")


# A gap this wide between two boxes' bounds outweighs any rounding in them.
_BOUNDS_PAD = 1e-6


def _iou_matrix(detections, gt_boxes, iou_fn, bounds=None) -> np.ndarray:
    """(detections, ground truth) IoU matrix; each pair is computed at most once.

    `bounds(box)` gives a box's axis-aligned (lo, hi) corners in the plane
    `iou_fn` compares. With it, a pair whose bounds lie more than _BOUNDS_PAD
    apart on some axis is not passed to `iou_fn`: the boxes cannot overlap,
    and the pair keeps 0.0, the value `iou_fn` returns for it. Without it,
    every pair is computed.
    """
    ious = np.zeros((len(detections), len(gt_boxes)))
    meet = np.ones(ious.shape, dtype=bool)
    if bounds is not None and ious.size:
        det = np.array([bounds(d.box) for d in detections])[:, None]  # (n, 1, lo/hi, axis)
        gt = np.array([bounds(g) for g in gt_boxes])[None]
        apart = (gt[..., 0, :] - det[..., 1, :] > _BOUNDS_PAD) | (det[..., 0, :] - gt[..., 1, :] > _BOUNDS_PAD)
        meet = ~apart.any(axis=2)
    for i, j in zip(*np.nonzero(meet)):
        ious[i, j] = iou_fn(detections[i].box, gt_boxes[j])
    return ious


def _ap_from_flags(flags, n_gt: int) -> float:
    """All-point interpolated average precision from ordered TP/FP flags."""
    tp = np.cumsum([1.0 if f else 0.0 for f in flags])
    ranks = np.arange(1, len(flags) + 1)
    precision = tp / ranks
    recall = tp / n_gt
    # Interpolated precision: running maximum from the right.
    interp = np.maximum.accumulate(precision[::-1])[::-1]
    ap = 0.0
    prev_recall = 0.0
    for r, p in zip(recall, interp):
        if r > prev_recall:
            ap += (r - prev_recall) * p
            prev_recall = r
    return float(ap)


def _ranked(dets_by_frame: dict) -> list:
    """(frame, index) of every detection by falling confidence; the stable sort
    keeps (frame, index) order among equal confidences."""
    entries = [
        (det.confidence, frame, i)
        for frame, dets in sorted(dets_by_frame.items())
        for i, det in enumerate(dets)
    ]
    return [(frame, i) for _, frame, i in sorted(entries, key=lambda e: -e[0])]


def _grouped_ap(ranked: list, ious: dict, n_gt: int, threshold: float) -> float:
    """Greedy matching within each frame's IoU matrix, then AP over all frames.

    In confidence order, each detection takes the unmatched ground-truth box
    of its frame it overlaps most (ties to the earlier box, IoU above 0); it
    is a true positive when that IoU meets the threshold.
    """
    if n_gt == 0:
        return 0.0 if ranked else 1.0
    matched = {frame: np.zeros(m.shape[1], dtype=bool) for frame, m in ious.items()}
    flags = []
    for frame, i in ranked:
        row = np.where(matched[frame], 0.0, ious[frame][i])
        j = int(np.argmax(row)) if len(row) else -1
        hit = j >= 0 and row[j] > 0.0 and row[j] >= threshold
        if hit:
            matched[frame][j] = True
        flags.append(hit)
    return _ap_from_flags(flags, n_gt)


def average_precision(detections, gt_boxes, iou_fn, threshold: float) -> float:
    """Class-agnostic AP at one IoU threshold over a single pooled collection.

    No ground truth and no detections scores 1.0 by convention; spurious
    detections against an empty ground truth score 0.0.
    """
    return average_precision_grouped({0: detections}, {0: gt_boxes}, iou_fn, threshold)


def average_precision_grouped(dets_by_frame: dict, gts_by_frame: dict, iou_fn, threshold: float) -> float:
    """AP pooled over frames; matching never crosses frame boundaries."""
    frames = set(dets_by_frame) | set(gts_by_frame)
    ious = {
        f: _iou_matrix(dets_by_frame.get(f, []), gts_by_frame.get(f, []), iou_fn) for f in frames
    }
    n_gt = sum(len(g) for g in gts_by_frame.values())
    return _grouped_ap(_ranked(dets_by_frame), ious, n_gt, threshold)


def _class_accuracy(frames, threshold: float) -> dict[str, float]:
    """per_class_accuracy pooled over (IoU matrix, ground-truth classes) frames;
    a detection is associated only when its greatest IoU is above 0."""
    totals: dict[str, int] = {}
    hits: dict[str, int] = {}
    for ious, classes in frames:
        found = np.zeros(len(classes), dtype=bool)
        if ious.size:
            best = ious.argmax(axis=1)
            best_iou = ious[np.arange(len(best)), best]
            found[best[(best_iou > 0.0) & (best_iou >= threshold)]] = True
        for cls, flag in zip(classes, found):
            totals[cls] = totals.get(cls, 0) + 1
            hits[cls] = hits.get(cls, 0) + int(flag)
    return {cls: hits[cls] / totals[cls] for cls in totals}


def per_class_accuracy(detections, labelled_gts, iou_fn, threshold: float) -> dict[str, float]:
    """Fraction of each class's ground-truth boxes found by greatest-IoU association.

    Each detection is associated with the ground-truth box it overlaps most
    (ties to the earlier box); a ground-truth box counts as detected when some
    detection associates with it at an IoU at or above the threshold. Classes
    without ground truth are omitted.
    """
    ious = _iou_matrix(detections, [box for box, _ in labelled_gts], iou_fn)
    return _class_accuracy([(ious, [cls for _, cls in labelled_gts])], threshold)


threshold_key = "{:g}".format  # an IoU threshold's key in a report's JSON


@dataclass
class EvalReport:
    mode: str
    thresholds: list[float]
    mean_ap: dict[float, float] = field(default_factory=dict)
    class_accuracy: dict[float, dict[str, float]] = field(default_factory=dict)

    def classes(self) -> list[str]:
        names = set()
        for acc in self.class_accuracy.values():
            names.update(acc)
        return sorted(names)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "thresholds": self.thresholds,
            "mean_ap": {threshold_key(t): self.mean_ap[t] for t in self.thresholds},
            "class_accuracy": {
                threshold_key(t): self.class_accuracy[t] for t in self.thresholds
            },
        }

    def format_table(self) -> str:
        classes = self.classes()
        header = ["iou", "mAP"] + classes
        rows = [header]
        for t in self.thresholds:
            row = [threshold_key(t), f"{self.mean_ap[t]:.4f}"]
            for cls in classes:
                acc = self.class_accuracy[t].get(cls)
                row.append("-" if acc is None else f"{acc:.4f}")
            rows.append(row)
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        lines = [f"mode: {self.mode}"]
        for r in rows:
            lines.append("  ".join(v.rjust(w) for v, w in zip(r, widths)))
        return "\n".join(lines)


def _footprint_bounds(box: Obb3):
    footprint = box.footprint()
    return footprint.min(axis=0), footprint.max(axis=0)


def _record_to_aabb2(record, intrinsics):
    """The stored 2D box, else the projected 3D box. A box with a vertex behind
    the camera keeps its empty 2D box, which overlaps nothing."""
    if record.bbox2d.area() > 0:
        return record.bbox2d
    if intrinsics is None:
        raise ConfigInvalid("2D evaluation needs calibration to project 3D boxes")
    try:
        return project_box_2d(record.box, intrinsics)
    except BehindCamera:
        return record.bbox2d


def evaluate_sequence(
    det_dir, gt_dir, mode: str, thresholds, intrinsics: CameraIntrinsics | None = None
) -> EvalReport:
    """Score per-frame KITTI label files in `det_dir` against those in `gt_dir`.

    BEV mode compares the yaw-rotated ground-plane footprints; 2D mode
    compares axis-aligned image boxes (stored ones when present, otherwise
    projections via the intrinsics). Frames are paired by the frame number
    of their file names (`frame_files`, which rejects a name that is not a
    frame number and two files of one frame); a missing detection file means
    no detections for that frame, and a detection file of a frame with no
    ground-truth file raises MalformedFile. Only the pairs whose axis-aligned
    bounds meet are scored by the IoU function (see _iou_matrix).
    """
    if mode not in ("bev", "2d"):
        raise ConfigInvalid(f"unknown evaluation mode {mode!r}")
    thresholds = list(thresholds)
    if not Path(det_dir).is_dir():
        raise ConfigInvalid(f"{det_dir}: detection directory does not exist")
    gt_files = frame_files(gt_dir, ".txt")
    if not gt_files:
        raise ConfigInvalid(f"{gt_dir}: no ground-truth label files")
    det_files = frame_files(det_dir, ".txt")
    for frame, path in det_files.items():
        if frame not in gt_files:
            raise MalformedFile(f"{path}: no ground-truth file of its frame in {gt_dir}")
    frames = sorted(gt_files)

    if mode == "bev":
        iou_fn = rotated_iou_bev
        to_box = lambda record: record.box
        bounds = _footprint_bounds
    else:
        iou_fn = iou_2d
        to_box = lambda record: _record_to_aabb2(record, intrinsics)
        bounds = lambda box: (box.min_corner, box.max_corner)

    dets_by_frame = {}
    ious = {}
    classes = {}
    n_gt = 0
    for frame in frames:
        gt_records = read_labels(gt_files[frame])
        det_records = read_labels(det_files[frame]) if frame in det_files else []
        dets_by_frame[frame] = [
            Detection(to_box(r), r.score if r.score is not None else 1.0)
            for r in det_records
        ]
        ious[frame] = _iou_matrix(dets_by_frame[frame], [to_box(r) for r in gt_records], iou_fn, bounds)
        classes[frame] = [r.cls for r in gt_records]
        n_gt += len(gt_records)

    ranked = _ranked(dets_by_frame)
    report = EvalReport(mode=mode, thresholds=thresholds)
    for threshold in thresholds:
        report.mean_ap[threshold] = _grouped_ap(ranked, ious, n_gt, threshold)
        report.class_accuracy[threshold] = _class_accuracy(
            ((ious[f], classes[f]) for f in frames), threshold
        )
    return report
