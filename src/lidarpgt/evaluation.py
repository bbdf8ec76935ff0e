"""Detection metrics (BEV / 2D IoU matching, class-agnostic AP, per-class
accuracy) and the KITTI label rows they score."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import LabelRecord, read_labels
from .errors import BehindCamera, ConfigInvalid
from .geometry import (
    AABB2,
    CAMERA,
    CameraIntrinsics,
    Obb3,
    RigidTransform,
    iou_2d,
    project,
    rotated_iou_bev,
    transform_obb,
)


@dataclass(frozen=True)
class Detection:
    """A predicted box with its confidence."""

    box: object
    confidence: float

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("detection confidence must lie in [0, 1]")


def project_box_2d(box: Obb3, box_to_cam: RigidTransform, intrinsics: CameraIntrinsics) -> AABB2:
    """Tightest axis-aligned 2D box around the 8 projected vertices.

    All vertices must land in front of the camera; the result is clipped to
    the image bounds.
    """
    corners = box_to_cam.apply(box.corners())
    if np.any(corners[:, 2] <= 0):
        raise BehindCamera("box has vertices at non-positive camera depth")
    uv = project(corners, intrinsics)
    lo = np.clip(uv.min(axis=0), (0.0, 0.0), (intrinsics.width, intrinsics.height))
    hi = np.clip(uv.max(axis=0), (0.0, 0.0), (intrinsics.width, intrinsics.height))
    return AABB2(lo, hi)


def label_record(
    cls: str, box: Obb3, lidar_to_cam: RigidTransform, intrinsics: CameraIntrinsics, score=None
) -> LabelRecord:
    """KITTI label row for a lidar-frame box; the 2D box stays empty when a
    vertex lies behind the camera."""
    cam_box = transform_obb(box, lidar_to_cam, CAMERA)
    record = LabelRecord(cls=cls, box=cam_box, score=score)
    try:
        record.bbox2d = project_box_2d(cam_box, RigidTransform.identity(), intrinsics)
    except BehindCamera:
        pass
    return record


def _iou_matrix(detections, gt_boxes, iou_fn) -> np.ndarray:
    """(detections, ground truth) IoU matrix; each pair is computed once."""
    return np.array(
        [[iou_fn(det.box, gt) for gt in gt_boxes] for det in detections], dtype=float
    ).reshape(len(detections), len(gt_boxes))


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
            "mean_ap": {f"{t:g}": self.mean_ap[t] for t in self.thresholds},
            "class_accuracy": {
                f"{t:g}": self.class_accuracy[t] for t in self.thresholds
            },
        }

    def format_table(self) -> str:
        classes = self.classes()
        header = ["iou", "mAP"] + classes
        rows = [header]
        for t in self.thresholds:
            row = [f"{t:.2f}", f"{self.mean_ap[t]:.4f}"]
            for cls in classes:
                acc = self.class_accuracy[t].get(cls)
                row.append("-" if acc is None else f"{acc:.4f}")
            rows.append(row)
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        lines = [f"mode: {self.mode}"]
        for r in rows:
            lines.append("  ".join(v.rjust(w) for v, w in zip(r, widths)))
        return "\n".join(lines)


def _record_to_aabb2(record, intrinsics):
    if record.bbox2d.area() > 0:
        return record.bbox2d
    if intrinsics is None:
        raise ConfigInvalid("2D evaluation needs calibration to project 3D boxes")
    return project_box_2d(record.box, RigidTransform.identity(), intrinsics)


def evaluate_sequence(
    det_dir,
    gt_dir,
    mode: str = "bev",
    thresholds=None,
    intrinsics: CameraIntrinsics | None = None,
) -> EvalReport:
    """Score per-frame KITTI label files in `det_dir` against those in `gt_dir`.

    BEV mode compares the yaw-rotated ground-plane footprints; 2D mode
    compares axis-aligned image boxes (stored ones when present, otherwise
    projections via the intrinsics). Frames are paired by file name; a
    missing detection file means no detections for that frame.
    """
    if mode not in ("bev", "2d"):
        raise ConfigInvalid(f"unknown evaluation mode {mode!r}")
    thresholds = list(thresholds) if thresholds is not None else [round(0.1 * i, 1) for i in range(1, 8)]
    gt_dir = Path(gt_dir)
    det_dir = Path(det_dir)
    if not det_dir.is_dir():
        raise ConfigInvalid(f"{det_dir}: detection directory does not exist")
    frames = sorted(p.stem for p in gt_dir.glob("*.txt"))
    if not frames:
        raise ConfigInvalid(f"{gt_dir}: no ground-truth label files")

    if mode == "bev":
        iou_fn = rotated_iou_bev
        to_box = lambda record: record.box
    else:
        iou_fn = iou_2d
        to_box = lambda record: _record_to_aabb2(record, intrinsics)

    dets_by_frame = {}
    ious = {}
    classes = {}
    n_gt = 0
    for frame in frames:
        gt_records = read_labels(gt_dir / f"{frame}.txt")
        det_path = det_dir / f"{frame}.txt"
        det_records = read_labels(det_path) if det_path.exists() else []
        dets_by_frame[frame] = [
            Detection(to_box(r), r.score if r.score is not None else 1.0)
            for r in det_records
        ]
        ious[frame] = _iou_matrix(dets_by_frame[frame], [to_box(r) for r in gt_records], iou_fn)
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
