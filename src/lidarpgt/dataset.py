"""On-disk formats, their records (`Calibration`, `LabelRecord`, `PseudoLabel`, `SequenceIndex`) and ingestion.

Directory layout of a sequence:

    sequence/
      velodyne/000000.bin ...   point clouds, 4 x float32-LE per point
      depth/000000.bin+json ... sparse depth rasters (depth <= 0 marks invalid)
      flow/000000.bin+json ...  forward optic flow rasters, 2 channels
      poses.txt                 one 3x4 row-major camera->world matrix per line
      calib.txt                 intrinsics + lidar->camera extrinsics
      label_2/000000.txt ...    KITTI-format labels (optional)

All binary payloads are little-endian float32. A raster's JSON sidecar records
its shape, dtype and order; its reader passes the shape it expects, and a
sidecar that declares another is rejected before the payload is read.
`FRAME_FILES` holds the directory and suffix of the four per-frame kinds.
Every frame file is named `<t:06d><suffix>` in its directory: `frame_path`
builds such a name and `frame_index` reads it back.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import reprlib
import shutil
import sys
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bev import BoxGrid, GridSpec, code_faults
from .errors import BehindCamera, MalformedFile, MalformedLine, MissingFrameData, ShapeMismatch
from .geometry import (
    AABB2, CAMERA, LIDAR, MIN_VERTICAL_COSINE, CameraIntrinsics, Obb3, PointCloud, RigidTransform, project_box_2d,
    transform_obb,
)

_POINT_RECORD_BYTES = 16  # 4 little-endian float32 per point


# ---------------------------------------------------------------------------
# point clouds


def _finite_floats(values: np.ndarray, path) -> np.ndarray:
    """`values` if none is NaN or inf; check before widening them, since the
    cast warns on a signalling NaN."""
    if not np.isfinite(values).all():
        raise MalformedFile(f"{path}: non-finite value")
    return values


def read_cloud(path) -> PointCloud:
    """Read a cloud file as float32, check it and clip its intensities to [0, 1]
    in place; PointCloud makes the one float64 copy."""
    size = Path(path).stat().st_size
    if size % _POINT_RECORD_BYTES:
        raise MalformedFile(f"{path}: size {size} is not a multiple of {_POINT_RECORD_BYTES}")
    pts = _finite_floats(np.fromfile(path, dtype="<f4"), path).reshape(-1, 4)
    pts[:, 3] = np.clip(pts[:, 3], 0.0, 1.0)
    return PointCloud(pts)


def write_cloud(path, cloud: PointCloud):
    Path(path).write_bytes(cloud.points.astype("<f4").tobytes())


# ---------------------------------------------------------------------------
# poses


def _lines(path):
    """(`path:line`, text) of each non-blank line of a UTF-8 text file."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        if line.strip():
            yield f"{path}:{lineno}", line


def read_json(path):
    """A JSON file's value; a file that is not UTF-8 JSON raises MalformedFile naming it."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:  # JSON or text decoding
        raise MalformedFile(f"{path}: {exc}") from exc


def _finite_values(fields, where) -> np.ndarray:
    """Parse text fields as finite floats; `where` names the file and line."""
    try:
        values = np.array([float(v) for v in fields])
    except ValueError as exc:
        raise MalformedLine(f"{where}: {exc}") from exc
    if not np.isfinite(values).all():
        raise MalformedLine(f"{where}: non-finite value")
    return values


def _reorthonormalize(rot: np.ndarray) -> np.ndarray:
    u, _, vt = np.linalg.svd(rot)
    fix = np.diag([1.0, 1.0, np.linalg.det(u @ vt)])
    return u @ fix @ vt


def read_poses(path) -> list[RigidTransform]:
    """Parse one 3x4 row-major camera->world matrix per line.

    Rotations drifting from orthonormality by more than 1e-6 are repaired with
    a warning; drift beyond 1e-3 is rejected.
    """
    poses = []
    for where, line in _lines(path):
        fields = line.split()
        if len(fields) != 12:
            raise MalformedLine(f"{where}: expected 12 values, got {len(fields)}")
        values = _finite_values(fields, where).reshape(3, 4)
        rot, tra = values[:, :3], values[:, 3]
        drift = max(
            np.abs(rot.T @ rot - np.eye(3)).max(), abs(np.linalg.det(rot) - 1.0)
        )
        if not drift <= 1e-3:
            raise MalformedLine(f"{where}: rotation drift {drift:.3g} beyond 1e-3")
        if drift > 1e-6:
            warnings.warn(f"{where}: re-orthonormalizing rotation (drift {drift:.3g})")
            rot = _reorthonormalize(rot)
        poses.append(RigidTransform(rot, tra))
    return poses


def write_poses(path, poses):
    lines = []
    for pose in poses:
        m = np.hstack([pose.rotation, pose.translation.reshape(3, 1)])
        lines.append(" ".join(f"{v:.17g}" for v in m.reshape(-1)))
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# calibration


@dataclass(frozen=True)
class Calibration:
    lidar_to_cam: RigidTransform
    intrinsics: CameraIntrinsics


def read_calib(path) -> Calibration:
    """Parse a calibration file; a key given twice, or a lidar_to_cam whose boxes
    transform_obb cannot keep upright, is rejected naming the line."""
    entries = {}
    for where, line in _lines(path):
        if ":" not in line:
            raise MalformedLine(f"{where}: expected 'key: values'")
        key, _, rest = line.partition(":")
        key = key.strip()
        if key in entries:
            raise MalformedLine(f"{entries[key][0]} and {where}: both give {key!r}")
        entries[key] = where, _finite_values(rest.split(), where)
    try:
        intr_at, (fx, fy, cx, cy, width, height) = entries["intrinsics"]
        extr_at, extr = entries["lidar_to_cam"]
        extr = extr.reshape(3, 4)
    except (KeyError, ValueError) as exc:
        raise MalformedLine(f"{path}: missing or malformed calibration entries") from exc
    for name, size in (("width", width), ("height", height)):
        if not (size >= 1 and size == int(size)):
            raise MalformedLine(f"{intr_at}: image {name} {size:g} is not a whole number >= 1")
    try:
        calib = Calibration(
            RigidTransform(extr[:, :3], extr[:, 3]),
            CameraIntrinsics(fx, fy, cx, cy, int(width), int(height)),
        )
    except ValueError as exc:
        raise MalformedLine(f"{path}: {exc}") from exc
    upright = abs(calib.lidar_to_cam.rotation[1, 2])  # the cosine transform_obb tests
    if upright < MIN_VERTICAL_COSINE:
        raise MalformedLine(
            f"{extr_at}: lidar_to_cam tilts the vertical axis: |R[1,2]| {upright:.6g} < {MIN_VERTICAL_COSINE:g}"
        )
    return calib


def write_calib(path, calib: Calibration):
    intr = calib.intrinsics
    extr = np.hstack(
        [calib.lidar_to_cam.rotation, calib.lidar_to_cam.translation.reshape(3, 1)]
    )
    lines = [
        "intrinsics: "
        + " ".join(
            f"{v:.17g}" for v in (intr.fx, intr.fy, intr.cx, intr.cy, intr.width, intr.height)
        ),
        "lidar_to_cam: " + " ".join(f"{v:.17g}" for v in extr.reshape(-1)),
    ]
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# KITTI-format labels

_SKIPPED_CLASSES = {"DontCare"}


@dataclass
class LabelRecord:
    """One KITTI label row. The box is camera-frame with a volumetric centre.

    KITTI stores dims as (h, w, l) = (dims_y, dims_x, dims_z) and the location
    as the box-bottom centre; the conversions below shift by h/2 on y. The raw
    rotation_y is kept verbatim so that re-writing a parsed file does not lose
    the representative chosen by the annotator (Obb3 canonicalizes yaw).
    """

    cls: str
    box: Obb3
    bbox2d: AABB2 = field(default_factory=lambda: AABB2((0.0, 0.0), (0.0, 0.0)))
    truncation: float = 0.0
    occlusion: int = 0
    alpha: float = -10.0
    rotation_y: float | None = None
    score: float | None = None

    def __post_init__(self):
        if self.rotation_y is None:
            self.rotation_y = self.box.yaw


@dataclass(frozen=True, eq=False)
class PseudoLabel:
    """A full training target: pixel, fitted lidar-frame box, confidence, anchor."""

    pixel: tuple[int, int]
    box: Obb3
    confidence: float
    anchor: str

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("target confidence must lie in [0, 1]")


def _label_from_fields(fields, where) -> LabelRecord:
    if len(fields) not in (15, 16):
        raise MalformedLine(f"{where}: expected 15 or 16 columns, got {len(fields)}")
    cls = fields[0]
    vals = _finite_values(fields[1:], where).tolist()
    trunc, occ, alpha = vals[0], int(vals[1]), vals[2]
    if occ != vals[1]:
        raise MalformedLine(f"{where}: occluded {vals[1]:g} is not an integer")
    left, top, right, bottom = vals[3:7]
    h, w, l = vals[7:10]
    x, y, z = vals[10:13]
    rot_y = vals[13]
    score = vals[14] if len(vals) == 15 else None
    if score is not None and not 0.0 <= score <= 1.0:
        raise MalformedLine(f"{where}: score {score:g} does not lie in [0, 1]")
    try:
        return LabelRecord(
            cls=cls,
            box=Obb3((x, y - h / 2.0, z), (w, h, l), rot_y, CAMERA),
            bbox2d=AABB2((left, top), (right, bottom)),
            truncation=trunc,
            occlusion=occ,
            alpha=alpha,
            rotation_y=rot_y,
            score=score,
        )
    except ValueError as exc:
        raise MalformedLine(f"{where}: {exc}") from exc


def read_labels(path) -> list[LabelRecord]:
    """Parse a KITTI label file, skipping DontCare rows.

    A non-finite value, a score outside [0, 1] or an invalid box or 2D box
    raises MalformedLine naming the file and line.
    """
    records = []
    for where, line in _lines(path):
        fields = line.split()
        if fields[0] not in _SKIPPED_CLASSES:
            records.append(_label_from_fields(fields, where))
    return records


def label_line(record: LabelRecord) -> str:
    box = record.box
    w, h, l = box.dims[0], box.dims[1], box.dims[2]
    bottom_centre = (box.centre[0], box.centre[1] + h / 2.0, box.centre[2])
    fields = [
        record.cls,
        f"{record.truncation:.6f}",
        str(int(record.occlusion)),
        f"{record.alpha:.6f}",
        f"{record.bbox2d.min_corner[0]:.6f}",
        f"{record.bbox2d.min_corner[1]:.6f}",
        f"{record.bbox2d.max_corner[0]:.6f}",
        f"{record.bbox2d.max_corner[1]:.6f}",
        f"{h:.6f}",
        f"{w:.6f}",
        f"{l:.6f}",
        f"{bottom_centre[0]:.6f}",
        f"{bottom_centre[1]:.6f}",
        f"{bottom_centre[2]:.6f}",
        f"{record.rotation_y:.6f}",
    ]
    if record.score is not None:
        fields.append(f"{record.score:.6f}")
    return " ".join(fields)


def label_record(
    cls: str, box: Obb3, lidar_to_cam: RigidTransform, intrinsics: CameraIntrinsics, score=None
) -> LabelRecord:
    """KITTI label row for a lidar-frame box; the 2D box stays empty when a
    vertex lies behind the camera."""
    cam_box = transform_obb(box, lidar_to_cam, CAMERA)
    record = LabelRecord(cls=cls, box=cam_box, score=score)
    try:
        record.bbox2d = project_box_2d(cam_box, intrinsics)
    except BehindCamera:
        pass
    return record


def write_labels(path, records):
    Path(path).write_text("".join(label_line(r) + "\n" for r in records))


# ---------------------------------------------------------------------------
# flat binary rasters (depth, flow, BEV images, box grids)


def _sidecar_path(path) -> Path:
    return Path(str(path) + ".json")


def write_raster(path, array):
    """Write a (rows, cols[, channels]) array as float32-LE plus a JSON sidecar."""
    arr = np.asarray(array, dtype="<f4")
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3:
        raise ValueError("raster must be 2D or 3D")
    arr.tofile(path)
    meta = {
        "rows": arr.shape[0],
        "cols": arr.shape[1],
        "channels": arr.shape[2],
        "dtype": "<f4",
        "order": "row-major",
    }
    _sidecar_path(path).write_text(json.dumps(meta) + "\n")


def read_raster(path, shape) -> np.ndarray:
    """Read a raster written by write_raster as the writable float32 array it
    stores, of `shape`: (rows, cols) for one channel, else (rows, cols, channels).
    The sidecar must declare that shape; keys it does not use are ignored."""
    meta_path = _sidecar_path(path)
    if not meta_path.exists():
        raise MalformedFile(f"{path}: missing sidecar {meta_path}")
    meta = read_json(meta_path)
    if not isinstance(meta, dict):
        raise MalformedFile(f"{meta_path}: sidecar must be a JSON object")
    for key, want in zip(("rows", "cols", "channels"), (*shape, 1)):  # a 2-tuple has one channel
        if type(meta.get(key)) is not int or meta[key] != want:
            raise ShapeMismatch(f"{meta_path}: {key!r} is {reprlib.repr(meta.get(key))}, expected {want}")
    for key, value in (("dtype", "<f4"), ("order", "row-major")):
        if meta.get(key) != value:
            raise MalformedFile(f"{meta_path}: {key!r} must be {value!r}")
    size = Path(path).stat().st_size
    expected = math.prod(shape) * 4
    if size != expected:
        raise MalformedFile(f"{path}: size {size}, sidecar implies {expected}")
    return _finite_floats(np.fromfile(path, dtype="<f4"), path).reshape(shape)


def write_box_grid(path, grid: BoxGrid):
    write_raster(path, grid.data)


def read_box_grid(path, spec: GridSpec) -> BoxGrid:
    """Read a box grid of `spec`'s shape, checking every cell's code by
    `code_faults`, with offsets bounded by the grid's extent on each axis."""
    data = read_raster(path, (spec.out_rows, spec.out_cols, 8))
    span = [hi - lo for lo, hi in (spec.x_range, spec.y_range, spec.z_range)]
    for field_name, fault, bad in code_faults(data, span):
        if bad.any():
            row, col = np.argwhere(bad)[0]
            raise MalformedFile(f"{path}: {field_name} at cell ({row}, {col}) {fault}")
    return BoxGrid(data)


# ---------------------------------------------------------------------------
# pseudo-label diagnostics: {"pixels": [one entry per sampled pixel]}


def write_diagnostics(path, result):
    """Write each sampled pixel's scores and target from a pipeline.PgtResult; a U+ entry also carries its box."""
    labels = {label.pixel: label for label in result.u_plus}
    targets = dict(result.u_minus)
    pixels = []
    for diag in result.diagnostics:
        label = labels.get(diag.pixel)
        entry = {
            "pixel": list(diag.pixel),
            "smoothed_confidence": diag.smoothed_confidence,
            "anchors": {
                name: {"moving": s.moving, "inconsistency": s.inconsistency,
                       "confidence": None if s.confidence == -math.inf else s.confidence, "alive": s.alive}
                for name, s in diag.anchor_scores.items()
            },
            "target_confidence": targets.get(diag.pixel),
            "box_lidar": None,
        }
        if label is not None:
            box = label.box
            entry.update(target_confidence=label.confidence, anchor=label.anchor, box_lidar={
                "centre": box.centre.tolist(), "dims": box.dims.tolist(), "yaw": box.yaw,
            })
        pixels.append(entry)
    Path(path).write_text(json.dumps({"pixels": pixels}, indent=1) + "\n")


def finite_number(v) -> bool:
    """Whether a parsed JSON value is a number, not a bool, that a float holds finitely."""
    return type(v) in (int, float) and abs(v) <= sys.float_info.max  # an int compares without overflow


def _json_floats(obj: dict, key, count=0) -> list[float]:
    """obj[key] as finite floats: one number when count is 0, else a list of count."""
    values = [obj.get(key)] if count == 0 else obj.get(key)
    if not (isinstance(values, list) and len(values) == max(count, 1) and all(map(finite_number, values))):
        what = f"{count} finite numbers" if count else "a finite number"
        raise ValueError(f"{key!r} must be {what}")
    return [float(v) for v in values]


def _diagnostics_entry(entry, spec: GridSpec):
    """A PseudoLabel for a U+ entry, else a (pixel, target) pair."""
    if not (isinstance(entry, dict) and "box_lidar" in entry):
        raise ValueError("expected a JSON object with a 'box_lidar' key")
    pixel = entry.get("pixel")
    if not (isinstance(pixel, list) and len(pixel) == 2 and all(type(v) is int for v in pixel)
            and 0 <= pixel[0] < spec.out_rows and 0 <= pixel[1] < spec.out_cols):
        raise ValueError(f"'pixel' must be [row, col] in the {spec.out_rows}x{spec.out_cols} grid")
    (target,) = _json_floats(entry, "target_confidence")
    if not 0.0 <= target <= 1.0:
        raise ValueError("'target_confidence' must lie in [0, 1]")
    box, anchor = entry["box_lidar"], entry.get("anchor")
    if box is None:
        return tuple(pixel), target
    if not (isinstance(box, dict) and isinstance(anchor, str)):
        raise ValueError("a boxed entry needs a 'box_lidar' object and an 'anchor' string")
    centre, dims = _json_floats(box, "centre", 3), _json_floats(box, "dims", 3)
    obb = Obb3(centre, dims, _json_floats(box, "yaw")[0], LIDAR)
    return PseudoLabel(tuple(pixel), obb, target, anchor)


def read_diagnostics(path, spec: GridSpec) -> tuple[list[PseudoLabel], list]:
    """Read a diagnostics file back into its (u_plus, u_minus) targets on `spec`'s grid;
    a missing, mistyped or invalid value, or a pixel listed twice, raises MalformedFile
    naming the first bad entry."""
    payload = read_json(path)  # NaN and Infinity load, and the entry checks reject them
    entries = payload.get("pixels") if isinstance(payload, dict) else None
    if not isinstance(entries, list):
        raise MalformedFile(f"{path}: expected a JSON object with a 'pixels' list")
    u_plus, u_minus, seen = [], [], {}
    for i, entry in enumerate(entries):
        try:
            target = _diagnostics_entry(entry, spec)
        except ValueError as exc:
            raise MalformedFile(f"{path}: pixels[{i}]: {exc}") from exc
        boxed = isinstance(target, PseudoLabel)
        pixel = target.pixel if boxed else target[0]
        if seen.setdefault(pixel, i) != i:
            raise MalformedFile(f"{path}: pixels[{i}] repeats the pixel of pixels[{seen[pixel]}]")
        (u_plus if boxed else u_minus).append(target)
    return u_plus, u_minus


# ---------------------------------------------------------------------------
# sequences

# Each per-frame kind's directory and file suffix in a sequence
FRAME_FILES = {"cloud": ("velodyne", ".bin"), "depth": ("depth", ".bin"), "flow": ("flow", ".bin"),
               "label": ("label_2", ".txt")}


@dataclass
class SequenceIndex:
    """Resolved paths and shared calibration for one recorded/simulated sequence."""

    root: Path
    calibration: Calibration
    poses: list[RigidTransform]
    n_frames: int

    def path(self, kind: str, t: int) -> Path:
        """Frame t's file of `kind`, a FRAME_FILES key; a frame outside the sequence raises MissingFrameData."""
        if not 0 <= t < self.n_frames:
            raise MissingFrameData(f"{self.root}: frame {t} outside sequence of {self.n_frames} frames")
        directory, suffix = FRAME_FILES[kind]
        return frame_path(self.root / directory, t, suffix)

    def read_cloud(self, t) -> PointCloud:
        return read_cloud(self.path("cloud", t))

    def read_depth(self, t) -> np.ndarray:
        intr = self.calibration.intrinsics
        return read_raster(self.path("depth", t), (intr.height, intr.width))

    def read_flow(self, t) -> np.ndarray:
        intr = self.calibration.intrinsics
        return read_raster(self.path("flow", t), (intr.height, intr.width, 2))

    def read_labels(self, t) -> list[LabelRecord]:
        return read_labels(self.path("label", t))


def frame_path(directory, t: int, suffix: str) -> Path:
    """`<directory>/<t:06d><suffix>`, the frame file name frame_index reads back."""
    return Path(directory) / f"{t:06d}{suffix}"


def frame_index(path) -> int:
    """The frame a frame file's name gives, e.g. 7 for `000007.bin`."""
    stem = Path(path).stem
    if not (stem.isascii() and stem.isdigit()):
        raise MalformedFile(f"{path}: file name is not a frame number")
    return int(stem)


def frame_files(directory, suffix: str) -> dict[int, Path]:
    """`directory`'s `*<suffix>` files by frame; a bad name or a repeated frame raises MalformedFile."""
    frames = {}
    for path in sorted(Path(directory).glob("*" + suffix)):
        t = frame_index(path)
        if t in frames:
            raise MalformedFile(f"{frames[t]} and {path}: both are frame {t}")
        frames[t] = path
    return frames


@contextlib.contextmanager
def committed(out):
    """Yield a scratch directory inside `out`. When the block returns, each entry written
    there replaces the entry of that name in `out` whole, all or none, and others stay; when
    it raises, the scratch directory goes, and so do `out` and the parents this call made."""
    out = Path(out)
    made = [p for p in (out, *out.parents) if not p.exists()]  # the last is the topmost
    out.mkdir(parents=True, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(prefix=".partial-", dir=out) as scratch:
            yield Path(scratch)
            new = sorted(Path(scratch).iterdir())
            old = Path(tempfile.mkdtemp(dir=scratch))  # the replaced entries go with the scratch directory
            moves = [(out / e.name, old / e.name) for e in new if os.path.lexists(out / e.name)]
            moves += [(e, out / e.name) for e in new]
            try:
                for source, target in moves:
                    source.rename(target)
            except BaseException:
                for source, target in reversed(moves):  # undo the moves made; a link is never followed
                    if os.path.lexists(target) and not os.path.lexists(source):
                        target.rename(source)
                raise
    except BaseException:
        if made:
            shutil.rmtree(made[-1], ignore_errors=True)
        raise


def load_sequence(root) -> SequenceIndex:
    """Index a sequence directory, checking the frame files are contiguous from 0
    and that no two files name the same frame."""
    root = Path(root)
    velo, suffix = FRAME_FILES["cloud"]
    if not (root / velo).is_dir():
        raise MalformedFile(f"{root}: missing {velo}/ directory")
    indices = sorted(frame_files(root / velo, suffix))
    if indices != list(range(len(indices))):
        raise MalformedFile(f"{root}: frame indices are not contiguous from 0")
    calib = read_calib(root / "calib.txt")
    poses = read_poses(root / "poses.txt")
    if len(poses) < len(indices):
        raise MalformedFile(f"{root}: {len(poses)} poses for {len(indices)} frames")
    index = SequenceIndex(root, calib, poses, len(indices))
    for kind in ("depth", "flow"):
        if (root / FRAME_FILES[kind][0]).is_dir():
            for p in (index.path(kind, t) for t in range(index.n_frames)):
                if not p.exists():
                    raise MalformedFile(f"{p}: missing frame file")
    return index
