"""Pseudo-ground-truth box generation.

For each sampled grid pixel the pipeline crops a vertical cylinder of points
around the predicted box centre (one crop per anchor). A frame's crops are
tracked together, each point once, through optic flow + depth for a few
frames; each crop then fits an oriented box to its rows of every tracked set
and scores the anchor by how far the fitted boxes moved minus how much their
dimensions drifted. Pixels with a surviving anchor become full box targets
(U+); the rest only supervise confidence (U-).
"""

from __future__ import annotations

import math
import reprlib
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bev import BoxGrid, GridSpec, grid_centres
from .dataset import AnchorScore, PgtResult, PixelDiagnostics, PseudoLabel, SequenceIndex
from .errors import DegenerateInput, MissingFrameData
from .geometry import (
    CAMERA,
    LIDAR,
    CameraIntrinsics,
    Obb3,
    PointCloud,
    RigidTransform,
    backproject,
    canonical_yaw,
    freeze_arrays,
    transform_obb,
    yaw_matrix,
)
from .sampling import SamplerConfig, sample_pixels, smoothed_confidences

# Pixel window half-width for the nearest-valid-depth search during tracking.
_DEPTH_SEARCH_RADIUS = 7

# Rows per block of a tracking step's flow and depth lookups.
_TRACK_BLOCK = 4096

# Covariance eigenvalue ratio below which a point set counts as rank-deficient.
_RANK_EPS = 1e-10


@dataclass(frozen=True, eq=False)
class Anchor:
    """Expected object size; dims = (lateral, vertical, longitudinal) extents."""

    name: str
    dims: np.ndarray

    def __post_init__(self):
        (dims,) = freeze_arrays(self, dims=-1)
        if len(dims) != 3 or not np.all(dims > 0):
            raise ValueError(f"dims: expected three positive numbers, got {reprlib.repr(dims.tolist())}")

    def volume(self) -> float:
        return float(self.dims[0] * self.dims[1] * self.dims[2])

    def crop_radius(self) -> float:
        """Horizontal radius of the anchor's crop cylinder."""
        return 0.5 * math.hypot(float(self.dims[0]), float(self.dims[2]))


def default_anchors() -> list[Anchor]:
    return [
        Anchor("pedestrian", (0.45, 1.70, 0.27)),
        Anchor("cyclist", (0.54, 1.90, 1.75)),
        Anchor("vehicle", (1.88, 1.63, 4.58)),
    ]


@dataclass(frozen=True)
class ScorerConfig:
    """Temporal-consistency scoring parameters."""

    score_threshold: float = 0.08
    moving_weight: float = 0.4
    inconsistency_weight: float = 0.15
    k_frames: int = 3

    def __post_init__(self):
        if self.k_frames < 1:
            raise ValueError("k_frames must be >= 1")
        if self.moving_weight < 0 or self.inconsistency_weight < 0:
            raise ValueError("score weights must be >= 0")


@dataclass
class TrackedPointSets:
    """K+1 point sets, all expressed in the camera frame of the start frame.

    positions[k] holds one row per original point; alive[k] marks the points
    whose track survived up to step k (set 0 is the crop itself, all alive).
    Rows of dead points carry stale values and must be ignored.
    """

    positions: np.ndarray  # (K+1, n, 3)
    alive: np.ndarray  # (K+1, n) bool

    def point_set(self, k: int) -> np.ndarray:
        """Live positions at step k."""
        return self.positions[k][self.alive[k]]


class _FrameRasters(Sequence):
    """A sequence's depth or flow rasters of some frames, each read from disk
    when it is indexed, so a caller holds only the rasters it is using."""

    def __init__(self, read, frames: range):
        self._read = read
        self._frames = frames

    def __len__(self) -> int:
        return len(self._frames)

    def __getitem__(self, i: int) -> np.ndarray:
        return self._read(self._frames[i])


@dataclass
class FrameWindow:
    """Everything the pipeline needs for frames t .. t+K.

    depths and poses cover t..t+K (K+1 entries); flows cover t..t+K-1. A
    window read from a sequence reads a depth or flow raster each time it is
    indexed; `track_points` indexes each one once.
    """

    cloud: PointCloud
    depths: Sequence[np.ndarray]
    flows: Sequence[np.ndarray]
    poses: list[RigidTransform]
    intrinsics: CameraIntrinsics
    lidar_to_cam: RigidTransform

    @staticmethod
    def from_sequence(seq: SequenceIndex, t: int, k_frames: int) -> "FrameWindow":
        if t < 0 or t + k_frames >= seq.n_frames:
            raise MissingFrameData(
                f"frame window {t}..{t + k_frames} outside sequence of {seq.n_frames} frames"
            )
        return FrameWindow(
            cloud=seq.read_cloud(t),
            depths=_FrameRasters(seq.read_depth, range(t, t + k_frames + 1)),
            flows=_FrameRasters(seq.read_flow, range(t, t + k_frames)),
            poses=[seq.poses[t + i] for i in range(k_frames + 1)],
            intrinsics=seq.calibration.intrinsics,
            lidar_to_cam=seq.calibration.lidar_to_cam,
        )


# ---------------------------------------------------------------------------
# cropping


def _cylinder_distances(pts_cam: np.ndarray, centre_cam: np.ndarray):
    """Vertical and horizontal distances of camera-frame points to a centre."""
    dy = np.abs(pts_cam[:, 1] - centre_cam[1])
    dh = np.hypot(pts_cam[:, 0] - centre_cam[0], pts_cam[:, 2] - centre_cam[2])
    return dy, dh


def _inside(dy: np.ndarray, dh: np.ndarray, anchor: Anchor) -> np.ndarray:
    return (dy < 0.5 * anchor.dims[1]) & (dh < anchor.crop_radius())


def _cylinder_mask(pts_cam: np.ndarray, centre_cam: np.ndarray, anchor: Anchor) -> np.ndarray:
    return _inside(*_cylinder_distances(pts_cam, centre_cam), anchor)


def _crop_rows(cloud_cam: np.ndarray, centres_cam, anchors) -> list[list[np.ndarray]]:
    """Cloud row indices, in cloud order, of each (centre, anchor) crop.

    The rows are the ones `_cylinder_mask` keeps over the whole cloud. Each
    centre bisects its slab |x - cx| <= r_max (padded for rounding) of the
    x-sorted cloud; a point in any crop has |z - cz| <= dh < r_max and |y - cy|
    below the tallest anchor's half-height, so only such slab rows are tested.
    """
    r_max = max((a.crop_radius() for a in anchors), default=0.0)
    h_max = max((0.5 * a.dims[1] for a in anchors), default=0.0)
    order = np.argsort(cloud_cam[:, 0])
    xs, ys, zs = cloud_cam.T[:, order]
    crops = []
    for centre in centres_cam:
        pad = 1e-9 * (1.0 + abs(centre[0]) + r_max)
        lo, hi = np.searchsorted(xs, (centre[0] - r_max - pad, centre[0] + r_max + pad))
        near = (np.abs(zs[lo:hi] - centre[2]) < r_max) & (np.abs(ys[lo:hi] - centre[1]) < h_max)
        rows = np.sort(order[lo:hi][near])
        dy, dh = _cylinder_distances(cloud_cam[rows], centre)
        crops.append([rows[_inside(dy, dh, a)] for a in anchors])
    return crops


def crop_cylinder(
    cloud: PointCloud, centre_lidar, anchor: Anchor, lidar_to_cam: RigidTransform
) -> np.ndarray:
    """Crop the points inside an anchor-sized vertical cylinder, in camera frame.

    Both the points and the centre are moved to camera space first, where the
    vertical axis is unambiguous: a point survives if its height differs from
    the centre's by less than half the anchor height and its horizontal
    distance is below half the anchor's footprint diagonal (strict tests).
    """
    pts = lidar_to_cam.apply(cloud.xyz)
    centre = lidar_to_cam.apply(np.asarray(centre_lidar, dtype=float))
    return pts[_cylinder_mask(pts, centre, anchor)]


# ---------------------------------------------------------------------------
# tracking


def _nearest_valid(valid: np.ndarray, u, v, rows, cols, span: np.ndarray):
    """Usable pixel nearest each continuous (u, v) in its window.

    Point i's window is rows[i] + span by cols[i] + span; a pixel is usable
    when it lies in the image and `valid` marks it. Returns its row and column
    (clipped to the image) and the squared distance (inf when no pixel is
    usable). The window is scanned row-major, so argmin's first minimum breaks
    exact ties by (row, col) order. Per-axis terms are (n, len(span)) and
    broadcast only to gather and sum.
    """
    h, w = valid.shape
    n, s = len(u), len(span)
    win_r = rows[:, None] + span
    win_c = cols[:, None] + span
    rr = np.clip(win_r, 0, h - 1)
    cc = np.clip(win_c, 0, w - 1)
    in_r = (win_r >= 0) & (win_r < h)
    in_c = (win_c >= 0) & (win_c < w)
    usable = (in_r[:, :, None] & in_c[:, None, :] & valid[rr[:, :, None], cc[:, None, :]]).reshape(n, s * s)
    dr2, dc2 = (win_r - v[:, None]) ** 2, (win_c - u[:, None]) ** 2
    d2 = (dr2[:, :, None] + dc2[:, None, :]).reshape(n, s * s)
    d2[~usable] = np.inf  # in place: one (n, s*s) float array at a time
    pick = np.argmin(d2, axis=1)
    ar = np.arange(n)
    return rr[ar, pick // s], cc[ar, pick % s], d2[ar, pick]


def _sample_flow(flow: np.ndarray, valid: np.ndarray, u: np.ndarray, v: np.ndarray):
    """Flow values at continuous (u, v) positions.

    Bilinear over the 4 surrounding pixels when all are in the image and
    valid; otherwise the value at the nearest valid one of the 4 (ties by
    (row, col) order); no valid neighbour kills the track. Only the points
    without all 4 go through the window search.
    """
    h, w = valid.shape
    c0 = np.floor(u).astype(int)
    r0 = np.floor(v).astype(int)
    four = (r0 >= 0) & (r0 < h - 1) & (c0 >= 0) & (c0 < w - 1)
    r, c = r0[four], c0[four]
    four[four] = valid[r, c] & valid[r, c + 1] & valid[r + 1, c] & valid[r + 1, c + 1]
    idx, rest = np.flatnonzero(four), np.flatnonzero(~four)
    r, c = r0[idx], c0[idx]
    fu = u[idx] - c
    fv = v[idx] - r
    out = np.empty((len(u), 2))  # float32 rasters take the float64 blend
    out[idx] = (
        flow[r, c] * ((1 - fu) * (1 - fv))[:, None]
        + flow[r, c + 1] * (fu * (1 - fv))[:, None]
        + flow[r + 1, c] * ((1 - fu) * fv)[:, None]
        + flow[r + 1, c + 1] * (fu * fv)[:, None]
    )
    rows, cols, d2 = _nearest_valid(valid, u[rest], v[rest], r0[rest], c0[rest], np.arange(2))
    out[rest] = flow[rows, cols]
    ok = np.ones(len(u), dtype=bool)
    ok[rest] = d2 < np.inf
    return out, ok


def _nearest_valid_depth(depth: np.ndarray, valid: np.ndarray, u: np.ndarray, v: np.ndarray):
    """Nearest valid pixel in the square window of half-width `_DEPTH_SEARCH_RADIUS`.

    Distance is Euclidean to the continuous position; exact ties resolve to
    the lexicographically first (row, col). Returns (rows, cols, depths, ok).

    The rounded pixel is taken directly when it is in the image and valid
    and both offsets are strictly below 0.5: every other pixel is more than
    0.5 away on some axis. For the other points a 3x3 pre-pass resolves most
    exactly: any pixel outside it is at least 1.5 px away, so an inside
    candidate nearer than that cannot be beaten by the full window.
    """
    h, w = valid.shape
    rows = np.floor(v + 0.5).astype(int)
    cols = np.floor(u + 0.5).astype(int)
    best_r, best_c, best_d2 = rows.copy(), cols.copy(), np.full(len(u), np.inf)
    hit = np.flatnonzero((rows >= 0) & (rows < h) & (cols >= 0) & (cols < w))
    dr, dc = rows[hit] - v[hit], cols[hit] - u[hit]
    exact = valid[rows[hit], cols[hit]] & (np.abs(dr) < 0.5) & (np.abs(dc) < 0.5)
    best_d2[hit[exact]] = dr[exact] ** 2 + dc[exact] ** 2
    for span in (np.arange(-1, 2), np.arange(-_DEPTH_SEARCH_RADIUS, _DEPTH_SEARCH_RADIUS + 1)):
        idx = np.flatnonzero(~(best_d2 < 2.25))
        best_r[idx], best_c[idx], best_d2[idx] = _nearest_valid(valid, u[idx], v[idx], rows[idx], cols[idx], span)
    return best_r, best_c, depth[best_r, best_c], np.isfinite(best_d2)


def track_points(
    points,
    flows,
    depths,
    poses,
    k_frames: int,
    intrinsics: CameraIntrinsics,
) -> TrackedPointSets:
    """Track camera-frame points of frame t forward for k_frames frames.

    Each step projects the current positions into the image, advances them by
    the optic flow, snaps to the nearest valid depth pixel of the next frame
    and backprojects. Tracked sets for k >= 1 are mapped back into frame t via
    the ego poses; points whose projection or depth search fails are masked
    out from that step onward.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(pts)
    if len(depths) < k_frames + 1 or len(poses) < k_frames + 1 or len(flows) < k_frames:
        raise MissingFrameData(
            f"tracking {k_frames} steps needs {k_frames + 1} depths/poses and {k_frames} flows"
        )
    positions = np.zeros((k_frames + 1, n, 3))
    alive = np.zeros((k_frames + 1, n), dtype=bool)
    positions[0] = pts
    alive[0] = True

    # Step k indexes flow k and depth k+1 once each, in step order, even with
    # no points, so that a window read from disk reads every raster. Lookups
    # run over blocks of rows, so their temporaries do not grow with n.
    current = pts.copy()  # camera coords at frame t+k
    live = np.ones(n, dtype=bool)
    to_start = poses[0].invert()
    valid = depths[0] > 0
    blocks = [slice(i, i + _TRACK_BLOCK) for i in range(0, n, _TRACK_BLOCK)]
    for k in range(k_frames):
        z = current[:, 2]
        live &= z > 0
        safe_z = np.where(z > 0, z, 1.0)
        u = intrinsics.fx * current[:, 0] / safe_z + intrinsics.cx
        v = intrinsics.fy * current[:, 1] / safe_z + intrinsics.cy
        flow = flows[k]
        for blk in blocks:  # u and v become the flowed positions
            flow_uv, flow_ok = _sample_flow(flow, valid, u[blk], v[blk])
            live[blk] &= flow_ok
            u[blk] += flow_uv[:, 0]
            v[blk] += flow_uv[:, 1]
        del flow
        depth = depths[k + 1]
        valid = depth > 0
        for blk in blocks:
            pr, pc, d, depth_ok = _nearest_valid_depth(depth, valid, u[blk], v[blk])
            live[blk] &= depth_ok
            nxt = backproject(np.column_stack([pc, pr]), np.where(d > 0, d, 1.0), intrinsics)
            current[blk] = np.where(live[blk, None], nxt, current[blk])
        del depth  # the next step needs only its mask
        to_frame_t = to_start.compose(poses[k + 1])
        positions[k + 1] = to_frame_t.apply(current)
        alive[k + 1] = live
    return TrackedPointSets(positions, alive)


# ---------------------------------------------------------------------------
# box fitting


def _moments(pts: np.ndarray):
    """Mean, centred points and covariance eigen-decomposition of C-ordered (n, 3) points.

    The mean adds the rows in order, first to last, onto +0.0, as `np.mean`
    does on a C-ordered array, without its Python wrapper.
    """
    n = len(pts)
    centre = np.einsum("ij->j", pts) / n
    centred = pts - centre
    vals, vecs = np.linalg.eigh(centred.T @ centred / n)
    return centre, centred, vals, vecs


def principal_direction(points) -> np.ndarray:
    """Unit eigenvector of the point covariance with the largest eigenvalue."""
    vecs = _moments(np.ascontiguousarray(points, dtype=float).reshape(-1, 3))[3]
    return vecs[:, 2]


class _Fit(NamedTuple):
    centre: np.ndarray
    dims: np.ndarray
    yaw: float


def _fit(pts: np.ndarray) -> _Fit | None:
    """`fit_obb` on C-ordered (n, 3) float points without building an Obb3; None if degenerate."""
    if len(pts) < 3:
        return None
    centre, centred, vals, vecs = _moments(pts)
    if vals[0] <= _RANK_EPS * max(vals[2], _RANK_EPS):
        return None
    e = vecs[:, 2]
    yaw = canonical_yaw(math.atan2(e[2], e[0]))
    # rotate by -yaw about vertical; min/max are exact, so reducing the
    # contiguous transpose along its rows gives the same extents, faster
    local = np.ascontiguousarray((centred @ yaw_matrix(CAMERA, yaw)).T)
    dims = local.max(axis=1) - local.min(axis=1)
    if dims[0] > dims[2]:
        dims = dims[[2, 1, 0]]
        yaw = canonical_yaw(yaw + 0.5 * math.pi)
    return _Fit(centre, dims, yaw)


def fit_obb(points) -> Obb3:
    """Fit an oriented box to camera-frame points.

    Centre = point mean; yaw = angle of the first principal component in the
    BEV plane; dims = axis extents after undoing the yaw. The fit is
    canonicalized so the box-local x extent never exceeds the z extent
    (swapping the horizontal axes rotates the yaw by 90 degrees and leaves the
    geometry untouched), which makes fits of the same object comparable across
    frames. Raises DegenerateInput for < 3 points or rank-deficient spreads.
    """
    pts = np.ascontiguousarray(points, dtype=float).reshape(-1, 3)
    fit = _fit(pts)
    if fit is None:
        raise DegenerateInput(
            f"box fitting needs >= 3 points with a full-rank covariance, got {len(pts)} points"
        )
    return Obb3(*fit, CAMERA)


# ---------------------------------------------------------------------------
# scoring and anchor selection


def moving_score(boxes) -> float:
    """Total distance the fitted box centres travelled across the set."""
    boxes = list(boxes)
    return float(sum(math.sqrt(d @ d) for d in (b.centre - a.centre for a, b in zip(boxes, boxes[1:]))))


def inconsistency_score(boxes) -> float:
    """Summed dimension drift of the fitted boxes relative to the first one."""
    boxes = list(boxes)
    return float(sum(math.sqrt(d @ d) for d in (box.dims - boxes[0].dims for box in boxes[1:])))


def combined_confidence(moving: float, inconsistency: float, cfg: ScorerConfig) -> float:
    return cfg.moving_weight * moving - cfg.inconsistency_weight * inconsistency


def select_anchor(scores, anchors, score_threshold: float):
    """Pick the surviving anchor with the largest volume, if any survive.

    `scores` and `anchors` are parallel sequences. Unscored anchors (None) and
    those scoring below the threshold are dropped; exact volume ties resolve
    to the earlier anchor. Returns (anchor, score) or None.
    """
    best = None
    for anchor, score in zip(anchors, scores):
        if score is None or score < score_threshold:
            continue
        if best is None or anchor.volume() > best[0].volume():
            best = (anchor, score)
    return best


def _clamp01(value: float) -> float:
    return min(max(value, 0.0), 1.0)


def _sample(grid: BoxGrid, spec: GridSpec, sampler_cfg: SamplerConfig, lidar_to_cam: RigidTransform):
    """Sample pass: the sorted sampled pixels, their smoothed confidences and
    their decoded box centres in camera frame."""
    pixels = sorted(sample_pixels(grid, spec, sampler_cfg))
    smoothed = smoothed_confidences(grid, spec, pixels)
    centres = grid_centres(grid, spec)
    return pixels, smoothed, [lidar_to_cam.apply(centres[r * spec.out_cols + c]) for r, c in pixels]


def _crop(cloud_cam: np.ndarray, centres_cam, anchors):
    """Crop pass: each (centre, anchor) crop of `_crop_rows`, and the points to
    track, the rows of the crops with >= 3 rows in cloud order, each once. A
    crop comes back as the int32 ranks of its rows among those points
    (`_fit_score` reads only the length of a shorter crop)."""
    crops = _crop_rows(cloud_cam, centres_cam, anchors)
    mark = np.zeros(len(cloud_cam), dtype=bool)
    for per_pixel in crops:
        for rows in per_pixel:
            if len(rows) >= 3:
                mark[rows] = True
    rank = np.cumsum(mark, dtype=np.int32) - 1
    for per_pixel in crops:  # in place, so one pixel's rows and ranks are held at a time, not all
        per_pixel[:] = [rank[rows] for rows in per_pixel]
    return crops, cloud_cam[mark]


def _fit_score(crops, tracked: TrackedPointSets, scorer_cfg: ScorerConfig):
    """Fit+score pass: per pixel, per anchor (a crop of ranks in the tracked points), its AnchorScore and its
    step-0 fit. Each step's live rows are taken once, counted into `alive` and fitted; both stay None when the
    crop has < 3 rows (then never tracked), any step's fit degenerates or the confidence is not finite."""
    scored = []
    for per_pixel in crops:
        scored.append([])
        for at in per_pixel:
            counts, scores, first = [len(at)] + [0] * scorer_cfg.k_frames, (None, None, None), None
            if len(at) >= 3:
                live = [at[alive.take(at)] for alive in tracked.alive]
                counts = [len(rows) for rows in live]
                fits = [_fit(positions.take(rows, axis=0)) for positions, rows in zip(tracked.positions, live)]
                if None not in fits:
                    moving, inconsistency = moving_score(fits), inconsistency_score(fits)
                    confidence = combined_confidence(moving, inconsistency, scorer_cfg)
                    if math.isfinite(confidence):
                        scores, first = (moving, inconsistency, confidence), fits[0]
            scored[-1].append((AnchorScore(*scores, counts), first))
    return scored


def _select(pixels, smoothed, scored, anchors: list[Anchor], score_threshold: float, cam_to_lidar) -> PgtResult:
    """Select pass: a pixel with a surviving anchor joins U+ with that anchor's
    step-0 fit as a lidar-frame box, the rest join U- with their best score (0 if none was scored)."""
    result = PgtResult([], [], [])
    for pixel, confidence, per_anchor in zip(pixels, smoothed, scored):
        diag = PixelDiagnostics(pixel, confidence, {a.name: score for a, (score, _) in zip(anchors, per_anchor)})
        scores = [score.confidence for score, _ in per_anchor]
        selected = select_anchor(scores, anchors, score_threshold)
        if selected is not None:
            anchor, score = selected
            box = transform_obb(Obb3(*per_anchor[anchors.index(anchor)][1], CAMERA), cam_to_lidar, LIDAR)
            result.u_plus.append(PseudoLabel(pixel, box, _clamp01(score), anchor.name))
        else:
            result.u_minus.append((pixel, _clamp01(max((s for s in scores if s is not None), default=0.0))))
        result.diagnostics.append(diag)
    return result


def generate_pseudo_labels(
    window: FrameWindow,
    grid: BoxGrid,
    spec: GridSpec,
    sampler_cfg: SamplerConfig,
    anchors=None,
    scorer_cfg: ScorerConfig | None = None,
) -> PgtResult:
    """Chain the paper's passes: `_sample`, `_crop`, `track_points`, `_fit_score`, `_select`.

    Each point of a crop with >= 3 points is tracked once per frame. Pixels
    with a surviving anchor yield a PseudoLabel whose box is the fit of the
    crop itself (step 0) brought back into lidar space; their target
    confidence is the anchor's score clamped to [0, 1]. The rest land in U-
    with the clamped best score across anchors, or 0 when none was scored
    (an unscored anchor's score is None). Results are ordered by pixel.
    """
    anchors = list(anchors) if anchors is not None else default_anchors()
    scorer_cfg = scorer_cfg or ScorerConfig()
    lidar_to_cam, intr = window.lidar_to_cam, window.intrinsics
    pixels, smoothed, centres_cam = _sample(grid, spec, sampler_cfg, lidar_to_cam)
    del grid  # every pass that reads the grid is done: free it before tracking
    flows, depths, poses = window.flows, window.depths, window.poses
    cloud_cam = lidar_to_cam.apply(window.cloud.xyz)
    del window  # and so the window's cloud, where the caller holds no reference
    crops, points = _crop(cloud_cam, centres_cam, anchors)
    del cloud_cam  # only the tracked points outlive the crop pass
    tracked = track_points(points, flows, depths, poses, scorer_cfg.k_frames, intr)
    scored = _fit_score(crops, tracked, scorer_cfg)
    return _select(pixels, smoothed, scored, anchors, scorer_cfg.score_threshold, lidar_to_cam.invert())
