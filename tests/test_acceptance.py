"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest` treats them as ordinary tests.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from lidarpgt.bev import BoxGrid, GridSpec, encode_box, pillar_centre
from lidarpgt.dataset import (
    LabelRecord,
    read_calib,
    read_cloud,
    read_depth,
    read_flow,
    read_labels,
    read_poses,
    write_calib,
    write_cloud,
    write_labels,
    write_poses,
    write_raster,
)
from lidarpgt.evaluation import Detection, average_precision, project_box_2d
from lidarpgt.geometry import (
    AABB2,
    CAMERA,
    LIDAR,
    CameraIntrinsics,
    Obb3,
    PointCloud,
    RigidTransform,
    iou_2d,
    kitti_lidar_to_camera,
    project,
    rotated_iou_bev,
    yaw_matrix,
)
from lidarpgt.loss import LossConfig, balanced_l1, balanced_l1_grad, frame_loss, wrap_angle_residual
from lidarpgt.pipeline import (
    FrameWindow,
    PseudoLabel,
    SamplerConfig,
    ScorerConfig,
    combined_confidence,
    crop_cylinder,
    default_anchors,
    fit_obb,
    generate_pseudo_labels,
    inconsistency_score,
    moving_score,
    principal_direction,
    track_points,
)
from lidarpgt.proposals import heuristic_grid
from lidarpgt.sampling import grid_centres, sample_pixels, smooth_confidence
from lidarpgt.simulate import EgoMotion, SimConfig, SimObject, make_scene


def _passed(n, text):
    print(f"criterion {n}: PASS - {text}")


# ---------------------------------------------------------------------------
# criterion 1: temporal-consistency formulas


def test_criterion_1_formula_fidelity():
    cfg = ScorerConfig()  # weights 0.4 / 0.15

    def box(centre, dims):
        return Obb3(centre, dims, 0.0, CAMERA)

    # hand-computed cases
    static = [box((0, 0, 5), (2, 1, 4))] * 4
    assert moving_score(static) == 0.0
    steady = [box((0.5 * k, 0.0, 5.0), (2, 1, 4)) for k in range(4)]
    assert moving_score(steady) == pytest.approx(1.5, abs=1e-15)
    drift = [box((0, 0, 5), (2, 1, 4))] + [box((0, 0, 5), (2, 1, 4.1))] * 3
    assert inconsistency_score(drift) == pytest.approx(0.3, abs=1e-12)
    assert combined_confidence(1.5, 0.2, cfg) == pytest.approx(0.57, abs=1e-15)

    # randomized cases against a straight-line reimplementation
    rng = np.random.default_rng(101)
    for _ in range(20):
        k = int(rng.integers(1, 6))
        centres = rng.normal(scale=4.0, size=(k + 1, 3))
        dims = rng.uniform(0.3, 5.0, size=(k + 1, 3))
        boxes = [Obb3(c, d, 0.0, CAMERA) for c, d in zip(centres, dims)]
        mv_oracle = 0.0
        for i in range(1, k + 1):
            mv_oracle += math.sqrt(sum((centres[i][j] - centres[i - 1][j]) ** 2 for j in range(3)))
        inc_oracle = 0.0
        for i in range(1, k + 1):
            inc_oracle += math.sqrt(sum((dims[i][j] - dims[0][j]) ** 2 for j in range(3)))
        assert moving_score(boxes) == pytest.approx(mv_oracle, abs=1e-12)
        assert inconsistency_score(boxes) == pytest.approx(inc_oracle, abs=1e-12)
        kappa_oracle = 0.4 * mv_oracle - 0.15 * inc_oracle
        assert combined_confidence(mv_oracle, inc_oracle, cfg) == pytest.approx(kappa_oracle, abs=1e-12)
    _passed(1, "scoring formulas match hand values and 20 randomized reimplementation cases")


# ---------------------------------------------------------------------------
# criterion 2: cylinder crop vs brute-force membership


def test_criterion_2_crop_matches_brute_force():
    extr = kitti_lidar_to_camera()
    anchors = default_anchors()
    rng = np.random.default_rng(202)
    for _ in range(1000):
        centre_cam = np.array(
            [rng.uniform(-4, 4), rng.uniform(-1, 2.5), rng.uniform(5, 30)]
        )
        pts_cam = centre_cam + rng.normal(scale=1.6, size=(50, 3))
        lidar_pts = extr.invert().apply(pts_cam)
        cloud = PointCloud(np.column_stack([lidar_pts, np.full(len(lidar_pts), 0.5)]))
        centre_lidar = extr.invert().apply(centre_cam)
        for anchor in anchors:
            got = crop_cylinder(cloud, centre_lidar, anchor, extr)
            radius = math.hypot(anchor.dims[0], anchor.dims[2]) / 2.0
            expected = []
            for p in extr.apply(cloud.xyz):
                if abs(p[1] - centre_cam[1]) < anchor.dims[1] / 2.0 and math.hypot(
                    p[0] - centre_cam[0], p[2] - centre_cam[2]
                ) < radius:
                    expected.append(tuple(p))
            got_set = sorted(map(tuple, got))
            assert got_set == sorted(expected)
    _passed(2, "crop agrees with per-point membership oracle on 1000 clouds x 3 anchors")


# ---------------------------------------------------------------------------
# criterion 3: tracking against rigid-motion propagation


def test_criterion_3_tracking_oracle():
    # elevated viewpoint, no ground plane: every surface is well resolved so
    # per-pixel depth lookups are well conditioned
    intrinsics = CameraIntrinsics(1200.0, 1200.0, 900.0, 60.0, 1800, 1160)
    objects = [
        SimObject("vehicle", (3.0, 12.6), yaw=0.5, velocity=(0.3, 0.25), density=100.0),
        SimObject("cyclist", (-3.2, 11.2), yaw=-0.6, velocity=(0.3, 0.1), density=300.0),
        SimObject("pedestrian", (-0.3, 11.5), velocity=(0.25, 0.1), density=300.0),
    ]
    cfg = SimConfig(
        n_frames=5,
        objects=objects,
        intrinsics=intrinsics,
        ground_extent=(-10.0, 10.0, 4.0, 40.0),
        ego=EgoMotion(velocity=(0.0, 0.12)),
        ground_y=9.0,
        ground_density=0.0,
    )
    frames = list(make_scene(cfg, seed=7))
    k_frames = 3

    # sanity: object silhouettes stay pairwise separated in the image,
    # otherwise the depth search could legitimately jump across objects
    lidar_to_cam = kitti_lidar_to_camera()
    for frame in frames:
        rects = []
        for gt in frame.gt_boxes:
            uv = project(lidar_to_cam.apply(gt.box.corners()), intrinsics)
            rects.append((uv[:, 0].min(), uv[:, 0].max(), uv[:, 1].min(), uv[:, 1].max()))
            assert uv[:, 0].min() > 12 and uv[:, 0].max() < intrinsics.width - 12
            assert uv[:, 1].min() > 12 and uv[:, 1].max() < intrinsics.height - 12
        for i in range(len(rects)):
            for j in range(i + 1, len(rects)):
                a, b = rects[i], rects[j]
                gap = max(a[0] - b[1], b[0] - a[1], a[2] - b[3], b[2] - a[3])
                assert gap >= 12.0, f"silhouettes {i},{j} too close ({gap:.1f}px)"

    anchors = {a.name: a for a in default_anchors()}
    for oi, obj in enumerate(objects):
        gt = frames[0].gt_boxes[oi].box
        crop = crop_cylinder(frames[0].cloud, gt.centre, anchors[obj.cls], lidar_to_cam)
        assert len(crop) > 100
        tracked = track_points(
            crop,
            [f.flow for f in frames[: k_frames + 1]],
            [f.depth for f in frames[: k_frames + 2]],
            [f.pose for f in frames[: k_frames + 2]],
            k_frames,
            intrinsics,
        )
        for k in range(1, k_frames + 1):
            truth = crop + np.array([obj.velocity[0] * k, 0.0, obj.velocity[1] * k])
            alive = tracked.alive[k]
            assert alive.mean() >= 0.95
            err = np.linalg.norm(tracked.positions[k][alive] - truth[alive], axis=1)
            assert err.mean() / k <= 0.05, f"{obj.cls}: {err.mean():.4f} at k={k}"
        # a rigid object tracked this accurately must keep its fitted dims
        boxes = [fit_obb(tracked.point_set(k)) for k in range(k_frames + 1)]
        assert inconsistency_score(boxes) <= 0.05 * k_frames
    _passed(3, "tracked sets within 0.05 m mean error per tracked frame, K=3")


# ---------------------------------------------------------------------------
# criterion 4: box fitting


def test_criterion_4_box_fitting_oracle():
    signs = np.array(
        [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)], dtype=float
    )
    rng = np.random.default_rng(404)
    for _ in range(60):
        dims = np.sort(rng.uniform(0.4, 5.0, 3))
        dims = np.array([dims[0], dims[1], dims[2]])
        yaw = rng.uniform(-math.pi, math.pi)
        centre = rng.normal(scale=3.0, size=3)
        corners = (signs * dims / 2) @ yaw_matrix(CAMERA, yaw).T + centre
        box = fit_obb(corners)
        residual = (box.yaw - yaw + math.pi / 2) % math.pi - math.pi / 2
        assert abs(residual) < 1e-6
        assert np.abs(box.dims - dims).max() < 1e-6
        assert np.abs(box.centre - centre).max() < 1e-9

    for _ in range(100):
        scales = rng.uniform(0.3, 2.5, 3)
        scales[rng.integers(0, 3)] *= rng.uniform(2.0, 4.0)
        pts = rng.normal(size=(100, 3)) * scales + rng.normal(scale=2.0, size=3)
        e = principal_direction(pts)
        centred = pts - pts.mean(axis=0)
        cov = centred.T @ centred / len(pts)
        v = rng.normal(size=3)
        for _ in range(5000):
            v = cov @ v
            v /= np.linalg.norm(v)
        assert min(np.linalg.norm(e - v), np.linalg.norm(e + v)) < 1e-6
    _passed(4, "cuboid fits recover yaw/dims to 1e-6; PCA matches power iteration on 100 clusters")


# ---------------------------------------------------------------------------
# criterion 5: end-to-end synthetic recall


def test_criterion_5_end_to_end_synthetic_recall():
    started = time.monotonic()
    cfg = SimConfig(
        n_frames=10,
        objects=[
            SimObject("vehicle", (3.17, 22.36), yaw=0.74, velocity=(-0.02, 0.86)),
            SimObject("vehicle", (-5.31, 31.27), yaw=-0.71, velocity=(0.12, -0.87)),
            SimObject("vehicle", (-11.54, 25.10), yaw=0.75, velocity=(0.00, -0.90)),
            SimObject("cyclist", (11.73, 19.78), yaw=0.03, velocity=(-0.32, 0.36)),
            SimObject("pedestrian", (11.13, 31.00), yaw=0.45, velocity=(-0.29, 0.41)),
            SimObject("pedestrian", (-14.35, 14.24), yaw=0.29, velocity=(0.27, -0.38)),
            SimObject("vehicle", (13.71, 13.76), yaw=0.45),
            SimObject("pedestrian", (-0.42, 16.00), yaw=0.15),
        ],
        intrinsics=CameraIntrinsics(500.0, 500.0, 800.0, 187.0, 1600, 448),
        ground_extent=(-10.0, 10.0, 4.0, 40.0),
        ego=EgoMotion(velocity=(0.0, 0.1)),
    )
    frames = list(make_scene(cfg, seed=42))
    spec = GridSpec()
    scorer = ScorerConfig()
    k = scorer.k_frames

    n_objects = len(cfg.objects)
    moving = [i for i, o in enumerate(cfg.objects) if o.is_moving]
    static = [i for i, o in enumerate(cfg.objects) if not o.is_moving]
    assert len(moving) == 6 and len(static) == 2

    best_iou = np.zeros(n_objects)
    static_violations = []
    ground_violations = []
    for t in range(10 - k):
        grid = heuristic_grid(frames[t].cloud, spec)
        window = FrameWindow(
            cloud=frames[t].cloud,
            depths=[frames[t + i].depth for i in range(k + 1)],
            flows=[frames[t + i].flow for i in range(k)],
            poses=[frames[t + i].pose for i in range(k + 1)],
            intrinsics=cfg.intrinsics,
            lidar_to_cam=kitti_lidar_to_camera(),
        )
        result = generate_pseudo_labels(
            window, grid, spec, sampler_cfg=SamplerConfig(sample_count=240, seed=t)
        )
        gts = frames[t].gt_boxes
        assert len(result.u_plus) + len(result.u_minus) == 240
        for label in result.u_plus:
            assert 0.0 <= label.confidence <= 1.0
            ious = [rotated_iou_bev(label.box, gt.box) for gt in gts]
            j = int(np.argmax(ious))
            best_iou[j] = max(best_iou[j], ious[j])
            if j in static and ious[j] > 0.05:
                static_violations.append((t, label.pixel))
            horizontal = [
                np.linalg.norm(label.box.centre[:2] - gt.box.centre[:2]) for gt in gts
            ]
            if max(ious) == 0.0 and min(horizontal) > 5.0:
                ground_violations.append((t, label.pixel))
    elapsed = time.monotonic() - started

    labelled = sum(1 for i in moving if best_iou[i] >= 0.5)
    assert labelled / len(moving) >= 0.8, f"only {labelled}/6 moving objects labelled"
    assert not static_violations, f"static objects received box labels: {static_violations}"
    assert not ground_violations, f"pure-ground pixels received box labels: {ground_violations}"
    assert elapsed < 60.0, f"end-to-end run took {elapsed:.1f}s"
    _passed(
        5,
        f"{labelled}/6 moving objects labelled at IoU>=0.5, statics and ground in U-, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 6: rotated IoU vs Monte Carlo


def _mc_iou(a: Obb3, b: Obb3, samples, rng):
    fa, fb = a.footprint(), b.footprint()
    lo = np.minimum(fa.min(axis=0), fb.min(axis=0))
    hi = np.maximum(fa.max(axis=0), fb.max(axis=0))
    pts = rng.uniform(lo, hi, size=(samples, 2))

    def inside(box, pts):
        i, j = (0, 1)
        centre = np.array([box.centre[0], box.centre[1]])
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        rel = pts - centre
        local = np.column_stack([c * rel[:, 0] + s * rel[:, 1], -s * rel[:, 0] + c * rel[:, 1]])
        half = np.array([box.dims[0] / 2, box.dims[1] / 2])
        return np.all(np.abs(local) <= half, axis=1)

    in_a = inside(a, pts)
    in_b = inside(b, pts)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


def test_criterion_6_rotated_iou_monte_carlo():
    rng = np.random.default_rng(606)
    for _ in range(200):
        centre_a = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0])
        centre_b = centre_a + rng.normal(scale=1.2, size=3) * [1, 1, 0]
        a = Obb3(centre_a, rng.uniform(0.5, 3.0, 3), rng.uniform(-math.pi, math.pi), LIDAR)
        b = Obb3(centre_b, rng.uniform(0.5, 3.0, 3), rng.uniform(-math.pi, math.pi), LIDAR)
        exact = rotated_iou_bev(a, b)
        estimate = _mc_iou(a, b, 1_000_000, rng)
        assert abs(exact - estimate) <= 0.005, f"{exact} vs {estimate}"

    for _ in range(200):
        ca, cb = rng.normal(scale=1.5, size=(2, 3))
        da, db = rng.uniform(0.3, 3.0, size=(2, 3))
        a = Obb3(ca, da, 0.0, LIDAR)
        b = Obb3(cb, db, 0.0, LIDAR)
        expected = iou_2d(
            AABB2(ca[:2] - da[:2] / 2, ca[:2] + da[:2] / 2),
            AABB2(cb[:2] - db[:2] / 2, cb[:2] + db[:2] / 2),
        )
        assert abs(rotated_iou_bev(a, b) - expected) < 1e-9
    _passed(6, "rotated IoU within 0.005 of 1e6-sample Monte Carlo on 200 pairs; axis-aligned exact")


# ---------------------------------------------------------------------------
# criterion 7: loss properties


def test_criterion_7_loss():
    cfg = LossConfig()
    a, g, b = cfg.alpha, cfg.gamma, cfg.b
    inner_at_one = (a / b) * (b + 1.0) * math.log(b + 1.0) - a
    outer_at_one = g + cfg.c_const
    assert abs(inner_at_one - outer_at_one) < 1e-9

    spec = GridSpec(x_range=(0.0, 20.0), y_range=(-10.0, 10.0), z_range=(-2.0, 2.0), height=80, width=80, stride=4)
    grid = BoxGrid.zeros(spec)
    labels = []
    rng = np.random.default_rng(707)
    for pixel in [(2, 3), (11, 6), (17, 17)]:
        centre = pillar_centre(pixel, spec) + rng.normal(scale=0.2, size=3)
        box = Obb3(centre, rng.uniform(0.5, 4.0, 3), rng.uniform(-1.0, 1.0), LIDAR)
        conf = float(rng.random())
        enc_pixel, code = encode_box(box, spec, confidence=conf)
        grid.set_code(enc_pixel, code)
        labels.append(PseudoLabel(enc_pixel, box, conf, "vehicle"))
    minus = [((5, 9), 0.3)]
    grid.data[5, 9, 7] = 0.3
    assert frame_loss(grid, labels, minus, spec) == pytest.approx(0.0, abs=1e-18)

    # finite differences vs the analytic derivative, away from |x| = 1
    label = labels[0]
    px = label.pixel
    grid.data[px][0:3] += [0.3, -0.25, 0.15]
    grid.data[px][3:6] += [1.6, -0.4, 2.3]
    grid.data[px][6] += 0.37
    grid.data[px][7] = 0.9
    h = 1e-6
    pred_centre = pillar_centre(px, spec) + grid.data[px][0:3]
    expected_grads = {}
    for ch in range(3):
        expected_grads[ch] = balanced_l1_grad(pred_centre[ch] - label.box.centre[ch], cfg)
    for ch in range(3, 6):
        expected_grads[ch] = balanced_l1_grad(grid.data[px][ch] - label.box.dims[ch - 3], cfg)
    expected_grads[6] = balanced_l1_grad(wrap_angle_residual(grid.data[px][6] - label.box.yaw), cfg)
    expected_grads[7] = 2.0 * (grid.data[px][7] - label.confidence)
    for ch, expected in expected_grads.items():
        original = grid.data[px][ch]
        grid.data[px][ch] = original + h
        up = frame_loss(grid, labels, minus, spec, cfg)
        grid.data[px][ch] = original - h
        down = frame_loss(grid, labels, minus, spec, cfg)
        grid.data[px][ch] = original
        fd = (up - down) / (2 * h)
        assert fd == pytest.approx(expected, rel=1e-4), f"channel {ch}"
    _passed(7, "branch continuity 1e-9, zero loss on perfect predictions, gradients match to 1e-4")


# ---------------------------------------------------------------------------
# criterion 8: average precision vs brute force


def _ap_oracle(iou_matrix, threshold):
    """Exact all-point AP with rational arithmetic; detections pre-sorted by
    descending confidence (index order)."""
    n_det = len(iou_matrix)
    n_gt = len(iou_matrix[0]) if n_det else 0
    matched = [False] * n_gt
    flags = []
    for d in range(n_det):
        best_j, best = -1, 0.0
        for j in range(n_gt):
            if matched[j]:
                continue
            if iou_matrix[d][j] > best:
                best, best_j = iou_matrix[d][j], j
        if best_j >= 0 and best >= threshold:
            matched[best_j] = True
            flags.append(True)
        else:
            flags.append(False)
    tp = 0
    points = []
    for i, flag in enumerate(flags, start=1):
        tp += 1 if flag else 0
        points.append((Fraction(tp, n_gt), Fraction(tp, i)))
    ap = Fraction(0)
    prev_recall = Fraction(0)
    for i, (recall, _) in enumerate(points):
        if recall > prev_recall:
            best_prec = max(p for r, p in points[i:])
            ap += (recall - prev_recall) * best_prec
            prev_recall = recall
    return ap


def test_criterion_8_average_precision_exhaustive():
    class FakeBox:
        def __init__(self, idx):
            self.idx = idx

    checked = 0
    for n_gt in range(0, 4):
        for n_det in range(0, 5):
            n_pairs = n_det * n_gt
            for mask in range(2 ** n_pairs):
                matrix = [[0.0] * n_gt for _ in range(n_det)]
                for bit in range(n_pairs):
                    if mask >> bit & 1:
                        matrix[bit // n_gt][bit % n_gt] = 0.6
                dets = [Detection(FakeBox(i), 0.9 - 0.1 * i) for i in range(n_det)]
                gts = [FakeBox(j) for j in range(n_gt)]
                got = average_precision(
                    dets, gts, lambda d, g: matrix[d.idx][g.idx], 0.5
                )
                if n_gt == 0:
                    expected = 1.0 if n_det == 0 else 0.0
                else:
                    expected = float(_ap_oracle(matrix, 0.5))
                assert got == pytest.approx(expected, abs=1e-12), (n_det, n_gt, mask)
                checked += 1

    # monotonicity in the IoU threshold on randomized box suites
    rng = np.random.default_rng(808)
    for _ in range(10):
        gts = [
            Obb3((rng.uniform(0, 30), rng.uniform(-10, 10), 0.0), (2.0, 2.0, 1.5), rng.uniform(-1, 1), LIDAR)
            for _ in range(5)
        ]
        dets = [
            Detection(
                Obb3(gt.centre + rng.normal(scale=0.8, size=3) * [1, 1, 0], gt.dims, gt.yaw, LIDAR),
                float(rng.random()),
            )
            for gt in gts
        ]
        previous = 1.1
        for threshold in np.arange(0.1, 0.75, 0.1):
            ap = average_precision(dets, gts, rotated_iou_bev, threshold)
            assert ap <= previous + 1e-12
            previous = ap
    _passed(8, f"AP matches exact brute-force enumeration on {checked} instances; monotone in threshold")


# ---------------------------------------------------------------------------
# criterion 9: sampling


def test_criterion_9_sampling():
    spec = GridSpec(x_range=(0.0, 20.0), y_range=(-10.0, 10.0), z_range=(-2.0, 2.0), height=400, width=400, stride=4)
    rng = np.random.default_rng(909)
    grid = BoxGrid.zeros(spec)
    grid.data[:, :, 7] = rng.random((100, 100))
    cfg = SamplerConfig(confidence_threshold=0.08, sample_count=60, seed=11)
    pixels = sample_pixels(grid, spec, cfg)
    assert len(pixels) == 60
    assert len(set(pixels)) == 60
    n_high = sum(1 for p in pixels if grid.data[p][7] > 0.08)
    assert n_high == 30  # both bands are large, so exactly N/2 from each
    assert pixels == sample_pixels(grid, spec, cfg)
    other = sample_pixels(grid, spec, SamplerConfig(0.08, 60, seed=12))
    assert other != pixels
    assert sum(1 for p in other if grid.data[p][7] > 0.08) == 30

    # smoothing vs the exhaustive nearest-neighbour oracle on 20x20 grids
    small = GridSpec(x_range=(0.0, 20.0), y_range=(-10.0, 10.0), z_range=(-2.0, 2.0), height=80, width=80, stride=4)
    for trial in range(3):
        g = BoxGrid.zeros(small)
        g.data[:, :, 0:3] = rng.normal(scale=0.5, size=(20, 20, 3))
        g.data[:, :, 7] = rng.random((20, 20))
        centres = grid_centres(g, small).reshape(20, 20, 3)
        for pixel in [(0, 0), (10, 10), (19, 3), (5, 18), (13, 7)]:
            own = centres[pixel]
            entries = []
            for r in range(20):
                for c in range(20):
                    if (r, c) == pixel:
                        continue
                    entries.append((float(np.sum((centres[r, c] - own) ** 2)), r, c))
            entries.sort()
            oracle = (
                g.data[pixel][7] + sum(g.data[r, c, 7] for _, r, c in entries[:8])
            ) / 9.0
            assert smooth_confidence(g, small, pixel) == pytest.approx(oracle, abs=1e-12)
    _passed(9, "band split at 0.08, 30+30 sampling, seed determinism, smoothing matches oracle")


# ---------------------------------------------------------------------------
# criterion 10: I/O round trips


def test_criterion_10_io_round_trips(tmp_path):
    rng = np.random.default_rng(1010)

    pts = np.column_stack(
        [rng.normal(scale=15, size=(300, 3)), rng.random(300)]
    ).astype(np.float32)
    cloud = PointCloud(pts.astype(float))
    write_cloud(tmp_path / "c.bin", cloud)
    write_cloud(tmp_path / "c2.bin", read_cloud(tmp_path / "c.bin"))
    assert (tmp_path / "c.bin").read_bytes() == (tmp_path / "c2.bin").read_bytes()

    poses = []
    for _ in range(8):
        angle = rng.uniform(-3, 3)
        c, s = math.cos(angle), math.sin(angle)
        poses.append(RigidTransform(np.array([[c, 0, -s], [0, 1, 0], [s, 0, c]]), rng.normal(size=3)))
    write_poses(tmp_path / "p.txt", poses)
    write_poses(tmp_path / "p2.txt", read_poses(tmp_path / "p.txt"))
    assert (tmp_path / "p.txt").read_bytes() == (tmp_path / "p2.txt").read_bytes()

    from lidarpgt.dataset import Calibration

    calib = Calibration(kitti_lidar_to_camera(), CameraIntrinsics(512.5, 511.75, 400.0, 150.0, 800, 320))
    write_calib(tmp_path / "calib.txt", calib)
    write_calib(tmp_path / "calib2.txt", read_calib(tmp_path / "calib.txt"))
    assert (tmp_path / "calib.txt").read_bytes() == (tmp_path / "calib2.txt").read_bytes()

    depth = (rng.random((40, 60)) * 40).astype(np.float32).astype(float)
    write_raster(tmp_path / "d.bin", depth)
    write_raster(tmp_path / "d2.bin", read_depth(tmp_path / "d.bin"))
    assert (tmp_path / "d.bin").read_bytes() == (tmp_path / "d2.bin").read_bytes()

    flow = rng.normal(size=(40, 60, 2)).astype(np.float32).astype(float)
    write_raster(tmp_path / "f.bin", flow)
    write_raster(tmp_path / "f2.bin", read_flow(tmp_path / "f.bin"))
    assert (tmp_path / "f.bin").read_bytes() == (tmp_path / "f2.bin").read_bytes()

    records = []
    for _ in range(25):
        h = rng.uniform(1.0, 2.2)
        box = Obb3(
            (rng.uniform(-8, 8), rng.uniform(-1, 2), rng.uniform(5, 40)),
            (rng.uniform(0.4, 2.2), h, rng.uniform(0.3, 5.0)),
            rng.uniform(-math.pi, math.pi),
            CAMERA,
        )
        records.append(
            LabelRecord(
                cls=str(rng.choice(["Car", "Pedestrian", "Cyclist", "Van"])),
                box=box,
                bbox2d=AABB2((1.0, 2.0), (301.0, 202.0)),
                score=float(rng.random()),
            )
        )
    write_labels(tmp_path / "l.txt", records)
    again = read_labels(tmp_path / "l.txt")
    for a, b in zip(records, again):
        assert a.cls == b.cls
        assert np.abs(a.box.centre - b.box.centre).max() < 1e-6
        assert np.abs(a.box.dims - b.box.dims).max() < 1e-6
        assert abs(a.rotation_y - b.rotation_y) < 1e-6
    _passed(10, "binary reader/writer pairs round-trip bit-exactly; labels within 1e-6")
