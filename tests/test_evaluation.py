import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidarpgt.errors import BehindCamera
from lidarpgt.evaluation import (
    _BOUNDS_PAD,
    Detection,
    _footprint_bounds,
    _iou_matrix,
    average_precision,
    average_precision_grouped,
    per_class_accuracy,
    project_box_2d,
)
from lidarpgt.geometry import (
    CAMERA,
    LIDAR,
    AABB2,
    CameraIntrinsics,
    Obb3,
    iou_2d,
    kitti_lidar_to_camera,
    project,
    rotated_iou_bev,
)

INTR = CameraIntrinsics(700.0, 700.0, 620.0, 187.0, 1242, 375)


class TestProjectBox2d:
    def test_symmetric_about_principal_point(self):
        box = Obb3((0.0, 0.0, 10.0), (2.0, 1.0, 4.0), 0.0, CAMERA)
        aabb = project_box_2d(box, INTR)
        centre = 0.5 * (aabb.min_corner + aabb.max_corner)
        assert np.allclose(centre, [620.0, 187.0], atol=1e-9)

    def test_perspective_shrinks_with_distance(self):
        near = Obb3((0.0, 0.0, 10.0), (2.0, 1.0, 4.0), 0.3, CAMERA)
        far = Obb3((0.0, 0.0, 20.0), (2.0, 1.0, 4.0), 0.3, CAMERA)
        a = project_box_2d(near, INTR)
        b = project_box_2d(far, INTR)
        assert b.area() < a.area()

    def test_matches_per_vertex_projection(self):
        box = Obb3((0.5, -0.2, 10.0), (2.0, 1.0, 4.0), 0.4, CAMERA)
        uv = project(box.corners(), INTR)
        aabb = project_box_2d(box, INTR)
        assert np.allclose(aabb.min_corner, uv.min(axis=0))
        assert np.allclose(aabb.max_corner, uv.max(axis=0))

    def test_lidar_box_through_extrinsics(self):
        s = kitti_lidar_to_camera()
        cam_box = Obb3((1.0, 0.3, 12.0), (1.8, 1.5, 4.2), 0.2, CAMERA)
        from lidarpgt.geometry import transform_obb

        lidar_box = transform_obb(cam_box, s.invert(), LIDAR)
        a = project_box_2d(cam_box, INTR)
        b = project_box_2d(transform_obb(lidar_box, s, CAMERA), INTR)
        assert np.allclose(a.min_corner, b.min_corner, atol=1e-9)
        assert np.allclose(a.max_corner, b.max_corner, atol=1e-9)

    def test_behind_camera(self):
        box = Obb3((0.0, 0.0, 1.0), (1.0, 1.0, 4.0), 0.0, CAMERA)
        with pytest.raises(BehindCamera):
            project_box_2d(box, INTR)

    def test_clipped_to_image(self):
        box = Obb3((30.0, 0.0, 10.0), (2.0, 1.0, 4.0), 0.0, CAMERA)
        aabb = project_box_2d(box, INTR)
        assert aabb.max_corner[0] <= INTR.width
        assert aabb.min_corner[0] >= 0


def lidar_box(x, y, dims=(2.0, 2.0, 1.5), yaw=0.0):
    return Obb3((x, y, 0.0), dims, yaw, LIDAR)


class TestAveragePrecision:
    def test_perfect_detections(self):
        gts = [lidar_box(5, 0), lidar_box(10, 3)]
        dets = [Detection(b, 0.9) for b in gts]
        assert average_precision(dets, gts, rotated_iou_bev, 0.99) == 1.0

    def test_empty_cases(self):
        assert average_precision([], [], rotated_iou_bev, 0.5) == 1.0
        assert average_precision([Detection(lidar_box(5, 0), 0.5)], [], rotated_iou_bev, 0.5) == 0.0
        assert average_precision([], [lidar_box(5, 0)], rotated_iou_bev, 0.5) == 0.0

    def test_high_conf_hit_low_conf_miss(self):
        gts = [lidar_box(5, 0)]
        dets = [Detection(lidar_box(5, 0), 0.9), Detection(lidar_box(50, 0), 0.1)]
        assert average_precision(dets, gts, rotated_iou_bev, 0.5) == pytest.approx(1.0)

    def test_hand_enumerated_pr_curve(self):
        gts = [lidar_box(5, 0), lidar_box(15, 0)]
        dets = [
            Detection(lidar_box(5, 0), 0.9),     # hit
            Detection(lidar_box(40, 0), 0.8),    # miss
            Detection(lidar_box(15, 0), 0.7),    # hit
        ]
        # PR points: (1, 1/2), (1/2, 1/2), (2/3, 1); all-point AP = 0.5*1 + 0.5*(2/3)
        assert average_precision(dets, gts, rotated_iou_bev, 0.5) == pytest.approx(5.0 / 6.0)

    def test_duplicates_do_not_help(self):
        gts = [lidar_box(5, 0)]
        dets = [Detection(lidar_box(5, 0), 0.9)]
        base = average_precision(dets, gts, rotated_iou_bev, 0.5)
        dets_dup = dets + [Detection(lidar_box(5, 0.2), 0.8)]
        assert average_precision(dets_dup, gts, rotated_iou_bev, 0.5) <= base

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(0)
        gts = [lidar_box(rng.uniform(0, 30), rng.uniform(-10, 10), yaw=rng.uniform(-1, 1)) for _ in range(6)]
        dets = [
            Detection(
                Obb3(g.centre + rng.normal(scale=0.6, size=3) * [1, 1, 0], g.dims, g.yaw + rng.normal(scale=0.2), LIDAR),
                float(rng.random()),
            )
            for g in gts
        ] + [Detection(lidar_box(rng.uniform(0, 30), rng.uniform(-10, 10)), float(rng.random())) for _ in range(3)]
        previous = 1.1
        for thr in np.arange(0.1, 0.75, 0.1):
            ap = average_precision(dets, gts, rotated_iou_bev, thr)
            assert ap <= previous + 1e-12
            previous = ap

    def test_invariant_under_monotone_confidence_transform(self):
        rng = np.random.default_rng(1)
        gts = [lidar_box(rng.uniform(0, 30), rng.uniform(-10, 10)) for _ in range(5)]
        dets = [
            Detection(Obb3(g.centre + [0.3, 0, 0], g.dims, g.yaw, LIDAR), float(rng.uniform(0.1, 0.9)))
            for g in gts
        ]
        base = average_precision(dets, gts, rotated_iou_bev, 0.3)
        squashed = [Detection(d.box, d.confidence**3) for d in dets]
        assert average_precision(squashed, gts, rotated_iou_bev, 0.3) == pytest.approx(base)

    def test_grouped_matches_flat_for_single_frame(self):
        rng = np.random.default_rng(2)
        gts = [lidar_box(rng.uniform(0, 30), rng.uniform(-10, 10)) for _ in range(4)]
        dets = [Detection(Obb3(g.centre + [0.2, 0.1, 0], g.dims, g.yaw, LIDAR), float(rng.random())) for g in gts]
        flat = average_precision(dets, gts, rotated_iou_bev, 0.4)
        grouped = average_precision_grouped({"f0": dets}, {"f0": gts}, rotated_iou_bev, 0.4)
        assert grouped == pytest.approx(flat)

    def test_grouped_does_not_match_across_frames(self):
        g = lidar_box(5, 0)
        det = Detection(lidar_box(5, 0), 0.9)
        ap = average_precision_grouped({"f0": [det], "f1": []}, {"f0": [], "f1": [g]}, rotated_iou_bev, 0.5)
        assert ap == 0.0


class TestPerClassAccuracy:
    def test_perfect(self):
        gts = [(lidar_box(5, 0), "Car"), (lidar_box(15, 5), "Pedestrian")]
        dets = [Detection(b, 0.9) for b, _ in gts]
        acc = per_class_accuracy(dets, gts, rotated_iou_bev, 0.5)
        assert acc == {"Car": 1.0, "Pedestrian": 1.0}

    def test_no_detections(self):
        gts = [(lidar_box(5, 0), "Car")]
        assert per_class_accuracy([], gts, rotated_iou_bev, 0.5) == {"Car": 0.0}

    def test_absent_classes_omitted(self):
        gts = [(lidar_box(5, 0), "Car")]
        acc = per_class_accuracy([Detection(lidar_box(5, 0), 0.9)], gts, rotated_iou_bev, 0.5)
        assert "Pedestrian" not in acc

    def test_matches_exhaustive_association(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            gts = [
                (lidar_box(rng.uniform(0, 25), rng.uniform(-8, 8), yaw=rng.uniform(-1, 1)),
                 rng.choice(["Car", "Pedestrian", "Cyclist"]))
                for _ in range(3)
            ]
            dets = [
                Detection(
                    Obb3(
                        gts[rng.integers(0, 3)][0].centre + rng.normal(scale=1.0, size=3) * [1, 1, 0],
                        (2.0, 2.0, 1.5),
                        rng.uniform(-1, 1),
                        LIDAR,
                    ),
                    float(rng.random()),
                )
                for _ in range(4)
            ]
            threshold = 0.3
            got = per_class_accuracy(dets, gts, rotated_iou_bev, threshold)
            # oracle: explicit greatest-IoU association per detection
            detected = [False] * len(gts)
            for det in dets:
                ious = [rotated_iou_bev(det.box, g) for g, _ in gts]
                j = int(np.argmax(ious))
                if ious[j] >= threshold and ious[j] > 0:
                    detected[j] = True
            expected = {}
            for (g, cls), flag in zip(gts, detected):
                tot, hit = expected.get(cls, (0, 0))
                expected[cls] = (tot + 1, hit + (1 if flag else 0))
            expected = {cls: hit / tot for cls, (tot, hit) in expected.items()}
            assert got == pytest.approx(expected)


class TestEvaluateSequence:
    def test_scores_each_pair_once_and_matches_grouped_ap(self, tmp_path, monkeypatch):
        import collections

        import lidarpgt.evaluation as evaluation
        from lidarpgt.dataset import LabelRecord, read_labels, write_labels

        rng = np.random.default_rng(5)
        det_dir, gt_dir = tmp_path / "dets", tmp_path / "gt"
        det_dir.mkdir()
        gt_dir.mkdir()

        def record(cls, score=None):
            # A 6 m x 6 m patch keeps many pairs overlapping.
            box = Obb3((rng.uniform(-3, 3), 1.0, rng.uniform(10, 16)), (1.8, 1.5, 4.0),
                       rng.uniform(-1, 1), CAMERA)
            return LabelRecord(cls=cls, box=box, score=score)

        n_pairs = 0
        for frame, (n_gt, n_det) in enumerate([(3, 4), (2, 0), (0, 2), (4, 3)]):
            write_labels(gt_dir / f"{frame:06d}.txt", [record(("Car", "Cyclist")[j % 2]) for j in range(n_gt)])
            write_labels(det_dir / f"{frame:06d}.txt", [record("Mobile", float(rng.random())) for _ in range(n_det)])
            n_pairs += n_gt * n_det

        frames = sorted(p.stem for p in gt_dir.glob("*.txt"))
        modes = {
            # mode: (IoU function name, label record -> box, box -> (lo, hi) bounds)
            "bev": ("rotated_iou_bev", lambda r: r.box,
                    lambda box: (box.footprint().min(axis=0), box.footprint().max(axis=0))),
            "2d": ("iou_2d", lambda r: project_box_2d(r.box, INTR),
                   lambda box: (box.min_corner, box.max_corner)),
        }
        for mode, (name, to_box, bounds) in modes.items():
            iou_fn = getattr(evaluation, name)
            key = lambda box: np.array(bounds(box)).tobytes()
            calls = []

            def counting_iou(a, b):
                calls.append((key(a), key(b)))
                return iou_fn(a, b)

            def meet(a, b):
                (lo_a, hi_a), (lo_b, hi_b) = bounds(a), bounds(b)
                return all(lo_b[k] - hi_a[k] <= 1e-6 and lo_a[k] - hi_b[k] <= 1e-6 for k in (0, 1))

            monkeypatch.setattr(evaluation, name, counting_iou)
            thresholds = [0.1, 0.3, 0.5, 0.7]
            report = evaluation.evaluate_sequence(det_dir, gt_dir, mode, thresholds, INTR)
            monkeypatch.setattr(evaluation, name, iou_fn)

            dets = {f: [Detection(to_box(r), r.score) for r in read_labels(det_dir / f"{f}.txt")] for f in frames}
            gts = {f: [to_box(r) for r in read_labels(gt_dir / f"{f}.txt")] for f in frames}
            # once for each pair whose bounds meet within 1e-6 on both axes, never for another
            meeting = collections.Counter(
                (key(d.box), key(g)) for f in frames for d in dets[f] for g in gts[f] if meet(d.box, g)
            )
            assert 0 < sum(meeting.values()) < n_pairs, mode
            assert collections.Counter(calls) == meeting, mode
            for t in thresholds:
                assert report.mean_ap[t] == average_precision_grouped(dets, gts, iou_fn, t), (mode, t)

    def test_2d_box_behind_camera_is_an_unmatched_gt(self, tmp_path):
        from lidarpgt.dataset import LabelRecord, write_labels
        from lidarpgt.evaluation import evaluate_sequence

        front = Obb3((1.0, 1.0, 15.0), (1.6, 1.5, 3.9), 0.2, CAMERA)
        behind = Obb3((2.0, 1.8, 0.5), (1.6, 1.5, 3.9), 0.0, CAMERA)
        with pytest.raises(BehindCamera):
            project_box_2d(behind, INTR)
        det_dir, gt_dir = tmp_path / "dets", tmp_path / "gt"
        det_dir.mkdir()
        gt_dir.mkdir()
        write_labels(det_dir / "000000.txt", [LabelRecord("Car", front, score=0.9)])
        maps = []
        for gts in ([front], [front, behind]):
            write_labels(gt_dir / "000000.txt", [LabelRecord("Car", box) for box in gts])
            report = evaluate_sequence(det_dir, gt_dir, mode="2d", thresholds=[0.5], intrinsics=INTR)
            maps.append(report.mean_ap[0.5])
        assert maps == [1.0, 0.5]


# How far a second box's facing bound lies beyond a first box's bound `edge`,
# moving away from it in direction `way` (+1 or -1); "overlap" reaches back
# into the first box by `depth`.
GAPS = {
    "touch": lambda edge, way, depth: edge,
    "1 ulp apart": lambda edge, way, depth: np.nextafter(edge, way * np.inf),
    "1 ulp overlap": lambda edge, way, depth: np.nextafter(edge, -way * np.inf),
    "1e-9": lambda edge, way, depth: edge + way * 1e-9,
    "pad": lambda edge, way, depth: edge + way * _BOUNDS_PAD,
    "pad + 1 ulp": lambda edge, way, depth: np.nextafter(edge + way * _BOUNDS_PAD, way * np.inf),
    "pad - 1 ulp": lambda edge, way, depth: np.nextafter(edge + way * _BOUNDS_PAD, -way * np.inf),
    "overlap": lambda edge, way, depth: edge - way * depth,
}


def _footprint_with_bound(target, axis, way, dims, yaw, across):
    """A lidar box whose footprint's lowest (way +1) or highest (way -1)
    coordinate on `axis` is `target`, to the ulp where some centre gives it;
    its centre on the other axis is `across`."""
    centre = np.zeros(3)
    centre[1 - axis] = across
    extreme = (lambda fp: fp[:, axis].min()) if way > 0 else (lambda fp: fp[:, axis].max())
    centre[axis] = target - (extreme(Obb3(centre, dims, yaw, LIDAR).footprint()) - centre[axis])
    for _ in range(8):
        box = Obb3(centre, dims, yaw, LIDAR)
        bound = extreme(box.footprint())
        if bound == target:
            break
        centre[axis] = np.nextafter(centre[axis], np.inf if bound < target else -np.inf)
    return box


def _aabb_with_bound(target, axis, way, size, lo_across, size_across):
    lo, hi = np.zeros(2), np.zeros(2)
    lo[axis], hi[axis] = (target, target + size) if way > 0 else (target - size, target)
    lo[1 - axis], hi[1 - axis] = lo_across, lo_across + size_across
    return AABB2(lo, hi)


COORD = st.floats(-60.0, 60.0)
SIZE = st.floats(0.2, 8.0)
# 2D sizes include 0: zero-area boxes are written for labels without a 2D box
SIZE_2D = st.one_of(st.just(0.0), st.floats(0.0, 300.0))


class TestIouMatrixBounds:
    """Skipping the pairs whose bounds lie apart changes no IoU, at any gap."""

    @staticmethod
    def assert_same_matrix(first, others, iou_fn, bounds):
        for dets, gts in (([first], others), (others, [first])):
            dets = [Detection(box, 0.5) for box in dets]
            assert np.array_equal(_iou_matrix(dets, gts, iou_fn, bounds), _iou_matrix(dets, gts, iou_fn))

    @settings(max_examples=300, deadline=None)
    @given(
        gap=st.sampled_from(sorted(GAPS)), axis=st.sampled_from([0, 1]), way=st.sampled_from([-1, 1]),
        centre=st.tuples(COORD, COORD), dims=st.tuples(SIZE, SIZE), yaw=st.floats(-math.pi, math.pi),
        other_dims=st.tuples(SIZE, SIZE), other_yaw=st.floats(-math.pi, math.pi),
        depth=st.floats(0.0, 1.0), across=st.floats(-1.0, 1.0),
    )
    def test_bev(self, gap, axis, way, centre, dims, yaw, other_dims, other_yaw, depth, across):
        first = Obb3((*centre, 0.0), (*dims, 1.5), yaw, LIDAR)
        lo, hi = _footprint_bounds(first)
        edge = hi[axis] if way > 0 else lo[axis]
        target = GAPS[gap](edge, way, depth * (hi[axis] - lo[axis]))
        across = centre[1 - axis] + across * (hi[1 - axis] - lo[1 - axis])
        second = _footprint_with_bound(target, axis, way, (*other_dims, 1.5), other_yaw, across)
        self.assert_same_matrix(first, [second, first], rotated_iou_bev, _footprint_bounds)

    @settings(max_examples=300, deadline=None)
    @given(
        gap=st.sampled_from(sorted(GAPS)), axis=st.sampled_from([0, 1]), way=st.sampled_from([-1, 1]),
        lo=st.tuples(st.floats(0.0, 1200.0), st.floats(0.0, 400.0)), size=st.tuples(SIZE_2D, SIZE_2D),
        other_size=SIZE_2D, other_across=SIZE_2D, depth=st.floats(0.0, 1.0), across=st.floats(-1.0, 1.0),
    )
    def test_2d(self, gap, axis, way, lo, size, other_size, other_across, depth, across):
        first = AABB2(lo, np.add(lo, size))
        edge = first.max_corner[axis] if way > 0 else first.min_corner[axis]
        target = GAPS[gap](edge, way, depth * size[axis])
        lo_across = lo[1 - axis] + across * max(size[1 - axis], 1.0)
        second = _aabb_with_bound(target, axis, way, other_size, lo_across, other_across)
        self.assert_same_matrix(first, [second, first], iou_2d, lambda box: (box.min_corner, box.max_corner))
