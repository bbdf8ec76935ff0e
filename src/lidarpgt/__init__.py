"""Pseudo-ground-truth 3D box generation for mobile objects in LiDAR sequences.

The package turns sequences of point clouds, sparse depth, optic flow and ego
poses into oriented-box training targets: candidate pixels are sampled from a
dense box grid, anchor-sized point crops are tracked across frames, boxes are
fitted to every tracked set, and temporal consistency decides which pixels
receive full box supervision. A synthetic scene simulator and a detection
evaluation harness round out the toolkit.
"""

from importlib import import_module as _import_module

# each export by its module, imported on first use (`__getattr__`), so that `import lidarpgt` loads no submodule
_EXPORTS = {
    "bev": "BoxGrid GridSpec encode_box pillar_centre rasterize", "dataset": "PseudoLabel",
    "evaluation": "average_precision per_class_accuracy",
    "geometry": "AABB2 CAMERA LIDAR CameraIntrinsics Obb3 PointCloud RigidTransform backproject iou_2d "
                "kitti_lidar_to_camera project rotated_iou_bev transform_obb",
    "loss": "LossConfig balanced_l1 frame_loss",
    "pipeline": "Anchor FrameWindow ScorerConfig TrackedPointSets combined_confidence crop_cylinder "
                "default_anchors fit_obb generate_pseudo_labels inconsistency_score moving_score select_anchor "
                "track_points",
    "proposals": "heuristic_grid",
    "sampling": "SamplerConfig sample_pixels smooth_confidence smoothed_confidences",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
