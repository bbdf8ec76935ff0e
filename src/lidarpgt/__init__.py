"""Pseudo-ground-truth 3D box generation for mobile objects in LiDAR sequences.

The package turns sequences of point clouds, sparse depth, optic flow and ego
poses into oriented-box training targets: candidate pixels are sampled from a
dense box grid, anchor-sized point crops are tracked across frames, boxes are
fitted to every tracked set, and temporal consistency decides which pixels
receive full box supervision. A synthetic scene simulator and a detection
evaluation harness round out the toolkit.
"""

from .bev import BoxCode, BoxGrid, GridSpec, decode_box, encode_box, pillar_centre, rasterize
from .evaluation import average_precision, per_class_accuracy
from .geometry import (
    AABB2,
    CAMERA,
    LIDAR,
    CameraIntrinsics,
    Obb3,
    PointCloud,
    RigidTransform,
    backproject,
    iou_2d,
    kitti_lidar_to_camera,
    project,
    rotated_iou_bev,
    transform_obb,
)
from .loss import LossConfig, balanced_l1, frame_loss
from .pipeline import (
    Anchor,
    FrameWindow,
    PseudoLabel,
    ScorerConfig,
    TrackedPointSets,
    combined_confidence,
    crop_cylinder,
    default_anchors,
    fit_obb,
    generate_pseudo_labels,
    inconsistency_score,
    moving_score,
    select_anchor,
    track_points,
)
from .proposals import heuristic_grid
from .sampling import SamplerConfig, sample_pixels, smooth_confidence, smoothed_confidences

__all__ = [name for name in dir() if not name.startswith("_")]
