import importlib
from pathlib import Path

import pytest

from lidarpgt.cli import build_parser
from lidarpgt.dataset import FRAME_FILES

README = Path(__file__).resolve().parents[1] / "README.md"

# the package's exports, by the module that defines each
EXPORTS = {
    "bev": ["BoxGrid", "GridSpec", "encode_box", "pillar_centre", "rasterize"],
    "dataset": ["PseudoLabel"],
    "evaluation": ["average_precision", "per_class_accuracy"],
    "geometry": ["AABB2", "CAMERA", "LIDAR", "CameraIntrinsics", "Obb3", "PointCloud", "RigidTransform", "backproject",
                 "iou_2d", "kitti_lidar_to_camera", "project", "rotated_iou_bev", "transform_obb"],
    "loss": ["LossConfig", "balanced_l1", "frame_loss"],
    "pipeline": ["Anchor", "FrameWindow", "ScorerConfig", "TrackedPointSets", "combined_confidence", "crop_cylinder",
                 "default_anchors", "fit_obb", "generate_pseudo_labels", "inconsistency_score", "moving_score",
                 "select_anchor", "track_points"],
    "proposals": ["heuristic_grid"],
    "sampling": ["SamplerConfig", "sample_pixels", "smooth_confidence", "smoothed_confidences"],
}


def test_library_entry_points_block_runs():
    section = README.read_text().split("## Library entry points", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(README), "exec"), {})


def test_package_exports_are_their_modules_objects():
    import lidarpgt

    names = sorted(name for names in EXPORTS.values() for name in names)
    assert len(names) == 42 and lidarpgt.__all__ == names
    assert set(names) <= set(dir(lidarpgt))
    for module, names in EXPORTS.items():
        for name in names:
            assert getattr(lidarpgt, name) is getattr(importlib.import_module(f"lidarpgt.{module}"), name), name
    star = {}
    exec("from lidarpgt import *", star)
    assert sorted(star.keys() - {"__builtins__"}) == lidarpgt.__all__
    with pytest.raises(AttributeError, match="no_such_name"):
        lidarpgt.no_such_name
    from lidarpgt import simulate  # a submodule, imported by the fallback that the AttributeError leaves

    assert simulate is importlib.import_module("lidarpgt.simulate")


def test_command_line_block_parses():
    section = README.read_text().split("## Command-line usage", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [line.split()[1:] for line in lines if line.startswith("lidarpgt ")]
    assert len(commands) == 6
    for argv in commands:
        build_parser().parse_args(argv)


def test_sequence_layout_block_names_every_frame_kind():
    section = README.read_text().split("## Sequence directory layout", 1)[1]
    block = section.split("```\n", 1)[1].split("```", 1)[0]
    for directory, suffix in FRAME_FILES.values():
        assert f"  {directory}/000000{suffix}" in block, (directory, suffix)
