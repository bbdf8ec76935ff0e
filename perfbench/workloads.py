"""Workload definitions: pinned configs, seeded scene layouts and predictor files.

Every command of a workload gets the same explicit config file, with every
`grid`, `sampler`, `scorer`, `loss`, `anchors`, `heuristic` and `simulate`
key spelled out, so a change to the package's built-in defaults cannot shift
the benchmark's scenes. Only the generated files reach the program.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GRID = {
    "x_range": [2.5, 40.0],
    "y_range": [-18.0, 18.0],
    "z_range": [-2.73, 1.27],
    "height": 608,
    "width": 608,
    "stride": 4,
}
SAMPLER = {"confidence_threshold": 0.08, "sample_count": 240, "seed": 0}
SCORER = {
    "score_threshold": 0.08,
    "moving_weight": 0.4,
    "inconsistency_weight": 0.15,
    "k_frames": 3,
}
LOSS = {"alpha": 0.5, "gamma": 1.5}
ANCHOR_DIMS = {
    "pedestrian": [0.45, 1.70, 0.27],
    "cyclist": [0.54, 1.90, 1.75],
    "vehicle": [1.88, 1.63, 4.58],
}
ANCHORS = [{"name": name, "dims": dims} for name, dims in ANCHOR_DIMS.items()]
HEURISTIC = {"ground_margin": 0.3}
INTRINSICS = {"fx": 500.0, "fy": 500.0, "cx": 800.0, "cy": 187.0, "width": 1600, "height": 448}
EGO = {"position": [0.0, 0.0], "heading": 0.0, "velocity": [0.0, 0.1], "yaw_rate": 0.0}
GROUND = {"ground_y": 2.55, "ground_extent": [-18.0, 18.0, 4.0, 40.0]}

# The reference scene: 6 moving and 2 static objects, class-default densities.
_REF_OBJECTS = [
    ("vehicle", (3.17, 22.36), 0.74, (-0.02, 0.86)),
    ("vehicle", (-5.31, 31.27), -0.71, (0.12, -0.87)),
    ("vehicle", (-11.54, 25.10), 0.75, (0.0, -0.90)),
    ("cyclist", (11.73, 19.78), 0.03, (-0.32, 0.36)),
    ("pedestrian", (11.13, 31.00), 0.45, (-0.29, 0.41)),
    ("pedestrian", (-14.35, 14.24), 0.29, (0.27, -0.38)),
    ("vehicle", (13.71, 13.76), 0.45, (0.0, 0.0)),
    ("pedestrian", (-0.42, 16.00), 0.15, (0.0, 0.0)),
]
_CLASS_DENSITY = {"vehicle": 150.0, "pedestrian": 400.0, "cyclist": 400.0}

# Sparse scene: (class, moving) per object, 20 surface points/m^2, sparse ground.
_SPARSE_OBJECTS = (
    [("vehicle", True)] * 6
    + [("cyclist", True)] * 3
    + [("pedestrian", True)] * 3
    + [("vehicle", False)] * 2
    + [("cyclist", False), ("pedestrian", False)]
)
_SPARSE_SPEED = {"vehicle": (0.5, 0.9), "cyclist": (0.3, 0.6), "pedestrian": (0.2, 0.45)}
_SPARSE_DENSITY = 20.0
_SPARSE_FRAMES = 9  # 6 tracking windows
_SPARSE_GROUND_DENSITY = 4.0
# Camera-frame (x, z) region every object centre stays in over the sequence,
# inside the BEV grid and the ground plane with a margin for the footprint.
_REGION = ((-15.0, 15.0), (7.0, 37.0))
_MIN_GAP = 5.5  # metres between object centres at every frame
_SPARSE_LAYOUT_SEED = 0

# Noisy-oracle predictor written as box-grid files.
_CENTRE_SIGMA = 0.15
_DIMS_SPREAD = 0.10
_YAW_SIGMA = 0.05
_OBJECT_CONF = (0.5, 0.95)
_BACKGROUND_CONF = (0.0, 0.05)


def _obj(cls, position, yaw, velocity, density):
    return {
        "cls": cls,
        "position": [float(position[0]), float(position[1])],
        "dims": ANCHOR_DIMS[cls],
        "yaw": float(yaw),
        "velocity": [float(velocity[0]), float(velocity[1])],
        "yaw_rate": 0.0,
        "density": float(density),
    }


def _config(seed: int, n_frames: int, ground_density: float, objects: list) -> dict:
    return {
        "grid": GRID,
        "sampler": SAMPLER,
        "scorer": SCORER,
        "loss": LOSS,
        "anchors": ANCHORS,
        "heuristic": HEURISTIC,
        "simulate": {
            "n_frames": n_frames,
            "seed": seed,
            "intrinsics": INTRINSICS,
            **GROUND,
            "ground_density": ground_density,
            "ego": EGO,
            "objects": objects,
        },
    }


def _ref_config(seed: int) -> dict:
    objects = [
        _obj(cls, pos, yaw, vel, _CLASS_DENSITY[cls]) for cls, pos, yaw, vel in _REF_OBJECTS
    ]
    return _config(seed, 10, 40.0, objects)


def _sparse_layout(rng: np.random.Generator, n_frames: int) -> list:
    """Objects that stay inside the region and apart from each other at every frame.

    Objects are placed one by one; when one finds no free track, the layout
    starts over. The draws come from `rng` alone, so a seed fixes the layout.
    """
    (x0, x1), (z0, z1) = _REGION
    steps = np.arange(n_frames)[:, None]
    while True:
        placed = []  # (cls, start, yaw, velocity, track)
        for cls, moving in _SPARSE_OBJECTS:
            for _ in range(100):
                start = rng.uniform((x0, z0), (x1, z1))
                velocity = np.zeros(2)
                if moving:
                    heading = rng.uniform(-np.pi, np.pi)
                    velocity = rng.uniform(*_SPARSE_SPEED[cls]) * np.array(
                        [np.sin(heading), np.cos(heading)]
                    )
                track = start + steps * velocity
                inside = np.all((track >= (x0, z0)) & (track <= (x1, z1)))
                if inside and all(
                    np.min(np.linalg.norm(track - other, axis=1)) >= _MIN_GAP
                    for *_, other in placed
                ):
                    yaw = rng.uniform(-0.5 * np.pi, 0.5 * np.pi)
                    placed.append((cls, start, yaw, velocity, track))
                    break
            else:
                break
        if len(placed) == len(_SPARSE_OBJECTS):
            return [
                _obj(cls, start, yaw, velocity, _SPARSE_DENSITY)
                for cls, start, yaw, velocity, _ in placed
            ]


def _sparse_config(seed: int) -> dict:
    # Like the reference scene, the layout is fixed and the seed drives the
    # simulated points and the predictor's noise.
    layout = _sparse_layout(np.random.default_rng(_SPARSE_LAYOUT_SEED), _SPARSE_FRAMES)
    return _config(seed, _SPARSE_FRAMES, _SPARSE_GROUND_DENSITY, layout)


def write_oracle_grids(scene: Path, out: Path, seed: int):
    """Per-frame box grids of a noisy-oracle predictor, one `.bin` per frame.

    Each ground-truth box is encoded at its own pixel and its 8 neighbours,
    each with an independently jittered centre, dims, yaw and a confidence in
    U(0.5, 0.95); every other pixel holds background confidence in U(0, 0.05).
    """
    from lidarpgt.bev import BoxGrid, GridSpec, encode_box, pillar_centre
    from lidarpgt.dataset import load_sequence, write_box_grid
    from lidarpgt.errors import OutOfVolume
    from lidarpgt.geometry import LIDAR, transform_obb

    spec = GridSpec(
        x_range=tuple(GRID["x_range"]),
        y_range=tuple(GRID["y_range"]),
        z_range=tuple(GRID["z_range"]),
        height=GRID["height"],
        width=GRID["width"],
        stride=GRID["stride"],
    )
    rng = np.random.default_rng(seed)
    seq = load_sequence(scene)
    cam_to_lidar = seq.calibration.lidar_to_cam.invert()
    out.mkdir(parents=True, exist_ok=True)
    for t in range(seq.n_frames):
        grid = BoxGrid.zeros(spec)
        grid.data[:, :, 7] = rng.uniform(*_BACKGROUND_CONF, (spec.out_rows, spec.out_cols))
        for record in seq.read_labels(t):
            box = transform_obb(record.box, cam_to_lidar, LIDAR)
            try:
                (row, col), _ = encode_box(box, spec)
            except OutOfVolume:
                continue
            for r in range(row - 1, row + 2):
                for c in range(col - 1, col + 2):
                    if not (0 <= r < spec.out_rows and 0 <= c < spec.out_cols):
                        continue
                    centre = box.centre + rng.normal(0.0, _CENTRE_SIGMA, 3)
                    grid.data[r, c, 0:3] = centre - pillar_centre((r, c), spec)
                    grid.data[r, c, 3:6] = box.dims * rng.uniform(
                        1 - _DIMS_SPREAD, 1 + _DIMS_SPREAD, 3
                    )
                    grid.data[r, c, 6] = box.yaw + rng.normal(0.0, _YAW_SIGMA)
                    grid.data[r, c, 7] = rng.uniform(*_OBJECT_CONF)
        write_box_grid(out / f"{t:06d}.bin", grid)


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json and the README."""

    name: str
    make_config: object  # seed -> config dict
    proposals: str  # "heuristic" or "file" (oracle grids written at set-up)
    # Read-side commands after generate; "2d" is left out where objects can
    # leave the image (see README, known defect).
    readers: tuple


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ref-heuristic",
            _ref_config,
            "heuristic",
            ("2d", "loss", "render"),
        ),
        Workload(
            "sparse-file",
            _sparse_config,
            "file",
            ("loss", "render"),
        ),
    )
}


def setup_scene(workload: Workload, seed: int, scene: Path, run_cli) -> None:
    """Write the config, simulate the scene and, for file proposals, the grids.

    `run_cli(argv)` runs one CLI command and raises on failure.
    """
    scene.mkdir(parents=True)
    config = scene / "config.json"
    config.write_text(json.dumps(workload.make_config(seed), indent=1) + "\n")
    run_cli(["simulate", "--config", config, "--seed", seed, "--out", scene / "seq"])
    if workload.proposals == "file":
        write_oracle_grids(scene / "seq", scene / "grids", seed)


def proposals_arg(workload: Workload, scene: Path) -> str:
    if workload.proposals == "file":
        return f"file:{scene / 'grids'}"
    return "heuristic"


def tree_digest(*dirs: Path) -> str:
    """SHA-256 over the relative paths and bytes of every file under `dirs`."""
    h = hashlib.sha256()
    for i, root in enumerate(dirs):
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            h.update(f"{i}/{path.relative_to(root)}\0".encode())
            h.update(path.read_bytes())
    return h.hexdigest()
