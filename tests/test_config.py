import typing

import numpy as np

from lidarpgt import config
from lidarpgt.bev import GridSpec
from lidarpgt.config import load_config
from lidarpgt.geometry import CameraIntrinsics
from lidarpgt.loss import LossConfig
from lidarpgt.pipeline import Anchor, ScorerConfig, default_anchors
from lidarpgt.proposals import DEFAULT_GROUND_MARGIN
from lidarpgt.sampling import SamplerConfig
from lidarpgt.simulate import EgoMotion, SimObject


def test_defaults_are_the_dataclass_defaults():
    cfg = load_config()
    assert cfg.grid == GridSpec()
    assert cfg.sampler == SamplerConfig()
    assert cfg.scorer == ScorerConfig()
    assert cfg.loss == LossConfig()
    assert cfg.ground_margin == DEFAULT_GROUND_MARGIN
    built, expected = cfg.anchors, default_anchors()
    assert [a.name for a in built] == [a.name for a in expected]
    for a, b in zip(built, expected):
        assert np.array_equal(a.dims, b.dims)


def test_reference_scene():
    cfg = load_config()
    scene, seed = cfg.scene, cfg.seed
    assert seed == 0
    assert scene.n_frames == 10 and len(scene.objects) == 8
    assert scene.intrinsics == CameraIntrinsics(500.0, 500.0, 800.0, 187.0, 1600, 448)
    assert scene.ground_extent == (-18.0, 18.0, 4.0, 40.0)
    assert scene.ground_y == 2.55 and scene.ground_density == 40.0
    assert scene.ego.velocity == (0.0, 0.1)
    assert sum(o.is_moving for o in scene.objects) == 6


def test_config_keys_are_read_once_per_dataclass(monkeypatch):
    """Building a config twice evaluates each dataclass's annotations once, and the two agree."""
    calls = []

    def counting(cls):
        calls.append(cls)
        return get_type_hints(cls)

    get_type_hints = typing.get_type_hints
    monkeypatch.setattr(typing, "get_type_hints", counting)
    config._keys.cache_clear()
    user = {"simulate": {"objects": [{"cls": "vehicle", "position": [3.0, 12.0], "velocity": [0.4, 0.45]}]}}
    first, second = load_config(user=user), load_config(user=user)
    assert first.merged == second.merged
    sections = {GridSpec, SamplerConfig, ScorerConfig, LossConfig, Anchor, CameraIntrinsics, EgoMotion, SimObject}
    assert sections <= set(calls)
    assert len(calls) == len(set(calls)), calls
