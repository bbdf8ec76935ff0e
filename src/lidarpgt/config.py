"""One JSON configuration file mirroring every tunable constant.

The defaults are those of the objects the sections build, and
DEFAULTS["simulate"] is the reference scene. A user config file only needs
the keys it overrides; it is the only way to override a default.
"""

from __future__ import annotations

import json
import reprlib
import types
import typing
from dataclasses import asdict, fields, is_dataclass

import numpy as np

from .bev import GridSpec
from .dataset import finite_number, read_json
from .errors import ConfigInvalid
from .loss import LossConfig
from .pipeline import Anchor, ScorerConfig, default_anchors
from .proposals import DEFAULT_GROUND_MARGIN
from .sampling import SamplerConfig
from .simulate import SimConfig


DEFAULTS = {
    "grid": asdict(GridSpec()),
    "sampler": asdict(SamplerConfig()),
    "scorer": asdict(ScorerConfig()),
    "loss": asdict(LossConfig()),
    "anchors": [{"name": a.name, "dims": a.dims.tolist()} for a in default_anchors()],
    "heuristic": {"ground_margin": DEFAULT_GROUND_MARGIN},
    "simulate": {
        "n_frames": 10,
        "seed": 0,
        "intrinsics": {
            "fx": 500.0,
            "fy": 500.0,
            "cx": 800.0,
            "cy": 187.0,
            "width": 1600,
            "height": 448,
        },
        "ground_extent": [-18.0, 18.0, 4.0, 40.0],
        "ego": {"velocity": [0.0, 0.1]},
        "objects": [
            {"cls": "vehicle", "position": [3.17, 22.36], "yaw": 0.74, "velocity": [-0.02, 0.86]},
            {"cls": "vehicle", "position": [-5.31, 31.27], "yaw": -0.71, "velocity": [0.12, -0.87]},
            {"cls": "vehicle", "position": [-11.54, 25.10], "yaw": 0.75, "velocity": [0.0, -0.90]},
            {"cls": "cyclist", "position": [11.73, 19.78], "yaw": 0.03, "velocity": [-0.32, 0.36]},
            {"cls": "pedestrian", "position": [11.13, 31.00], "yaw": 0.45, "velocity": [-0.29, 0.41]},
            {"cls": "pedestrian", "position": [-14.35, 14.24], "yaw": 0.29, "velocity": [0.27, -0.38]},
            {"cls": "vehicle", "position": [13.71, 13.76], "yaw": 0.45},
            {"cls": "pedestrian", "position": [-0.42, 16.00], "yaw": 0.15},
        ],
    },
}

_SCALARS = {
    int: lambda v: isinstance(v, int) and not isinstance(v, bool),
    float: finite_number,
    str: lambda v: isinstance(v, str),
}


def _keys(cls) -> dict:
    """The config keys of a dataclass, with their types."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _construct(cls, path: str, kwargs: dict):
    try:
        return cls(**kwargs)
    except (TypeError, ValueError, ConfigInvalid) as exc:  # TypeError: a key is missing
        raise ConfigInvalid(f"{path}: {exc}") from exc


def _check(hint, path: str, value):
    """`value` checked against `hint`, a type or a {key: type} config object.

    Lists become tuples where the type is a tuple, and config objects become
    the dataclass the type names. Errors name `path` and the offending key.
    """
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if isinstance(hint, dict) or is_dataclass(hint):
        keys = hint if isinstance(hint, dict) else _keys(hint)
        if not isinstance(value, dict):
            raise ConfigInvalid(f"{path}: expected an object, got {reprlib.repr(value)}")
        for key in value:
            if key not in keys:
                raise ConfigInvalid(f"{path}: unknown key {reprlib.repr(key)}")
        checked = {key: _check(keys[key], f"{path}.{key}", v) for key, v in value.items()}
        return checked if isinstance(hint, dict) else _construct(hint, path, checked)
    if origin in (typing.Union, types.UnionType):  # `X | None`
        return None if value is None else _check(args[0], path, value)
    if hint is np.ndarray:  # anchor dims
        hint, origin, args = list[float], list, (float,)
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)) or origin is tuple and len(value) != len(args):
            size = f" of {len(args)}" if origin is tuple else ""
            raise ConfigInvalid(f"{path}: expected a list{size}, got {reprlib.repr(value)}")
        hints = args if origin is tuple else args * len(value)
        items = [_check(h, f"{path}[{i}]", v) for i, (h, v) in enumerate(zip(hints, value))]
        return tuple(items) if origin is tuple else items
    if not _SCALARS[hint](value):
        raise ConfigInvalid(f"{path}: expected {hint.__name__}, got {reprlib.repr(value)}")
    return value


_SECTIONS = {
    "grid": GridSpec,
    "sampler": SamplerConfig,
    "scorer": ScorerConfig,
    "loss": LossConfig,
    "anchors": list[Anchor],
    "heuristic": {"ground_margin": float},
    "simulate": {"seed": int, **_keys(SimConfig)},
}


def _merge(base: dict, override: dict) -> dict:
    """`override` laid over `base`; shares their values, which `_check` only reads."""
    out = dict(base)
    for key, value in override.items():
        both = isinstance(value, dict) and isinstance(base.get(key), dict)
        out[key] = _merge(base[key], value) if both else value
    return out


class Config(typing.NamedTuple):
    """A run's configuration: every section, built and checked."""

    grid: GridSpec
    sampler: SamplerConfig
    scorer: ScorerConfig
    loss: LossConfig
    anchors: list[Anchor]
    ground_margin: float
    scene: SimConfig
    seed: int  # the simulator's
    merged: dict  # the defaults with the config laid over them, as JSON; run.json records it


def load_config(path=None, user=None) -> Config:
    """The defaults, deep-merged with an optional JSON config file, or with `user`, one read from `path`.

    Every section is built and checked here, once, so a bad key fails every
    command, not only the ones that use its section; errors name the file,
    the section and the key.
    """
    if user is None:
        user = {} if path is None else read_json(path)
    if not isinstance(user, dict):
        raise ConfigInvalid(f"{path}: config root must be an object")
    try:
        for name in user:
            if name not in _SECTIONS:
                raise ConfigInvalid(f"unknown config section {reprlib.repr(name)}")
        cfg = _merge(DEFAULTS, user)
        built = {name: _check(hint, name, cfg[name]) for name, hint in _SECTIONS.items()}
        if not built["anchors"]:  # no pixel could get a box
            raise ConfigInvalid("anchors: expected at least one anchor")
        names = [a.name for a in built["anchors"]]
        for i, name in enumerate(names):
            if name in names[:i]:  # results are kept per anchor name
                first = names.index(name)
                raise ConfigInvalid(f"anchors[{i}].name: {reprlib.repr(name)} repeats anchors[{first}].name")
        scene = built["simulate"]
        seed = scene.pop("seed")
        if seed < 0:
            raise ConfigInvalid(f"simulate.seed: expected an integer >= 0, got {reprlib.repr(seed)}")
        return Config(
            built["grid"], built["sampler"], built["scorer"], built["loss"], built["anchors"],
            built["heuristic"]["ground_margin"], _construct(SimConfig, "simulate", scene), seed,
            json.loads(json.dumps(cfg)),
        )
    except ConfigInvalid as exc:
        raise ConfigInvalid(f"{path}: {exc}") from exc
