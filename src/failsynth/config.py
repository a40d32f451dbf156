"""Pipeline configuration: every tunable default in one serializable place.

The config hash (sha256 of the canonical JSON form, truncated) is stamped
into every output artifact so datasets and manifests are traceable.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from .errors import SchemaError
from .rollout_io import read_json
from .semantic import DEFAULT_VISUAL_FLOORS
from .tracks import TrackScoreConfig


@dataclass(frozen=True)
class SceneConfig:
    """Sampling ranges for per-rollout scenes."""

    object_x: tuple = (0.3, 0.55)
    object_y: tuple = (-0.2, 0.2)
    goal_x: tuple = (0.3, 0.55)
    goal_y: tuple = (-0.2, 0.2)
    min_separation: float = 0.12
    grasp_tolerance: float = 0.01
    attach_strength: float = 0.7
    partial_floor: float = 0.2
    slip_delay: int = 3


@dataclass(frozen=True)
class PerturbConfig:
    window: int = 5
    sigma: float = 0.02
    delay_min: int = 4
    delay_max: int = 10
    weak_min: float = 0.3
    weak_max: float = 0.6
    offset_cap: float = 0.05


@dataclass(frozen=True)
class VerifierConfig:
    idm_percentile: float = 0.95
    idm_interval: int = 4
    idm_eps: float = 1e-6
    idm_margin: float = 2.0
    radian_weight: float = 0.1
    joint_percentile: float = 0.95
    joint_margin: float = 6.0
    predictor: str = "oracle"
    visual_floors: dict = field(default_factory=lambda: dict(DEFAULT_VISUAL_FLOORS))


@dataclass(frozen=True)
class LabelConfig:
    bin_size: float = 0.01
    strength_margin: float = 0.1


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0
    horizon: int = 60
    semantic_endpoint: str = "mock"
    scene: SceneConfig = field(default_factory=SceneConfig)
    perturb: PerturbConfig = field(default_factory=PerturbConfig)
    verifier: VerifierConfig = field(default_factory=VerifierConfig)
    tracks: TrackScoreConfig = field(default_factory=TrackScoreConfig)
    label: LabelConfig = field(default_factory=LabelConfig)
    cap: int = 3
    delta_k: int = 2

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


_SECTIONS = {c.__name__: c for c in (SceneConfig, PerturbConfig, VerifierConfig,
                                      TrackScoreConfig, LabelConfig)}

# JSON types accepted per annotated field type; tuples and arrays hold numbers.
_NUMBER = (int, float)
_ACCEPTS = {"int": int, "float": _NUMBER, "str": str, "dict": dict,
            "tuple": (list, tuple), "np.ndarray": list}
_NUMBER_LISTS = ("tuple", "np.ndarray")


def _of_type(v, types) -> bool:
    return isinstance(v, types) and not isinstance(v, bool)


def check_type(name: str, v, type_name: str) -> None:
    """SchemaError unless the JSON value v fits the annotated type name."""
    if not _of_type(v, _ACCEPTS[type_name]) or (
            type_name in _NUMBER_LISTS and not all(_of_type(x, _NUMBER) for x in v)):
        raise SchemaError(f"{name} must be of type {type_name}, got {json.dumps(v)}")


def build_from_json(cls, data):
    """Instantiate a dataclass from a JSON object, type-checking every field;
    a field without a default is required."""
    if not isinstance(data, dict):
        raise SchemaError(f"{cls.__name__} must be a JSON object, "
                          f"got {type(data).__name__}")
    fields = dataclasses.fields(cls)
    unknown = set(data) - {f.name for f in fields}
    if unknown:
        raise SchemaError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    missing = [f.name for f in fields if f.name not in data
               and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise SchemaError(f"{cls.__name__} lacks keys: {missing}")
    kwargs = {}
    for f in fields:
        if f.name not in data:
            continue
        v = data[f.name]
        sub = _SECTIONS.get(f.type)
        if sub is not None:
            v = build_from_json(sub, v)
        else:
            check_type(f"{cls.__name__}.{f.name}", v, f.type)
            if isinstance(v, list):
                v = tuple(v)
        kwargs[f.name] = v
    return cls(**kwargs)


def load_config(path=None, overrides: dict | None = None) -> PipelineConfig:
    """Load a JSON config file (all keys optional) plus CLI overrides."""
    data = read_json(path) if path else {}
    data.update(overrides or {})
    return build_from_json(PipelineConfig, data)
