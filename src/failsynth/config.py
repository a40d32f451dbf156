"""Pipeline configuration: every tunable default in one serializable place.

The config hash (sha256 of the canonical JSON form, truncated) is stamped
into every output artifact so datasets and manifests are traceable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import field

from .core import Record
from .rollout_io import read_json
from .semantic import DEFAULT_VISUAL_FLOORS
from .tracks import TrackScoreConfig


class SceneConfig(Record):
    """Sampling ranges for per-rollout scenes."""

    object_x: tuple[float, float] = (0.3, 0.55)
    object_y: tuple[float, float] = (-0.2, 0.2)
    goal_x: tuple[float, float] = (0.3, 0.55)
    goal_y: tuple[float, float] = (-0.2, 0.2)
    min_separation: float = 0.12
    grasp_tolerance: float = 0.01
    attach_strength: float = 0.7
    partial_floor: float = 0.2
    slip_delay: int = 3


class PerturbConfig(Record):
    window: int = 5
    sigma: float = 0.02
    delay_min: int = 4
    delay_max: int = 10
    weak_min: float = 0.3
    weak_max: float = 0.6
    offset_cap: float = 0.05


class VerifierConfig(Record):
    idm_percentile: float = 0.95
    idm_interval: int = 4
    idm_eps: float = 1e-6
    idm_margin: float = 2.0
    radian_weight: float = 0.1
    joint_percentile: float = 0.95
    joint_margin: float = 6.0
    predictor: str = "oracle"
    visual_floors: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_VISUAL_FLOORS))


class LabelConfig(Record):
    bin_size: float = 0.01
    strength_margin: float = 0.1


class PipelineConfig(Record):
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

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


def load_config(path=None, overrides: dict | None = None) -> PipelineConfig:
    """Load a JSON config file (all keys optional) plus CLI overrides."""
    data = read_json(path) if path else {}
    data.update(overrides or {})
    return PipelineConfig.from_dict(data)
