"""Pipeline configuration: every tunable default in one serializable place.

Each default is declared once: here, or in world and perturb for the scene's
grasp parameters, the horizon, the perturbation window and the offset cap.
Library defaults in verify, labels, metrics and recovery read this module.
The config hash (sha256 of the canonical JSON form, truncated) is stamped
into every output artifact so datasets and manifests are traceable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import field
from typing import Annotated

from .core import Range, Record, check_order
from .errors import SchemaError
from .perturb import OFFSET_CAP, PerturbationSpec
from .rollout_io import read_json
from .semantic import DEFAULT_VISUAL_FLOORS
from .tracks import TrackScoreConfig
from .world import HORIZON, MIN_HORIZON, WORKSPACE, ArtifactSpec, SceneSpec


class SceneConfig(Record):
    """Sampling ranges for per-rollout scenes."""

    object_x: tuple[(WORKSPACE[0],) * 2] = (0.3, 0.55)  # [lo, hi], m
    object_y: tuple[(WORKSPACE[1],) * 2] = (-0.2, 0.2)
    goal_x: tuple[(WORKSPACE[0],) * 2] = (0.3, 0.55)
    goal_y: tuple[(WORKSPACE[1],) * 2] = (-0.2, 0.2)
    min_separation: Annotated[float, Range(0)] = 0.12
    grasp_tolerance: Annotated[float, Range(0, lo_open=True)] = SceneSpec.grasp_tolerance
    attach_strength: Annotated[float, Range(0, 1, lo_open=True)] = SceneSpec.attach_strength
    partial_floor: Annotated[float, Range(0, 1, hi_open=True)] = SceneSpec.partial_floor
    slip_delay: Annotated[int, Range(0)] = SceneSpec.slip_delay

    def __post_init__(self):
        for n in ("object_x", "object_y", "goal_x", "goal_y"):
            check_order(f"{n}[0]", getattr(self, n)[0], f"{n}[1]", getattr(self, n)[1])
        check_order("partial_floor", self.partial_floor, "attach_strength",
                    self.attach_strength, strict=True)


class PerturbConfig(Record):
    window: Annotated[int, Range(1)] = PerturbationSpec.window
    sigma: Annotated[float, Range(0, 1, lo_open=True)] = 0.02
    delay_min: Annotated[int, Range(0)] = 4
    delay_max: Annotated[int, Range(0)] = 10
    weak_min: Annotated[float, Range(0, 1, lo_open=True)] = 0.3
    weak_max: Annotated[float, Range(0, 1, lo_open=True)] = 0.6
    offset_cap: Annotated[float, Range(0, 1, lo_open=True)] = OFFSET_CAP

    def __post_init__(self):
        check_order("delay_min", self.delay_min, "delay_max", self.delay_max)
        check_order("weak_min", self.weak_min, "weak_max", self.weak_max)


class VerifierConfig(Record):
    idm_percentile: Annotated[float, Range(0, 1)] = 0.95
    idm_interval: Annotated[int, Range(1)] = 4
    idm_eps: Annotated[float, Range(0, lo_open=True)] = 1e-6
    idm_margin: Annotated[float, Range(0)] = 2.0
    radian_weight: Annotated[float, Range(0)] = 0.1
    joint_percentile: Annotated[float, Range(0, 1, lo_open=True)] = 0.95
    joint_margin: Annotated[float, Range(0, lo_open=True)] = 6.0
    predictor: str = "oracle"
    visual_floors: dict[str, Annotated[float, Range(0, lo_open=True)]] = field(
        default_factory=lambda: dict(DEFAULT_VISUAL_FLOORS))

    def __post_init__(self):
        kinds = list(ArtifactSpec.__dataclass_fields__)
        unknown = sorted(self.visual_floors.keys() - set(kinds))
        if unknown:
            raise SchemaError(f"verifier.visual_floors keys {unknown} are no artifact "
                              f"kinds; want some of {kinds}")


class LabelConfig(Record):
    bin_size: Annotated[float, Range(0, 1, lo_open=True)] = 0.01  # m
    strength_margin: Annotated[float, Range(0, 1)] = 0.1


class PipelineConfig(Record):
    seed: Annotated[int, Range(0)] = 0
    horizon: Annotated[int, Range(MIN_HORIZON, 10_000)] = HORIZON
    semantic_endpoint: str = "mock"
    scene: SceneConfig = field(default_factory=SceneConfig)
    perturb: PerturbConfig = field(default_factory=PerturbConfig)
    verifier: VerifierConfig = field(default_factory=VerifierConfig)
    tracks: TrackScoreConfig = field(default_factory=TrackScoreConfig)
    label: LabelConfig = field(default_factory=LabelConfig)
    cap: Annotated[int, Range(1)] = 3
    delta_k: Annotated[int, Range(0)] = 2

    def __post_init__(self):
        check_order("scene.grasp_tolerance", self.scene.grasp_tolerance,
                    "perturb.offset_cap", self.perturb.offset_cap, strict=True)

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


def load_config(path=None, overrides: dict | None = None) -> PipelineConfig:
    """Load a JSON config file (all keys optional) plus CLI overrides."""
    data = read_json(path) if path else {}
    data.update(overrides or {})
    return PipelineConfig.from_dict(data)
