"""failsynth: counterfactual failure synthesis, verification, paired fix
labeling, and closed-loop correction for tabletop manipulation rollouts."""

from .core import (FailureType, JointTrace, Rollout, TrackSet, detect_keyframes,
                   wrap_angle)
from .config import PipelineConfig, load_config
from .errors import (FailSynthError, SchemaError, TransportError,
                     ValidationError)
from .labels import FixLabel, generate_label, parse, serialize
from .perturb import PerturbationSpec, apply_perturbation
from .world import ArtifactSpec, CameraSpec, SceneSpec, resimulate, script_success

__version__ = "0.1.0"

__all__ = [
    "ArtifactSpec", "CameraSpec", "FailSynthError",
    "FailureType", "FixLabel", "JointTrace", "PerturbationSpec", "PipelineConfig",
    "Rollout", "SceneSpec", "SchemaError", "TrackSet", "TransportError",
    "ValidationError", "apply_perturbation", "detect_keyframes", "generate_label",
    "load_config", "parse", "resimulate", "script_success", "serialize",
    "wrap_angle", "__version__",
]
