"""failsynth: counterfactual failure synthesis, verification, paired fix
labeling, and closed-loop correction for tabletop manipulation rollouts.

The names below load their module on first access (PEP 562), so importing a
light submodule such as ``failsynth.semantic`` does not import numpy.
"""

import importlib

__version__ = "0.1.0"

# exported name -> submodule that defines it
_EXPORTS = {
    "FailureType": "core", "JointTrace": "core", "Rollout": "core",
    "TrackSet": "core", "detect_keyframes": "core", "wrap_angle": "core",
    "PipelineConfig": "config", "load_config": "config",
    "FailSynthError": "errors", "SchemaError": "errors",
    "TransportError": "errors", "ValidationError": "errors",
    "FixLabel": "labels", "generate_label": "labels", "parse": "labels",
    "serialize": "labels",
    "PerturbationSpec": "perturb", "apply_perturbation": "perturb",
    "ArtifactSpec": "world", "CameraSpec": "world", "SceneSpec": "world",
    "resimulate": "world", "script_success": "world",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
