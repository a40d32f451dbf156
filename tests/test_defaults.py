"""Each library default of a tunable equals the default config's value, so a
change to the one declaration reaches config-driven and library callers alike."""

import inspect
import typing
from dataclasses import fields

import pytest

from failsynth import labels, metrics, perturb, recovery, verify, world
from failsynth.config import PipelineConfig
from failsynth.errors import ValidationError


def _default(site, name):
    """The default of parameter name of a function, or of field name of a record."""
    if inspect.isclass(site):
        return {f.name: f.default for f in fields(site)}[name]
    return inspect.signature(site).parameters[name].default


# (function or record, its parameter or field, the config key it defaults to)
DEFAULTS = [
    *[(verify.calibrate_idm, name, f"verifier.{key}") for name, key in (
        ("percentile", "idm_percentile"), ("d", "idm_interval"), ("eps", "idm_eps"),
        ("margin", "idm_margin"), ("radian_weight", "radian_weight"))],
    (verify.calibrate_joints, "percentile", "verifier.joint_percentile"),
    (verify.IdmCalibration, "radian_weight", "verifier.radian_weight"),
    (verify.JointCalibration, "percentile", "verifier.joint_percentile"),
    (verify.JointCalibration, "margin", "verifier.joint_margin"),
    (labels.generate_label, "bin_size", "label.bin_size"),
    (labels.generate_label, "attach_strength", "scene.attach_strength"),
    (labels.generate_label, "strength_margin", "label.strength_margin"),
    *[(fn, name, name) for fn in (metrics.correction_acc, metrics.evaluate_record,
                                  metrics.evaluate_dataset) for name in ("cap", "delta_k")],
    *[(fn, "ramp_window", "perturb.window")
      for fn in (recovery.apply_primitives, recovery.replay_with_recovery)],
    *[(fn, "window", "perturb.window") for fn in (
        perturb.inject_delay_close, perturb.inject_weak_close, perturb.inject_force_open)],
    (perturb.PerturbationSpec, "window", "perturb.window"),
    (perturb.inject_translation, "max_offset", "perturb.offset_cap"),
    *[(world.SceneSpec, name, f"scene.{name}")
      for name in ("grasp_tolerance", "attach_strength", "partial_floor", "slip_delay")],
    (world.script_success, "horizon", "horizon"),
]


@pytest.mark.parametrize("site, name, key", DEFAULTS,
                         ids=[f"{site.__name__}.{name}" for site, name, _ in DEFAULTS])
def test_default_is_the_config_default(site, name, key):
    want = PipelineConfig()
    for part in key.split("."):
        want = getattr(want, part)
    got = _default(site, name)
    assert (type(got), got) == (type(want), want)


def test_horizon_floor_is_the_config_floor(scene):
    floor = typing.get_type_hints(PipelineConfig, include_extras=True)["horizon"].__metadata__[0].lo
    with pytest.raises(ValidationError, match=f"horizon must be >= {floor}$"):
        world.script_success(scene, horizon=floor - 1)
    with pytest.raises(ValidationError, match="horizon must lie in"):
        PipelineConfig(horizon=floor - 1)
    assert world.script_success(scene, horizon=floor).horizon == floor
    assert PipelineConfig(horizon=floor).horizon == floor
