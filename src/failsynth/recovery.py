"""Closed-loop correction: the deterministic label -> control-primitive
mapping, trajectory editing, and replay scoring."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .config import PerturbConfig
from .core import FailureType, Rollout, step_array
from .errors import SchemaError, ValidationError
from .labels import FixLabel
from .perturb import clamp_gripper, ramp_translation
from .world import SceneSpec, resimulate


@dataclass(frozen=True)
class TranslateDelta:
    dx: float
    dy: float
    at: int


@dataclass(frozen=True)
class GripperClose:
    at: int
    strength: float


@dataclass(frozen=True)
class Reclose:
    at: int
    strength: float


ControlPrimitive = Union[TranslateDelta, GripperClose, Reclose]

RECLOSE_DELAY = 3
RECLOSE_STRENGTH_BUMP = 0.2


def map_to_primitives(label: FixLabel, bin_size: float,
                      keyframe: Optional[int] = None) -> list[ControlPrimitive]:
    """Deterministic conversion from structured fields to control primitives.

    keyframe anchors a translation fix (translation labels carry no temporal
    field of their own).
    """
    if label.result != "FAIL":
        raise SchemaError("only FAIL labels map to corrections")
    if label.is_translation():
        if label.fix_n_x == 0 and label.fix_n_y == 0:
            raise SchemaError("no-op translation correction (both step counts zero)")
        if keyframe is None:
            raise ValidationError("translation correction needs the keyframe anchor")
        sx = 1.0 if label.fix_dir_x == "+x" else -1.0
        sy = 1.0 if label.fix_dir_y == "+y" else -1.0
        return [TranslateDelta(dx=sx * label.fix_n_x * bin_size,
                               dy=sy * label.fix_n_y * bin_size, at=keyframe)]
    prims: list[ControlPrimitive] = [GripperClose(at=label.close_at,
                                                  strength=label.strength)]
    if label.failure_type is FailureType.weak_close:
        prims.append(Reclose(at=label.close_at + RECLOSE_DELAY,
                             strength=min(1.0, label.strength + RECLOSE_STRENGTH_BUMP)))
    return prims


def apply_primitives(actions, primitives: Sequence[ControlPrimitive],
                     ramp_window: int = PerturbConfig.window) -> np.ndarray:
    """Edit (T, 7) actions per the predicted primitives; returns a new array.

    Translation deltas are distributed over the same ramp window the injector
    uses, which keeps recovered rollouts within the kinematic envelope.
    Gripper commands are overwritten (clamped closed) from the anchor on.
    """
    out = step_array(actions, "action").copy()
    n = len(out)
    for prim in primitives:
        if not 0 <= prim.at < n:
            raise ValidationError(f"primitive anchor {prim.at} outside horizon {n}")
        if isinstance(prim, TranslateDelta):
            ramp_translation(out, prim.at, ramp_window, prim.dx, prim.dy)
        else:  # GripperClose / Reclose
            closed = 1.0 - prim.strength
            clamp_gripper(out, prim.at, lo=-np.inf, hi=closed, fill=closed)
    return out


def replay_with_recovery(scene: SceneSpec, failed_actions,
                         primitives: Sequence[ControlPrimitive],
                         ramp_window: int = PerturbConfig.window) -> tuple[Rollout, bool]:
    """Replay the edited trajectory and report the surrogate success bit."""
    edited = apply_primitives(failed_actions, primitives, ramp_window=ramp_window)
    ro = resimulate(scene, edited, rollout_id="recovered")
    return ro, ro.outcome == "success"

