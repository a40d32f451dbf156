"""Failure injection: edits action sequences around a grasp keyframe.

Injectors only touch the action channel; states/tracks/joints of the input
rollout are left alone and must be regenerated by re-simulation. Every
injector records its exact parameters in a PerturbationSpec so the paired
fix label can be generated deterministically, and so that re-applying the
spec to the original rollout reproduces the perturbed actions bit-exactly.
"""

from __future__ import annotations

import logging
from typing import Annotated, Optional

import numpy as np

from .core import GRIPPER, GRIPPER_THRESHOLD, FailureType, Range, Record, Rollout, step_array
from .errors import ValidationError

log = logging.getLogger(__name__)
OFFSET_CAP = 0.05  # m, the largest |offset_x| or |offset_y| a translation draw keeps


class PerturbationSpec(Record):
    """Exact injected parameters for one synthesized failure.

    keyframe is the action index at which the scripted closure begins (one
    before the state-side crossing index). Only the fields relevant to
    failure_type are set; the rest stay None.
    """

    failure_type: FailureType
    keyframe: Annotated[int, Range(0)]
    window: Annotated[int, Range(1)] = 5
    delay_steps: Optional[Annotated[int, Range(0)]] = None
    strength_scale: Optional[Annotated[float, Range(0, 1, lo_open=True)]] = None
    invert: bool = False
    offset_x: Optional[Annotated[float, Range(-1, 1)]] = None  # m
    offset_y: Optional[Annotated[float, Range(-1, 1)]] = None
    sigma: Optional[Annotated[float, Range(0, 1, lo_open=True)]] = None
    seed: Optional[Annotated[int, Range(0)]] = None

    def __post_init__(self):
        ft = FailureType(self.failure_type)
        object.__setattr__(self, "failure_type", ft)
        required = {
            FailureType.delay_close: ("delay_steps",),
            FailureType.weak_close: ("strength_scale",),
            FailureType.force_open: (),
            FailureType.translation: ("offset_x", "offset_y", "sigma", "seed"),
        }[ft]
        for name in required:
            if getattr(self, name) is None:
                raise ValidationError(f"{name} is required for a {ft.value} spec")


def ramp_translation(actions: np.ndarray, at: int, window: int, dx: float,
                     dy: float) -> None:
    """Add (dx, dy) to actions in place, spread evenly over rows at-window..at.

    The ramp starts at row 0 when at < window.
    """
    lo = max(0, at - window)
    count = at - lo + 1
    actions[lo:at + 1, 0] += dx / count
    actions[lo:at + 1, 1] += dy / count


def clamp_gripper(actions: np.ndarray, start: int, lo: float, hi: float,
                  fill: float) -> None:
    """Set, in place, every gripper command from row start on that lies
    outside [lo, hi] to fill."""
    g = actions[start:, GRIPPER]
    g[(g < lo) | (g > hi)] = fill


def _require_closing_keyframe(actions: np.ndarray, keyframe: int) -> None:
    n = len(actions)
    if not 0 <= keyframe < n:
        raise ValidationError(f"keyframe {keyframe} outside action range [0, {n})")
    pre = actions[keyframe - 1, GRIPPER] if keyframe > 0 else 1.0
    if not (actions[keyframe, GRIPPER] < GRIPPER_THRESHOLD <= pre):
        raise ValidationError(f"keyframe {keyframe} is not a closing transition")


def apply_perturbation(actions, spec: PerturbationSpec) -> np.ndarray:
    """Re-apply a recorded spec to (T, 7) actions (pure, deterministic).

    Returns a new array; the input is left alone.
    """
    out = step_array(actions, "action").copy()
    n = len(out)
    k, w = spec.keyframe, spec.window
    if not 0 <= k < n:
        raise ValidationError(f"keyframe {k} outside action range [0, {n})")
    ft = spec.failure_type
    g = out[:, GRIPPER]  # a view: edits land in out

    if ft is FailureType.delay_close:
        d = spec.delay_steps
        if k + d >= n:
            raise ValidationError(
                f"delay {d} pushes closure past horizon {n}; extend or reject")
        g[k + d:] = g[k:n - d].copy()
        g[k:k + d] = g[k - 1] if k > 0 else 1.0
        return out

    if ft is FailureType.weak_close:
        s = spec.strength_scale
        g[k:] = 1.0 - s * (1.0 - g[k:])
        return out

    if ft is FailureType.force_open:
        # Invert the closing commands inside the window; already-open steps
        # stay open so the failed rollout contains no closing transition.
        win = g[max(0, k - w):k + w + 1]
        closing = win < GRIPPER_THRESHOLD
        win[closing] = 1.0 - win[closing]
        # No late accidental grasp: clamp any closing command after the
        # window to fully open.
        clamp_gripper(out, k + w + 1, lo=GRIPPER_THRESHOLD, hi=np.inf, fill=1.0)
        return out

    # translation: failure_type is a FailureType, so nothing else is left
    ramp_translation(out, k, w, spec.offset_x, spec.offset_y)
    return out


def inject_delay_close(rollout: Rollout, keyframe: int, delay_steps: int,
                       window: int = PerturbationSpec.window,
                       ) -> tuple[np.ndarray, PerturbationSpec]:
    """Hold the gripper open for delay_steps and shift closure later."""
    _require_closing_keyframe(rollout.actions, keyframe)
    spec = PerturbationSpec(FailureType.delay_close, keyframe, window=window,
                            delay_steps=int(delay_steps))
    return apply_perturbation(rollout.actions, spec), spec


def inject_weak_close(rollout: Rollout, keyframe: int, strength_scale: float,
                      window: int = PerturbationSpec.window) -> tuple[np.ndarray, PerturbationSpec]:
    """Scale closing depth down: cmd' = 1 - scale * (1 - cmd) from keyframe on."""
    _require_closing_keyframe(rollout.actions, keyframe)
    spec = PerturbationSpec(FailureType.weak_close, keyframe, window=window,
                            strength_scale=float(strength_scale))
    return apply_perturbation(rollout.actions, spec), spec


def inject_force_open(rollout: Rollout, keyframe: int, window: int = PerturbationSpec.window,
                      ) -> tuple[np.ndarray, PerturbationSpec]:
    """Invert the gripper command in a window around the keyframe."""
    _require_closing_keyframe(rollout.actions, keyframe)
    spec = PerturbationSpec(FailureType.force_open, keyframe, window=window, invert=True)
    return apply_perturbation(rollout.actions, spec), spec


def draw_translation_offset(sigma: float, seed: int, min_offset: float,
                            max_offset: float) -> tuple[float, float, int]:
    """Draw (offset_x, offset_y) ~ N(0, sigma^2), resampling to the floor.

    Resamples until min_offset <= max(|ox|, |oy|) <= max_offset so the
    injected failure is guaranteed (and stays recoverable). Returns the
    realized offsets plus the number of draws taken.
    """
    if sigma <= 0:
        raise ValidationError("sigma must be > 0 to realize a translation failure")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(3,)))
    draws = 0
    while True:
        ox, oy = rng.normal(0.0, sigma, size=2)
        draws += 1
        if min_offset <= max(abs(ox), abs(oy)) <= max_offset:
            if draws > 1:
                log.debug("translation offset resampled %d times", draws - 1)
            return float(ox), float(oy), draws
        if draws > 10_000:
            raise ValidationError("translation offset resampling did not converge")


def inject_translation(rollout: Rollout, keyframe: int, window: int, sigma: float,
                       seed: int, min_offset: float, max_offset: float = OFFSET_CAP,
                       offsets: Optional[tuple[float, float]] = None,
                       ) -> tuple[np.ndarray, PerturbationSpec]:
    """Ramp a per-rollout x-y offset into the approach before the keyframe.

    The offset is a single draw held after the keyframe, which keeps the
    paired correction expressible as an axis-aligned step count.
    """
    _require_closing_keyframe(rollout.actions, keyframe)
    if offsets is None:
        ox, oy, _ = draw_translation_offset(sigma, seed, min_offset, max_offset)
    else:
        ox, oy = offsets
    spec = PerturbationSpec(FailureType.translation, keyframe, window=window,
                            offset_x=ox, offset_y=oy, sigma=float(sigma),
                            seed=int(seed))
    return apply_perturbation(rollout.actions, spec), spec
