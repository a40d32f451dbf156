"""Core trajectory types, keyframe detection, and pose differencing."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError

TWO_PI = 2.0 * math.pi
NUM_JOINTS = 7

POSE_FIELDS = ("x", "y", "z", "roll", "pitch", "yaw")
DELTA_FIELDS = ("dx", "dy", "dz", "droll", "dpitch", "dyaw")


def wrap_angle(a):
    """Map an angle (difference) onto the shortest arc in (-pi, pi].

    Works elementwise on arrays. Without this, finite-difference checks on
    rpy channels see 2*pi spikes at the branch cut.
    """
    return -((-a + math.pi) % TWO_PI - math.pi)


class FailureType(str, Enum):
    translation = "translation"
    weak_close = "weak_close"
    force_open = "force_open"
    delay_close = "delay_close"


# Column order of the two per-step arrays a Rollout holds.
STATE_COLUMNS = POSE_FIELDS + ("gripper",)
ACTION_COLUMNS = DELTA_FIELDS + ("gripper_cmd",)
GRIPPER = 6  # column of the gripper state / command in both arrays
_COLUMNS = {"state": STATE_COLUMNS, "action": ACTION_COLUMNS}


def step_array(rows, kind: str) -> np.ndarray:
    """Read-only float64 copy of per-step "state" or "action" rows, shape (n, 7).

    Every value must be finite and the gripper column (a unitless command:
    1 = fully open, 0 = fully closed) must lie in [0, 1].
    """
    columns = _COLUMNS[kind]
    a = np.array(rows, dtype=float)
    if a.ndim != 2 or a.shape[1] != len(columns):
        raise ValidationError(f"{kind} rows must be (n, {len(columns)}), got {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError(f"non-finite {kind} field")
    g = a[:, GRIPPER]
    bad = (g < 0.0) | (g > 1.0)
    if bad.any():
        raise ValidationError(f"{columns[GRIPPER]} {g[bad][0]} outside [0, 1]")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class JointTrace:
    """Per-frame joint angles, radians; shape (T+1, J) with J = 7."""

    q: np.ndarray

    def __post_init__(self):
        q = np.ascontiguousarray(np.asarray(self.q, dtype=float))
        if q.ndim != 2 or q.shape[1] != NUM_JOINTS:
            raise ValidationError(f"joint trace must be (T+1, {NUM_JOINTS}), got {q.shape}")
        if not np.all(np.isfinite(q)):
            raise ValidationError("non-finite joint angle")
        q.flags.writeable = False
        object.__setattr__(self, "q", q)

    def __len__(self) -> int:
        return self.q.shape[0]


@dataclass(frozen=True)
class TrackSet:
    """M tracked 2D points over T+1 frames, pixels, with visibility masks."""

    points: np.ndarray  # (M, T+1, 2)
    masks: np.ndarray   # (M, T+1) bool

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=float))
        msk = np.ascontiguousarray(np.asarray(self.masks, dtype=bool))
        if pts.ndim != 3 or pts.shape[2] != 2:
            raise ValidationError(f"track points must be (M, T+1, 2), got {pts.shape}")
        if msk.shape != pts.shape[:2]:
            raise ValidationError("mask shape does not match track shape")
        if not np.isfinite(pts).all() and not np.isfinite(pts[msk]).all():
            raise ValidationError("non-finite position on a visible track point")
        pts.flags.writeable = False
        msk.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "masks", msk)

    @property
    def num_tracks(self) -> int:
        return self.points.shape[0]

    @property
    def num_frames(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class Rollout:
    """One manipulation attempt: states, actions, observations, provenance.

    states is a read-only (T+1, 7) float array with columns x y z roll pitch
    yaw gripper (meters, radians, unitless command); actions is a read-only
    (T, 7) float array with columns dx dy dz droll dpitch dyaw gripper_cmd.
    Both are copied and validated by step_array at construction. Every
    observation channel shares the states' timebase. Immutable after
    construction.
    """

    id: str
    task: str
    states: np.ndarray
    actions: np.ndarray
    joints: Optional[JointTrace] = None
    tracks: Optional[TrackSet] = None
    spec: Optional[object] = None  # PerturbationSpec, kept loose to avoid a cycle
    outcome: Optional[str] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "states", step_array(self.states, "state"))
        object.__setattr__(self, "actions", step_array(self.actions, "action"))
        if len(self.states) != len(self.actions) + 1:
            raise ValidationError(
                f"len(states)={len(self.states)} must equal len(actions)+1={len(self.actions) + 1}")
        if len(self.actions) < 1:
            raise ValidationError("rollout needs at least one action")
        n = len(self.states)
        if self.joints is not None and len(self.joints) != n:
            raise ValidationError("joint trace length does not match states")
        if self.tracks is not None and self.tracks.num_frames != n:
            raise ValidationError("track length does not match states")
        if self.outcome not in (None, "success", "fail"):
            raise ValidationError(f"bad outcome {self.outcome!r}")

    @property
    def horizon(self) -> int:
        return len(self.actions)

    def gripper_channel(self) -> np.ndarray:
        return self.states[:, GRIPPER]

    def poses(self) -> np.ndarray:
        return self.states[:, :GRIPPER]


def crossings(channel: Sequence[float], threshold: float) -> list[int]:
    """Indices t where the channel crosses threshold between t-1 and t.

    The returned index is the first sample on the new side of the threshold.
    """
    if not 0.0 < threshold < 1.0:
        raise ValidationError(f"threshold {threshold} outside (0, 1)")
    g = np.asarray(channel, dtype=float)
    if g.size < 2:
        raise ValidationError("need at least 2 samples to detect a crossing")
    side = g >= threshold
    return [int(t) for t in np.nonzero(side[1:] != side[:-1])[0] + 1]


def detect_keyframes(rollout: Rollout, threshold: float = 0.5) -> list[int]:
    """Timesteps where the gripper transitions between open and close."""
    return crossings(rollout.gripper_channel(), threshold)


def state_diff(rollout: Rollout, t: int, d: int) -> np.ndarray:
    """Pose difference states[t+d] - states[t] as a 6-vector.

    Translation components are exact; angles are differenced on the wrapped
    (-pi, pi] branch. Gripper is excluded.
    """
    T = rollout.horizon
    if d < 0 or t < 0 or t + d > T:
        raise ValidationError(f"(t={t}, d={d}) out of range for horizon {T}")
    out = rollout.states[t + d, :GRIPPER] - rollout.states[t, :GRIPPER]
    out[3:] = wrap_angle(out[3:])
    return out


def state_diffs(rollout: Rollout, d: int) -> np.ndarray:
    """state_diff(rollout, t, d) for every t in 0..T-d, stacked (T-d+1, 6)."""
    if not 0 <= d <= rollout.horizon:
        raise ValidationError(f"d={d} out of range for horizon {rollout.horizon}")
    poses = rollout.poses()
    out = poses[d:] - poses[:len(poses) - d]
    out[:, 3:] = wrap_angle(out[:, 3:])
    return out
