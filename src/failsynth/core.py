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


@dataclass(frozen=True)
class EndEffectorState:
    """End-effector pose (meters / radians) plus gripper command state.

    gripper is a unitless command in [0, 1]: 1 = fully open, 0 = fully closed.
    """

    x: float
    y: float
    z: float
    roll: float
    pitch: float
    yaw: float
    gripper: float

    def __post_init__(self):
        vals = (self.x, self.y, self.z, self.roll, self.pitch, self.yaw, self.gripper)
        if not all(math.isfinite(v) for v in vals):
            raise ValidationError("non-finite end-effector state field")
        if not 0.0 <= self.gripper <= 1.0:
            raise ValidationError(f"gripper {self.gripper} outside [0, 1]")

    def pose(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z, self.roll, self.pitch, self.yaw])

    def as_tuple(self) -> tuple:
        return (self.x, self.y, self.z, self.roll, self.pitch, self.yaw, self.gripper)


@dataclass(frozen=True)
class Action:
    """Per-step end-effector delta plus absolute gripper command."""

    dx: float
    dy: float
    dz: float
    droll: float
    dpitch: float
    dyaw: float
    gripper_cmd: float

    def __post_init__(self):
        vals = (self.dx, self.dy, self.dz, self.droll, self.dpitch, self.dyaw,
                self.gripper_cmd)
        if not all(math.isfinite(v) for v in vals):
            raise ValidationError("non-finite action field")
        if not 0.0 <= self.gripper_cmd <= 1.0:
            raise ValidationError(f"gripper_cmd {self.gripper_cmd} outside [0, 1]")

    def deltas(self) -> np.ndarray:
        return np.array([self.dx, self.dy, self.dz, self.droll, self.dpitch, self.dyaw])

    def as_tuple(self) -> tuple:
        return (self.dx, self.dy, self.dz, self.droll, self.dpitch, self.dyaw,
                self.gripper_cmd)


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
        if not np.all(np.isfinite(pts[msk])):
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

    Invariant: len(states) == len(actions) + 1, and every observation channel
    shares that timebase. Immutable after construction; safe to share across
    workers.
    """

    id: str
    task: str
    states: Sequence[EndEffectorState]
    actions: Sequence[Action]
    joints: Optional[JointTrace] = None
    tracks: Optional[TrackSet] = None
    spec: Optional[object] = None  # PerturbationSpec, kept loose to avoid a cycle
    outcome: Optional[str] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "actions", tuple(self.actions))
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
        return np.array([s.gripper for s in self.states])

    def poses(self) -> np.ndarray:
        return np.array([(s.x, s.y, s.z, s.roll, s.pitch, s.yaw) for s in self.states])

    def check_step_bound(self, max_step: float) -> None:
        """Reject per-step deltas beyond the configured magnitude bound."""
        for i, a in enumerate(self.actions):
            if np.max(np.abs(a.deltas())) > max_step:
                raise ValidationError(f"action {i} exceeds max step {max_step}")


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
    a = rollout.states[t].pose()
    b = rollout.states[t + d].pose()
    out = b - a
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
