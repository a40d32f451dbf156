"""Desk-scale surrogate world model.

Stands in for the action-conditioned generative rollout source: scripts
successful pick-and-place demonstrations, re-simulates arbitrary action
sequences with a kinematic attach/detach grasp rule, synthesizes point
tracks and joint traces, and injects controlled artifacts so verifier
rejection paths are testable.

Dynamics are purely kinematic (no forces); the verifiers downstream consume
kinematic signals only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import field
from typing import Annotated

import numpy as np

from .core import (GRIPPER, JointTrace, Range, Record, Rollout, TrackSet, check_order,
                   check_steps, step_array, wrap_angle)
from .errors import CameraError, SceneError, ValidationError

# An x, y and z coordinate inside the reachable workspace, m.
WORKSPACE = (Annotated[float, Range(0.15, 0.75)], Annotated[float, Range(-0.35, 0.35)],
             Annotated[float, Range(0.0, 0.6)])
TABLE_Z = 0.02

# Published Franka 7-DOF joint ranges (radians); overridable via config.
FRANKA_Q_MIN = np.array([-2.8973, -1.7628, -2.8973, -3.0718, -2.8973, -0.0175, -2.8973])
FRANKA_Q_MAX = np.array([2.8973, 1.7628, 2.8973, -0.0698, 2.8973, 3.7525, 2.8973])

# Surrogate joint map, version 1: q = mid + G @ (pose - ref) + amp * sin(C @ pose).
# Gains are sized so every nominal demo sits well inside the limits; the
# calibration stage depends on this map staying fixed.
JOINT_MAP_VERSION = 1
_JOINT_REF_POSE = np.array([0.45, 0.0, 0.15, math.pi - 0.3, 0.0, 0.0])
_JOINT_GAINS = np.array([
    [1.2, 0.8, 0.0, 0.0, 0.0, 0.3],
    [0.9, -1.1, 0.7, 0.0, 0.0, 0.0],
    [-0.6, 1.0, 0.5, 0.0, 0.0, 0.2],
    [0.8, 0.4, -1.3, 0.0, 0.0, 0.0],
    [0.5, -0.7, 0.9, 0.2, 0.0, 0.0],
    [-1.0, 0.6, 0.8, 0.0, 0.2, 0.0],
    [0.7, 1.1, -0.4, 0.0, 0.0, 0.5],
])
_JOINT_COUPLING = np.array([
    [3.0, 2.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 3.0, 2.0, 0.0, 0.0, 0.0],
    [2.0, 0.0, 3.0, 0.0, 0.0, 0.0],
    [1.0, 1.0, 1.0, 0.0, 0.0, 0.0],
    [0.0, 2.0, 1.0, 0.0, 0.0, 0.0],
    [2.0, 1.0, 0.0, 0.0, 0.0, 0.0],
    [1.0, 0.0, 2.0, 0.0, 0.0, 0.0],
])
_JOINT_SIN_AMP = 0.03

GRID_W = 10
GRID_H = 10
# world points of the static desk grid the tracks follow, (GRID_W * GRID_H, 3)
_GRID = np.stack(np.meshgrid(np.linspace(0.2, 0.6, GRID_W), np.linspace(-0.25, 0.25, GRID_H),
                             [TABLE_Z], indexing="ij"), axis=-1).reshape(-1, 3)


class CameraSpec(Record):
    """Static overhead pinhole camera looking straight down at the desk."""

    fx: Annotated[float, Range(0, 1e5, lo_open=True)] = 600.0  # px
    fy: Annotated[float, Range(0, 1e5, lo_open=True)] = 600.0
    cx: Annotated[float, Range(-1e5, 1e5)] = 320.0
    cy: Annotated[float, Range(-1e5, 1e5)] = 240.0
    position: tuple[(Annotated[float, Range(-10.0, 10.0)],) * 3] = (0.45, 0.0, 0.95)  # m

    def project(self, points: np.ndarray) -> np.ndarray:
        """Project (N, 3) world points to (N, 2) pixels."""
        p = np.atleast_2d(np.asarray(points, dtype=float)) - np.asarray(self.position)
        # cam axes: x -> world x, y -> -world y, z -> -world z (looking down)
        x, y, z = p[:, 0], -p[:, 1], -p[:, 2]
        if np.any(z <= 1e-6):
            raise CameraError("point at or behind the camera plane")
        u = self.fx * x / z + self.cx
        v = self.fy * y / z + self.cy
        return np.stack([u, v], axis=1)

    def center(self) -> np.ndarray:
        return np.array([self.cx, self.cy])


class SceneSpec(Record, error=SceneError):
    """Scene geometry, grasp parameters, camera, and the rollout seed."""

    object_pos: tuple[WORKSPACE]
    goal_pos: tuple[WORKSPACE]
    grasp_tolerance: Annotated[float, Range(0, lo_open=True)] = 0.01
    attach_strength: Annotated[float, Range(0, 1, lo_open=True)] = 0.7
    partial_floor: Annotated[float, Range(0, 1, hi_open=True)] = 0.2
    slip_delay: Annotated[int, Range(0)] = 3
    camera: CameraSpec = field(default_factory=CameraSpec)
    seed: Annotated[int, Range(0)] = 0

    def __post_init__(self):
        check_order("partial_floor", self.partial_floor, "attach_strength",
                    self.attach_strength, strict=True, error=SceneError)
        object.__setattr__(self, "object_pos", tuple(map(float, self.object_pos)))
        object.__setattr__(self, "goal_pos", tuple(map(float, self.goal_pos)))

    def start_state(self) -> np.ndarray:
        """Deterministic start state row (see Rollout) from the scene seed; a new array."""
        return np.array(_start_state(int(self.seed)))


@functools.lru_cache(maxsize=1)
def _start_state(seed: int) -> tuple:
    """The start state row of a seed, drawn once per run of rollouts of that seed.

    A stage meets a scene's rollouts one after another (a demo, then its
    candidates), so the last seed asked for is all there is to keep.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    x = 0.35 + rng.uniform(-0.03, 0.03)
    y = 0.0 + rng.uniform(-0.05, 0.05)
    z = 0.28 + rng.uniform(-0.02, 0.02)
    roll = math.pi - 0.3 + rng.uniform(-0.05, 0.05)
    yaw = rng.uniform(-0.2, 0.2)
    return (x, y, z, roll, 0.0, yaw, 1.0)


# The desk grid's pixels under the default camera, which every scene the
# pipeline samples uses. A camera == to it differs at most in the sign of
# position y, which changes no pixel: no grid point has y == 0.
_DEFAULT_CAMERA = CameraSpec()
_DEFAULT_GRID_PX = _DEFAULT_CAMERA.project(_GRID)
_DEFAULT_GRID_PX.flags.writeable = False


class ArtifactSpec(Record):
    """Controlled observation corruptions; all zero means a clean rollout."""

    jitter_px: Annotated[float, Range(0, 1e3)] = 0.0  # px
    flicker_rate: Annotated[float, Range(0, 1)] = 0.0
    topo_warp: Annotated[float, Range(0, 1e3)] = 0.0
    affine_jitter: Annotated[float, Range(0, 1e3)] = 0.0
    joint_spike: Annotated[float, Range(0, 1e3)] = 0.0  # rad


def _near(points: np.ndarray, spot: np.ndarray, tol: float) -> list[bool]:
    """For each row of points, np.linalg.norm(row - spot) <= tol.

    Distances are computed for all rows at once; they may differ from
    norm's in the last bits, so a distance within a relative 1e-12 of tol
    is decided by norm itself.
    """
    dist = np.sqrt(((points - spot) ** 2).sum(axis=1))
    near = dist <= tol
    for i in np.nonzero(np.abs(dist - tol) <= 1e-12 * tol)[0]:
        near[i] = np.linalg.norm(points[i] - spot) <= tol
    return near.tolist()


def _simulate(scene: SceneSpec, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray, str]:
    """Integrate validated (T, 7) actions kinematically with the attach/slip rule.

    Returns the read-only (T+1, 7) states, checked by check_steps, the
    (T+1, 3) object trajectory and the outcome.
    """
    if len(actions) == 0:
        raise ValidationError("empty action sequence")
    states = np.empty((len(actions) + 1, 7))
    states[0] = scene.start_state()
    states[1:, GRIPPER] = actions[:, GRIPPER]
    np.add.accumulate(np.concatenate([states[:1, :GRIPPER], actions[:, :GRIPPER]]),
                      axis=0, out=states[:, :GRIPPER])
    check_steps(states, "state")
    states.flags.writeable = False
    ee = states[:, :3]
    # The object rests at its start position (row 0) or where the gripper
    # carried it last (row t >= 1 of ee); where[t] is that row at step t.
    spots = np.concatenate([np.asarray(scene.object_pos, dtype=float)[None], ee[1:]])
    where = [0]
    near, near_spot = None, None  # which ee rows are within reach of spots[near_spot]
    attached = None  # None | "partial" | "full"
    slip_left = 0
    for t, depth in enumerate((1.0 - actions[:, GRIPPER]).tolist(), start=1):
        if attached is None:
            if depth >= scene.partial_floor:
                if near_spot != where[-1]:
                    near_spot = where[-1]
                    near = _near(ee, spots[near_spot], scene.grasp_tolerance)
                if near[t]:
                    attached = "full" if depth >= scene.attach_strength else "partial"
                    slip_left = scene.slip_delay
        else:
            if depth < scene.partial_floor:
                attached = None  # released; object stays where it is
            elif depth >= scene.attach_strength:
                attached = "full"
            else:
                if attached == "full":
                    attached = "partial"
                    slip_left = scene.slip_delay
                else:
                    slip_left -= 1
                    if slip_left <= 0:
                        attached = None  # slipped out of the weak grasp
        where.append(t if attached is not None else where[-1])
    obj_traj = spots[where]
    goal = np.asarray(scene.goal_pos, dtype=float)
    ok = np.linalg.norm(obj_traj[-1] - goal) <= scene.grasp_tolerance
    return states, obj_traj, "success" if ok else "fail"


def resimulate(scene: SceneSpec, actions, rollout_id: str = "",
               task: str = "pick-and-place") -> Rollout:
    """Integrate an arbitrary (T, 7) action array from the scene's start state.

    Never fails on the action content: failed grasps are legitimate outputs,
    reported through the outcome field.
    """
    actions = step_array(actions, "action")
    states, _, outcome = _simulate(scene, actions)
    return Rollout._checked(id=rollout_id, task=task, states=states, actions=actions,
                            outcome=outcome, meta={"scene": scene.to_dict()})


def _smooth_profile(n: int) -> np.ndarray:
    """Cosine ease-in/out position fractions, length n+1, from 0 to 1."""
    u = np.linspace(0.0, 1.0, n + 1)
    return (1.0 - np.cos(np.pi * u)) / 2.0


def _trapezoid_profile(n: int, ramp: int = 3) -> np.ndarray:
    """Trapezoidal-speed position fractions, length n+1, from 0 to 1.

    Reaches cruise speed within `ramp` steps so that even a small closure
    delay puts the gripper measurably past the grasp point.
    """
    v = np.array([min(1.0, (i + 1) / ramp, (n - i) / ramp) for i in range(n)])
    pos = np.concatenate([[0.0], np.cumsum(v)])
    return pos / pos[-1]


def script_success(scene: SceneSpec, horizon: int = 60, rollout_id: str = "",
                   task: str = "pick-and-place") -> Rollout:
    """Script a successful approach -> grasp -> transport -> place rollout.

    The gripper crosses 0.5 exactly once (downward); outcome is success by
    construction. Deterministic given the scene seed.
    """
    if horizon < 20:
        raise ValidationError("horizon must be >= 20")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(scene.seed),
                                                       spawn_key=(1,)))
    s0 = scene.start_state()
    p0 = s0[:3]
    obj = np.asarray(scene.object_pos, dtype=float)
    goal = np.asarray(scene.goal_pos, dtype=float)

    n_app = max(6, int(round(0.35 * horizon)))
    dwell = 2
    k_close = n_app + dwell  # action index of the closing command
    n_tr = max(6, int(round(0.35 * horizon)))

    pos = np.empty((horizon + 1, 3))
    prof = _smooth_profile(n_app)[:, None]
    pos[: n_app + 1] = p0 + prof * (obj - p0)
    pos[n_app: k_close + 2] = obj  # dwell + closure, gripper station-keeping
    prof = _trapezoid_profile(n_tr)[:, None]
    pos[k_close + 1: k_close + 2 + n_tr] = obj + prof * (goal - obj)
    pos[k_close + 1 + n_tr:] = goal

    yaw_amp = rng.uniform(0.0, 0.05)
    yaw = s0[5] + yaw_amp * np.sin(np.pi * np.arange(horizon + 1) / horizon)

    actions = np.zeros((horizon, 7))
    actions[:, :3] = pos[1:] - pos[:-1]
    actions[:, 5] = wrap_angle(yaw[1:] - yaw[:-1])
    actions[:, GRIPPER] = 1.0
    actions[k_close:, GRIPPER] = 0.0
    ro = resimulate(scene, actions, rollout_id=rollout_id, task=task)
    if ro.outcome != "success":
        raise SceneError("scripted demonstration did not reach the goal; "
                         "scene geometry is unreachable")
    return ro


def joint_surrogate(poses: np.ndarray) -> np.ndarray:
    """Smooth deterministic map from end-effector poses (N, 6) to 7 joints."""
    rel = np.asarray(poses, dtype=float) - _JOINT_REF_POSE
    mid = (FRANKA_Q_MIN + FRANKA_Q_MAX) / 2.0
    q = mid + rel @ _JOINT_GAINS.T + _JOINT_SIN_AMP * np.sin(np.asarray(poses) @ _JOINT_COUPLING.T)
    return q


def synthesize_observations(rollout: Rollout, scene: SceneSpec,
                            artifacts: ArtifactSpec = ArtifactSpec(),
                            seed: int = 0) -> Rollout:
    """Populate tracks and joints for a rollout produced by this world.

    Tracks are the pinhole projection of a static 10x10 desk-plane grid with
    the object and gripper keypoints substituted into their nearest cells.
    Artifacts are applied afterwards under the given seed.
    """
    cam = scene.camera
    n = len(rollout.states)
    T = n - 1
    _, object_traj, _ = _simulate(scene, rollout.actions)

    base_px = _DEFAULT_GRID_PX if cam == _DEFAULT_CAMERA else cam.project(_GRID)

    ee_px = cam.project(rollout.states[:, :3])
    obj_px = cam.project(object_traj)

    points = np.repeat(base_px[:, None, :], n, axis=1)
    cell_obj = int(np.argmin(np.linalg.norm(base_px - obj_px[0], axis=1)))
    d_ee = np.linalg.norm(base_px - ee_px[0], axis=1)
    d_ee[cell_obj] = np.inf
    cell_ee = int(np.argmin(d_ee))
    points[cell_obj] = obj_px
    points[cell_ee] = ee_px
    masks = np.ones((points.shape[0], n), dtype=bool)

    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(2,)))
    c = cam.center()
    if artifacts.topo_warp > 0:
        scale = 1.0 + artifacts.topo_warp * (np.arange(n) / max(T, 1))
        points = c + scale[None, :, None] * (points - c)
    if artifacts.affine_jitter > 0:
        # frame t >= 1 becomes c + (scale * (p - c)) @ rot.T; draws alternate angle, scale
        ang, grow = (0.05 * artifacts.affine_jitter * rng.standard_normal((T, 2))).T
        cos, sin = np.cos(ang), np.sin(ang)
        rot_t = np.stack([cos, sin, -sin, cos], axis=-1).reshape(T, 2, 2)
        moved = (1.0 + grow)[:, None, None] * (points[:, 1:] - c).transpose(1, 0, 2)
        points[:, 1:] = c + (moved @ rot_t).transpose(1, 0, 2)
    if artifacts.jitter_px > 0:
        points = points + rng.normal(0.0, artifacts.jitter_px, size=points.shape)
    if artifacts.flicker_rate > 0:
        toggles = rng.random((points.shape[0], T)) < artifacts.flicker_rate
        masks[:, 1:] = np.cumsum(toggles, axis=1) % 2 == 0

    q = joint_surrogate(rollout.poses())
    if artifacts.joint_spike > 0:
        q[n // 2, 0] += artifacts.joint_spike

    meta = {**rollout.meta, "artifacts": artifacts.to_dict(), "obs_seed": int(seed),
            "keypoint_cells": [cell_obj, cell_ee]}
    return Rollout._checked(**{**vars(rollout), "tracks": TrackSet(points, masks),
                               "joints": JointTrace(q), "meta": meta})
