import math
import random

import numpy as np
import pytest

from failsynth.core import GRIPPER, detect_keyframes
from failsynth.errors import CameraError, SceneError, ValidationError
from failsynth.rollout_io import dumps_rollout
from failsynth.world import (FRANKA_Q_MAX, FRANKA_Q_MIN, ArtifactSpec,
                             CameraSpec, SceneSpec, _smooth_profile,
                             _trapezoid_profile, joint_surrogate, resimulate,
                             script_success, synthesize_observations)


def _start_state_drawn(seed):
    """The start state row drawn from the seed, as on every call before caching."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    x = 0.35 + rng.uniform(-0.03, 0.03)
    y = 0.0 + rng.uniform(-0.05, 0.05)
    z = 0.28 + rng.uniform(-0.02, 0.02)
    roll = math.pi - 0.3 + rng.uniform(-0.05, 0.05)
    yaw = rng.uniform(-0.2, 0.2)
    return np.array([x, y, z, roll, 0.0, yaw, 1.0])


def _scene(**kw):
    defaults = dict(object_pos=(0.5, 0.1, 0.02), goal_pos=(0.35, -0.1, 0.02),
                    seed=42)
    defaults.update(kw)
    return SceneSpec(**defaults)


class TestCamera:
    def test_principal_point(self):
        cam = CameraSpec()
        # a point on the optical axis lands on the principal point
        px = cam.project(np.array([[0.45, 0.0, 0.15]]))
        assert np.allclose(px, [[320.0, 240.0]])

    def test_y_axis_flip(self):
        cam = CameraSpec()
        px = cam.project(np.array([[0.45, 0.1, 0.15]]))
        assert px[0, 1] < 240.0  # +world-y maps to smaller v

    def test_behind_camera(self):
        cam = CameraSpec()
        with pytest.raises(CameraError):
            cam.project(np.array([[0.45, 0.0, 0.95]]))

    def test_dict_round_trip(self):
        cam = CameraSpec(fx=500.0)
        assert CameraSpec.from_dict(cam.to_dict()) == cam


class TestSceneSpec:
    def test_workspace_bounds(self):
        with pytest.raises(SceneError):
            _scene(object_pos=(2.0, 0.0, 0.02))

    @pytest.mark.parametrize("kw", [
        dict(object_pos=(np.nan, 0.0, 0.02)), dict(goal_pos=(0.35, -0.1, np.nan)),
        dict(object_pos=(0.5, 0.1)), dict(object_pos=(0.5, 0.1, 0.02, 0.0)),
        dict(grasp_tolerance=np.nan)],
        ids=["object_pos-nan", "goal_pos-nan", "short", "long", "grasp_tolerance-nan"])
    def test_rejected_scene(self, kw):
        with pytest.raises(SceneError):
            _scene(**kw)

    def test_grasp_params(self):
        with pytest.raises(SceneError):
            _scene(grasp_tolerance=0.0)
        with pytest.raises(SceneError):
            _scene(attach_strength=1.5)
        with pytest.raises(SceneError):
            _scene(partial_floor=0.9)  # must stay below attach_strength

    def test_start_state_deterministic(self):
        s = _scene()
        assert np.array_equal(s.start_state(), s.start_state())
        assert not np.array_equal(_scene(seed=43).start_state(), s.start_state())

    def test_dict_round_trip(self):
        s = _scene()
        assert SceneSpec.from_dict(s.to_dict()) == s

    def test_start_state_equals_a_drawn_one(self):
        """1000 seeds, more than the cache holds, in shuffled order and then
        again, each asked for twice in a row: each start state equals the row
        drawn from its seed, and writing to a returned array changes no later
        one."""
        seeds = [*range(500), *(2 ** 62 - 1 - k for k in range(500))]
        random.Random(7).shuffle(seeds)
        for seed in seeds + seeds[::-3]:
            for _ in range(2):
                got = _scene(seed=seed).start_state()
                assert got.flags.writeable
                assert got.tobytes() == _start_state_drawn(seed).tobytes()
                got[:] = -1.0


class TestArtifactSpec:
    def test_validation(self):
        with pytest.raises(ValidationError):
            ArtifactSpec(jitter_px=-1.0)
        with pytest.raises(ValidationError):
            ArtifactSpec(flicker_rate=1.5)

    def test_dict_round_trip(self):
        a = ArtifactSpec(topo_warp=0.1)
        assert ArtifactSpec.from_dict(a.to_dict()) == a


class TestScriptedDemo:
    def test_outcome_success(self, demo, scene):
        assert demo.outcome == "success"
        final = demo.states[-1, :3]
        assert np.linalg.norm(final - np.asarray(scene.goal_pos)) <= scene.grasp_tolerance

    def test_single_closing_crossing(self, demo):
        assert len(detect_keyframes(demo)) == 1

    def test_deterministic_bytes(self, scene):
        a = script_success(scene, horizon=60, rollout_id="x")
        b = script_success(scene, horizon=60, rollout_id="x")
        assert dumps_rollout(a) == dumps_rollout(b)

    def test_resimulate_round_trip(self, demo, scene):
        again = resimulate(scene, demo.actions, rollout_id=demo.id)
        assert np.array_equal(again.states, demo.states)
        assert again.outcome == "success"

    def test_horizon_floor(self, scene):
        with pytest.raises(ValidationError):
            script_success(scene, horizon=10)


class TestGraspRules:
    def test_weak_grasp_slips(self, demo, scene):
        # closing to depth below attach_strength but above partial_floor
        # carries the object only slip_delay steps
        weak = demo.actions.copy()
        weak[weak[:, GRIPPER] <= 0.5, GRIPPER] = 0.6
        ro = resimulate(scene, weak)
        assert ro.outcome == "fail"

    def test_shallow_close_never_attaches(self, demo, scene):
        shallow = demo.actions.copy()
        shallow[shallow[:, GRIPPER] <= 0.5, GRIPPER] = 0.9
        # depth 0.1 < partial_floor 0.2: no attach at all
        ro = resimulate(scene, shallow)
        assert ro.outcome == "fail"
        assert np.allclose(ro.meta.get("scene", {}).get("object_pos", scene.object_pos),
                           scene.object_pos)

    def test_empty_actions_rejected(self, scene):
        with pytest.raises(ValidationError):
            resimulate(scene, [])


class TestProfiles:
    @pytest.mark.parametrize("prof_fn", [_smooth_profile, _trapezoid_profile])
    def test_monotone_zero_to_one(self, prof_fn):
        p = prof_fn(20)
        assert p[0] == 0.0
        assert p[-1] == pytest.approx(1.0)
        assert np.all(np.diff(p) >= 0)

    def test_trapezoid_reaches_cruise_fast(self):
        p = _trapezoid_profile(20, ramp=3)
        v = np.diff(p)
        assert v[3] == pytest.approx(v[10])  # cruise speed reached by step 3


class TestJointSurrogate:
    def test_within_limits_for_demos(self, demos):
        for ro in demos:
            q = ro.joints.q
            assert np.all(q > FRANKA_Q_MIN) and np.all(q < FRANKA_Q_MAX)

    def test_deterministic(self, demo):
        poses = demo.poses()
        assert np.array_equal(joint_surrogate(poses), joint_surrogate(poses))


class TestObservations:
    def test_clean_shapes_and_masks(self, observed_demo):
        tr = observed_demo.tracks
        assert tr.points.shape == (100, 61, 2)
        assert tr.masks.all()
        assert observed_demo.joints.q.shape == (61, 7)

    def test_static_cells_stay_put(self, observed_demo):
        cells = observed_demo.meta["keypoint_cells"]
        static = np.delete(np.arange(100), cells)
        pts = observed_demo.tracks.points[static]
        assert np.allclose(pts, pts[:, :1], atol=1e-12)

    def test_deterministic_given_seed(self, demo, scene):
        a = synthesize_observations(demo, scene, seed=5)
        b = synthesize_observations(demo, scene, seed=5)
        assert np.array_equal(a.tracks.points, b.tracks.points)
        assert np.array_equal(a.joints.q, b.joints.q)

    def test_jitter_changes_points(self, demo, scene):
        clean = synthesize_observations(demo, scene, seed=5)
        noisy = synthesize_observations(demo, scene, ArtifactSpec(jitter_px=2.0),
                                        seed=5)
        assert not np.allclose(clean.tracks.points, noisy.tracks.points)

    def test_full_flicker_alternates_every_frame(self, demo, scene):
        ro = synthesize_observations(demo, scene, ArtifactSpec(flicker_rate=1.0),
                                     seed=5)
        m = ro.tracks.masks[0].astype(int)
        assert np.all(np.abs(np.diff(m)) == 1)

    def test_joint_spike_at_middle_frame(self, demo, scene):
        clean = synthesize_observations(demo, scene, seed=5)
        spiked = synthesize_observations(demo, scene, ArtifactSpec(joint_spike=0.5),
                                         seed=5)
        diff = spiked.joints.q - clean.joints.q
        n = clean.joints.q.shape[0]
        assert diff[n // 2, 0] == pytest.approx(0.5)
        diff[n // 2, 0] = 0.0
        assert np.all(diff == 0.0)

    def test_topo_warp_scales_over_time(self, demo, scene):
        warped = synthesize_observations(demo, scene, ArtifactSpec(topo_warp=0.1),
                                         seed=5)
        clean = synthesize_observations(demo, scene, seed=5)
        c = scene.camera.center()
        r_clean = np.linalg.norm(clean.tracks.points[:, -1] - c, axis=1)
        r_warp = np.linalg.norm(warped.tracks.points[:, -1] - c, axis=1)
        assert np.allclose(r_warp, 1.1 * r_clean, rtol=1e-9)
