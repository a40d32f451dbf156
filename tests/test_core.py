import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from failsynth.core import (GRIPPER, FailureType, JointTrace, Rollout, TrackSet,
                            detect_keyframes, state_diff, step_array, wrap_angle)
from failsynth.errors import SchemaError, ValidationError
from failsynth.perturb import PerturbationSpec
from failsynth.tracks import PointTrackScores
from failsynth.verify import JointCalibration, VerifierReport
from failsynth.world import CameraSpec, SceneSpec


def _state(x=0.0, y=0.0, z=0.2, roll=0.0, pitch=0.0, yaw=0.0, gripper=1.0):
    return [x, y, z, roll, pitch, yaw, gripper]


def _noop(gripper_cmd=1.0):
    return [0, 0, 0, 0, 0, 0, gripper_cmd]


class TestWrapAngle:
    def test_exact_values(self):
        assert wrap_angle(0.0) == 0.0
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        # -pi maps onto the +pi end of the half-open branch
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
        assert wrap_angle(2 * math.pi) == pytest.approx(0.0)
        assert wrap_angle(math.pi + 0.1) == pytest.approx(-math.pi + 0.1)

    def test_elementwise(self):
        a = np.array([0.0, 4.0, -4.0])
        w = wrap_angle(a)
        assert w.shape == (3,)
        assert np.allclose(np.cos(w), np.cos(a))

    @given(st.floats(min_value=-50.0, max_value=50.0))
    def test_branch_and_equivalence(self, a):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi + 1e-12
        assert math.cos(w) == pytest.approx(math.cos(a), abs=1e-9)
        assert math.sin(w) == pytest.approx(math.sin(a), abs=1e-9)


class TestStateAndAction:
    def test_gripper_bounds(self):
        with pytest.raises(ValidationError):
            step_array([_state(gripper=1.5)], "state")
        with pytest.raises(ValidationError):
            step_array([_noop(-0.1)], "action")
        with pytest.raises(ValidationError):
            Rollout(id="r", task="t", states=[_state(), _state(gripper=1.5)],
                    actions=[_noop()])

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            step_array([_state(x=float("nan"))], "state")
        with pytest.raises(ValidationError):
            step_array([[float("inf"), 0, 0, 0, 0, 0, 1.0]], "action")
        with pytest.raises(ValidationError):
            Rollout(id="r", task="t", states=[_state(), _state()],
                    actions=[[0, 0, float("nan"), 0, 0, 0, 1.0]])

    def test_row_width(self):
        with pytest.raises(ValidationError):
            step_array([_state()[:6]], "state")
        with pytest.raises(ValidationError):
            step_array(_noop(), "action")  # one row, not a list of rows

    def test_pose_and_deltas(self):
        ro = Rollout(id="r", task="t",
                     states=[_state(x=1, y=2, z=3, roll=0.1, pitch=0.2, yaw=0.3),
                             _state()],
                     actions=[[1, 2, 3, 4, 5, 6, 0.5]])
        assert np.array_equal(ro.poses()[0], [1, 2, 3, 0.1, 0.2, 0.3])
        assert np.array_equal(ro.actions[0, :GRIPPER], [1, 2, 3, 4, 5, 6])
        assert np.array_equal(ro.gripper_channel(), [1.0, 1.0])


class TestRollout:
    def test_length_invariant(self):
        with pytest.raises(ValidationError):
            Rollout(id="r", task="t", states=[_state()], actions=[_noop()])
        with pytest.raises(ValidationError):
            Rollout(id="r", task="t", states=[_state()], actions=[])

    def test_observation_length_checks(self):
        states = [_state(), _state()]
        with pytest.raises(ValidationError):
            Rollout(id="r", task="t", states=states, actions=[_noop()],
                    joints=JointTrace(np.zeros((5, 7))))
        with pytest.raises(ValidationError):
            Rollout(id="r", task="t", states=states, actions=[_noop()],
                    tracks=TrackSet(np.zeros((3, 5, 2)), np.ones((3, 5), bool)))

    def test_bad_outcome(self):
        with pytest.raises(ValidationError):
            Rollout(id="r", task="t", states=[_state(), _state()],
                    actions=[_noop()], outcome="maybe")

    def test_immutability(self):
        rows = np.array([_state(), _state()])
        ro = Rollout(id="r", task="t", states=rows, actions=[_noop()])
        with pytest.raises(AttributeError):
            ro.id = "other"
        with pytest.raises(ValueError):
            ro.states[0, 0] = 1.0  # read-only
        with pytest.raises(ValueError):
            ro.actions[0, 0] = 1.0
        rows[0, 0] = 5.0  # the rollout holds its own copy
        assert ro.states[0, 0] == 0.0
        assert ro.states.dtype == np.float64


class TestJointTraceAndTracks:
    def test_joint_shape(self):
        with pytest.raises(ValidationError):
            JointTrace(np.zeros((4, 6)))
        jt = JointTrace(np.zeros((4, 7)))
        assert len(jt) == 4
        with pytest.raises(ValueError):
            jt.q[0, 0] = 1.0  # read-only

    def test_track_shapes(self):
        with pytest.raises(ValidationError):
            TrackSet(np.zeros((3, 5, 3)), np.ones((3, 5), bool))
        with pytest.raises(ValidationError):
            TrackSet(np.zeros((3, 5, 2)), np.ones((3, 4), bool))

    def test_non_finite_only_on_visible(self):
        pts = np.zeros((3, 5, 2))
        masks = np.ones((3, 5), bool)
        pts[1, 2] = np.nan
        with pytest.raises(ValidationError):
            TrackSet(pts, masks)
        masks[1, 2] = False  # invisible points may carry garbage
        TrackSet(pts, masks)


def _keyframes(channel):
    """detect_keyframes of a rollout whose gripper column is channel."""
    return detect_keyframes(Rollout(id="r", task="t",
                                    states=[_state(gripper=g) for g in channel],
                                    actions=[_noop()] * (len(channel) - 1)))


class TestCrossings:
    def test_single_closing(self):
        assert _keyframes([1.0, 1.0, 0.0, 0.0]) == [2]

    def test_multiple(self):
        assert _keyframes([1.0, 0.0, 1.0]) == [1, 2]

    def test_none(self):
        assert _keyframes([1.0, 1.0]) == []

    def test_boundary_sample_counts_as_open_side(self):
        # g == threshold (0.5) sits on the >= side, so the crossing lands one later
        assert _keyframes([1.0, 0.5, 0.0]) == [2]
        assert _keyframes([0.4, 0.5]) == [1]


class TestKeyframesAndDiff:
    def test_scripted_demo_has_one_closing_keyframe(self, demo):
        kfs = detect_keyframes(demo)
        assert len(kfs) == 1
        g = demo.gripper_channel()
        assert g[kfs[0] - 1] >= 0.5 > g[kfs[0]]
        # the crossing state follows the first closing action
        assert demo.actions[kfs[0] - 1, GRIPPER] < 0.5

    def test_state_diff_matches_sum_of_deltas(self, demo):
        d = state_diff(demo, 3, 4)
        total = sum((demo.actions[i, :GRIPPER] for i in range(3, 7)),
                    np.zeros(6))
        assert np.allclose(d[:3], total[:3], atol=1e-12)

    def test_state_diff_wraps_angles(self):
        a = _state(yaw=math.pi - 0.05)
        b = _state(yaw=-math.pi + 0.05)
        ro = Rollout(id="r", task="t", states=[a, b],
                     actions=[[0, 0, 0, 0, 0, 0.1, 1.0]])
        d = state_diff(ro, 0, 1)
        assert d[5] == pytest.approx(0.1, abs=1e-12)

    def test_state_diff_range_check(self, demo):
        with pytest.raises(ValidationError):
            state_diff(demo, demo.horizon, 1)



class TestRecordCodec:
    """The field-driven JSON codec every record dataclass shares."""

    SCENE = SceneSpec(object_pos=(0.4, 0.1, 0.02), goal_pos=(0.5, -0.1, 0.02), seed=3)

    def test_to_dict_gives_json_values(self):
        d = self.SCENE.to_dict()
        assert list(d) == ["object_pos", "goal_pos", "grasp_tolerance", "attach_strength",
                           "partial_floor", "slip_delay", "camera", "seed"]
        assert d["object_pos"] == [0.4, 0.1, 0.02]
        assert d["camera"]["position"] == [0.45, 0.0, 0.95]
        spec = PerturbationSpec(FailureType.weak_close, 7, strength_scale=0.5)
        assert type(spec.to_dict()["failure_type"]) is str
        scores = PointTrackScores(1.0, 0.9, 0.8, 0.7, 0.6)
        report = VerifierReport("r", True, True, 0.1, True, 0.01, 0.02, False,
                                ((3, 1, "limit"),), scores, True, True, False)
        assert report.to_dict()["joint_violations"] == [[3, 1, "limit"]]
        assert report.to_dict()["track_scores"] == scores.to_dict()
        assert replace(report, track_scores=None).to_dict()["track_scores"] is None
        limits = JointCalibration(q_min=-np.ones(7), q_max=np.ones(7), tau_v=1.0,
                                  tau_a=1.0, p95_v=0.5, p95_a=0.5).to_dict()
        assert limits["q_min"] == [-1.0] * 7 and type(limits["q_min"][0]) is float

    @pytest.mark.parametrize("edit", [
        {"glare": 1}, {"grasp_tolerance": "0.01"}, {"grasp_tolerance": True},
        {"seed": 7.0}, {"object_pos": [0.4, 0.1]}, {"object_pos": [0.4, 0.1, "x"]},
        {"camera": {"fx": 600.0, "zoom": 2}}, {"camera": None}],
        ids=["unknown-key", "string-number", "bool-number", "float-for-int",
             "short-tuple", "string-in-tuple", "nested-unknown-key", "null-object"])
    def test_from_dict_refuses(self, edit):
        with pytest.raises(SchemaError):
            SceneSpec.from_dict(dict(self.SCENE.to_dict(), **edit))

    def test_from_dict_defaults_and_required(self):
        scene = SceneSpec.from_dict({"object_pos": [0.4, 0.1, 0], "goal_pos": [0.5, 0, 0]})
        assert scene.camera == CameraSpec() and scene.seed == 0
        assert scene.object_pos == (0.4, 0.1, 0.0)
        with pytest.raises(SchemaError, match="object_pos"):
            SceneSpec.from_dict({"goal_pos": [0.5, 0, 0]})
