import numpy as np
import pytest

from failsynth.core import GRIPPER, FailureType, detect_keyframes
from failsynth.errors import SchemaError, ValidationError
from failsynth.labels import FixLabel, generate_label
from failsynth.perturb import (inject_delay_close, inject_force_open,
                               inject_translation, inject_weak_close)
from failsynth.recovery import (GripperClose, Reclose, TranslateDelta,
                                apply_primitives, map_to_primitives,
                                replay_with_recovery)
from failsynth.world import resimulate


@pytest.fixture(scope="module")
def keyframe(demo):
    return detect_keyframes(demo)[0] - 1


class TestMapping:
    def test_translation_label(self):
        label = FixLabel(result="FAIL", failure_type=FailureType.translation,
                         stage="pre_grasp", fix_dir_x="-x", fix_n_x=2,
                         fix_dir_y="+y", fix_n_y=3)
        prims = map_to_primitives(label, 0.01, keyframe=20)
        assert prims == [TranslateDelta(dx=-0.02, dy=0.03, at=20)]

    def test_translation_needs_keyframe(self):
        label = FixLabel(result="FAIL", failure_type=FailureType.translation,
                         stage="pre_grasp", fix_dir_x="-x", fix_n_x=2,
                         fix_dir_y="+y", fix_n_y=3)
        with pytest.raises(ValidationError):
            map_to_primitives(label, 0.01)

    def test_zero_translation_rejected(self):
        label = FixLabel(result="FAIL", failure_type=FailureType.translation,
                         stage="pre_grasp", fix_dir_x="+x", fix_n_x=0,
                         fix_dir_y="+y", fix_n_y=0)
        with pytest.raises(SchemaError):
            map_to_primitives(label, 0.01, keyframe=20)

    def test_gripper_label(self):
        label = FixLabel(result="FAIL", failure_type=FailureType.delay_close,
                         stage="grasp", close_at=23, strength=1.0)
        assert map_to_primitives(label, 0.01) == [GripperClose(at=23, strength=1.0)]

    def test_weak_close_adds_reclose(self):
        label = FixLabel(result="FAIL", failure_type=FailureType.weak_close,
                         stage="grasp", close_at=23, strength=0.8)
        prims = map_to_primitives(label, 0.01)
        assert prims[0] == GripperClose(at=23, strength=0.8)
        assert prims[1] == Reclose(at=26, strength=1.0)

    def test_success_label_rejected(self):
        with pytest.raises(SchemaError):
            map_to_primitives(FixLabel(result="SUCCESS"), 0.01)


class TestApplyPrimitives:
    def test_translate_preserves_total_displacement(self, demo):
        prims = [TranslateDelta(dx=0.02, dy=-0.01, at=20)]
        edited = apply_primitives(demo.actions, prims)
        ddx = sum(edited[:, 0]) - sum(demo.actions[:, 0])
        assert ddx == pytest.approx(0.02, abs=1e-12)

    def test_gripper_clamp_from_anchor(self, demo, keyframe):
        prims = [GripperClose(at=keyframe, strength=1.0)]
        edited = apply_primitives(demo.actions, prims)
        assert np.all(edited[keyframe:, GRIPPER] == 0.0)
        assert np.array_equal(edited[:keyframe], demo.actions[:keyframe])

    def test_anchor_bounds(self, demo):
        with pytest.raises(ValidationError):
            apply_primitives(demo.actions, [GripperClose(at=1000, strength=1.0)])


class TestClosedLoop:
    """generate_label -> map_to_primitives -> replay recovers each failure type."""

    def _recover(self, scene, actions, spec, attach_strength):
        label = generate_label(spec, bin_size=0.01,
                               attach_strength=attach_strength)
        prims = map_to_primitives(label, 0.01, keyframe=spec.keyframe)
        _, ok = replay_with_recovery(scene, actions, prims)
        return ok

    def test_translation(self, demo, scene, keyframe):
        actions, spec = inject_translation(demo, keyframe, window=5, sigma=0.02,
                                           seed=11, min_offset=0.01)
        assert resimulate(scene, actions).outcome == "fail"
        assert self._recover(scene, actions, spec, scene.attach_strength)

    def test_delay_close(self, demo, scene, keyframe):
        actions, spec = inject_delay_close(demo, keyframe, 6)
        assert self._recover(scene, actions, spec, scene.attach_strength)

    def test_weak_close(self, demo, scene, keyframe):
        actions, spec = inject_weak_close(demo, keyframe, 0.4)
        assert self._recover(scene, actions, spec, scene.attach_strength)

    def test_force_open(self, demo, scene, keyframe):
        actions, spec = inject_force_open(demo, keyframe)
        assert self._recover(scene, actions, spec, scene.attach_strength)

    def test_sign_flipped_translation_fails(self, demo, scene, keyframe):
        actions, spec = inject_translation(demo, keyframe, window=5, sigma=0.02,
                                           seed=11, min_offset=0.01)
        label = generate_label(spec, bin_size=0.01)
        flipped = FixLabel(
            result="FAIL", failure_type=FailureType.translation,
            stage=label.stage,
            fix_dir_x="+x" if label.fix_dir_x == "-x" else "-x",
            fix_n_x=label.fix_n_x,
            fix_dir_y="+y" if label.fix_dir_y == "-y" else "-y",
            fix_n_y=label.fix_n_y)
        prims = map_to_primitives(flipped, 0.01, keyframe=spec.keyframe)
        _, ok = replay_with_recovery(scene, actions, prims)
        assert not ok
