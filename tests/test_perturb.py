import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from failsynth.core import GRIPPER, FailureType, detect_keyframes
from failsynth.errors import ValidationError
from failsynth.perturb import (PerturbationSpec, apply_perturbation,
                               draw_translation_offset, inject_delay_close,
                               inject_force_open, inject_translation,
                               inject_weak_close)
from failsynth.world import resimulate


@pytest.fixture(scope="module")
def keyframe(demo):
    return detect_keyframes(demo)[0] - 1  # action index of the closing command


class TestSpec:
    def test_required_fields(self):
        with pytest.raises(ValidationError):
            PerturbationSpec(FailureType.delay_close, keyframe=10)
        with pytest.raises(ValidationError):
            PerturbationSpec(FailureType.translation, keyframe=10, offset_x=0.01)

    def test_dict_round_trip(self):
        spec = PerturbationSpec(FailureType.translation, keyframe=10,
                                offset_x=0.01, offset_y=-0.02, sigma=0.02, seed=7)
        assert PerturbationSpec.from_dict(spec.to_dict()) == spec

    def test_window_floor(self):
        with pytest.raises(ValidationError):
            PerturbationSpec(FailureType.force_open, keyframe=10, window=0)


class TestKeyframePrecondition:
    def test_rejects_non_closing_index(self, demo, keyframe):
        with pytest.raises(ValidationError):
            inject_delay_close(demo, keyframe + 3, 4)
        with pytest.raises(ValidationError):
            inject_weak_close(demo, 0, 0.5)

    def test_rejects_out_of_range(self, demo):
        with pytest.raises(ValidationError):
            inject_force_open(demo, demo.horizon + 5)


class TestDelayClose:
    def test_shifts_closure(self, demo, scene, keyframe):
        actions, spec = inject_delay_close(demo, keyframe, 5)
        cand = resimulate(scene, actions)
        assert detect_keyframes(cand) == [detect_keyframes(demo)[0] + 5]
        assert cand.outcome == "fail"

    @pytest.mark.parametrize("delay", [4, 6, 10])
    def test_fails_for_all_configured_delays(self, demo, scene, keyframe, delay):
        actions, _ = inject_delay_close(demo, keyframe, delay)
        assert resimulate(scene, actions).outcome == "fail"

    def test_zero_delay_is_identity(self, demo, keyframe):
        actions, _ = inject_delay_close(demo, keyframe, 0)
        assert np.array_equal(actions, demo.actions)

    def test_rejects_delay_past_horizon(self, demo, keyframe):
        with pytest.raises(ValidationError):
            inject_delay_close(demo, keyframe, demo.horizon)


class TestWeakClose:
    def test_scales_depth(self, demo, keyframe):
        actions, _ = inject_weak_close(demo, keyframe, 0.4)
        assert actions[keyframe:, GRIPPER] == pytest.approx(
            1.0 - 0.4 * (1.0 - demo.actions[keyframe:, GRIPPER]))
        assert np.array_equal(actions[keyframe:, :GRIPPER],
                              demo.actions[keyframe:, :GRIPPER])
        assert np.array_equal(actions[:keyframe], demo.actions[:keyframe])

    @pytest.mark.parametrize("scale", [0.3, 0.45, 0.6])
    def test_slips_and_fails(self, demo, scene, keyframe, scale):
        actions, _ = inject_weak_close(demo, keyframe, scale)
        assert resimulate(scene, actions).outcome == "fail"

    def test_scale_domain(self, demo, keyframe):
        with pytest.raises(ValidationError):
            inject_weak_close(demo, keyframe, 1.5)


class TestForceOpen:
    def test_no_closing_crossing_remains(self, demo, scene, keyframe):
        actions, _ = inject_force_open(demo, keyframe)
        cand = resimulate(scene, actions)
        assert detect_keyframes(cand) == []
        assert cand.outcome == "fail"

    def test_pre_keyframe_open_commands_untouched(self, demo, keyframe):
        actions, _ = inject_force_open(demo, keyframe)
        assert np.array_equal(actions[:keyframe], demo.actions[:keyframe])


class TestTranslation:
    def test_offset_sums_over_window(self, demo, keyframe):
        actions, spec = inject_translation(demo, keyframe, window=5, sigma=0.02,
                                           seed=9, min_offset=0.01)
        ddx = sum(actions[:, 0]) - sum(demo.actions[:, 0])
        ddy = sum(actions[:, 1]) - sum(demo.actions[:, 1])
        assert ddx == pytest.approx(spec.offset_x, abs=1e-12)
        assert ddy == pytest.approx(spec.offset_y, abs=1e-12)

    def test_misses_grasp(self, demo, scene, keyframe):
        actions, _ = inject_translation(demo, keyframe, window=5, sigma=0.02,
                                        seed=9, min_offset=scene.grasp_tolerance)
        assert resimulate(scene, actions).outcome == "fail"

    def test_gripper_untouched(self, demo, keyframe):
        actions, _ = inject_translation(demo, keyframe, window=5, sigma=0.02,
                                        seed=9, min_offset=0.01)
        assert np.array_equal(actions[:, GRIPPER], demo.actions[:, GRIPPER])


class TestDrawOffset:
    def test_respects_bounds(self):
        for seed in range(30):
            ox, oy, _ = draw_translation_offset(0.02, seed, 0.01, 0.05)
            assert 0.01 <= max(abs(ox), abs(oy)) <= 0.05

    def test_deterministic(self):
        assert draw_translation_offset(0.02, 5, 0.01, 0.05) == \
            draw_translation_offset(0.02, 5, 0.01, 0.05)

    def test_counts_draws(self):
        # a tight accept band forces resampling
        _, _, draws = draw_translation_offset(0.02, 0, 0.049, 0.05)
        assert draws > 1

    def test_sigma_domain(self):
        with pytest.raises(ValidationError):
            draw_translation_offset(0.0, 1, 0.01, 0.05)


class TestReapplication:
    """The recorded spec must reproduce the perturbed actions bit-exactly."""

    def test_all_types_round_trip(self, demo, keyframe):
        cases = [
            inject_delay_close(demo, keyframe, 6),
            inject_weak_close(demo, keyframe, 0.4),
            inject_force_open(demo, keyframe),
            inject_translation(demo, keyframe, window=5, sigma=0.02, seed=3,
                               min_offset=0.01),
        ]
        for actions, spec in cases:
            rebuilt = PerturbationSpec.from_dict(spec.to_dict())
            assert np.array_equal(apply_perturbation(demo.actions, rebuilt), actions)

    @settings(max_examples=30, deadline=None)
    @given(delay=st.integers(min_value=0, max_value=10),
           scale=st.floats(min_value=0.05, max_value=1.0))
    def test_pure_and_deterministic(self, demo, keyframe, delay, scale):
        for spec in (
            PerturbationSpec(FailureType.delay_close, keyframe, delay_steps=delay),
            PerturbationSpec(FailureType.weak_close, keyframe, strength_scale=scale),
        ):
            a = apply_perturbation(demo.actions, spec)
            b = apply_perturbation(demo.actions, spec)
            assert np.array_equal(a, b)
            assert a.shape == demo.actions.shape
