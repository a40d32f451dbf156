import itertools
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from failsynth import verify
from failsynth.core import FailureType, JointTrace, TrackSet, state_diffs
from failsynth.errors import (InsufficientTrackingError, SchemaError, TransportError,
                              ValidationError)
from failsynth.pipeline import _with_observations, perturb_one
from failsynth.semantic import MockSemanticVerifier, mock_judgment
from failsynth.tracks import (TrackScoreConfig, fit_affine, quantile_sorted,
                              score_tracks)
from failsynth.verify import (VERIFIER_BITS, IdmCalibration, NoisyPredictor, OraclePredictor,
                              VerifierReport, calibrate_idm, calibrate_joints,
                              load_calibrations, predictor_from_spec, save_calibrations,
                              verify_idm, verify_joints, verify_rollout, verify_stream)
from failsynth.world import ArtifactSpec, synthesize_observations


def _static_tracks(m=30, n=20, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.uniform(0, 640, size=(m, 1, 2))
    pts = np.repeat(base, n, axis=1)
    return TrackSet(pts, np.ones((m, n), bool))


class TestQuantile:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1,
                    max_size=200),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_numpy_linear_interpolation(self, xs, q):
        assert quantile_sorted(xs, q) == pytest.approx(
            float(np.quantile(np.array(xs), q, method="linear")), abs=1e-9)

    def test_domain(self):
        with pytest.raises(ValidationError):
            quantile_sorted([], 0.5)
        with pytest.raises(ValidationError):
            quantile_sorted([1.0], 1.5)


class TestTrackScores:
    def test_static_full_visibility_scores_one(self):
        s = score_tracks(_static_tracks())
        for v in (s.s_smooth, s.s_vis, s.s_topo, s.s_global, s.s_pt):
            assert v == pytest.approx(1.0, abs=1e-9)

    def test_rigid_translation(self):
        tr = _static_tracks()
        shift = np.arange(tr.num_frames)[None, :, None] * np.array([2.0, -1.0])
        pts = tr.points + shift
        moved = TrackSet(pts, tr.masks)
        s = score_tracks(moved)
        assert s.s_topo == pytest.approx(1.0, abs=1e-9)
        for t in range(tr.num_frames - 1):
            _, rmse = fit_affine(pts[:, t], pts[:, t + 1])
            assert rmse < 1e-9

    def test_insufficient_visibility_raises(self):
        tr = _static_tracks()
        masks = tr.masks.copy()
        masks[: tr.num_tracks // 2 + 3, ::2] = False  # half the tracks flicker hard
        with pytest.raises(InsufficientTrackingError):
            score_tracks(TrackSet(tr.points, masks))

    def test_too_few_first_frame_tracks_raises(self):
        tr = _static_tracks()
        masks = tr.masks.copy()
        masks[4:, 0] = False
        with pytest.raises(InsufficientTrackingError):
            score_tracks(TrackSet(tr.points, masks), TrackScoreConfig(
                min_track_visibility=0.5, min_visible_fraction=0.0))

    def test_weight_validation(self):
        with pytest.raises(ValidationError):
            TrackScoreConfig(weights=(0.5, 0.5, 0.5, 0.5))

    @pytest.mark.parametrize("artifact,attr", [
        ("jitter_px", "s_smooth"),
        ("flicker_rate", "s_vis"),
        ("topo_warp", "s_topo"),
    ])
    def test_artifact_monotonicity_quick(self, demo, scene, artifact, attr):
        levels = [0.0, 0.1, 1.0, 4.0] if artifact != "flicker_rate" else \
            [0.0, 0.05, 0.2, 0.5]
        means = []
        for lv in levels:
            vals = []
            for seed in range(5):
                ro = synthesize_observations(demo, scene,
                                             ArtifactSpec(**{artifact: lv}),
                                             seed=seed)
                try:
                    vals.append(getattr(score_tracks(ro.tracks), attr))
                except InsufficientTrackingError:
                    vals.append(0.0)
            means.append(np.mean(vals))
        assert all(a >= b - 1e-9 for a, b in zip(means, means[1:]))


class _OffsetPredictor:
    """The true differences plus a fixed offset."""

    def __init__(self, offset):
        self.offset = np.asarray(offset, dtype=float)

    def batch(self, rollout, d, true):
        return true + self.offset


class TestIdm:
    def test_oracle_zero_error(self, demos, calibrations):
        idm, _ = calibrations
        for ro in demos:
            res = verify_idm(ro, OraclePredictor(), idm)
            assert res.q == 0.0 and res.passed

    def test_biased_predictor_fails(self, demos, calibrations):
        idm, _ = calibrations
        biased = _OffsetPredictor([0.05, 0, 0, 0, 0, 0])
        assert not verify_idm(demos[0], biased, idm).passed

    def test_radian_weight_scales_rotation_error(self, demos):
        spun = _OffsetPredictor([0, 0, 0, 0, 0, 1.0])
        calib = IdmCalibration(tau=0.5, tau_raw=0.25, d=4, percentile=0.95,
                               mae_xyz=0, mae_rpy=0, margin=2.0,
                               radian_weight=0.1)
        res = verify_idm(demos[0], spun, calib)
        assert res.q == pytest.approx(0.1)  # 1 rad scaled by 0.1
        assert res.passed

    def test_noisy_calibration_retains_heldout(self, demos):
        pred = NoisyPredictor(sigma_xyz=0.002, sigma_rpy=0.01, seed=1)
        calib = calibrate_idm(demos[:4], pred, margin=2.0)
        assert all(verify_idm(ro, pred, calib).passed for ro in demos[4:])

    def test_noisy_predictor_deterministic(self, demos):
        true = state_diffs(demos[0], 4)
        a = NoisyPredictor(sigma_xyz=0.01, seed=3).batch(demos[0], 4, true)
        b = NoisyPredictor(sigma_xyz=0.01, seed=3).batch(demos[0], 4, true)
        assert np.array_equal(a, b)

    def test_predictor_spec_parsing(self):
        assert isinstance(predictor_from_spec("oracle"), OraclePredictor)
        noisy = predictor_from_spec("noisy:0.01,0.02", seed=9)
        assert (noisy.sigma_xyz, noisy.sigma_rpy) == (0.01, 0.02)
        with pytest.raises(ValueError):
            predictor_from_spec("magic")

    def test_interval_domain(self, demos, calibrations):
        idm, _ = calibrations
        bad = IdmCalibration(tau=idm.tau, tau_raw=idm.tau_raw, d=1000,
                             percentile=0.95, mae_xyz=0, mae_rpy=0, margin=2.0)
        with pytest.raises(ValidationError):
            verify_idm(demos[0], OraclePredictor(), bad)


class TestJoints:
    def test_derivative_hand_values(self):
        q = np.zeros((3, 7))
        q[:, 0] = [0.0, 1.0, 4.0]
        qd, qdd = JointTrace(q).derivatives
        assert qd[1, 0] == pytest.approx(2.0)   # (4 - 0) / 2
        assert qd[0, 0] == pytest.approx(1.0)   # one-sided
        assert qd[2, 0] == pytest.approx(3.0)
        assert qdd[1, 0] == pytest.approx(2.0)  # 4 - 2*1 + 0

    def test_derivatives_are_computed_once_and_read_only(self):
        trace = JointTrace(np.zeros((4, 7)))
        qd, qdd = trace.derivatives
        assert trace.derivatives[0] is qd and trace.derivatives[1] is qdd
        assert not qd.flags.writeable and not qdd.flags.writeable

    def test_too_short_trace_has_no_derivatives(self):
        with pytest.raises(ValidationError, match="3 frames"):
            JointTrace(np.zeros((2, 7))).derivatives

    def test_limit_violation(self, calibrations):
        _, jc = calibrations
        q = np.tile((jc.q_min + jc.q_max) / 2.0, (10, 1))
        q[4, 2] = jc.q_max[2] + 0.1
        violations, ok = verify_joints(JointTrace(q), jc)
        assert not ok
        assert (4, 2, "limit") in violations

    def test_clean_demos_pass(self, demos, calibrations):
        _, jc = calibrations
        for ro in demos:
            _, ok = verify_joints(ro.joints, jc)
            assert ok

    def test_spike_rejected_as_acceleration(self, demos, calibrations, scene):
        _, jc = calibrations
        from failsynth.world import SceneSpec
        ro = demos[0]
        sc = SceneSpec.from_dict(ro.meta["scene"])
        spiked = synthesize_observations(ro, sc, ArtifactSpec(joint_spike=0.5),
                                         seed=0)
        violations, ok = verify_joints(spiked.joints, jc)
        assert not ok
        mid = len(spiked.joints) // 2
        kinds = {(t, kind) for t, j, kind in violations if j == 0}
        assert ("acceleration" in {k for _, k in kinds})
        assert any(abs(t - mid) <= 1 for t, k in kinds if k == "acceleration")


class TestGate:
    def test_table_names_every_pass_bit(self):
        """VERIFIER_BITS holds one report bit per verifier check, each once."""
        names = [f.name for f in fields(VerifierReport)]
        assert list(VERIFIER_BITS.values()) == [
            n for n in names if n.endswith("_pass") or n.startswith("semantic_")]

    def test_conjunction_truth_table(self, monkeypatch):
        """verify_stream retains a candidate exactly when every bit in
        VERIFIER_BITS is set."""
        physical = dict(idm_error=0.0, idm_mae_xyz=0.0, idm_mae_rpy=0.0,
                        joint_violations=(), track_scores=None, track_confident=True)
        for bits in itertools.product([False, True], repeat=len(VERIFIER_BITS)):
            report = dict(zip(VERIFIER_BITS.values(), bits))
            monkeypatch.setattr(verify, "verify_physical", lambda *a: dict(
                physical, **{k: report[k] for k in ("idm_pass", "joint_pass", "track_pass")}))
            # the mock judge reads the outcome and the artifacts it is sent
            rollout = SimpleNamespace(
                id="c", task="t", outcome="fail" if report["semantic_valid_failure"] else "success",
                meta={"artifacts": {} if report["semantic_visual_ok"] else {"jitter_px": 1e3}})
            (_, out), = verify_stream([(rollout, None)], None, None, None,
                                      MockSemanticVerifier())
            assert [getattr(out, bit) for bit in VERIFIER_BITS.values()] == list(bits)
            assert out.retained == all(bits)


class TestCalibrationIO:
    def test_round_trip(self, calibrations, tmp_path):
        idm, jc = calibrations
        path = tmp_path / "calib.json"
        save_calibrations(path, idm, jc, extra={"demos": 6})
        idm2, jc2, extra = load_calibrations(path)
        assert idm2 == idm
        assert np.array_equal(jc2.q_min, jc.q_min)
        assert (jc2.tau_v, jc2.tau_a) == (jc.tau_v, jc.tau_a)
        assert extra == {"demos": 6}

    def test_version_check(self, calibrations, tmp_path):
        import json
        idm, jc = calibrations
        path = tmp_path / "calib.json"
        save_calibrations(path, idm, jc)
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError):
            load_calibrations(path)


    @pytest.mark.parametrize("section, edit", [
        ("idm", lambda d: d.pop("tau")),
        ("idm", lambda d: d.update(tau="0.1")),
        ("idm", lambda d: d.update(d=4.0)),
        ("idm", lambda d: d.update(extra=1)),
        ("joints", lambda d: d.update(q_min=["a"] * 7)),
        ("joints", lambda d: d.update(tau_v=True))],
        ids=["missing-key", "string-number", "float-for-int", "unknown-key",
             "non-numeric-array", "bool-for-float"])
    def test_malformed_field_is_schema_error(self, calibrations, tmp_path,
                                             section, edit):
        import json
        idm, jc = calibrations
        path = tmp_path / "calib.json"
        save_calibrations(path, idm, jc)
        payload = json.loads(path.read_text())
        edit(payload[section])
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError):
            load_calibrations(path)

    @pytest.mark.parametrize("field, limits", [("q_min", [-1.0, -1.0, -1.0]),
                                               ("q_max", [])])
    def test_joint_limits_need_seven_entries(self, calibrations, tmp_path,
                                             field, limits):
        import json
        idm, jc = calibrations
        path = tmp_path / "calib.json"
        save_calibrations(path, idm, jc)
        payload = json.loads(path.read_text())
        payload["joints"][field] = limits
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match=field):
            load_calibrations(path)


class TestVerifyRollout:
    def test_clean_failure_retained(self, demos, calibrations, cfg):
        from failsynth.core import FailureType
        from failsynth.pipeline import perturb_one, _with_observations
        idm, jc = calibrations
        cand, _ = perturb_one(demos[0], cfg, 0, FailureType.translation)
        cand = _with_observations(cand)
        report = verify_rollout(cand, OraclePredictor(), idm, jc,
                                MockSemanticVerifier(), cfg.tracks)
        assert report.retained
        assert report.to_dict()["retained"] is True

    def test_unperturbed_success_rejected_semantically(self, demos, calibrations,
                                                       cfg):
        idm, jc = calibrations
        report = verify_rollout(demos[0], OraclePredictor(), idm, jc,
                                MockSemanticVerifier(), cfg.tracks)
        assert not report.semantic_valid_failure
        assert not report.retained

    def test_insufficient_tracking_blocks_retention(self, demos, calibrations,
                                                    cfg):
        from dataclasses import replace
        idm, jc = calibrations
        ro = demos[0]
        masks = ro.tracks.masks.copy()
        masks[:80, ::2] = False
        broken = replace(ro, tracks=TrackSet(ro.tracks.points, masks),
                         meta={**ro.meta, "outcome_override": None},
                         outcome="fail")
        report = verify_rollout(broken, OraclePredictor(), idm, jc,
                                MockSemanticVerifier(), cfg.tracks)
        assert not report.track_confident
        assert not report.track_pass
        assert not report.retained


class ScriptedJudge:
    """An in-process judge that answers by the mock rule. It is ready only
    once the stream has read ready_after candidates, fails the replies
    numbered in fail (from 1), and asserts one request in flight."""

    def __init__(self, ready_after=0, fail=()):
        self.ready_after, self.fail = ready_after, set(fail)
        self.read = self.received = self.most_pending = 0
        self.in_flight, self.sent = None, []

    def feed(self, candidates):
        for cand in candidates:
            self.read += 1
            yield cand

    def send(self, request):
        assert self.in_flight is None, "a second request in flight"
        self.in_flight = request
        self.sent.append(request["candidate_clip_ref"]["id"])

    def ready(self):
        return self.read >= self.ready_after

    def receive(self):
        request, self.in_flight = self.in_flight, None
        assert request is not None, "no request in flight"
        # the head is popped; with it, read - received entries were pending
        self.most_pending = max(self.most_pending, self.read - self.received)
        self.received += 1
        if self.received in self.fail:
            raise TransportError(f"reply {self.received} failed")
        return mock_judgment(request)


class TestVerifyStream:
    @pytest.fixture(scope="class")
    def candidates(self, demos, cfg):
        """Demos and their failures, each under its own id, tagged by index."""
        fails = [_with_observations(perturb_one(demo, cfg, i, ft)[0])
                 for i, demo in enumerate(demos[:3]) for ft in FailureType]
        pool = [*demos, *fails]
        return [(replace(pool[i % len(pool)], id=f"cand-{i}"), i)
                for i in range(verify.LOOKAHEAD + 8)]

    def _stream(self, candidates, judge, calibrations, cfg):
        idm, jc = calibrations
        return list(verify_stream(judge.feed(candidates), OraclePredictor(), idm, jc,
                                  judge, cfg.tracks))

    @pytest.mark.parametrize("ready_after", [0, 1, 5, 12])
    def test_input_order_one_request_in_flight(self, candidates, calibrations, cfg,
                                               ready_after):
        judge = ScriptedJudge(ready_after=ready_after)
        out = self._stream(candidates[:15], judge, calibrations, cfg)
        assert [tag for tag, _ in out] == list(range(15))
        assert judge.sent == [c.id for c, _ in candidates[:15]]
        assert judge.in_flight is None and judge.received == 15
        assert judge.most_pending == max(ready_after, 1)
        idm, jc = calibrations
        for (cand, _), (_, report) in zip(candidates, out):
            assert report == verify_rollout(cand, OraclePredictor(), idm, jc,
                                            MockSemanticVerifier(), cfg.tracks)
        assert {r.retained for _, r in out} == {True, False}

    def test_at_most_lookahead_plus_one_pending(self, candidates, calibrations, cfg):
        judge = ScriptedJudge(ready_after=10 ** 9)  # never ready
        out = self._stream(candidates, judge, calibrations, cfg)
        assert len(candidates) > verify.LOOKAHEAD + 1
        assert judge.most_pending == verify.LOOKAHEAD + 1
        assert [tag for tag, _ in out] == list(range(len(candidates)))

    def test_transport_error_quarantines_only_its_candidate(self, candidates,
                                                            calibrations, cfg):
        judge = ScriptedJudge(ready_after=4, fail={3})
        out = self._stream(candidates[:8], judge, calibrations, cfg)
        assert [tag for tag, _ in out] == list(range(8))
        assert isinstance(out[2][1], TransportError)
        assert str(out[2][1]) == "reply 3 failed"
        assert all(isinstance(r, verify.VerifierReport) for i, (_, r) in enumerate(out)
                   if i != 2)
        assert judge.received == 8

    def test_verify_rollout_raises_the_transport_error(self, candidates,
                                                       calibrations, cfg):
        idm, jc = calibrations
        with pytest.raises(TransportError, match="reply 1 failed"):
            verify_rollout(candidates[0][0], OraclePredictor(), idm, jc,
                           ScriptedJudge(fail={1}), cfg.tracks)

    def test_physical_check_error_propagates(self, candidates, calibrations, cfg,
                                             monkeypatch):
        check, calls = verify.verify_physical, []

        def breaks_third(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise ValidationError("verifier broke")
            return check(*args, **kwargs)
        monkeypatch.setattr(verify, "verify_physical", breaks_third)
        judge = ScriptedJudge(ready_after=10 ** 9)
        with pytest.raises(ValidationError, match="verifier broke"):
            self._stream(candidates[:8], judge, calibrations, cfg)
        assert judge.read == 3 and judge.received == 0
