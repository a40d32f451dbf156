"""Verifier suite: dynamics consistency, kinematic safety, semantic checks,
point-track coherence, calibration, and the all-pass retention gate."""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Annotated, Optional, Sequence

import numpy as np

from .core import (NUM_JOINTS, Range, Record, Rollout, JointTrace, decode, read_keys,
                   state_diff, state_diffs)
from .errors import (InsufficientTrackingError, SchemaError, TransportError,
                     ValidationError)
from .rollout_io import read_json, write_json
from .tracks import PointTrackScores, TrackScoreConfig, quantile_sorted, score_tracks
from .world import FRANKA_Q_MAX, FRANKA_Q_MIN

CALIBRATION_FORMAT_VERSION = 1

# Radian components are scaled before the mixed-unit error norm.
DEFAULT_RADIAN_WEIGHT = 0.1


# ---------------------------------------------------------------------------
# state-difference predictors (pluggable; the trained visual IDM is out of scope)
#
# A predictor's batch(rollout, d, true) returns the predicted differences for
# every t in 0..T-d as a (T-d+1, 6) array, given the true ones; calling it as
# predictor(rollout, t, d) predicts one.

class OraclePredictor:
    """Returns the true end-effector state difference."""

    def __call__(self, rollout: Rollout, t: int, d: int) -> np.ndarray:
        return state_diff(rollout, t, d)

    def batch(self, rollout: Rollout, d: int, true: np.ndarray) -> np.ndarray:
        return true


class NoisyPredictor:
    """Oracle plus deterministic per-sample Gaussian noise and optional bias.

    Noise is seeded from (seed, rollout id, t, d) so verification order
    cannot change the result.
    """

    def __init__(self, sigma_xyz: float = 0.0, sigma_rpy: float = 0.0,
                 bias: Optional[Sequence[float]] = None, seed: int = 0):
        self.sigma_xyz = sigma_xyz
        self.sigma_rpy = sigma_rpy
        self.bias = np.zeros(6) if bias is None else np.asarray(bias, dtype=float)
        self.seed = seed

    def _noise(self, rollout_id: str, t: int, d: int) -> np.ndarray:
        key = zlib.crc32(f"{rollout_id}:{t}:{d}".encode())
        rng = np.random.default_rng(np.random.SeedSequence(entropy=self.seed,
                                                           spawn_key=(4, key)))
        return np.concatenate([rng.normal(0.0, self.sigma_xyz, 3),
                               rng.normal(0.0, self.sigma_rpy, 3)])

    def __call__(self, rollout: Rollout, t: int, d: int) -> np.ndarray:
        return state_diff(rollout, t, d) + self.bias + self._noise(rollout.id, t, d)

    def batch(self, rollout: Rollout, d: int, true: np.ndarray) -> np.ndarray:
        noise = np.stack([self._noise(rollout.id, t, d) for t in range(len(true))])
        return true + self.bias + noise


def predictor_from_spec(spec: str, seed: int = 0):
    """"oracle" or "noisy:<sigma_xyz>,<sigma_rpy>", two finite sigmas >= 0.

    Any other spec is a ValidationError naming the config field.
    """
    if spec == "oracle":
        return OraclePredictor()
    if spec.startswith("noisy:"):
        try:
            sx, sr = (float(v) for v in spec[6:].split(","))
        except ValueError:
            sx = sr = math.nan
        if 0.0 <= sx < math.inf and 0.0 <= sr < math.inf:
            return NoisyPredictor(sigma_xyz=sx, sigma_rpy=sr, seed=seed)
        raise ValidationError(f"verifier.predictor {spec!r}: want "
                              "noisy:<sigma_xyz>,<sigma_rpy>, two finite numbers >= 0")
    raise ValidationError(f"verifier.predictor {spec!r}: want oracle or "
                          "noisy:<sigma_xyz>,<sigma_rpy>")


# ---------------------------------------------------------------------------
# IDM verifier

class IdmCalibration(Record):
    """Dynamics-consistency threshold calibrated on success demonstrations.

    tau_raw is the plain pooled percentile; tau adds the configured safety
    margin and epsilon floor actually used by the gate.
    """

    tau: Annotated[float, Range(0, lo_open=True)]
    tau_raw: Annotated[float, Range(0)]
    d: Annotated[int, Range(1)]
    percentile: Annotated[float, Range(0, 1)]
    mae_xyz: Annotated[float, Range(0)]
    mae_rpy: Annotated[float, Range(0)]
    margin: Annotated[float, Range(0)]
    radian_weight: Annotated[float, Range(0)] = DEFAULT_RADIAN_WEIGHT


@dataclass(frozen=True)
class IdmResult:
    errors: np.ndarray
    q: float
    mae_xyz: float
    mae_rpy: float
    passed: bool


def _idm_errors(rollout: Rollout, predictor, d: int,
                radian_weight: float) -> tuple[np.ndarray, np.ndarray]:
    T = rollout.horizon
    if d < 1 or d > T:
        raise ValidationError(f"interval d={d} out of range for horizon {T}")
    w = np.array([1.0, 1.0, 1.0, radian_weight, radian_weight, radian_weight])
    true = state_diffs(rollout, d)
    diffs = predictor.batch(rollout, d, true) - true
    errs = np.linalg.norm(diffs * w, axis=1)
    return errs, diffs


def verify_idm(rollout: Rollout, predictor,
               calib: IdmCalibration) -> IdmResult:
    """Check visually-implied state differences against the conditioning states."""
    errs, diffs = _idm_errors(rollout, predictor, calib.d, calib.radian_weight)
    q = quantile_sorted(errs, calib.percentile)
    return IdmResult(errors=errs, q=q,
                     mae_xyz=float(np.mean(np.abs(diffs[:, :3]))),
                     mae_rpy=float(np.mean(np.abs(diffs[:, 3:]))),
                     passed=bool(q <= calib.tau))


def calibrate_idm(success_rollouts: Sequence[Rollout], predictor,
                  percentile: float = 0.95, d: int = 4, eps: float = 1e-6,
                  margin: float = 2.0,
                  radian_weight: float = DEFAULT_RADIAN_WEIGHT) -> IdmCalibration:
    """Pool per-sample errors over success demos and set the gate threshold."""
    if not success_rollouts:
        raise ValidationError("cannot calibrate on an empty demo set")
    pooled, all_diffs = [], []
    for ro in success_rollouts:
        errs, diffs = _idm_errors(ro, predictor, d, radian_weight)
        pooled.append(errs)
        all_diffs.append(diffs)
    pooled = np.concatenate(pooled)
    diffs = np.concatenate(all_diffs)
    tau_raw = quantile_sorted(pooled, percentile)
    return IdmCalibration(tau=margin * tau_raw + eps, tau_raw=tau_raw, d=d,
                          percentile=percentile,
                          mae_xyz=float(np.mean(np.abs(diffs[:, :3]))),
                          mae_rpy=float(np.mean(np.abs(diffs[:, 3:]))),
                          margin=margin, radian_weight=radian_weight)


# ---------------------------------------------------------------------------
# joint pose verifier

class JointCalibration(Record):
    """Joint limits plus p95-calibrated velocity/acceleration thresholds."""

    q_min: np.ndarray
    q_max: np.ndarray
    tau_v: Annotated[float, Range(0, lo_open=True)]
    tau_a: Annotated[float, Range(0, lo_open=True)]
    p95_v: Annotated[float, Range(0)]
    p95_a: Annotated[float, Range(0)]
    percentile: Annotated[float, Range(0, 1)] = 0.95
    margin: Annotated[float, Range(0, lo_open=True)] = 2.0

    def __post_init__(self):
        q_min = np.asarray(self.q_min, dtype=float)
        q_max = np.asarray(self.q_max, dtype=float)
        for name, limits in (("q_min", q_min), ("q_max", q_max)):
            if limits.shape != (NUM_JOINTS,):
                raise SchemaError(f"joint limits {name} must hold {NUM_JOINTS} "
                                  f"numbers, got shape {limits.shape}")
        if np.any(q_min >= q_max):
            raise ValidationError("q_min must be < q_max per joint")
        object.__setattr__(self, "q_min", q_min)
        object.__setattr__(self, "q_max", q_max)


def verify_joints(trace: JointTrace,
                  calib: JointCalibration) -> tuple[list[tuple[int, int, str]], bool]:
    """List every (t, j, kind) violation of limits or motion thresholds."""
    q = trace.q
    qd, qdd = trace.derivatives
    violations = []
    for t, j in zip(*np.nonzero((q < calib.q_min) | (q > calib.q_max))):
        violations.append((int(t), int(j), "limit"))
    for t, j in zip(*np.nonzero(np.abs(qd) > calib.tau_v)):
        violations.append((int(t), int(j), "velocity"))
    for t, j in zip(*np.nonzero(np.abs(qdd) > calib.tau_a)):
        violations.append((int(t), int(j), "acceleration"))
    return violations, not violations


def joint_exceedance(trace: JointTrace, calib: JointCalibration) -> tuple[bool, bool]:
    """Whether any sample exceeds the raw (un-margined) p95 thresholds."""
    qd, qdd = trace.derivatives
    return bool(np.any(np.abs(qd) > calib.p95_v)), bool(np.any(np.abs(qdd) > calib.p95_a))


def calibrate_joints(success_rollouts: Sequence[Rollout], percentile: float = 0.95,
                     q_min: np.ndarray = FRANKA_Q_MIN, q_max: np.ndarray = FRANKA_Q_MAX,
                     margin: float = 2.0) -> JointCalibration:
    """Set tau_v/tau_a from pooled |qdot| and |qddot| over success demos."""
    if not success_rollouts:
        raise ValidationError("cannot calibrate on an empty demo set")
    vels, accs = [], []
    for ro in success_rollouts:
        if ro.joints is None:
            raise ValidationError(f"rollout {ro.id} has no joint trace")
        qd, qdd = ro.joints.derivatives
        vels.append(np.abs(qd).ravel())
        accs.append(np.abs(qdd).ravel())
    p95_v = quantile_sorted(np.concatenate(vels), percentile)
    p95_a = quantile_sorted(np.concatenate(accs), percentile)
    return JointCalibration(q_min=q_min, q_max=q_max,
                            tau_v=margin * p95_v, tau_a=margin * p95_a,
                            p95_v=p95_v, p95_a=p95_a,
                            percentile=percentile, margin=margin)


# ---------------------------------------------------------------------------
# semantic verifier

def clip_descriptor(rollout: Rollout) -> dict:
    """Wire descriptor for a clip: id plus simulator ground truth for mocks."""
    return {"id": rollout.id, "outcome": rollout.outcome,
            "artifacts": rollout.meta.get("artifacts")}


def semantic_request(rollout: Rollout) -> dict:
    """The semantic judge's request for one candidate."""
    return {"instruction": rollout.task, "reference_clip_ref": None,
            "candidate_clip_ref": clip_descriptor(rollout)}


def verify_semantic(client) -> tuple[bool, bool]:
    """Two judgments, from the reply to the request in flight on client: is
    this a valid failure, and is the clip visually clean.

    Transport errors propagate; the pipeline quarantines the rollout. A reply
    that is not a JSON object carrying both judgments as JSON booleans is one
    too.
    """
    resp = client.receive()
    if not (isinstance(resp, dict) and all(isinstance(resp.get(k), bool)
                                           for k in ("valid_failure", "visual_ok"))):
        raise TransportError("judge reply lacks boolean valid_failure/visual_ok: "
                             f"{resp!r:.200}")
    return resp["valid_failure"], resp["visual_ok"]


# ---------------------------------------------------------------------------
# report and gate

class VerifierReport(Record):
    rollout_id: str
    semantic_valid_failure: bool
    semantic_visual_ok: bool
    idm_error: float
    idm_pass: bool
    idm_mae_xyz: float
    idm_mae_rpy: float
    joint_pass: bool
    joint_violations: tuple[tuple[int, int, str], ...]
    track_scores: Optional[PointTrackScores]
    track_pass: bool
    track_confident: bool
    retained: bool


def gate(semantic_valid_failure: bool, semantic_visual_ok: bool, idm_pass: bool,
         joint_pass: bool, track_pass: bool) -> bool:
    """Retention: the conjunction of all verifier pass bits."""
    return bool(semantic_valid_failure and semantic_visual_ok and idm_pass
                and joint_pass and track_pass)


def verify_physical(rollout: Rollout, predictor, idm_calib: IdmCalibration,
                    joint_calib: JointCalibration,
                    track_cfg: TrackScoreConfig = TrackScoreConfig()) -> dict:
    """The IDM, joint and track verdicts of one candidate, as VerifierReport
    fields; they hold none of the rollout's arrays."""
    idm = verify_idm(rollout, predictor, idm_calib)
    if rollout.joints is None:
        raise ValidationError(f"rollout {rollout.id} missing joint trace")
    violations, joint_pass = verify_joints(rollout.joints, joint_calib)
    if rollout.tracks is None:
        raise ValidationError(f"rollout {rollout.id} missing tracks")
    try:
        scores = score_tracks(rollout.tracks, track_cfg)
        confident = True
        track_pass = scores.s_pt >= track_cfg.retention_floor
    except InsufficientTrackingError:
        scores = None
        confident = False
        track_pass = False
    return dict(idm_error=idm.q, idm_pass=idm.passed,
                idm_mae_xyz=idm.mae_xyz, idm_mae_rpy=idm.mae_rpy,
                joint_pass=joint_pass, joint_violations=tuple(violations),
                track_scores=scores, track_pass=track_pass, track_confident=confident)


def judged_report(rollout_id: str, physical: dict, client) -> VerifierReport:
    """Gate a candidate's physical verdicts with the judge's reply to its
    request, which must be the one in flight on client."""
    valid_failure, visual_ok = verify_semantic(client)
    retained = gate(valid_failure, visual_ok, physical["idm_pass"],
                    physical["joint_pass"], physical["track_pass"])
    return VerifierReport(rollout_id=rollout_id, semantic_valid_failure=valid_failure,
                          semantic_visual_ok=visual_ok, **physical, retained=retained)


def verify_rollout(rollout: Rollout, predictor,
                   idm_calib: IdmCalibration, joint_calib: JointCalibration,
                   client, track_cfg: TrackScoreConfig = TrackScoreConfig(),
                   ) -> VerifierReport:
    """Run all four verifiers on one candidate and combine with the gate.

    The physical checks run while the judge works on the candidate's request.
    TransportError from the semantic client propagates (quarantine path).
    """
    client.send(semantic_request(rollout))
    physical = verify_physical(rollout, predictor, idm_calib, joint_calib, track_cfg)
    return judged_report(rollout.id, physical, client)


def save_calibrations(path, idm: IdmCalibration, joints: JointCalibration,
                      extra: Optional[dict] = None) -> None:
    payload = {"version": CALIBRATION_FORMAT_VERSION, "idm": idm.to_dict(),
               "joints": joints.to_dict(), "reference_stats": extra or {}}
    write_json(path, payload)


def load_calibrations(path) -> tuple[IdmCalibration, JointCalibration, dict]:
    """Read a calibration file; a malformed section or value is a SchemaError."""
    payload = read_json(path)
    if payload.get("version") != CALIBRATION_FORMAT_VERSION:
        raise ValidationError(f"unsupported calibration version {payload.get('version')}")
    idm, joints = read_keys(payload, {"idm": IdmCalibration, "joints": JointCalibration},
                            f"calibration {path}")
    stats = decode(dict, payload.get("reference_stats", {}), "calibration reference_stats")
    return idm, joints, stats
