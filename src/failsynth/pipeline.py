"""Batch orchestration: generation, perturbation, calibration, verification,
labeling, recovery, and evaluation, with per-stage manifests.

Every stage is deterministic given (inputs, config, seed): per-rollout seeds
are derived structurally, output record order follows input order, and all
artifacts carry the config hash.

Stages stream: each reads one record, does its work and hands that record's
output to the writer before it reads the next (verify reads up to LOOKAHEAD
ahead while a judge's reply is not in), keeping only counters and the
per-candidate values its manifest averages. Writers replace their file
atomically, so a stage that fails leaves no output behind.
"""

from __future__ import annotations

import logging
from collections import deque
from typing import Iterator, Optional

import numpy as np

from .config import PipelineConfig
from .core import FailureType, Range, Rollout, decode, detect_keyframes, read_keys
from .errors import SchemaError, TransportError, ValidationError
from .labels import generate_label, parse, serialize
from .metrics import evaluate_dataset
from .perturb import (PerturbationSpec, draw_translation_offset,
                      inject_delay_close, inject_force_open, inject_translation,
                      inject_weak_close)
from .recovery import map_to_primitives, replay_with_recovery
from .rollout_io import (SourceRecord, loads_record, read_records,
                         rollout_from_record, with_member, with_meta_member,
                         write_json, write_records, write_rollouts)
from .semantic import client_from_endpoint
from .tracks import score_tracks
# verify_rollout is not called here; perfbench's trace wraps pipeline.verify_rollout
from .verify import (calibrate_idm, calibrate_joints, joint_exceedance, judged_report,
                     load_calibrations, predictor_from_spec, save_calibrations,
                     semantic_request, verify_physical, verify_rollout)
from .world import ArtifactSpec, SceneSpec, resimulate, script_success, synthesize_observations

log = logging.getLogger(__name__)

FAILURE_TYPES = tuple(FailureType)  # seeds use the index: keep the order


def _derived_seed(*parts: int) -> int:
    seed = 0
    for p in parts:
        seed = (seed * 1_000_003 + int(p) + 1) % (2 ** 62)
    return seed


def sample_scene(cfg: PipelineConfig, index: int) -> SceneSpec:
    """Deterministic per-rollout scene from the master seed."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed,
                                                       spawn_key=(10, index)))
    sc = cfg.scene
    for _ in range(1000):
        obj = (rng.uniform(*sc.object_x), rng.uniform(*sc.object_y), 0.02)
        goal = (rng.uniform(*sc.goal_x), rng.uniform(*sc.goal_y), 0.02)
        if np.linalg.norm(np.array(obj) - np.array(goal)) >= sc.min_separation:
            break
    else:
        raise ValidationError(f"scene.min_separation {sc.min_separation!r}: no pair that far apart")
    return SceneSpec(object_pos=obj, goal_pos=goal,
                     grasp_tolerance=sc.grasp_tolerance,
                     attach_strength=sc.attach_strength,
                     partial_floor=sc.partial_floor, slip_delay=sc.slip_delay,
                     seed=_derived_seed(cfg.seed, index))


def _manifest(cfg: PipelineConfig, path, **fields) -> dict:
    """A stage's manifest: fields stamped with the config hash, written to
    path when one is given."""
    fields["config_hash"] = cfg.config_hash()
    if path:
        write_json(path, fields)
    return fields


def _rollouts(path) -> Iterator[Rollout]:
    """The rollouts of a JSONL file, parsed one at a time."""
    for rec in read_records(path):
        yield rollout_from_record(rec)


def cmd_generate(cfg: PipelineConfig, n: int, out_path, manifest_path=None) -> dict:
    """Script n successful demonstrations."""
    write_rollouts(out_path, (script_success(sample_scene(cfg, i), horizon=cfg.horizon,
                                             rollout_id=f"demo-{i:05d}")
                              for i in range(n)))
    return _manifest(cfg, manifest_path, stage="generate", count=n,
                     horizon=cfg.horizon, seed=cfg.seed)


def perturb_one(rollout: Rollout, cfg: PipelineConfig, index: int,
                failure_type: FailureType,
                artifacts: ArtifactSpec = ArtifactSpec()) -> tuple[Rollout, int]:
    """Inject one failure type into one success rollout and re-simulate.

    Returns (candidate, translation_resamples).
    """
    scene = decode(SceneSpec, rollout.meta.get("scene"), "meta.scene")
    kfs = detect_keyframes(rollout)
    if not kfs:
        raise ValidationError(f"rollout {rollout.id} has no keyframe")
    k = kfs[0] - 1  # action index of the first closing command
    pc = cfg.perturb
    type_idx = FAILURE_TYPES.index(failure_type)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed,
                                                       spawn_key=(11, index, type_idx)))
    resamples = 0
    if failure_type is FailureType.delay_close:
        hi = min(pc.delay_max, rollout.horizon - 1 - k)
        if hi < pc.delay_min:
            raise ValidationError(f"horizon too short for perturb.delay_min {pc.delay_min}")
        delay = int(rng.integers(pc.delay_min, hi + 1))
        actions, spec = inject_delay_close(rollout, k, delay, window=pc.window)
    elif failure_type is FailureType.weak_close:
        scale = float(rng.uniform(pc.weak_min, pc.weak_max))
        actions, spec = inject_weak_close(rollout, k, scale, window=pc.window)
    elif failure_type is FailureType.force_open:
        actions, spec = inject_force_open(rollout, k, window=pc.window)
    else:
        t_seed = _derived_seed(cfg.seed, index, type_idx)
        ox, oy, draws = draw_translation_offset(pc.sigma, t_seed,
                                                scene.grasp_tolerance, pc.offset_cap)
        resamples = draws - 1
        actions, spec = inject_translation(rollout, k, pc.window, pc.sigma, t_seed,
                                           scene.grasp_tolerance, pc.offset_cap,
                                           offsets=(ox, oy))
    cand = resimulate(scene, actions, rollout_id=f"{rollout.id}/{failure_type.value}",
                      task=rollout.task)
    meta = {**cand.meta, "source_id": rollout.id,
            "obs_seed": _derived_seed(cfg.seed, index, type_idx, 17),
            "artifacts": artifacts.to_dict()}
    return Rollout._checked(**{**vars(cand), "spec": spec, "meta": meta}), resamples


def cmd_perturb(cfg: PipelineConfig, in_path, out_path, manifest_path=None) -> dict:
    """One candidate failure per (input rollout, failure type)."""
    inputs = resample_events = 0
    per_type = {ft.value: 0 for ft in FAILURE_TYPES}

    def candidates():
        nonlocal inputs, resample_events
        for i, ro in enumerate(_rollouts(in_path)):
            inputs += 1
            for ft in FAILURE_TYPES:
                cand, resamples = perturb_one(ro, cfg, i, ft)
                resample_events += resamples
                per_type[ft.value] += 1
                yield cand

    count = write_rollouts(out_path, candidates())
    return _manifest(cfg, manifest_path, stage="perturb", inputs=inputs,
                     candidates=count, per_type=per_type,
                     translation_resamples=resample_events)


def _with_observations(rollout: Rollout) -> Rollout:
    meta = rollout.meta
    seed = decode(int, meta.get("obs_seed", 0), "meta.obs_seed")
    if seed < 0:
        raise ValidationError(f"meta.obs_seed must lie in {Range(0)}, got {seed}")
    return synthesize_observations(
        rollout, decode(SceneSpec, meta.get("scene"), "meta.scene"),
        decode(ArtifactSpec, meta.get("artifacts", {}), "meta.artifacts"), seed=seed)


def cmd_calibrate(cfg: PipelineConfig, successes_path, out_path) -> dict:
    """p95 calibration of the IDM and joint verifiers on success demos.

    The thresholds are percentiles over every demo, so the demos are kept,
    but without their tracks, which are scored as each demo is read.
    """
    stats = _Stats()
    demos = []
    for ro in _rollouts(successes_path):
        demo = _with_observations(ro)
        stats.add_scores(score_tracks(demo.tracks, cfg.tracks))
        demos.append(Rollout._checked(**{**vars(demo), "tracks": None}))
    if not demos:
        raise ValidationError("cannot calibrate on an empty demo file")
    predictor = predictor_from_spec(cfg.verifier.predictor, seed=cfg.seed)
    vc = cfg.verifier
    idm = calibrate_idm(demos, predictor, percentile=vc.idm_percentile,
                        d=vc.idm_interval, eps=vc.idm_eps, margin=vc.idm_margin,
                        radian_weight=vc.radian_weight)
    joints = calibrate_joints(demos, percentile=vc.joint_percentile,
                              margin=vc.joint_margin)
    for demo in demos:
        stats.add_exceedance(joint_exceedance(demo.joints, joints))
    # mae is the pooled demo error, one pair, so its "mean" is itself
    stats.add(mae_xyz=idm.mae_xyz, mae_rpy=idm.mae_rpy)
    gt_stats = _manifest(cfg, None, **stats.means(), demos=len(demos))
    save_calibrations(out_path, idm, joints, extra=gt_stats)
    return gt_stats


class _Stats:
    """Per-candidate values whose means a manifest reports: track sub-scores,
    (xyz, rpy) IDM errors and (velocity, acceleration) joint exceedance flags."""

    TRACK_KEYS = ("s_smooth", "s_vis", "s_topo", "s_global")

    def __init__(self):
        self.columns = {k: [] for k in (*self.TRACK_KEYS, "mae_xyz", "mae_rpy",
                                        "omega_exceed_p95", "alpha_exceed_p95")}

    def add(self, **values) -> None:
        for k, v in values.items():
            self.columns[k].append(v)

    def add_scores(self, scores) -> None:
        self.add(**{k: getattr(scores, k) for k in self.TRACK_KEYS})

    def add_exceedance(self, exceed: tuple[bool, bool]) -> None:
        self.add(omega_exceed_p95=exceed[0], alpha_exceed_p95=exceed[1])

    def means(self) -> dict:
        """Column means; None for a column nothing was added to."""
        return {k: float(np.mean(v)) if v else None for k, v in self.columns.items()}


def _check_accounting(manifest: dict) -> None:
    """Every candidate is retained, rejected or quarantined, exactly once."""
    total = manifest["retained"] + manifest["rejected"] + manifest["quarantined"]
    if total != manifest["generated"]:
        raise ValidationError(
            f"verify accounting broken: retained + rejected + quarantined = "
            f"{total}, generated = {manifest['generated']}")


# Candidates checked ahead of the judge's reply. A pipe judge's start-up takes
# about 22 ms, about 20 candidates at 1 ms each; an entry holds no rollout
# arrays (about 14 KB), so 32 cover the start-up for under 0.5 MB.
LOOKAHEAD = 32


def cmd_verify(cfg: PipelineConfig, candidates_path, calib_path, out_path,
               manifest_path=None) -> dict:
    """Run the four-verifier gate over a candidate file, in input order.

    Each candidate's request goes to the judge before its physical checks
    run, and its reply is taken after them, one request in flight. While the
    judge's reply is not in, up to LOOKAHEAD more candidates are checked.
    """
    idm_calib, joint_calib, gt_stats = load_calibrations(calib_path)
    predictor = predictor_from_spec(cfg.verifier.predictor, seed=cfg.seed)
    # each rejection counter, in manifest order, and the report bit it counts
    rejections = {"semantic_validity": "semantic_valid_failure",
                  "semantic_visual": "semantic_visual_ok", "idm": "idm_pass",
                  "joint": "joint_pass", "track": "track_pass"}
    counts = dict.fromkeys(rejections, 0)
    generated = quarantined = rejected = 0
    stats = _Stats()

    def judged(client, queue):
        """The queue head's output if it is retained, once its reply is in;
        the next request goes out as soon as that reply is taken."""
        nonlocal quarantined, rejected
        _, rollout_id, line, meta, physical, exceedance = queue.popleft()
        try:
            report = judged_report(rollout_id, physical, client)
        except TransportError as exc:
            log.warning("quarantining %s: %s", rollout_id, exc)
            quarantined += 1
            return
        finally:
            if queue:
                client.send(queue[0][0])
        for counter, passed in rejections.items():
            counts[counter] += not getattr(report, passed)
        if report.track_scores is not None:
            stats.add_scores(report.track_scores)
        stats.add(mae_xyz=report.idm_mae_xyz, mae_rpy=report.idm_mae_rpy)
        stats.add_exceedance(exceedance)
        if not report.retained:
            rejected += 1
            return
        # what with_meta_member writes for the record, without holding its arrays
        light = SourceRecord(meta=meta)
        light.line = line
        out = with_meta_member(light, "verifier", report.to_dict())
        # not spliced: the whole record is encoded again
        yield out if type(out) is str else with_meta_member(
            loads_record(line), "verifier", report.to_dict())

    def retained_records(client):
        nonlocal generated
        queue = deque()  # (request, id, line, meta, physical verdicts, exceedance)
        for rec in read_records(candidates_path):
            cand = _with_observations(rollout_from_record(rec))
            generated += 1
            request = semantic_request(cand)
            if not queue:
                client.send(request)
            physical = verify_physical(cand, predictor, idm_calib, joint_calib, cfg.tracks)
            queue.append((request, cand.id, rec.line, rec.get("meta"), physical,
                          joint_exceedance(cand.joints, joint_calib)))
            while queue and (len(queue) > LOOKAHEAD or client.ready()):
                yield from judged(client, queue)
        while queue:
            yield from judged(client, queue)

    client = client_from_endpoint(cfg.semantic_endpoint, cfg.verifier.visual_floors)
    try:
        retained = write_records(out_path, retained_records(client))
    finally:
        client.close()
    manifest = dict(generated=generated, retained=retained, rejected=rejected,
                    quarantined=quarantined)
    _check_accounting(manifest)
    return _manifest(cfg, manifest_path, stage="verify", **manifest,
                     retention_rate=(retained / generated) if generated else None,
                     rejections=counts,
                     stats={"generated": stats.means(), "ground_truth": gt_stats})


def cmd_label(cfg: PipelineConfig, retained_path, out_path,
              manifest_path=None) -> dict:
    """Attach the deterministic serialized fix label to every record."""
    def labeled():
        for rec in read_records(retained_path):
            decode(dict, rec, "record")
            spec = decode(Optional[PerturbationSpec], rec.get("spec"), "spec")
            meta = decode(dict, rec.get("meta", {}), "record meta")
            attach = {}  # only a weak_close label depends on the scene
            if spec is not None and spec.failure_type is FailureType.weak_close:
                attach["attach_strength"] = decode(SceneSpec, meta.get("scene"),
                                                   "meta.scene").attach_strength
            label = generate_label(spec, bin_size=cfg.label.bin_size,
                                   strength_margin=cfg.label.strength_margin, **attach)
            text = serialize(label)
            if parse(text) != label:
                raise SchemaError(f"label round-trip failed for {rec['id']}")
            yield with_member(rec, "label", text)

    return _manifest(cfg, manifest_path, stage="label",
                     count=write_records(out_path, labeled()))


def recover_record(cfg: PipelineConfig, rec: dict,
                   label_text: Optional[str] = None) -> dict:
    """Parse a label, map it to primitives, replay, and score one case."""
    cand = rollout_from_record(rec)
    scene = decode(SceneSpec, cand.meta.get("scene"), "meta.scene")
    text = label_text
    if text is None:
        text, = read_keys(rec, {"label": str}, f"record {rec['id']}")
    entry = {"id": rec["id"], "label": text}
    try:
        label = parse(text)
        keyframe = cand.spec.keyframe if cand.spec is not None else None
        prims = map_to_primitives(label, cfg.label.bin_size, keyframe=keyframe)
        _, ok = replay_with_recovery(scene, cand.actions, prims,
                                     ramp_window=cfg.perturb.window)
    except (SchemaError, ValidationError) as exc:
        entry.update(recovered=False, error=f"{type(exc).__name__}: {exc}",
                     primitives=[])
        return entry
    entry.update(recovered=bool(ok), error=None,
                 primitives=[{"kind": type(p).__name__, **vars(p)} for p in prims])
    return entry


def cmd_recover(cfg: PipelineConfig, labeled_path, out_path,
                predictions_path=None, manifest_path=None) -> dict:
    """Replay predicted (or self-paired) corrections and report recovery rate."""
    preds = None
    if predictions_path:
        preds = _load_predictions(predictions_path)
    recovered = 0

    def entries():
        nonlocal recovered
        cases = 0
        for rec in read_records(labeled_path):
            text = None
            if preds is not None:
                rec_id, = read_keys(rec, {"id": str}, "labeled record")
                if rec_id not in preds:
                    raise SchemaError(f"prediction file missing id {rec_id}")
                text = preds[rec_id]
            entry = recover_record(cfg, rec, label_text=text)
            cases += 1
            recovered += entry["recovered"]
            yield entry
        if not cases:
            raise ValidationError("no cases to recover")

    cases = write_records(out_path, entries())
    return _manifest(cfg, manifest_path, stage="recover", cases=cases,
                     recovered=recovered, recovery_rate=recovered / cases)


def _load_predictions(path) -> dict:
    """{id: pred_text} of a prediction file; each line is an object with a
    string id and pred_text."""
    preds = {}
    for rec in read_records(path):
        rec_id, text = read_keys(rec, {"id": str, "pred_text": str}, "prediction")
        preds[rec_id] = text
    return preds


def cmd_evaluate(cfg: PipelineConfig, labeled_path, predictions_path,
                 report_path=None) -> dict:
    """Score a prediction file against ground-truth labels."""
    preds = _load_predictions(predictions_path)
    pairs = []
    missing = []
    for rec in read_records(labeled_path):
        rec_id, label = read_keys(rec, {"id": str, "label": str}, "labeled record")
        if rec_id not in preds:
            missing.append(rec_id)
            continue
        pairs.append((rec_id, label, preds[rec_id]))
    if missing:
        raise SchemaError(f"prediction file missing ids: {missing}")
    return _manifest(cfg, report_path,
                     **evaluate_dataset(pairs, cap=cfg.cap, delta_k=cfg.delta_k))
