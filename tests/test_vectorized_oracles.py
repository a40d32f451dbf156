"""Brute-force loop oracles for the vectorized track scores, IDM errors and
observation synthesis.

The oracles are the per-frame-pair, per-track and per-step loops the scores
were first written as, and the per-frame affine jitter loop. Track
sub-scores must agree to 1e-9 with identical pass bits; IDM errors and
synthesized observations must be bit-equal, and the observations' bytes are
pinned for every artifact kind.
"""

import hashlib
import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from failsynth import tracks
from failsynth.config import PipelineConfig
from failsynth.core import FailureType, state_diff
from failsynth.errors import InsufficientTrackingError
from failsynth.pipeline import FAILURE_TYPES, perturb_one, sample_scene
from failsynth.semantic import DEFAULT_VISUAL_FLOORS
from failsynth.tracks import (TrackScoreConfig, fit_affine, quantile_sorted,
                              score_tracks)
from failsynth.verify import NoisyPredictor, OraclePredictor, _idm_errors
from failsynth.world import (GRID_H, GRID_W, TABLE_Z, ArtifactSpec, CameraSpec, SceneSpec,
                             _simulate, joint_surrogate, script_success,
                             synthesize_observations)

CFG = TrackScoreConfig()
TOL = 1e-9


# ---------------------------------------------------------------------------
# loop oracles

def smoothness_loop(points, masks, cfg):
    acc = points[:, 2:] - 2.0 * points[:, 1:-1] + points[:, :-2]
    valid = masks[:, 2:] & masks[:, 1:-1] & masks[:, :-2]
    mag = np.linalg.norm(acc, axis=2)
    pooled = mag[valid]
    if pooled.size == 0:
        return 0.0
    q = quantile_sorted(pooled, cfg.acc_quantile)
    med = np.full(mag.shape[0], np.inf)
    for i in range(mag.shape[0]):
        vi = mag[i][valid[i]]
        if vi.size:
            med[i] = np.median(vi)
    thr = np.maximum(cfg.spike_ratio * med, cfg.spike_floor)
    spikes = valid & (mag > thr[:, None])
    r_spike = float(np.count_nonzero(spikes.any(axis=0))) / mag.shape[1]
    return min(1.0, max(0.0, math.exp(-q / cfg.tau_acc) * (1.0 - r_spike)))


def topology_loop(points, masks, cfg):
    vis0 = np.nonzero(masks[:, 0])[0]
    if vis0.size < cfg.knn_k + 1:
        return 0.0
    p0 = points[vis0, 0]
    dmat = np.linalg.norm(p0[:, None] - p0[None, :], axis=2)
    np.fill_diagonal(dmat, np.inf)
    edges = set()
    order = np.argsort(dmat, axis=1)
    for a in range(p0.shape[0]):
        for b in order[a, :cfg.knn_k]:
            edges.add((min(a, int(b)), max(a, int(b))))
    edges = sorted(edges)
    ia = vis0[[e[0] for e in edges]]
    ib = vis0[[e[1] for e in edges]]
    d0 = np.linalg.norm(points[ia, 0] - points[ib, 0], axis=1)
    dt = np.linalg.norm(points[ia, 1:] - points[ib, 1:], axis=2)
    both = masks[ia, 1:] & masks[ib, 1:]
    u = np.abs(dt - d0[:, None]) / (d0[:, None] + cfg.eps)
    pooled = u[both]
    if pooled.size == 0:
        return 0.0
    return min(1.0, max(0.0, math.exp(-float(np.median(pooled)) / cfg.tau_topo)))


def robust_affine_loop(src, dst):
    theta, rmse = fit_affine(src, dst)
    X = np.concatenate([src, np.ones((src.shape[0], 1))], axis=1)
    resid = np.linalg.norm(X @ theta - dst, axis=1)
    keep = resid <= 3.0 * np.median(resid) + 1e-9
    if 3 <= np.count_nonzero(keep) < src.shape[0]:
        theta, rmse = fit_affine(src[keep], dst[keep])
    return theta, rmse


def global_continuity_loop(points, masks, cfg):
    n = points.shape[1]
    rmses, thetas = [], []
    for t in range(n - 1):
        both = masks[:, t] & masks[:, t + 1]
        if np.count_nonzero(both) < 3:
            thetas.append(None)
            continue
        theta, rmse = robust_affine_loop(points[both, t], points[both, t + 1])
        rmses.append(rmse)
        thetas.append(theta)
    if not rmses:
        return 0.0
    jitters = [float(np.linalg.norm(a - b)) for a, b in zip(thetas[:-1], thetas[1:])
               if a is not None and b is not None]
    q_rmse = quantile_sorted(rmses, cfg.global_quantile)
    q_jit = quantile_sorted(jitters, cfg.global_quantile) if jitters else 0.0
    return min(1.0, max(0.0, 0.7 * math.exp(-q_rmse / cfg.tau_rmse)
                        + 0.3 * math.exp(-q_jit / cfg.tau_jitter)))


def idm_errors_loop(rollout, predictor, d, radian_weight):
    w = np.array([1.0, 1.0, 1.0, radian_weight, radian_weight, radian_weight])
    diffs = np.stack([predictor(rollout, t, d) - state_diff(rollout, t, d)
                      for t in range(rollout.horizon - d + 1)])
    return np.linalg.norm(diffs * w, axis=1), diffs


def observations_loop(rollout, scene, artifacts, seed):
    """(points, masks, q) of synthesize_observations, with the desk grid built
    and projected on every call and the affine jitter applied frame by frame."""
    cam = scene.camera
    n = len(rollout.states)
    T = n - 1
    _, object_traj, _ = _simulate(scene, rollout.actions)
    gx, gy = np.meshgrid(np.linspace(0.2, 0.6, GRID_W), np.linspace(-0.25, 0.25, GRID_H),
                         indexing="ij")
    grid = np.stack([gx.ravel(), gy.ravel(), np.full(GRID_W * GRID_H, TABLE_Z)], axis=1)
    base_px = cam.project(grid)
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
        for t in range(1, n):
            ang = 0.05 * artifacts.affine_jitter * rng.standard_normal()
            sc = 1.0 + 0.05 * artifacts.affine_jitter * rng.standard_normal()
            rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
            points[:, t] = c + sc * (points[:, t] - c) @ rot.T
    if artifacts.jitter_px > 0:
        points = points + rng.normal(0.0, artifacts.jitter_px, size=points.shape)
    if artifacts.flicker_rate > 0:
        toggles = rng.random((points.shape[0], T)) < artifacts.flicker_rate
        masks[:, 1:] = np.cumsum(toggles, axis=1) % 2 == 0
    q = joint_surrogate(rollout.poses())
    if artifacts.joint_spike > 0:
        q[n // 2, 0] += artifacts.joint_spike
    return points, masks, q


def noisy_loop(sigma_xyz, sigma_rpy, bias, seed):
    """Per-(id, t, d) seeded noisy predictor, one step per call."""
    def predict(rollout, t, d):
        key = zlib.crc32(f"{rollout.id}:{t}:{d}".encode())
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                           spawn_key=(4, key)))
        noise = np.concatenate([rng.normal(0.0, sigma_xyz, 3),
                                rng.normal(0.0, sigma_rpy, 3)])
        return state_diff(rollout, t, d) + np.asarray(bias, float) + noise
    return predict


# ---------------------------------------------------------------------------
# helpers

SUBSCORES = [(tracks._smoothness, smoothness_loop),
             (tracks._topology, topology_loop),
             (tracks._global_continuity, global_continuity_loop)]


def assert_subscores_agree(points, masks, cfg=CFG):
    for fast, loop in SUBSCORES:
        got, want = fast(points, masks, cfg), loop(points, masks, cfg)
        assert abs(got - want) <= TOL, (fast.__name__, got, want)


def score_loop(ts, cfg=CFG):
    points, masks = ts.points, ts.masks
    parts = (smoothness_loop(points, masks, cfg), tracks._visibility(masks),
             topology_loop(points, masks, cfg),
             global_continuity_loop(points, masks, cfg))
    return parts, sum(w * s for w, s in zip(cfg.weights, parts))


def _half(name):
    return DEFAULT_VISUAL_FLOORS[name] / 2.0


# every artifact kind of the gate-mixed benchmark mix: 10-100x and 0.5x floor
ARTIFACT_KINDS = {
    "clean": ArtifactSpec(),
    "jitter_hi": ArtifactSpec(jitter_px=6.0),
    "flicker_hi": ArtifactSpec(flicker_rate=0.6),
    "topo_hi": ArtifactSpec(topo_warp=0.8),
    "affine_hi": ArtifactSpec(affine_jitter=2.0),
    "spike_hi": ArtifactSpec(joint_spike=0.5),
    "jitter_lo": ArtifactSpec(jitter_px=_half("jitter_px")),
    "flicker_lo": ArtifactSpec(flicker_rate=_half("flicker_rate")),
    "topo_lo": ArtifactSpec(topo_warp=_half("topo_warp")),
    "affine_lo": ArtifactSpec(affine_jitter=_half("affine_jitter")),
    "spike_lo": ArtifactSpec(joint_spike=_half("joint_spike")),
}


@pytest.fixture(scope="module")
def candidates():
    """Perturbed candidates of 2 demos, every failure type, no artifacts."""
    cfg = PipelineConfig(seed=808)
    out = []
    for i in range(2):
        demo = script_success(sample_scene(cfg, i), horizon=cfg.horizon,
                              rollout_id=f"demo-{i}")
        for ft in FAILURE_TYPES:
            cand, _ = perturb_one(demo, cfg, i, ft)
            out.append((sample_scene(cfg, i), cand))
    return out


def _drifting(seed, m, n):
    """m points under a random walk of per-frame affine maps, plus noise."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(0, 640, size=(m, 2)) - 320.0
    ang = np.cumsum(rng.normal(0, 0.01, n))
    scale = 1.0 + np.cumsum(rng.normal(0, 0.01, n))
    shift = np.cumsum(rng.normal(0, 2.0, size=(n, 2)), axis=0) + 320.0
    rot = np.stack([np.stack([np.cos(ang), -np.sin(ang)], -1),
                    np.stack([np.sin(ang), np.cos(ang)], -1)], -2)
    frames = scale[:, None, None] * np.einsum("nij,mj->nmi", rot, base) + shift[:, None]
    return frames.transpose(1, 0, 2) + rng.normal(0, 0.5, size=(m, n, 2))


def _observed(candidates, kind, seed):
    scene, cand = candidates[seed % len(candidates)]
    return synthesize_observations(cand, scene, ARTIFACT_KINDS[kind], seed=seed)


# ---------------------------------------------------------------------------
# track scores

class TestTrackScoresMatchLoops:
    @pytest.mark.parametrize("kind", sorted(ARTIFACT_KINDS))
    @pytest.mark.parametrize("seed", [0, 3])
    def test_artifact_kinds(self, candidates, kind, seed):
        ts = _observed(candidates, kind, seed).tracks
        assert_subscores_agree(ts.points, ts.masks)
        try:
            got = score_tracks(ts, CFG)
        except InsufficientTrackingError:
            assert kind.startswith("flicker")
            return
        parts, total = score_loop(ts)
        got_parts = (got.s_smooth, got.s_vis, got.s_topo, got.s_global)
        assert np.allclose(got_parts, parts, rtol=0.0, atol=TOL)
        assert abs(got.s_pt - total) <= TOL
        assert (got.s_pt >= CFG.retention_floor) == (total >= CFG.retention_floor)

    def test_clean_candidates(self, candidates):
        for seed in range(len(candidates)):
            ts = _observed(candidates, "clean", seed).tracks
            assert_subscores_agree(ts.points, ts.masks)
            assert score_tracks(ts, CFG).s_pt >= CFG.retention_floor

    def test_pairs_with_fewer_than_3_visible_points(self):
        points = _drifting(seed=2, m=30, n=12)
        masks = np.ones((30, 12), bool)
        masks[2:, 4] = False   # pairs (3, 4) and (4, 5) see only 2 points
        masks[1:, 8:10] = False
        assert_subscores_agree(points, masks)

    def test_no_pair_fitted(self, candidates):
        ts = _observed(candidates, "clean", 1).tracks
        masks = ts.masks.copy()
        masks[2:, 1::2] = False
        assert tracks._global_continuity(ts.points, masks, CFG) == 0.0
        assert_subscores_agree(ts.points, masks)

    @pytest.mark.parametrize("slope", [0.5, 0.3, 1 / 3])
    def test_collinear_visible_pair(self, slope):
        """A scene scaling and moving as one; in frames 2 and 3 only 8 points
        on one line are visible, so that pair's design has rank 2 (lstsq's
        minimum-norm fit) or, a micro-pixel off the line, is badly conditioned."""
        rng = np.random.default_rng(4)
        base = rng.uniform(50, 550, size=(40, 2))
        line = np.linspace(50, 500, 8)
        base[:8] = np.stack([line, slope * line + 1.7], axis=1)
        masks = np.ones((40, 6), bool)
        masks[8:, 2:4] = False
        for wobble in (0.0, 1e-6):
            base[:8, 1] += wobble * np.array([1, -1, 2, 0, -2, 1, 0, -1])
            t = np.arange(6)[None, :, None]
            points = base[:, None] * (1 + 0.01 * t) + t * [1.0, 2.0]
            assert_subscores_agree(points, masks)
        # all visible points of frame 3 in one place: a zero design
        points[:8, 3] = points[0, 3]
        assert_subscores_agree(points, masks)

    def test_pair_without_refit(self):
        """A rigid scene fits every point; the trimmed refit never runs."""
        rng = np.random.default_rng(5)
        base = rng.uniform(0, 640, size=(30, 2))
        shift = np.arange(8)[:, None] * [2.0, -1.0]
        points = base[:, None, :] + shift[None]
        masks = np.ones((30, 8), bool)
        assert_subscores_agree(points, masks)
        assert tracks._global_continuity(points, masks, CFG) == pytest.approx(1.0)

    @pytest.mark.parametrize("knn_k", [1, 2, 4])
    def test_regular_grid_ties(self, knn_k):
        """An exact grid has many equidistant neighbours: the edge set and the
        topology score follow argsort's tie order."""
        axis = 100.0 + 40.0 * np.arange(10)
        grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
        points = np.repeat(grid[:, None], 6, axis=1)
        points[..., 0] = 100.0 + (points[..., 0] - 100.0) * (1 + 0.02 * np.arange(6))
        masks = np.ones((100, 6), bool)
        assert_subscores_agree(points, masks, TrackScoreConfig(knn_k=knn_k))

    @given(seed=st.integers(0, 2 ** 16),
           masks=hnp.arrays(bool, (24, 9), elements=st.booleans()),
           hidden=st.sets(st.integers(0, 8), max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_random_masks(self, seed, masks, hidden):
        masks[3:, sorted(hidden)] = False  # frames whose pairs may go unfitted
        points = _drifting(seed, m=24, n=9)
        points[~masks] = np.nan  # hidden positions must never be read
        assert_subscores_agree(points, masks)


class TestRowMedians:
    @given(hnp.arrays(float, (7, 11),
                      elements=st.floats(-1e6, 1e6, allow_nan=False)),
           hnp.arrays(bool, (7, 11), elements=st.booleans()))
    @settings(max_examples=100, deadline=None)
    def test_bit_equal_to_np_median(self, values, valid):
        got = tracks._row_medians(values, valid)
        for i in range(values.shape[0]):
            want = np.median(values[i][valid[i]]) if valid[i].any() else np.inf
            assert got[i] == want


# ---------------------------------------------------------------------------
# IDM errors

class TestIdmErrorsMatchLoop:
    @pytest.mark.parametrize("d", [1, 4, 60])
    def test_oracle_bit_equal(self, candidates, d):
        for _, cand in candidates:
            errs, diffs = _idm_errors(cand, OraclePredictor(), d, 0.1)
            want_errs, want_diffs = idm_errors_loop(cand, OraclePredictor(), d, 0.1)
            assert np.array_equal(errs, want_errs)
            assert np.array_equal(diffs, want_diffs)

    @pytest.mark.parametrize("d", [1, 4])
    def test_noisy_bit_equal(self, candidates, d):
        bias = [0.01, 0.0, -0.02, 0.0, 0.3, 0.0]
        fast = NoisyPredictor(sigma_xyz=0.002, sigma_rpy=0.01, bias=bias, seed=5)
        loop = noisy_loop(0.002, 0.01, bias, 5)
        for _, cand in candidates:
            errs, diffs = _idm_errors(cand, fast, d, 0.1)
            want_errs, want_diffs = idm_errors_loop(cand, loop, d, 0.1)
            assert np.array_equal(errs, want_errs)
            assert np.array_equal(diffs, want_diffs)


# ---------------------------------------------------------------------------
# observation synthesis

def _magnitude(hi):
    return st.one_of(st.just(0.0), st.floats(0.0, hi), st.sampled_from([1e-300, hi]))


_ARTIFACTS = st.builds(ArtifactSpec, jitter_px=_magnitude(10.0), flicker_rate=_magnitude(1.0),
                       topo_warp=_magnitude(2.0), affine_jitter=_magnitude(1e3),
                       joint_spike=_magnitude(1.0))
# cameras whose fields hold a -0.0 or a 0.0 where a projected coordinate is -0.0
_CAMERAS = st.builds(CameraSpec, fx=st.sampled_from([600.0, 450.5]),
                     cx=st.sampled_from([320.0, 0.0, -0.0]), cy=st.sampled_from([240.0, 0.0, -0.0]),
                     position=st.sampled_from([(0.45, 0.0, 0.95), (0.45, -0.0, 0.95),
                                               (0.2, -0.25, 0.9)]))


def _as_tuple(ro):
    return ro.tracks.points, ro.tracks.masks, ro.joints.q


def assert_observations_bit_equal(got, want):
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


class TestObservationsMatchLoop:
    @given(artifacts=_ARTIFACTS, seed=st.integers(0, 2 ** 63), which=st.integers(0, 7),
           camera=_CAMERAS)
    @settings(max_examples=300, deadline=None)
    def test_bit_equal(self, candidates, artifacts, seed, which, camera):
        scene, cand = candidates[which]
        scene = SceneSpec(**{**vars(scene), "camera": camera})
        got = synthesize_observations(cand, scene, artifacts, seed=seed)
        assert_observations_bit_equal(_as_tuple(got),
                                      observations_loop(cand, scene, artifacts, seed))

    def test_signed_zero_cameras_differ(self, candidates):
        """Cameras == calls equal but whose fields differ in a zero's sign
        give tracks that differ in that sign; neither is taken for the other."""
        scene, cand = candidates[0]
        cams = [CameraSpec(cy=cy, position=(0.2, -0.25, 0.9)) for cy in (-0.0, 0.0, -0.0)]
        assert cams[0] == cams[1]
        seen = []
        for cam in cams:
            sc = SceneSpec(**{**vars(scene), "camera": cam})
            got = _as_tuple(synthesize_observations(cand, sc, seed=1))
            assert_observations_bit_equal(got, observations_loop(cand, sc, ArtifactSpec(), 1))
            seen.append(got[0].tobytes())
        assert seen[0] != seen[1] and seen[0] == seen[2]

    def test_default_camera_with_a_negative_zero(self, candidates):
        """A camera == the default whose position y is -0.0 gives the same
        tracks as the default, bit for bit, and as the per-call projection."""
        scene, cand = candidates[0]
        seen = []
        for y in (0.0, -0.0):
            cam = CameraSpec(position=(0.45, y, 0.95))
            assert cam == CameraSpec()
            sc = SceneSpec(**{**vars(scene), "camera": cam})
            got = _as_tuple(synthesize_observations(cand, sc, seed=1))
            assert_observations_bit_equal(got, observations_loop(cand, sc, ArtifactSpec(), 1))
            seen.append(got[0].tobytes())
        assert seen[0] == seen[1]


# sha256 over the (shape, bytes) of points, masks and q of a seed's demo 0 and
# its translation candidate, each synthesized with that seed
OBSERVATION_SHA256 = {
    (808, "affine_hi"): "44bbbe08d2097b05159bc930129c6b23ce3da03ed053101bc3f2de1c385f3bfb",
    (808, "affine_lo"): "7e57095da03fbcfb3d719df3834d7197475ab8c9dc8feb3eab4bf644f14327a6",
    (808, "clean"): "30342a84a92adc4da8ece5d0a28e9def381686a9fe294f41bdb222902dad6cdb",
    (808, "flicker_hi"): "b4b2a98ad0bf3f9eef919ab6243ecf13edc5341146dd417b9165cb2b593127ca",
    (808, "flicker_lo"): "ea1bc2eeefb41748b5b53c642d07b0cc02f12fe8d648258880317f4a778d8432",
    (808, "jitter_hi"): "60bdea155dbd7207133c231a0ce5fccb0221821ea61341bcc64c7632ac8a610f",
    (808, "jitter_lo"): "e45a054963af0f02597621a3f5f0e8733129268be06872dfeefaa9d70c213452",
    (808, "spike_hi"): "1d6f29307c5fd593233214c293641deb44338e7385889ce89c41bf12d63f0119",
    (808, "spike_lo"): "0abf97618a4c23b70a21c7a43f58d941e5a8926e3410068bb1f82d68bb001a2b",
    (808, "topo_hi"): "fc77f3019cef19c983598fe1c26ecbd35a6be8b7a43bd6af8807e9b891dfcd0e",
    (808, "topo_lo"): "c56ccb8631ebc26c60933052cf5629f4d0ef137983bbc978847f87e5cf0097d9",
    (1, "affine_hi"): "5ee37d272488a633f91784c287eb5bbe811cf156a2577870e1c1dd3118884159",
    (1, "affine_lo"): "0ca4fd5c91a39de5512fea5a4a23120fae5cf93bb829f09a0d57deade835513d",
    (1, "clean"): "8dbca0e410083889b1de96d4466c4c0b59ede39dd02e13fd6c8b73b526bc35c2",
    (1, "flicker_hi"): "f52438aa55cbded2c1662619613cdea3231e99cbbafe425cf3d3b560259f876e",
    (1, "flicker_lo"): "2a261dd754aab26a17d1eaf0cecd7393ce1bf2a5b365dea3bb770e0d3338ce9a",
    (1, "jitter_hi"): "8865ba3c3fa735065fcf9c8e1784f4e895514e2cd9ac0788c4bd1eee1f4ef41f",
    (1, "jitter_lo"): "a9f822d8a6362b220a8db00e71795884dbc0458f3e755f84f281c5a4c7a11061",
    (1, "spike_hi"): "1fdb84a29893599d443047b995d99dcc41c9299fcae7b408929b5e4d243cef43",
    (1, "spike_lo"): "9def2ac95bbf1423ffaaa6e5abcfe6a5822d330a98b8b7913d336f034fbef451",
    (1, "topo_hi"): "010134a584683ab7c9a14d8b5dd746acf684e5539d1759c30962feeba4a194fd",
    (1, "topo_lo"): "4ad32e71c9f952b6727196996905d7aa51c98a7ef8e1cbd41c9d03c52716af08",
}


@pytest.mark.parametrize("seed, kind", sorted(OBSERVATION_SHA256))
def test_observation_bytes_are_pinned(seed, kind):
    cfg = PipelineConfig(seed=seed)
    scene = sample_scene(cfg, 0)
    demo = script_success(scene, horizon=cfg.horizon, rollout_id="demo-0")
    cand, _ = perturb_one(demo, cfg, 0, FailureType.translation)
    h = hashlib.sha256()
    for ro in (demo, cand):
        for a in _as_tuple(synthesize_observations(ro, scene, ARTIFACT_KINDS[kind], seed=seed)):
            h.update(repr(a.shape).encode())
            h.update(a.tobytes())
    assert h.hexdigest() == OBSERVATION_SHA256[seed, kind]
