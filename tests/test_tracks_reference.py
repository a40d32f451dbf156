"""Bit-exact reference for the track scores.

The reference is score_tracks and its four sub-scores as first vectorised:
masks applied everywhere, np.median and sort-based medians, and a fresh
array for every step. The package skips the mask work when every point is
visible, computes in place and refits only the rows whose keep set changed;
it must give the same float.hex for all five scores, and raise
InsufficientTrackingError on the same inputs, with or without hidden points.
The 1e-9 loop oracles in test_vectorized_oracles.py stay beside it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from failsynth import tracks
from failsynth.config import PipelineConfig
from failsynth.core import TrackSet
from failsynth.errors import InsufficientTrackingError
from failsynth.pipeline import FAILURE_TYPES, perturb_one, sample_scene
from failsynth.tracks import TrackScoreConfig, fit_affine
from failsynth.world import script_success, synthesize_observations

from test_vectorized_oracles import ARTIFACT_KINDS, _drifting

CFG = TrackScoreConfig()


# ---------------------------------------------------------------------------
# reference implementation

def ref_quantile(values, q):
    xs = np.sort(np.asarray(values, dtype=float).ravel())
    pos = q * (xs.size - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, xs.size - 1)
    frac = pos - lo
    return float(xs[lo] + (xs[hi] - xs[lo]) * frac)


def _clip01(v):
    return float(min(1.0, max(0.0, v)))


def ref_norm2(x, y):
    return np.sqrt(x ** 2 + y ** 2)


def ref_row_medians(values, valid):
    xs = np.sort(np.where(valid, values, np.inf), axis=1)
    k = np.count_nonzero(valid, axis=1)
    rows = np.arange(xs.shape[0])
    return (xs[rows, (k - 1) // 2] + xs[rows, k // 2]) / 2.0


def ref_smoothness(points, masks, cfg):
    acc = points[:, 2:] - 2.0 * points[:, 1:-1] + points[:, :-2]
    valid = masks[:, 2:] & masks[:, 1:-1] & masks[:, :-2]
    mag = ref_norm2(acc[..., 0], acc[..., 1])
    pooled = mag[valid]
    if pooled.size == 0:
        return 0.0
    q = ref_quantile(pooled, cfg.acc_quantile)
    med = ref_row_medians(mag, valid)
    thr = np.maximum(cfg.spike_ratio * med, cfg.spike_floor)
    spikes = valid & (mag > thr[:, None])
    r_spike = float(np.count_nonzero(spikes.any(axis=0))) / mag.shape[1]
    return _clip01(math.exp(-q / cfg.tau_acc) * (1.0 - r_spike))


def ref_visibility(masks):
    flips = masks[:, 1:] != masks[:, :-1]
    return _clip01(1.0 - float(np.median(flips.mean(axis=1))))


def ref_topology(points, masks, cfg):
    vis0 = np.nonzero(masks[:, 0])[0]
    n0 = vis0.size
    if n0 < cfg.knn_k + 1:
        return 0.0
    x, y = points[..., 0], points[..., 1]
    x0, y0 = x[vis0, 0], y[vis0, 0]
    dmat = ref_norm2(x0[:, None] - x0, y0[:, None] - y0)
    np.fill_diagonal(dmat, np.inf)
    near = np.argsort(dmat, axis=1)[:, :cfg.knn_k]
    here = np.arange(n0)[:, None]
    adj = np.zeros(n0 * n0, dtype=bool)
    adj[np.minimum(here, near) * n0 + np.maximum(here, near)] = True
    keys = np.flatnonzero(adj)
    ia = vis0[keys // n0]
    ib = vis0[keys % n0]
    dist = ref_norm2(x[ia] - x[ib], y[ia] - y[ib])
    d0, dt = dist[:, 0], dist[:, 1:]
    both = masks[ia, 1:] & masks[ib, 1:]
    u = np.abs(dt - d0[:, None]) / (d0[:, None] + cfg.eps)
    pooled = u[both]
    if pooled.size == 0:
        return 0.0
    return _clip01(math.exp(-float(np.median(pooled)) / cfg.tau_topo))


def ref_affine_fits(src, dst, w):
    wf = w[:, None, :].astype(float)
    cnt = wf.sum(axis=2, keepdims=True)
    cs = (src * wf).sum(axis=2, keepdims=True) / cnt
    cd = (dst * wf).sum(axis=2, keepdims=True) / cnt
    sc = (src - cs) * wf
    a = sc @ sc.transpose(0, 2, 1)
    b = sc @ (dst - cd).transpose(0, 2, 1)
    a00, a01, a11 = a[:, 0, 0], a[:, 0, 1], a[:, 1, 1]
    lmax = (a00 + a11) / 2.0 + np.hypot((a00 - a11) / 2.0, a01)
    good = a00 * a11 - a01 * a01 > tracks._MIN_EIG_RATIO * lmax * lmax
    a[~good] = np.eye(2)
    lin = np.linalg.solve(a, b)
    shift = cd.transpose(0, 2, 1) - cs.transpose(0, 2, 1) @ lin
    theta = np.concatenate([lin, shift], axis=1)
    for i in np.flatnonzero(~good):
        theta[i] = fit_affine(src[i][:, w[i]].T, dst[i][:, w[i]].T)[0]
    return theta


def ref_affine_residuals(src, dst, theta):
    return theta[:, :2].transpose(0, 2, 1) @ src + theta[:, 2, :, None] - dst


def ref_global_continuity(points, masks, cfg):
    vis = (masks[:, :-1] & masks[:, 1:]).T
    fitted = np.count_nonzero(vis, axis=1) >= 3
    if not fitted.any():
        return 0.0
    planes = np.where(masks, points.transpose(2, 0, 1), 0.0).transpose(2, 0, 1).copy()
    t = np.flatnonzero(fitted)
    src, dst, w = planes[t], planes[t + 1], vis[t]
    theta = ref_affine_fits(src, dst, w)
    resid = ref_norm2(*ref_affine_residuals(src, dst, theta).transpose(1, 0, 2))
    keep = w & (resid <= 3.0 * ref_row_medians(resid, w)[:, None] + 1e-9)
    n_keep = np.count_nonzero(keep, axis=1)
    refit = (n_keep >= 3) & (n_keep < np.count_nonzero(w, axis=1))
    if refit.any():
        w = np.where(refit[:, None], keep, w)
        theta = ref_affine_fits(src, dst, w)
    rx, ry = ref_affine_residuals(src, dst, theta).transpose(1, 0, 2)
    sq = (rx ** 2 + ry ** 2) * w
    rmses = np.sqrt(sq.sum(axis=1) / np.count_nonzero(w, axis=1))
    adjacent = np.diff(t) == 1
    jitters = np.linalg.norm(theta[1:] - theta[:-1], axis=(1, 2))[adjacent]
    q_rmse = ref_quantile(rmses, cfg.global_quantile)
    q_jit = ref_quantile(jitters, cfg.global_quantile) if jitters.size else 0.0
    return _clip01(0.7 * math.exp(-q_rmse / cfg.tau_rmse)
                   + 0.3 * math.exp(-q_jit / cfg.tau_jitter))


def ref_score_tracks(ts, cfg):
    points, masks = ts.points, ts.masks
    confident = masks.mean(axis=1) >= cfg.min_track_visibility
    if np.count_nonzero(confident) < cfg.min_visible_fraction * ts.num_tracks:
        raise InsufficientTrackingError(
            f"only {int(np.count_nonzero(confident))}/{ts.num_tracks} tracks "
            "are confidently visible; discarding clip")
    if np.count_nonzero(masks[:, 0]) < cfg.knn_k + 1:
        raise InsufficientTrackingError("too few visible tracks in the first frame")
    parts = (ref_smoothness(points, masks, cfg), ref_visibility(masks),
             ref_topology(points, masks, cfg), ref_global_continuity(points, masks, cfg))
    w1, w2, w3, w4 = cfg.weights
    return parts + (_clip01(w1 * parts[0] + w2 * parts[1] + w3 * parts[2] + w4 * parts[3]),)


# ---------------------------------------------------------------------------
# comparison

SUBSCORES = [(tracks._smoothness, ref_smoothness), (tracks._topology, ref_topology),
             (tracks._global_continuity, ref_global_continuity)]


def _outcome(score, ts, cfg):
    """float.hex of the five scores, or the InsufficientTrackingError message."""
    try:
        return tuple(float(s).hex() for s in score(ts, cfg))
    except InsufficientTrackingError as e:
        return ("insufficient", str(e))


def _package(ts, cfg):
    s = tracks.score_tracks(ts, cfg)
    return s.s_smooth, s.s_vis, s.s_topo, s.s_global, s.s_pt


def assert_bit_equal(points, masks, cfg=CFG):
    """Every sub-score, given the masks and, when none is hidden, given None,
    and score_tracks' outcome equal the reference's bit for bit; returns
    that outcome."""
    for fast, ref in SUBSCORES:
        want = ref(points, masks, cfg).hex()
        assert fast(points, masks, cfg).hex() == want, fast.__name__
        if masks.all():
            assert fast(points, None, cfg).hex() == want, fast.__name__
    assert tracks._visibility(masks).hex() == ref_visibility(masks).hex()
    ts = TrackSet(points, masks)
    want = _outcome(ref_score_tracks, ts, cfg)
    assert _outcome(_package, ts, cfg) == want
    return want


# ---------------------------------------------------------------------------
# inputs

@pytest.fixture(scope="module", params=[808, 1])
def rollouts(request):
    """Two demos and their candidates of every failure type, with scenes."""
    cfg = PipelineConfig(seed=request.param)
    out = []
    for i in range(2):
        scene = sample_scene(cfg, i)
        demo = script_success(scene, horizon=cfg.horizon, rollout_id=f"demo-{i}")
        out.append((scene, demo))
        out.extend((scene, perturb_one(demo, cfg, i, ft)[0]) for ft in FAILURE_TYPES)
    return out


def _grid(n_frames=6):
    """An exact 10 x 10 grid stretching along x: many equidistant neighbours."""
    axis = 100.0 + 40.0 * np.arange(10)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
    points = np.repeat(grid[:, None], n_frames, axis=1)
    points[..., 0] = 100.0 + (points[..., 0] - 100.0) * (1 + 0.02 * np.arange(n_frames))
    return points


class TestScoresMatchReference:
    @pytest.mark.parametrize("kind", sorted(ARTIFACT_KINDS))
    def test_artifact_kinds(self, rollouts, kind):
        outcomes = []
        for j, (scene, ro) in enumerate(rollouts):
            ts = synthesize_observations(ro, scene, ARTIFACT_KINDS[kind], seed=j).tracks
            outcomes.append(assert_bit_equal(ts.points, ts.masks)[0])
        if not kind.startswith("flicker"):
            assert "insufficient" not in outcomes

    @given(seed=st.integers(0, 2 ** 16), m=st.integers(2, 40), n=st.integers(3, 12),
           hide=st.sampled_from([0.0, 0.0, 0.03, 0.15, 0.5]), nan=st.booleans(),
           snap=st.booleans(), knn_k=st.sampled_from([1, 2, 4]))
    @settings(max_examples=150, deadline=None)
    def test_random_track_sets(self, seed, m, n, hide, nan, snap, knn_k):
        points = _drifting(seed, m, n)
        if snap:  # whole pixels: tied distances and residuals
            points = np.round(points)
        masks = np.random.default_rng(seed).random((m, n)) >= hide
        if nan:
            points[~masks] = np.nan
        assert_bit_equal(points, masks, TrackScoreConfig(knn_k=knn_k))

    @pytest.mark.parametrize("n_hidden", [1, 3, 12])
    def test_few_hidden_points_with_nan(self, rollouts, n_hidden):
        """A clean set with a few hidden points, NaN where they are hidden,
        still clears the confidence floor and takes the masked path."""
        scene, ro = rollouts[1]
        ts = synthesize_observations(ro, scene, seed=1).tracks
        rng = np.random.default_rng(n_hidden)
        points, masks = ts.points.copy(), ts.masks.copy()
        masks[rng.integers(0, ts.num_tracks, n_hidden),
              rng.integers(0, ts.num_frames, n_hidden)] = False
        points[~masks] = np.nan
        assert not masks.all()
        assert assert_bit_equal(points, masks)[0] != "insufficient"

    @pytest.mark.parametrize("hidden", [False, True])
    def test_collinear_frame_pair(self, monkeypatch, hidden):
        """Frame 2's points all lie on one line, so pair (2, 3) is fitted by
        fit_affine's lstsq, on both paths."""
        calls = []
        real = tracks.fit_affine

        def counting(src, dst):
            calls.append(src.shape[0])
            return real(src, dst)
        monkeypatch.setattr(tracks, "fit_affine", counting)
        rng = np.random.default_rng(4)
        base = rng.uniform(50, 550, size=(40, 2))
        t = np.arange(6)[None, :, None]
        points = base[:, None] * (1 + 0.01 * t) + t * [1.0, 2.0]
        line = np.linspace(50, 500, 40)
        points[:, 2] = np.stack([line, 0.5 * line + 1.7], axis=1)
        masks = np.ones((40, 6), bool)
        if hidden:
            masks[5, 4] = False
            points[5, 4] = np.nan
        assert assert_bit_equal(points, masks)[0] != "insufficient"
        assert calls

    @pytest.mark.parametrize("knn_k", [1, 2, 4, 8])
    def test_tie_heavy_grid(self, knn_k):
        assert_bit_equal(_grid(), np.ones((100, 6), bool), TrackScoreConfig(knn_k=knn_k))

    def test_tie_heavy_grid_with_a_hidden_point(self):
        masks = np.ones((100, 6), bool)
        masks[[0, 55], [3, 0]] = False
        assert_bit_equal(_grid(), masks)

    @pytest.mark.parametrize("m", [2, 4])
    def test_too_few_tracks_all_visible(self, m):
        """Every point visible, but fewer tracks than knn_k + 1: both raise."""
        want = assert_bit_equal(_drifting(3, m, 8), np.ones((m, 8), bool))
        assert want == ("insufficient", "too few visible tracks in the first frame")
