"""Point-track temporal-coherence scoring.

Four complementary scores over a set of 2D tracks with visibility masks:
motion smoothness, visibility stability, local topology stability, and
global continuity (per-adjacent-pair affine fits). Each score is clipped to
[0, 1] and combined into a weighted total used by the retention gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import TrackSet
from .errors import InsufficientTrackingError, ValidationError


def quantile_sorted(values, q: float) -> float:
    """Sort-based linear-interpolation quantile of a pooled sample."""
    xs = np.sort(np.asarray(values, dtype=float).ravel())
    if xs.size == 0:
        raise ValidationError("quantile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValidationError(f"quantile {q} outside [0, 1]")
    pos = q * (xs.size - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, xs.size - 1)
    frac = pos - lo
    return float(xs[lo] + (xs[hi] - xs[lo]) * frac)


@dataclass(frozen=True)
class TrackScoreConfig:
    """Thresholds and weights for track scoring; paper leaves these open."""

    tau_acc: float = 2.0        # px/step^2
    tau_topo: float = 0.08
    tau_rmse: float = 1.5       # px
    tau_jitter: float = 0.5
    knn_k: int = 4
    eps: float = 1e-6           # px, topology denominator guard
    weights: tuple = (0.25, 0.25, 0.25, 0.25)
    spike_ratio: float = 5.0    # spike = accel above this multiple of the track median
    spike_floor: float = 10.0   # px/step^2, absolute floor under the spike threshold
    acc_quantile: float = 0.95
    global_quantile: float = 0.9
    min_track_visibility: float = 0.8   # a track counts as confident if visible this often
    min_visible_fraction: float = 0.6   # required fraction of confident tracks
    retention_floor: float = 0.75       # gate floor on the total score

    def __post_init__(self):
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValidationError("track score weights must sum to 1")


@dataclass(frozen=True)
class PointTrackScores:
    s_smooth: float
    s_vis: float
    s_topo: float
    s_global: float
    s_pt: float

    def to_dict(self) -> dict:
        return {"s_smooth": self.s_smooth, "s_vis": self.s_vis,
                "s_topo": self.s_topo, "s_global": self.s_global, "s_pt": self.s_pt}


def _clip01(v: float) -> float:
    return float(min(1.0, max(0.0, v)))


def _norm2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Lengths of the vectors (x, y), bit for bit np.linalg.norm's, without
    its slow reduction over a length-2 axis."""
    return np.sqrt(x ** 2 + y ** 2)


def _row_medians(values, valid):
    """np.median of each row's valid entries; inf for a row with none.

    Invalid entries sort last as inf, and the median is the mean of the two
    middle valid values (one value twice when the count is odd), as np.median
    takes it.
    """
    xs = np.sort(np.where(valid, values, np.inf), axis=1)
    k = np.count_nonzero(valid, axis=1)
    rows = np.arange(xs.shape[0])
    return (xs[rows, (k - 1) // 2] + xs[rows, k // 2]) / 2.0


def _smoothness(points, masks, cfg: TrackScoreConfig) -> float:
    acc = points[:, 2:] - 2.0 * points[:, 1:-1] + points[:, :-2]
    valid = masks[:, 2:] & masks[:, 1:-1] & masks[:, :-2]
    mag = _norm2(acc[..., 0], acc[..., 1])
    pooled = mag[valid]
    if pooled.size == 0:
        return 0.0
    q = quantile_sorted(pooled, cfg.acc_quantile)
    med = _row_medians(mag, valid)
    # the absolute floor keeps intentional keypoint motion (near-zero median
    # acceleration on mostly-stationary tracks) from registering as transients
    thr = np.maximum(cfg.spike_ratio * med, cfg.spike_floor)
    spikes = valid & (mag > thr[:, None])
    n_frames = mag.shape[1]
    r_spike = float(np.count_nonzero(spikes.any(axis=0))) / n_frames
    return _clip01(math.exp(-q / cfg.tau_acc) * (1.0 - r_spike))


def _visibility(masks) -> float:
    flips = masks[:, 1:] != masks[:, :-1]
    rates = flips.mean(axis=1)
    return _clip01(1.0 - float(np.median(rates)))


def _topology(points, masks, cfg: TrackScoreConfig) -> float:
    vis0 = np.nonzero(masks[:, 0])[0]
    n0 = vis0.size
    if n0 < cfg.knn_k + 1:
        return 0.0
    x, y = points[..., 0], points[..., 1]
    x0, y0 = x[vis0, 0], y[vis0, 0]
    dmat = _norm2(x0[:, None] - x0, y0[:, None] - y0)
    np.fill_diagonal(dmat, np.inf)
    # argsort's own tie order picks among the regular grid's equidistant
    # neighbours, so the edge set depends on this exact call
    near = np.argsort(dmat, axis=1)[:, :cfg.knn_k]
    here = np.arange(n0)[:, None]
    # undirected edges (min, max) as sorted unique keys min * n0 + max, which
    # are flat indices of an n0 x n0 adjacency
    adj = np.zeros(n0 * n0, dtype=bool)
    adj[np.minimum(here, near) * n0 + np.maximum(here, near)] = True
    keys = np.flatnonzero(adj)
    ia = vis0[keys // n0]
    ib = vis0[keys % n0]
    dist = _norm2(x[ia] - x[ib], y[ia] - y[ib])
    d0, dt = dist[:, 0], dist[:, 1:]
    both = masks[ia, 1:] & masks[ib, 1:]
    u = np.abs(dt - d0[:, None]) / (d0[:, None] + cfg.eps)
    pooled = u[both]
    if pooled.size == 0:
        return 0.0
    return _clip01(math.exp(-float(np.median(pooled)) / cfg.tau_topo))


def fit_affine(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares 2D affine fit dst ~= [src 1] @ theta; returns (theta, rmse)."""
    if src.shape[0] < 3:
        raise ValidationError("affine fit needs at least 3 points")
    X = np.concatenate([src, np.ones((src.shape[0], 1))], axis=1)
    theta, *_ = np.linalg.lstsq(X, dst, rcond=None)
    resid = X @ theta - dst
    rmse = float(np.sqrt(np.mean(np.sum(resid ** 2, axis=1))))
    return theta, rmse


# Smallest eigenvalue ratio lmin / lmax of a pair's centred 2x2 normal
# equations that are solved directly; below it (near-collinear points) the
# squared conditioning could cost more than 1e-10 against lstsq, which fits
# such a pair instead.
_MIN_EIG_RATIO = 1e-6


def _affine_fits(src: np.ndarray, dst: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Batched fit_affine: one (3, 2) theta per row, fitted over its w points.

    src and dst are (F, 2, M) coordinate planes and w is (F, M) bool with at
    least 3 points per row. Each row is centred on its weighted means and
    solved through its 2x2 normal equations; a near-singular row (e.g.
    collinear points) is fitted by fit_affine's lstsq instead.
    """
    wf = w[:, None, :].astype(float)
    cnt = wf.sum(axis=2, keepdims=True)
    cs = (src * wf).sum(axis=2, keepdims=True) / cnt
    cd = (dst * wf).sum(axis=2, keepdims=True) / cnt
    sc = (src - cs) * wf
    a = sc @ sc.transpose(0, 2, 1)
    b = sc @ (dst - cd).transpose(0, 2, 1)
    a00, a01, a11 = a[:, 0, 0], a[:, 0, 1], a[:, 1, 1]
    lmax = (a00 + a11) / 2.0 + np.hypot((a00 - a11) / 2.0, a01)
    good = a00 * a11 - a01 * a01 > _MIN_EIG_RATIO * lmax * lmax  # det = lmin * lmax
    a[~good] = np.eye(2)  # keeps solve from raising; lstsq refits these rows
    lin = np.linalg.solve(a, b)
    shift = cd.transpose(0, 2, 1) - cs.transpose(0, 2, 1) @ lin
    theta = np.concatenate([lin, shift], axis=1)
    for i in np.flatnonzero(~good):
        theta[i] = fit_affine(src[i][:, w[i]].T, dst[i][:, w[i]].T)[0]
    return theta


def _affine_residuals(src, dst, theta):
    """(F, 2, M) planes of [src 1] @ theta - dst."""
    return theta[:, :2].transpose(0, 2, 1) @ src + theta[:, 2, :, None] - dst


def _global_continuity(points, masks, cfg: TrackScoreConfig) -> float:
    """Per-adjacent-pair affine fits, each refit once without the points whose
    residual exceeds 3x the pair's median (independently moving keypoints are
    outliers to the dominant static-scene transform); pairs with fewer than 3
    points visible in both frames are skipped."""
    vis = (masks[:, :-1] & masks[:, 1:]).T
    fitted = np.count_nonzero(vis, axis=1) >= 3
    if not fitted.any():
        return 0.0
    # (frames, 2, tracks) coordinate planes with hidden positions zeroed; a
    # pair's fits read only its points visible in both frames
    planes = np.where(masks, points.transpose(2, 0, 1), 0.0).transpose(2, 0, 1).copy()
    t = np.flatnonzero(fitted)
    src, dst, w = planes[t], planes[t + 1], vis[t]
    theta = _affine_fits(src, dst, w)
    resid = _norm2(*_affine_residuals(src, dst, theta).transpose(1, 0, 2))
    keep = w & (resid <= 3.0 * _row_medians(resid, w)[:, None] + 1e-9)
    n_keep = np.count_nonzero(keep, axis=1)
    refit = (n_keep >= 3) & (n_keep < np.count_nonzero(w, axis=1))
    if refit.any():
        # a row without a refit gets the same fit again
        w = np.where(refit[:, None], keep, w)
        theta = _affine_fits(src, dst, w)
    rx, ry = _affine_residuals(src, dst, theta).transpose(1, 0, 2)
    sq = (rx ** 2 + ry ** 2) * w
    rmses = np.sqrt(sq.sum(axis=1) / np.count_nonzero(w, axis=1))
    # jitter only between fits of consecutive frame pairs
    adjacent = np.diff(t) == 1
    jitters = np.linalg.norm(theta[1:] - theta[:-1], axis=(1, 2))[adjacent]
    q_rmse = quantile_sorted(rmses, cfg.global_quantile)
    q_jit = quantile_sorted(jitters, cfg.global_quantile) if jitters.size else 0.0
    return _clip01(0.7 * math.exp(-q_rmse / cfg.tau_rmse)
                   + 0.3 * math.exp(-q_jit / cfg.tau_jitter))


def score_tracks(tracks: TrackSet, cfg: TrackScoreConfig = TrackScoreConfig()) -> PointTrackScores:
    """Score one track set; raises InsufficientTrackingError on low confidence."""
    points, masks = tracks.points, tracks.masks
    if tracks.num_frames < 3:
        raise ValidationError("need at least 3 frames to score tracks")
    confident = masks.mean(axis=1) >= cfg.min_track_visibility
    if np.count_nonzero(confident) < cfg.min_visible_fraction * tracks.num_tracks:
        raise InsufficientTrackingError(
            f"only {int(np.count_nonzero(confident))}/{tracks.num_tracks} tracks "
            "are confidently visible; discarding clip")
    if np.count_nonzero(masks[:, 0]) < cfg.knn_k + 1:
        raise InsufficientTrackingError("too few visible tracks in the first frame")
    s_smooth = _smoothness(points, masks, cfg)
    s_vis = _visibility(masks)
    s_topo = _topology(points, masks, cfg)
    s_global = _global_continuity(points, masks, cfg)
    w1, w2, w3, w4 = cfg.weights
    s_pt = _clip01(w1 * s_smooth + w2 * s_vis + w3 * s_topo + w4 * s_global)
    return PointTrackScores(s_smooth, s_vis, s_topo, s_global, s_pt)
