"""Point-track temporal-coherence scoring.

Four complementary scores over a set of 2D tracks with visibility masks:
motion smoothness, visibility stability, local topology stability, and
global continuity (per-adjacent-pair affine fits). Each score is clipped to
[0, 1] and combined into a weighted total used by the retention gate.
"""

from __future__ import annotations

import math
from typing import Annotated

import numpy as np

from .core import Range, Record, TrackSet
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


class TrackScoreConfig(Record):
    """Thresholds and weights for track scoring; paper leaves these open."""

    tau_acc: Annotated[float, Range(0, lo_open=True)] = 2.0      # px/step^2
    tau_topo: Annotated[float, Range(0, lo_open=True)] = 0.08
    tau_rmse: Annotated[float, Range(0, lo_open=True)] = 1.5     # px
    tau_jitter: Annotated[float, Range(0, lo_open=True)] = 0.5
    knn_k: Annotated[int, Range(1)] = 4
    eps: Annotated[float, Range(0, lo_open=True)] = 1e-6         # px, topology denominator guard
    weights: tuple[(Annotated[float, Range(0, 1)],) * 4] = (0.25, 0.25, 0.25, 0.25)
    spike_ratio: Annotated[float, Range(0)] = 5.0  # spike = accel above this x track median
    spike_floor: Annotated[float, Range(0)] = 10.0  # px/step^2, absolute floor under it
    acc_quantile: Annotated[float, Range(0, 1)] = 0.95
    global_quantile: Annotated[float, Range(0, 1)] = 0.9
    min_track_visibility: Annotated[float, Range(0, 1)] = 0.8  # confident if visible this often
    min_visible_fraction: Annotated[float, Range(0, 1)] = 0.6  # required confident fraction
    retention_floor: Annotated[float, Range(0, 1)] = 0.75  # gate floor on the total score

    def __post_init__(self):
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValidationError(f"weights {list(self.weights)} must sum to 1")


class PointTrackScores(Record):
    s_smooth: float
    s_vis: float
    s_topo: float
    s_global: float
    s_pt: float


def _clip01(v: float) -> float:
    return float(min(1.0, max(0.0, v)))


def _norm2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Lengths of the vectors (x, y), bit for bit np.linalg.norm's, without
    its slow reduction over a length-2 axis."""
    return np.sqrt(x ** 2 + y ** 2)


def _row_medians(values, valid=None):
    """np.median of each row's valid entries (of every entry when valid is
    None, and of the whole sample when values is 1-D); inf for a row with
    none.

    Invalid entries sort last as inf, and the median is the mean of the two
    middle valid values (one value twice when the count is odd), as np.median
    takes it. numpy's vectorised sort is faster than its selection here.
    """
    if valid is None:
        xs = np.sort(values, axis=-1)
        k = xs.shape[-1]
        return (xs[..., (k - 1) // 2] + xs[..., k // 2]) / 2.0
    xs = np.sort(np.where(valid, values, np.inf), axis=1)
    k = np.count_nonzero(valid, axis=1)
    rows = np.arange(xs.shape[0])
    return (xs[rows, (k - 1) // 2] + xs[rows, k // 2]) / 2.0


# Every sub-score takes masks=None when every point is visible in every
# frame, and then does no mask work; given masks, it gives the same bits.

def _smoothness(points, masks, cfg: TrackScoreConfig) -> float:
    acc = np.multiply(points[:, 1:-1], 2.0)
    np.subtract(points[:, 2:], acc, out=acc)
    acc += points[:, :-2]
    # fresh temporaries: squaring acc in place raised the pipeline's peak
    # RSS by 3-4 MiB (glibc heap layout)
    mag = _norm2(acc[..., 0], acc[..., 1])  # (tracks, frames - 2)
    valid = None if masks is None else masks[:, 2:] & masks[:, 1:-1] & masks[:, :-2]
    pooled = mag if valid is None else mag[valid]
    if pooled.size == 0:
        return 0.0
    q = quantile_sorted(pooled, cfg.acc_quantile)
    med = _row_medians(mag, valid)
    # the absolute floor keeps intentional keypoint motion (near-zero median
    # acceleration on mostly-stationary tracks) from registering as transients
    thr = np.maximum(cfg.spike_ratio * med, cfg.spike_floor)
    spikes = mag > thr[:, None]
    if valid is not None:
        spikes &= valid
    n_frames = mag.shape[1]
    r_spike = float(np.count_nonzero(spikes.any(axis=0))) / n_frames
    return _clip01(math.exp(-q / cfg.tau_acc) * (1.0 - r_spike))


def _visibility(masks) -> float:
    if masks is None:
        return 1.0
    flips = masks[:, 1:] != masks[:, :-1]
    rates = flips.mean(axis=1)
    return _clip01(1.0 - float(_row_medians(rates)))


def _topology(points, masks, cfg: TrackScoreConfig) -> float:
    vis0 = np.arange(points.shape[0]) if masks is None else np.flatnonzero(masks[:, 0])
    n0 = vis0.size
    if n0 < cfg.knn_k + 1:
        return 0.0
    x0, y0 = points[vis0, 0, 0], points[vis0, 0, 1]
    dmat = np.subtract.outer(x0, x0)
    dmat *= dmat
    dy = np.subtract.outer(y0, y0)
    dmat += np.multiply(dy, dy, out=dy)
    np.sqrt(dmat, out=dmat)
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
    # each track's frames are one contiguous row of points
    diff = points.take(ia, axis=0)
    diff -= points.take(ib, axis=0)
    diff *= diff  # _norm2, in place
    dist = np.add(diff[..., 0], diff[..., 1])  # (edges, frames)
    np.sqrt(dist, out=dist)
    d0 = dist[:, :1]
    u = np.subtract(dist[:, 1:], d0)
    np.abs(u, out=u)
    u /= d0 + cfg.eps
    if masks is not None:
        u = u[masks[ia, 1:] & masks[ib, 1:]]
    if u.size == 0:
        return 0.0
    return _clip01(math.exp(-float(_row_medians(u.ravel())) / cfg.tau_topo))


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


def _affine_fits(src: np.ndarray, dst: np.ndarray, w) -> np.ndarray:
    """Batched fit_affine: one (3, 2) theta per row, fitted over its w points.

    src and dst are (F, 2, M) coordinate planes and w is (F, M) bool with at
    least 3 points per row, or None for every point. Each row is centred on
    its weighted means and solved through its 2x2 normal equations; a
    near-singular row (e.g. collinear points) is fitted by fit_affine's
    lstsq instead.
    """
    if w is None:
        cnt, src_w, dst_w = src.shape[2], src, dst
    else:
        wf = w[:, None, :].astype(float)
        cnt, src_w, dst_w = wf.sum(axis=2, keepdims=True), src * wf, dst * wf
    cs = src_w.sum(axis=2, keepdims=True) / cnt
    cd = dst_w.sum(axis=2, keepdims=True) / cnt
    sc = src - cs
    if w is not None:
        sc *= wf
    a = sc @ sc.transpose(0, 2, 1)
    b = sc @ (dst - cd).transpose(0, 2, 1)
    a00, a01, a11 = a[:, 0, 0], a[:, 0, 1], a[:, 1, 1]
    lmax = (a00 + a11) / 2.0 + np.hypot((a00 - a11) / 2.0, a01)
    good = a00 * a11 - a01 * a01 > _MIN_EIG_RATIO * lmax * lmax  # det = lmin * lmax
    bad = np.flatnonzero(~good)
    a[bad] = np.eye(2)  # keeps solve from raising; lstsq refits these rows
    lin = np.linalg.solve(a, b)
    shift = cd.transpose(0, 2, 1) - cs.transpose(0, 2, 1) @ lin
    theta = np.concatenate([lin, shift], axis=1)
    for i in bad:
        wi = slice(None) if w is None else w[i]
        theta[i] = fit_affine(src[i][:, wi].T, dst[i][:, wi].T)[0]
    return theta


def _sq_residuals(src, dst, theta):
    """(F, M) squared lengths of the residuals [src 1] @ theta - dst."""
    r = theta[:, :2].transpose(0, 2, 1) @ src
    r += theta[:, 2, :, None]
    r -= dst
    np.multiply(r, r, out=r)
    return r[:, 0] + r[:, 1]


def _global_continuity(points, masks, cfg: TrackScoreConfig) -> float:
    """Per-adjacent-pair affine fits, each refit once without the points whose
    residual exceeds 3x the pair's median (independently moving keypoints are
    outliers to the dominant static-scene transform); pairs with fewer than 3
    points visible in both frames are skipped."""
    # (frames, 2, tracks) coordinate planes; frame pairs are views of them
    planes = points.transpose(1, 2, 0).copy()
    if masks is None:
        # every pair is fitted over every point, given at least 3
        t = np.arange(planes.shape[0] - 1 if points.shape[0] >= 3 else 0)
        src, dst, w = planes[:-1], planes[1:], None
    else:
        # hidden positions zeroed; a pair's fits read only its points visible
        # in both frames
        np.copyto(planes, 0.0, where=~masks.T[:, None, :])
        vis = (masks[:, :-1] & masks[:, 1:]).T
        t = np.flatnonzero(np.count_nonzero(vis, axis=1) >= 3)
        src, dst, w = planes[t], planes[t + 1], vis[t]
    if t.size == 0:
        return 0.0
    theta = _affine_fits(src, dst, w)
    sq = _sq_residuals(src, dst, theta)
    resid = np.sqrt(sq)
    keep = resid <= 3.0 * _row_medians(resid, w)[:, None] + 1e-9
    if w is None:
        n_w = np.full(t.size, src.shape[2])
    else:
        keep &= w
        sq *= w
        n_w = np.count_nonzero(w, axis=1)
    n_keep = np.count_nonzero(keep, axis=1)
    refit = np.flatnonzero((n_keep >= 3) & (n_keep < n_w))
    if refit.size:
        # a row without a refit keeps its fit and its residuals
        src, dst, keep = src[refit], dst[refit], keep[refit]
        theta[refit] = _affine_fits(src, dst, keep)
        sq[refit] = _sq_residuals(src, dst, theta[refit]) * keep
        n_w[refit] = n_keep[refit]
    rmses = np.sqrt(sq.sum(axis=1) / n_w)
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
    if masks.all():
        # every track is confident; TrackSet refuses a non-finite visible
        # point, so the set is scored with no mask work
        masks = None
    else:
        confident = masks.mean(axis=1) >= cfg.min_track_visibility
        if np.count_nonzero(confident) < cfg.min_visible_fraction * tracks.num_tracks:
            raise InsufficientTrackingError(
                f"only {int(np.count_nonzero(confident))}/{tracks.num_tracks} tracks "
                "are confidently visible; discarding clip")
    n0 = tracks.num_tracks if masks is None else np.count_nonzero(masks[:, 0])
    if n0 < cfg.knn_k + 1:
        raise InsufficientTrackingError("too few visible tracks in the first frame")
    s_smooth = _smoothness(points, masks, cfg)
    s_vis = _visibility(masks)
    s_topo = _topology(points, masks, cfg)
    s_global = _global_continuity(points, masks, cfg)
    w1, w2, w3, w4 = cfg.weights
    s_pt = _clip01(w1 * s_smooth + w2 * s_vis + w3 * s_topo + w4 * s_global)
    return PointTrackScores(s_smooth, s_vis, s_topo, s_global, s_pt)
