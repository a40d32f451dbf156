"""The first-frame neighbour graph the topology score reads is cached.

tracks._knn_edges keeps the kNN edges of the last first frame it was given:
the bytes of the visible points' x and y, their track indices, and knn_k.
A stage scores a demo's candidates one after another, and they share the
demo's first frame, so the graph is built once per demo. The cache holds one
entry, so what scoring a set gives can depend only on the call before it:
every ordered pair of the sets below is scored from a cleared cache and
checked against the reference of test_tracks_reference.py.
"""

import functools

import numpy as np
import pytest

from failsynth import pipeline, tracks
from failsynth.config import PipelineConfig
from failsynth.core import TrackSet
from failsynth.rollout_io import read_rollouts
from failsynth.tracks import TrackScoreConfig

from test_tracks_reference import _grid, _outcome, _package, ref_score_tracks
from test_vectorized_oracles import _drifting


def _hidden(points, rows, frame=0):
    """points with the given rows hidden (NaN) in one frame, and the masks."""
    points, masks = points.copy(), np.ones(points.shape[:2], bool)
    masks[rows, frame] = False
    points[~masks] = np.nan
    return points, masks


def _sets():
    """name -> (points, masks, cfg) of track sets that share first frames in
    every way the cache key tells apart."""
    base = _drifting(5, 30, 8)
    later = base.copy()
    later[:, 1:] += np.random.default_rng(6).normal(0, 1.0, size=(30, 7, 2))
    every = np.ones((30, 8), bool)
    # the same visible first-frame coordinates, at track indices 1..30 in one
    # set and 0..29 in the other: an extra track hidden in frame 0 comes first
    # or last
    extra = base[:1] + 7.0
    cfg, k2 = TrackScoreConfig(), TrackScoreConfig(knn_k=2)
    four = list(range(4, 30))  # all but four tracks hidden in frame 0
    return {
        "base": (base, every, cfg),
        "same-frame-0-differs-later": (later, every, cfg),
        "hidden-later": (*_hidden(base, [2, 9], frame=5), cfg),
        "hidden-at-frame-0": (*_hidden(base, [0, 3, 17]), cfg),
        "base-knn-2": (base, every, k2),
        "extra-track-first": (*_hidden(np.concatenate([extra, base]), [0]), cfg),
        "extra-track-last": (*_hidden(np.concatenate([base, extra]), [30]), cfg),
        "four-visible-knn-2": (*_hidden(base, four), k2),
        "four-visible-knn-4": (*_hidden(base, four), cfg),
        "tie-heavy-grid": (_grid(), np.ones((100, 6), bool), cfg),
    }


SETS = _sets()


@pytest.mark.parametrize("first", sorted(SETS))
def test_scores_do_not_depend_on_the_set_before(first):
    """Score `first`, then every set, from a cleared cache each time: both
    outcomes equal the reference's, float.hex for float.hex, or the same
    InsufficientTrackingError."""
    for second in sorted(SETS):
        tracks._knn_edges.cache_clear()
        for name in (first, second):
            points, masks, cfg = SETS[name]
            ts = TrackSet(points, masks)
            assert _outcome(_package, ts, cfg) == _outcome(ref_score_tracks, ts, cfg), \
                (first, second, name)
    tracks._knn_edges.cache_clear()


def test_only_too_few_first_frame_tracks_raise():
    raised = {name: _outcome(ref_score_tracks, TrackSet(p, m), cfg)
              for name, (p, m, cfg) in SETS.items()}
    raised = {name: o for name, o in raised.items() if o[0] == "insufficient"}
    assert raised == {"four-visible-knn-4": (
        "insufficient", "too few visible tracks in the first frame")}


def test_cached_edges_are_shared_and_read_only():
    points, masks, cfg = SETS["base"]
    tracks._knn_edges.cache_clear()
    tracks.score_tracks(TrackSet(points, masks), cfg)
    ia, ib = tracks._knn_edges(points[:, 0, 0].tobytes(), points[:, 0, 1].tobytes(),
                               np.arange(30).tobytes(), cfg.knn_k)
    assert tracks._knn_edges.cache_info()[:2] == (1, 1)
    assert not ia.flags.writeable and not ib.flags.writeable
    tracks._knn_edges.cache_clear()


# ---------------------------------------------------------------------------
# the criterion-8 run: seed 808, 50 demos, four candidates each

@pytest.fixture(scope="module")
def criterion8(tmp_path_factory):
    d = tmp_path_factory.mktemp("criterion8")
    cfg = PipelineConfig(seed=808)
    pipeline.cmd_generate(cfg, 50, d / "demos.jsonl")
    pipeline.cmd_perturb(cfg, d / "demos.jsonl", d / "candidates.jsonl")
    return cfg, d


def test_cache_traffic_of_pipeline_clean(criterion8, tmp_path):
    """calibrate meets 50 demos, each its own first frame; verify meets each
    demo's four candidates in a row, and builds each graph once."""
    cfg, d = criterion8
    tracks._knn_edges.cache_clear()
    pipeline.cmd_calibrate(cfg, d / "demos.jsonl", tmp_path / "calibration.json")
    assert tracks._knn_edges.cache_info()[:2] == (0, 50)
    tracks._knn_edges.cache_clear()
    pipeline.cmd_verify(cfg, d / "candidates.jsonl", tmp_path / "calibration.json",
                        tmp_path / "retained.jsonl")
    assert tracks._knn_edges.cache_info()[:2] == (150, 50)
    tracks._knn_edges.cache_clear()


def test_topology_does_not_depend_on_argsort_tie_order(criterion8, monkeypatch):
    """argsort's tie order picks among the desk grid's equidistant
    neighbours, and numpy's differs by CPU (a SIMD sort on AVX-512) and
    version. A stable sort changes some of the edge sets, but every score of
    the criterion-8 demos and candidates, the golden run's among them, stays
    float.hex-equal."""
    cfg, d = criterion8
    sets = [pipeline._with_observations(ro).tracks
            for name in ("demos.jsonl", "candidates.jsonl")
            for ro in read_rollouts(d / name)]

    def outcomes():
        tracks._knn_edges.cache_clear()
        out = [_outcome(_package, ts, cfg.tracks) for ts in sets]
        tracks._knn_edges.cache_clear()
        return out

    want = outcomes()
    monkeypatch.setattr(np, "argsort", functools.partial(np.argsort, kind="stable"))
    assert outcomes() == want
