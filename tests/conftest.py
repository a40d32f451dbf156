import sys

import pytest

from failsynth.config import PipelineConfig
from failsynth import pipeline
from failsynth.pipeline import sample_scene
from failsynth.verify import calibrate_idm, calibrate_joints, OraclePredictor
from failsynth.world import script_success, synthesize_observations


@pytest.fixture(autouse=True)
def recursion_limit_kept():
    """Fail a test that leaves the interpreter's recursion limit changed:
    how deep a JSONL line json reads (read_records) depends on it."""
    limit = sys.getrecursionlimit()
    yield
    left = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    assert left == limit, f"the test left the recursion limit at {left}, not {limit}"


@pytest.fixture
def clients(monkeypatch):
    """Every semantic client cmd_verify builds."""
    made = []
    build = pipeline.client_from_endpoint

    def recording(*args):
        made.append(build(*args))
        return made[-1]
    monkeypatch.setattr(pipeline, "client_from_endpoint", recording)
    return made


@pytest.fixture(scope="session")
def cfg():
    return PipelineConfig(seed=123)


@pytest.fixture(scope="session")
def scene(cfg):
    return sample_scene(cfg, 0)


@pytest.fixture(scope="session")
def demo(scene):
    return script_success(scene, horizon=60, rollout_id="demo-0")


@pytest.fixture(scope="session")
def demos(cfg):
    out = []
    for i in range(6):
        sc = sample_scene(cfg, i)
        ro = script_success(sc, horizon=60, rollout_id=f"demo-{i}")
        out.append(synthesize_observations(ro, sc, seed=i))
    return out


@pytest.fixture(scope="session")
def observed_demo(demos):
    return demos[0]


@pytest.fixture(scope="session")
def calibrations(demos, cfg):
    idm = calibrate_idm(demos, OraclePredictor(), margin=cfg.verifier.idm_margin)
    joints = calibrate_joints(demos, margin=cfg.verifier.joint_margin)
    return idm, joints
