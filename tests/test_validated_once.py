"""Where a rollout's arrays are validated: once, where they are made.

Rollout(...) and dataclasses.replace check every value. The stages build
rollouts of arrays that step_array, or _simulate, has just checked, and
Rollout._checked runs only the cross-field rules on them. A value outside
its column's range is a validation error naming the column, wherever it
enters.
"""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

import failsynth.core
import failsynth.rollout_io
import failsynth.world
from failsynth.cli import main
from failsynth.config import PipelineConfig
from failsynth.core import ACTION_COLUMNS, STATE_COLUMNS, Rollout, step_array
from failsynth.errors import ValidationError
from failsynth.pipeline import FAILURE_TYPES, cmd_calibrate, perturb_one, sample_scene
from failsynth.rollout_io import dumps_rollout, rollout_from_record, write_rollouts
from failsynth.world import resimulate, script_success, synthesize_observations


@pytest.fixture
def step_array_calls(monkeypatch):
    """The kind of each step_array call, wherever the package makes it."""
    calls = []

    def counted(rows, kind):
        calls.append(kind)
        return step_array(rows, kind)
    for module in (failsynth.core, failsynth.rollout_io, failsynth.world):
        monkeypatch.setattr(module, "step_array", counted)
    return calls


def test_step_array_runs_once_per_array(demo, scene, step_array_calls):
    rec = json.loads(dumps_rollout(demo))
    parsed = rollout_from_record(rec)
    assert step_array_calls == ["state", "action"]
    step_array_calls.clear()
    again = resimulate(scene, demo.actions, rollout_id=demo.id)
    assert step_array_calls == ["action"]
    step_array_calls.clear()
    observed = synthesize_observations(again, scene, seed=3)
    assert step_array_calls == []
    assert dumps_rollout(parsed) == dumps_rollout(demo) == dumps_rollout(again)
    for ro in (parsed, again, observed):
        assert not ro.states.flags.writeable and not ro.actions.flags.writeable
    assert observed.states is again.states and observed.actions is again.actions


def _bad_fields(demo):
    nan = demo.states.copy()
    nan[3, 2] = np.nan
    grip = demo.actions.copy()
    grip[5, 6] = 1.5
    far = demo.states.copy()
    far[2, 5] = -1e300
    return {"nan": (dict(states=nan), "non-finite state field"),
            "gripper": (dict(actions=grip), r"action gripper_cmd must lie in \[0, 1\], got 1\.5"),
            "far": (dict(states=far), r"state yaw must lie in \[-1000\.0, 1000\.0\], "
                                      r"got -1e\+300"),
            "length": (dict(actions=demo.actions[:-1]), "len\\(states\\)=61")}


@pytest.mark.parametrize("fault", ["nan", "gripper", "far", "length"])
def test_constructors_check_every_value(demo, fault):
    fields, message = _bad_fields(demo)[fault]
    with pytest.raises(ValidationError, match=message):
        replace(demo, **fields)
    with pytest.raises(ValidationError, match=message):
        Rollout(**{**vars(demo), **fields})


def test_checked_runs_the_cross_field_rules(demo):
    with pytest.raises(ValidationError, match="len\\(states\\)"):
        Rollout._checked(id="r", task="t", states=demo.states, actions=demo.actions[:-1])
    with pytest.raises(ValidationError, match="bad outcome"):
        Rollout._checked(id="r", task="t", states=demo.states, actions=demo.actions,
                         outcome="maybe")
    a, b = (Rollout._checked(id="r", task="t", states=demo.states, actions=demo.actions)
            for _ in range(2))
    assert dumps_rollout(a) == dumps_rollout(Rollout(id="r", task="t", states=demo.states,
                                                     actions=demo.actions))
    assert a.meta == {} and a.meta is not b.meta


def test_each_column_range_is_checked():
    """Each end of each column's range is inside, the next double outside."""
    assert list(STATE_COLUMNS) == ["x", "y", "z", "roll", "pitch", "yaw", "gripper"]
    assert list(ACTION_COLUMNS) == ["dx", "dy", "dz", "droll", "dpitch", "dyaw",
                                    "gripper_cmd"]
    for kind, columns in (("state", STATE_COLUMNS), ("action", ACTION_COLUMNS)):
        for j, (name, r) in enumerate(columns.items()):
            for end, beyond in ((r.lo, -np.inf), (r.hi, np.inf)):
                row = np.zeros((1, 7))
                row[0, j] = end
                step_array(row, kind)
                row[0, j] = np.nextafter(end, beyond)
                with pytest.raises(ValidationError,
                                   match=f"^{kind} {name} must lie in {re.escape(str(r))}"):
                    step_array(row, kind)


def test_simulated_states_are_checked(demo, scene):
    """Actions inside their range can carry a state out of its range."""
    actions = demo.actions.copy()
    actions[:, 0] = 900.0
    with pytest.raises(ValidationError, match=r"^state x must lie in \[-1000\.0, 1000\.0\]"):
        resimulate(scene, actions)


@pytest.mark.parametrize("member, column", [("states", "x"), ("actions", "dyaw")])
def test_far_coordinate_fails_verify_naming_the_column(tmp_path, capsys, member, column):
    """A 1e300 coordinate in a candidate is exit 4, and no overflow warning."""
    cfg = PipelineConfig(seed=11)
    demo = script_success(sample_scene(cfg, 0), horizon=cfg.horizon, rollout_id="demo-0")
    write_rollouts(tmp_path / "demos.jsonl", [demo])
    cmd_calibrate(cfg, tmp_path / "demos.jsonl", tmp_path / "calib.json")
    rec = json.loads(dumps_rollout(perturb_one(demo, cfg, 0, FAILURE_TYPES[0])[0]))
    rec[member][5][0 if column == "x" else 5] = 1e300
    (tmp_path / "cands.jsonl").write_text(json.dumps(rec) + "\n")
    code = main(["verify", "-i", str(tmp_path / "cands.jsonl"), "--calibration",
                 str(tmp_path / "calib.json"), "-o", str(tmp_path / "out.jsonl"),
                 "--seed", "11"])
    assert code == 4
    message = f"{member[:-1]} {column} must lie in [-1000.0, 1000.0], got 1e+300"
    assert message in capsys.readouterr().err


_NAN, _FAR = float("nan"), 1e300


@pytest.mark.parametrize("faults, message", [
    ({(1, 0): _FAR, (3, 2): _NAN}, "state x must lie in"),
    ({(1, 2): _NAN, (3, 0): _FAR}, "non-finite state field"),
    ({(2, 0): _FAR, (2, 3): _NAN}, "non-finite state field"),
    ({(2, 0): _NAN, (2, 3): _FAR}, "non-finite state field"),
])
def test_whole_array_reports_the_fault_the_row_reader_meets(demo, faults, message):
    """A record's step rows report the same fault whether they are read as one
    array or row by row (forced by a later row that is not a list)."""
    rows = demo.states.tolist()
    for (i, j), v in faults.items():
        rows[i][j] = v
    for read in (rows, rows + ["not a row"]):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
            failsynth.rollout_io._step_rows(read, "state")
