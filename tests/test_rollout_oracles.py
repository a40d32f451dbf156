"""Per-step oracles for the array-backed rollout layers.

The oracles are the per-step code rollouts were first written with: frozen
per-step state/action objects, a simulation loop that builds one state per
step, per-row perturbation and recovery edits, and a parser that builds one
object per JSON row. States, object trajectories, outcomes, edited actions
and record bytes must be bit-equal to them; the record parser must raise the
same error class on any mutated record. A rollout's line must be what
json.dumps writes for the record dict it was first written from.
"""

import copy
import json
import math
import struct
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import orjson
import pytest
from hypothesis import event, given, settings, strategies as st

from failsynth.cli import main
from failsynth.config import PipelineConfig
from failsynth.core import (ACTION_COLUMNS, GRIPPER, STATE_COLUMNS, JointTrace, Rollout,
                            TrackSet)
from failsynth.errors import SchemaError, ValidationError
from failsynth.labels import generate_label
from failsynth.perturb import (GRIPPER_THRESHOLD, PerturbationSpec,
                               apply_perturbation)
from failsynth.pipeline import (FAILURE_TYPES, cmd_calibrate, cmd_label,
                                perturb_one, sample_scene)
from failsynth.recovery import (GripperClose, Reclose, TranslateDelta,
                                apply_primitives, map_to_primitives)
from failsynth.rollout_io import (dumps_record, dumps_rollout, rollout_from_record,
                                  write_rollouts)
from failsynth.world import _near, _simulate, resimulate, script_success


# ---------------------------------------------------------------------------
# per-step oracles

def in_range(vals, columns):
    """Each field of a per-step object lies in its column's closed range."""
    for v, (name, r) in zip(vals, columns.items()):
        if not r.lo <= v <= r.hi:
            raise ValidationError(f"{name} {v} outside {r}")


@dataclass(frozen=True)
class RefState:
    x: float
    y: float
    z: float
    roll: float
    pitch: float
    yaw: float
    gripper: float

    def __post_init__(self):
        vals = (self.x, self.y, self.z, self.roll, self.pitch, self.yaw, self.gripper)
        if not all(math.isfinite(v) for v in vals):
            raise ValidationError("non-finite end-effector state field")
        in_range(vals, STATE_COLUMNS)

    def pose(self):
        return np.array([self.x, self.y, self.z, self.roll, self.pitch, self.yaw])

    def as_tuple(self):
        return (self.x, self.y, self.z, self.roll, self.pitch, self.yaw, self.gripper)


@dataclass(frozen=True)
class RefAction:
    dx: float
    dy: float
    dz: float
    droll: float
    dpitch: float
    dyaw: float
    gripper_cmd: float

    def __post_init__(self):
        vals = (self.dx, self.dy, self.dz, self.droll, self.dpitch, self.dyaw,
                self.gripper_cmd)
        if not all(math.isfinite(v) for v in vals):
            raise ValidationError("non-finite action field")
        in_range(vals, ACTION_COLUMNS)

    def deltas(self):
        return np.array([self.dx, self.dy, self.dz, self.droll, self.dpitch, self.dyaw])

    def as_tuple(self):
        return (self.dx, self.dy, self.dz, self.droll, self.dpitch, self.dyaw,
                self.gripper_cmd)


def ref_actions(actions):
    return tuple(RefAction(*row) for row in np.asarray(actions).tolist())


def rows(objs):
    return np.array([o.as_tuple() for o in objs])


def simulate_loop(scene, actions, trace=None):
    """Per-step simulation; trace, if given, collects the grasp transitions."""
    s0 = RefState(*scene.start_state().tolist())
    pose = s0.pose()
    states = [s0]
    obj = np.asarray(scene.object_pos, dtype=float)
    obj_traj = [obj.copy()]
    attached = None
    slip_left = 0
    for a in actions:
        before = attached
        pose = pose + a.deltas()
        depth = 1.0 - a.gripper_cmd
        ee = pose[:3]
        if attached is None:
            if depth >= scene.partial_floor and np.linalg.norm(ee - obj) <= scene.grasp_tolerance:
                attached = "full" if depth >= scene.attach_strength else "partial"
                slip_left = scene.slip_delay
        else:
            if depth < scene.partial_floor:
                attached = None
            elif depth >= scene.attach_strength:
                attached = "full"
            else:
                if attached == "full":
                    attached = "partial"
                    slip_left = scene.slip_delay
                else:
                    slip_left -= 1
                    if slip_left <= 0:
                        attached = None
                        if trace is not None:
                            trace.add("slip")
        if trace is not None and before != attached:
            trace.add(f"{before}->{attached}")
        if attached is not None:
            obj = ee.copy()
        states.append(RefState(pose[0], pose[1], pose[2], pose[3], pose[4], pose[5],
                               a.gripper_cmd))
        obj_traj.append(obj.copy())
    goal = np.asarray(scene.goal_pos, dtype=float)
    ok = np.linalg.norm(obj_traj[-1] - goal) <= scene.grasp_tolerance
    return tuple(states), np.stack(obj_traj), "success" if ok else "fail"


def apply_perturbation_loop(actions, spec):
    actions = tuple(actions)
    n = len(actions)
    k, w = spec.keyframe, spec.window
    cmds = [a.gripper_cmd for a in actions]

    def with_gripper(out):
        return tuple(replace(a, gripper_cmd=float(c)) for a, c in zip(actions, out))

    if spec.failure_type.value == "delay_close":
        d = spec.delay_steps
        pre = cmds[k - 1] if k > 0 else 1.0
        out = list(cmds)
        out[k:k + d] = [pre] * d
        out[k + d:] = cmds[k:n - d]
        return with_gripper(out)
    if spec.failure_type.value == "weak_close":
        s = spec.strength_scale
        return with_gripper([c if i < k else 1.0 - s * (1.0 - c)
                             for i, c in enumerate(cmds)])
    if spec.failure_type.value == "force_open":
        out = list(cmds)
        for i in range(max(0, k - w), min(n, k + w + 1)):
            if out[i] < GRIPPER_THRESHOLD:
                out[i] = 1.0 - out[i]
        for i in range(k + w + 1, n):
            if out[i] < GRIPPER_THRESHOLD:
                out[i] = 1.0
        return with_gripper(out)
    lo = max(0, k - w)
    count = k - lo + 1
    ddx, ddy = spec.offset_x / count, spec.offset_y / count
    out = list(actions)
    for i in range(lo, k + 1):
        out[i] = replace(out[i], dx=out[i].dx + ddx, dy=out[i].dy + ddy)
    return tuple(out)


def apply_primitives_loop(actions, primitives, ramp_window=5):
    out = list(actions)
    n = len(out)
    for prim in primitives:
        if isinstance(prim, TranslateDelta):
            lo = max(0, prim.at - ramp_window)
            count = prim.at - lo + 1
            for i in range(lo, prim.at + 1):
                out[i] = replace(out[i], dx=out[i].dx + prim.dx / count,
                                 dy=out[i].dy + prim.dy / count)
        else:
            closed = 1.0 - prim.strength
            for i in range(prim.at, n):
                if out[i].gripper_cmd > closed:
                    out[i] = replace(out[i], gripper_cmd=closed)
    return tuple(out)


def record_oracle(ro):
    """The record dict whose json.dumps is ro's line."""
    rec = {
        "id": ro.id,
        "task": ro.task,
        "states": ro.states.tolist(),
        "actions": ro.actions.tolist(),
        "joints": None if ro.joints is None else ro.joints.q.tolist(),
        "tracks": None if ro.tracks is None else {
            "points": ro.tracks.points.tolist(),
            "masks": ro.tracks.masks.astype(int).tolist(),
        },
        "spec": None if ro.spec is None else ro.spec.to_dict(),
        "outcome": ro.outcome,
    }
    if ro.meta:
        rec["meta"] = ro.meta
    return rec


def record_loop(ro, states, actions):
    """The record the per-step writer made for ro, from per-step objects."""
    rec = record_oracle(ro)
    rec["states"] = [list(s.as_tuple()) for s in states]
    rec["actions"] = [list(a.as_tuple()) for a in actions]
    return rec


def parse_loop(rec):
    """The per-step record parser; returns (states, actions) objects."""
    try:
        if rec.get("tracks") is not None:
            TrackSet(points=np.array(rec["tracks"]["points"], dtype=float),
                     masks=np.array(rec["tracks"]["masks"], dtype=bool))
        _ = rec["id"], rec["task"]
        states = tuple(RefState(*s) for s in rec["states"])
        actions = tuple(RefAction(*a) for a in rec["actions"])
        joints = None if rec.get("joints") is None else JointTrace(np.array(rec["joints"]))
        if rec.get("spec") is not None:
            PerturbationSpec.from_dict(rec["spec"])
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed rollout record: {exc}") from exc
    if len(states) != len(actions) + 1 or len(actions) < 1:
        raise ValidationError("length")
    if joints is not None and len(joints) != len(states):
        raise ValidationError("joint length")
    if rec.get("outcome") not in (None, "success", "fail"):
        raise ValidationError("outcome")
    return states, actions


def assert_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_simulation_matches(scene, actions, trace=None):
    states, traj, outcome = _simulate(scene, np.asarray(actions, dtype=float))
    ref_states, ref_traj, ref_outcome = simulate_loop(scene, ref_actions(actions),
                                                      trace)
    assert_bits(states, rows(ref_states))
    assert_bits(traj, ref_traj)
    assert outcome == ref_outcome
    return outcome


# ---------------------------------------------------------------------------
# fixtures

@pytest.fixture(scope="module")
def cases():
    """(scene, demo, {failure type: candidate}) for 12 scenes of two seeds."""
    out = []
    for seed in (808, 1):
        cfg = PipelineConfig(seed=seed)
        for i in range(6):
            scene = sample_scene(cfg, i)
            demo = script_success(scene, horizon=cfg.horizon, rollout_id=f"demo-{i}")
            cands = {ft: perturb_one(demo, cfg, i, ft)[0] for ft in FAILURE_TYPES}
            out.append((scene, demo, cands))
    return out


@pytest.fixture(scope="module")
def demo_case(cases):
    return cases[0]


# ---------------------------------------------------------------------------
# simulation

class TestSimulation:
    def test_demos_and_every_failure_type(self, cases):
        for scene, demo, cands in cases:
            assert assert_simulation_matches(scene, demo.actions) == "success"
            for cand in cands.values():
                assert assert_simulation_matches(scene, cand.actions) == cand.outcome
                assert_bits(resimulate(scene, cand.actions).states, cand.states)

    def test_script_success_states(self, cases):
        for scene, demo, _ in cases:
            ref_states, _, _ = simulate_loop(scene, ref_actions(demo.actions))
            assert_bits(demo.states, rows(ref_states))

    @pytest.mark.parametrize("after_close, expected", [
        ([(1, 0.0)], {"None->full"}),
        ([(1, 0.5)], {"None->partial", "slip", "partial->None"}),
        ([(3, 0.0), (1, 0.5)], {"None->full", "full->partial", "slip", "partial->None"}),
        ([(3, 0.0), (3, 1.0), (1, 0.0)], {"None->full", "full->None"}),
        ([(2, 0.5), (1, 0.0)], {"None->partial", "partial->full"}),
    ])
    def test_grasp_transitions(self, demo_case, after_close, expected):
        """Each branch of the attach/slip rule, against the oracle. The demo
        closes at action k; after_close lists (steps, command) from k on, the
        last held to the end."""
        scene, demo, _ = demo_case
        k = int(np.argmax(demo.actions[:, GRIPPER] < 0.5))
        g = [1.0] * k
        for steps, cmd in after_close:
            g += [cmd] * steps
        g += [g[-1]] * (demo.horizon - len(g))
        actions = demo.actions.copy()
        actions[:, GRIPPER] = g
        trace = set()
        assert_simulation_matches(scene, actions, trace)
        assert expected <= trace

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_gripper_sequences(self, demo_case, data):
        """Open until a drawn step, then random open / full / partial / shallow
    segments; random steps hold still."""
        scene, demo, _ = demo_case
        levels = st.one_of(
            st.just(1.0), st.just(0.0),
            st.floats(0.0, 1.0 - scene.attach_strength),                 # full
            st.floats(1.0 - scene.attach_strength, 1.0 - scene.partial_floor),  # partial
            st.floats(1.0 - scene.partial_floor, 1.0))                  # shallow
        k = int(np.argmax(demo.actions[:, GRIPPER] < 0.5))
        opened = data.draw(st.integers(0, k + 3))  # the demo holds still near k
        segs = data.draw(st.lists(st.tuples(st.integers(1, 12), levels),
                                  min_size=1, max_size=12))
        g = np.concatenate([np.ones(opened)] + [np.full(n, c) for n, c in segs])
        g = np.resize(g, demo.horizon)
        actions = demo.actions.copy()
        actions[:, GRIPPER] = g
        still = data.draw(st.lists(st.integers(0, demo.horizon - 1), max_size=20))
        actions[still, :GRIPPER] = 0.0  # hold position: re-grasps become possible
        trace = set()
        assert_simulation_matches(scene, actions, trace)
        for name in sorted(trace):
            event(name)

    def test_near_matches_norm_at_the_tolerance(self):
        """Distances within a few ulps of the tolerance are decided as
        np.linalg.norm decides them."""
        rng = np.random.default_rng(0)
        spot = np.array([0.43, -0.12, 0.02])
        tol = 0.01
        dirs = rng.normal(size=(400, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        ulps = rng.integers(-8, 9, size=400)
        points = spot + dirs * (tol * (1.0 + ulps * np.finfo(float).eps))[:, None]
        want = [bool(np.linalg.norm(p - spot) <= tol) for p in points]
        assert _near(points, spot, tol) == want
        assert 0 < sum(want) < len(want)


# ---------------------------------------------------------------------------
# action edits

class TestEdits:
    def test_perturbation_every_demo_and_type(self, cases):
        for _, demo, cands in cases:
            for cand in cands.values():
                got = apply_perturbation(demo.actions, cand.spec)
                assert_bits(got, rows(apply_perturbation_loop(ref_actions(demo.actions),
                                                              cand.spec)))
                assert_bits(got, cand.actions)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_perturbation_random(self, demo_case, data):
        _, demo, _ = demo_case
        actions = demo.actions.copy()
        n = len(actions)
        actions[:, GRIPPER] = data.draw(st.lists(
            st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0),
            min_size=n, max_size=n))
        k = data.draw(st.integers(0, n - 1))
        w = data.draw(st.integers(1, 12))
        ft = data.draw(st.sampled_from(FAILURE_TYPES))
        spec = PerturbationSpec(
            ft, k, window=w,
            delay_steps=data.draw(st.integers(0, n - 1 - k)),
            strength_scale=data.draw(st.floats(0.01, 1.0)),
            offset_x=data.draw(st.floats(-0.05, 0.05)),
            offset_y=data.draw(st.floats(-0.05, 0.05)), sigma=0.02, seed=1)
        got = apply_perturbation(actions, spec)
        assert_bits(got, rows(apply_perturbation_loop(ref_actions(actions), spec)))

    def test_primitives_self_labels(self, cases):
        for scene, _, cands in cases:
            for cand in cands.values():
                label = generate_label(cand.spec, bin_size=0.01,
                                       attach_strength=scene.attach_strength)
                prims = map_to_primitives(label, 0.01, keyframe=cand.spec.keyframe)
                got = apply_primitives(cand.actions, prims)
                assert_bits(got, rows(apply_primitives_loop(ref_actions(cand.actions),
                                                            prims)))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_primitives_random(self, demo_case, data):
        _, demo, _ = demo_case
        n = demo.horizon
        at = st.integers(0, n - 1)
        prim = st.one_of(
            st.builds(TranslateDelta, dx=st.floats(-0.05, 0.05),
                      dy=st.floats(-0.05, 0.05), at=at),
            st.builds(GripperClose, at=at, strength=st.floats(0.0, 1.0)),
            st.builds(Reclose, at=at, strength=st.floats(0.0, 1.0)))
        prims = data.draw(st.lists(prim, max_size=4))
        window = data.draw(st.integers(1, 10))
        got = apply_primitives(demo.actions, prims, ramp_window=window)
        want = apply_primitives_loop(ref_actions(demo.actions), prims, window)
        assert_bits(got, rows(want))


# ---------------------------------------------------------------------------
# records

def _from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _neighbours(v):
    return [float(np.nextafter(v, -np.inf)), v, float(np.nextafter(v, np.inf))]


# each power of ten from 1e-5 to 1e17, with the doubles on either side
_EDGES = [w for k in range(-5, 18) for v in (10.0 ** k, -(10.0 ** k))
          for w in _neighbours(v)]
# uniform bits: every exponent, subnormals included, equally often
_FLOATS = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(_from_bits).filter(math.isfinite),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                     *_neighbours(1e-4), *_neighbours(-1e16)]),
    st.sampled_from(_EDGES), st.floats(-1.0, 1.0))
# _FLOATS inside the range of the other state and action columns: every exponent
# from the subnormals up, the range's ends and the edges _FLOATS samples
_FAR = STATE_COLUMNS["x"]
_STEP_FLOATS = st.one_of(
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, math.frexp(_FAR.hi)[1] - 1)),
    st.sampled_from([v for v in (*_EDGES, _FAR.lo, _FAR.hi, 0.0, -0.0, 5e-324)
                     if _FAR.lo <= v <= _FAR.hi]))
_GRIPPER = st.one_of(st.floats(0.0, 1.0),
                     st.sampled_from([0.0, 5e-324, 1e-5, *_neighbours(1e-4), 1.0]))
_REPR_RANGE = st.one_of(
    st.builds(lambda sign, e, m: sign * math.ldexp(1.0 + m / 2.0 ** 52, e),
              st.sampled_from([1.0, -1.0]), st.integers(-14, 53),
              st.integers(0, 2 ** 52 - 1)),
    st.sampled_from(_EDGES)).filter(lambda v: 1e-4 <= abs(v) < 1e16)
_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('\x00\x1f\x7f"\\é\u2028😀')),
                max_size=8)
_META = st.dictionaries(_TEXT, st.recursive(
    st.none() | st.booleans() | st.integers() | _FLOATS | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=6), max_size=3)
_SPECS = st.sampled_from([
    None, PerturbationSpec("weak_close", 3, strength_scale=1e-5),
    PerturbationSpec("translation", 7, offset_x=0.01, offset_y=-2e-5, sigma=0.02,
                     seed=1)])


@st.composite
def _rollouts(draw):
    """A Rollout of 1-3 steps with drawn floats (inside the column ranges in
    states and actions), optional joints and tracks
    (a NaN or an infinity may sit at a hidden track point), spec, outcome,
    id, task and meta."""
    t = draw(st.integers(1, 3))

    def floats(*shape, elements=_FLOATS):
        n = int(np.prod(shape))
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)),
                        dtype=float).reshape(shape)

    def steps(n):
        grip = draw(st.lists(_GRIPPER, min_size=n, max_size=n))
        return np.column_stack([floats(n, 6, elements=_STEP_FLOATS), grip])

    joints = tracks = None
    if draw(st.booleans()):
        joints = JointTrace(floats(t + 1, 7))
    if draw(st.booleans()):
        m = draw(st.integers(0, 2))
        points = floats(m, t + 1, 2)
        masks = np.array(draw(st.lists(st.booleans(), min_size=m * (t + 1),
                                       max_size=m * (t + 1))), dtype=bool).reshape(m, t + 1)
        hidden = np.argwhere(~masks)
        if len(hidden) and draw(st.booleans()):
            i = draw(st.integers(0, len(hidden) - 1))
            points[tuple(hidden[i])] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        tracks = TrackSet(points=points, masks=masks)
    return Rollout(id=draw(_TEXT), task=draw(_TEXT), states=steps(t + 1), actions=steps(t),
                   joints=joints, tracks=tracks, spec=draw(_SPECS),
                   outcome=draw(st.sampled_from([None, "success", "fail"])),
                   meta=draw(_META))


class TestRecords:
    def test_bytes_match_per_step_writer(self, cases):
        for scene, demo, cands in cases:
            for ro in (demo, *cands.values()):
                ref_states, _, _ = simulate_loop(scene, ref_actions(ro.actions))
                want = dumps_record(record_loop(ro, ref_states, ref_actions(ro.actions)))
                assert dumps_rollout(ro) == want
                back = rollout_from_record(json.loads(want))
                assert dumps_rollout(back) == want

    def test_parse_matches_per_step_parser(self, cases):
        for _, demo, cands in cases:
            for ro in (demo, *cands.values()):
                rec = json.loads(dumps_rollout(ro))
                ref_states, ref_acts = parse_loop(rec)
                got = rollout_from_record(rec)
                assert_bits(got.states, rows(ref_states))
                assert_bits(got.actions, rows(ref_acts))

    @settings(max_examples=200, deadline=None)
    @given(ro=_rollouts())
    def test_dumps_rollout_is_json_dumps_of_the_record(self, ro):
        """The same line, or the same ValueError (a NaN or an infinity at a
        hidden track point)."""
        try:
            want = json.dumps(record_oracle(ro), separators=(",", ":"), allow_nan=False)
        except ValueError as exc:
            event("ValueError")
            with pytest.raises(ValueError) as got:
                dumps_rollout(ro)
            assert str(got.value) == str(exc)
            return
        event(f"joints {ro.joints is not None}, tracks {ro.tracks is not None}, "
              f"meta {bool(ro.meta)}")
        assert dumps_rollout(ro) == want

    @settings(max_examples=1000, deadline=None)
    @given(v=_REPR_RANGE)
    def test_orjson_spells_floats_as_repr_from_1e_minus_4_to_1e16(self, v):
        """dumps_rollout hands orjson the floats in this range only."""
        assert orjson.dumps(v).decode() == repr(v)


# ---------------------------------------------------------------------------
# malformed candidate files through the CLI

_VALUES = st.one_of(
    st.none(), st.sampled_from(["abc", "0.5", "", "nan"]),
    st.just(float("nan")), st.just(float("inf")), st.just(-float("inf")),
    st.floats(allow_nan=False, allow_infinity=False), st.booleans(),
    st.integers(-10, 10), st.just(2 ** 70), st.just([]), st.just([1.0]),
    st.just({}), st.just({"x": 1.0}), st.sampled_from([1.5, -0.5, 1.0, 0.0, -0.0]))
_FIELD_VALUES = st.one_of(
    st.none(), st.just({}), st.just(""), st.just([]), st.just(5), st.just("abc"),
    st.just([[[0.0] * 7]]), st.just([[0.0] * 7]))


@st.composite
def _mutation(draw, rec):
    """One edit of rec's states or actions, applied in place."""
    def value(strategy):
        return copy.deepcopy(draw(strategy))  # st.just hands out one shared object
    field = draw(st.sampled_from(["states", "actions"]))
    rows_ = rec.get(field)
    kind = draw(st.sampled_from(["value", "value", "gripper", "width", "row",
                                 "drop_row", "field", "delete"]))
    if not isinstance(rows_, list) or not rows_ or kind == "field":
        rec[field] = value(_FIELD_VALUES)
        return
    if kind == "delete":
        del rec[field]
        return
    i = draw(st.integers(0, len(rows_) - 1))
    row = rows_[i]
    if kind == "drop_row":
        del rows_[i]
    elif kind == "row" or not isinstance(row, list) or not row:
        rows_[i] = value(st.one_of(_VALUES, st.just(["x"] * 7)))
    elif kind == "gripper" and len(row) == 7:
        row[6] = draw(st.sampled_from([1.5, -0.5, 1.0 + 1e-12, -1e-300, 1.0, 0.0]))
    elif kind == "width":
        if draw(st.booleans()):
            del row[draw(st.integers(0, len(row) - 1))]
        else:
            row.append(value(_VALUES))
    else:
        row[draw(st.integers(0, len(row) - 1))] = value(_VALUES)


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """Two candidate records and a calibration file."""
    d = tmp_path_factory.mktemp("mutated")
    cfg = PipelineConfig(seed=5)
    scene = sample_scene(cfg, 0)
    demo = script_success(scene, horizon=cfg.horizon, rollout_id="demo-0")
    write_rollouts(d / "demos.jsonl", [demo])
    cmd_calibrate(cfg, d / "demos.jsonl", d / "calib.json")
    recs = [json.loads(dumps_rollout(perturb_one(demo, cfg, 0, ft)[0]))
            for ft in FAILURE_TYPES[:2]]
    return d, recs


@pytest.fixture(scope="module")
def labeled_inputs(tmp_path_factory):
    """A labeled record of each failure type and a calibration file."""
    d = tmp_path_factory.mktemp("mutated_nested")
    cfg = PipelineConfig(seed=5)
    demo = script_success(sample_scene(cfg, 0), horizon=cfg.horizon, rollout_id="demo-0")
    write_rollouts(d / "demos.jsonl", [demo])
    cmd_calibrate(cfg, d / "demos.jsonl", d / "calib.json")
    write_rollouts(d / "cands.jsonl", [perturb_one(demo, cfg, 0, ft)[0]
                                       for ft in FAILURE_TYPES])
    cmd_label(cfg, d / "cands.jsonl", d / "labeled.jsonl")
    return d, [json.loads(line) for line in (d / "labeled.jsonl").read_text().splitlines()]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_candidates_exit_like_per_step_parser(cli_inputs, data):
    """No mutated candidate file gives a traceback; the exit code is the one
    the per-step parser's error gives (schema 2, validation 4). A record the
    per-step parser accepts parses to the same bits, so everything after
    parsing runs on the same arrays."""
    d, recs = cli_inputs
    recs = json.loads(json.dumps(recs))
    which = data.draw(st.integers(0, len(recs) - 1))
    for _ in range(data.draw(st.integers(1, 3))):
        data.draw(_mutation(recs[which]))
    path = d / "cands.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in recs))
    try:
        ref = parse_loop(recs[which])
        expected: Optional[int] = None
    except SchemaError:
        expected = 2
    except ValueError:
        expected = 4
    event(f"expected exit {expected}")
    code = main(["verify", "-i", str(path), "--calibration", str(d / "calib.json"),
                 "-o", str(d / "retained.jsonl"), "--seed", "5"])
    if expected is None:
        got = rollout_from_record(recs[which])
        assert_bits(got.states, rows(ref[0]))
        assert_bits(got.actions, rows(ref[1]))
        assert code in (0, 4)
    else:
        assert code == expected


# The nested objects of a labeled record that some stage decodes.
_NESTED = (("spec",), ("meta",), ("meta", "scene"), ("meta", "scene", "camera"),
           ("meta", "artifacts"))


@st.composite
def _nested_mutation(draw, rec):
    """One edit of a nested object of rec, applied in place: delete a key,
    add an unknown key, set a key's value or replace the whole object."""
    def value():
        return copy.deepcopy(draw(_FIELD_VALUES))
    path = draw(st.sampled_from(_NESTED))
    parent = rec
    for key in path[:-1]:
        parent = parent.get(key) if isinstance(parent, dict) else None
    if not isinstance(parent, dict) or not isinstance(parent.get(path[-1]), dict):
        return  # an earlier edit replaced an object on the path
    obj = parent[path[-1]]
    kind = draw(st.sampled_from(["delete", "unknown", "value", "replace"]))
    if kind == "replace":
        parent[path[-1]] = value()
    elif kind == "unknown":
        obj[draw(st.sampled_from(["wormhole", "x", ""]))] = value()
    elif obj:
        key = draw(st.sampled_from(sorted(obj)))
        if kind == "delete":
            del obj[key]
        else:
            obj[key] = value()


def _set_meta(key, value):
    def edit(rec):
        if isinstance(rec.get("meta"), dict):
            rec["meta"][key] = value
    return edit


def _set_tracks(points=((0.0, 0.0),), masks=(1,)):
    return lambda rec: rec.update(tracks={"points": [list(points)], "masks": [list(masks)]})


# Edits of the array members a rollout record holds, and of its observation seed.
_MEMBER_EDITS = (
    lambda rec: rec.update(joints=[[0.0] * 7, [0.0] * 6]),
    lambda rec: rec.update(joints=[[0.0] * 7, ["abc"] * 7]),
    lambda rec: rec.update(joints=[[0.0] * 7, ["0.5"] * 7]),
    _set_tracks(points=([0.0, 0.0], [0.0])),
    _set_tracks(points=([0.0, "a"],)),
    _set_tracks(masks=(1, [0])),
    _set_tracks(masks=("abc",)),
    _set_meta("obs_seed", -1),
)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_nested_objects_never_give_a_traceback(labeled_inputs, data):
    """verify, label, perturb and recover on a record whose spec, meta, scene,
    camera or artifacts were edited, or whose joints, tracks or meta.obs_seed
    hold ragged rows, strings or -1, exit 0, 2 or 4, without a traceback."""
    d, recs = labeled_inputs
    recs = copy.deepcopy(recs)
    which = data.draw(st.integers(0, len(recs) - 1))
    for _ in range(data.draw(st.integers(1, 3))):
        data.draw(_nested_mutation(recs[which]))
    if data.draw(st.booleans()):
        data.draw(st.sampled_from(_MEMBER_EDITS))(recs[which])
    path = d / "in.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in recs))
    stage = data.draw(st.sampled_from(["verify", "label", "perturb", "recover"]))
    argv = [stage, "-i", str(path), "-o", str(d / "out.jsonl"), "--seed", "5"]
    if stage == "verify":
        argv += ["--calibration", str(d / "calib.json")]
    code = main(argv)
    event(f"{stage} exit {code}")
    assert code in (0, 2, 4)
