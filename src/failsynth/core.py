"""Core trajectory types, keyframe detection, and pose differencing."""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from typing import Annotated, NamedTuple, Optional

import numpy as np

from .errors import SchemaError, ValidationError

TWO_PI = 2.0 * math.pi
NUM_JOINTS = 7

POSE_FIELDS = ("x", "y", "z", "roll", "pitch", "yaw")
DELTA_FIELDS = ("dx", "dy", "dz", "droll", "dpitch", "dyaw")


def wrap_angle(a):
    """Map an angle (difference) onto the shortest arc in (-pi, pi].

    Works elementwise on arrays. Without this, finite-difference checks on
    rpy channels see 2*pi spikes at the branch cut.
    """
    return -((-a + math.pi) % TWO_PI - math.pi)


# ---------------------------------------------------------------------------
# JSON codec for record dataclasses

# Types of the JSON values each scalar annotation accepts; an int is a float,
# a bool is no number.
_SCALARS = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}
# Types whose values are their own JSON form.
_JSON_SCALARS = frozenset({bool, int, float, str, type(None)})


def decode(tp, v, name: str):
    """The JSON value v checked and decoded as the annotation tp: a scalar,
    Optional[...], an enum (by value), a dataclass, tuple[...] or np.ndarray
    (JSON lists of numbers) or dict[str, ...]. A value that does not fit is a
    SchemaError naming the field."""
    if tp in _SCALARS:
        if isinstance(v, _SCALARS[tp]) and (tp is bool or not isinstance(v, bool)):
            return v
    elif (origin := typing.get_origin(tp)) is typing.Union:  # Optional[X]
        return None if v is None else decode(typing.get_args(tp)[0], v, name)
    elif tp is np.ndarray or origin is tuple:
        items = (float, ...) if tp is np.ndarray else typing.get_args(tp)
        if isinstance(v, (list, tuple)) and (items[-1] is ... or len(v) == len(items)):
            if items[0] is float and {int, float}.issuperset(map(type, v)):
                return tuple(v)  # the common case, numbers, without a call per item
            return tuple([decode(t, x, name) for t, x in
                          zip(repeat(items[0]) if items[-1] is ... else items, v)])
    elif tp is dict or origin is dict:
        if isinstance(v, dict):
            return v if tp is dict else {k: decode(typing.get_args(tp)[1], x, name)
                                         for k, x in v.items()}
    elif dataclasses.is_dataclass(tp):
        return _decode_object(tp, v, name)
    elif issubclass(tp, Enum):
        try:
            return tp(v)
        except (ValueError, TypeError):
            pass
    type_name = tp.__name__ if isinstance(tp, type) else str(tp).replace("typing.", "")
    raise SchemaError(f"{name} must be of type {type_name}, "
                      f"got {json.dumps(v, default=repr):.200}")


def _to_json(v):
    """The JSON form of a field value: lists for tuples and arrays, an enum's
    value, an object for a dataclass."""
    if type(v) in _JSON_SCALARS:
        return v
    if isinstance(v, tuple):
        return [_to_json(x) for x in v]
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, Enum):
        return v.value
    if isinstance(v, dict):
        return {k: _to_json(x) for k, x in v.items()}
    if dataclasses.is_dataclass(v):
        return _encode_object(v)
    return v


class Range(NamedTuple):
    """The numbers a field accepts, declared in its annotation: Annotated[float,
    Range(0, 1, lo_open=True)] is (0, 1]. An open end excludes its value, an
    absent end is infinite and open, and NaN lies in no range."""

    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = False
    hi_open: bool = False

    def __str__(self) -> str:
        return (f"{'[('[self.lo_open or self.lo == -math.inf]}{self.lo}, "
                f"{self.hi}{'])'[self.hi_open or self.hi == math.inf]}")

    def closed(self) -> tuple[float, float]:
        """(lo, hi): v lies in the range exactly when lo <= v <= hi."""
        inf = math.inf
        return (math.nextafter(self.lo, inf) if self.lo_open or self.lo == -inf else self.lo,
                math.nextafter(self.hi, -inf) if self.hi_open or self.hi == inf else self.hi)


def check_order(a: str, u, b: str, v, strict=False) -> None:
    """The cross-field rule u <= v (u < v if strict) on fields a and b."""
    if u >= v if strict else u > v:
        raise ValidationError(f"{a} {u!r} must be {'<' if strict else '<='} {b} {v!r}")


def _bounds(tp, name: str, index=None, size=None) -> list:
    """(field, index, size, lo, hi, Range) per number the annotation tp bounds, where
    index is None, a position in a tuple of size numbers, or ... for each dict value,
    and lo <= v <= hi exactly when v lies in the Range (open ends move inward)."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is Annotated:
        return [(name, index, size, *r.closed(), r)
                for r in tp.__metadata__ if isinstance(r, Range)]
    if origin is tuple and args[-1] is not ...:
        return [b for i, t in enumerate(args) for b in _bounds(t, name, i, len(args))]
    if origin is typing.Union:  # Optional[X]
        return _bounds(args[0], name)
    return _bounds(args[1], name, ...) if origin is dict else []


@functools.cache
def _plan(cls) -> tuple:
    """The field plan of the dataclass cls: (name, annotation, exact) per
    field, where a JSON value whose type is in exact is the field value
    itself, and the names of the fields without a default."""
    def exact(tp):  # scalars, which are also their own JSON form
        if typing.get_origin(tp) is typing.Union:  # Optional[X]
            inner = exact(typing.get_args(tp)[0])
            return inner and inner + (type(None),)
        return _SCALARS.get(tp, ())
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    return (tuple((f.name, hints[f.name], exact(hints[f.name])) for f in fields),
            tuple(f.name for f in fields
                  if f.default is f.default_factory is dataclasses.MISSING))


def _encode_object(obj) -> dict:
    return {n: getattr(obj, n) if exact else _to_json(getattr(obj, n))
            for n, _, exact in _plan(type(obj))[0]}


def _decode_object(cls, data, name: str):
    fields, required = _plan(cls)
    names = cls.__dataclass_fields__.keys()
    if not decode(dict, data, name).keys() <= names:
        raise SchemaError(f"unknown {name} keys: {sorted(data.keys() - names)}")
    missing = [n for n in required if n not in data]
    if missing:
        raise SchemaError(f"{name} lacks keys: {missing}")
    kwargs = {}
    for n, tp, exact in fields:
        if n in data:
            v = data[n]
            kwargs[n] = v if type(v) in exact else decode(tp, v, f"{name}.{n}")
    try:
        return cls(**kwargs)
    except ValidationError as exc:  # a range or cross-field fault, which names its field
        raise type(exc)(f"{name}.{exc}") from None


class Record:
    """Base of the records stages write and read as JSON objects.

    A subclass is made a frozen dataclass where it is defined, and its field
    plan is built there too: a plan built while records stream leaves its
    long-lived objects among short-lived ones, which cost 1-2 MiB of peak RSS
    on the gate-mixed benchmark. The codec follows the field annotations
    (see decode). from_dict is the one rule for every JSON object a stage
    reads: an unknown key or a mistyped value is a SchemaError, and a missing
    key takes the field's default, or is a SchemaError when the field has
    none. to_dict gives lists for tuples and arrays, and an enum's value.
    Construction checks each declared Range, then the class's own
    __post_init__ (its cross-field rules), raising ValidationError; from_dict
    prefixes the dotted path.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        bounds = [b for n, tp in typing.get_type_hints(cls, include_extras=True).items()
                  for b in _bounds(tp, n)]
        hook = cls.__dict__.get("__post_init__", lambda self: None)  # cross-field rules

        def __post_init__(self):
            for n, i, size, lo, hi, r in bounds:
                v = getattr(self, n)
                if i is ...:  # a dict: its first value out of range, else lo
                    i, v = next(((k, x) for k, x in v.items() if not lo <= x <= hi), (i, lo))
                elif i is not None:
                    if len(v) != size:
                        raise ValidationError(f"{n} must hold {size} numbers, got {v!r}")
                    v = v[i]
                if v is not None and not lo <= v <= hi:
                    raise ValidationError(
                        f"{n}{'' if i is None else f'[{i!r}]'} must lie in {r}, got {v!r}")
            hook(self)
        cls.__post_init__ = __post_init__
        dataclass(frozen=True)(cls)
        _plan(cls)

    def to_dict(self) -> dict:
        return _encode_object(self)

    @classmethod
    def from_dict(cls, data):
        return _decode_object(cls, data, cls.__name__)


def read_keys(data, types: dict, name: str) -> tuple:
    """The values of the keys of types in the JSON object data, each decoded
    as its annotation; other keys are allowed, a missing one is a SchemaError."""
    missing = [k for k in types if k not in decode(dict, data, name)]
    if missing:
        raise SchemaError(f"{name} lacks keys: {missing}")
    return tuple(decode(tp, data[k], f"{name}.{k}") for k, tp in types.items())


class FailureType(str, Enum):
    translation = "translation"
    weak_close = "weak_close"
    force_open = "force_open"
    delay_close = "delay_close"


# Column order and range of a Rollout's per-step arrays: meters and radians, far
# beyond a desk arm and from overflow; a gripper command is 1 open, 0 closed.
_FAR = Range(-1e3, 1e3)
STATE_COLUMNS = {**dict.fromkeys(POSE_FIELDS, _FAR), "gripper": Range(0, 1)}
ACTION_COLUMNS = {**dict.fromkeys(DELTA_FIELDS, _FAR), "gripper_cmd": Range(0, 1)}
GRIPPER = 6  # column of the gripper state / command in both arrays
GRIPPER_THRESHOLD = 0.5  # a gripper value below it is closed, at or above it open
_COLUMNS = {"state": STATE_COLUMNS, "action": ACTION_COLUMNS}
_LIMITS = {kind: np.array([r.closed() for r in columns.values()]).T.copy()
           for kind, columns in _COLUMNS.items()}  # (lowest, highest) per column


def check_steps(a: np.ndarray, kind: str) -> None:
    """Raise ValidationError unless every value of the (n, 7) float array a of
    "state" or "action" rows is finite and lies in its column's range.

    Like a row-by-row reader, it reports the first row holding a fault, and
    in that row a non-finite value before a value out of range."""
    lo, hi = _LIMITS[kind]
    inside = (a >= lo) & (a <= hi)
    if not inside.all():
        i, j = np.argwhere(~inside)[0]
        if not np.isfinite(a[i]).all():
            raise ValidationError(f"non-finite {kind} field")
        name, r = list(_COLUMNS[kind].items())[j]
        raise ValidationError(f"{kind} {name} must lie in {r}, got {float(a[i, j])!r}")


def step_array(rows, kind: str) -> np.ndarray:
    """Read-only float64 copy of per-step "state" or "action" rows, shape (n, 7),
    checked by check_steps."""
    columns = _COLUMNS[kind]
    a = np.array(rows, dtype=float)
    if a.ndim != 2 or a.shape[1] != len(columns):
        raise ValidationError(f"{kind} rows must be (n, {len(columns)}), got {a.shape}")
    check_steps(a, kind)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class JointTrace:
    """Per-frame joint angles, radians; shape (T+1, J) with J = 7."""

    q: np.ndarray

    def __post_init__(self):
        q = np.ascontiguousarray(np.asarray(self.q, dtype=float))
        if q.ndim != 2 or q.shape[1] != NUM_JOINTS:
            raise ValidationError(f"joint trace must be (T+1, {NUM_JOINTS}), got {q.shape}")
        if not np.all(np.isfinite(q)):
            raise ValidationError("non-finite joint angle")
        q.flags.writeable = False
        object.__setattr__(self, "q", q)

    def __len__(self) -> int:
        return self.q.shape[0]

    @functools.cached_property
    def derivatives(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (qdot, qddot): central finite differences, one-sided at
        the boundaries. Computed once per trace."""
        q = self.q
        if q.shape[0] < 3:
            raise ValidationError("need at least 3 frames for joint derivatives")
        qd = np.empty_like(q)
        qd[1:-1] = (q[2:] - q[:-2]) / 2.0
        qd[0] = q[1] - q[0]
        qd[-1] = q[-1] - q[-2]
        qdd = np.empty_like(q)
        qdd[1:-1] = q[2:] - 2.0 * q[1:-1] + q[:-2]
        qdd[0] = qdd[1]
        qdd[-1] = qdd[-2]
        qd.flags.writeable = qdd.flags.writeable = False
        return qd, qdd


@dataclass(frozen=True)
class TrackSet:
    """M tracked 2D points over T+1 frames, pixels, with visibility masks."""

    points: np.ndarray  # (M, T+1, 2)
    masks: np.ndarray   # (M, T+1) bool

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=float))
        msk = np.ascontiguousarray(np.asarray(self.masks, dtype=bool))
        if pts.ndim != 3 or pts.shape[2] != 2:
            raise ValidationError(f"track points must be (M, T+1, 2), got {pts.shape}")
        if msk.shape != pts.shape[:2]:
            raise ValidationError("mask shape does not match track shape")
        if not np.isfinite(pts).all() and not np.isfinite(pts[msk]).all():
            raise ValidationError("non-finite position on a visible track point")
        pts.flags.writeable = False
        msk.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "masks", msk)

    @property
    def num_tracks(self) -> int:
        return self.points.shape[0]

    @property
    def num_frames(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class Rollout:
    """One manipulation attempt: states, actions, observations, provenance.

    states is a read-only (T+1, 7) float array with columns x y z roll pitch
    yaw gripper (meters, radians, unitless command); actions is a read-only
    (T, 7) float array with columns dx dy dz droll dpitch dyaw gripper_cmd.
    Both are copied and validated by step_array at construction. Every
    observation channel shares the states' timebase. Immutable after
    construction.
    """

    id: str
    task: str
    states: np.ndarray
    actions: np.ndarray
    joints: Optional[JointTrace] = None
    tracks: Optional[TrackSet] = None
    spec: Optional[object] = None  # PerturbationSpec, kept loose to avoid a cycle
    outcome: Optional[str] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "states", step_array(self.states, "state"))
        object.__setattr__(self, "actions", step_array(self.actions, "action"))
        self._check_lengths()

    @classmethod
    def _checked(cls, **fields) -> Rollout:
        """Rollout(**fields) for read-only states and actions that step_array or
        _simulate has just checked: they are not copied or checked again."""
        ro = object.__new__(cls)
        vars(ro).update({"joints": None, "tracks": None, "spec": None,
                         "outcome": None, "meta": {}, **fields})
        ro._check_lengths()
        return ro

    def _check_lengths(self) -> None:
        if len(self.states) != len(self.actions) + 1:
            raise ValidationError(
                f"len(states)={len(self.states)} must equal len(actions)+1={len(self.actions) + 1}")
        if len(self.actions) < 1:
            raise ValidationError("rollout needs at least one action")
        n = len(self.states)
        if self.joints is not None and len(self.joints) != n:
            raise ValidationError("joint trace length does not match states")
        if self.tracks is not None and self.tracks.num_frames != n:
            raise ValidationError("track length does not match states")
        if self.outcome not in (None, "success", "fail"):
            raise ValidationError(f"bad outcome {self.outcome!r}")

    @property
    def horizon(self) -> int:
        return len(self.actions)

    def gripper_channel(self) -> np.ndarray:
        return self.states[:, GRIPPER]

    def poses(self) -> np.ndarray:
        return self.states[:, :GRIPPER]


def detect_keyframes(rollout: Rollout) -> list[int]:
    """Timesteps t where the gripper crosses GRIPPER_THRESHOLD between t-1
    and t: the first sample on the new side, open or closed."""
    side = rollout.gripper_channel() >= GRIPPER_THRESHOLD
    return [int(t) for t in np.nonzero(side[1:] != side[:-1])[0] + 1]


def state_diff(rollout: Rollout, t: int, d: int) -> np.ndarray:
    """Pose difference states[t+d] - states[t] as a 6-vector.

    Translation components are exact; angles are differenced on the wrapped
    (-pi, pi] branch. Gripper is excluded.
    """
    T = rollout.horizon
    if d < 0 or t < 0 or t + d > T:
        raise ValidationError(f"(t={t}, d={d}) out of range for horizon {T}")
    out = rollout.states[t + d, :GRIPPER] - rollout.states[t, :GRIPPER]
    out[3:] = wrap_angle(out[3:])
    return out


def state_diffs(rollout: Rollout, d: int) -> np.ndarray:
    """state_diff(rollout, t, d) for every t in 0..T-d, stacked (T-d+1, 6)."""
    if not 0 <= d <= rollout.horizon:
        raise ValidationError(f"d={d} out of range for horizon {rollout.horizon}")
    poses = rollout.poses()
    out = poses[d:] - poses[:len(poses) - d]
    out[:, 3:] = wrap_angle(out[:, 3:])
    return out
