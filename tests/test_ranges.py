"""Each numeric field of a Record declares its range once, in its annotation.

The guard walks every Record subclass: an int or float field, tuple element
or dict value without a Range fails, unless its class is on OUTPUTS, and so
does a Range with no finite end. The other tests pin how a Range is checked:
on construction, before the class's cross-field rules, with the dotted path
of a decoded object in the message.
"""

import math
import types
import typing
from dataclasses import field, fields
from pathlib import Path
from typing import Annotated, Optional

import numpy as np
import pytest

import failsynth.pipeline  # noqa: F401  (defines every Record subclass)
from failsynth.config import PipelineConfig, SceneConfig
from failsynth.core import ACTION_COLUMNS, STATE_COLUMNS, Range, Record, decode
from failsynth.errors import SceneError, ValidationError
from failsynth.perturb import PerturbationSpec
from failsynth.world import ArtifactSpec, CameraSpec, SceneSpec

README = Path(__file__).resolve().parents[1] / "README.md"

# Records a stage computes and writes, never reads as input: their numbers
# are results, so no range is declared for them.
OUTPUTS = {
    "PointTrackScores": "track scores computed by score_tracks",
    "VerifierReport": "verify's per-candidate verdict, appended to retained records",
}


def _records(cls=Record):
    """The Record subclasses of the package."""
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("failsynth."):
            yield sub
        yield from _records(sub)


def _numbers(tp, path):
    """(path, [Range, ...]) for each int or float the annotation tp holds."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is Annotated:
        if args[0] in (int, float):
            yield path, [r for r in tp.__metadata__ if isinstance(r, Range)]
        else:
            yield from _numbers(args[0], path)
    elif tp in (int, float):
        yield path, []
    elif origin in (typing.Union, types.UnionType):
        for a in args:
            yield from _numbers(a, path)
    elif origin is tuple:
        for i, a in enumerate(args):
            if a is not ...:  # tuple[X, ...] holds elements that are never checked
                yield from _numbers(a, f"{path}[{'...' if args[-1] is ... else i}]")
    elif origin is dict:
        yield from _numbers(args[1], f"{path}[*]")


def _fields(cls):
    hints = typing.get_type_hints(cls, include_extras=True)
    for name, tp in hints.items():
        yield from _numbers(tp, f"{cls.__name__}.{name}")


def test_every_input_number_declares_a_finite_range():
    classes = {cls.__name__: cls for cls in _records()}
    assert {"PipelineConfig", "SceneConfig", "PerturbConfig", "VerifierConfig",
            "TrackScoreConfig", "LabelConfig", "IdmCalibration", "JointCalibration",
            "PerturbationSpec", "SceneSpec", "CameraSpec", "ArtifactSpec"} <= set(classes)
    assert set(OUTPUTS) <= set(classes)
    missing, unbounded, checked = [], [], 0
    for name, cls in classes.items():
        for path, ranges in _fields(cls):
            if name in OUTPUTS:
                continue
            checked += 1
            if not ranges or "[...]" in path:
                missing.append(path)
            unbounded += [path for r in ranges if math.isinf(r.lo) and math.isinf(r.hi)]
    assert not missing, f"numbers without a declared Range: {missing}"
    assert not unbounded, f"Ranges with no finite end (NaN would pass): {unbounded}"
    assert checked >= 80


def test_outputs_allow_list_is_needed():
    """Each allow-listed class holds a number without a Range."""
    for cls in _records():
        if cls.__name__ in OUTPUTS:
            assert any(not r for _, r in _fields(cls)), cls.__name__


def test_a_variable_length_tuple_is_not_bounded():
    """tuple[X, ...] elements are not checked, so the guard counts them as
    numbers without a Range."""
    assert list(_numbers(tuple[Annotated[int, Range(0)], ...], "f")) == \
        [("f[...]", [Range(0)])]


@pytest.mark.parametrize("r, inside, outside", [
    (Range(0, 1), [0, 0.5, 1, True], [-1e-300, 1.0000000000000002, math.nan]),
    (Range(0, 1, lo_open=True), [5e-324, 1], [0, 0.0, -0.0, math.nan]),
    (Range(0, 1, hi_open=True), [0, 0.9999999999999999], [1, 1.0]),
    (Range(0), [0, 1e308, 2 ** 64], [-1, math.inf, math.nan]),
    (Range(0, lo_open=True), [1, 1e-300], [0, -0.0, math.inf]),
    (Range(hi=5), [-1e308, 5], [-math.inf, 6, math.nan]),
], ids=["closed", "lo-open", "hi-open", "no-hi", "open-no-hi", "no-lo"])
def test_range_bounds(r, inside, outside):
    class Probe(Record):
        v: Annotated[float, r] = 0.5 if r.hi == 1 else 1.0
    for v in inside:
        assert Probe(v).v is v
    for v in outside:
        with pytest.raises(ValidationError, match=f"^v must lie in .*, got {v!r}$"):
            Probe(v)


def test_open_bound_on_an_int():
    """An open end excludes exactly its value for an int too."""
    class Probe(Record):
        n: Annotated[int, Range(0, 3, lo_open=True, hi_open=True)] = 1
    assert [Probe(n).n for n in (1, 2)] == [1, 2]
    for n in (0, 3, -1, 4):
        with pytest.raises(ValidationError, match=r"n must lie in \(0, 3\)"):
            Probe(n)


def test_range_text():
    assert str(Range(0, 1)) == "[0, 1]"
    assert str(Range(0, lo_open=True)) == "(0, inf)"
    assert str(Range(hi=0.6, hi_open=True)) == "(-inf, 0.6)"


def test_optional_tuple_and_dict_bounds():
    class Probe(Record):
        a: Optional[Annotated[int, Range(0)]] = None
        b: tuple[Annotated[float, Range(0, 1)], Annotated[float, Range(2, 3)]] = (0, 2)
        c: dict[str, Annotated[float, Range(0, lo_open=True)]] = field(default_factory=dict)

    assert Probe().a is None and Probe(a=3, c={"x": 1e-9}).a == 3
    for kwargs, message in [
            (dict(a=-1), "a must lie in [0, inf), got -1"),
            (dict(b=(0, 1)), "b[1] must lie in [2, 3], got 1"),
            (dict(b=(0, 2, 3)), "b must hold 2 numbers, got (0, 2, 3)"),
            (dict(b=(0,)), "b must hold 2 numbers, got (0,)"),
            (dict(c={"x": 1, "y": 0}), "c['y'] must lie in (0, inf), got 0")]:
        with pytest.raises(ValidationError) as exc:
            Probe(**kwargs)
        assert str(exc.value) == message


def test_bounds_run_before_the_cross_field_rule():
    """A NaN attach_strength is a range fault; comparing it in the
    partial_floor rule would pass silently."""
    with pytest.raises(SceneError, match="^attach_strength must lie"):
        SceneSpec((0.5, 0.1, 0.02), (0.35, -0.1, 0.02), attach_strength=math.nan)
    with pytest.raises(SceneError, match="^partial_floor 0.7 must be < attach_strength 0.7"):
        SceneSpec((0.5, 0.1, 0.02), (0.35, -0.1, 0.02), partial_floor=0.7)


@pytest.mark.parametrize("pos", [(0.5, 0.1), (0.5, 0.1, 0.02, 0.0), np.zeros(2)],
                         ids=["short", "long", "short-array"])
def test_scene_tuple_length_is_a_scene_error(pos):
    with pytest.raises(SceneError, match="^object_pos must hold 3 numbers"):
        SceneSpec(pos, (0.35, -0.1, 0.02))


def test_decode_names_the_dotted_path():
    scene = SceneSpec((0.5, 0.1, 0.02), (0.35, -0.1, 0.02)).to_dict()
    scene["camera"]["fx"] = 1e300
    with pytest.raises(ValidationError,
                       match=r"^meta\.scene\.camera\.fx must lie in \(0, 100000\.0\], got 1e\+300$"):
        decode(SceneSpec, scene, "meta.scene")
    with pytest.raises(ValidationError, match=r"^PipelineConfig\.label\.bin_size must lie"):
        PipelineConfig.from_dict({"label": {"bin_size": 0}})
    with pytest.raises(ValidationError, match=r"^PipelineConfig\.scene\.goal_y\[0\] 0\.3 "
                                              r"must be <= goal_y\[1\] -0\.3$"):
        PipelineConfig.from_dict({"scene": {"goal_y": [0.3, -0.3]}})


def test_cross_field_rules_name_both_keys():
    for kwargs, message in [
            (dict(perturb={"delay_min": 11}), "perturb.delay_min 11 must be <= delay_max 10"),
            (dict(scene={"partial_floor": 0.8}), "scene.partial_floor 0.8 must be < "
                                                 "attach_strength 0.7"),
            (dict(scene={"grasp_tolerance": 0.05}), "scene.grasp_tolerance 0.05 must be < "
                                                    "perturb.offset_cap 0.05")]:
        with pytest.raises(ValidationError) as exc:
            PipelineConfig.from_dict(kwargs)
        assert str(exc.value) == f"PipelineConfig.{message}"


def test_defaults_lie_in_their_ranges():
    for cls in (PipelineConfig, SceneConfig, CameraSpec, ArtifactSpec):
        assert cls.from_dict(cls().to_dict()) == cls()


def _documented(cls, prefix):
    """(dotted key, range text) per numeric field of cls and of the Records
    it holds; a tuple's distinct element ranges are joined by " × "."""
    hints = typing.get_type_hints(cls, include_extras=True)
    for f in fields(cls):
        tp = typing.get_type_hints(cls)[f.name]
        if isinstance(tp, type) and issubclass(tp, Record):
            yield from _documented(tp, f"{prefix}{f.name}.")
        else:
            texts = dict.fromkeys(str(r) for _, ranges in _numbers(hints[f.name], "")
                                  for r in ranges)
            if texts:
                yield prefix + f.name, " × ".join(texts)


def _readme_ranges():
    """{key: range text} of the README tables' rows."""
    rows = [[cell.strip() for cell in line.strip("| ").split("|")]
            for line in README.read_text().splitlines() if line.startswith("| `")]
    return {key.strip("`"): row[1] for row in rows for key in row[0].split(", ")}


def test_each_step_column_declares_a_finite_range():
    """Each column of the states and actions arrays has one Range, with two
    finite ends, and README lists it."""
    documented = _readme_ranges()
    for member, columns in (("states", STATE_COLUMNS), ("actions", ACTION_COLUMNS)):
        assert len(columns) == 7
        for name, r in columns.items():
            assert isinstance(r, Range) and math.isfinite(r.lo) and math.isfinite(r.hi)
            assert documented[f"{member}.{name}"] == str(r)


@pytest.mark.parametrize("cls, prefix", [
    (PipelineConfig, ""), (PerturbationSpec, "spec."), (SceneSpec, "meta.scene."),
    (ArtifactSpec, "meta.artifacts.")], ids=["config", "spec", "scene", "artifacts"])
def test_readme_lists_each_range(cls, prefix):
    """Each key's row in a README table gives the range its field declares."""
    rows = [[cell.strip() for cell in line.strip("| ").split("|")]
            for line in README.read_text().splitlines() if line.startswith("| `")]
    for key, text in _documented(cls, prefix):
        found = [row for row in rows if f"`{key}`" in row[0].split(", ")]
        assert len(found) == 1 and found[0][1] == text, (key, text, found)
