"""loads_record decodes a JSONL line exactly as json.loads does.

orjson computes most lines; json.loads takes the ones orjson would read
differently or refuses. The oracle is json.loads itself: the same value with
the same types, float bits and key order, or the same exception type and
message.
"""

import json
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from failsynth import pipeline
from failsynth.config import PipelineConfig
from failsynth.errors import SchemaError
from failsynth.rollout_io import loads_record, read_records


def _outcome(loads, text):
    try:
        return "value", loads(text)
    except Exception as exc:  # the exception is part of what is compared
        return type(exc), str(exc)


def _same(a, b) -> bool:
    """Equal with equal types, float bits (-0.0, NaN) and key order; a loop,
    not a recursion, so that deep values compare."""
    pairs = [(a, b)]
    while pairs:
        a, b = pairs.pop()
        if type(a) is not type(b):
            return False
        if type(a) is float:
            if struct.pack("<d", a) != struct.pack("<d", b):
                return False
        elif type(a) is list:
            if len(a) != len(b):
                return False
            pairs.extend(zip(a, b))
        elif type(a) is dict:
            if list(a) != list(b):
                return False
            pairs.extend((a[k], b[k]) for k in a)
        elif a != b:
            return False
    return True


def _assert_reads_like_json(text):
    want, got = _outcome(json.loads, text), _outcome(loads_record, text)
    assert want[0] == got[0], (want, got)
    if want[0] == "value":
        assert _same(want[1], got[1]), (want[1], got[1])
    else:
        assert want[1] == got[1]


def _nest(depth, inner="1", obj=False):
    if obj:
        return '{"k":' * depth + inner + "}" * depth
    return "[" * depth + inner + "]" * depth


EDGES = [str(v) for v in (2**63 - 1, 2**63, 2**64 - 1, 2**64, 10**20)] + [
    str(v) for v in (-2**63, -2**63 - 1, -10**19, -10**20, -(10**18 - 1))] + [
    "NaN", "-NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e-400",
    "-0.0", "-0", "0.0", "5e-324", "2.4703282292062328e-324", "1.7976931348623157e308",
    "1.7976931348623159e308", "0.00012345678901234567", "1E+2", "1e-00000000000000000005",
    '"\\ud800"', '"\\udfff"', '"x\\ud83d"', '"\\ud83d\\ude00"', '"\\u00e9\\/\\b"',
    '"\ud800"', '"é☃"']

NUMBERS = st.one_of(
    st.integers(-2**65, 2**65).map(str),
    st.sampled_from([-2**64, -2**63, 2**63, 2**64, 10**19, 10**20]).flatmap(
        lambda c: st.integers(c - 3, c + 3)).map(str),
    st.floats().map(lambda x: json.dumps(x)),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:.25g}"),
    st.from_regex(r"-?(0|[1-9][0-9]{0,24})(\.[0-9]{1,30})?([eE][-+]?[0-9]{1,4})?",
                  fullmatch=True))
STRINGS = st.one_of(st.text(max_size=6).map(json.dumps),
                    st.text(max_size=6).map(lambda s: json.dumps(s, ensure_ascii=False)))
SCALARS = st.one_of(NUMBERS, STRINGS, st.sampled_from(EDGES + ["true", "false", "null"]))
# Objects from key lists, so keys repeat; separators spaced or not.
KEYS = st.sampled_from(['"a"', '"b"', '"id"', '""', '"\\u0061"'])
SEP = st.sampled_from([",", ", ", " ,\t"])
JSON_TEXTS = st.recursive(SCALARS, lambda inner: st.one_of(
    st.tuples(SEP, st.lists(inner, max_size=4)).map(lambda t: "[" + t[0].join(t[1]) + "]"),
    st.tuples(SEP, st.lists(st.tuples(KEYS, inner), max_size=4)).map(
        lambda t: "{" + t[0].join(f"{k}:{v}" for k, v in t[1]) + "}")), max_leaves=16)
TEXTS = st.one_of(
    JSON_TEXTS,
    st.tuples(st.sampled_from(["", " ", "\ufeff", "\t", "x", "["]), JSON_TEXTS,
              st.sampled_from(["", " ", "]", ",", "1", "\x00"])).map("".join),
    st.text(max_size=12))


@settings(max_examples=800, deadline=None)
@given(TEXTS)
@example("\ufeff{}")
@example("1" + "0" * 19)
@example('{"a":1,"b":2,"a":{"c":3,"c":-0.0}}')
@example(_nest(1025))
@example(_nest(1025, obj=True))
@example(_nest(100000, obj=True))
@example(_nest(511))
@example(_nest(511, "-9223372036854775809"))
@example(_nest(512, "NaN", obj=True))
def test_loads_record_reads_what_json_loads_reads(text):
    _assert_reads_like_json(text)


@pytest.mark.parametrize("text", EDGES)
def test_edge_literals(text):
    _assert_reads_like_json(text)
    _assert_reads_like_json(f'{{"x":[{text},{text}]}}')


def test_read_records_on_a_mixed_file(tmp_path):
    # json refuses -NaN, and UTF-8 cannot hold a raw surrogate
    lines = [e for e in EDGES if e not in ("-NaN", '"\ud800"')] + [
        '"\\ud800\\ud800"', '{"a":1,"a":2}', _nest(600), _nest(600, obj=True),
        '{"id":"r","x":[1e400,NaN,-Infinity,' + "9" * 25 + ",-0.0]}",
        '{"seed":4611686018427387903,"v":0.00012345678901234567}']
    path = tmp_path / "mixed.jsonl"
    path.write_text("".join(f"  {line}\t\n\n" for line in lines), encoding="utf-8")
    got = list(read_records(path))
    assert len(got) == len(lines)
    for line, rec in zip(lines, got):
        if isinstance(rec, dict):  # a SourceRecord
            assert rec.line == line
            rec = dict(rec)
        assert _same(rec, json.loads(line)), line


@pytest.mark.parametrize("line, message", [
    ("\ufeff{}", "Unexpected UTF-8 BOM"),
    (_nest(100000), "maximum recursion depth exceeded"),
    (_nest(100000, obj=True), "maximum recursion depth exceeded"),
    ('{"a":1,}', "Expecting property name"),
], ids=["bom", "deep-array", "deep-object", "trailing-comma"])
def test_read_records_reports_the_line(tmp_path, line, message):
    path = tmp_path / "in.jsonl"
    path.write_text('{"ok":1}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=f"^{path}:2: invalid JSON: {message}"):
        list(read_records(path))


def test_pipeline_lines_never_fall_back(tmp_path, monkeypatch):
    """orjson decodes every line of the acceptance-criterion-8 run (seed 808,
    50 demos, 200 candidates): json.loads is never called."""
    cfg = PipelineConfig(seed=808)
    pipeline.cmd_generate(cfg, 50, tmp_path / "demos.jsonl")
    pipeline.cmd_perturb(cfg, tmp_path / "demos.jsonl", tmp_path / "cands.jsonl")
    pipeline.cmd_calibrate(cfg, tmp_path / "demos.jsonl", tmp_path / "calib.json")
    pipeline.cmd_verify(cfg, tmp_path / "cands.jsonl", tmp_path / "calib.json",
                        tmp_path / "retained.jsonl")
    pipeline.cmd_label(cfg, tmp_path / "retained.jsonl", tmp_path / "labeled.jsonl")
    pipeline.cmd_recover(cfg, tmp_path / "labeled.jsonl", tmp_path / "recov.jsonl")

    def fallback(*args, **kwargs):
        raise AssertionError("json.loads was called")

    monkeypatch.setattr(json, "loads", fallback)
    counts = {name: sum(1 for _ in read_records(tmp_path / name))
              for name in ("demos.jsonl", "cands.jsonl", "retained.jsonl",
                           "labeled.jsonl", "recov.jsonl")}
    assert counts == {"demos.jsonl": 50, "cands.jsonl": 200, "retained.jsonl": 200,
                      "labeled.jsonl": 200, "recov.jsonl": 200}
