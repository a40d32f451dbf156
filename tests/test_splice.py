"""verify and label append their member to the text of the input line.

The oracle is the re-encode path: dumps_record of the record with the member
added. On a line dumps_record wrote, the spliced line must equal it byte for
byte; on any other line, it must be valid JSON that decodes equal to it.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from failsynth import pipeline
from failsynth.cli import main
from failsynth.config import PipelineConfig
from failsynth.rollout_io import (dumps_record, read_records, with_member,
                                  with_meta_member)

CFG = PipelineConfig(seed=808)

TEXT = st.one_of(st.text(max_size=8),
                 st.sampled_from(["NaN", "Infinity", "-Infinity", 'a"}}', "\\}", "é☃\U0001f600"]))
KEYS = st.one_of(st.sampled_from(["id", "label", "verifier", "meta", "x"]), st.text(max_size=4))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-10**20, 10**20),
                    st.floats(allow_nan=False, allow_infinity=False), TEXT)
VALUES = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(KEYS, inner, max_size=3)), max_leaves=12)
RECORDS = st.dictionaries(KEYS, VALUES, max_size=5)


@st.composite
def records(draw):
    """A record, often with a meta object: empty, nested, holding verifier,
    last or not."""
    rec = draw(RECORDS)
    if draw(st.booleans()):
        rec.pop("meta", None)
        rec["meta"] = draw(st.dictionaries(KEYS, VALUES, max_size=4))
        if draw(st.booleans()):  # another member after meta
            rec[draw(KEYS.filter(lambda k: k != "meta"))] = draw(VALUES)
    return rec


def _label_oracle(rec, text):
    out = dict(rec)
    out["label"] = text
    return out


def _verifier_oracle(rec, report):
    out = dict(rec)
    meta = dict(out.get("meta", {}))
    meta["verifier"] = report
    out["meta"] = meta
    return out


def _read_back(path, line):
    path.write_text(line + "\n")
    (rec,) = read_records(path)
    return rec


def _retain(path, line, report):
    """What verify writes for the record it read from line."""
    rec = _read_back(path, line)
    return with_meta_member(rec.line, rec.get("meta"), "verifier", report)


# a leading member dumps_record spells 1.5: only a splice keeps "1.50"
PAD = '{"_pad_":1.50'


def _padded(line):
    return PAD + ("}" if line == "{}" else "," + line[1:])


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("splice") / "in.jsonl"


@settings(max_examples=400, deadline=None)
@given(rec=records(), text=TEXT, report=VALUES)
def test_splice_of_a_canonical_line_equals_the_re_encoding(scratch, rec, text, report):
    line = dumps_record(rec)
    spliceable = "NaN" not in line and "Infinity" not in line

    labeled = with_member(_read_back(scratch, line), "label", text)
    assert labeled == dumps_record(_label_oracle(rec, text))
    labeled = with_member(_read_back(scratch, _padded(line)), "label", text)
    assert labeled.startswith(PAD) == (spliceable and "label" not in rec)

    meta = rec.get("meta", {})
    if not isinstance(meta, dict):  # verify refuses such a record before
        return
    assert _retain(scratch, line, report) == dumps_record(_verifier_oracle(rec, report))
    assert _retain(scratch, _padded(line), report).startswith(PAD) == (
        spliceable and list(rec)[-1:] == ["meta"] and bool(meta)
        and "verifier" not in meta)


def _spaced(value) -> str:
    """JSON with a space around every separator and before every closing
    bracket."""
    if isinstance(value, dict):
        return "{ " + " , ".join(f"{json.dumps(k)} : {_spaced(v)}"
                                 for k, v in value.items()) + " }"
    if isinstance(value, list):
        return "[ " + " , ".join(_spaced(v) for v in value) + " ]"
    return json.dumps(value)


@settings(max_examples=300, deadline=None)
@given(rec=records(), text=TEXT, report=VALUES,
       encode=st.sampled_from([json.dumps, _spaced,
                               lambda r: json.dumps(r, ensure_ascii=False)]))
def test_splice_of_any_other_line_decodes_equal(scratch, rec, text, report, encode):
    line = encode(rec)
    labeled = with_member(_read_back(scratch, line), "label", text)
    assert json.loads(labeled) == _label_oracle(rec, text)
    if not isinstance(rec.get("meta", {}), dict):
        return
    assert json.loads(_retain(scratch, line, report)) == _verifier_oracle(rec, report)


@pytest.mark.parametrize("line, want", [
    ("{}", '{"label":"L"}'),
    ("{ }", '{ "label":"L"}'),
    ('{"a": 1.50, "b": [1e2]}', '{"a": 1.50, "b": [1e2],"label":"L"}'),
    ('{"label":"old"}', '{"label":"L"}'),
    ('{"a":"NaN"}', '{"a":"NaN","label":"L"}'),  # re-encoded, same bytes
])
def test_label_cases(tmp_path, line, want):
    assert with_member(_read_back(tmp_path / "in.jsonl", line), "label", "L") == want


@pytest.mark.parametrize("line, want", [
    ('{"id":"a","meta":{"s":1}}', '{"id":"a","meta":{"s":1,"verifier":1}}'),
    ('{"id":"a","meta":{}}', '{"id":"a","meta":{"verifier":1}}'),
    ('{"meta":{"s":1},"id":"a"}', '{"meta":{"s":1,"verifier":1},"id":"a"}'),
    ('{"id":"a"}', '{"id":"a","meta":{"verifier":1}}'),
    ('{"id":"a","meta":{"verifier":0,"s":1}}', '{"id":"a","meta":{"verifier":1,"s":1}}'),
    ('{"id":"a","meta":{"s":1} }', '{"id":"a","meta":{"s":1,"verifier":1}}'),
    # a duplicate key after meta: its last copy is not meta, so re-encode
    ('{"x":0,"meta":{"s":1},"x":{"s":1}}', '{"x":{"s":1},"meta":{"s":1,"verifier":1}}'),
    # the line ends in '"meta":{"s":1}}', but that "meta" ends the key 'a"meta'
    ('{"meta":{"s":1},"a\\"meta":{"s":1}}', '{"meta":{"s":1,"verifier":1},"a\\"meta":{"s":1}}'),
])
def test_verifier_cases(tmp_path, line, want):
    assert _retain(tmp_path / "in.jsonl", line, 1) == want


def test_non_objects_are_read_as_they_are(tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_text('[1]\n"s"\n 7 \n{"a": 1}  \n')
    got = list(read_records(path))
    assert got == [[1], "s", 7, {"a": 1}]
    assert got[3].line == '{"a": 1}'


@pytest.fixture(scope="module")
def stage_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("stages")
    pipeline.cmd_generate(CFG, 2, d / "demos.jsonl")
    pipeline.cmd_perturb(CFG, d / "demos.jsonl", d / "cands.jsonl")
    pipeline.cmd_calibrate(CFG, d / "demos.jsonl", d / "calib.json")
    return d


def _stage(d, stage, lines):
    (d / "in.jsonl").write_text("".join(line + "\n" for line in lines))
    argv = [stage, "-i", d / "in.jsonl", "-o", d / "out.jsonl", "--seed", 808]
    if stage == "verify":
        argv += ["--calibration", d / "calib.json"]
    return main([str(a) for a in argv])


@settings(max_examples=25, deadline=None)
@given(extra=st.dictionaries(st.text(min_size=1, max_size=4).filter(
           lambda k: k not in ("scene", "artifacts", "obs_seed", "verifier")),
           VALUES, max_size=3),
       top=st.dictionaries(st.sampled_from(["x", "y", "é"]), VALUES, max_size=2))
def test_stages_write_what_re_encoding_writes(stage_inputs, extra, top):
    """Extra members in meta and after it, through verify and then label."""
    d = stage_inputs
    recs = [json.loads(line) for line in (d / "cands.jsonl").read_text().splitlines()]
    for rec in recs:
        rec["meta"].update(extra)
        rec.update(top)
    assert _stage(d, "verify", [dumps_record(r) for r in recs]) == 0
    retained = (d / "out.jsonl").read_text().splitlines()
    reports = [json.loads(line)["meta"]["verifier"] for line in retained]
    assert len(reports) == len(recs)
    assert retained == [dumps_record(_verifier_oracle(r, rep)) for r, rep in zip(recs, reports)]
    assert _stage(d, "label", retained) == 0
    labeled = (d / "out.jsonl").read_text().splitlines()
    labels = [json.loads(line)["label"] for line in labeled]
    assert labeled == [dumps_record(_label_oracle(json.loads(r), t))
                       for r, t in zip(retained, labels)]


@pytest.mark.parametrize("stage", ["label", "verify"])
def test_float_overflow_outside_the_read_fields_is_copied(stage_inputs, stage):
    """1e400 reads as inf, which re-encoding refuses (exit 4); a field the
    stage does not read is copied through as written."""
    d = stage_inputs
    cand = (d / "cands.jsonl").read_text().splitlines()[0]
    line = '{"x":1e400,' + cand[1:]
    assert _stage(d, stage, [line]) == 0
    assert (d / "out.jsonl").read_text().startswith('{"x":1e400,')
    # Infinity spelled out still fails, and so does 1e400 where the stage
    # re-encodes: inside meta for verify, or after meta
    assert _stage(d, stage, [line.replace("1e400", "Infinity")]) == 4
    if stage == "verify":
        assert _stage(d, stage, [cand.replace('"meta":{', '"meta":{"x":1e400,')]) == 4
        assert _stage(d, stage, [cand[:-1] + ',"x":1e400}']) == 4
