import re
from typing import Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from failsynth.core import FailureType
from failsynth.labels import (DIRS, FIELD_ORDER, GRIPPER_TYPES, STAGES, DomainError,
                              FixLabel, LabelError, MissingFieldError, NumericFieldError,
                              SchemaViolationError, UnknownKeyError,
                              generate_label, parse, serialize)
from failsynth.perturb import PerturbationSpec

EXEMPLAR = ("RESULT=FAIL; TYPE=translation; STAGE=pre_grasp; FIX_DIR_X=-x; "
            "FIX_N_X=2; FIX_DIR_Y=+y; FIX_N_Y=3; The execution failed due to a "
            "translation misalignment before grasping. To fix it, nudge the "
            "end-effector in -x for 2 steps and in +y for 3 steps in the keyframe.")


class TestGeneration:
    def test_exemplar_from_offsets(self):
        # offsets (+0.021, -0.028), bin 0.01: dirs flip sign, counts round
        spec = PerturbationSpec(FailureType.translation, keyframe=12,
                                offset_x=0.021, offset_y=-0.028, sigma=0.02,
                                seed=0)
        label = generate_label(spec, bin_size=0.01)
        assert (label.fix_dir_x, label.fix_n_x) == ("-x", 2)
        assert (label.fix_dir_y, label.fix_n_y) == ("+y", 3)
        assert serialize(label) == EXEMPLAR

    def test_rounding_is_half_up(self):
        spec = PerturbationSpec(FailureType.translation, keyframe=12,
                                offset_x=0.015, offset_y=-0.0149, sigma=0.02,
                                seed=0)
        label = generate_label(spec, bin_size=0.01)
        assert label.fix_n_x == 2   # 1.5 rounds up
        assert label.fix_n_y == 1   # 1.49 rounds down

    def test_success_label(self):
        label = generate_label(None)
        assert label.result == "SUCCESS"
        assert serialize(label).startswith("RESULT=SUCCESS; ")

    @pytest.mark.parametrize("ft,strength", [
        (FailureType.delay_close, 1.0),
        (FailureType.force_open, 1.0),
        (FailureType.weak_close, 0.8),
    ])
    def test_gripper_labels(self, ft, strength):
        kwargs = {"delay_steps": 5} if ft is FailureType.delay_close else \
            ({"strength_scale": 0.4} if ft is FailureType.weak_close else {})
        spec = PerturbationSpec(ft, keyframe=23, **kwargs)
        label = generate_label(spec, attach_strength=0.7, strength_margin=0.1)
        assert label.close_at == 23
        assert label.strength == pytest.approx(strength)
        assert label.stage == "grasp"

    def test_strength_caps_at_one(self):
        spec = PerturbationSpec(FailureType.weak_close, keyframe=5,
                                strength_scale=0.3)
        label = generate_label(spec, attach_strength=0.95, strength_margin=0.2)
        assert label.strength == 1.0


class TestSerialization:
    def test_exemplar_round_trips_byte_exact(self):
        assert serialize(parse(EXEMPLAR)) == EXEMPLAR

    def test_field_order_is_fixed(self):
        label = FixLabel(result="FAIL", failure_type=FailureType.delay_close,
                         stage="grasp", close_at=7, strength=1.0, summary="s")
        assert serialize(label) == \
            "RESULT=FAIL; TYPE=delay_close; STAGE=grasp; CLOSE_AT=7; STRENGTH=1.0; s"

    def test_float_repr_is_shortest(self):
        label = FixLabel(result="FAIL", failure_type=FailureType.weak_close,
                         stage="grasp", close_at=7, strength=0.8)
        assert "STRENGTH=0.8" in serialize(label)


@st.composite
def valid_labels(draw):
    result = draw(st.sampled_from(["SUCCESS", "FAIL"]))
    summary = draw(st.text(
        alphabet=st.characters(codec="ascii", exclude_characters=";=\n\r"),
        max_size=40).map(str.strip).filter(
            lambda s: "=" not in s.split(";")[0]))
    if result == "SUCCESS":
        return FixLabel(result=result, summary=summary)
    ft = draw(st.sampled_from(list(FailureType)))
    stage = draw(st.sampled_from(STAGES))
    if ft is FailureType.translation:
        return FixLabel(result=result, failure_type=ft, stage=stage,
                        fix_dir_x=draw(st.sampled_from(["+x", "-x"])),
                        fix_n_x=draw(st.integers(0, 50)),
                        fix_dir_y=draw(st.sampled_from(["+y", "-y"])),
                        fix_n_y=draw(st.integers(0, 50)), summary=summary)
    return FixLabel(result=result, failure_type=ft, stage=stage,
                    close_at=draw(st.integers(0, 200)),
                    strength=draw(st.one_of(st.floats(0.0, 1.0, allow_nan=False),
                                            st.integers(0, 1))),
                    summary=summary)


class TestRoundTrip:
    @settings(max_examples=500, deadline=None)
    @given(valid_labels())
    def test_parse_serialize_identity(self, label):
        parsed = parse(serialize(label))
        assert parsed.structured_equal(label)
        assert serialize(parsed) == serialize(label)

    def test_case_insensitive_keys_and_whitespace(self):
        label = parse("result = FAIL ;type=force_open; stage=grasp; "
                      "close_at=5; strength=1.0; fix me")
        assert label.failure_type is FailureType.force_open
        assert label.close_at == 5
        assert label.summary == "fix me"


MALFORMED = [
    ("", MissingFieldError),
    ("The gripper slipped.", MissingFieldError),
    ("TYPE=translation; STAGE=grasp", MissingFieldError),
    ("RESULT=MAYBE", DomainError),
    ("RESULT=fail", DomainError),  # values are case-sensitive
    ("RESULT=FAIL", MissingFieldError),  # FAIL needs TYPE
    ("RESULT=FAIL; TYPE=translation", MissingFieldError),  # needs STAGE
    ("RESULT=FAIL; TYPE=gravity_storm; STAGE=grasp", DomainError),
    ("RESULT=FAIL; TYPE=delay_close; STAGE=mid_air; CLOSE_AT=5; STRENGTH=1.0",
     DomainError),
    ("RESULT=FAIL; TYPE=delay_close; STAGE=grasp", MissingFieldError),
    ("RESULT=FAIL; TYPE=delay_close; STAGE=grasp; CLOSE_AT=five; STRENGTH=1.0",
     NumericFieldError),
    ("RESULT=FAIL; TYPE=delay_close; STAGE=grasp; CLOSE_AT=-3; STRENGTH=1.0",
     NumericFieldError),
    ("RESULT=FAIL; TYPE=delay_close; STAGE=grasp; CLOSE_AT=5; STRENGTH=heavy",
     NumericFieldError),
    ("RESULT=FAIL; TYPE=delay_close; STAGE=grasp; CLOSE_AT=5; STRENGTH=1.5",
     NumericFieldError),
    ("RESULT=FAIL; TYPE=translation; STAGE=pre_grasp; FIX_DIR_X=up; "
     "FIX_N_X=2; FIX_DIR_Y=+y; FIX_N_Y=3", DomainError),
    ("RESULT=FAIL; TYPE=translation; STAGE=pre_grasp; FIX_DIR_X=+y; "
     "FIX_N_X=2; FIX_DIR_Y=+y; FIX_N_Y=3", DomainError),  # axis mismatch
    ("RESULT=FAIL; TYPE=translation; STAGE=pre_grasp; FIX_DIR_X=-x; FIX_N_X=2",
     MissingFieldError),
    ("RESULT=FAIL; TYPE=translation; STAGE=pre_grasp; FIX_DIR_X=-x; "
     "FIX_N_X=-2; FIX_DIR_Y=+y; FIX_N_Y=3", NumericFieldError),
    ("RESULT=FAIL; TYPE=translation; STAGE=pre_grasp; FIX_DIR_X=-x; "
     "FIX_N_X=2.7; FIX_DIR_Y=+y; FIX_N_Y=3", NumericFieldError),
    ("RESULT=FAIL; TYPE=translation; STAGE=pre_grasp; FIX_DIR_X=-x; "
     "FIX_N_X=2; FIX_DIR_Y=+y; FIX_N_Y=3; CLOSE_AT=5; STRENGTH=1.0",
     SchemaViolationError),  # mixed fix families
    ("RESULT=SUCCESS; TYPE=translation; STAGE=pre_grasp; FIX_DIR_X=-x; "
     "FIX_N_X=2; FIX_DIR_Y=+y; FIX_N_Y=3", SchemaViolationError),
    ("RESULT=FAIL; RESULT=FAIL; TYPE=force_open; STAGE=grasp; CLOSE_AT=5; "
     "STRENGTH=1.0", SchemaViolationError),  # duplicate key
    ("RESULT=FAIL; TYPE=translation; STAGE=pre_grasp; FIX_DIR_X=-x; "
     "FIX_N_X=9007199254740992; FIX_DIR_Y=+y; FIX_N_Y=3", NumericFieldError),  # 2**53
    ("RESULT=FAIL; TYPE=delay_close; STAGE=grasp; CLOSE_AT=9007199254740992; "
     "STRENGTH=1.0", NumericFieldError),
    ("GRIPPER=closed; RESULT=FAIL", UnknownKeyError),
    ("RESULT=FAIL; TYPE=force_open; STAGE=grasp; CLOSE_AT=5; STRENGTH=1.0; "
     "VIBE=good", UnknownKeyError),
]


class TestMalformed:
    @pytest.mark.parametrize("text,exc", MALFORMED)
    def test_error_class(self, text, exc):
        with pytest.raises(exc):
            parse(text)

    def test_all_errors_are_label_errors(self):
        for text, _ in MALFORMED:
            with pytest.raises(LabelError):
                parse(text)

    def test_non_string_input(self):
        with pytest.raises(SchemaViolationError):
            parse(42)


class TestDirectConstruction:
    def test_success_with_fix_fields_rejected(self):
        with pytest.raises(SchemaViolationError):
            FixLabel(result="SUCCESS", close_at=5)

    def test_dirs_constant(self):
        assert DIRS == ("+x", "-x", "+y", "-y")


TRANSLATION = ("RESULT=FAIL; TYPE=translation; STAGE=pre_grasp; FIX_DIR_X=-x; "
               "FIX_N_X={FIX_N_X}; FIX_DIR_Y=+y; FIX_N_Y={FIX_N_Y}; s")
GRIPPER = "RESULT=FAIL; TYPE=weak_close; STAGE=grasp; CLOSE_AT={CLOSE_AT}; STRENGTH=0.8; s"


class TestIntegerBound:
    @pytest.mark.parametrize("key, template", [("FIX_N_X", TRANSLATION),
                                               ("FIX_N_Y", TRANSLATION),
                                               ("CLOSE_AT", GRIPPER)])
    def test_integers_lie_below_2_53(self, key, template):
        values = {"FIX_N_X": 1, "FIX_N_Y": 1, "CLOSE_AT": 1}
        text = template.format(**dict(values, **{key: 2 ** 53 - 1}))
        assert serialize(parse(text)) == text
        for big in (2 ** 53, 10 ** 400):
            with pytest.raises(NumericFieldError) as exc:
                parse(template.format(**dict(values, **{key: big})))
            assert str(exc.value) == f"{key} must be an integer below 2**53"

    def test_negative_integers_keep_the_validation_message(self):
        with pytest.raises(NumericFieldError, match="^FIX_N must be a non-negative integer$"):
            parse(TRANSLATION.format(FIX_N_X=-2 ** 70, FIX_N_Y=1))
        with pytest.raises(NumericFieldError, match="^CLOSE_AT must be a non-negative integer$"):
            parse(GRIPPER.format(CLOSE_AT=-1))


# The parser and serializer as they were before the grammar became one key
# table: the reference the table-driven ones must match on every text whose
# integers lie below 2**53.
_PARENT_FIELD_ORDER = ("RESULT", "TYPE", "STAGE", "FIX_DIR_X", "FIX_N_X",
                       "FIX_DIR_Y", "FIX_N_Y", "CLOSE_AT", "STRENGTH")
_KV_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*=\s*([^;]*?)\s*(?:;|$)")


def parent_serialize(label: FixLabel) -> str:
    values = {
        "RESULT": label.result,
        "TYPE": label.failure_type.value if label.failure_type else None,
        "STAGE": label.stage,
        "FIX_DIR_X": label.fix_dir_x,
        "FIX_N_X": None if label.fix_n_x is None else str(label.fix_n_x),
        "FIX_DIR_Y": label.fix_dir_y,
        "FIX_N_Y": None if label.fix_n_y is None else str(label.fix_n_y),
        "CLOSE_AT": None if label.close_at is None else str(label.close_at),
        "STRENGTH": None if label.strength is None else repr(float(label.strength)),
    }
    parts = [f"{k}={values[k]}" for k in _PARENT_FIELD_ORDER if values[k] is not None]
    out = "; ".join(parts)
    if label.summary:
        out += "; " + label.summary
    return out


def parent_parse(text: str) -> FixLabel:
    if not isinstance(text, str):
        raise SchemaViolationError("label must be a string")
    remaining = text
    fields: dict[str, str] = {}
    while True:
        m = _KV_RE.match(remaining)
        if not m:
            break
        key = m.group(1).upper()
        if key not in _PARENT_FIELD_ORDER:
            raise UnknownKeyError(f"unknown key {m.group(1)!r}")
        if key in fields:
            raise SchemaViolationError(f"duplicate key {key}")
        fields[key] = m.group(2)
        remaining = remaining[m.end():]
    summary = remaining.strip()

    if "RESULT" not in fields:
        raise MissingFieldError("missing RESULT field")
    result = fields.pop("RESULT")
    if result not in ("SUCCESS", "FAIL"):
        raise DomainError(f"RESULT must be SUCCESS or FAIL, got {result!r}")

    ftype = None
    if "TYPE" in fields:
        raw = fields.pop("TYPE")
        try:
            ftype = FailureType(raw)
        except ValueError:
            raise DomainError(f"TYPE {raw!r} outside the failure taxonomy") from None

    stage = fields.pop("STAGE", None)
    if stage is not None and stage not in STAGES:
        raise DomainError(f"STAGE {stage!r} outside {STAGES}")

    def _int_field(key: str) -> Optional[int]:
        if key not in fields:
            return None
        raw = fields.pop(key)
        try:
            return int(raw)
        except ValueError:
            raise NumericFieldError(f"{key} must be an integer, got {raw!r}") from None

    def _dir_field(key: str) -> Optional[str]:
        if key not in fields:
            return None
        raw = fields.pop(key)
        if raw not in DIRS:
            raise DomainError(f"{key} must be one of {DIRS}, got {raw!r}")
        return raw

    dir_x = _dir_field("FIX_DIR_X")
    n_x = _int_field("FIX_N_X")
    dir_y = _dir_field("FIX_DIR_Y")
    n_y = _int_field("FIX_N_Y")
    close_at = _int_field("CLOSE_AT")
    strength = None
    if "STRENGTH" in fields:
        raw = fields.pop("STRENGTH")
        try:
            strength = float(raw)
        except ValueError:
            raise NumericFieldError(f"STRENGTH must be a number, got {raw!r}") from None

    return FixLabel(result=result, failure_type=ftype, stage=stage,
                    fix_dir_x=dir_x, fix_n_x=n_x, fix_dir_y=dir_y, fix_n_y=n_y,
                    close_at=close_at, strength=strength, summary=summary)


# Non-ASCII decimal digits int() and float() accept: Arabic-Indic,
# Devanagari and fullwidth.
_DIGITS = "0123456789" + "\u0660\u0661\u0669" + "\u0966\u0967\u096f" + "\uff10\uff11\uff19"


@st.composite
def label_texts(draw, max_int: int):
    """Texts in and around the label grammar: a label of one family with a
    few edits. An edit drops a key, gives a key a value not of its kind, or
    adds a key (duplicate, of another family or unknown). Values not of their
    kind are integers from -2**70 to max_int, non-finite floats, digits in any
    script and free text. Keys come in any case and order; then a summary.
    The simplest example, with no edits, is a well-formed label."""
    integers = st.sampled_from(range(71)).map(str)  # the horizon is 60 steps
    types = draw(st.sampled_from([GRIPPER_TYPES, (FailureType.translation,), ()]))
    family = (FIELD_ORDER[:3] + FIELD_ORDER[7:] if len(types) > 1 else
              FIELD_ORDER[:7] if types else ("RESULT",))
    kinds = {"RESULT": st.just("FAIL" if types else "SUCCESS"),
             "TYPE": st.sampled_from([t.value for t in types]),
             "STAGE": st.sampled_from(STAGES), "FIX_DIR_X": st.sampled_from(DIRS[:2]),
             "FIX_DIR_Y": st.sampled_from(DIRS[2:]), "FIX_N_X": integers,
             "FIX_N_Y": integers, "CLOSE_AT": integers,
             "STRENGTH": st.one_of(st.floats(0.0, 1.0).map(repr), st.floats().map(repr),
                                   st.sampled_from(["nan", "-inf", "1e400", "1", "0"]))}
    other = st.one_of(st.sampled_from(["", "fail", "+y", "1_0", " 7 ", "+3", "2.0", "inf"]),
                      st.integers(-2 ** 70, max_int).map(str),
                      st.text(_DIGITS + "+-_.e ", max_size=8),
                      st.text(st.characters(exclude_characters=";"), max_size=6))
    pairs = draw(st.permutations([[key, draw(kinds[key])] for key in family]))
    for edit, i in draw(st.lists(st.tuples(st.sampled_from(["value", "drop", "add"]),
                                           st.sampled_from(range(9))), max_size=3)):
        if edit == "add" or not pairs:
            pairs.append([draw(st.sampled_from(FIELD_ORDER + ("VIBE",))), draw(other)])
        elif edit == "drop":
            pairs.pop(i % len(pairs))
        else:
            pairs[i % len(pairs)][1] = draw(other)
    cased = [(draw(st.sampled_from([key, key.lower(), key.title()])), value)
             for key, value in pairs]
    summary = draw(st.sampled_from(["", "fix it", "fix x = 1", "; RESULT=FAIL",
                                    "\u00e9t\u00e9 \U0001f916"]))
    return "; ".join([f"{k}={v}" for k, v in cased] + [summary])


def _outcome(parse_fn, text):
    try:
        return parse_fn(text)
    except LabelError as exc:
        return type(exc), str(exc)


class TestParentOracle:
    @settings(max_examples=1500, deadline=None)
    @given(label_texts(max_int=2 ** 53 - 1))
    @example("RESULT=FAIL; TYPE=delay_close; STAGE=grasp; CLOSE_AT=\u0661\u0662; STRENGTH=1")
    @example("result=FAIL;type=translation;stage=pre_grasp;fix_dir_x=+x;fix_n_x=1;"
             "fix_dir_y=-y;fix_n_y=0;FIX_N_Y=1")
    def test_parse_matches_the_parent(self, text):
        """Same label, or the same exception class and message."""
        got = _outcome(parse, text)
        assert got == _outcome(parent_parse, text)
        if isinstance(got, FixLabel):
            assert serialize(got) == parent_serialize(got)

    @settings(max_examples=500, deadline=None)
    @given(valid_labels())
    def test_serialize_matches_the_parent(self, label):
        assert serialize(label) == parent_serialize(label)
        assert parent_parse(serialize(label)) == parse(serialize(label))
