"""Structured fix labels: deterministic generation, serialization, parsing.

Serialized form is a semicolon-joined KEY=VALUE prefix in the order of the
key table _FIELDS, followed by "; " and a templated natural-language summary.
Absent fields are omitted; parse(serialize(label)) is the identity and the
byte form is stable across runs and hosts.

Parse errors are structured:
  MissingFieldError    - RESULT (or a type-required field) absent
  DomainError          - value outside a closed enum (RESULT/TYPE/STAGE/DIR)
  NumericFieldError    - an integer or number field malformed or out of range
  SchemaViolationError - contradictory fields (e.g. SUCCESS with fixes),
                         duplicate keys, or a malformed KEY=VALUE token
  UnknownKeyError      - an unrecognized key (reported, never dropped)
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional

from .config import LabelConfig, SceneConfig
from .core import FailureType
from .errors import SchemaError


class LabelError(SchemaError):
    """Base for label grammar and schema errors."""


class MissingFieldError(LabelError):
    pass


class DomainError(LabelError):
    pass


class NumericFieldError(LabelError):
    pass


class SchemaViolationError(LabelError):
    pass


class UnknownKeyError(LabelError):
    pass


STAGES = ("pre_grasp", "grasp", "transport", "place")
DIRS = ("+x", "-x", "+y", "-y")
GRIPPER_TYPES = (FailureType.delay_close, FailureType.weak_close,
                 FailureType.force_open)

_KV_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*=\s*([^;]*?)\s*(?:;|$)")


@dataclass(frozen=True)
class FixLabel:
    """One structured failure/fix record."""

    result: str
    failure_type: Optional[FailureType] = None
    stage: Optional[str] = None
    fix_dir_x: Optional[str] = None
    fix_n_x: Optional[int] = None
    fix_dir_y: Optional[str] = None
    fix_n_y: Optional[int] = None
    close_at: Optional[int] = None
    strength: Optional[float] = None
    summary: str = ""

    def __post_init__(self):
        _validate_label(self)

    def is_translation(self) -> bool:
        return self.failure_type is FailureType.translation

    def structured_equal(self, other: "FixLabel") -> bool:
        """Equality on the structured fields, ignoring the summary."""
        return all(getattr(self, f) == getattr(other, f) for f, _, _ in _FIELDS.values())


def _validate_label(label: FixLabel) -> None:
    if label.result not in ("SUCCESS", "FAIL"):
        raise DomainError(f"RESULT must be SUCCESS or FAIL, got {label.result!r}")
    fix_fields = (label.failure_type, label.stage, label.fix_dir_x, label.fix_n_x,
                  label.fix_dir_y, label.fix_n_y, label.close_at, label.strength)
    if label.result == "SUCCESS":
        if any(f is not None for f in fix_fields):
            raise SchemaViolationError("SUCCESS label must carry no fix fields")
        return
    if label.failure_type is None:
        raise MissingFieldError("FAIL label requires TYPE")
    if label.stage is None:
        raise MissingFieldError("FAIL label requires STAGE")
    if label.stage not in STAGES:
        raise DomainError(f"STAGE {label.stage!r} outside {STAGES}")
    if label.failure_type is FailureType.translation:
        for name in ("fix_dir_x", "fix_n_x", "fix_dir_y", "fix_n_y"):
            if getattr(label, name) is None:
                raise MissingFieldError(f"translation label requires {name.upper()}")
        if label.close_at is not None or label.strength is not None:
            raise SchemaViolationError("translation label must not carry gripper fix fields")
        if label.fix_dir_x not in ("+x", "-x") or label.fix_dir_y not in ("+y", "-y"):
            raise DomainError("FIX_DIR must be an axis-matched token from "
                              f"{DIRS}")
        if label.fix_n_x < 0 or label.fix_n_y < 0:
            raise NumericFieldError("FIX_N must be a non-negative integer")
    elif label.failure_type in GRIPPER_TYPES:
        if label.close_at is None or label.strength is None:
            raise MissingFieldError("gripper label requires CLOSE_AT and STRENGTH")
        if any(f is not None for f in (label.fix_dir_x, label.fix_n_x,
                                       label.fix_dir_y, label.fix_n_y)):
            raise SchemaViolationError("gripper label must not carry FIX_DIR/FIX_N fields")
        if label.close_at < 0:
            raise NumericFieldError("CLOSE_AT must be a non-negative integer")
        if not 0.0 <= label.strength <= 1.0:
            raise NumericFieldError("STRENGTH must lie in [0, 1]")
    else:
        raise DomainError(f"unknown failure type {label.failure_type!r}")


def _fmt_float(v: float) -> str:
    # repr gives the shortest round-trippable decimal; stable across hosts
    return repr(float(v))


def _choice(options: tuple, message: str, cast=str):
    """Reader of a token in options; message names one outside them."""
    def read(key: str, raw: str):
        if raw not in options:
            raise DomainError(message.format(key=key, raw=raw, options=options))
        return cast(raw)
    return read


def _integer(key: str, raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise NumericFieldError(f"{key} must be an integer, got {raw!r}") from None
    if value >= 2 ** 53:  # where n * bin_size and |a - b| / cap stay defined
        raise NumericFieldError(f"{key} must be an integer below 2**53")
    return value


def _number(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise NumericFieldError(f"{key} must be a number, got {raw!r}") from None


_DIR = _choice(DIRS, "{key} must be one of {options}, got {raw!r}")
# KEY -> (FixLabel field, reader of the value text, writer of the value), in
# serialization order, which is also the order in which parse checks them.
_FIELDS = {
    "RESULT": ("result", _choice(("SUCCESS", "FAIL"),
                                 "{key} must be SUCCESS or FAIL, got {raw!r}"), str),
    "TYPE": ("failure_type", _choice(tuple(FailureType), "{key} {raw!r} outside the "
                                     "failure taxonomy", FailureType), lambda t: t.value),
    "STAGE": ("stage", _choice(STAGES, "{key} {raw!r} outside {options}"), str),
    "FIX_DIR_X": ("fix_dir_x", _DIR, str),
    "FIX_N_X": ("fix_n_x", _integer, str),
    "FIX_DIR_Y": ("fix_dir_y", _DIR, str),
    "FIX_N_Y": ("fix_n_y", _integer, str),
    "CLOSE_AT": ("close_at", _integer, str),
    "STRENGTH": ("strength", _number, _fmt_float),
}
FIELD_ORDER = tuple(_FIELDS)


_SUMMARY_TEMPLATES = {
    FailureType.translation: (
        "The execution failed due to a translation misalignment before grasping. "
        "To fix it, nudge the end-effector in {dx} for {nx} steps and in {dy} "
        "for {ny} steps in the keyframe."),
    FailureType.delay_close: (
        "The execution failed because the gripper closed too late. To fix it, "
        "close the gripper at step {k} with strength {s}."),
    FailureType.weak_close: (
        "The execution failed because the gripper closed too weakly. To fix it, "
        "re-close the gripper at step {k} with strength {s}."),
    FailureType.force_open: (
        "The execution failed because the gripper never closed at the keyframe. "
        "To fix it, close the gripper at step {k} with strength {s}."),
}
_SUCCESS_SUMMARY = "The execution completed successfully."


def generate_label(spec, bin_size: float = LabelConfig.bin_size,
                   attach_strength: float = SceneConfig.attach_strength,
                   strength_margin: float = LabelConfig.strength_margin) -> FixLabel:
    """Deterministic fix label from the injected perturbation parameters.

    spec=None denotes an unperturbed success rollout. Translation corrections
    point opposite the injected offset, quantized to bin_size steps; gripper
    corrections anchor at the original keyframe.
    """
    if spec is None:
        return FixLabel(result="SUCCESS", summary=_SUCCESS_SUMMARY)
    ft = FailureType(spec.failure_type)
    if ft is FailureType.translation:
        ox, oy = spec.offset_x, spec.offset_y
        if ox == 0.0 and oy == 0.0:
            raise SchemaError("translation spec with zero offsets cannot be labeled")
        dir_x = "-x" if ox > 0 else "+x"
        dir_y = "-y" if oy > 0 else "+y"
        n_x = int(math.floor(abs(ox) / bin_size + 0.5))
        n_y = int(math.floor(abs(oy) / bin_size + 0.5))
        summary = _SUMMARY_TEMPLATES[ft].format(dx=dir_x, nx=n_x, dy=dir_y, ny=n_y)
        return FixLabel(result="FAIL", failure_type=ft, stage="pre_grasp",
                        fix_dir_x=dir_x, fix_n_x=n_x, fix_dir_y=dir_y, fix_n_y=n_y,
                        summary=summary)
    if ft is FailureType.weak_close:
        # round keeps the serialized decimal short and host-stable
        strength = round(min(1.0, attach_strength + strength_margin), 6)
    else:
        strength = 1.0
    summary = _SUMMARY_TEMPLATES[ft].format(k=spec.keyframe, s=_fmt_float(strength))
    return FixLabel(result="FAIL", failure_type=ft, stage="grasp",
                    close_at=spec.keyframe, strength=strength, summary=summary)


def serialize(label: FixLabel) -> str:
    """Byte-stable KEY=VALUE form; absent fields omitted, summary appended."""
    parts = [f"{key}={write(value)}" for key, (field, _, write) in _FIELDS.items()
             if (value := getattr(label, field)) is not None]
    out = "; ".join(parts)
    if label.summary:
        out += "; " + label.summary
    return out


def parse(text: str) -> FixLabel:
    """Strict parse of the label grammar; raises a structured LabelError.

    Accepts arbitrary model output: a semicolon-separated KEY=VALUE prefix
    (keys case-insensitive, whitespace tolerated) followed by a free-text
    summary.
    """
    if not isinstance(text, str):
        raise SchemaViolationError("label must be a string")
    remaining = text
    fields: dict[str, str] = {}
    while True:
        m = _KV_RE.match(remaining)
        if not m:
            break
        key = m.group(1).upper()
        if key not in _FIELDS:
            raise UnknownKeyError(f"unknown key {m.group(1)!r}")
        if key in fields:
            raise SchemaViolationError(f"duplicate key {key}")
        fields[key] = m.group(2)
        remaining = remaining[m.end():]
    if "RESULT" not in fields:
        raise MissingFieldError("missing RESULT field")
    values = {field: read(key, fields[key])
              for key, (field, read, _) in _FIELDS.items() if key in fields}
    return FixLabel(**values, summary=remaining.strip())
