"""Line-delimited JSON persistence for rollouts and generic records.

One rollout per line with fields in the fixed order id, task, states,
actions, joints, tracks, spec, outcome (plus an optional trailing meta
object for provenance). Angles are radians, lengths meters. Serialization
is byte-stable: every line is what json.dumps writes with compact
separators and allow_nan=False (dumps_record), insertion-ordered keys and
repr-shortest floats. A rollout's arrays are encoded by orjson, each row
orjson would spell differently by json (dumps_rollout), so the written
bytes rely on orjson spelling floats from 1e-4 to 1e16 as repr does, which
tests/test_rollout_oracles.py checks. verify and label append their member
to the text of the line they read rather than re-encode the record
(with_member, with_meta_member).
Lines are decoded by orjson wherever it returns what json.loads returns, and
by json.loads everywhere else (loads_record).
"""

from __future__ import annotations

import json
import math
import os
import secrets
import stat
from contextlib import contextmanager
from typing import Iterable, Iterator, Optional, TextIO

import numpy as np
import orjson

from .core import JointTrace, Rollout, TrackSet, decode, step_array
from .errors import SchemaError, ValidationError
from .perturb import PerturbationSpec


# what json.dumps(..., separators=(",", ":"), allow_nan=False) builds per call
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)
_PRETTY = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False)


def _strict(encode, value):
    """encode(value), where json's refusal of a NaN or an infinity is a
    ValidationError."""
    try:
        return encode(value)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


def dumps_record(record) -> str:
    return _strict(_ENCODER.encode, record)


def dumps_json(payload) -> str:
    """Indented, key-sorted JSON of a manifest, report or calibration file."""
    return _strict(_PRETTY.encode, payload)


# "-" and the digits read as "0": see _no_long_integer
_MARKS = bytes.maketrans(b"-123456789", b"0000000000")
_LONG_RUN = b"0" * 20
_MAX_OPENERS = 512


def _no_long_integer(text: str) -> bool:
    """False if ``text`` may hold an integer literal outside [-2**63, 2**64).

    Such a literal is 20 digits, or a "-" and 19 digits: a run of 20 marks
    that does not follow a ".", as a fraction's digits do.
    """
    marks = text.encode("utf-8", "surrogatepass").translate(_MARKS)
    i = marks.find(_LONG_RUN)
    while i >= 0:
        if i == 0 or marks[i - 1] != ord("."):
            return False
        i = marks.find(_LONG_RUN, i + len(_LONG_RUN))
    return True


def loads_record(text: str):
    """``json.loads(text)``: the same value, or the same exception.

    orjson computes it where it reads what json reads. orjson has no nesting
    limit (an object nested deep enough crashes the process), where json
    raises RecursionError near the interpreter's recursion limit: a text
    holding fewer than 512 "[" and "{" nests less deeply than json reads,
    unless the caller's stack is already about 490 frames deep. orjson
    refuses NaN, Infinity, 1e400, a lone surrogate escape and a BOM, which
    json reads (or, for the BOM, reports in its own words). And orjson reads
    an integer outside [-2**63, 2**64) as a float, so its value is kept only
    for a text without one.
    """
    if text.count("[") + text.count("{") < _MAX_OPENERS:
        try:
            value = orjson.loads(text)
        except orjson.JSONDecodeError:
            pass
        else:
            if _no_long_integer(text):
                return value
    return json.loads(text)


class SourceRecord(dict):
    """A record read by read_records, with ``line``, the JSON text it was
    parsed from, stripped of surrounding whitespace."""

    __slots__ = ("line",)


def _splice_line(rec: dict) -> Optional[str]:
    """The source line of ``rec`` if a member may be appended to its text.

    A line holding ``NaN`` or ``Infinity`` (even inside a string) is not
    spliced: re-encoding it fails as it always did.
    """
    line = getattr(rec, "line", None)
    if line is None or "NaN" in line or "Infinity" in line:
        return None
    return line


def with_member(rec: dict, key: str, value):
    """``rec`` with ``key: value`` appended, for write_records.

    A record from read_records without ``key`` becomes its source line with
    the member appended to the text, which is what dumps_record writes for a
    line dumps_record wrote; the line's other members keep their own
    spacing and number spelling. Any other record becomes a new dict.
    """
    line = _splice_line(rec)
    if line is None or key in rec:
        return {**rec, key: value}
    return f'{line[:-1]}{"," if rec else ""}{json.dumps(key)}:{dumps_record(value)}}}'


def with_meta_member(rec: dict, key: str, value):
    """``rec`` with ``key: value`` appended to its ``meta`` object, for
    write_records.

    The member is spliced into the source line only when the line's last
    member is ``meta``, a non-empty object without ``key`` written as
    dumps_record writes it; then the result is what dumps_record writes for
    the changed record. Any other record becomes a new dict.
    """
    line = _splice_line(rec)
    meta = rec.get("meta")
    if line is not None and type(meta) is dict and meta and key not in meta:
        tail = f'"meta":{dumps_record(meta)}}}'
        # after "," or "{" the tail's first quote opens the last top-level key
        if line.endswith(tail) and line[-len(tail) - 1] in ",{":
            return f'{line[:-2]},{json.dumps(key)}:{dumps_record(value)}}}}}'
    return {**rec, "meta": {**rec.get("meta", {}), key: value}}


# orjson spells a float as repr does for this magnitude range; below it and
# above it, orjson writes 1e-5 and 1e16 where repr writes 1e-05 and 1e+16
_REPR_LO, _REPR_HI = 1e-4, 1e16


def _dumps_array(a: np.ndarray) -> str:
    """``dumps_record(a.tolist())`` for a float array.

    Each run of rows (along the first axis) whose every nonzero magnitude is
    in [1e-4, 1e16) is encoded by orjson, and each other row by json. An array
    holding a NaN or an infinity is encoded by json whole, which raises.
    """
    rows = a.tolist()
    mag = np.abs(a)
    if not (mag < np.inf).all():
        return dumps_record(rows)
    odd = (mag >= _REPR_HI) | ((mag < _REPR_LO) & (mag != 0.0))
    if not odd.any():
        return orjson.dumps(rows).decode()
    parts, start = [], 0
    for i in np.flatnonzero(odd.reshape(len(a), -1).any(axis=1)).tolist():
        if start < i:
            parts.append(orjson.dumps(rows[start:i])[1:-1].decode())
        parts.append(dumps_record(rows[i]))
        start = i + 1
    if start < len(rows):
        parts.append(orjson.dumps(rows[start:])[1:-1].decode())
    return f'[{",".join(parts)}]'


def dumps_rollout(ro: Rollout) -> str:
    """The JSONL line of ``ro``: what dumps_record writes for the object
    {id, task, states, actions, joints, tracks: {points, masks}, spec,
    outcome} with a trailing meta member when ``ro.meta`` is non-empty.

    The arrays go through _dumps_array; the masks are 0/1 integers. Members
    are encoded in line order, so an unencodable one raises what
    dumps_record raises.
    """
    return "".join(_rollout_parts(ro))


def _rollout_parts(ro: Rollout) -> list[str]:
    """The pieces of dumps_rollout's line, in order."""
    parts = ['{"id":', dumps_record(ro.id), ',"task":', dumps_record(ro.task),
             ',"states":', _dumps_array(ro.states),
             ',"actions":', _dumps_array(ro.actions),
             ',"joints":', "null" if ro.joints is None else _dumps_array(ro.joints.q)]
    if ro.tracks is None:
        parts.append(',"tracks":null')
    else:
        masks = orjson.dumps(ro.tracks.masks.astype(int).tolist()).decode()
        parts += [',"tracks":{"points":', _dumps_array(ro.tracks.points),
                  ',"masks":', masks, "}"]
    parts += [',"spec":', "null" if ro.spec is None else dumps_record(ro.spec.to_dict()),
              ',"outcome":', dumps_record(ro.outcome)]
    if ro.meta:
        parts += [',"meta":', dumps_record(ro.meta)]
    parts.append("}")
    return parts


def _step_rows(rows, kind: str) -> np.ndarray:
    """Validated (n, 7) array of JSON "state" or "action" rows (see step_array).

    Rows that are not lists of seven numbers are a SchemaError. Faults are
    reported in the order a row-by-row reader meets them, so a record holding
    both a schema fault and a bad value (non-finite, or outside its column's
    range, a ValidationError) reports whichever comes first.
    """
    try:
        a = np.array(rows)
    except ValueError:  # ragged rows
        a = None
    if a is not None and a.ndim == 2 and a.shape[1] == 7 and a.dtype.kind in "biuf":
        return step_array(a, kind)
    try:
        for row in rows:
            if not isinstance(row, list) or len(row) != 7:
                raise SchemaError(f"{kind} row is not 7 numbers: {row!r}")
            for v in row:
                if not isinstance(v, (int, float)):
                    raise SchemaError(f"{kind} value is not a number: {v!r}")
                if not math.isfinite(v):
                    raise ValidationError(f"non-finite {kind} field")
            step_array([row], kind)  # the column ranges
        # zero rows are left to the rollout's length check, after the other fields
        return step_array(np.array(list(rows), dtype=float).reshape(-1, 7), kind)
    except (TypeError, OverflowError) as exc:
        raise SchemaError(f"malformed {kind} rows: {exc}") from exc


def _number_array(rows, name: str) -> np.ndarray:
    """np.array of JSON rows of numbers; ragged rows or a non-number are a SchemaError."""
    try:
        a = np.array(rows)
        if a.dtype.kind in "biuf":
            return a
    except ValueError:  # ragged rows
        pass
    raise SchemaError(f"{name} must be equal-length rows of numbers")


def rollout_from_record(rec: dict) -> Rollout:
    decode(dict, rec, "rollout record")
    joints = rec.get("joints")
    try:
        tracks = None
        if rec.get("tracks") is not None:
            tracks = TrackSet(points=_number_array(rec["tracks"]["points"], "tracks.points"),
                              masks=_number_array(rec["tracks"]["masks"], "tracks.masks"))
        return Rollout._checked(
            id=rec["id"],
            task=rec["task"],
            states=_step_rows(rec["states"], "state"),
            actions=_step_rows(rec["actions"], "action"),
            joints=None if joints is None else JointTrace(_number_array(joints, "joints")),
            tracks=tracks,
            spec=decode(Optional[PerturbationSpec], rec.get("spec"), "spec"),
            outcome=rec.get("outcome"),
            meta=decode(dict, rec.get("meta", {}), "rollout meta"),
        )
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed rollout record: {exc}") from exc


@contextmanager
def atomic_open(path) -> Iterator[TextIO]:
    """UTF-8 text handle whose content appears at ``path`` only if the block
    succeeds.

    Writes a temp file next to the file ``path`` names (a symlink is
    followed) and renames it over that file on success; on any exception the
    temp file is removed and the file is left as it was. Reading ``path``
    while writing it is therefore safe. The file gets the mode plain
    ``open(path, "w")`` would give it: the old file's mode if one exists,
    else 0666 less the umask. A device or pipe, such as ``/dev/null``, cannot
    be replaced and is written in place.
    """
    path = os.path.realpath(path)
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{secrets.token_hex(8)}.tmp")
    # O_EXCL never opens an existing file; the kernel applies the umask
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_rollouts(path, rollouts: Iterable[Rollout]) -> int:
    n = 0
    with atomic_open(path) as fh:
        for ro in rollouts:
            # piece by piece: the whole line, 12 KB and more, is never built
            fh.writelines(_rollout_parts(ro))
            fh.write("\n")
            n += 1
    return n


def read_rollouts(path) -> list[Rollout]:
    return [rollout_from_record(rec) for rec in read_records(path)]


def read_records(path) -> Iterator[dict]:
    """The JSON value of each non-blank line; an object is a SourceRecord.

    A line that is not UTF-8 or not JSON (nested too deep counts) is a
    SchemaError naming the file and the line.
    """
    # undecodable bytes read as lone surrogates, which UTF-8 text never holds
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if not line.isascii():
                try:
                    line.encode()
                except UnicodeEncodeError as exc:
                    byte = ord(line[exc.start]) - 0xDC00
                    raise SchemaError(f"{path}:{n}: not UTF-8: "
                                      f"byte 0x{byte:02x}") from None
            try:
                rec = loads_record(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise SchemaError(f"{path}:{n}: invalid JSON: {exc}") from exc
            if type(rec) is dict:
                rec = SourceRecord(rec)
                rec.line = line
            yield rec


def write_records(path, records: Iterable) -> int:
    """Write one line per record: a str as it is, anything else through
    dumps_record."""
    n = 0
    with atomic_open(path) as fh:
        for rec in records:
            fh.write((rec if type(rec) is str else dumps_record(rec)) + "\n")
            n += 1
    return n


def write_json(path, payload: dict) -> None:
    """dumps_json(payload) and a newline, written piece by piece: an
    evaluation report lists every record, and is never held as one string."""
    with atomic_open(path) as fh:
        _strict(fh.writelines, _PRETTY.iterencode(payload))
        fh.write("\n")


def read_json(path) -> dict:
    """Read a UTF-8 JSON file that must hold one object; SchemaError otherwise."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    return decode(dict, payload, str(path))
