"""Line-delimited JSON persistence for rollouts and generic records.

One rollout per line with fields in the fixed order id, task, states,
actions, joints, tracks, spec, outcome (plus an optional trailing meta
object for provenance). Angles are radians, lengths meters. Serialization
is byte-stable: compact separators, insertion-ordered keys, repr-shortest
floats.
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

from .core import JointTrace, Rollout, TrackSet, decode, step_array
from .errors import SchemaError, ValidationError
from .perturb import PerturbationSpec


def dumps_record(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"), allow_nan=False)


def rollout_to_record(rollout: Rollout) -> dict:
    rec = {
        "id": rollout.id,
        "task": rollout.task,
        "states": rollout.states.tolist(),
        "actions": rollout.actions.tolist(),
        "joints": None if rollout.joints is None else rollout.joints.q.tolist(),
        "tracks": None if rollout.tracks is None else {
            "points": rollout.tracks.points.tolist(),
            "masks": rollout.tracks.masks.astype(int).tolist(),
        },
        "spec": None if rollout.spec is None else rollout.spec.to_dict(),
        "outcome": rollout.outcome,
    }
    if rollout.meta:
        rec["meta"] = rollout.meta
    return rec


def _step_rows(rows, kind: str) -> np.ndarray:
    """Validated (n, 7) array of JSON "state" or "action" rows (see step_array).

    Rows that are not lists of seven numbers are a SchemaError. Faults are
    reported in the order a row-by-row, field-by-field reader meets them, so
    a record holding both a schema fault and a bad value (non-finite, or a
    gripper outside [0, 1], a ValidationError) reports whichever comes first.
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
            step_array([row], kind)  # the gripper range
        # zero rows are left to the rollout's length check, after the other fields
        return step_array(np.array(list(rows), dtype=float).reshape(-1, 7), kind)
    except (TypeError, OverflowError) as exc:
        raise SchemaError(f"malformed {kind} rows: {exc}") from exc


def rollout_from_record(rec: dict) -> Rollout:
    decode(dict, rec, "rollout record")
    try:
        tracks = None
        if rec.get("tracks") is not None:
            tracks = TrackSet(points=np.array(rec["tracks"]["points"], dtype=float),
                              masks=np.array(rec["tracks"]["masks"], dtype=bool))
        return Rollout(
            id=rec["id"],
            task=rec["task"],
            states=_step_rows(rec["states"], "state"),
            actions=_step_rows(rec["actions"], "action"),
            joints=None if rec.get("joints") is None else JointTrace(np.array(rec["joints"])),
            tracks=tracks,
            spec=decode(Optional[PerturbationSpec], rec.get("spec"), "spec"),
            outcome=rec.get("outcome"),
            meta=decode(dict, rec.get("meta", {}), "rollout meta"),
        )
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed rollout record: {exc}") from exc


@contextmanager
def atomic_open(path) -> Iterator[TextIO]:
    """Text handle whose content appears at ``path`` only if the block succeeds.

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
        with open(path, "w") as fh:
            yield fh
        return
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{secrets.token_hex(8)}.tmp")
    # O_EXCL never opens an existing file; the kernel applies the umask
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w") as fh:
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
            fh.write(dumps_record(rollout_to_record(ro)) + "\n")
            n += 1
    return n


def read_rollouts(path) -> list[Rollout]:
    return [rollout_from_record(rec) for rec in read_records(path)]


def read_records(path) -> Iterator[dict]:
    with open(path) as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{path}:{i + 1}: invalid JSON: {exc}") from exc


def write_records(path, records: Iterable[dict]) -> int:
    n = 0
    with atomic_open(path) as fh:
        for rec in records:
            fh.write(dumps_record(rec) + "\n")
            n += 1
    return n


def write_json(path, payload: dict) -> None:
    with atomic_open(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def read_json(path) -> dict:
    """Read a JSON file that must hold one object; SchemaError otherwise."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    return decode(dict, payload, str(path))
