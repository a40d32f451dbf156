"""A single config edit never crashes a stage, and a refused edit names its key.

Each key of the default config in turn (each element of a [lo, hi] range and
each visual floor too) is set to 0, -1, 1e300, -1e300 or NaN, and each
[lo, hi] range and min/max pair is swapped. The pipeline then runs through
cli.main at -n 2: generate, perturb, calibrate, verify, label, recover and
evaluate. Every stage exits 0, 2 or 4 and prints no traceback or numpy
warning, and a non-zero exit names every part of the edited key's dotted path
(an element's key, such as tracks.weights, without its index).
"""

import json
import math
import warnings

import pytest

from failsynth.cli import main
from failsynth.config import PipelineConfig
from failsynth.rollout_io import read_records

VALUES = (0, -1, 1e300, -1e300, math.nan)
PAIRS = (("perturb", "delay_min", "delay_max"), ("perturb", "weak_min", "weak_max"))


def _leaves(obj, path=()):
    """(path, value) for each scalar of the JSON form of a config."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, path + (k,))
    elif isinstance(obj, list):
        yield path, obj  # a [lo, hi] range, swapped as a whole
        for i, v in enumerate(obj):
            yield path + (i,), v
    else:
        yield path, obj


DEFAULTS = PipelineConfig().to_dict()
EDITS = [(path, list(reversed(v)) if isinstance(v, list) else VALUES)
         for path, v in _leaves(DEFAULTS)]


def _edited(path, value) -> dict:
    cfg = json.loads(json.dumps(DEFAULTS))
    *parents, last = path
    node = cfg
    for p in parents:
        node = node[p]
    node[last] = value
    return cfg


def _pipeline(tmp_path, cfg: dict, capsys) -> tuple[int, str]:
    """The first non-zero exit of the stages run on cfg and its stderr, or
    (0, "") when every stage exits 0."""
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(cfg))
    d = {n: tmp_path / n for n in ("demos", "cands", "calib", "kept", "labeled",
                                    "recovered", "preds", "report")}
    stages = [("generate", "-n", 2, "-o", d["demos"]),
              ("perturb", "-i", d["demos"], "-o", d["cands"]),
              ("calibrate", "-i", d["demos"], "-o", d["calib"]),
              ("verify", "-i", d["cands"], "--calibration", d["calib"], "-o", d["kept"]),
              ("label", "-i", d["kept"], "-o", d["labeled"]),
              ("recover", "-i", d["labeled"], "-o", d["recovered"]),
              ("evaluate", "-i", d["labeled"], "--predictions", d["preds"],
               "-o", d["report"])]
    for argv in stages:
        if argv[0] == "evaluate":
            d["preds"].write_text("".join(
                json.dumps({"id": r["id"], "pred_text": r["label"]}) + "\n"
                for r in read_records(d["labeled"])))
        capsys.readouterr()
        code = main([str(a) for a in argv] + ["--config", str(cfgfile)])
        err = capsys.readouterr().err
        assert code in (0, 2, 4), (argv[0], code, err)
        assert "Traceback" not in err
        if code:
            return code, err
    return 0, ""


def _check(tmp_path, capsys, cfg, names):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # numpy overflow and the like
        code, err = _pipeline(tmp_path, cfg, capsys)
    assert code == 0 or all(n in err for n in names if isinstance(n, str)), err


@pytest.mark.parametrize("path, values", EDITS,
                         ids=[".".join(map(str, path)) for path, _ in EDITS])
def test_single_edit(tmp_path, capsys, path, values):
    for value in values if isinstance(values, tuple) else (values,):
        _check(tmp_path, capsys, _edited(path, value), path)


@pytest.mark.parametrize("section, lo, hi", PAIRS, ids=[p[1][:-4] for p in PAIRS])
def test_swapped_pair(tmp_path, capsys, section, lo, hi):
    cfg = _edited((section, lo), DEFAULTS[section][hi])
    cfg[section][hi] = DEFAULTS[section][lo]
    _check(tmp_path, capsys, cfg, (section, lo, hi))
