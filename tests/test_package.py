"""Package exports load their module on first access."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import failsynth


def test_semantic_import_does_not_load_numpy():
    src = str(Path(failsynth.__file__).resolve().parents[1])
    code = ("import sys, failsynth.semantic; "
            "assert 'numpy' not in sys.modules, 'numpy was imported'")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_every_export_resolves():
    for name in failsynth.__all__:
        assert getattr(failsynth, name) is not None, name
    assert set(failsynth.__all__) <= set(dir(failsynth))


def test_star_import():
    namespace = {}
    exec("from failsynth import *", namespace)
    assert set(failsynth.__all__) <= set(namespace)
    from failsynth.core import Rollout
    assert namespace["Rollout"] is Rollout


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        failsynth.no_such_name
