"""Package exports load their module on first access, and every third-party
module the package imports is a declared dependency."""

import ast
import os
import re
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


def test_third_party_imports_are_declared():
    """Each top-level module imported under src/failsynth that is neither the
    standard library nor failsynth is named in pyproject.toml's
    ``dependencies`` (each distribution here shares its module's name)."""
    tomllib = pytest.importorskip("tomllib")
    package = Path(failsynth.__file__).resolve().parent
    imported = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"failsynth"}
    pyproject = tomllib.loads((package.parents[1] / "pyproject.toml").read_text())
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
                for dep in pyproject["project"]["dependencies"]}
    assert "numpy" in third_party  # the walk sees the imports
    assert third_party <= declared, f"undeclared: {sorted(third_party - declared)}"


# Imported names no code in their module reads, each kept because perfbench's
# trace patches or counts it there, with the harness line that does.
UNREAD_IMPORTS = {
    ("pipeline", "verify_rollout"): "perfbench/harness.py:256 wraps it",
    ("verify", "state_diff"): "perfbench/harness.py:261 counts its calls",
}


def _unread_imports(path: Path) -> set:
    """Names path imports, other than from __future__, that it never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    return imported - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def test_every_import_is_read():
    """Each module reads every name it imports, except the allow-listed ones,
    which the harness still names and no module has started to read."""
    package = Path(failsynth.__file__).resolve().parent
    unread = {(path.stem, name) for path in package.glob("*.py")
              if path.name != "__init__.py" for name in _unread_imports(path)}
    assert unread == UNREAD_IMPORTS.keys()
    harness = (package.parents[1] / "perfbench" / "harness.py").read_text()
    for module, name in UNREAD_IMPORTS:
        assert f'"failsynth.{module}.{name}"' in harness, (module, name)


# Module-level names nothing reads yet, each with the plan that will read it;
# dotted, so that the string here is not itself a read of the name.
UNREAD_NAMES = {
    "world.JOINT_MAP_VERSION": "ROADMAP item 10 stamps it into calibration.json",
}


def _defined_names(path: Path) -> set:
    """The top-level functions, classes and assigned names of path, less dunders."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def _read_names(path: Path) -> set:
    """Names path loads as a name or an attribute, imports, or spells as a
    string constant (as __init__._EXPORTS names the exports)."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def test_every_module_level_name_is_read():
    """Each top-level function, class and assigned name in the package is
    read somewhere in src/, perfbench/ or tests/, except the allow-listed
    ones, which exist and are still unread."""
    package = Path(failsynth.__file__).resolve().parent
    repo = package.parents[1]
    read = set().union(*(_read_names(path) for top in ("src", "perfbench", "tests")
                         for path in (repo / top).rglob("*.py")))
    defined = {path.stem: _defined_names(path) for path in package.glob("*.py")}
    assert all(name.split(".")[1] in defined[name.split(".")[0]] for name in UNREAD_NAMES)
    unread = {f"{module}.{name}" for module, names in defined.items()
              for name in names - read}
    assert unread == UNREAD_NAMES.keys()
