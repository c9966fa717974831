"""Whole-source checks: the package and the test oracles parse under the oldest
Python pyproject.toml allows, every test oracle and private helper is in use,
the package exports exactly its modules' public names, the CLI starts without
loading multiprocessing, the benchmark's tracer can still wrap the package,
and a failing property test does not end the test run."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import graphtree
from graphtree.errors import ValidationError

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "tests" / "reference.py"
PACKAGE = sorted((ROOT / "src" / "graphtree").glob("*.py"))
MODULES = PACKAGE + [REFERENCE]


def _oldest_python():
    """(major, minor) of requires-python's floor, (3, 10) today."""
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_parses_on_oldest_python(path):
    # feature_version rejects grammar newer than the floor, e.g. except* (3.11)
    ast.parse(path.read_text(), filename=str(path), feature_version=_oldest_python())


def _names(node):
    """Every identifier under node: bare names, attributes and imported names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def test_every_reference_function_is_used():
    # a superseded oracle must not linger: each top-level function of
    # reference.py is named by a test module or by another top-level definition there
    defs = [node for node in ast.parse(REFERENCE.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    used = set()
    for path in (ROOT / "tests").glob("*.py"):
        if path != REFERENCE:
            used |= _names(ast.parse(path.read_text()))
    unused = [f.name for f in defs if isinstance(f, ast.FunctionDef) and f.name not in used
              and not any(f.name in _names(other) for other in defs if other is not f)]
    assert not unused, f"reference.py functions no test uses: {unused}"


def test_every_private_helper_is_used():
    # a helper orphaned by a refactor must not linger: each private top-level
    # function or class of the package is named by another top-level statement in it
    defs = [node for path in PACKAGE for node in ast.parse(path.read_text()).body]
    unused = [d.name for d in defs if isinstance(d, (ast.FunctionDef, ast.ClassDef))
              and d.name.startswith("_")
              and not any(d.name in _names(other) for other in defs if other is not d)]
    assert not unused, f"private helpers nothing in the package uses: {unused}"


def test_package_exports_exactly_the_layer_lists():
    # the tracer and the README rely on one rule: the top level exports
    # ValidationError, __version__ and every name in a module's own __all__
    layers = [importlib.import_module(f"graphtree.{path.stem}") for path in PACKAGE
              if path.stem != "__init__" and re.search(r"^__all__ = ", path.read_text(), re.M)]
    want = ["ValidationError", "__version__"] + [name for mod in layers for name in mod.__all__]
    assert len(set(want)) == len(want)
    assert sorted(graphtree.__all__) == sorted(want)
    assert graphtree.ValidationError is ValidationError
    for mod in layers:
        for name in mod.__all__:
            assert getattr(graphtree, name) is getattr(mod, name), f"{mod.__name__}.{name}"


def test_cli_import_leaves_multiprocessing_unloaded():
    # only experiment runs with workers > 1 use a process pool, so a CLI start,
    # which imports every layer, need not pay for multiprocessing
    code = "import sys, graphtree.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True,
                         timeout=120)
    assert out.stdout.strip() == "False"


def test_benchmark_tracer_installs():
    # perfbench/spans.py wraps every name in the layer modules' __all__ and the
    # Dendrogram serializers by name, so a rename there breaks every traced run
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    res = subprocess.run(
        [sys.executable, "-c", "import graphtree; from spans import Tracer; Tracer().install()"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


def test_failing_property_test_leaves_the_run_going(tmp_path):
    # with every warning an error, a warning Hypothesis raises while it reports
    # a failing example must not end the run before the next test
    (tmp_path / "test_two.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_fails(x):\n    assert x < 0\n\n\n"
        "def test_passes():\n    pass\n")
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir",
         str(tmp_path), "-q", "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in res.stdout + res.stderr
    assert "1 failed, 1 passed" in res.stdout, res.stdout
