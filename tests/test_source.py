"""Whole-source checks: the package and the test oracles parse under the oldest
Python pyproject.toml allows, and the benchmark's tracer can still wrap the package."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "graphtree").glob("*.py")) + [ROOT / "tests" / "reference.py"]


def _oldest_python():
    """(major, minor) of requires-python's floor, (3, 10) today."""
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_parses_on_oldest_python(path):
    # feature_version rejects grammar newer than the floor, e.g. except* (3.11)
    ast.parse(path.read_text(), filename=str(path), feature_version=_oldest_python())


def test_benchmark_tracer_installs():
    # perfbench/spans.py wraps every name in the layer modules' __all__ and the
    # Dendrogram serializers by name, so a rename there breaks every traced run
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    res = subprocess.run(
        [sys.executable, "-c", "import graphtree; from spans import Tracer; Tracer().install()"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
