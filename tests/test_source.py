"""Package modules and test oracles parse under the oldest Python pyproject.toml allows."""

import ast
import re
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
