"""The README's python example runs as written, and every public name has a use."""

import ast
import re
from pathlib import Path

import graphtree

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    distortion = float(capsys.readouterr().out)
    assert 0.0 <= distortion <= 1.0


def _package_uses():
    """(name, enclosing top-level definition) for every name read in src/graphtree.

    Imports, definitions and the string entries of __all__ are not reads.
    """
    uses = set()
    for path in (ROOT / "src" / "graphtree").glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    uses.add((node.id, owner))
                elif isinstance(node, ast.Attribute):
                    uses.add((node.attr, owner))
    return uses


def test_every_public_name_has_a_use():
    # a package caller outside the name's own definition, or a README mention
    uses = _package_uses()
    readme = README.read_text()
    unused = [name for name in graphtree.__all__
              if not any(used == name and owner != name for used, owner in uses)
              and not re.search(rf"(?<!\w){re.escape(name)}(?!\w)", readme)]
    assert unused == []
