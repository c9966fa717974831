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
    """(name, enclosing definitions, outermost first) for every name read in src/graphtree.

    Imports, definitions and the string entries of __all__ are not reads.
    """
    uses = set()

    def visit(node, owners):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owners += (node.name,)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            uses.add((node.id, owners))
        elif isinstance(node, ast.Attribute):
            uses.add((node.attr, owners))
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    for path in (ROOT / "src" / "graphtree").glob("*.py"):
        visit(ast.parse(path.read_text()), ())
    return uses


def _in_readme(name):
    return re.search(rf"(?<!\w){re.escape(name)}(?!\w)", README.read_text())


def test_every_public_name_has_a_use():
    # a package caller outside the name's own definition, or a README mention
    uses = _package_uses()
    unused = [name for name in graphtree.__all__
              if not any(used == name and owners[:1] != (name,) for used, owners in uses)
              and not _in_readme(name)]
    assert unused == []


def test_every_public_member_has_a_use():
    # the same rule for the methods and properties of the public classes; matched
    # by name alone, so a short member name can pass on a namesake elsewhere
    uses = _package_uses()
    members = [(top.name, node.name)
               for path in (ROOT / "src" / "graphtree").glob("*.py")
               for top in ast.parse(path.read_text()).body
               if isinstance(top, ast.ClassDef) and top.name in graphtree.__all__
               for node in top.body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    unused = [f"{cls}.{name}" for cls, name in members
              if not any(used == name and owners[:2] != (cls, name) for used, owners in uses)
              and not _in_readme(name)]
    assert unused == []
