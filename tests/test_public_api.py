"""A public API of only what is used: every name that ``riccatint`` exports
is used by the package beyond its own definition, by the benchmark or by the
acceptance suite.  A name none of them uses is a helper, imported from its
module where a test needs it."""

import ast
from pathlib import Path

import pytest

import riccatint

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "riccatint"


def _used_names(path, skip=None):
    """Names, attribute names and imported names in the file at ``path``,
    outside the definition named ``skip``."""
    used, stack = set(), [ast.parse(path.read_text())]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.update(node.name.split("."))
        stack.extend(ast.iter_child_nodes(node))
    return used


@pytest.mark.parametrize("name", sorted(set(riccatint.__all__) - {"__version__"}))
def test_every_exported_name_is_used(name):
    users = [path for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py" and name in _used_names(path, skip=name)]
    users += [path for path in [*sorted((ROOT / "bench").glob("*.py")),
                                ROOT / "tests" / "test_acceptance.py"]
              if name in _used_names(path)]
    assert users, f"riccatint.{name} is exported but used nowhere"
