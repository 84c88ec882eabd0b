"""A public API of only what is used: every name that ``riccatint`` exports,
and every default of its functions and public methods, is used by the package
beyond its own definition, by the benchmark or by the acceptance suite.  A name
none of them uses is a helper, imported from its module where a test needs it;
a default no call of theirs sets is a constant."""

import ast
import dataclasses
import inspect
import itertools
import types
from pathlib import Path

import pytest

import riccatint

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "riccatint"
USERS = [*sorted((ROOT / "bench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]


def _nodes(path, skip=None):
    """The syntax nodes of the file at ``path``, outside the definition named ``skip``."""
    stack = [ast.parse(path.read_text())]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _used_names(path, skip=None):
    """Names, attribute names and imported names in the file at ``path``,
    outside the definition named ``skip``."""
    used = set()
    for node in _nodes(path, skip):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.update(node.name.split("."))
    return used


@pytest.mark.parametrize("name", sorted(set(riccatint.__all__) - {"__version__"}))
def test_every_exported_name_is_used(name):
    users = [path for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py" and name in _used_names(path, skip=name)]
    users += [path for path in USERS if name in _used_names(path)]
    assert users, f"riccatint.{name} is exported but used nowhere"


def _defaults():
    """(function name, parameter, position or None if keyword-only) for every
    parameter with a default of an exported function, of a public method of an
    exported class, or of the constructor of an exported class that is not a
    dataclass (the fields of a dataclass are out of scope)."""
    for name in sorted(set(riccatint.__all__) - {"__version__"}):
        exported = getattr(riccatint, name)
        members = []
        if inspect.isclass(exported):
            members = [(attr, getattr(exported, attr), isinstance(raw, types.FunctionType))
                       for attr, raw in vars(exported).items() if not attr.startswith("_")
                       and isinstance(raw, (types.FunctionType, classmethod, staticmethod))]
        if not dataclasses.is_dataclass(exported):
            members.append((name, exported, False))
        for function, member, takes_self in members:
            params = list(inspect.signature(member).parameters.values())[takes_self:]
            for position, param in enumerate(params):
                if param.default is not inspect.Parameter.empty:
                    yield pytest.param(function, param.name, position
                                       if param.kind is param.POSITIONAL_OR_KEYWORD else None,
                                       id=f"{function}-{param.name}")


def _passes(call, function, param, position):
    """Whether ``call`` calls a function named ``function`` with ``param`` set."""
    called = getattr(call.func, "id", getattr(call.func, "attr", None))
    positional = list(itertools.takewhile(lambda arg: not isinstance(arg, ast.Starred),
                                          call.args))
    return called == function and (any(kw.arg == param for kw in call.keywords)
                                   or position is not None and len(positional) > position)


@pytest.mark.parametrize("function, param, position", _defaults())
def test_every_public_default_is_set_by_a_caller(function, param, position):
    files = [(path, function) for path in sorted(SRC.glob("*.py"))]
    files += [(path, None) for path in USERS]
    assert any(_passes(node, function, param, position)
               for path, skip in files for node in _nodes(path, skip)
               if isinstance(node, ast.Call)), \
        f"no caller sets {param!r} of {function}: make it a constant"
