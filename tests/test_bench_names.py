"""The names the benchmark under ``bench/`` patches, counts or imports resolve
in the package.  ``bench/`` is read as text and never imported, so a deleted
or renamed name fails here, not only in ``python3 -m pytest bench``."""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _module_list(path, name):
    """The literal value of the top-level assignment to ``name`` in ``path``."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


def _imported_from_riccatint():
    """(module, name) for each ``from riccatint... import name`` in bench/run.py."""
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "riccatint"
            for alias in node.names]


def _pinned():
    traced = [(module, attr)
              for name in ("SPANNED", "COUNTED")
              for module, attr, _ in _module_list(BENCH / "tracing.py", name)]
    read = [("riccatint.cli", "check_hypotheses"), ("riccatint.lyapunov", "solve_both_perturbed")]
    return list(dict.fromkeys(traced + _imported_from_riccatint() + read))


PINNED = _pinned()


@pytest.mark.parametrize("module, dotted", PINNED, ids=[f"{m}:{d}" for m, d in PINNED])
def test_benchmark_names_resolve(module, dotted):
    obj = importlib.import_module(module)
    for part in dotted.split("."):
        obj = getattr(obj, part) if hasattr(obj, part) \
            else importlib.import_module(f"{obj.__name__}.{part}")
    assert obj is not None
