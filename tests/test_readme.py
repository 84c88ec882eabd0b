"""The README's library quick start runs, and the names it and the package
declare as public resolve."""

import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

import riccatint

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_quick_start_runs():
    blocks = _python_blocks()
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    residual, contraction_lhs = float(lines[-2]), float(lines[-1])
    assert residual <= 1e-10
    assert 0.0 < contraction_lhs < 1.0


def test_public_names_resolve():
    assert len(set(riccatint.__all__)) == len(riccatint.__all__)
    for name in riccatint.__all__:
        assert getattr(riccatint, name) is not None, name
    imported = re.findall(r"from riccatint import \(([^)]*)\)", "".join(_python_blocks()))
    for name in re.split(r"[\s,]+", " ".join(imported).strip()):
        assert name in riccatint.__all__, name


def _check_library_api_names(section):
    """Every dotted name the section cites (``linops.sup_opnorm``,
    ``RiccatiProblem.first_violation``, ``OperatorFunction.from_sampler``, ...)
    exists: its head is ``riccatint``, a submodule or a public name.  Every
    name cited in call form without a dot (``solve_linear(``) is public or the
    last part of a dotted name the section also cites (``carry(`` beside
    ``EvolutionFamily.carry``)."""
    cited = re.findall(r"`(\w+(?:\.\w+)+)", section)
    for dotted in cited:
        head, *rest = dotted.split(".")
        if head == "riccatint":
            obj = riccatint
        elif head in riccatint.__all__:
            obj = getattr(riccatint, head)
        else:
            obj = importlib.import_module(f"riccatint.{head}")
        for name in rest:
            assert hasattr(obj, name), dotted
            obj = getattr(obj, name)
    tails = {dotted.rsplit(".", 1)[1] for dotted in cited}
    for name in re.findall(r"`(\w+)\(", section):
        assert name in riccatint.__all__ or name in tails, name
    return cited


def _library_api_section():
    text = README.read_text(encoding="utf-8")
    return text.split("### Library API", 1)[1].split("\n## ", 1)[0]


def test_library_api_names_resolve():
    section = _library_api_section()
    assert "RiccatiProblem.first_violation" in _check_library_api_names(section)
    assert "`solve_linear(" in section and "`carry(" in section


def test_library_api_guard_rejects_a_retired_call_name():
    section = _library_api_section() + "\n`compare(P, oracle_P)` takes two of them.\n"
    with pytest.raises(AssertionError, match="compare"):
        _check_library_api_names(section)
