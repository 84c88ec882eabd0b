"""The README's library quick start runs, and the names it and the package
declare as public resolve."""

import contextlib
import importlib
import io
import re
from pathlib import Path

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


def test_library_api_names_resolve():
    """Every dotted name the "Library API" paragraph cites (``linops.sup_opnorm``,
    ``riccati.HypothesisReport``, ``OperatorFunction.from_sampler``, ...)
    exists: its head is ``riccatint``, a submodule or a public name."""
    text = README.read_text(encoding="utf-8")
    section = text.split("### Library API", 1)[1].split("\n## ", 1)[0]
    cited = re.findall(r"`(\w+(?:\.\w+)+)", section)
    assert "riccati.HypothesisReport" in cited
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
