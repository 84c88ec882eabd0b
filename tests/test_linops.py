import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from riccatint import linops
from riccatint.linops import first_defect, node_opnorms, sup_opnorm

from conftest import sup_opnorm_reference

SRC = Path(__file__).resolve().parents[1] / "src" / "riccatint"


def _random_psd(rng, n):
    m = rng.standard_normal((n, n))
    return m @ m.T


def test_op_norm_values():
    assert_allclose(sup_opnorm(np.eye(3)), 1.0)
    assert_allclose(sup_opnorm(np.diag([3.0, -4.0])), 4.0)
    # M^T M = diag(0, 4)
    assert_allclose(sup_opnorm([[0.0, 2.0], [0.0, 0.0]]), 2.0)
    assert sup_opnorm(np.zeros((3, 3))) == 0.0


def test_op_norm_homogeneous(rng):
    m = rng.standard_normal((4, 4))
    assert_allclose(sup_opnorm(-2.5 * m), 2.5 * sup_opnorm(m), rtol=1e-12)


def test_op_norm_of_psd_is_max_quadratic_form(rng):
    for _ in range(5):
        m = _random_psd(rng, 4)
        eigvals, eigvecs = np.linalg.eigh(m)
        v = eigvecs[:, -1]
        attained = v @ m @ v
        assert_allclose(sup_opnorm(m), attained, rtol=1e-10)
        for _ in range(40):
            x = rng.standard_normal(4)
            x /= np.linalg.norm(x)
            assert x @ m @ x <= sup_opnorm(m) + 1e-12


# ---------------------------------------------------------------- sup norm of a stack

_SHAPES = [(n, n) for n in (1, 2, 3, 8, 32)] + [(1, 4), (4, 1), (2, 5), (8, 3), (3, 32)]
_KINDS = ("random", "zero", "identical", "dominant", "rank-one", "near-tie",
          "rank-one-near-tie", "permuted", "rank-one-permuted", "flat-and-spike")


def _stack(kind, nodes, shape, seed):
    """A stack of ``nodes`` matrices of one structure, with entries of order 1.

    Near ties (factors within 1e-12 of 1) and signed row and column
    permutations of one matrix (equal norms, each computed its own way) test
    the margin of the bound; flat spectra next to a slightly larger rank-one
    spike, whose bound is smaller, test the power of the bound.
    """
    rng = np.random.default_rng(seed)
    rows, cols = shape
    if kind == "zero" or nodes == 0:
        return np.zeros((nodes, rows, cols))
    if kind == "flat-and-spike":
        stack = np.linalg.qr(rng.standard_normal((nodes, max(shape), min(shape))))[0]
        stack = stack if rows >= cols else np.swapaxes(stack, -1, -2)
        for i in range(1, nodes, 2):
            stack[i] = 0.0
            stack[i, rng.integers(rows), rng.integers(cols)] = 1.0 + 0.05 * rng.random()
        return stack
    if kind.startswith("rank-one"):
        base = rng.standard_normal((nodes, rows, 1)) @ rng.standard_normal((nodes, 1, cols))
    else:
        base = rng.standard_normal((nodes, rows, cols))
    if kind == "identical":
        return np.repeat(base[:1], nodes, axis=0)
    if kind == "dominant":
        base *= 1e-3
        base[rng.integers(nodes)] *= 1e3
    if kind.endswith("near-tie"):
        return base[:1] * (1.0 + 1e-12 * rng.uniform(-1.0, 1.0, (nodes, 1, 1)))
    if kind.endswith("permuted"):
        signs = rng.choice([-1.0, 1.0], (nodes, rows, 1))
        return np.stack([(sign * base[0][rng.permutation(rows)])[:, rng.permutation(cols)]
                         for sign in signs])
    return base


@settings(max_examples=400)
@given(nodes=st.integers(0, 40), shape=st.sampled_from(_SHAPES),
       kind=st.sampled_from(_KINDS),
       exponent=st.one_of(st.integers(-150, 150), st.just(200)),
       seed=st.integers(0, 2 ** 32 - 1), mixed=st.booleans())
def test_sup_opnorm_bitwise_equals_full_svd(nodes, shape, kind, exponent, seed, mixed):
    stack = _stack(kind, nodes, shape, seed) * 10.0 ** exponent
    if mixed:   # nodes scaled by 2^-600, 1 and 2^600: most bounds underflow
        assume(exponent <= 100)
        powers = np.random.default_rng(seed).choice([-600, 0, 600], nodes)
        stack = np.ldexp(stack, powers[:, None, None])
    assert sup_opnorm(stack) == sup_opnorm_reference(stack)


def test_sup_opnorm_small_and_single_stacks(rng):
    for stack in (np.zeros((0, 3, 3)), np.zeros((0, 2, 5)), np.zeros((4, 3, 3)),
                  rng.standard_normal((1, 3, 3)), rng.standard_normal((3, 4)),
                  np.full((2, 2, 2), 1e200), rng.standard_normal((2, 3, 2, 2))):
        assert sup_opnorm(stack) == sup_opnorm_reference(stack)
    assert sup_opnorm(np.zeros((0, 3, 3))) == 0.0


def test_sup_opnorm_non_finite_entries_behave_as_full_svd(rng):
    stack = rng.standard_normal((5, 3, 3))
    stack[2, 1, 0] = np.nan
    for norm in (sup_opnorm_reference, sup_opnorm):
        with pytest.raises(np.linalg.LinAlgError):
            norm(stack)
    for bad in (np.inf, -np.inf):
        stack[2, 1, 0] = bad
        assert np.isnan(sup_opnorm_reference(stack))
        assert np.isnan(sup_opnorm(stack))


@pytest.mark.parametrize("nodes, n, chunks", [
    (63, 32, 1), (64, 32, 1), (65, 32, 2),      # just below, at and above 512 KiB
    (501, 32, 8), (287, 8, 1), (2001, 8, 2),    # the benchmark's stacks
    (2, 400, 2), (1, 300, 1),                   # fewer nodes than 512 KiB chunks
])
def test_sup_opnorm_bounds_in_chunks_of_at_most_512_kib(monkeypatch, nodes, n, chunks):
    rng = np.random.default_rng(nodes)
    stack = rng.standard_normal((nodes, n, n))
    stack[rng.integers(nodes)] *= 1.0 + 1e-13       # a near tie for the largest norm
    sizes = []
    bounds = linops._opnorm_bounds

    def recording(part):
        sizes.append(part.nbytes)
        return bounds(part)

    monkeypatch.setattr(linops, "_opnorm_bounds", recording)
    assert sup_opnorm(stack) == sup_opnorm_reference(stack)
    assert len(sizes) == chunks and sum(sizes) == stack.nbytes
    assert max(sizes) <= max(512 << 10, n * n * 8)


def _is_matrix_two_norm(node):
    """A call ``<...>.norm(x, 2, ...)`` or ``<...>.norm(x, ord=2, ...)``."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "norm"):
        return False
    order = [kw.value for kw in node.keywords if kw.arg == "ord"] + node.args[1:2]
    return any(isinstance(arg, ast.Constant) and arg.value == 2 for arg in order)


def test_only_linops_calls_the_svd():
    """One norm helper: every SVD and matrix 2-norm of the package goes through linops."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "linops.py":
            continue
        text = path.read_text()
        offenders += [f"{path.name}:{number}: {line.strip()}"
                      for number, line in enumerate(text.splitlines(), 1)
                      if re.search(r"\bsvd\b", line)]
        offenders += [f"{path.name}:{node.lineno}: norm(..., 2)"
                      for node in ast.walk(ast.parse(text)) if _is_matrix_two_norm(node)]
    assert offenders == []


def test_first_defect_decomposes_and_scales_only_unequal_nodes(monkeypatch, rng):
    a = rng.standard_normal((10, 3, 3))
    b = a.copy()
    b[3, 0, 1] += 1e-9
    b[7, 2, 0] += 1.0
    decomposed, scaled = [], []

    def counting(values):
        decomposed.append(len(values))
        return node_opnorms(values)

    monkeypatch.setattr(linops, "node_opnorms", counting)

    def scale(part):
        scaled.append(part.tolist())
        return np.ones(part.size)

    assert first_defect(a, b, scale, 1e-6) == 7      # node 3 alone, then the rest
    assert decomposed == [1, 1] and scaled == [[3], [7]]
    decomposed.clear()
    assert first_defect(a, a.copy(), scale, 0.0) is None and decomposed == []


def _swapaxes_inequalities(tree):
    """Lines of a ``!=`` comparison with an operand that calls ``swapaxes``."""
    def calls_swapaxes(operand):
        return any(isinstance(call, ast.Call)
                   and getattr(call.func, "attr", getattr(call.func, "id", None)) == "swapaxes"
                   for call in ast.walk(operand))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Compare) and any(isinstance(op, ast.NotEq) for op in node.ops)
            and any(calls_swapaxes(operand) for operand in [node.left, *node.comparators])]


def test_only_linops_scans_for_defects():
    """One exact-zero-skipping defect scan: outside linops, no module compares a stack
    with its ``swapaxes`` by ``!=`` (``first_defect`` does); ``==`` on bits is allowed."""
    offenders = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
                 if path.name != "linops.py"
                 for line in _swapaxes_inequalities(ast.parse(path.read_text()))]
    assert offenders == []
