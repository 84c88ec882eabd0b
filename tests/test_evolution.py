import ast
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from riccatint.evolution import (EvolutionFamily, OperatorFunction, TimeGrid,
                                 adjoint_backward_family, build_forward_family)

from conftest import (certified_product_bound_reference, forward_steps_reference,
                      outcome, semigroup_defect_reference)

SRC = Path(__file__).resolve().parents[1] / "src" / "riccatint"


def test_time_grid_nodes():
    grid = TimeGrid(2.0, 4)
    assert_allclose(grid.nodes(), [0.0, 0.5, 1.0, 1.5, 2.0])
    assert grid.h == 0.5
    assert np.all(np.diff(grid.nodes()) > 0)
    assert_allclose(grid.midpoints(), [0.25, 0.75, 1.25, 1.75])


def test_time_grid_degenerate_and_invalid():
    grid = TimeGrid(0.0, 0)
    assert grid.num_nodes == 1 and grid.h == 0.0
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 3)


def test_operator_function_validation():
    grid = TimeGrid(1.0, 2)
    with pytest.raises(ValueError):
        OperatorFunction(grid, np.zeros((2, 2, 2)))  # wrong node count
    with pytest.raises(ValueError):
        OperatorFunction(grid, np.full((3, 1, 1), np.nan))
    fn = OperatorFunction.from_callable(grid, lambda t: [[t]])
    assert fn.shape == (1, 1)
    assert_allclose(fn.values[:, 0, 0], [0.0, 0.5, 1.0])
    assert_allclose(fn.midpoint_values[:, 0, 0], [0.25, 0.75])
    bare = OperatorFunction(grid, np.zeros((3, 1, 1)))
    assert bare.midpoint_values is None
    with pytest.raises(ValueError, match="needs midpoint samples"):
        build_forward_family(bare)


def test_propagate_step_zero_generator():
    grid = TimeGrid(1.0, 4)
    gen = OperatorFunction.zero(grid, 3)
    assert np.array_equal(build_forward_family(gen).steps[2], np.eye(3))


def test_propagate_step_scalar():
    grid = TimeGrid(1.0, 1)
    gen = OperatorFunction.constant(grid, [[1.0]])
    assert_allclose(build_forward_family(gen).steps[0], [[math.e]], rtol=1e-14)
    # a(t) = t on [0, 1] with one step: midpoint value 1/2 gets exponentiated
    gen_t = OperatorFunction.from_callable(grid, lambda t: [[t]])
    assert_allclose(build_forward_family(gen_t).steps[0], [[math.exp(0.5)]], rtol=1e-14)


def test_build_family_zero_generator_is_identity():
    grid = TimeGrid(1.0, 8)
    fam = build_forward_family(OperatorFunction.zero(grid, 2))
    for i, j in [(0, 0), (5, 2), (8, 0)]:
        assert np.array_equal(fam.value(i, j), np.eye(2))


def test_build_family_constant_generator(rng):
    a = rng.standard_normal((3, 3))
    a /= 2.0 * np.linalg.norm(a, 2)
    grid = TimeGrid(1.5, 64)
    fam = build_forward_family(OperatorFunction.constant(grid, a))
    # composing step exponentials of a constant generator is exact
    assert_allclose(fam.value(64, 0), scipy.linalg.expm(1.5 * a), atol=1e-12)


def test_build_family_commuting_time_varying():
    # A(t) = sin(t) I: U_{t,s} = exp(cos(s) - cos(t)) I
    def error_at(n):
        grid = TimeGrid(1.0, n)
        fam = build_forward_family(
            OperatorFunction.from_callable(grid, lambda t: np.sin(t) * np.eye(2)))
        exact = math.exp(math.cos(0.0) - math.cos(1.0))
        return abs(fam.value(n, 0)[0, 0] - exact)

    err_coarse, err_fine = error_at(100), error_at(200)
    assert err_coarse < 1e-4
    order = math.log2(err_coarse / err_fine)
    assert order >= 1.8


def test_family_value_composition(rng):
    grid = TimeGrid(1.0, 6)
    gen = OperatorFunction.from_callable(
        grid, lambda t: 0.4 * np.array([[0.0, 1.0 + t], [-1.0, 0.3 * t]]))
    fam = build_forward_family(gen)
    assert np.array_equal(fam.value(3, 3), np.eye(2))
    assert_allclose(fam.value(2, 0), fam.steps[1] @ fam.steps[0], atol=1e-15)
    assert_allclose(fam.value(4, 0), fam.value(4, 2) @ fam.value(2, 0), atol=1e-13)
    with pytest.raises(ValueError):
        fam.value(1, 4)  # wrong orientation for a forward family
    with pytest.raises(IndexError):
        fam.value(7, 0)


@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("start", [0, 3, 6])
def test_carry_yields_each_node_value_applied_to_x(rng, direction, start):
    fwd = EvolutionFamily(TimeGrid(1.0, 6), "forward", rng.standard_normal((6, 2, 2)))
    fam = fwd if direction == "forward" else adjoint_backward_family(fwd)
    x = rng.standard_normal((2, 3))
    carried = list(fam.carry(start, x))
    ends = range(start, 7) if direction == "forward" else range(start, -1, -1)
    assert len(carried) == len(ends) and carried[0] is x
    for end, item in zip(ends, carried):
        # the same products in the same order as the step-by-step definition
        ref = x
        for k in (range(start, end) if direction == "forward" else range(start - 1, end - 1, -1)):
            ref = fam.steps[k] @ ref
        assert np.array_equal(item, ref)
        assert np.array_equal(fam.value(end, start),
                              list(fam.carry(start, np.eye(2)))[abs(end - start)])


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_carry_refuses_starts_off_the_grid(rng, direction):
    fwd = EvolutionFamily(TimeGrid(1.0, 4), "forward", rng.standard_normal((4, 2, 2)))
    fam = fwd if direction == "forward" else adjoint_backward_family(fwd)
    for start in (-1, 5, 7):
        with pytest.raises(IndexError, match=f"start node out of range: {start}"):
            fam.carry(start, np.ones(2))
    assert len(list(fam.carry(4, np.ones(2)))) == (1 if direction == "forward" else 5)


def _loop_step_subscripts(path):
    """Lines of ``<...>.steps[...]`` inside a for/while loop or a comprehension,
    outside ``EvolutionFamily.carry``."""
    tree = ast.parse(path.read_text())
    allowed = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "EvolutionFamily":
            for item in cls.body:
                if isinstance(item, ast.FunctionDef) and item.name == "carry":
                    allowed |= {id(node) for node in ast.walk(item)}
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    return sorted({node.lineno for loop in ast.walk(tree)
                   if isinstance(loop, loops) and id(loop) not in allowed
                   for node in ast.walk(loop)
                   if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
                   and node.value.attr == "steps"})


def test_only_carry_loops_over_family_steps():
    """One family carry: no loop of the package indexes a family's steps but
    ``EvolutionFamily.carry``."""
    offenders = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
                 for line in _loop_step_subscripts(path)]
    assert offenders == []


def test_adjoint_backward_family(rng):
    grid = TimeGrid(1.0, 5)
    gen = OperatorFunction.from_callable(
        grid, lambda t: np.array([[0.1, 0.8 * t], [0.0, -0.2]]))
    fwd = build_forward_family(gen)
    bwd = adjoint_backward_family(fwd)
    assert bwd.direction == "backward"
    assert bwd.bound == fwd.bound
    # single-step transpose and composed-pair identity (S2 S1)^T = S1^T S2^T
    assert np.array_equal(bwd.steps[2], fwd.steps[2].T)
    assert_allclose((fwd.steps[2] @ fwd.steps[1]).T,
                    fwd.steps[1].T @ fwd.steps[2].T, atol=1e-15)
    for i, j in [(0, 5), (1, 4), (2, 2), (0, 3)]:
        assert_allclose(bwd.value(i, j), fwd.value(j, i).T, atol=1e-13)
    with pytest.raises(ValueError):
        adjoint_backward_family(bwd)


def test_adjoint_backward_family_trivial_cases():
    grid = TimeGrid(1.0, 3)
    fwd = build_forward_family(OperatorFunction.zero(grid, 2))
    bwd = adjoint_backward_family(fwd)
    assert np.array_equal(bwd.value(0, 3), np.eye(2))
    # scalar steps are self-adjoint
    fwd1 = build_forward_family(OperatorFunction.constant(grid, [[0.7]]))
    bwd1 = adjoint_backward_family(fwd1)
    assert np.array_equal(bwd1.steps, fwd1.steps)


def test_certified_bound_dominates(rng):
    grid = TimeGrid(1.0, 12)
    gen = OperatorFunction.from_callable(
        grid, lambda t: 0.8 * np.array([[0.2, 1.0], [np.sin(3 * t), -0.5]]))
    fam = build_forward_family(gen)
    assert fam.bound >= 1.0
    for i in range(0, 13, 2):
        for j in range(0, i + 1, 3):
            assert np.linalg.norm(fam.value(i, j), 2) <= fam.bound + 1e-12


def test_check_semigroup():
    grid = TimeGrid(1.0, 10)
    gen = OperatorFunction.from_callable(
        grid, lambda t: np.array([[0.0, 0.5 + t], [-0.5, 0.1]]))
    fam = build_forward_family(gen)
    assert semigroup_defect_reference(fam) <= 1e-12
    identity_fam = build_forward_family(OperatorFunction.zero(grid, 2))
    assert semigroup_defect_reference(identity_fam) == 0.0

    # external data violating the law: one adjacent value doubled
    def corrupted(i, j):
        if (i, j) == (6, 5):
            return 2.0 * fam.value(6, 5)
        return fam.value(i, j)

    assert semigroup_defect_reference(fam, value_fn=corrupted) > 0.1


def test_explicit_step_table_family():
    grid = TimeGrid(1.0, 3)
    steps = np.stack([np.eye(2) + 0.1 * k * np.ones((2, 2)) for k in range(3)])
    fam = EvolutionFamily(grid, "forward", steps)
    assert_allclose(fam.value(3, 0), steps[2] @ steps[1] @ steps[0])
    with pytest.raises(ValueError):
        EvolutionFamily(grid, "sideways", steps)
    with pytest.raises(ValueError):
        EvolutionFamily(grid, "forward", steps[:2])


def test_zero_horizon_family():
    grid = TimeGrid(0.0, 0)
    fam = EvolutionFamily(grid, "forward", np.zeros((0, 2, 2)))
    assert np.array_equal(fam.value(0, 0), np.eye(2))
    assert fam.bound == 1.0
    assert semigroup_defect_reference(fam) == 0.0


def _reference_generators():
    """Generators covering n = 1, n > 1, some zero midpoints and a zero horizon."""
    rng = np.random.default_rng(7)
    a3 = rng.standard_normal((3, 3))
    grid = TimeGrid(1.3, 40)
    yield OperatorFunction.from_callable(grid, lambda t: (1.0 + t) * a3)
    yield OperatorFunction.from_callable(grid, lambda t: [[np.sin(5.0 * t)]])
    yield OperatorFunction.from_callable(grid, lambda t: (t > 0.6) * a3)    # zero, then not
    yield OperatorFunction.from_callable(grid, lambda t: [[(t < 0.4) * -0.7]])
    yield OperatorFunction.zero(grid, 2)
    yield OperatorFunction.zero(TimeGrid(0.0, 0), 3)
    yield OperatorFunction.constant(TimeGrid(0.0, 0), [[2.0]])


def test_step_norms_and_bound_equal_one_svd_of_the_steps():
    for gen in _reference_generators():
        fam = build_forward_family(gen)
        want = (np.linalg.svd(fam.steps, compute_uv=False).max(axis=1)
                if gen.grid.steps else np.zeros(0))
        assert np.array_equal(fam.step_norms, want)
        assert fam.bound == certified_product_bound_reference(fam.steps)


def test_step_norms_are_computed_on_first_use():
    gen = next(_reference_generators())
    fwd = build_forward_family(gen)
    bwd = adjoint_backward_family(fwd)
    # cached_property keeps its value in the instance dict once computed
    assert not {"step_norms", "bound"} & (fwd.__dict__.keys() | bwd.__dict__.keys())
    assert bwd.bound == fwd.bound
    assert bwd.step_norms is fwd.step_norms
    assert {"step_norms", "bound"} <= fwd.__dict__.keys()


# ------------------------------------------- family build against per-step calls

def _generator(n, steps, zeros, scale, seed):
    """Random node and midpoint samples; ``zeros`` picks which midpoints are 0."""
    rng = np.random.default_rng(seed)
    grid = TimeGrid(1.0 if steps else 0.0, steps)
    values = scale * rng.standard_normal((steps + 1, n, n)) / np.sqrt(n)
    mids = scale * rng.standard_normal((steps, n, n)) / np.sqrt(n)
    if zeros == "all":
        mids[:] = 0.0
    elif zeros == "some":
        mids[rng.random(steps) < 0.5] = 0.0
    elif zeros == "negative":
        mids[rng.random(steps) < 0.5] = -0.0
    return OperatorFunction(grid, values, mids)


def _steps(gen):
    return build_forward_family(gen).steps


@given(n=st.sampled_from([1, 2, 3, 8, 32]), steps=st.sampled_from([0, 1, 2, 50]),
       zeros=st.sampled_from(["none", "some", "negative", "all"]),
       scale=st.sampled_from([0.5, 1e4]), seed=st.integers(0, 2 ** 32 - 1))
def test_family_build_bitwise_equals_per_step_reference(n, steps, zeros, scale, seed):
    gen = _generator(n, steps, zeros, scale, seed)
    assert outcome(_steps, gen) == outcome(forward_steps_reference, gen)


@pytest.mark.parametrize("n", [1, 2, 8])
@pytest.mark.parametrize("steps", [0, 1, 2, 50])
@pytest.mark.parametrize("zeros", ["none", "some", "all"])
def test_family_build_calls_expm_once_per_nonzero_step(monkeypatch, n, steps, zeros):
    gen = _generator(n, steps, zeros, 0.5, seed=steps)
    calls = []
    expm = scipy.linalg.expm

    def counting(mat):
        calls.append(mat)
        return expm(mat)

    monkeypatch.setattr(scipy.linalg, "expm", counting)
    build_forward_family(gen)
    nonzero = int(gen.midpoint_values.any(axis=(1, 2)).sum())
    assert len(calls) == nonzero
