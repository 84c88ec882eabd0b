import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from riccatint import linops
from riccatint.evolution import OperatorFunction, TimeGrid
from riccatint.linops import first_defect, node_opnorms, sup_opnorm
from riccatint.oracle import solve_differential_riccati
from riccatint.testing import (inverse_linear_problem, random_symmetric_problem,
                               tanh_problem)

from conftest import outcome, rk4_reference, sup_opnorm_reference, symmetry_defect


def test_oracle_scalar_closed_forms():
    problem, gen = tanh_problem(2000)
    p_oracle = solve_differential_riccati(gen, problem.B, problem.C, problem.G)
    exact = np.tanh(1.0 - problem.grid.nodes())
    assert np.abs(p_oracle.values[:, 0, 0] - exact).max() <= 1e-10
    assert np.array_equal(p_oracle.values[-1], problem.G)
    assert p_oracle.grid == problem.grid   # fixed steps on the shared grid

    problem2, gen2 = inverse_linear_problem(2000)
    p_oracle2 = solve_differential_riccati(gen2, problem2.B, problem2.C, problem2.G)
    exact2 = 1.0 / (1.0 + 1.0 - problem2.grid.nodes())
    assert np.abs(p_oracle2.values[:, 0, 0] - exact2).max() <= 1e-10


def test_oracle_zero_data():
    grid = TimeGrid(1.0, 100)
    zero = OperatorFunction.zero(grid, 2)
    one = OperatorFunction.constant(grid, np.eye(2))
    p_oracle = solve_differential_riccati(zero, one, zero, np.zeros((2, 2)))
    assert np.abs(p_oracle.values).max() == 0.0


def test_oracle_preserves_symmetry_and_positivity():
    problem, gen = random_symmetric_problem(seed=4, n=4, steps=500)
    p_oracle = solve_differential_riccati(gen, problem.B, problem.C, problem.G)
    vals = p_oracle.values
    assert symmetry_defect(p_oracle) <= 1e-10
    assert np.linalg.eigvalsh(vals).min() >= -1e-10


def test_oracle_gap_refines_at_second_order():
    """The gap to the order-2 integral solver is dominated by the h^2 side."""
    from riccatint.riccati import solve_monotone

    gaps = {}
    for n_steps in (500, 1000):
        problem, gen = random_symmetric_problem(seed=6, n=2, steps=n_steps)
        sol = solve_monotone(problem)
        p_oracle = solve_differential_riccati(gen, problem.B, problem.C, problem.G)
        gaps[n_steps] = sup_opnorm(sol.P.values - p_oracle.values)
    assert math.log2(gaps[500] / gaps[1000]) >= 1.8


def test_oracle_requires_midpoints():
    grid = TimeGrid(1.0, 10)
    gen = OperatorFunction(grid, np.zeros((11, 1, 1)))
    full = OperatorFunction.constant(grid, [[1.0]])
    with pytest.raises(ValueError, match="midpoint"):
        solve_differential_riccati(gen, full, full, np.zeros((1, 1)))


def test_oracle_blowup_diagnostic():
    # B = -1 makes p' = -p^2: going backward from p(T) = 2 the solution has a
    # pole at T - t = 1/2, so the run must fail with a node diagnostic
    grid = TimeGrid(1.0, 200)
    gen = OperatorFunction.zero(grid, 1)
    b_neg = OperatorFunction.constant(grid, [[-1.0]])
    c_zero = OperatorFunction.zero(grid, 1)
    with pytest.raises(RuntimeError, match="node"):
        solve_differential_riccati(gen, b_neg, c_zero, np.array([[2.0]]))


# ------------------------------------------------- RK4 against the per-step loop

def test_publish_sees_each_step_final():
    """``publish(values, i)`` follows each step, from node steps - 1 down to 0,
    and the rows it is told are final are the returned ones; without the hook
    the values are the same bits."""
    problem, gen = random_symmetric_problem(seed=4, n=3, steps=60)
    args = (gen, problem.B, problem.C, problem.G)
    seen = []
    got = solve_differential_riccati(
        *args, publish=lambda values, i: seen.append((i, values[i:].copy()))).values
    assert [i for i, _ in seen] == list(range(59, -1, -1))
    assert all(np.array_equal(rows, got[i:]) for i, rows in seen)
    assert np.array_equal(solve_differential_riccati(*args).values, got)


def _oracle_values(generator, B, C, G, grid):
    """The oracle's node values, called as ``rk4_reference`` is (on the generator's grid)."""
    return solve_differential_riccati(generator, B, C, G).values


def _sampled(grid, rng, n, kind, scale=1.0):
    """Node and midpoint samples: random, symmetric, symmetric up to an
    asymmetry of about the oracle's tolerance 1e-12, or zero."""
    size = (grid.num_nodes + grid.steps, n, n)
    if kind == "zero":
        stack = np.zeros(size)
    else:
        stack = scale * rng.standard_normal(size) / np.sqrt(n)
    if kind in ("symmetric", "near-symmetric"):
        stack = stack @ np.swapaxes(stack, -1, -2)
    if kind == "near-symmetric" and n > 1:
        stack[rng.integers(len(stack)), 0, 1] += rng.choice([0.5e-12, 2e-12]) * (
            1.0 + np.abs(stack).max())
    return OperatorFunction(grid, stack[:grid.num_nodes], stack[grid.num_nodes:])


_KINDS = ["general", "symmetric", "near-symmetric", "zero"]


@given(n=st.sampled_from([1, 2, 3, 8, 32]), steps=st.sampled_from([0, 1, 2, 50]),
       generator=st.sampled_from(["general", "zero"]), b=st.sampled_from(_KINDS),
       c=st.sampled_from(_KINDS), symmetric_g=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_rk4_bitwise_equals_per_step_reference(n, steps, generator, b, c, symmetric_g,
                                               seed):
    rng = np.random.default_rng(seed)
    grid = TimeGrid(1.0 if steps else 0.0, steps)
    gen = _sampled(grid, rng, n, generator, 0.5)
    b_fn, c_fn = _sampled(grid, rng, n, b), _sampled(grid, rng, n, c)
    g = rng.standard_normal((n, n))
    g = g @ g.T if symmetric_g else g
    assert outcome(_oracle_values, gen, b_fn, c_fn, g, grid) \
        == outcome(rk4_reference, gen, b_fn, c_fn, g, grid)


def _pole(n, symmetric, steps=200):
    """B negative definite, so p' = ... + p B p runs into a pole backward from G."""
    grid = TimeGrid(1.0, steps)
    b = -np.eye(n)
    c = np.zeros((n, n))
    gen = np.zeros((n, n))
    g = 2.0 * np.eye(n)
    if n > 1:
        b[0, 1] = b[1, 0] = 0.3
        g[0, 1] = g[1, 0] = 0.5
        if not symmetric:
            gen[0, 1], c[1, 0] = 0.4, 0.2
    return (OperatorFunction.constant(grid, gen), OperatorFunction.constant(grid, b),
            OperatorFunction.constant(grid, c), g, grid)


def _symmetrization_overflow(steps):
    """A finite first step whose symmetrization (V + V^T) / 2 overflows."""
    grid = TimeGrid(1.0, steps)
    zero = OperatorFunction.zero(grid, 2)
    return zero, zero, zero, np.full((2, 2), 1.5e308), grid


@pytest.mark.parametrize("case", [
    _pole(1, True), _pole(2, True), _pole(2, False), _pole(3, False, steps=40),
    _symmetrization_overflow(5), _symmetrization_overflow(1),
], ids=["1d", "2d-symmetric", "2d-general", "3d-general-coarse",
        "symmetrization-overflow", "symmetrization-overflow-one-step"])
def test_rk4_blowup_is_reported_at_the_reference_node(case):
    got = outcome(_oracle_values, *case)
    assert got == outcome(rk4_reference, *case)
    assert got[0] in ("RuntimeError", "ValueError")


def test_symmetric_decision_decomposes_only_the_first_asymmetric_node(monkeypatch):
    grid = TimeGrid(1.0, 50)
    general = OperatorFunction.constant(grid, [[1.0, 0.2], [0.0, 1.0]])
    symmetric = OperatorFunction.constant(grid, np.eye(2))
    decomposed = []

    def counting(values):
        decomposed.append(len(values))
        return node_opnorms(values)

    monkeypatch.setattr(linops, "node_opnorms", counting)
    p_oracle = solve_differential_riccati(symmetric, symmetric, general, np.eye(2))
    assert sum(decomposed) == 1         # B exactly symmetric, C fails at node 0
    assert symmetry_defect(p_oracle) > 0.0      # not symmetrized


@given(nodes=st.integers(1, 30), n=st.sampled_from([1, 2, 3, 8]),
       defect=st.sampled_from([0.0, 0.5e-12, 1e-12, 2e-12]), where=st.integers(0, 29),
       seed=st.integers(0, 2 ** 32 - 1))
def test_symmetric_decision_equals_sup_norm_test(nodes, n, defect, where, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((nodes, n, n))
    values = values + np.swapaxes(values, -1, -2)
    if n > 1:
        values[where % nodes, 0, 1] += defect * (1.0 + np.abs(values).max())
    bound = 1e-12 * (1.0 + float(np.abs(values).max()))
    want = sup_opnorm_reference(values - np.swapaxes(values, -1, -2)) <= bound
    scale = 1.0 + float(np.abs(values).max())
    got = first_defect(values, np.swapaxes(values, -1, -2), lambda part: scale, 1e-12) is None
    assert got == want
