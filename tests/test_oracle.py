import math

import numpy as np
import pytest

from riccatint.evolution import OperatorFunction, TimeGrid
from riccatint.oracle import OdeSolveReport, compare, solve_differential_riccati
from riccatint.testing import (inverse_linear_problem, random_symmetric_problem,
                               tanh_problem)


def test_oracle_scalar_closed_forms():
    problem, gen = tanh_problem(2000)
    report = solve_differential_riccati(gen, problem.B, problem.C, problem.G,
                                        problem.grid)
    exact = np.tanh(1.0 - problem.grid.nodes())
    assert np.abs(report.P_oracle.values[:, 0, 0] - exact).max() <= 1e-10
    assert report.terminal_check == 0.0
    assert report.P_oracle.grid == problem.grid   # fixed steps on the shared grid

    problem2, gen2 = inverse_linear_problem(2000)
    report2 = solve_differential_riccati(gen2, problem2.B, problem2.C,
                                         problem2.G, problem2.grid)
    exact2 = 1.0 / (1.0 + 1.0 - problem2.grid.nodes())
    assert np.abs(report2.P_oracle.values[:, 0, 0] - exact2).max() <= 1e-10


def test_oracle_zero_data():
    grid = TimeGrid(1.0, 100)
    zero = OperatorFunction.zero(grid, 2)
    one = OperatorFunction.constant(grid, np.eye(2))
    report = solve_differential_riccati(zero, one, zero, np.zeros((2, 2)), grid)
    assert np.abs(report.P_oracle.values).max() == 0.0


def test_oracle_preserves_symmetry_and_positivity():
    problem, gen = random_symmetric_problem(seed=4, n=4, steps=500)
    report = solve_differential_riccati(gen, problem.B, problem.C, problem.G,
                                        problem.grid)
    vals = report.P_oracle.values
    assert report.P_oracle.symmetry_defect() <= 1e-10
    assert np.linalg.eigvalsh(vals).min() >= -1e-10


def test_compare():
    problem, gen = tanh_problem(200)
    report = solve_differential_riccati(gen, problem.B, problem.C, problem.G,
                                        problem.grid)
    assert compare(report.P_oracle, report) == 0.0
    other_grid = TimeGrid(1.0, 100)
    other = OperatorFunction.zero(other_grid, 1, midpoints=False)
    with pytest.raises(ValueError):
        compare(other, report)


def test_oracle_gap_refines_at_second_order():
    """The gap to the order-2 integral solver is dominated by the h^2 side."""
    from riccatint.riccati import solve_monotone

    gaps = {}
    for n_steps in (500, 1000):
        problem, gen = random_symmetric_problem(seed=6, n=2, steps=n_steps)
        sol = solve_monotone(problem)
        report = solve_differential_riccati(gen, problem.B, problem.C,
                                            problem.G, problem.grid)
        gaps[n_steps] = compare(sol.P, report)
    assert math.log2(gaps[500] / gaps[1000]) >= 1.8


def test_oracle_requires_midpoints():
    grid = TimeGrid(1.0, 10)
    gen = OperatorFunction.zero(grid, 1, midpoints=False)
    full = OperatorFunction.constant(grid, [[1.0]])
    with pytest.raises(ValueError, match="midpoint"):
        solve_differential_riccati(gen, full, full, np.zeros((1, 1)), grid)


def test_oracle_blowup_diagnostic():
    # B = -1 makes p' = -p^2: going backward from p(T) = 2 the solution has a
    # pole at T - t = 1/2, so the run must fail with a node diagnostic
    grid = TimeGrid(1.0, 200)
    gen = OperatorFunction.zero(grid, 1)
    b_neg = OperatorFunction.constant(grid, [[-1.0]])
    c_zero = OperatorFunction.zero(grid, 1)
    with pytest.raises(RuntimeError, match="node"):
        solve_differential_riccati(gen, b_neg, c_zero, np.array([[2.0]]), grid)


def test_report_dataclass_fields():
    grid = TimeGrid(1.0, 4)
    values = np.zeros((5, 1, 1))
    report = OdeSolveReport(P_oracle=OperatorFunction(grid, values),
                            terminal_check=0.0)
    assert report.terminal_check == 0.0
