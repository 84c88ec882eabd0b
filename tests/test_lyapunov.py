import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from riccatint import lyapunov, riccati
from riccatint.evolution import (OperatorFunction, TimeGrid,
                                 adjoint_backward_family, build_forward_family)
from riccatint.lyapunov import (LinearIntegralProblem, _march, _window_defects,
                                solve_linear)
from riccatint.testing import random_symmetric_problem
from riccatint.volterra import perturb_forward

import conftest
from conftest import (linear_picard_reference, march_reference, march_reference_blocked,
                      march_reference_cold, outcome, window_defects_reference,
                      window_defects_reference_blocked)


def _scalar_setup(n_steps=200, horizon=1.0):
    grid = TimeGrid(horizon, n_steps)
    fwd = build_forward_family(OperatorFunction.zero(grid, 1))
    return grid, fwd, adjoint_backward_family(fwd)


def _const(grid, value):
    return OperatorFunction.constant(grid, [[value]])


def test_homogeneous_transport():
    # Q1 = 0, Q12 = 0: P(t) = V_{t,T} G U_{T,t} exactly
    grid = TimeGrid(1.0, 50)
    gen = OperatorFunction.from_callable(
        grid, lambda t: 0.5 * np.array([[0.0, 1.0], [-1.0 - t, 0.2]]))
    fwd = build_forward_family(gen)
    bwd = adjoint_backward_family(fwd)
    g = np.array([[1.0, 0.5], [0.5, 2.0]])
    problem = LinearIntegralProblem(fwd, bwd, OperatorFunction.zero(grid, 2), g,
                                    Q1=OperatorFunction.zero(grid, 2))
    sol = solve_linear(problem)
    for i in (0, 20, 50):
        assert_allclose(sol.values[i], bwd.value(i, 50) @ g @ fwd.value(50, i),
                        atol=1e-13)


def test_scalar_closed_forms():
    grid, fwd, bwd = _scalar_setup()
    t = grid.nodes()
    g = 0.7
    q = 0.9
    # right-perturbed: p(t) = g e^{-q (T-t)}
    problem = LinearIntegralProblem(fwd, bwd, _const(grid, 0.0), [[g]],
                                    Q1=_const(grid, q))
    sol = solve_linear(problem)
    assert_allclose(sol.values[:, 0, 0], g * np.exp(-q * (1.0 - t)), atol=5e-6)
    # left-perturbed mirror
    problem_l = LinearIntegralProblem(fwd, bwd, _const(grid, 0.0), [[g]],
                                      Q2=_const(grid, q))
    sol_l = solve_linear(problem_l)
    assert_allclose(sol_l.values[:, 0, 0], g * np.exp(-q * (1.0 - t)), atol=5e-6)
    # pure integration: Q1 = 0, Q12 = c gives p(t) = g + c (T - t), exact
    problem_i = LinearIntegralProblem(fwd, bwd, _const(grid, 0.3), [[g]],
                                      Q1=_const(grid, 0.0))
    sol_i = solve_linear(problem_i)
    assert_allclose(sol_i.values[:, 0, 0], g + 0.3 * (1.0 - t), atol=1e-14)


def test_both_perturbed_scalar():
    grid, fwd, bwd = _scalar_setup()
    t = grid.nodes()
    problem = LinearIntegralProblem(fwd, bwd, _const(grid, 0.0), [[0.7]],
                                    Q1=_const(grid, 0.9), Q2=_const(grid, 0.5))
    sol = solve_linear(problem)
    assert_allclose(sol.values[:, 0, 0], 0.7 * np.exp(-1.4 * (1.0 - t)), atol=5e-6)


def test_picard_agrees_with_implicit_solve(rng):
    """Uniqueness surrogate: the fixed-point route lands on the same values."""
    grid = TimeGrid(1.0, 200)
    gen = OperatorFunction.from_callable(grid, lambda t: [[0.2 * np.sin(t)]])
    fwd = build_forward_family(gen)
    bwd = adjoint_backward_family(fwd)
    cases = [
        LinearIntegralProblem(fwd, bwd, _const(grid, 0.0), [[0.7]],
                              Q1=_const(grid, 0.9), Q2=_const(grid, 0.5)),
        LinearIntegralProblem(fwd, bwd, _const(grid, 0.4), [[0.7]],
                              Q1=_const(grid, 0.9), Q2=_const(grid, 0.5)),
        LinearIntegralProblem(fwd, bwd, _const(grid, 0.4), [[0.2]],
                              Q1=_const(grid, 1.1)),
    ]
    for problem in cases:
        direct = solve_linear(problem)
        picard = linear_picard_reference(problem)
        assert np.abs(direct.values - picard).max() <= 1e-10


def test_matrix_case_against_picard(rng):
    grid = TimeGrid(1.0, 120)
    a = 0.4 * rng.standard_normal((3, 3))
    fwd = build_forward_family(OperatorFunction.constant(grid, a))
    bwd = adjoint_backward_family(fwd)
    q1 = OperatorFunction.constant(grid, 0.6 * rng.standard_normal((3, 3)))
    q2 = OperatorFunction.constant(grid, 0.5 * rng.standard_normal((3, 3)))
    q12 = OperatorFunction.constant(grid, rng.standard_normal((3, 3)))
    g = rng.standard_normal((3, 3))
    problem = LinearIntegralProblem(fwd, bwd, q12, g, Q1=q1, Q2=q2)
    assert np.abs(solve_linear(problem).values
                  - linear_picard_reference(problem)).max() <= 1e-9


def test_omega_representation_equivalence():
    """Plain evaluation of the perturbed-family representation agrees to O(h^2)."""
    grid, fwd, bwd = _scalar_setup(300)
    q1 = _const(grid, 0.9)
    q12 = _const(grid, 0.4)
    g = np.array([[0.7]])
    problem = LinearIntegralProblem(fwd, bwd, q12, g, Q1=q1)
    sol = solve_linear(problem)
    omega = perturb_forward(fwd, q1, -1, "second")
    rep = _march(bwd.steps, omega.steps, q12.values, g, grid.h)
    assert np.abs(sol.values - rep).max() <= 5.0 * grid.h ** 2


def test_transposition_symmetry(rng):
    """Transposing all data swaps the left- and right-perturbed equations."""
    grid = TimeGrid(1.0, 80)
    a = 0.3 * rng.standard_normal((2, 2))
    fwd = build_forward_family(OperatorFunction.constant(grid, a))
    bwd = adjoint_backward_family(fwd)
    q = 0.7 * rng.standard_normal((2, 2))
    q12 = rng.standard_normal((2, 2))
    g = rng.standard_normal((2, 2))
    right = solve_linear(LinearIntegralProblem(
        fwd, bwd, OperatorFunction.constant(grid, q12), g,
        Q1=OperatorFunction.constant(grid, q)))
    left = solve_linear(LinearIntegralProblem(
        fwd, bwd, OperatorFunction.constant(grid, q12.T), g.T,
        Q2=OperatorFunction.constant(grid, q.T)))
    assert np.abs(right.values - np.swapaxes(left.values, -1, -2)).max() <= 1e-12


def test_linearity_in_data(rng):
    grid, fwd, bwd = _scalar_setup(60)
    q1 = _const(grid, 0.8)

    def solve(g, c):
        problem = LinearIntegralProblem(fwd, bwd, _const(grid, c), [[g]], Q1=q1)
        return solve_linear(problem).values

    combined = solve(0.3 + 0.5, 0.2 + 0.7)
    split = solve(0.3, 0.2) + solve(0.5, 0.7)
    assert np.abs(combined - split).max() <= 1e-13


def test_problem_validation():
    grid, fwd, bwd = _scalar_setup(10)
    q12 = _const(grid, 0.0)
    with pytest.raises(ValueError):
        LinearIntegralProblem(fwd, bwd, q12, np.zeros((2, 2)))  # G shape
    # without Q1 and Q2 the solve is the explicit march
    plain = solve_linear(LinearIntegralProblem(fwd, bwd, _const(grid, 0.4), [[0.3]]))
    assert np.array_equal(plain.values, _march(bwd.steps, fwd.steps, _const(grid, 0.4).values,
                                               np.array([[0.3]]), grid.h))


# ------------------------------------------------- march against the per-node loops

def _march_data(rng, n, steps, symmetric, scale):
    """Steps, kernel, terminal and a coefficient pair of a random march.

    Symmetric data has right steps equal to the transposed left steps, a
    symmetric kernel and terminal, and Q2 = Q1^T, as the monotone step passes
    them; ``scale`` sets h ||Q||, up to past where the endpoint solve fails.
    """
    def sym(stack):
        return 0.5 * (stack + np.swapaxes(stack, -1, -2)) if symmetric else stack

    left = np.eye(n) + 0.3 * rng.standard_normal((steps, n, n)) / np.sqrt(n)
    right = np.swapaxes(left, -1, -2).copy() if symmetric \
        else np.eye(n) + 0.3 * rng.standard_normal((steps, n, n)) / np.sqrt(n)
    kernel = sym(rng.standard_normal((steps + 1, n, n)))
    terminal = sym(rng.standard_normal((1, n, n)))[0]
    q1 = scale * max(steps, 1) * rng.standard_normal((steps + 1, n, n)) / n
    q2 = np.swapaxes(q1, -1, -2).copy() if symmetric \
        else scale * max(steps, 1) * rng.standard_normal((steps + 1, n, n)) / n
    return left, right, kernel, terminal, q1, q2


@given(n=st.sampled_from([1, 2, 3, 8, 32]), steps=st.sampled_from([0, 1, 2, 50]),
       coefficients=st.sampled_from(["none", "q1", "q2", "both"]),
       symmetric=st.booleans(), scale=st.sampled_from([0.01, 0.3, 3.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_march_bitwise_equals_per_node_reference(n, steps, coefficients, symmetric,
                                                 scale, seed):
    rng = np.random.default_rng(seed)
    left, right, kernel, terminal, q1, q2 = _march_data(rng, n, steps, symmetric, scale)
    coeffs = {"q1": q1 if coefficients in ("q1", "both") else None,
              "q2": q2 if coefficients in ("q2", "both") else None}
    h = 1.0 / max(steps, 1)
    assert outcome(_march, left, right, kernel, terminal, h, **coeffs) \
        == outcome(march_reference, left, right, kernel, terminal, h, **coeffs)


def _smooth_march_data(rng, n, steps, coefficients, hq):
    """Steps, kernel, terminal and coefficients that vary smoothly from node to
    node, as a monotone step passes them; every node has h ||Q|| <= ``hq``."""
    h = 1.0 / max(steps, 1)
    t = np.linspace(0.0, 1.0, steps + 1)[:, None, None]

    def smooth(first):
        a, b = rng.standard_normal((2, n, n))
        return a + np.cos(np.pi * t[1:] if first else np.pi * t) * b

    left = np.eye(n) + h * smooth(True) / np.sqrt(n)
    right = np.eye(n) + h * smooth(True) / np.sqrt(n)
    kernel, q1, q2 = smooth(False), smooth(False), smooth(False)
    sup = max(float(np.linalg.norm(q, 2, axis=(1, 2)).max()) for q in (q1, q2))
    q1, q2 = (hq / (h * sup) * q for q in (q1, q2))
    return (left, right, kernel, rng.standard_normal((n, n)), h,
            {"q1": q1 if coefficients in ("q1", "both") else None,
             "q2": q2 if coefficients in ("q2", "both") else None})


@given(n=st.sampled_from([1, 2, 3, 8, 15, 16, 32]),
       steps=st.sampled_from([0, 1, 2, 3, 15, 16, 17, 50, 300]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_blocked_march_matches_per_node_loop(n, steps, seed):
    """Below 16 x 16 the explicit march goes by blocks of isqrt(m) nodes and
    lands within roundoff of the per-node loop (m < k, m a square and m mod
    k != 0 included); from 16 x 16 it is the per-node loop, bitwise."""
    left, right, kernel, terminal, h, _ = _smooth_march_data(
        np.random.default_rng(seed), n, steps, "none", 0.0)
    got = _march(left, right, kernel, terminal, h)
    want = march_reference_cold(left, right, kernel, terminal, h)
    if n >= 16:
        assert np.array_equal(got, want)
    else:
        assert float(np.abs(got - want).max()) <= 1e-13 * (1.0 + float(np.abs(want).max()))


@pytest.mark.parametrize("n", [1, 2, 8])
@pytest.mark.parametrize("k", [2, 5, 12])
@pytest.mark.parametrize("extra", ["k^2", "k^2+1", "k^2+k-1", "(k+1)^2-1"])
def test_march_short_stretch_matches_per_node_loop(n, k, extra):
    """m mod k leftover steps, from none to k - 1 (and m a square and the last m
    with isqrt(m) = k): they go as one shorter stretch [0, m mod k), within 1e-13
    of the per-node loop and with the bits of the stretch-by-stretch reference."""
    m = {"k^2": k * k, "k^2+1": k * k + 1, "k^2+k-1": k * k + k - 1,
         "(k+1)^2-1": (k + 1) ** 2 - 1}[extra]
    left, right, kernel, terminal, h, _ = _smooth_march_data(
        np.random.default_rng(100 * n + m), n, m, "none", 0.0)
    got = _march(left, right, kernel, terminal, h)
    want = march_reference_cold(left, right, kernel, terminal, h)
    assert float(np.abs(got - want).max()) <= 1e-13 * (1.0 + float(np.abs(want).max()))
    assert np.array_equal(got, march_reference_blocked(left, right, kernel, terminal, h))


@pytest.mark.parametrize("n, composed", [(8, True), (15, True), (16, False), (32, False)])
def test_stretch_maps_compose_every_explicit_recursion(monkeypatch, n, composed):
    """Below 16 x 16 one explicit march calls ``_stretch_maps`` once and the
    flow gate once per chunk; from 16 x 16 neither calls it."""
    calls = []

    def spy(*args):
        calls.append(len(args[3]))
        return real(*args)

    real = lyapunov._stretch_maps
    monkeypatch.setattr(lyapunov, "_stretch_maps", spy)
    left, right, kernel, terminal, h, _ = _smooth_march_data(
        np.random.default_rng(n), n, 50, "none", 0.0)
    _march(left, right, kernel, terminal, h)
    assert calls == ([8] if composed else [])      # isqrt(50) = 7: 7 stretches and [0, 1)
    calls.clear()
    t_index, tau_index = np.array([0, 3, 7, 20, 40]), np.array([20, 12, 9, 50, 41])
    _window_defects(left, right, kernel, np.ones((51, n, n)), h, t_index, tau_index, 2)
    assert len(calls) == (3 if composed else 0)


@pytest.mark.parametrize("n1, n2", [(3, 5), (5, 3), (2, 16), (16, 2)])
def test_non_square_march_reads_the_larger_side(n1, n2):
    """Without coefficients ``solve_linear`` on an n2 x n1 unknown steps one
    node at a time when max(n1, n2) >= 16 and by blocks below."""
    rng = np.random.default_rng(n1 + 10 * n2)
    grid = TimeGrid(1.0, 50)

    def family(n):
        return build_forward_family(OperatorFunction.constant(grid, rng.standard_normal((n, n))))

    fwd, bwd = family(n1), adjoint_backward_family(family(n2))
    q12 = OperatorFunction(grid, rng.standard_normal((51, n2, n1)))
    got = solve_linear(LinearIntegralProblem(fwd, bwd, q12, rng.standard_normal((n2, n1))))
    args = (bwd.steps, fwd.steps, q12.values, got.values[-1], grid.h)
    assert np.array_equal(got.values, march_reference_blocked(*args))
    assert np.array_equal(got.values, march_reference_cold(*args)) == (max(n1, n2) >= 16)


@given(n=st.sampled_from([1, 2, 3, 8, 32]), steps=st.sampled_from([1, 2, 50]),
       coefficients=st.sampled_from(["q1", "q2", "both"]),
       hq=st.floats(1e-6, 0.05), seed=st.integers(0, 2 ** 32 - 1))
def test_march_warm_start_matches_cold_reference(n, steps, coefficients, hq, seed):
    """The warm-started node solve with the carried coupling lands on the
    cold-started one's fixed point to sweep tolerance."""
    left, right, kernel, terminal, h, coeffs = _smooth_march_data(
        np.random.default_rng(seed), n, steps, coefficients, hq)
    got = _march(left, right, kernel, terminal, h, **coeffs)
    want = march_reference_cold(left, right, kernel, terminal, h, **coeffs)
    assert float(np.abs(got - want).max()) <= 1e-13 * (1.0 + float(np.abs(want).max()))


@given(n=st.sampled_from([1, 2, 3, 8, 32]), steps=st.sampled_from([1, 2, 50]),
       coefficients=st.sampled_from(["q1", "q2", "both"]), symmetric=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_march_diverges_where_cold_reference_does(n, steps, coefficients, symmetric, seed):
    """At h ||Q|| past the contraction (scale 3.0) the warm-started march
    raises a ``ConvergenceError`` where the cold loop does; which of its two
    messages may differ, as the sweeps start from other points."""
    rng = np.random.default_rng(seed)
    left, right, kernel, terminal, q1, q2 = _march_data(rng, n, steps, symmetric, 3.0)
    coeffs = {"q1": q1 if coefficients in ("q1", "both") else None,
              "q2": q2 if coefficients in ("q2", "both") else None}
    h = 1.0 / steps
    want = outcome(march_reference_cold, left, right, kernel, terminal, h, **coeffs)
    if want[0] == "ConvergenceError":
        assert outcome(_march, left, right, kernel, terminal, h, **coeffs)[0] == want[0]


def test_monotone_step_makes_fewer_coupling_calls_than_cold_reference(monkeypatch):
    """The warm start and the carried coupling cut the node sweeps of one
    coupled monotone step."""
    problem, _ = random_symmetric_problem(seed=0, n=8, steps=500)
    p1, _ = riccati._monotone_step_core(np.zeros((501, 8, 8)), problem)

    def counted(real, calls):
        def coupling(*args):
            calls.append(1)
            return real(*args)
        return coupling

    warm, cold = [], []
    monkeypatch.setattr(lyapunov, "_coupling", counted(lyapunov._coupling, warm))
    monkeypatch.setattr(conftest, "_coupling_reference",
                        counted(conftest._coupling_reference, cold))
    got, _ = riccati._monotone_step_core(p1, problem)
    monkeypatch.setattr(riccati, "_march", march_reference_cold)
    want, _ = riccati._monotone_step_core(p1, problem)
    assert 0 < len(warm) < len(cold)
    assert float(np.abs(got - want).max()) <= 1e-13 * (1.0 + float(np.abs(want).max()))


@given(n=st.sampled_from([1, 2, 3, 8, 32]), steps=st.sampled_from([1, 2, 50]),
       pairs=st.integers(1, 12), chunk=st.integers(1, 12), symmetric=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_window_defects_bitwise_equal_per_node_reference(n, steps, pairs, chunk,
                                                         symmetric, seed):
    """The stacked sweep gives the bits of the stretch-by-stretch reference, whose
    stretch maps are formed node by node (and whose steps are, from 16 x 16)."""
    rng = np.random.default_rng(seed)
    left, right, kernel, _, _, _ = _march_data(rng, n, steps, symmetric, 0.0)
    values = rng.standard_normal((steps + 1, n, n))
    ends = np.sort(rng.integers(0, steps + 1, (pairs, 2)), axis=1)
    t_index, tau_index = ends[:, 0], ends[:, 1]
    args = (left, right, kernel, values, 1.0 / steps, t_index, tau_index, chunk)
    assert outcome(_window_defects, *args) == outcome(window_defects_reference_blocked, *args)


_STRETCH_CASES = {
    "t-equals-tau": ([3, 0, 10, 10], [3, 0, 10, 10], 8),
    "identical-pairs": ([2, 2, 2], [7, 7, 7], 8),
    "shared-endpoints": ([2, 5, 2, 0, 5, 9], [5, 9, 9, 5, 5, 10], 8),
    "one-full-span": ([0], [10], 8),
    "full-span-among-others": ([4, 0, 6, 0], [8, 10, 6, 3], 8),
    "chunk-1": ([2, 5, 0, 3, 3], [9, 5, 10, 4, 7], 1),
    "chunk-at-least-pairs": ([2, 5, 0, 3, 3], [9, 5, 10, 4, 7], 5),
    "chunk-past-pairs": ([2, 5, 0, 3, 3], [9, 5, 10, 4, 7], 64),
    "chunk-splits-shared-ends": ([1, 1, 4, 4, 0], [4, 8, 8, 10, 1], 2),
}


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("case", list(_STRETCH_CASES))
def test_window_defects_stretches_bitwise_equal_per_node_reference(case, n):
    """Pair layouts whose ends coincide, repeat or span the grid: the march by
    stretches between pair ends gives the bits of the reference that forms each
    stretch's map node by node."""
    t_index, tau_index, chunk = _STRETCH_CASES[case]
    rng = np.random.default_rng(17)
    left, right, kernel, _, _, _ = _march_data(rng, n, 10, False, 0.0)
    values = rng.standard_normal((11, n, n))
    args = (left, right, kernel, values, 0.1, np.array(t_index), np.array(tau_index), chunk)
    assert outcome(_window_defects, *args) == outcome(window_defects_reference_blocked, *args)


def _family_like_window_data(rng, n2, n1, steps):
    """Family-like steps I + hA on each side of an n2 x n1 unknown, with a
    kernel and values drawn per node."""
    h = 1.0 / steps
    left = np.eye(n2) + h * rng.standard_normal((steps, n2, n2)) / np.sqrt(n2)
    right = np.eye(n1) + h * rng.standard_normal((steps, n1, n1)) / np.sqrt(n1)
    return (left, right, rng.standard_normal((steps + 1, n2, n1)),
            rng.standard_normal((steps + 1, n2, n1)), h)


@given(shape=st.sampled_from([(n, n) for n in (1, 2, 3, 8, 15, 16, 32)] + [(3, 5), (5, 3)]),
       steps=st.sampled_from([10, 200]),
       layout=st.sampled_from(list(_STRETCH_CASES) + ["random", "empty"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_window_defects_match_per_node_reference(shape, steps, layout, seed):
    """Below 16 x 16 (the larger side) the stretches go by composed maps and land
    within roundoff of the node-by-node sweep; from 16 x 16 they are that sweep,
    bitwise."""
    rng = np.random.default_rng(seed)
    data = _family_like_window_data(rng, *shape, steps)
    if layout == "random":
        ends = np.sort(rng.integers(0, steps + 1, (12, 2)), axis=1)
        t_index, tau_index, chunk = ends[:, 0], ends[:, 1], int(rng.integers(1, 13))
    elif layout == "empty":
        t_index, tau_index, chunk = np.zeros(0, int), np.zeros(0, int), 8
    else:
        t, tau, chunk = _STRETCH_CASES[layout]
        t_index, tau_index = np.array(t), np.array(tau)
    args = data + (t_index, tau_index, chunk)
    got, want = _window_defects(*args), window_defects_reference(*args)
    assert got.shape == want.shape == (len(t_index),)
    if max(shape) >= 16:
        assert np.array_equal(got, want)
    else:
        values = data[3]
        assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + float(np.abs(values).max())))


def test_overflowing_blocked_march_is_redone_node_by_node():
    """A block map that overflows (e^(17 k) on the left, e^(-17 k) on the right)
    makes the blocked march NaN where every step is finite and the march is 1 at
    every node: such a march is redone one node at a time, without a warning."""
    m = 2000
    args = (np.full((m, 1, 1), np.exp(17.0)), np.full((m, 1, 1), np.exp(-17.0)),
            np.zeros((m + 1, 1, 1)), np.ones((1, 1)), 1.0 / m)
    got = _march(*args)
    assert np.array_equal(got, np.ones((m + 1, 1, 1)))
    assert np.array_equal(got, march_reference_cold(*args))
    assert np.array_equal(got, march_reference_blocked(*args))
