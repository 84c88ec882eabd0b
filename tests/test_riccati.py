import ast
import dataclasses
import math
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from riccatint import lyapunov, riccati
from riccatint.evolution import (EvolutionFamily, OperatorFunction, TimeGrid,
                                 adjoint_backward_family, build_forward_family)
from riccatint.linops import sup_opnorm, symmetrize
from riccatint.lyapunov import LinearIntegralProblem, solve_linear
from riccatint.riccati import (ContractionParams, ConvergenceError,
                               HypothesisViolation, RiccatiProblem,
                               check_hypotheses, compute_delta,
                               flow_consistency, representation_check_one_sided,
                               representation_check_two_sided,
                               riccati_residual, solve_monotone,
                               solve_picard_stepped)
from riccatint.testing import (inverse_linear_problem, random_symmetric_problem,
                               tanh_problem)

from conftest import (check_hypotheses_reference, flow_consistency_blocked,
                      flow_consistency_per_window, march_reference, march_reference_blocked,
                      march_reference_cold, solve_monotone_reference, sup_opnorm_reference,
                      symmetry_defect, window_defects_reference,
                      window_defects_reference_blocked)


def _exact_tanh(problem):
    values = np.tanh(problem.grid.horizon - problem.grid.nodes())[:, None, None]
    return OperatorFunction(problem.grid, values)


# ---------------------------------------------------------------- closed forms

def test_monotone_tanh_closed_form():
    problem, _ = tanh_problem(2000)
    sol = solve_monotone(problem)
    assert abs(sol.P.values[0, 0, 0] - math.tanh(1.0)) <= 1e-6
    assert np.array_equal(sol.P.values[-1], problem.G)  # P(T) = G exactly


def test_monotone_inverse_linear_closed_form():
    problem, _ = inverse_linear_problem(2000)
    sol = solve_monotone(problem)
    assert abs(sol.P.values[0, 0, 0] - 0.5) <= 1e-6


def test_trivial_zero_problem():
    grid = TimeGrid(1.0, 50)
    fwd = build_forward_family(OperatorFunction.zero(grid, 1))
    problem = RiccatiProblem.symmetric(fwd, OperatorFunction.zero(grid, 1),
                                       OperatorFunction.constant(grid, [[1.0]]),
                                       np.zeros((1, 1)))
    sol = solve_monotone(problem)
    assert sol.iterations == 1
    assert np.abs(sol.P.values).max() == 0.0


# ---------------------------------------------------------------- monotone step

def test_monotone_step_zero_data():
    grid = TimeGrid(1.0, 30)
    fwd = build_forward_family(OperatorFunction.zero(grid, 2))
    problem = RiccatiProblem.symmetric(fwd, OperatorFunction.zero(grid, 2),
                                       OperatorFunction.constant(grid, np.eye(2)),
                                       np.zeros((2, 2)))
    p1, _ = riccati._monotone_step_core(np.zeros((grid.num_nodes, 2, 2)), problem)
    assert np.abs(p1).max() == 0.0


def test_first_step_equals_linear_solver():
    """With P_0 = 0 the linearized equation is the plain linear one."""
    problem, _ = random_symmetric_problem(seed=5, n=3, steps=120)
    p1, _ = riccati._monotone_step_core(np.zeros((problem.grid.num_nodes, 3, 3)), problem)
    zero_q = OperatorFunction.zero(problem.grid, 3)
    linear = solve_linear(LinearIntegralProblem(
        problem.U_forward, problem.U_backward, problem.C, problem.G,
        Q1=zero_q, Q2=zero_q))
    assert np.abs(p1 - linear.values).max() <= 1e-14


def test_first_step_transports_terminal_unchanged():
    # A = 0, C = 0: with P_0 = 0 the perturbations vanish and G rides along
    problem, _ = inverse_linear_problem(100)
    p1, _ = riccati._monotone_step_core(np.zeros((problem.grid.num_nodes, 1, 1)), problem)
    assert_allclose(p1[:, 0, 0], np.ones(101), atol=1e-14)


def test_first_step_marches_explicitly(monkeypatch):
    """At P_0 = 0 no node fixed-point sweep runs: the step is the explicit
    march, symmetrized, which is the implicit march with Q1 = Q2 = 0 to
    roundoff."""
    problem, _ = random_symmetric_problem(seed=5, n=3, steps=120)
    zeros = np.zeros((problem.grid.num_nodes, 3, 3))
    args = (problem.U_backward.steps, problem.U_forward.steps, problem.C.values,
            problem.G, problem.grid.h)
    explicit = lyapunov._march(*args)
    implicit = lyapunov._march(*args, q1=zeros, q2=zeros)
    assert np.abs(explicit - implicit).max() <= 1e-13 * (1.0 + np.abs(implicit).max())

    def no_coupling(*args):
        raise AssertionError("the first step ran a node fixed-point sweep")

    monkeypatch.setattr(lyapunov, "_coupling", no_coupling)
    p1, defect = riccati._monotone_step_core(zeros, problem)
    assert np.array_equal(p1, symmetrize(explicit))
    assert defect == sup_opnorm(explicit - np.swapaxes(explicit, -1, -2))


@pytest.mark.parametrize("n", [1, 3, 8])
def test_monotone_step_kernel_reuses_p_b_bitwise(n):
    """C + (P B) P, with P B the Q2 already formed, is C + P B P to the bit."""
    problem, _ = random_symmetric_problem(seed=n, n=n, steps=40)
    p = solve_monotone(problem).P.values
    b = problem.B.values
    raw = march_reference(problem.U_backward.steps, problem.U_forward.steps,
                          problem.C.values + p @ b @ p, problem.G, problem.grid.h,
                          q1=b @ p, q2=p @ b)
    values, _ = riccati._monotone_step_core(p, problem)
    assert values.tobytes() == symmetrize(raw).tobytes()


def _indefinite(problem):
    """``problem`` with C = -1: every hypothesis holds but C-nonnegativity."""
    return RiccatiProblem(problem.U_forward, problem.U_backward,
                          OperatorFunction.constant(problem.grid, [[-1.0]]),
                          problem.B, problem.G)


def test_monotone_requires_symmetric_mode():
    """The symmetric setting is what the hypothesis check decides: a problem
    built without ``.symmetric`` solves as the one built with it, and a
    failing hypothesis is named."""
    for problem in (tanh_problem(20)[0], random_symmetric_problem(seed=3, n=3, steps=40)[0]):
        direct = RiccatiProblem(problem.U_forward, adjoint_backward_family(problem.U_forward),
                                problem.C, problem.B, problem.G)
        assert direct.symmetric_mode and problem.symmetric_mode
        want, got = solve_monotone(problem), solve_monotone(direct)
        assert got.P.values.tobytes() == want.P.values.tobytes()
        assert got.sup_differences == want.sup_differences
    indefinite = _indefinite(tanh_problem(20)[0])
    assert not indefinite.symmetric_mode
    with pytest.raises(HypothesisViolation) as err:
        solve_monotone(indefinite)
    assert (err.value.kind, err.value.node) == ("C-nonnegativity", 0)


def test_hypothesis_check_runs_once_per_problem(monkeypatch):
    calls = []
    real_check = riccati.check_hypotheses

    def counted_check(*args, **kwargs):
        calls.append(args)
        return real_check(*args, **kwargs)

    monkeypatch.setattr(riccati, "check_hypotheses", counted_check)
    problem, _ = tanh_problem(20)
    # a problem checks itself once, however often it is solved or asked
    indefinite = _indefinite(problem)
    for _ in range(3):
        with pytest.raises(HypothesisViolation) as err:
            solve_monotone(indefinite)
        assert (err.value.kind, err.value.node) == ("C-nonnegativity", 0)
    assert not indefinite.symmetric_mode and len(calls) == 1
    fresh = dataclasses.replace(problem)
    solve_monotone(fresh)
    solve_monotone(fresh)
    assert fresh.symmetric_mode and fresh.first_violation is None
    assert len(calls) == 2
    # the Picard solver needs no check
    solve_picard_stepped(dataclasses.replace(problem))
    assert len(calls) == 2


@pytest.mark.parametrize("solver", ["picard", "monotone"])
def test_solvers_bitwise_unchanged_by_the_candidate_svd(solver, monkeypatch):
    """linops.sup_opnorm equals one SVD of the whole stack, so a solve gives the
    same solution, records and counts with either."""
    sym, _ = random_symmetric_problem(5, 3, 300)
    if solver == "picard":
        other, _ = random_symmetric_problem(6, 3, 300)
        problem = RiccatiProblem(sym.U_forward, adjoint_backward_family(other.U_forward),
                                 other.C, sym.B, sym.G)
        run = solve_picard_stepped
    else:
        problem, run = sym, solve_monotone
    fast = run(problem)
    reference_calls = []

    def reference(values):
        reference_calls.append(values.shape)
        return sup_opnorm_reference(values)

    monkeypatch.setattr(riccati, "sup_opnorm", reference)
    slow = run(problem)
    assert reference_calls
    assert np.array_equal(fast.P.values, slow.P.values)
    assert fast.sup_differences == slow.sup_differences
    assert fast.residual == slow.residual
    assert fast.iterations == slow.iterations
    assert fast.invariant_report == slow.invariant_report
    if solver == "picard":
        assert len(fast.intervals) > 1
        assert fast.intervals == slow.intervals   # windows, sweeps, updates, norms
    else:
        assert len(fast.invariant_report) > 1


# ---------------------------------------------------------------- residuals

def test_residual_of_exact_solution_is_second_order():
    for n_steps in (250, 500):
        problem, _ = tanh_problem(n_steps)
        res = riccati_residual(_exact_tanh(problem), problem)
        assert res <= 5.0 * problem.grid.h ** 2


def test_residual_trivial_cases():
    grid = TimeGrid(1.0, 40)
    fwd = build_forward_family(OperatorFunction.zero(grid, 2))
    zero = OperatorFunction.zero(grid, 2)
    one = OperatorFunction.constant(grid, np.eye(2))
    problem = RiccatiProblem.symmetric(fwd, zero, one, np.zeros((2, 2)))
    p_zero = OperatorFunction(grid, np.zeros((grid.num_nodes, 2, 2)))
    assert riccati_residual(p_zero, problem) == 0.0
    problem_g = RiccatiProblem.symmetric(fwd, zero, one, np.eye(2))
    assert riccati_residual(p_zero, problem_g) >= 1.0  # missing terminal transport


def test_residual_of_converged_solution_is_roundoff():
    problem, _ = random_symmetric_problem(seed=3, n=4, steps=400)
    sol = solve_monotone(problem)
    assert sol.residual <= 1e-12


@pytest.mark.parametrize("check", [
    riccati_residual, lambda P, problem: flow_consistency(P, problem, 0, 1),
    representation_check_one_sided, representation_check_two_sided],
    ids=["residual", "flow", "one_sided", "two_sided"])
def test_diagnostics_reject_p_off_the_problem_grid(check, monkeypatch):
    """Each diagnostic checks P's grid first, before any family is built."""
    problem, _ = random_symmetric_problem(seed=2, n=2, steps=20)

    def no_family(*args):
        raise AssertionError("a family was built before the grid check")

    monkeypatch.setattr(riccati, "perturb_forward", no_family)
    monkeypatch.setattr(riccati, "perturb_backward", no_family)
    off_grid = OperatorFunction.zero(TimeGrid(1.0, 21), 2)
    with pytest.raises(ValueError, match="P must be sampled on the problem grid"):
        check(off_grid, problem)


# ---------------------------------------------------------------- flow identity

def test_flow_consistency_degenerate_pairs():
    problem, _ = tanh_problem(100)
    sol = solve_monotone(problem)
    assert flow_consistency(sol.P, problem, 40, 40) == 0.0
    # tau = T reduces to the equation residual at t
    res_via_flow = flow_consistency(sol.P, problem, 0, 100)
    assert abs(res_via_flow - riccati_residual(sol.P, problem)) <= 1e-12


def test_flow_consistency_exact_samples():
    problem, _ = tanh_problem(400)
    p_exact = _exact_tanh(problem)
    h2 = problem.grid.h ** 2
    rng = np.random.default_rng(11)
    for _ in range(25):
        a, b = sorted(int(v) for v in rng.integers(0, 401, 2))
        assert flow_consistency(p_exact, problem, a, b) <= 5.0 * h2


def test_flow_consistency_index_validation():
    problem, _ = tanh_problem(10)
    sol = solve_monotone(problem)
    with pytest.raises(ValueError):
        flow_consistency(sol.P, problem, 5, 3)
    with pytest.raises(ValueError, match=r"got \(5, 3\) at pair 1"):
        flow_consistency(sol.P, problem, np.array([0, 5, 2]), np.array([4, 3, 1]))
    with pytest.raises(ValueError, match=r"got \(2, 11\) at pair 1"):
        flow_consistency(sol.P, problem, np.array([0, 2]), np.array([10, 11]))
    with pytest.raises(ValueError, match=r"got \(-1, 4\) at pair 0"):
        flow_consistency(sol.P, problem, np.array([-1, 2]), np.array([4, 3]))
    for t_bad, tau_bad in [([0, 1], [4]), ([[0, 1]], [[4, 5]]), ([0.0], [4.0]), (0, 4.0)]:
        with pytest.raises(ValueError, match="1-D integer arrays of one length"):
            flow_consistency(sol.P, problem, np.array(t_bad), np.array(tau_bad))


def _nonsymmetric_problem(steps, n=3, seed=4):
    """Distinct families on each side, non-symmetric C, B and G, random P."""
    rng = np.random.default_rng(seed)
    grid = TimeGrid(1.0, steps)

    def constant():
        return OperatorFunction.constant(grid, rng.standard_normal((n, n)))

    fwd, other = build_forward_family(constant()), build_forward_family(constant())
    problem = RiccatiProblem(fwd, adjoint_backward_family(other), constant(), constant(),
                             rng.standard_normal((n, n)))
    return problem, OperatorFunction(grid, rng.standard_normal((steps + 1, n, n)))


def _assert_sweep_equals_per_window(P, problem, t_index, tau_index):
    """The sweep has the bits of the stretch-by-stretch reference, and each pair's
    residual is within roundoff of its own window's node-by-node march."""
    got = flow_consistency(P, problem, np.asarray(t_index), np.asarray(tau_index))
    want = flow_consistency_blocked(P, problem, t_index, tau_index)
    assert got.shape == (len(t_index),) and np.array_equal(got, want)
    per_window = [flow_consistency_per_window(P, problem, a, b)
                  for a, b in zip(t_index, tau_index)]
    scale = 1.0 + float(np.abs(P.values).max())
    assert float(np.abs(got - per_window).max()) <= 1e-13 * scale
    unsigned = flow_consistency(P, problem, np.asarray(t_index, dtype=np.uint32),
                                np.asarray(tau_index, dtype=np.uint32))
    assert np.array_equal(unsigned, want)
    assert flow_consistency(P, problem, t_index[0], tau_index[0]) == \
        flow_consistency_blocked(P, problem, t_index[:1], tau_index[:1])[0]


def _edge_pairs(n_steps, rng, extra):
    """t == tau, (0, N), adjacent nodes, duplicates, then `extra` random pairs."""
    pairs = [(7, 7), (0, n_steps), (0, 0), (n_steps, n_steps), (3, 4),
             (n_steps - 1, n_steps), (0, n_steps), (3, 4), (7, 7)]
    pairs += [tuple(sorted(p)) for p in rng.integers(0, n_steps + 1, size=(extra, 2))]
    return [p[0] for p in pairs], [p[1] for p in pairs]


@pytest.mark.parametrize("kind", ["symmetric", "nonsymmetric"])
def test_flow_sweep_bitwise_equals_per_window_march(kind):
    n_steps = 60
    if kind == "symmetric":
        problem, _ = random_symmetric_problem(seed=2, n=3, steps=n_steps)
        P = solve_monotone(problem).P
    else:
        problem, P = _nonsymmetric_problem(n_steps)
    rng = np.random.default_rng(9)
    _assert_sweep_equals_per_window(P, problem, *_edge_pairs(n_steps, rng, 30))
    # more pairs than nodes: the sweep crosses two chunk boundaries
    t_many, tau_many = _edge_pairs(n_steps, rng, 2 * (n_steps + 1))
    assert len(t_many) > 2 * problem.grid.num_nodes
    _assert_sweep_equals_per_window(P, problem, t_many, tau_many)


def test_flow_sweep_zero_step_grid():
    problem, _ = tanh_problem(0, horizon=0.0)
    P = OperatorFunction(problem.grid, np.full((1, 1, 1), 0.7))
    _assert_sweep_equals_per_window(P, problem, [0, 0], [0, 0])


# ---------------------------------------------------------------- representations

def test_representation_checks_on_solution():
    problem, _ = tanh_problem(500)
    sol = solve_monotone(problem)
    h2 = problem.grid.h ** 2
    assert representation_check_one_sided(sol.P, problem) <= 5.0 * h2
    assert representation_check_two_sided(sol.P, problem) <= 5.0 * h2


@pytest.mark.parametrize("check", [representation_check_one_sided,
                                   representation_check_two_sided],
                         ids=["one_sided", "two_sided"])
def test_representation_checks_read_a_passed_family_bitwise(check):
    """A passed -BP family gives the same bits as the one each check builds."""
    problem, _ = random_symmetric_problem(seed=4, n=3, steps=80)
    P = solve_monotone(problem).P
    psi = riccati._psi_forward(problem, P.values)
    assert check(P, problem, psi_forward=psi) == check(P, problem)


def test_representation_checks_degenerate_b():
    # B = 0: the representation collapses to the linear transport formula
    grid = TimeGrid(1.0, 200)
    fwd = build_forward_family(
        OperatorFunction.from_callable(grid, lambda t: [[0.3 * np.sin(t)]]))
    problem = RiccatiProblem.symmetric(fwd,
                                       OperatorFunction.constant(grid, [[0.5]]),
                                       OperatorFunction.zero(grid, 1),
                                       np.array([[0.4]]))
    sol = solve_monotone(problem)
    assert representation_check_one_sided(sol.P, problem) <= 5.0 * grid.h ** 2
    assert representation_check_two_sided(sol.P, problem) <= 5.0 * grid.h ** 2


def test_representation_check_detects_wrong_solution():
    # an offset solution keeps a residual bounded away from zero as h -> 0
    values = []
    for n_steps in (100, 200):
        problem, _ = tanh_problem(n_steps)
        wrong = OperatorFunction(problem.grid,
                                 _exact_tanh(problem).values + 1.0)
        values.append(representation_check_one_sided(wrong, problem))
    assert min(values) > 0.05
    assert abs(values[0] - values[1]) < 0.5 * values[0]  # not vanishing with h


# ---------------------------------------------------------------- hypotheses

def test_check_hypotheses_passes_canonical():
    problem, _ = random_symmetric_problem(seed=2, n=3, steps=50)
    assert check_hypotheses(problem) is None


def test_check_hypotheses_flags_asymmetric_node():
    problem, _ = random_symmetric_problem(seed=2, n=2, steps=30)
    c_vals = problem.C.values.copy()
    c_vals[17] = [[0.0, 1.0], [-1.0, 0.0]]
    tampered = RiccatiProblem(problem.U_forward, problem.U_backward,
                              OperatorFunction(problem.grid, c_vals),
                              problem.B, problem.G)
    assert check_hypotheses(tampered) == ("C-symmetry", 17)


def test_check_hypotheses_flags_independent_backward_family():
    problem, _ = random_symmetric_problem(seed=2, n=2, steps=30)
    other = build_forward_family(OperatorFunction.constant(
        problem.grid, 0.3 * np.array([[0.0, 1.0], [1.0, 0.0]])))
    mismatched = RiccatiProblem(problem.U_forward, adjoint_backward_family(other),
                                problem.C, problem.B, problem.G)
    assert check_hypotheses(mismatched)[0] == "duality"


# Perturbations at one node, in units of the test's threshold tol (1 + ||A||):
# just inside and just outside it, and far on either side.
_NEAR = (0.5, 0.99, 1.01, 2.0)
_SYMMETRY_DEFECTS = (None, 1e-6) + _NEAR
_DUALITY_DEFECTS = (None, "independent") + _NEAR


def _psd_stack(rng, nodes, n, lam_min=None):
    """Symmetric matrices Q diag(lam) Q^T with lam in [0, 1] and lam_1 = 1
    (n >= 2), so ||A|| = 1; ``lam_min`` replaces the last eigenvalue."""
    q = np.linalg.qr(rng.standard_normal((nodes, n, n)))[0]
    lam = rng.uniform(0.0, 1.0, (nodes, n))
    lam[:, 0] = 1.0
    if lam_min is not None:
        lam[:, -1] = lam_min
    stack = (q * lam[:, None, :]) @ np.swapaxes(q, -1, -2)
    return 0.5 * (stack + np.swapaxes(stack, -1, -2))


def _hypothesis_problem(n, steps, seed, duality, perturbations, tol=1e-10):
    """A problem whose C, B, G and families sit at chosen distances from the
    hypothesis thresholds; ``perturbations`` maps "C", "B", "G" to a pair
    (symmetry defect, eigenvalue factor), each None or a multiple of the
    threshold, applied at one random node."""
    rng = np.random.default_rng(seed)
    grid = TimeGrid(1.0 if steps else 0.0, steps)
    fwd_steps = np.eye(n) + 0.3 * rng.standard_normal((steps, n, n)) / math.sqrt(n)
    forward = EvolutionFamily(grid, "forward", fwd_steps)
    if duality is None or steps == 0:
        backward = adjoint_backward_family(forward)
    else:
        other = np.eye(n) + 0.3 * rng.standard_normal((steps, n, n)) / math.sqrt(n)
        bwd_steps = np.swapaxes(other if duality == "independent" else fwd_steps, -1, -2)
        if duality != "independent":
            i, a, b = rng.integers(steps), rng.integers(n), rng.integers(n)
            bwd_steps[i, a, b] += duality * tol * (1.0 + np.linalg.norm(fwd_steps[i], 2))
        backward = EvolutionFamily(grid, "backward", bwd_steps)
    stacks = {"C": _psd_stack(rng, grid.num_nodes, n), "B": _psd_stack(rng, grid.num_nodes, n),
              "G": _psd_stack(rng, 1, n)}
    for name, (asym, eig) in perturbations.items():
        stack = stacks[name]
        node = rng.integers(stack.shape[0])
        if eig is not None:     # lambda_min = -eig tol (1 + ||A||)
            lam = (-eig * tol / (1.0 - eig * tol) if n == 1 else -2.0 * eig * tol)
            stack[node] = _psd_stack(rng, 1, n, lam)[0]
        if asym is not None and n > 1:      # ||A - A^T|| = asym tol (1 + ||sym A||)
            a, b = rng.choice(n, 2, replace=False)
            sym_norm = np.abs(np.linalg.eigvalsh(stack[node])).max()
            eps = 0.5 * asym * tol * (1.0 + sym_norm)
            stack[node, a, b] += eps
            stack[node, b, a] -= eps
    return RiccatiProblem(forward, backward, OperatorFunction(grid, stacks["C"]),
                          OperatorFunction(grid, stacks["B"]), stacks["G"][0])


def _assert_check_equals_reference(problem, tol=1e-10):
    first = check_hypotheses(problem, tol)
    assert (first is None, first) == check_hypotheses_reference(problem, tol)
    return first


_PERTURBATION = st.tuples(st.sampled_from(_SYMMETRY_DEFECTS),
                          st.sampled_from((None,) + _NEAR))


@settings(max_examples=200)
@given(n=st.sampled_from([1, 2, 3, 8, 32]), steps=st.sampled_from([0, 1, 50]),
       seed=st.integers(0, 2 ** 32 - 1), duality=st.sampled_from(_DUALITY_DEFECTS),
       perturbations=st.dictionaries(st.sampled_from("CBG"), _PERTURBATION))
def test_check_hypotheses_equals_full_decomposition(n, steps, seed, duality, perturbations):
    """The exact-zero tests and the Cholesky give the verdict and the (kind,
    node) that decomposing every node gives."""
    _assert_check_equals_reference(
        _hypothesis_problem(n, steps, seed, duality, perturbations))


@pytest.mark.parametrize("tol", [0.0, 1e-17, 1e-30, 1e-3])
def test_check_hypotheses_equals_full_decomposition_at_other_tolerances(tol):
    """Tolerances where the Cholesky test does not apply (n (n+1) eps > tol / 4)
    take the full decomposition; a singular node (eigenvalue factor 0) sits at
    the threshold of tol = 0."""
    for n, steps, perturbations in (
            (8, 20, {}), (3, 20, {"C": (None, 1.01)}), (2, 20, {"B": (0.99, None)}),
            (1, 20, {"G": (None, 2.0)}), (2, 0, {}), (8, 20, {"C": (None, 0.0)}),
            (32, 20, {"B": (None, 0.0)})):
        for seed in range(4):
            _assert_check_equals_reference(
                _hypothesis_problem(n, steps, seed, None, perturbations), tol)


@pytest.mark.parametrize("tol", [-1e-10, -1.0, math.nan])
def test_check_hypotheses_refuses_a_tolerance_that_certifies_nothing(tol):
    """A NaN tolerance passed every node (C = -1 included) and a negative one
    failed exact duality; both are refused before any scan."""
    indefinite = _indefinite(tanh_problem(20)[0])
    for problem in (indefinite, tanh_problem(20)[0]):
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            check_hypotheses(problem, tol)
    assert check_hypotheses(indefinite, 0.0) == ("C-nonnegativity", 0)


def test_hypothesis_report_for_mismatched_dimensions():
    grid = TimeGrid(1.0, 4)
    forward = EvolutionFamily(grid, "forward", np.repeat(np.eye(2)[None], 4, axis=0))
    backward = EvolutionFamily(grid, "backward", np.repeat(np.eye(3)[None], 4, axis=0))
    problem = RiccatiProblem(forward, backward, OperatorFunction.zero(grid, 3, 2),
                             OperatorFunction.zero(grid, 2, 3), np.zeros((3, 2)))
    assert _assert_check_equals_reference(problem) == ("dimension", -1)
    assert not problem.symmetric_mode
    with pytest.raises(HypothesisViolation) as err:
        solve_monotone(problem)
    assert (err.value.kind, err.value.node) == ("dimension", -1)


# ---------------------------------------------------------------- contraction

def test_compute_delta_examples():
    assert_allclose(compute_delta(1.0, 1.0, 1.0, 0.0, 1.0, safety=0.5), 0.125)
    assert compute_delta(1.0, 1.0, 1.0, 1.0, 0.0, horizon=2.0) == 2.0
    assert compute_delta(1.0, 1.0, 1.0, 1.0, 0.0) == math.inf
    # doubling r_G halves delta when r_C = 0
    d1 = compute_delta(1.2, 1.1, 1.0, 0.0, 0.8)
    d2 = compute_delta(1.2, 1.1, 2.0, 0.0, 0.8)
    assert_allclose(d1, 2.0 * d2, rtol=1e-12)


def test_compute_delta_satisfies_strict_inequality():
    for args in [(1.5, 1.2, 0.8, 0.6, 0.9), (1.0, 1.0, 2.0, 1.0, 0.5)]:
        delta = compute_delta(*args, safety=0.5)
        m1, m2, r_g, r_c, r_b = args
        lhs = 4 * delta * m1 ** 2 * m2 ** 2 * (r_g + delta * r_c) * r_b
        assert_allclose(lhs, 0.5, rtol=1e-12)


def test_compute_delta_rejects_bad_inputs():
    with pytest.raises(ValueError):
        compute_delta(0.5, 1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        compute_delta(1.0, 1.0, -1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        compute_delta(1.0, 1.0, 1.0, 0.0, 1.0, safety=1.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="family bounds must be >= 1"):
            compute_delta(bad, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="norm caps must be nonnegative"):
            compute_delta(1.0, 1.0, 1.0, bad, 1.0)
    with pytest.raises(ValueError, match="horizon must be positive"):
        compute_delta(1.0, 1.0, 1.0, 1.0, 1.0, horizon=math.nan)


def test_contraction_params_validation():
    params = ContractionParams(1.0, 1.0, 1.0, 0.0, 1.0, delta=0.1)
    assert params.contraction_lhs < 1.0
    assert params.rho == 2.0        # 2 M1 M2 (r_G + delta r_C), derived
    with pytest.raises(ValueError):
        ContractionParams(1.0, 1.0, 1.0, 0.0, 1.0, delta=0.3)  # lhs >= 1
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="family bounds must be >= 1"):
            ContractionParams(1.0, bad, 1.0, 1.0, 1.0, delta=0.1)
        with pytest.raises(ValueError, match="norm caps must be nonnegative"):
            ContractionParams(1.0, 1.0, bad, 1.0, 1.0, delta=0.1)


# ---------------------------------------------------------------- picard solver

def test_picard_zero_b_single_window():
    grid = TimeGrid(1.0, 100)
    fwd = build_forward_family(OperatorFunction.zero(grid, 1))
    problem = RiccatiProblem.symmetric(fwd,
                                       OperatorFunction.constant(grid, [[0.4]]),
                                       OperatorFunction.zero(grid, 1),
                                       np.array([[0.3]]))
    sol = solve_picard_stepped(problem)
    assert len(sol.intervals) == 1
    assert sol.iterations == 1
    assert_allclose(sol.P.values[:, 0, 0], 0.3 + 0.4 * (1.0 - grid.nodes()),
                    atol=1e-14)


def test_picard_matches_monotone_on_closed_forms():
    for factory in (tanh_problem, inverse_linear_problem):
        problem, _ = factory(800)
        mono = solve_monotone(problem)
        pic = solve_picard_stepped(problem)
        assert np.abs(mono.P.values - pic.P.values).max() <= 1e-7
        assert abs(pic.P.values[0, 0, 0] - mono.P.values[0, 0, 0]) <= 1e-7


def test_picard_certificates():
    problem, _ = random_symmetric_problem(seed=8, n=4, steps=500)
    sol = solve_picard_stepped(problem)
    assert sol.intervals, "expected at least one window"
    covered = sorted((c.start_index, c.end_index) for c in sol.intervals)
    assert covered[0][0] == 0 and covered[-1][1] == 500
    for lo, hi in zip(covered, covered[1:]):
        assert lo[1] == hi[0]
    for cert in sol.intervals:
        assert cert.params.contraction_lhs < 1.0
        assert cert.sup_iterate_norm <= cert.params.rho + 1e-6


def test_picard_general_nonsymmetric_problem():
    """Distinct generators on each side; reference is a fourth-order ODE run."""
    a1, a2, b, c, g, horizon = 0.3, -0.2, 0.8, 0.5, 0.4, 1.0
    n_steps = 800
    grid = TimeGrid(horizon, n_steps)
    fwd = build_forward_family(OperatorFunction.constant(grid, [[a1]]))
    other = build_forward_family(OperatorFunction.constant(grid, [[a2]]))
    problem = RiccatiProblem(fwd, adjoint_backward_family(other),
                             OperatorFunction.constant(grid, [[c]]),
                             OperatorFunction.constant(grid, [[b]]),
                             np.array([[g]]))
    sol = solve_picard_stepped(problem)

    # p' = -c - (a1 + a2) p + b p^2 integrated backward from p(T) = g
    def rhs(p):
        return -c - (a1 + a2) * p + b * p * p

    p_ref = g
    h = -horizon / n_steps
    for _ in range(n_steps):
        k1 = rhs(p_ref)
        k2 = rhs(p_ref + 0.5 * h * k1)
        k3 = rhs(p_ref + 0.5 * h * k2)
        k4 = rhs(p_ref + h * k3)
        p_ref += (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    assert abs(sol.P.values[0, 0, 0] - p_ref) <= 1e-4


def test_picard_window_ball_escape_and_retry(monkeypatch):
    """An underestimated norm cap triggers one retry with an inflated cap."""
    import riccatint.riccati as rmod

    problem, _ = random_symmetric_problem(seed=30, n=2, steps=200)
    reference = solve_picard_stepped(problem)

    # the window solver itself must flag an escape for a tiny ball
    with pytest.raises(rmod._BallEscape):
        rmod._picard_window(problem, problem.G, 200, r_G=1e-8, r_C=0.0,
                            r_B=1e-6, safety=0.5, tol_abs=1e-10, tol_rel=1e-8,
                            max_iter=50)

    # the solver-level retry recovers when the first attempt escapes
    original = rmod._picard_window
    calls = {"count": 0}

    def flaky(problem_, terminal, idx, r_G, *args, **kwargs):
        calls["count"] += 1
        if calls["count"] == 1:
            raise rmod._BallEscape(observed=10.0 * r_G)
        return original(problem_, terminal, idx, r_G, *args, **kwargs)

    monkeypatch.setattr(rmod, "_picard_window", flaky)
    sol = rmod.solve_picard_stepped(problem)
    assert calls["count"] >= 2
    assert np.abs(sol.P.values - reference.P.values).max() <= 1e-8


def test_picard_ball_escape_raises_after_one_retry(monkeypatch):
    """An iterate leaving the certified ball gets one retry with an inflated
    norm cap; leaving it again is a ConvergenceError, never a window."""
    grid = TimeGrid(1.0, 20)
    fwd = build_forward_family(OperatorFunction.zero(grid, 1))
    problem = RiccatiProblem.symmetric(fwd,
                                       OperatorFunction.constant(grid, [[1.0]]),
                                       OperatorFunction.constant(grid, [[1e-3]]),
                                       np.array([[1.0]]))
    march = riccati._march
    marches = []

    def growing_march(*args, **kwargs):
        # every sweep's iterate is ten times the last one's scale
        marches.append(None)
        return march(*args, **kwargs) * 10.0 ** len(marches)

    monkeypatch.setattr(riccati, "_march", growing_march)
    with pytest.raises(ConvergenceError, match="escaped the certified ball twice"):
        solve_picard_stepped(problem)
    assert len(marches) == 4    # two sweeps in the first window, two in the retry


def test_picard_refuses_too_coarse_grid():
    # huge B makes the certified window shorter than one step
    grid = TimeGrid(1.0, 5)
    fwd = build_forward_family(OperatorFunction.zero(grid, 1))
    problem = RiccatiProblem.symmetric(fwd,
                                       OperatorFunction.constant(grid, [[1.0]]),
                                       OperatorFunction.constant(grid, [[50.0]]),
                                       np.array([[1.0]]))
    with pytest.raises(ConvergenceError, match="refine the grid"):
        solve_picard_stepped(problem)


# ---------------------------------------------------------------- invariants

def test_monotone_invariant_records():
    problem, _ = random_symmetric_problem(seed=12, n=4, steps=300)
    sol = solve_monotone(problem)
    assert sol.iterations >= 3
    records = sol.invariant_report
    assert [r.index for r in records] == list(range(1, sol.iterations + 1))
    max_norm = max(r.max_norm for r in records)
    for rec in records:
        assert rec.presymmetrization_defect <= 1e-12 * (1.0 + max_norm)
        assert rec.min_eigenvalue >= -1e-10
        if rec.index >= 2:
            assert rec.chain_min_eigenvalue >= -1e-10
            assert rec.norm_decrease_margin >= -1e-10
    # updates shrink (quadratic-type convergence shows at least monotone decay)
    assert all(d2 < d1 for d1, d2 in zip(sol.sup_differences, sol.sup_differences[1:]))


def test_monotone_solution_symmetry_is_structural():
    problem, _ = random_symmetric_problem(seed=13, n=3, steps=200)
    sol = solve_monotone(problem)
    assert symmetry_defect(sol.P) <= 1e-10
    assert np.array_equal(sol.P.values[-1], problem.G)


def test_cross_solver_agreement_random():
    problem, _ = random_symmetric_problem(seed=21, n=4, steps=400)
    mono = solve_monotone(problem)
    pic = solve_picard_stepped(problem)
    gap = float(np.linalg.svd(mono.P.values - pic.P.values,
                              compute_uv=False).max())
    assert gap <= 1e-7


def test_non_convergence_diagnostic():
    problem, _ = tanh_problem(100)
    with pytest.raises(ConvergenceError) as err:
        solve_monotone(problem, max_iter=1)
    assert len(err.value.history) == 1


def test_zero_horizon_returns_terminal():
    grid = TimeGrid(0.0, 0)
    fwd = build_forward_family(OperatorFunction.zero(grid, 2))
    g = np.array([[1.0, 0.2], [0.2, 2.0]])
    problem = RiccatiProblem.symmetric(fwd, OperatorFunction.zero(grid, 2),
                                       OperatorFunction.zero(grid, 2), g)
    for solver in (solve_monotone, solve_picard_stepped):
        sol = solver(problem)
        assert np.array_equal(sol.P.values[0], g)
        assert sol.iterations == 0


# ------------------------------------------------- overlapped bookkeeping

def _bits(value):
    """A float's bit pattern (None and ints as they are), for exact comparison."""
    return np.float64(value).tobytes() if isinstance(value, float) else value


def _assert_same_solution(got, want):
    assert got.P.values.tobytes() == want.P.values.tobytes()
    assert list(map(_bits, got.sup_differences)) == list(map(_bits, want.sup_differences))
    assert _bits(got.residual) == _bits(want.residual)
    assert ([tuple(map(_bits, dataclasses.astuple(r))) for r in got.invariant_report]
            == [tuple(map(_bits, dataclasses.astuple(r))) for r in want.invariant_report])


def _outcome(solver, problem, **kwargs):
    """The solution, or (type, message, history) of what the solver raised; the
    thread count must be the same after the call as before."""
    threads = threading.active_count()
    try:
        result = solver(problem, **kwargs)
    except Exception as exc:
        result = type(exc), str(exc), getattr(exc, "history", None)
    assert threading.active_count() == threads
    return result


def _assert_same_outcome(problem, **kwargs):
    got = _outcome(solve_monotone, problem, **kwargs)
    want = _outcome(solve_monotone_reference, problem, **kwargs)
    if isinstance(got, tuple) or isinstance(want, tuple):
        assert got == want
    else:
        _assert_same_solution(got, want)
    return got


@pytest.mark.parametrize("seed", [0, 1, 2, 16, 17, 18])
def test_monotone_bitwise_equals_serial_loop(seed):
    """Battery problems (n = 2, 4, 8, 2, 4, 8 at N = 1000; seed 18 drops a step
    run ahead): the overlapped loop returns the serial loop's bits."""
    problem, _ = random_symmetric_problem(seed=seed, n=(2, 4, 8)[seed % 3], steps=1000)
    assert isinstance(_assert_same_outcome(problem), riccati.RiccatiSolution)


@pytest.mark.parametrize("max_iter", [1, 2, 3, 50])
def test_monotone_bitwise_equals_serial_loop_tanh(max_iter):
    """Short caps raise the serial loop's error with its history."""
    problem, _ = tanh_problem(2000)
    got = _assert_same_outcome(problem, max_iter=max_iter)
    assert isinstance(got, tuple) == (max_iter < 5)


@pytest.fixture(scope="module")
def discarding():
    """A battery problem, with its serial solution, on which the look-ahead
    rule guesses wrong once: the 4th iterate is the last, but the 3rd update
    is too large for the rule to expect that, so a 5th step is run ahead and
    dropped."""
    problem, _ = random_symmetric_problem(seed=18, n=2, steps=1000)
    return problem, solve_monotone_reference(problem)


def _fail_call(monkeypatch, call, exc):
    """Make call number ``call`` of ``riccati._monotone_step_core`` raise ``exc``;
    returns the list of calls made."""
    real, calls = riccati._monotone_step_core, []

    def step(p_values, problem):
        calls.append(len(calls) + 1)
        if len(calls) == call:
            raise exc
        return real(p_values, problem)

    monkeypatch.setattr(riccati, "_monotone_step_core", step)
    return calls


@pytest.mark.parametrize("exc", [ConvergenceError("implicit endpoint solve is diverging"),
                                 ValueError("boom")])
def test_dropped_step_leaves_no_trace(discarding, monkeypatch, exc):
    problem, want = discarding
    calls = _fail_call(monkeypatch, want.iterations + 1, exc)
    got = _outcome(solve_monotone, problem)
    assert not isinstance(got, tuple), got
    _assert_same_solution(got, want)
    assert calls == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("call", [1, 2, 3, 4])
@pytest.mark.parametrize("exc", [ConvergenceError("implicit endpoint solve is diverging"),
                                 ValueError("boom")])
def test_needed_step_error_surfaces_as_in_serial_loop(discarding, monkeypatch, call, exc):
    problem, _ = discarding
    calls = _fail_call(monkeypatch, call, exc)
    got = _outcome(solve_monotone, problem)
    assert calls == list(range(1, call + 1))
    calls.clear()
    want = _outcome(solve_monotone_reference, problem)
    assert got == want == (type(exc), str(exc), getattr(exc, "history", None))


def _spectra_threads(monkeypatch, lane):
    """Force the lane predicate to ``lane``; returns the list of the thread
    idents that ``riccati._spectra`` ran on."""
    monkeypatch.setattr(riccati, "_wide", lambda n: lane)
    real, threads = riccati._spectra, []

    def spectra(*args):
        threads.append(threading.get_ident())
        return real(*args)

    monkeypatch.setattr(riccati, "_spectra", spectra)
    return threads


@pytest.mark.parametrize("lane", [True, False], ids=["thread", "inline"])
def test_dropped_step_leaves_no_trace_on_either_lane(discarding, monkeypatch, lane):
    """The predicate forced on and off at n = 2: the spectra run on a helper
    thread or on the calling thread, and a step run ahead, dropped and failing
    leaves the serial loop's solution either way."""
    problem, want = discarding
    threads = _spectra_threads(monkeypatch, lane)
    calls = _fail_call(monkeypatch, want.iterations + 1, ValueError("boom"))
    got = _outcome(solve_monotone, problem)
    assert not isinstance(got, tuple), got
    _assert_same_solution(got, want)
    assert calls == [1, 2, 3, 4, 5]
    assert len(threads) == want.iterations
    assert (threading.get_ident() in threads) != lane


@pytest.mark.parametrize("lane", [True, False], ids=["thread", "inline"])
@pytest.mark.parametrize("call", [2, 4])
def test_needed_step_error_surfaces_on_either_lane(discarding, monkeypatch, lane, call):
    problem, _ = discarding
    _spectra_threads(monkeypatch, lane)
    calls = _fail_call(monkeypatch, call, ConvergenceError("implicit endpoint solve is diverging"))
    got = _outcome(solve_monotone, problem)
    assert calls == list(range(1, call + 1))
    calls.clear()
    assert got == _outcome(solve_monotone_reference, problem)


def _count_residuals(monkeypatch):
    """Count the calls of ``riccati.riccati_residual`` that ``solve_monotone`` makes."""
    real, calls = riccati.riccati_residual, []

    def residual(*args):
        calls.append(threading.get_ident())
        return real(*args)

    monkeypatch.setattr(riccati, "riccati_residual", residual)
    return calls


@pytest.mark.parametrize("lane", [True, False], ids=["thread", "inline"])
@pytest.mark.parametrize("n", [3, 32])
def test_last_residual_beside_spectra_bitwise_equals_serial_loop(monkeypatch, n, lane):
    """The residual of the iterate predicted to be the last runs on the calling
    thread beside its spectra, once, and gives the serial loop's bits."""
    problem, _ = random_symmetric_problem(seed=n, n=n, steps=100)
    threads = _spectra_threads(monkeypatch, lane)
    residuals = _count_residuals(monkeypatch)
    got = _assert_same_outcome(problem)
    assert isinstance(got, riccati.RiccatiSolution)
    assert residuals == [threading.get_ident()]
    assert len(threads) == got.iterations


@pytest.fixture(scope="module")
def mispredicted():
    """A problem and tolerance (tol_rel = 0) on which the iterate predicted to
    be the last is not: d_4^2 <= tol_abs < d_5, so iterate 5 has its residual
    computed and dropped, and iterate 6 (d_6 <= tol_abs) is the last."""
    problem, _ = random_symmetric_problem(seed=0, n=2, steps=200)
    kwargs = {"tol_abs": 1e-15, "tol_rel": 0.0}
    want = solve_monotone_reference(problem, **kwargs)
    d = want.sup_differences
    assert len(d) == 6 and d[3] ** 2 <= 1e-15 < d[4] and d[5] <= 1e-15
    return problem, kwargs, want


@pytest.mark.parametrize("lane", [True, False], ids=["thread", "inline"])
def test_dropped_residual_leaves_no_trace(mispredicted, monkeypatch, lane):
    problem, kwargs, want = mispredicted
    _spectra_threads(monkeypatch, lane)
    residuals = _count_residuals(monkeypatch)
    got = _outcome(solve_monotone, problem, **kwargs)
    assert not isinstance(got, tuple), got
    _assert_same_solution(got, want)
    assert len(residuals) == 2
    residuals.clear()
    _assert_same_solution(solve_monotone(problem), solve_monotone_reference(problem))
    assert len(residuals) == 1


def test_dropped_residual_error_leaves_no_trace(mispredicted, monkeypatch):
    """A residual that raises for a mispredicted iterate is dropped with its
    error; one that raises for the last iterate surfaces, as after the serial
    loop."""
    problem, kwargs, want = mispredicted
    real, calls = riccati.riccati_residual, []

    def residual(*args):
        calls.append(1)
        if len(calls) == 1:
            raise ValueError("boom")
        return real(*args)

    monkeypatch.setattr(riccati, "riccati_residual", residual)
    _assert_same_solution(solve_monotone(problem, **kwargs), want)
    calls.clear()
    with pytest.raises(ValueError, match="boom"):
        solve_monotone(problem)
    assert calls == [1]


def test_lane_opens_from_n_16():
    """The one rule: jobs beside work on n x n stacks get a thread, and the
    explicit march and the flow gate's stretches step one node at a time, for
    n >= 16; below 16 the lane is inline, the march goes by blocks and each
    stretch by one composed map.  All read ``lyapunov._wide``, the one
    comparison with 16 in the package."""
    assert riccati._wide is lyapunov._wide
    assert [lyapunov._wide(n) for n in (1, 2, 8, 15, 16, 32)] == \
        [False, False, False, False, True, True]
    assert isinstance(riccati._lane(15), riccati._Inline)
    with riccati._lane(16) as lane:
        assert not isinstance(lane, riccati._Inline)
    rng = np.random.default_rng(16)
    for n, blocked in ((15, True), (16, False)):
        left, right = np.eye(n) + 0.1 * rng.standard_normal((2, 20, n, n))
        args = (left, right, rng.standard_normal((21, n, n)), rng.standard_normal((n, n)),
                0.05)
        got = lyapunov._march(*args)
        assert np.array_equal(got, march_reference_blocked(*args))
        assert np.array_equal(got, march_reference_cold(*args)) is not blocked
        flow = (left, right, args[2], rng.standard_normal((21, n, n)), 0.05,
                np.array([0, 3, 7]), np.array([20, 12, 9]), 3)
        got = lyapunov._window_defects(*flow)
        assert np.array_equal(got, window_defects_reference_blocked(*flow))
        assert np.array_equal(got, window_defects_reference(*flow)) is not blocked
    sixteen = _package_owners(lambda node: isinstance(node, ast.Compare) and any(
        isinstance(side, ast.Constant) and side.value == 16
        for side in [node.left, *node.comparators]))
    assert sixteen == {"lyapunov._wide"}


def _functions_holding(tree, prefix, hit):
    """Qualified names of the functions (the module itself for top-level code)
    whose own body holds a node for which ``hit`` is true."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}")
                continue
            if hit(child):
                found.add(owner)
            visit(child, owner)

    visit(tree, prefix)
    return found


def _naming(*names):
    return lambda node: (isinstance(node, ast.Name) and node.id in names
                         or isinstance(node, ast.Attribute) and node.attr in names
                         or isinstance(node, ast.alias)
                         and (node.name in names or node.asname in names))


def _package_owners(hit):
    src = Path(__file__).resolve().parents[1] / "src" / "riccatint"
    return set().union(*(_functions_holding(ast.parse(path.read_text()), path.stem, hit)
                         for path in sorted(src.glob("*.py"))))


def test_only_the_lane_starts_threads():
    """One owner of threads: ``ThreadPoolExecutor`` and ``threading`` appear in
    the package only inside ``riccati._lane``."""
    assert _package_owners(_naming("ThreadPoolExecutor", "threading", "Thread")) \
        == {"riccati._lane"}


def test_only_the_csv_helper_forks():
    """One owner of processes: ``os.fork`` appears in the package only inside
    ``cli._fork_half``, the helper that hands half a CSV's rows to a child."""
    assert _package_owners(_naming("fork")) == {"cli._fork_half"}


def test_only_require_hypotheses_builds_violations():
    """One hypothesis gate: ``HypothesisViolation(...)`` is called in the
    package only inside ``riccati._require_hypotheses``, so every violation
    is a failing kind of the problem's own cached check."""
    named = _naming("HypothesisViolation")
    assert _package_owners(lambda node: isinstance(node, ast.Call) and named(node.func)) \
        == {"riccati._require_hypotheses"}


def _scaled_problem(seed, n, steps, k_c, k_b, k_g):
    """Random symmetric problem with C, B, G scaled by 10^k_c, 10^k_b, 10^k_g;
    ``steps = 0`` is the zero horizon."""
    rng = np.random.default_rng(seed)
    grid = TimeGrid(1.0 if steps else 0.0, steps)
    a0, a1 = 0.5 * rng.standard_normal((2, n, n))
    psd = [symmetrize(m @ m.T) / n for m in rng.standard_normal((5, n, n))]
    generator = OperatorFunction.from_callable(grid, lambda t: a0 + t * a1)
    c_fun = OperatorFunction.from_callable(grid, lambda t: 10.0 ** k_c * (psd[0] + t * psd[1]))
    b_fun = OperatorFunction.from_callable(grid, lambda t: 10.0 ** k_b * (psd[2] + t * psd[3]))
    return RiccatiProblem.symmetric(build_forward_family(generator), c_fun, b_fun,
                                    10.0 ** k_g * psd[4])


_EXPONENT = st.floats(-6.0, 3.0)


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([1, 2, 3]),
       steps=st.integers(0, 40), k_c=_EXPONENT, k_b=_EXPONENT, k_g=_EXPONENT)
def test_monotone_invariants_on_random_scaled_problems(seed, n, steps, k_c, k_b, k_g):
    """Every random symmetric problem ends as the serial loop ends: the same
    error, or the same solution with symmetric P, nonnegative iterates and,
    from the second iterate on, a nonincreasing Loewner chain."""
    problem = _scaled_problem(seed, n, steps, k_c, k_b, k_g)
    sol = _assert_same_outcome(problem)
    if isinstance(sol, tuple):
        assert sol[0] is ConvergenceError
        return
    values = sol.P.values
    assert np.array_equal(values, np.swapaxes(values, -1, -2))
    floor = -1e-10 * (1.0 + sup_opnorm_reference(values))
    for rec in sol.invariant_report:
        assert rec.min_eigenvalue >= floor
        if rec.index >= 2:
            assert rec.chain_min_eigenvalue >= floor
