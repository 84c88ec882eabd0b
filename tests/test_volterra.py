import math
import re

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from riccatint.evolution import (OperatorFunction, TimeGrid,
                                 adjoint_backward_family, build_forward_family)
from riccatint.volterra import (GronwallBound, continuous_dependence_gap,
                                cross_form_check, perturb_backward, perturb_forward)


def _identity_base(n_steps, dim=1):
    grid = TimeGrid(1.0, n_steps)
    return build_forward_family(OperatorFunction.zero(grid, dim))


def test_zero_perturbation_returns_base():
    base = _identity_base(20, dim=2)
    q = OperatorFunction.zero(base.grid, 2)
    for form in ("first", "second"):
        fam = perturb_forward(base, q, 1, form)
        assert np.array_equal(fam.steps, base.steps)
    bwd = adjoint_backward_family(base)
    fam_b = perturb_backward(bwd, q, -1, "first")
    assert np.array_equal(fam_b.steps, bwd.steps)


def test_scalar_exponential():
    # identity base, Q = 1: Psi_{T,0} = e within O(h^2)
    def err(n):
        base = _identity_base(n)
        q = OperatorFunction.constant(base.grid, [[1.0]])
        fam = perturb_forward(base, q, 1, "first")
        return abs(fam.value(n, 0)[0, 0] - math.e)

    assert err(200) < 1e-4
    assert math.log2(err(200) / err(400)) >= 1.8


def test_constant_coefficients_match_matrix_exponential(rng):
    a = rng.standard_normal((3, 3))
    a /= 2.0 * np.linalg.norm(a, 2)
    q = rng.standard_normal((3, 3))
    q /= np.linalg.norm(q, 2)
    grid = TimeGrid(1.0, 400)
    base = build_forward_family(OperatorFunction.constant(grid, a))
    fam = perturb_forward(base, OperatorFunction.constant(grid, q), 1, "first")
    for i, j in [(400, 0), (200, 0), (400, 100)]:
        dt = (i - j) * grid.h
        assert_allclose(fam.value(i, j), scipy.linalg.expm((a + q) * dt), atol=5e-6)


def test_backward_scalar_mirrors_forward():
    grid = TimeGrid(1.0, 150)
    base = _identity_base(150)
    bwd = adjoint_backward_family(base)
    q = OperatorFunction.constant(grid, [[0.9]])
    fwd_fam = perturb_forward(base, q, 1, "first")
    bwd_fam = perturb_backward(bwd, q, 1, "first")
    # scalar time-invariant case: both give e^{0.9 |t-s|}
    assert_allclose(bwd_fam.value(0, 150)[0, 0], fwd_fam.value(150, 0)[0, 0], rtol=1e-12)


def test_adjoint_duality_of_perturbed_families(rng):
    """Transposing the first-form equation yields the second-form backward one."""
    a = 0.5 * rng.standard_normal((2, 2))
    q = 0.8 * rng.standard_normal((2, 2))
    grid = TimeGrid(1.0, 60)
    base = build_forward_family(OperatorFunction.constant(grid, a))
    fam = perturb_forward(base, OperatorFunction.constant(grid, q), -1, "first")
    dual = perturb_backward(
        adjoint_backward_family(base), OperatorFunction.constant(grid, q.T), -1, "second")
    for i, j in [(0, 60), (10, 45), (30, 31)]:
        assert_allclose(dual.value(i, j), fam.value(j, i).T, atol=1e-13)


def _global_trapezoid_march(base, q_fun, sign, s_index):
    """Independent reference: solve the composite-trapezoid Volterra equation
    for Psi_{., s} by marching upward in t (unknown on the right of Q)."""
    grid = base.grid
    h = grid.h
    n = base.dim
    q = q_fun.values
    psi = [np.eye(n)]
    for m in range(s_index + 1, grid.num_nodes):
        rhs = base.value(m, s_index).astype(float)
        rhs = rhs + sign * h * 0.5 * (base.value(m, s_index) @ q[s_index] @ psi[0])
        for r in range(s_index + 1, m):
            rhs = rhs + sign * h * (base.value(m, r) @ q[r] @ psi[r - s_index])
        lhs = np.eye(n) - sign * 0.5 * h * q[m]
        psi.append(np.linalg.solve(lhs, rhs))
    return psi


def test_per_step_family_solves_global_equation(rng):
    """The product family satisfies the composite discrete equation exactly,
    so an independent marching order reproduces it to roundoff."""
    a = 0.6 * rng.standard_normal((2, 2))
    qm = 0.9 * rng.standard_normal((2, 2))
    grid = TimeGrid(1.0, 40)
    base = build_forward_family(OperatorFunction.constant(grid, a))
    q = OperatorFunction.from_callable(grid, lambda t: qm * (1.0 + 0.3 * np.sin(t)))
    fam = perturb_forward(base, q, 1, "first")
    for s in (0, 7):
        reference = _global_trapezoid_march(base, q, 1, s)
        for m in range(s, 41):
            assert_allclose(fam.value(m, s), reference[m - s], atol=1e-10)


def test_cross_form_check():
    grid = TimeGrid(1.0, 200)
    base = _identity_base(200)
    q = OperatorFunction.constant(grid, [[0.8]])
    assert cross_form_check(base, OperatorFunction.zero(grid, 1), 1) == 0.0
    res = cross_form_check(base, q, 1)
    assert res <= 1e-4


def _pairwise_cross_form(base, q, sign, starts):
    """Max over the given starts s and every node t reached from s of the
    largest singular value of the two forms' difference, pair by pair."""
    forward = base.direction == "forward"
    solve = perturb_forward if forward else perturb_backward
    first = solve(base, q, sign, "first")
    second = solve(base, q, sign, "second")
    return max(float(np.linalg.svd(first.value(t, s) - second.value(t, s), compute_uv=False).max())
               for s in starts
               for t in (range(s, base.grid.num_nodes) if forward else range(s, -1, -1)))


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_cross_form_check_equals_every_pair(rng, direction):
    """With a start per step, forward starts are nodes 0...N-1 and backward
    starts nodes 1...N, each carried to the end of the grid."""
    grid = TimeGrid(1.0, 12)
    base = build_forward_family(OperatorFunction.constant(grid, 0.5 * rng.standard_normal((2, 2))))
    q = OperatorFunction(grid, rng.standard_normal((13, 2, 2)))
    if direction == "backward":
        base = adjoint_backward_family(base)
    starts = range(12) if direction == "forward" else range(1, 13)
    assert cross_form_check(base, q, -1) == _pairwise_cross_form(base, q, -1, starts)


def test_cross_form_check_starts_a_backward_family_at_the_terminal():
    """Q = 5 at node N only: the two backward forms differ in step N-1 alone,
    which only a start at node N carries."""
    grid = TimeGrid(1.0, 10)
    bwd = adjoint_backward_family(build_forward_family(OperatorFunction.constant(grid, [[0.3]])))
    q_values = np.zeros((11, 1, 1))
    q_values[10] = 5.0
    q = OperatorFunction(grid, q_values)
    gap = abs(perturb_backward(bwd, q, 1, "first").value(0, 10)
              - perturb_backward(bwd, q, 1, "second").value(0, 10))[0, 0]
    # exp(0.3) (1 / (1 - 0.25) - 1.25): steps 0...8 agree, step 9 differs
    assert_allclose(gap, math.exp(0.3) * (4.0 / 3.0 - 1.25), rtol=1e-12)
    assert_allclose(cross_form_check(bwd, q), gap, rtol=1e-12)


def test_cross_form_refinement(rng):
    a = 0.5 * rng.standard_normal((2, 2))
    qm = rng.standard_normal((2, 2))
    qm /= np.linalg.norm(qm, 2)

    def residual(n):
        grid = TimeGrid(1.0, n)
        base = build_forward_family(OperatorFunction.constant(grid, a))
        q = OperatorFunction.from_callable(grid, lambda t: qm * (1.0 + 0.5 * t))
        return cross_form_check(base, q, 1)

    ratio = residual(100) / residual(200)
    assert 2.5 <= ratio <= 6.0


# Each argument error, in the order it is checked, with its message.
_MESSAGES = {
    "sign": "sign must be +1 or -1, got 2",
    "form": "form must be one of ('first', 'second'), got 'third'",
    "shape": "Q must be square of dimension 2, got shape (3, 3)",
    "grid": "Q must be sampled on the base family's grid",
    "direction": "{name} needs a {wanted} base family",
}


def _validation_cases():
    """Each error alone, and with every later one; cross_form_check takes no
    form and picks its solver by the base's direction."""
    for fn in (perturb_forward, perturb_backward, cross_form_check):
        defects = [d for d in _MESSAGES
                   if fn is not cross_form_check or d not in ("form", "direction")]
        for k, defect in enumerate(defects):
            for applied in dict.fromkeys([(defect,), tuple(defects[k:])]):
                yield pytest.param(fn, applied, id=f"{fn.__name__}-{'+'.join(applied)}")


@pytest.mark.parametrize("fn, applied", _validation_cases())
def test_spec_validation(fn, applied):
    """Each argument error is raised with its message; with later errors
    present too, the first one is reported."""
    fwd = _identity_base(10, dim=2)
    base = adjoint_backward_family(fwd) \
        if (fn is perturb_backward) != ("direction" in applied) else fwd
    grid = TimeGrid(1.0, 11) if "grid" in applied else base.grid
    q = OperatorFunction.zero(grid, 3 if "shape" in applied else 2)
    sign = 2 if "sign" in applied else 1
    args = (base, q, sign) if fn is cross_form_check \
        else (base, q, sign, "third" if "form" in applied else "first")
    wanted = "backward" if fn is perturb_backward else "forward"
    message = _MESSAGES[applied[0]].format(name=fn.__name__, wanted=wanted)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fn(*args)


def test_gronwall_bound_shape():
    bound = GronwallBound(M_U=2.0, M_Q=1.5)
    assert bound.majorant(0.0, 3.0) == 6.0
    # monotone nondecreasing in the elapsed time
    values = [bound.majorant(dt, 1.0) for dt in np.linspace(0, 2, 20)]
    assert np.all(np.diff(values) >= 0)
    with pytest.raises(ValueError):
        GronwallBound(M_U=0.5, M_Q=1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="M_U must be >= 1"):
            GronwallBound(M_U=bad, M_Q=1.0)
        with pytest.raises(ValueError, match="M_Q must be >= 0"):
            GronwallBound(M_U=2.0, M_Q=bad)
    with pytest.raises(ValueError):
        bound.majorant(-1.0, 1.0)


def test_gronwall_majorant_takes_arrays():
    bound = GronwallBound(M_U=2.0, M_Q=1.5)
    dts, drives = np.linspace(0, 2, 20), np.linspace(0, 1, 20)
    assert np.array_equal(bound.majorant(dts, drives),
                          [bound.majorant(dt, d) for dt, d in zip(dts, drives)])
    for bad in (-1.0, np.array([0.0, 0.5, -1e-12, 1.0])):
        with pytest.raises(ValueError, match="^dt must be nonnegative$"):
            bound.majorant(bad, 1.0)


def test_continuous_dependence_identical_sequence():
    base = _identity_base(100)
    q = OperatorFunction.constant(base.grid, [[0.7]])
    res = continuous_dependence_gap(base, [q, q], q, [1.0])
    assert res.all_dominated
    assert all(r.sup_gap <= 1e-14 for r in res.records)


def test_continuous_dependence_scalar_sequence():
    base = _identity_base(200)
    grid = base.grid
    q = OperatorFunction.constant(grid, [[0.8]])
    seq = [OperatorFunction.constant(grid, [[0.8 + 1.0 / k]]) for k in (1, 2, 4, 8, 16)]
    res = continuous_dependence_gap(base, seq, q, [1.0])
    assert res.all_dominated
    gaps = [r.sup_gap for r in res.records]
    assert np.all(np.diff(gaps) < 0)  # decreasing along the sequence
    # scalar closed form: gap at T is e^{q + 1/k} - e^{q}
    expected = math.exp(0.8 + 1.0) - math.exp(0.8)
    assert_allclose(gaps[0], expected, rtol=1e-3)
    for rec in res.records:
        assert rec.sup_gap <= rec.sup_majorant


def test_continuous_dependence_dimension_mismatch():
    base = _identity_base(10, dim=2)
    q = OperatorFunction.zero(base.grid, 2)
    with pytest.raises(ValueError):
        continuous_dependence_gap(base, [q], q, [1.0, 0.0, 0.0])


def test_continuous_dependence_reports_the_slack_it_used():
    grid = TimeGrid(1.0, 20)
    base = build_forward_family(
        OperatorFunction.constant(grid, 0.3 * np.array([[0.0, 1.0], [-1.0, 0.0]])))
    limit = OperatorFunction.constant(grid, 0.4 * np.eye(2))
    seq = [OperatorFunction.constant(grid, (0.4 + 1.0 / k) * np.eye(2)) for k in (1, 2)]
    res = continuous_dependence_gap(base, seq, limit, [1.0, -0.5])
    h = grid.h
    for rec in res.records:
        assert rec.slack == 1e-10 + 50.0 * h * h * (1.0 + rec.sup_majorant)
    assert res.slack == max(r.slack for r in res.records) == res.records[0].slack
    assert_allclose(res.slack, 0.822, atol=1e-3)
    assert continuous_dependence_gap(base, [], limit, [1.0, -0.5]).slack == 1e-10
