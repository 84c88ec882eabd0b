"""Acceptance suite: one printed PASS/FAIL line per criterion.

Run ``pytest tests/test_acceptance.py -v -s`` to see the lines as they pass.
The random-problem battery (20 symmetric problems, n in {2, 4, 8}, T = 1,
N = 1000 with a halved-grid companion) is built once per module and shared by
the criteria that quantify over it.
"""

import json
import math
import time

import numpy as np
import pytest
import scipy.linalg

from riccatint.cli import EXIT_OK, cmd_solve
from riccatint.evolution import (OperatorFunction, TimeGrid,
                                 build_forward_family)
from riccatint.linops import sup_opnorm
from riccatint.oracle import solve_differential_riccati
from riccatint.riccati import (ConvergenceError, flow_consistency,
                               representation_check_one_sided,
                               representation_check_two_sided,
                               solve_monotone, solve_picard_stepped)
from riccatint.testing import (inverse_linear_problem, random_symmetric_problem,
                               tanh_problem)
from riccatint.volterra import (continuous_dependence_gap, cross_form_check,
                                perturb_forward)

from conftest import symmetry_defect

N_PROBLEMS = 20
SIZES = [2, 4, 8] * 7
N_COARSE = 1000
N_FINE = 2000


def _report(name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def suite():
    entries = []
    solve_seconds = 0.0
    for k in range(N_PROBLEMS):
        n = SIZES[k]
        prob, gen = random_symmetric_problem(seed=k, n=n, steps=N_COARSE)
        prob_fine, gen_fine = random_symmetric_problem(seed=k, n=n, steps=N_FINE)
        start = time.perf_counter()
        sol = solve_monotone(prob)
        oracle_run = solve_differential_riccati(gen, prob.B, prob.C, prob.G,
                                                prob.grid)
        sol_fine = solve_monotone(prob_fine)
        oracle_fine = solve_differential_riccati(gen_fine, prob_fine.B,
                                                 prob_fine.C, prob_fine.G,
                                                 prob_fine.grid)
        solve_seconds += time.perf_counter() - start
        entries.append({
            "seed": k,
            "n": n,
            "problem": prob,
            "solution": sol,
            "gap": sup_opnorm(sol.P.values - oracle_run.values),
            "gap_fine": sup_opnorm(sol_fine.P.values - oracle_fine.values),
        })
    return {"entries": entries, "solve_seconds": solve_seconds}


def test_criterion_1_scalar_closed_forms():
    budget = 2.0
    start = time.perf_counter()
    prob, _ = tanh_problem(2000)
    sol = solve_monotone(prob)
    t_tanh = time.perf_counter() - start
    err_tanh = abs(sol.P.values[0, 0, 0] - math.tanh(1.0))

    start = time.perf_counter()
    prob2, _ = inverse_linear_problem(2000)
    sol2 = solve_monotone(prob2)
    t_inv = time.perf_counter() - start
    err_inv = abs(sol2.P.values[0, 0, 0] - 0.5)

    passed = (err_tanh <= 1e-6 and err_inv <= 1e-6
              and t_tanh <= budget and t_inv <= budget)
    _report("1 closed-form scalar accuracy", passed,
            f"|P(0)-tanh(1)|={err_tanh:.2e}, |P(0)-0.5|={err_inv:.2e}, "
            f"times {t_tanh:.2f}s/{t_inv:.2f}s (budget {budget:.0f}s each)")


def test_criterion_2_oracle_equivalence(suite):
    worst_gap = max(e["gap"] for e in suite["entries"])
    orders = [math.log2(e["gap"] / e["gap_fine"]) for e in suite["entries"]]
    passed = (worst_gap <= 1e-4 and min(orders) >= 1.8
              and suite["solve_seconds"] <= 60.0)
    _report("2 oracle equivalence", passed,
            f"max gap={worst_gap:.2e} (<=1e-4), min fitted order="
            f"{min(orders):.2f} (>=1.8), runtime={suite['solve_seconds']:.1f}s "
            f"(<=60s) over {len(suite['entries'])} problems")


def test_criterion_3_solution_invariants(suite):
    worst_defect = 0.0
    worst_eig = math.inf
    worst_chain = math.inf
    for entry in suite["entries"]:
        sol = entry["solution"]
        worst_defect = max(worst_defect, symmetry_defect(sol.P))
        for rec in sol.invariant_report:
            worst_defect = max(worst_defect, rec.presymmetrization_defect)
            worst_eig = min(worst_eig, rec.min_eigenvalue)
            if rec.chain_min_eigenvalue is not None:
                worst_chain = min(worst_chain, rec.chain_min_eigenvalue)
    # slacks taken without the (1 + ||P_n||) relaxation, i.e. strictly tighter
    passed = (worst_defect <= 1e-10 and worst_eig >= -1e-8
              and worst_chain >= -1e-9)
    _report("3 symmetry/nonnegativity/chain invariants", passed,
            f"symmetry defect={worst_defect:.1e} (<=1e-10), min eig="
            f"{worst_eig:.1e} (>=-1e-8), chain margin={worst_chain:.1e} (>=-1e-9)")


def test_criterion_4_cross_solver_uniqueness(suite):
    worst = 0.0
    ran = 0
    certified = True
    for entry in suite["entries"]:
        try:
            pic = solve_picard_stepped(entry["problem"], safety=0.5)
        except ConvergenceError as exc:
            if "refine the grid" in str(exc):
                continue  # certified window below h: excluded by the criterion
            raise
        ran += 1
        mono = entry["solution"]
        gap = float(np.linalg.svd(mono.P.values - pic.P.values,
                                  compute_uv=False).max())
        worst = max(worst, gap)
        certified = certified and all(
            c.params.contraction_lhs < 1.0
            and c.sup_iterate_norm <= c.params.rho * (1.0 + 1e-9) + 1e-9
            for c in pic.intervals)
    passed = worst <= 1e-6 and certified and ran == len(suite["entries"])
    _report("4 uniqueness/cross-solver", passed,
            f"max sup gap={worst:.2e} (<=1e-6) on {ran}/{len(suite['entries'])} "
            f"problems, every window certified={certified}")


def _tanh_representation_constants():
    c_one = 0.0
    c_two = 0.0
    for n_steps in (250, 500, 1000, 2000):
        prob, _ = tanh_problem(n_steps)
        sol = solve_monotone(prob)
        h2 = prob.grid.h ** 2
        c_one = max(c_one, representation_check_one_sided(sol.P, prob) / h2)
        c_two = max(c_two, representation_check_two_sided(sol.P, prob) / h2)
    return c_one, c_two


def test_criterion_5_representation_identities(suite):
    c_one, c_two = _tanh_representation_constants()
    h2 = (1.0 / N_COARSE) ** 2
    worst_one = 0.0
    worst_two = 0.0
    for entry in suite["entries"]:
        worst_one = max(worst_one, representation_check_one_sided(
            entry["solution"].P, entry["problem"]))
        worst_two = max(worst_two, representation_check_two_sided(
            entry["solution"].P, entry["problem"]))
    bound_one = 10.0 * c_one * h2
    bound_two = 10.0 * c_two * h2
    passed = worst_one <= bound_one and worst_two <= bound_two
    _report("5 representation identities", passed,
            f"one-sided {worst_one:.2e}<={bound_one:.2e}, "
            f"two-sided {worst_two:.2e}<={bound_two:.2e} "
            f"(constants fitted on the scalar refinement: {c_one:.3f}/{c_two:.3f})")


def test_criterion_6_volterra_engine():
    rng = np.random.default_rng(1234)
    worst_cross = 0.0
    min_order = math.inf
    for n in (1, 2, 3):
        a = 0.5 * rng.standard_normal((n, n))
        a /= max(1.0, np.linalg.norm(a, 2))
        q = 0.8 * rng.standard_normal((n, n))
        q /= max(1.0, np.linalg.norm(q, 2))

        def exp_error(steps):
            grid = TimeGrid(1.0, steps)
            base = build_forward_family(OperatorFunction.constant(grid, a))
            q_fun = OperatorFunction.constant(grid, q)
            worst = 0.0
            for form in ("first", "second"):
                fam = perturb_forward(base, q_fun, 1, form)
                for i, j in ((steps, 0), (steps // 2, 0), (steps, steps // 2)):
                    exact = scipy.linalg.expm((a + q) * (i - j) * grid.h)
                    worst = max(worst, float(np.linalg.norm(
                        fam.value(i, j) - exact, 2)))
            return worst, cross_form_check(base, q_fun, 1)

        err_coarse, cross = exp_error(200)
        err_fine, _ = exp_error(400)
        worst_cross = max(worst_cross, cross)
        min_order = min(min_order, math.log2(err_coarse / err_fine))

    # Gronwall domination on two perturbation sequences
    grid = TimeGrid(1.0, 400)
    base = build_forward_family(OperatorFunction.constant(
        grid, 0.3 * np.array([[0.0, 1.0], [-1.0, 0.0]])))
    q_limit = OperatorFunction.constant(grid, 0.4 * np.eye(2))
    seq_a = [OperatorFunction.constant(grid, (0.4 + 1.0 / k) * np.eye(2))
             for k in (1, 2, 4, 8)]
    seq_b = [OperatorFunction.from_callable(
        grid, lambda t, k=k: 0.4 * np.eye(2) + (np.sin(3 * t) / k)
        * np.array([[0.2, 0.1], [0.1, -0.3]])) for k in (1, 2, 4, 8)]
    dominated = (continuous_dependence_gap(base, seq_a, q_limit, [1.0, -0.5]).all_dominated
                 and continuous_dependence_gap(base, seq_b, q_limit, [0.3, 1.0]).all_dominated)

    passed = worst_cross <= 1e-4 and min_order >= 1.8 and dominated
    _report("6 volterra engine", passed,
            f"cross-form max={worst_cross:.2e} (<=1e-4 at N=200), "
            f"exp((A+Q)dt) order={min_order:.2f} (>=1.8), "
            f"gronwall dominated={dominated}")


def _tanh_flow_constant():
    worst = 0.0
    for n_steps in (250, 500, 1000):
        prob, _ = tanh_problem(n_steps)
        exact = OperatorFunction(
            prob.grid, np.tanh(1.0 - prob.grid.nodes())[:, None, None])
        h2 = prob.grid.h ** 2
        pairs = [(0, n_steps), (0, n_steps // 2), (n_steps // 4, n_steps)]
        worst = max(worst, max(flow_consistency(exact, prob, a, b)
                               for a, b in pairs) / h2)
    return worst


def test_criterion_7_flow_identity(suite):
    c_flow = _tanh_flow_constant()
    bound = 10.0 * c_flow * (1.0 / N_COARSE) ** 2
    rng = np.random.default_rng(777)
    worst = 0.0
    pairs_checked = 0
    for entry in suite["entries"]:
        for _ in range(5):
            a, b = sorted(int(v) for v in rng.integers(0, N_COARSE + 1, 2))
            worst = max(worst, flow_consistency(entry["solution"].P,
                                                entry["problem"], a, b))
            pairs_checked += 1
    passed = worst <= bound and pairs_checked == 100
    _report("7 flow identity", passed,
            f"max residual={worst:.2e} over {pairs_checked} pairs "
            f"(bound 10*C*h^2={bound:.2e}, C={c_flow:.3f})")


def test_criterion_8_determinism(tmp_path):
    doc = {
        "dimension": 2,
        "horizon": 1.0,
        "steps": 300,
        "generator": {"kind": "polynomial",
                      "coefficients": [[[0.0, 0.2], [-0.2, 0.0]],
                                       [[0.1, 0.0], [0.0, -0.1]]]},
        "C": {"kind": "constant", "matrix": [[0.5, 0.1], [0.1, 0.4]]},
        "B": {"kind": "constant", "matrix": [[0.6, 0.0], [0.0, 0.3]]},
        "G": [[0.2, 0.0], [0.0, 0.1]],
        "solver": "monotone",
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cmd_solve(str(path), tmp_path / "run1") == EXIT_OK
    assert cmd_solve(str(path), tmp_path / "run2") == EXIT_OK
    first = (tmp_path / "run1" / "problem_P.csv").read_bytes()
    second = (tmp_path / "run2" / "problem_P.csv").read_bytes()
    passed = first == second
    _report("8 determinism", passed,
            f"repeated cmd_solve runs bit-identical={passed} "
            f"({len(first)} bytes)")
