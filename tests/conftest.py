import itertools
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import settings

from riccatint import riccati
from riccatint.cli import _csv_header
from riccatint.evolution import OperatorFunction
from riccatint.linops import node_opnorms, sup_opnorm, symmetrize
from riccatint.lyapunov import ConvergenceError, _march
from riccatint.riccati import (IterationRecord, RiccatiSolution, _require_hypotheses,
                               riccati_residual)

# Property tests run a fixed, derandomized set of examples: the same inputs and
# the same run time on every run.
settings.register_profile("riccatint", max_examples=60, derandomize=True,
                          deadline=None, database=None)
settings.load_profile("riccatint")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def flow_consistency_per_window(P, problem, t_index, tau_index):
    """Flow residual of one pair by its own window march (the pre-sweep code)."""
    window = slice(t_index, tau_index + 1)
    p_vals = P.values[window]
    kernel = problem.C.values[window] - p_vals @ problem.B.values[window] @ p_vals
    transported = _march(problem.U_backward.steps[t_index:tau_index],
                         problem.U_forward.steps[t_index:tau_index],
                         kernel, P.values[tau_index], problem.grid.h)
    return float(np.linalg.norm(P.values[t_index] - transported[0], 2))


def symmetry_defect(P):
    """max over nodes of ||P - P^T|| (spectral norm) of an ``OperatorFunction``."""
    return sup_opnorm(P.values - np.swapaxes(P.values, -1, -2))


# Routes and predicates the package no longer has, kept as references: the
# plain Picard iteration of the discrete linear equation must land on the
# implicit march's values, the composition law must hold on every family
# built, and ``is_nonnegative`` must decide as the two predicates it inlines.

def is_nonnegative_reference(mat, tol=1e-12):
    """``linops.is_nonnegative`` composed of the self-adjointness and smallest-
    eigenvalue predicates it had, each with its own ``np.linalg.norm(., 2)``."""
    square = np.asarray(mat, dtype=float)
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    defect = float(np.linalg.norm(square - square.T, 2))
    if not defect <= tol * (1.0 + float(np.linalg.norm(square, 2))):
        raise ValueError("matrix is not self-adjoint within tolerance")
    bound = tol * (1.0 + float(np.linalg.norm(square, 2)))
    return float(np.linalg.eigvalsh(symmetrize(square))[0]) >= -bound


def linear_picard_reference(problem, tol=1e-12, max_iter=400):
    """Node values of a ``LinearIntegralProblem`` by Picard fixed-point iteration,
    each sweep an explicit ``_march`` with the unknown moved into the kernel."""
    q1 = None if problem.Q1 is None else problem.Q1.values
    q2 = None if problem.Q2 is None else problem.Q2.values
    cur = np.zeros((problem.grid.num_nodes,) + problem.G.shape)
    cur[-1] = problem.G
    for _ in range(max_iter):
        kernel = problem.Q12.values
        if q1 is not None:
            kernel = kernel - cur @ q1
        if q2 is not None:
            kernel = kernel - q2 @ cur
        new = _march(problem.U_backward.steps, problem.U_forward.steps,
                     kernel, problem.G, problem.grid.h)
        gap = float(np.abs(new - cur).max())
        cur = new
        if gap <= tol * (1.0 + float(np.abs(cur).max())):
            return cur
    raise ConvergenceError(f"Picard iteration did not reach tol={tol} in {max_iter} sweeps")


def semigroup_defect_reference(family, value_fn=None, max_points=12):
    """Max composition residual ||U_{t,s} - U_{t,r} U_{r,s}|| over sampled node
    triples; ``value_fn(i, j)`` replaces ``family.value`` to test external data."""
    value = value_fn if value_fn is not None else family.value
    n = family.grid.steps
    if n == 0:
        return 0.0
    idx = sorted(set(np.linspace(0, n, min(max_points, n + 1)).astype(int).tolist()))
    worst = 0.0
    for triple in itertools.product(idx, repeat=3):
        lo, mid, hi = sorted(triple)
        i, j = (hi, lo) if family.direction == "forward" else (lo, hi)
        res = value(i, j) - value(i, mid) @ value(mid, j)
        worst = max(worst, float(np.linalg.norm(res, 2)))
    return worst


# Per-time builders and the one-SVD family bound, kept as references: the
# whole-grid sampler and the cached step norms must reproduce them bitwise.

def spec_callable_reference(spec, n):
    """Scalar coefficient spec ``fn(t)``, one call per time."""
    kind = spec["kind"]
    if kind == "zero":
        zero = np.zeros((n, n))
        return lambda t: zero
    if kind == "constant":
        mat = np.asarray(spec["matrix"], dtype=float)
        return lambda t: mat
    if kind == "polynomial":
        coeffs = [np.asarray(c, dtype=float) for c in spec["coefficients"]]

        def poly(t):
            acc = np.zeros_like(coeffs[0])
            tk = 1.0
            for c in coeffs:
                acc = acc + tk * c
                tk *= t
            return acc

        return poly
    times = np.asarray(spec["times"], dtype=float)
    mats = [np.asarray(m, dtype=float) for m in spec["matrices"]]

    def piecewise(t):
        j = int(np.searchsorted(times, t, side="right")) - 1
        return mats[max(0, min(j, len(mats) - 1))]

    return piecewise


def sample_per_time(grid, fn):
    """Node and midpoint samples of ``fn(t)``, one call per time."""
    values = np.stack([np.atleast_2d(np.asarray(fn(t), dtype=float)) for t in grid.nodes()])
    if grid.steps > 0:
        mids = np.stack([np.atleast_2d(np.asarray(fn(t), dtype=float))
                         for t in grid.midpoints()])
    else:
        mids = np.zeros((0,) + values.shape[1:])
    return values, mids


def certified_product_bound_reference(steps):
    """Family bound from one SVD of the step stack."""
    if steps.shape[0] == 0:
        return 1.0
    lognorms = np.log(np.maximum(np.linalg.svd(steps, compute_uv=False).max(axis=1), 1e-300))
    best = 0.0
    cur = 0.0
    for v in lognorms:
        cur = max(v, cur + v)
        best = max(best, cur)
    return float(math.exp(best))


def check_hypotheses_reference(problem, tol=1e-10):
    """``(passed, first_violation)`` of the hypothesis check from an SVD and an
    ``eigvalsh`` of every node (the code before the exact-zero and Cholesky
    tests)."""
    if problem.U_forward.dim != problem.U_backward.dim:
        return False, ("dimension", -1)

    def sym_stats(values):
        asym = node_opnorms(values - np.swapaxes(values, -1, -2))
        eigs = np.linalg.eigvalsh(symmetrize(values))
        return asym, eigs[:, 0], np.abs(eigs).max(axis=1)

    duality = problem.U_backward.steps - np.swapaxes(problem.U_forward.steps, -1, -2)
    duality_per_step = node_opnorms(duality)
    c_asym, c_min, c_norm = sym_stats(problem.C.values)
    b_asym, b_min, b_norm = sym_stats(problem.B.values)
    g_asym, g_min, g_norm = sym_stats(problem.G[None, :, :])
    first = None
    bad = np.nonzero(duality_per_step > tol * (1.0 + problem.U_forward.step_norms))[0]
    if bad.size:
        first = ("duality", int(bad[0]))
    checks = [
        ("C-symmetry", c_asym > tol * (1.0 + c_norm)),
        ("C-nonnegativity", c_min < -tol * (1.0 + c_norm)),
        ("B-symmetry", b_asym > tol * (1.0 + b_norm)),
        ("B-nonnegativity", b_min < -tol * (1.0 + b_norm)),
        ("G-symmetry", g_asym > tol * (1.0 + g_norm)),
        ("G-nonnegativity", g_min < -tol * (1.0 + g_norm)),
    ]
    for kind, mask in checks:
        if first is not None:
            break
        bad = np.nonzero(mask)[0]
        if bad.size:
            first = (kind, int(bad[0]))
    return first is None, first


def sup_opnorm_reference(values):
    """Max over a stack of the spectral norm from one SVD of the whole stack
    (the code each call site of ``linops.sup_opnorm`` had)."""
    return float(np.linalg.svd(values, compute_uv=False).max(initial=0.0))


# Row-by-row solution CSV writer and reader, kept as references: the versions
# that format and parse a symmetric row's upper triangle only must give the
# same bytes, the same bits and the same errors.

def write_solution_csv_reference(path, grid, values):
    table = np.column_stack([grid.nodes(), values.reshape(grid.num_nodes, -1)])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_csv_header(values.shape[1], values.shape[2]) + "\n")
        for row in table:
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def read_solution_csv_reference(path, grid, n):
    text = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not text:
        raise ValueError("solution file is empty")
    if text[0] != _csv_header(n, n):
        raise ValueError(f"solution header does not match the {n}x{n} header "
                         "'t,p0_0,...' that solve writes")
    if len(text) != grid.num_nodes + 1:
        raise ValueError(
            f"solution has {len(text) - 1} rows, expected {grid.num_nodes}")
    values = np.empty((grid.num_nodes, n * n))
    nodes = grid.nodes()
    for i, line in enumerate(text[1:]):
        parts = line.split(",")
        if len(parts) != 1 + n * n:
            raise ValueError(f"row {i} has {len(parts)} columns, expected {1 + n * n}")
        t = float(parts[0])
        if abs(t - nodes[i]) > 1e-12 * (1.0 + abs(nodes[i])):
            raise ValueError(f"row {i} has t={t}, expected {nodes[i]}")
        values[i] = list(map(float, parts[1:]))
    return OperatorFunction(grid, values.reshape(-1, n, n))


# Per-node loops, kept as references: the versions that compute every
# node-independent term once for the whole stack before the loop must give
# the same bits, the same errors and the same blow-up node.

def _coupling_reference(x, q1, q2, i):
    out = 0.0
    if q1 is not None:
        out = x @ q1[i]
    if q2 is not None:
        out = out + q2[i] @ x
    return out


def march_reference(left_steps, right_steps, kernel, terminal, h, q1=None, q2=None):
    """``lyapunov._march`` with the source term (h/2)(K_i + L_i K_{i+1} R_i)
    formed node by node inside the loops: each node's right-hand side
    transports x + d of the node before, d = x - rhs its converged correction,
    and its fixed point starts from rhs + 2 d_{i+1} - d_{i+2}.  Without
    coefficients it is the cold reference's explicit march."""
    m = left_steps.shape[0]
    if m == 0 or (q1 is None and q2 is None):
        return march_reference_cold(left_steps, right_steps, kernel, terminal, h)
    out = np.empty((m + 1,) + terminal.shape)
    out[m] = terminal
    folded = left_steps @ kernel[1:] @ right_steps
    alpha = 0.5 * h
    carried = out[m] - alpha * _coupling_reference(out[m], q1, q2, m)
    corrections = []
    for i in range(m - 1, -1, -1):
        rhs = left_steps[i] @ carried @ right_steps[i] + alpha * (kernel[i] + folded[i])
        scale = 1.0 + float(np.abs(rhs).max())
        if not corrections:
            x = rhs
        elif len(corrections) == 1:
            x = rhs + corrections[-1]
        else:
            x = rhs + (2.0 * corrections[-1] - corrections[-2])
        prev = math.inf
        for _ in range(64):
            x_new = rhs - alpha * _coupling_reference(x, q1, q2, i)
            diff = float(np.abs(x_new - x).max())
            x = x_new
            if diff <= 1e-15 * scale:
                break
            if diff >= prev:
                if diff <= 1e-12 * scale:
                    break
                raise ConvergenceError(
                    "implicit endpoint solve is diverging; h * ||Q|| is too large")
            prev = diff
        else:
            raise ConvergenceError(
                "implicit endpoint solve did not converge; h * ||Q|| is too large")
        out[i] = x
        corrections.append(x - rhs)
        carried = x + corrections[-1]
    return out


def march_reference_cold(left_steps, right_steps, kernel, terminal, h, q1=None, q2=None):
    """``lyapunov._march`` with the source term (h/2)(K_i + L_i K_{i+1} R_i)
    formed node by node inside the loops, and the node solve it had before
    the warm start: each node's right-hand side forms the coupling of the
    node before, and its fixed point starts from that right-hand side."""
    m = left_steps.shape[0]
    out = np.empty((m + 1,) + terminal.shape)
    out[m] = terminal
    if m == 0:
        return out
    folded = left_steps @ kernel[1:] @ right_steps
    alpha = 0.5 * h
    if q1 is None and q2 is None:
        for i in range(m - 1, -1, -1):
            out[i] = left_steps[i] @ out[i + 1] @ right_steps[i] \
                + alpha * (kernel[i] + folded[i])
        return out
    for i in range(m - 1, -1, -1):
        nxt = out[i + 1]
        rhs = left_steps[i] @ (nxt - alpha * _coupling_reference(nxt, q1, q2, i + 1)) \
            @ right_steps[i] + alpha * (kernel[i] + folded[i])
        scale = 1.0 + float(np.abs(rhs).max())
        x = rhs
        prev = math.inf
        for _ in range(64):
            x_new = rhs - alpha * _coupling_reference(x, q1, q2, i)
            diff = float(np.abs(x_new - x).max())
            x = x_new
            if diff <= 1e-15 * scale:
                break
            if diff >= prev:
                if diff <= 1e-12 * scale:
                    break
                raise ConvergenceError(
                    "implicit endpoint solve is diverging; h * ||Q|| is too large")
            prev = diff
        else:
            raise ConvergenceError(
                "implicit endpoint solve did not converge; h * ||Q|| is too large")
        out[i] = x
    return out


def window_defects_reference(left_steps, right_steps, kernel, values, h, t_index,
                             tau_index, chunk):
    """``lyapunov._window_defects`` with the source term formed per node."""
    folded = left_steps @ kernel[1:] @ right_steps
    alpha = 0.5 * h
    defects = np.empty(len(t_index))
    for start in range(0, len(t_index), chunk):
        t, tau = t_index[start:start + chunk], tau_index[start:start + chunk]
        cur = values[tau]
        for i in range(int(tau.max()) - 1, int(t.min()) - 1, -1):
            active = (t <= i) & (i < tau)
            cur[active] = left_steps[i] @ cur[active] @ right_steps[i] \
                + alpha * (kernel[i] + folded[i])
        defects[start:start + chunk] = np.linalg.norm(values[t] - cur, 2, axis=(1, 2))
    return defects


def rk4_reference(generator, B, C, G, grid):
    """Node values of ``oracle.solve_differential_riccati`` from the per-step
    loop: stage samples read through ``midpoint_values[i]``, C negated in every stage,
    a finiteness test after every step, and symmetric mode decided from the
    spectral norms of every node of B - B^T and C - C^T."""
    n = generator.shape[0]
    g = np.asarray(G, dtype=float)
    sym_tol = 1e-12
    symmetric = (
        float(np.abs(g - g.T).max()) <= sym_tol * (1.0 + float(np.abs(g).max()))
        and sup_opnorm_reference(B.values - np.swapaxes(B.values, -1, -2))
        <= sym_tol * (1.0 + float(np.abs(B.values).max()))
        and sup_opnorm_reference(C.values - np.swapaxes(C.values, -1, -2))
        <= sym_tol * (1.0 + float(np.abs(C.values).max()))
    )

    def rhs(a_t, b_t, c_t, p):
        return -c_t - a_t.T @ p - p @ a_t + p @ b_t @ p

    values = np.empty((grid.num_nodes, n, n))
    values[grid.steps] = g
    h = -grid.h
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(grid.steps - 1, -1, -1):
            p = values[i + 1]
            a_hi, b_hi, c_hi = generator.values[i + 1], B.values[i + 1], C.values[i + 1]
            a_mid, b_mid, c_mid = (f.midpoint_values[i] for f in (generator, B, C))
            a_lo, b_lo, c_lo = generator.values[i], B.values[i], C.values[i]
            k1 = rhs(a_hi, b_hi, c_hi, p)
            k2 = rhs(a_mid, b_mid, c_mid, p + 0.5 * h * k1)
            k3 = rhs(a_mid, b_mid, c_mid, p + 0.5 * h * k2)
            k4 = rhs(a_lo, b_lo, c_lo, p + h * k3)
            step = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(step)):
                raise RuntimeError(f"backward integration blew up at node {i}")
            values[i] = symmetrize(step) if symmetric else step
    return OperatorFunction(grid, values).values


def propagate_step_reference(generator_samples, i):
    """exp(h A(t_{i+1/2})): the identity for a zero sample, ``expm`` otherwise."""
    rows = generator_samples.shape[0]
    mid = generator_samples.midpoint_values[i]
    h = generator_samples.grid.h
    if not np.any(mid):
        return np.eye(rows)
    return scipy.linalg.expm(h * mid)


def forward_steps_reference(generator_samples):
    """Step stack of ``evolution.build_forward_family``, one
    ``propagate_step_reference`` per step."""
    rows = generator_samples.shape[0]
    grid = generator_samples.grid
    steps = np.empty((grid.steps, rows, rows))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(grid.steps):
            steps[i] = propagate_step_reference(generator_samples, i)
    if not np.all(np.isfinite(steps)):
        raise ValueError("a step propagator exp(h A) overflows; refine the grid")
    return steps


def solve_monotone_reference(problem, tol_abs=1e-10, tol_rel=1e-8, max_iter=50):
    """``riccati.solve_monotone`` as one serial loop: each step, then both
    spectra of its iterate, on the calling thread, with no step run ahead.  The
    step is looked up on the module at each call, so a patched one is used."""
    _require_hypotheses(problem)
    grid = problem.grid
    if grid.steps == 0:
        p_final = OperatorFunction(grid, problem.G[None, :, :])
        return RiccatiSolution(P=p_final, sup_differences=[],
                               residual=riccati_residual(p_final, problem))
    cur = np.zeros((grid.num_nodes, problem.U_backward.dim, problem.U_forward.dim))
    prev_norms = None
    records = []
    sup_diffs = []
    for n in range(1, max_iter + 1):
        new, defect = riccati._monotone_step_core(cur, problem)
        diff_eigs = np.linalg.eigvalsh(new - cur)
        sup_diff = float(np.abs(diff_eigs).max())
        new_eigs = np.linalg.eigvalsh(new)
        norms = np.abs(new_eigs).max(axis=1)
        max_norm = float(norms.max())
        chain_min = None
        norm_margin = None
        if n >= 2:
            chain_min = float(-diff_eigs[:, -1].max())
            norm_margin = float((prev_norms - norms).min())
        records.append(IterationRecord(
            index=n, sup_difference=sup_diff, presymmetrization_defect=defect,
            max_norm=max_norm, min_eigenvalue=float(new_eigs[:, 0].min()),
            chain_min_eigenvalue=chain_min, norm_decrease_margin=norm_margin))
        sup_diffs.append(sup_diff)
        cur = new
        prev_norms = norms
        if sup_diff <= tol_abs + tol_rel * max_norm:
            break
    else:
        raise ConvergenceError(f"monotone iteration did not converge in {max_iter} steps",
                               history=sup_diffs)
    p_final = OperatorFunction(grid, cur)
    return RiccatiSolution(P=p_final, sup_differences=sup_diffs,
                           residual=riccati_residual(p_final, problem),
                           invariant_report=records)


def outcome(fn, *args, **kwargs):
    """``(shape, bytes)`` of what ``fn`` returns, or ``(error type, message)``."""
    try:
        out = np.asarray(fn(*args, **kwargs))
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return out.shape, out.tobytes()
