import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from riccatint.cli import _csv_header
from riccatint.evolution import OperatorFunction
from riccatint.linops import node_opnorms, symmetrize
from riccatint.lyapunov import _march

# Property tests run a fixed, derandomized set of examples: the same inputs and
# the same run time on every run.
settings.register_profile("riccatint", max_examples=60, derandomize=True,
                          deadline=None, database=None)
settings.load_profile("riccatint")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def brute_force_matmul(a, b):
    """Triple-loop matrix product, independent of numpy's matmul path."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for r in range(k):
                acc += a[i, r] * b[r, j]
            out[i, j] = acc
    return out


def flow_consistency_per_window(P, problem, t_index, tau_index):
    """Flow residual of one pair by its own window march (the pre-sweep code)."""
    window = slice(t_index, tau_index + 1)
    p_vals = P.values[window]
    kernel = problem.C.values[window] - p_vals @ problem.B.values[window] @ p_vals
    transported = _march(problem.U_backward.steps[t_index:tau_index],
                         problem.U_forward.steps[t_index:tau_index],
                         kernel, P.values[tau_index], problem.grid.h)
    return float(np.linalg.norm(P.values[t_index] - transported[0], 2))


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
    """``(passed, first_violation, summary)`` of the hypothesis check from an
    SVD and an ``eigvalsh`` of every node (the code before the exact-zero and
    Cholesky tests); ``summary`` holds the seven report floats in field order."""
    if problem.U_forward.dim != problem.U_backward.dim:
        inf = math.inf
        return False, ("dimension", -1), (inf, inf, -inf, inf, -inf, inf, -inf)

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
    summary = (float(duality_per_step.max(initial=0.0)),
               float(c_asym.max(initial=0.0)), float(c_min.min(initial=0.0)),
               float(b_asym.max(initial=0.0)), float(b_min.min(initial=0.0)),
               float(g_asym.max(initial=0.0)), float(g_min.min(initial=0.0)))
    return first is None, first, summary


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
