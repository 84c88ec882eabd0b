import numpy as np
import pytest
from hypothesis import settings

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
