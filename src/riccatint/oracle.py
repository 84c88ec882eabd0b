"""Independent verification path: the backward Riccati differential equation.

Differentiating the transported-terminal integral form (with the backward
family acting through the adjoint of the forward one) gives the matrix ODE

    P'(t) = -C(t) - A(t)^T P - P A(t) + P B(t) P,    P(T) = G,

which this module integrates backward with the classical fourth-order
Runge-Kutta method on the shared grid.  Note the sign arrangement: the
quadratic term enters the integral kernel with a minus sign, so it appears
with a plus sign in the derivative; conventions that attach the minus sign to
the derivative's quadratic term describe a different (forward) orientation.
The integrator shares no code with the integral-equation quadrature, so
agreement between the two is a genuine cross-check.
"""

from __future__ import annotations

import numpy as np

from .evolution import OperatorFunction, TimeGrid
from .linops import first_defect, symmetrize


def solve_differential_riccati(generator: OperatorFunction, B: OperatorFunction,
                               C: OperatorFunction, G, grid: TimeGrid,
                               publish=None) -> OperatorFunction:
    """Integrate the backward Riccati ODE from P(T) = G on the given grid and
    return the sampled P.

    All coefficients must be sampled on the nodes and midpoints of ``grid``.
    When B, C and G are symmetric the state is symmetrized after every step,
    which the exact flow preserves.  After each step to node ``i``,
    ``publish(values, i)``, if given, is told that rows ``i`` on are final (the
    CLI formats them meanwhile).
    """
    if generator.grid != grid or B.grid != grid or C.grid != grid:
        raise ValueError("all coefficients must be sampled on the given grid")
    n = generator.shape[0]
    if generator.shape != (n, n):
        raise ValueError("generator samples must be square")
    if B.shape != (n, n) or C.shape != (n, n):
        raise ValueError("B and C must match the generator dimension")
    g = np.asarray(G, dtype=float)
    if g.shape != (n, n):
        raise ValueError(f"G must have shape {(n, n)}, got {g.shape}")
    for name, fn in (("generator", generator), ("B", B), ("C", C)):
        if grid.steps > 0 and fn.midpoint_values is None:
            raise ValueError(f"{name} needs midpoint samples for the 4th-order stages")

    sym_tol = 1e-12
    symmetric = (float(np.abs(g - g.T).max()) <= sym_tol * (1.0 + float(np.abs(g).max()))
                 and all(first_defect(v, np.swapaxes(v, -1, -2),
                                      lambda part: 1.0 + float(np.abs(v).max()), sym_tol) is None
                         for v in (B.values, C.values)))

    def rhs(a_t, b_t, neg_c_t, p):
        return neg_c_t - a_t.T @ p - p @ a_t + p @ b_t @ p

    a, b, neg_c = generator.values, B.values, -C.values
    a_mid, b_mid = generator.midpoint_values, B.midpoint_values
    neg_c_mid = -C.midpoint_values if grid.steps else None
    values = np.empty((grid.num_nodes, n, n))
    values[grid.steps] = g
    h = -grid.h  # integrating backward in time
    half, sixth = 0.5 * h, h / 6.0

    def rk4(i):
        p = values[i + 1]
        k1 = rhs(a[i + 1], b[i + 1], neg_c[i + 1], p)
        k2 = rhs(a_mid[i], b_mid[i], neg_c_mid[i], p + half * k1)
        k3 = rhs(a_mid[i], b_mid[i], neg_c_mid[i], p + half * k2)
        k4 = rhs(a[i], b[i], neg_c[i], p + h * k3)
        return p + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    with np.errstate(over="ignore", invalid="ignore"):  # blow-up is diagnosed below
        for i in range(grid.steps - 1, -1, -1):
            step = rk4(i)
            values[i] = symmetrize(step) if symmetric else step
            if publish is not None:
                publish(values, i)
        # A non-finite entry stays so in every later step: the loop met the highest
        # such node first, or the next one if only its symmetrization overflowed.
        blown = np.flatnonzero(~np.isfinite(values[:grid.steps]).all(axis=(1, 2)))
        node = int(blown[-1]) - bool(np.isfinite(rk4(blown[-1])).all()) if blown.size else -1
    if node >= 0:
        raise RuntimeError(f"backward integration blew up at node {node}")
    return OperatorFunction(grid, values)
