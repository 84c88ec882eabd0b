"""Linear (Lyapunov-type) integral equations with transported terminal data.

The generic equation for an unknown operator function P on [0, T] is

    P(t) = V_{t,T} G U_{T,t}
           + int_t^T V_{t,r} [Q12(r) - P(r) Q1(r) - Q2(r) P(r)] U_{r,t} dr,

with V a backward and U a forward evolution family.  The discretization is
the composite trapezoidal rule; because the transports compose exactly, the
whole quadrature collapses to a backward one-node-at-a-time recursion, and
the coefficient terms at the newest node are solved implicitly, so the
returned samples satisfy the discrete equation to machine precision.

The same marching core doubles as the explicit evaluator used for residual
checks and representation formulas, and a plain Picard fixed-point iteration
of the discrete equation is provided as an independent route to the same
solution (the two agree to iteration tolerance, a runtime-checkable
uniqueness surrogate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .evolution import EvolutionFamily, OperatorFunction


class ConvergenceError(RuntimeError):
    """An iteration did not converge; carries the update history."""

    def __init__(self, message: str, history: Optional[List[float]] = None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


def _coupling(x: np.ndarray, q1: Optional[np.ndarray], q2: Optional[np.ndarray],
              i: int):
    """x Q1_i + Q2_i x, with an absent coefficient contributing nothing."""
    out = 0.0
    if q1 is not None:
        out = x @ q1[i]
    if q2 is not None:
        out = out + q2[i] @ x
    return out


def _sources(left_steps, right_steps, kernel, h: float) -> np.ndarray:
    """(h/2)(K_i + L_i K_{i+1} R_i) for every step i of :func:`_march`, as one stack."""
    return 0.5 * h * (kernel[:-1] + left_steps @ kernel[1:] @ right_steps)


def _march(left_steps: np.ndarray, right_steps: np.ndarray, kernel: np.ndarray,
           terminal: np.ndarray, h: float, q1: Optional[np.ndarray] = None,
           q2: Optional[np.ndarray] = None) -> np.ndarray:
    """Backward trapezoidal march of the discrete linear equation.

    Without coefficients this evaluates, for every node i of the (sub)grid,

        R_i = V(i,m) T U(m,i) + h * sum'' over r in [i, m] of V(i,r) K_r U(r,i)

    by the recursion R_i = B_i R_{i+1} S_i + (h/2)(K_i + B_i K_{i+1} S_i),
    which unrolls to exactly the composite trapezoidal sum at every node.  The
    source terms (h/2)(...) need no earlier node and come as one stack (:func:`_sources`).

    With Q1/Q2 the kernel gains -(P Q1 + Q2 P), and the endpoint term couples
    P_i to itself; the small affine system is solved by a rapidly convergent
    fixed-point sweep (contraction factor ~ h * ||Q||).  A sweep that stalls
    above roundoff raises :class:`ConvergenceError`.
    """
    m = left_steps.shape[0]
    out = np.empty((m + 1,) + terminal.shape)
    out[m] = terminal
    if m == 0:
        return out
    src = _sources(left_steps, right_steps, kernel, h)
    if q1 is None and q2 is None:
        cur = out[m]
        for i in range(m - 1, -1, -1):
            cur = np.add(left_steps[i] @ cur @ right_steps[i], src[i], out=out[i])
        return out
    alpha = 0.5 * h
    for i in range(m - 1, -1, -1):
        nxt = out[i + 1]
        rhs = left_steps[i] @ (nxt - alpha * _coupling(nxt, q1, q2, i + 1)) \
            @ right_steps[i] + src[i]
        scale = 1.0 + float(np.abs(rhs).max())
        x = rhs
        prev = math.inf
        for _ in range(64):
            x_new = rhs - alpha * _coupling(x, q1, q2, i)
            diff = float(np.abs(x_new - x).max())
            x = x_new
            if diff <= 1e-15 * scale:
                break
            if diff >= prev:
                # contraction has reached the roundoff floor (ulp limit cycle)
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


def _window_defects(left_steps: np.ndarray, right_steps: np.ndarray,
                    kernel: np.ndarray, values: np.ndarray, h: float,
                    t_index: np.ndarray, tau_index: np.ndarray,
                    chunk: int) -> np.ndarray:
    """2-norm defect of ``values`` on many windows [t_a, tau_a] of one grid.

    Window a starts from values[tau_a] and is carried back to node t_a by the
    explicit recursion of :func:`_march`; its defect is the spectral norm of
    values[t_a] minus that transport.  All windows of a chunk of at most
    ``chunk`` pairs share one backward sweep: at node i every window with
    t_a <= i < tau_a is advanced by one stacked product.  The per-node
    arithmetic is that of ``_march``, so each transport is bitwise equal to
    ``_march(left_steps[t:tau], right_steps[t:tau], kernel[t:tau + 1],
    values[tau], h)[0]``.
    """
    src = _sources(left_steps, right_steps, kernel, h)
    defects = np.empty(len(t_index))
    for start in range(0, len(t_index), chunk):
        t, tau = t_index[start:start + chunk], tau_index[start:start + chunk]
        cur = values[tau]
        for i in range(int(tau.max()) - 1, int(t.min()) - 1, -1):
            active = (t <= i) & (i < tau)
            cur[active] = left_steps[i] @ cur[active] @ right_steps[i] + src[i]
        defects[start:start + chunk] = np.linalg.norm(values[t] - cur, 2, axis=(1, 2))
    return defects


def _checked_terminal(U_forward: EvolutionFamily, U_backward: EvolutionFamily,
                      G) -> np.ndarray:
    """Validate a forward and a backward family on one grid and the terminal
    operator G (codomain x domain) of an equation posed on them; return G as
    a float array."""
    if U_forward.direction != "forward":
        raise ValueError("U_forward must be a forward family")
    if U_backward.direction != "backward":
        raise ValueError("U_backward must be a backward family")
    if U_backward.grid != U_forward.grid:
        raise ValueError("families must share one grid")
    g = np.asarray(G, dtype=float)
    if g.shape != (U_backward.dim, U_forward.dim):
        raise ValueError(f"G must have shape {(U_backward.dim, U_forward.dim)}, got {g.shape}")
    if not np.all(np.isfinite(g)):
        raise ValueError("G has non-finite entries")
    return g


@dataclass(frozen=True)
class LinearIntegralProblem:
    """Datum of the linear integral equation.

    ``U_forward`` acts on the domain space (dimension n1), ``U_backward`` on
    the codomain space (dimension n2); Q12 and G map n1 -> n2, Q1 and Q2 are
    square coefficients on the respective spaces and are optional.
    """

    U_forward: EvolutionFamily
    U_backward: EvolutionFamily
    Q12: OperatorFunction
    G: np.ndarray
    Q1: Optional[OperatorFunction] = None
    Q2: Optional[OperatorFunction] = None

    def __post_init__(self):
        object.__setattr__(self, "G", _checked_terminal(self.U_forward, self.U_backward, self.G))
        grid, n1, n2 = self.grid, self.U_forward.dim, self.U_backward.dim
        if self.Q12.shape != (n2, n1) or self.Q12.grid != grid:
            raise ValueError(f"Q12 must be sampled on the grid with shape {(n2, n1)}")
        if self.Q1 is not None and (self.Q1.shape != (n1, n1) or self.Q1.grid != grid):
            raise ValueError(f"Q1 must be square of dimension {n1} on the grid")
        if self.Q2 is not None and (self.Q2.shape != (n2, n2) or self.Q2.grid != grid):
            raise ValueError(f"Q2 must be square of dimension {n2} on the grid")

    @property
    def grid(self):
        return self.U_forward.grid


def solve_linear(problem: LinearIntegralProblem) -> OperatorFunction:
    """Solve the equation exactly on the grid by the implicit march, with the
    unknown multiplied by Q1 from the right and by Q2 from the left, each
    where present (either, both or neither)."""
    values = _march(problem.U_backward.steps, problem.U_forward.steps,
                    problem.Q12.values, problem.G, problem.grid.h,
                    q1=None if problem.Q1 is None else problem.Q1.values,
                    q2=None if problem.Q2 is None else problem.Q2.values)
    return OperatorFunction(problem.grid, values)


solve_both_perturbed = solve_linear     # the name the benchmark's march probe imports


def solve_linear_picard(problem: LinearIntegralProblem, tol: float = 1e-12,
                        max_iter: int = 400) -> OperatorFunction:
    """Direct Picard fixed-point iteration of the discrete linear equation.

    Independent of the implicit marching route; kept in the module because the
    agreement of the two paths is a uniqueness check worth running at runtime.
    """
    grid = problem.grid
    q12 = problem.Q12.values
    q1 = problem.Q1.values if problem.Q1 is not None else None
    q2 = problem.Q2.values if problem.Q2 is not None else None
    cur = np.zeros((grid.num_nodes,) + problem.G.shape)
    cur[-1] = problem.G
    for _ in range(max_iter):
        kernel = q12
        if q1 is not None:
            kernel = kernel - cur @ q1
        if q2 is not None:
            kernel = kernel - q2 @ cur
        new = _march(problem.U_backward.steps, problem.U_forward.steps,
                     kernel, problem.G, grid.h)
        gap = float(np.abs(new - cur).max())
        cur = new
        if gap <= tol * (1.0 + float(np.abs(cur).max())):
            return OperatorFunction(grid, cur)
    raise ConvergenceError(
        f"Picard iteration did not reach tol={tol} in {max_iter} sweeps")
