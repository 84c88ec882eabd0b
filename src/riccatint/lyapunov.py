"""Linear (Lyapunov-type) integral equations with transported terminal data.

The generic equation for an unknown operator function P on [0, T] is

    P(t) = V_{t,T} G U_{T,t}
           + int_t^T V_{t,r} [Q12(r) - P(r) Q1(r) - Q2(r) P(r)] U_{r,t} dr,

with V a backward and U a forward evolution family.  The discretization is
the composite trapezoidal rule; because the transports compose exactly, the
whole quadrature collapses to a backward one-node-at-a-time recursion, and
the coefficient terms at the newest node are solved implicitly, so the
returned samples satisfy the discrete equation to machine precision.  Without
coefficients the recursion is affine and small nodes march it by blocks.

The same marching core doubles as the explicit evaluator used for residual
checks and representation formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .evolution import EvolutionFamily, OperatorFunction
from .linops import node_opnorms


class ConvergenceError(RuntimeError):
    """An iteration did not converge; carries the update history."""

    def __init__(self, message: str, history: Optional[List[float]] = None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


def _wide(n: int) -> bool:
    """The one dimension rule, n >= 16: below it a numpy call on one n x n node
    costs more than its arithmetic, so the explicit march batches its steps
    across blocks and work beside a stack is run inline, not on a thread."""
    return n >= 16


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
    The steps compose, so unless ``_wide`` (of the larger side) they go in
    blocks of k = isqrt(m), as in a scan: k - 1 batched passes form each block's
    composite map, the block starts are marched through those, and k - 1 batched
    passes fill the interiors; the m mod k top steps go one node at a time.
    This is the same unrolled sum, rounded otherwise.  If ``_wide``, k is 1.

    With Q1/Q2 the kernel gains -(P Q1 + Q2 P), and the endpoint term couples
    P_i to itself; the small affine system x = rhs_i - (h/2)(x Q1_i + Q2_i x)
    is solved by a fixed-point sweep.  Each node keeps its converged
    correction d_i = x_i - rhs_i: the next node's right-hand side transports
    x_i + d_i (= x_i - (h/2)(x_i Q1_i + Q2_i x_i) to sweep tolerance), so the
    coupling is formed only at the terminal node and in the sweeps, and the
    sweep starts from rhs_i + 2 d_{i+1} - d_{i+2} (rhs_i + d_{i+1} at the
    second node solved, rhs_i at the first).  A sweep that stalls above
    roundoff raises :class:`ConvergenceError`.
    """
    m = left_steps.shape[0]
    out = np.empty((m + 1,) + terminal.shape)
    out[m] = terminal
    if m == 0:
        return out
    src = _sources(left_steps, right_steps, kernel, h)
    if q1 is None and q2 is None:
        k = 1 if _wide(max(terminal.shape)) else math.isqrt(m)
        top = m - m % k         # the leftover steps top..m-1 go one node at a time
        cur = out[m]
        for i in range(m - 1, top - 1, -1):
            cur = np.add(left_steps[i] @ cur @ right_steps[i], src[i], out=out[i])
        lb, rb, sb, ob = (a[:top].reshape((-1, k) + a.shape[1:])
                          for a in (left_steps, right_steps, src, out))
        lc, rc, sc = lb[:, -1], rb[:, -1], sb[:, -1]
        for j in range(k - 2, -1, -1):      # each block's composite map
            lc, rc, sc = lb[:, j] @ lc, rc @ rb[:, j], lb[:, j] @ sc @ rb[:, j] + sb[:, j]
        for b in range(top // k - 1, -1, -1):       # block starts
            cur = np.add(lc[b] @ cur @ rc[b], sc[b], out=ob[b, 0])
        nxt = out[k:top + 1:k]
        for j in range(k - 1, 0, -1):       # block interiors
            nxt = np.add(lb[:, j] @ nxt @ rb[:, j], sb[:, j], out=ob[:, j])
        return out
    alpha = 0.5 * h
    # x - alpha (x Q1 + Q2 x) at node i + 1: formed at the terminal node, then carried
    carried = out[m] - alpha * _coupling(out[m], q1, q2, m)
    d1 = d2 = None      # converged corrections x - rhs of the last two nodes
    for i in range(m - 1, -1, -1):
        rhs = left_steps[i] @ carried @ right_steps[i] + src[i]
        scale = 1.0 + float(np.abs(rhs).max())
        x = rhs if d1 is None else rhs + (d1 if d2 is None else 2.0 * d1 - d2)
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
        d1, d2 = x - rhs, d1
        carried = x + d1
    return out


def _window_defects(left_steps: np.ndarray, right_steps: np.ndarray,
                    kernel: np.ndarray, values: np.ndarray, h: float,
                    t_index: np.ndarray, tau_index: np.ndarray,
                    chunk: int) -> np.ndarray:
    """2-norm defect of ``values`` on many windows [t_a, tau_a] of one grid.

    Window a starts from values[tau_a] and is carried back to node t_a by the
    explicit recursion of :func:`_march`; its defect is the spectral norm of
    values[t_a] minus that transport.  All windows of a chunk of at most
    ``chunk`` pairs share one backward sweep.  The chunk's pair ends cut the
    grid into stretches [lo, hi) between consecutive ends, on each of which
    the same windows (t_a <= lo and hi <= tau_a) are active; they are
    gathered once, advanced node by node from hi - 1 down to lo by one
    stacked product each, and scattered back once.  So each transport has
    the bits of the per-node loop over its window, which is
    ``_march(left_steps[t:tau], right_steps[t:tau], kernel[t:tau + 1],
    values[tau], h)[0]`` bitwise only where ``_wide`` holds (elsewhere the
    march goes by blocks).
    """
    src = _sources(left_steps, right_steps, kernel, h)
    defects = np.empty(len(t_index))
    for start in range(0, len(t_index), chunk):
        t, tau = t_index[start:start + chunk], tau_index[start:start + chunk]
        cur = values[tau]
        ends = np.unique(np.concatenate((t, tau)))
        for lo, hi in zip(ends[-2::-1].tolist(), ends[:0:-1].tolist()):
            active = np.flatnonzero((t <= lo) & (hi <= tau))
            if active.size:
                part = cur[active]
                step = np.empty_like(part)      # each step in place: no temporaries
                for i in range(hi - 1, lo - 1, -1):
                    np.matmul(left_steps[i], part, out=step)
                    np.add(np.matmul(step, right_steps[i], out=part), src[i], out=part)
                cur[active] = part
        defects[start:start + chunk] = node_opnorms(values[t] - cur)
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
