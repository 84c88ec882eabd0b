"""Backward Riccati integral equation solvers on evolution families.

The equation, posed on a grid over [0, T] with a forward family U, a backward
family V, coefficients C(t), B(t) and terminal operator G, is

    P(t) = V_{t,T} G U_{T,t} + int_t^T V_{t,r} {C(r) - P(r) B(r) P(r)} U_{r,t} dr.

Two solvers are provided.  ``solve_monotone`` runs the monotone iteration
from P_0 = 0: each step solves the linearized equation exactly on the grid
(a Newton-type step), which in the self-adjoint nonnegative setting produces
a nonincreasing chain of nonnegative self-adjoint iterates.  The general
solver ``solve_picard_stepped`` walks backward from T in windows short enough
that the fixed-point map is a certified contraction on a norm ball, and
records the certificate for every window.

Both solvers use the same trapezoidal discretization of the integral (via the
marching core in :mod:`riccatint.lyapunov`), so they converge to the same
grid solution and cross-agree to iteration tolerance.  Residual and
representation diagnostics quantify how well any sampled P satisfies the
equation and its perturbed-family representations.
"""

from __future__ import annotations

import math
from concurrent import futures     # loads its thread executor on first use
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import List, Optional, Union

import numpy as np

from .evolution import EvolutionFamily, OperatorFunction, adjoint_backward_family
from .linops import first_defect, sup_opnorm, symmetrize
from .lyapunov import ConvergenceError, _checked_terminal, _march, _wide, _window_defects
from .volterra import perturb_backward, perturb_forward

_HYPOTHESIS_TOL = 1e-10


class HypothesisViolation(ValueError):
    """A hypothesis of the symmetric setting (symmetry, nonnegativity, duality) failed."""

    def __init__(self, kind: str, node: int, message: str):
        super().__init__(message)
        self.kind = kind
        self.node = node


@dataclass(frozen=True)
class RiccatiProblem:
    """Full problem datum: families, coefficients, terminal operator, grid.

    The problem is in the symmetric setting, ``symmetric_mode``, when
    :func:`check_hypotheses` finds no violation: the backward family is the
    adjoint dual of the forward one and C, B, G are self-adjoint nonnegative.
    The monotone solver requires it; the Picard solver does not.
    """

    U_forward: EvolutionFamily
    U_backward: EvolutionFamily
    C: OperatorFunction
    B: OperatorFunction
    G: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "G", _checked_terminal(self.U_forward, self.U_backward, self.G))
        grid, n1, n2 = self.grid, self.U_forward.dim, self.U_backward.dim
        if self.C.shape != (n2, n1) or self.C.grid != grid:
            raise ValueError(f"C must be sampled on the grid with shape {(n2, n1)}")
        if self.B.shape != (n1, n2) or self.B.grid != grid:
            raise ValueError(f"B must be sampled on the grid with shape {(n1, n2)}")

    @classmethod
    def symmetric(cls, U_forward: EvolutionFamily, C: OperatorFunction,
                  B: OperatorFunction, G) -> "RiccatiProblem":
        """Self-adjoint problem: the backward family is built as the adjoint dual."""
        return cls(U_forward, adjoint_backward_family(U_forward), C, B, G)

    @property
    def grid(self):
        return self.U_forward.grid

    @cached_property
    def first_violation(self) -> Optional[tuple]:
        """``check_hypotheses(self)`` at the default tolerance, run on first use."""
        return check_hypotheses(self)

    @property
    def symmetric_mode(self) -> bool:
        """Whether the problem passes its hypothesis check (``first_violation``)."""
        return self.first_violation is None

    def kernel(self, p_values: np.ndarray) -> np.ndarray:
        """C - P B P sampled on the nodes."""
        return self.C.values - p_values @ self.B.values @ p_values


def _first_negative_node(values: np.ndarray, tol: float) -> Optional[int]:
    """First node whose symmetric part S has min eigenvalue < -tol (1 + ||S||),
    both from ``eigvalsh``, or None.

    One batched Cholesky of M = S + s I, s = tol (1 + d) / 2 with d the largest
    |diagonal entry| of S (d <= ||S||), decides that no node fails.  If it runs
    to completion, its computed factor R has R^T R = M + dM with
    |dM| <= g |R^T| |R|, g = (n+1) u / (1 - (n+1) u), u = eps / 2 (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm. 10.5), so
    ||dM|| <= g trace(R^T R) <= n g (1 + u) (d + s) / (1 - g).  M rounds
    S + s I on the diagonal only, so lambda_min(S) >= -s - ||dM|| - u (d + s),
    which with n (n+1) eps <= tol / 4 is at least -(3/4) tol (1 + ||S||).  The
    remaining quarter covers the backward error of ``eigvalsh`` (of order
    n eps ||S||) in both the eigenvalue and the norm.  When the Cholesky fails,
    M is not finite or n (n+1) eps > tol / 4, ``eigvalsh`` decides the whole
    stack.
    """
    sym = symmetrize(values)
    n = values.shape[-1]
    if n * (n + 1) * np.finfo(float).eps <= tol / 4:
        diag = np.arange(n)
        shift = 0.5 * tol * (1.0 + np.abs(sym[:, diag, diag]).max(axis=1))
        shifted = sym.copy()
        shifted[:, diag, diag] += shift[:, None]
        if np.isfinite(shifted).all():
            try:
                np.linalg.cholesky(shifted)
                return None
            except np.linalg.LinAlgError:
                pass
    eigs = np.linalg.eigvalsh(sym)
    nodes = np.flatnonzero(eigs[:, 0] < -tol * (1.0 + np.abs(eigs).max(axis=1)))
    return int(nodes[0]) if nodes.size else None


def check_hypotheses(problem: RiccatiProblem, tol: float = _HYPOTHESIS_TOL) -> Optional[tuple]:
    """The first failing hypothesis of the symmetric setting as (kind, node), or None.

    Duality is checked step by step: equality of every backward step with the
    transposed forward step extends to all grid pairs exactly, because values
    at distant pairs are products of steps.  The kinds are tested in the order
    dimension (node -1), duality, C-symmetry, C-nonnegativity, B-..., G-...,
    and the first kind with a failing node is reported at its first such node.
    Steps and nodes with an exactly zero defect pass without LAPACK
    (``first_defect``), and one batched Cholesky decides nonnegativity where it
    can (``_first_negative_node``).  A NaN or negative ``tol`` certifies
    nothing and is refused.
    """
    if not tol >= 0.0:
        raise ValueError("tol must be nonnegative")
    forward = problem.U_forward
    if forward.dim != problem.U_backward.dim:
        return "dimension", -1
    node = first_defect(problem.U_backward.steps, np.swapaxes(forward.steps, -1, -2),
                        lambda part: 1.0 + forward.step_norms[part], tol)
    if node is not None:
        return "duality", node
    for name, values in (("C", problem.C.values), ("B", problem.B.values),
                         ("G", problem.G[None, :, :])):
        node = first_defect(values, np.swapaxes(values, -1, -2), lambda part: 1.0 + np.abs(
            np.linalg.eigvalsh(symmetrize(values[part]))).max(axis=1), tol)
        if node is not None:
            return f"{name}-symmetry", node
        node = _first_negative_node(values, tol)
        if node is not None:
            return f"{name}-nonnegativity", node
    return None


def _on_grid(P: OperatorFunction, problem: RiccatiProblem) -> np.ndarray:
    """P's node values, once P is known to be sampled on the problem grid."""
    if P.grid != problem.grid:
        raise ValueError("P must be sampled on the problem grid")
    return P.values


def _transport_defect(p, left, right, kernel, problem: RiccatiProblem) -> float:
    """Sup-node norm of P minus its march from G with these steps and kernel."""
    return sup_opnorm(p - _march(left, right, kernel, problem.G, problem.grid.h))


def riccati_residual(P: OperatorFunction, problem: RiccatiProblem) -> float:
    """Max node residual of the integral equation under trapezoidal quadrature."""
    p = _on_grid(P, problem)
    return _transport_defect(p, problem.U_backward.steps, problem.U_forward.steps,
                             problem.kernel(p), problem)


def flow_consistency(P: OperatorFunction, problem: RiccatiProblem,
                     t_index: Union[int, np.ndarray],
                     tau_index: Union[int, np.ndarray]) -> Union[float, np.ndarray]:
    """Residual of the flow identity between two nodes t <= tau.

    A solution transported from its own value at tau must reproduce the value
    at t; for tau = T this reduces to the equation residual at t.  Scalar
    indices give a ``float``; equal-length integer arrays give one residual
    per pair.  The pairs share one backward sweep in chunks of at most
    ``num_nodes`` pairs, marched by stretches between the chunk's pair ends
    (see ``lyapunov._window_defects``): the chunk's transports and the
    windows gathered for one stretch are each at most one P-sized stack, and
    below 16 x 16 the stretch maps add three stacks of under ``num_nodes`` nodes.
    """
    p = _on_grid(P, problem)
    scalar = np.ndim(t_index) == 0
    t_arr, tau_arr = np.atleast_1d(t_index), np.atleast_1d(tau_index)
    if (t_arr.shape != tau_arr.shape or t_arr.ndim > 1
            or t_arr.dtype.kind not in "iu" or tau_arr.dtype.kind not in "iu"):
        raise ValueError("t_index and tau_index must be integers or 1-D integer arrays "
                         f"of one length, got {t_arr.dtype} {t_arr.shape} and "
                         f"{tau_arr.dtype} {tau_arr.shape}")
    n_nodes = problem.grid.num_nodes
    bad = np.flatnonzero((t_arr < 0) | (t_arr > tau_arr) | (tau_arr >= n_nodes))
    if bad.size:
        a = bad[0]
        where = "" if scalar else f" at pair {a}"
        raise ValueError(f"need 0 <= t_index <= tau_index < {n_nodes}, "
                         f"got ({t_arr[a]}, {tau_arr[a]}){where}")
    residuals = _window_defects(problem.U_backward.steps, problem.U_forward.steps,
                                problem.kernel(p), p, problem.grid.h,
                                t_arr, tau_arr, chunk=n_nodes)
    return float(residuals[0]) if scalar else residuals


def _psi_forward(problem: RiccatiProblem, p_values: np.ndarray) -> EvolutionFamily:
    """Forward family perturbed by -B P (unknown to the left of the coefficient)."""
    coeff = OperatorFunction(problem.grid, problem.B.values @ p_values)
    return perturb_forward(problem.U_forward, coeff, -1, "second")


def _psi_backward(problem: RiccatiProblem, p_values: np.ndarray) -> EvolutionFamily:
    """Backward family perturbed by -P B (unknown to the right of the coefficient)."""
    coeff = OperatorFunction(problem.grid, p_values @ problem.B.values)
    return perturb_backward(problem.U_backward, coeff, -1, "first")


def representation_check_one_sided(P: OperatorFunction, problem: RiccatiProblem, *,
                                   psi_forward: Optional[EvolutionFamily] = None) -> float:
    """Residual of the one-sided representation with the -BP perturbed family.

    Evaluates P(t) = V_{t,T} G Psi_{T,t} + int_t^T V_{t,r} C(r) Psi_{r,t} dr
    by trapezoidal quadrature, with Psi = ``psi_forward`` if given (as
    ``_psi_forward(problem, P.values)`` builds it), else built here; for a
    solution the residual is O(h^2).
    """
    p = _on_grid(P, problem)
    psi_fwd = psi_forward if psi_forward is not None else _psi_forward(problem, p)
    return _transport_defect(p, problem.U_backward.steps, psi_fwd.steps,
                             problem.C.values, problem)


def representation_check_two_sided(P: OperatorFunction, problem: RiccatiProblem, *,
                                   psi_forward: Optional[EvolutionFamily] = None) -> float:
    """Residual of the two-sided representation with kernel C + P B P; the
    -BP forward family is ``psi_forward`` when given, as in
    :func:`representation_check_one_sided`."""
    p = _on_grid(P, problem)
    # built first: a singular correction names the forward family
    psi_fwd = psi_forward if psi_forward is not None else _psi_forward(problem, p)
    return _transport_defect(p, _psi_backward(problem, p).steps, psi_fwd.steps,
                             problem.C.values + p @ problem.B.values @ p, problem)


def _require_hypotheses(problem: RiccatiProblem) -> None:
    """Raise the first failing hypothesis of the problem's cached check."""
    if not problem.symmetric_mode:
        kind, node = problem.first_violation
        raise HypothesisViolation(kind, node, f"hypothesis {kind} fails at node {node}")


def _monotone_step_core(p_values: np.ndarray, problem: RiccatiProblem
                        ) -> tuple[np.ndarray, float]:
    """One linearized step; returns the symmetrized iterate and the raw defect.

    The quadratic kernel is replaced by its linearization
    C + P_n B P_n - P B P_n - P_n B P, P_n = ``p_values``, and the resulting
    linear equation is solved exactly on the grid.  At P_n = 0 (the first
    step) Q1 = Q2 = 0, so the equation is marched explicitly."""
    q1 = problem.B.values @ p_values            # acts on the domain space
    q2 = p_values @ problem.B.values            # acts on the codomain space
    kernel = problem.C.values + q2 @ p_values   # q2 @ P is P @ B @ P, bitwise
    coupled = bool(p_values.any())
    raw = _march(problem.U_backward.steps, problem.U_forward.steps, kernel, problem.G,
                 problem.grid.h, q1=q1 if coupled else None, q2=q2 if coupled else None)
    defect = sup_opnorm(raw - np.swapaxes(raw, -1, -2))
    return symmetrize(raw), defect


@dataclass(frozen=True)
class IterationRecord:
    """Invariant bookkeeping for one monotone iterate."""

    index: int
    sup_difference: float
    presymmetrization_defect: float
    max_norm: float
    min_eigenvalue: float
    chain_min_eigenvalue: Optional[float] = None      # min eig of P_{n-1} - P_n
    norm_decrease_margin: Optional[float] = None      # min over nodes of ||P_{n-1}|| - ||P_n||


def _check_window_bounds(M1: float, M2: float, r_G: float, r_C: float, r_B: float) -> None:
    """Refuse family bounds below 1 and negative norm caps, and NaN or inf in either."""
    if not (1.0 <= M1 < math.inf and 1.0 <= M2 < math.inf):
        raise ValueError("family bounds must be >= 1 and finite")
    if not all(0.0 <= r < math.inf for r in (r_G, r_C, r_B)):
        raise ValueError("norm caps must be nonnegative and finite")


@dataclass(frozen=True)
class ContractionParams:
    """Certified parameters of one contraction window.

    The defining inequality 4 * delta * M1^2 M2^2 (r_G + delta r_C) r_B < 1
    is enforced at construction; ``rho`` = 2 M1 M2 (r_G + delta r_C) is the
    ball radius.
    """

    M1: float
    M2: float
    r_G: float
    r_C: float
    r_B: float
    delta: float

    def __post_init__(self):
        _check_window_bounds(self.M1, self.M2, self.r_G, self.r_C, self.r_B)
        if not (self.delta > 0.0 and math.isfinite(self.delta)):
            raise ValueError("delta must be a positive finite step")
        if self.contraction_lhs >= 1.0:
            raise ValueError(
                f"contraction condition violated: lhs={self.contraction_lhs:.6g} >= 1"
            )

    @property
    def contraction_lhs(self) -> float:
        return (4.0 * self.delta * self.M1 ** 2 * self.M2 ** 2
                * (self.r_G + self.delta * self.r_C) * self.r_B)

    @property
    def rho(self) -> float:
        return 2.0 * self.M1 * self.M2 * (self.r_G + self.delta * self.r_C)


@dataclass(frozen=True)
class IntervalCertificate:
    """Record of one certified contraction window of the stepped solver."""

    start_index: int
    end_index: int
    params: ContractionParams
    iterations: int
    final_update: float
    sup_iterate_norm: float


@dataclass(frozen=True)
class RiccatiSolution:
    """Solver output: P on the grid plus convergence and invariant diagnostics."""

    P: OperatorFunction
    sup_differences: List[float]
    residual: float
    invariant_report: List[IterationRecord] = field(default_factory=list)
    intervals: Optional[List[IntervalCertificate]] = None

    @property
    def iterations(self) -> int:
        """Number of updates the solver made: one per entry of ``sup_differences``."""
        return len(self.sup_differences)


def compute_delta(M1: float, M2: float, r_G: float, r_C: float, r_B: float,
                  safety: float = 0.5, horizon: Optional[float] = None) -> float:
    """Largest window delta with 4 delta M1^2 M2^2 (r_G + delta r_C) r_B = safety.

    The returned delta satisfies the strict contraction inequality with margin
    1 - safety.  For r_B = 0 the condition is vacuous and the full horizon is
    returned (infinite when no horizon is given).
    """
    _check_window_bounds(M1, M2, r_G, r_C, r_B)
    if not (0.0 < safety < 1.0):
        raise ValueError("safety must lie in (0, 1)")
    if horizon is not None and not horizon > 0.0:
        raise ValueError("horizon must be positive when given")
    cap = math.inf if horizon is None else horizon
    if r_B == 0.0:
        return cap
    m4 = 4.0 * M1 ** 2 * M2 ** 2 * r_B
    lin = m4 * r_G
    quad = m4 * r_C
    if quad == 0.0:
        delta = math.inf if lin == 0.0 else safety / lin
    else:
        delta = (-lin + math.sqrt(lin * lin + 4.0 * quad * safety)) / (2.0 * quad)
    return min(delta, cap)


def _spectra(new: np.ndarray, diff: Optional[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Node spectra of the update ``diff`` and of the iterate ``new``, in that
    order; with ``diff`` None the update is the iterate (P_0 = 0), decomposed once."""
    diff_eigs = np.linalg.eigvalsh(new if diff is None else diff)
    return diff_eigs, diff_eigs if diff is None else np.linalg.eigvalsh(new)


class _Inline(futures.Executor):
    """Executor running each job at submit, which raises the job's error."""

    def submit(self, fn, *args) -> futures.Future:
        done = futures.Future()
        done.set_result(fn(*args))
        return done


def _lane(n: int) -> futures.Executor:
    """Executor for jobs beside work on n x n stacks: one thread if ``_wide(n)``."""
    return futures.ThreadPoolExecutor(max_workers=1) if _wide(n) else _Inline()


def solve_monotone(problem: RiccatiProblem, tol_abs: float = 1e-10,
                   tol_rel: float = 1e-8, max_iter: int = 50) -> RiccatiSolution:
    """Monotone iteration from P_0 = 0 with per-iterate invariant bookkeeping.

    Stops when the sup-node spectral norm of the update drops below
    tol_abs + tol_rel * ||P||.  Records, per iterate, the pre-symmetrization
    defect, the smallest eigenvalue, and (from the second iterate on) the
    smallest eigenvalue of P_n - P_{n+1} and the node-wise norm decrease.  The
    records are the only per-iterate list: ``sup_differences`` and the history
    of a ``ConvergenceError`` are read from them.

    The lane of :func:`_lane` runs :func:`_spectra` on each iterate while this
    thread runs the next step ahead, unless the previous update d has d^2 <=
    tol_abs + tol_rel ||P|| (by quadratic convergence the iterate is then the
    last), in which case this thread computes the iterate's residual instead.
    A step or residual not needed is dropped with any error it raised, so
    results, records and errors are the serial loop's, bitwise, threaded or
    inline.
    """
    _require_hypotheses(problem)

    grid = problem.grid
    if grid.steps == 0:
        p_final = OperatorFunction(grid, problem.G[None, :, :])
        return RiccatiSolution(P=p_final, sup_differences=[],
                               residual=riccati_residual(p_final, problem))

    cur = np.zeros((grid.num_nodes, problem.U_backward.dim, problem.U_forward.dim))
    records: List[IterationRecord] = []
    sup_diff, max_norm, prev_norms, ahead = math.inf, 0.0, None, None
    with _lane(problem.U_forward.dim) as pool:
        for n in range(1, max_iter + 1):
            if isinstance(ahead, Exception):
                raise ahead
            new, defect = ahead or _monotone_step_core(cur, problem)
            spectra = pool.submit(_spectra, new, None if n == 1 else new - cur)
            # P_{n-1}, and a dropped residual's P, are not held while the next step runs
            cur, ahead, p_final, residual = new, None, None, None
            if n < max_iter and sup_diff * sup_diff > tol_abs + tol_rel * max_norm:
                try:
                    ahead = _monotone_step_core(new, problem)
                except Exception as exc:    # surfaces only if the loop goes on
                    ahead = exc
            else:       # predicted to be the last iterate: its residual
                try:
                    p_final = OperatorFunction(grid, new)
                    residual = riccati_residual(p_final, problem)
                except Exception as exc:    # surfaces only if the loop ends here
                    residual = exc
            diff_eigs, new_eigs = spectra.result()
            sup_diff = float(np.abs(diff_eigs).max())
            norms = np.abs(new_eigs).max(axis=1)
            max_norm = float(norms.max())
            records.append(IterationRecord(
                index=n, sup_difference=sup_diff, presymmetrization_defect=defect,
                max_norm=max_norm, min_eigenvalue=float(new_eigs[:, 0].min()),
                # P_{n-1} - P_n = -(P_n - P_{n-1}); eigs negate and reverse
                chain_min_eigenvalue=None if n == 1 else float(-diff_eigs[:, -1].max()),
                norm_decrease_margin=None if n == 1 else float((prev_norms - norms).min())))
            prev_norms = norms
            if sup_diff <= tol_abs + tol_rel * max_norm:
                break
        else:
            raise ConvergenceError(f"monotone iteration did not converge in {max_iter} steps",
                                   history=[r.sup_difference for r in records])
    if isinstance(residual, Exception):
        raise residual
    if residual is None:        # the loop ended where a step ran ahead
        p_final = OperatorFunction(grid, cur)
        residual = riccati_residual(p_final, problem)
    return RiccatiSolution(P=p_final, sup_differences=[r.sup_difference for r in records],
                           residual=residual, invariant_report=records)


class _BallEscape(Exception):
    def __init__(self, observed: float):
        super().__init__(f"iterate norm {observed:.6g} left the certified ball")
        self.observed = observed


def _picard_window(problem: RiccatiProblem, terminal: np.ndarray, idx: int,
                   r_G: float, r_C: float, r_B: float, safety: float,
                   tol_abs: float, tol_rel: float, max_iter: int):
    grid = problem.grid
    h = grid.h
    m1, m2 = problem.U_forward.bound, problem.U_backward.bound
    delta = compute_delta(m1, m2, r_G, r_C, r_B, safety, horizon=idx * h)
    m = min(idx, int(math.floor(delta / h + 1e-9)))
    if m < 1:
        raise ConvergenceError(
            f"certified contraction window delta={delta:.3e} is shorter than the "
            f"grid step h={h:.3e}; refine the grid"
        )
    params = ContractionParams(m1, m2, r_G, r_C, r_B, delta=m * h)
    lo = idx - m
    left = problem.U_backward.steps[lo:idx]
    right = problem.U_forward.steps[lo:idx]
    ker_c = problem.C.values[lo:idx + 1]
    b_sub = problem.B.values[lo:idx + 1]
    ball_slack = 1e-9 * (1.0 + params.rho)

    cur = _march(left, right, ker_c, terminal, h)
    sup_norm = sup_opnorm(cur)
    updates: List[float] = []
    for k in range(max_iter):
        kernel = ker_c - cur @ b_sub @ cur
        new = _march(left, right, kernel, terminal, h)
        update = sup_opnorm(new - cur)
        cur = new
        norm = sup_opnorm(cur)
        sup_norm = max(sup_norm, norm)
        updates.append(update)
        if norm > params.rho + ball_slack:
            raise _BallEscape(norm)
        if update <= tol_abs + tol_rel * norm:
            cert = IntervalCertificate(
                start_index=lo, end_index=idx, params=params,
                iterations=k + 1, final_update=update,
                sup_iterate_norm=sup_norm,
            )
            return lo, cur, cert, updates
    raise ConvergenceError(
        f"window [{lo}, {idx}] did not converge in {max_iter} sweeps",
        history=updates,
    )


def solve_picard_stepped(problem: RiccatiProblem, tol_abs: float = 1e-10,
                         tol_rel: float = 1e-8, max_iter: int = 50,
                         safety: float = 0.5, publish=None) -> RiccatiSolution:
    """Certified fixed-point solver stepping backward through contraction windows.

    Works without symmetry hypotheses.  Each window's length is chosen so the
    contraction condition holds with the requested safety margin, with the
    terminal-norm cap refreshed from the already-computed tail; the iterates
    are checked to stay inside the certified ball (one retry per window with
    an inflated cap).  A window that needs more than ``max_iter`` sweeps
    raises ``ConvergenceError``, as the monotone solver does past its cap.
    After each certified window, ``publish(values, lo)``, if given, is told that
    rows ``lo`` on of the values are final (the CLI formats them meanwhile).
    """
    grid = problem.grid
    r_c = sup_opnorm(problem.C.values)
    r_b = sup_opnorm(problem.B.values)
    values = np.empty((grid.num_nodes, problem.U_backward.dim, problem.U_forward.dim))
    values[grid.steps] = problem.G
    certificates: List[IntervalCertificate] = []
    all_updates: List[float] = []
    idx = grid.steps
    while idx > 0:
        r_g = sup_opnorm(values[idx])
        window_with_cap = partial(
            _picard_window, problem, values[idx], idx, r_C=r_c, r_B=r_b, safety=safety,
            tol_abs=tol_abs, tol_rel=tol_rel, max_iter=max_iter)
        try:
            lo, window, cert, updates = window_with_cap(r_g)
        except _BallEscape as esc:
            try:
                lo, window, cert, updates = window_with_cap(max(2.0 * r_g, esc.observed))
            except _BallEscape as second:
                raise ConvergenceError(
                    f"iterate escaped the certified ball twice near node {idx} "
                    f"(norm {second.observed:.6g}); the norm caps underestimate "
                    "the solution"
                ) from second
        values[lo:idx + 1] = window
        if publish is not None:
            publish(values, lo)
        certificates.append(cert)
        all_updates.extend(updates)
        idx = lo
    p_final = OperatorFunction(grid, values)
    return RiccatiSolution(
        P=p_final,
        sup_differences=all_updates,
        residual=riccati_residual(p_final, problem),
        intervals=certificates,
    )
