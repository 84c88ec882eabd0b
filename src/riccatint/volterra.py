"""Volterra integral equations for perturbed evolution families.

Given a base family U and a bounded coefficient Q, the perturbed family
solves one of the four equations (forward/backward base, unknown to the
right or to the left of Q, sign +/- on the integral), e.g. for a forward
base and the unknown on the right:

    Psi_{t,s} = U_{t,s} + sign * int_s^t U_{t,r} Q(r) Psi_{r,s} dr.

Each one-step propagator of Psi is obtained from the trapezoidal rule on a
single interval with the implicit endpoint solved exactly, which keeps the
returned object an exact evolution family; the product family then satisfies
the composite trapezoidal form of the full equation at every grid pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .evolution import EvolutionFamily, OperatorFunction
from .linops import sup_opnorm

_FORMS = ("first", "second")


def _inv_or_report(mats: np.ndarray, what: str) -> np.ndarray:
    try:
        out = np.linalg.inv(mats)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            f"implicit trapezoidal correction is singular while building {what}; "
            "h * ||Q|| is too large for this grid"
        ) from exc
    if not np.all(np.isfinite(out)):
        raise ValueError(f"implicit trapezoidal correction produced non-finite values in {what}")
    return out


def _perturbed_steps(base: EvolutionFamily, Q: OperatorFunction, sign: int, form: str,
                     direction: str) -> np.ndarray:
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if form not in _FORMS:
        raise ValueError(f"form must be one of {_FORMS}, got {form!r}")
    rows, cols = Q.shape
    if rows != cols or rows != base.dim:
        raise ValueError(f"Q must be square of dimension {base.dim}, got shape {(rows, cols)}")
    if Q.grid != base.grid:
        raise ValueError("Q must be sampled on the base family's grid")
    if base.direction != direction:
        raise ValueError(f"perturb_{direction} needs a {direction} base family")
    c = 0.5 * sign * base.grid.h
    eye = np.eye(base.dim)
    # Q where a step maps to and from: forward i -> i + 1, backward i + 1 -> i
    q_to, q_from = Q.values[1:], Q.values[:-1]
    if direction == "backward":
        q_to, q_from = q_from, q_to
    what = f"{direction}/{form} steps"
    if form == "first":
        # X = (I - c Q_to)^-1 S (I + c Q_from)
        left = _inv_or_report(eye - c * q_to, what)
        return left @ base.steps @ (eye + c * q_from)
    # X = (I + c Q_to) S (I - c Q_from)^-1
    right = _inv_or_report(eye - c * q_from, what)
    return (eye + c * q_to) @ base.steps @ right


def perturb_forward(base: EvolutionFamily, Q: OperatorFunction, sign: int = 1,
                    form: str = "first") -> EvolutionFamily:
    """Forward family solving a Volterra form over ``base``: ``form='first'`` puts the
    unknown family to the right of Q inside the integral, ``form='second'`` to the
    left; ``sign`` is the sign of the integral term."""
    return EvolutionFamily(base.grid, "forward", _perturbed_steps(base, Q, sign, form, "forward"))


def perturb_backward(base: EvolutionFamily, Q: OperatorFunction, sign: int = 1,
                     form: str = "first") -> EvolutionFamily:
    """Backward analogue of :func:`perturb_forward`."""
    return EvolutionFamily(base.grid, "backward", _perturbed_steps(base, Q, sign, form, "backward"))


def _pair_sweep_max_diff(fam_a: EvolutionFamily, fam_b: EvolutionFamily,
                         max_starts: int) -> float:
    """Max over sampled grid pairs of ||A_{t,s} - B_{t,s}||: starts s from
    0...N-1 for forward families and 1...N for backward ones, each carried to
    the end of the grid."""
    n_steps = fam_a.grid.steps
    if n_steps == 0:
        return 0.0
    first = 0 if fam_a.direction == "forward" else 1
    starts = sorted(set(np.linspace(first, n_steps - 1 + first,
                                    min(max_starts, n_steps)).astype(int)))
    eye = np.eye(fam_a.dim)
    return max(sup_opnorm(np.stack(list(fam_a.carry(j, eye)))
                          - np.stack(list(fam_b.carry(j, eye)))) for j in starts)


def cross_form_check(base: EvolutionFamily, Q: OperatorFunction, sign: int = 1,
                     tol: Optional[float] = None, *, max_starts: int = 64) -> float:
    """Max grid-pair discrepancy between the two Volterra forms.

    Both forms discretize the same family to second order, so at a fixed grid
    the discrepancy is O(h^2).  When ``tol`` is given a ValueError is raised
    if it is exceeded.
    """
    if max_starts < 1:
        raise ValueError(f"max_starts must be >= 1, got {max_starts}")
    solve = perturb_forward if base.direction == "forward" else perturb_backward
    fam_first = solve(base, Q, sign, "first")
    fam_second = solve(base, Q, sign, "second")
    residual = _pair_sweep_max_diff(fam_first, fam_second, max_starts)
    if tol is not None and residual > tol:
        raise ValueError(f"cross-form residual {residual:.3e} exceeds tol {tol:.3e}")
    return residual


@dataclass(frozen=True)
class GronwallBound:
    """Exponential a-priori majorant M_U * exp(M_U * M_Q * dt) * (driving integral)."""

    M_U: float
    M_Q: float

    def __post_init__(self):
        if not 1.0 <= self.M_U < np.inf:
            raise ValueError("M_U must be >= 1 and finite")
        if not 0.0 <= self.M_Q < np.inf:
            raise ValueError("M_Q must be >= 0 and finite")

    def majorant(self, dt, driving_integral):
        """The majorant at elapsed time ``dt``; elementwise over arrays."""
        if np.any(dt < 0):
            raise ValueError("dt must be nonnegative")
        return self.M_U * np.exp(self.M_U * self.M_Q * dt) * driving_integral


@dataclass(frozen=True)
class GapRecord:
    """Per-sequence-member outcome of the continuous-dependence comparison;
    ``slack`` is the allowance its ``dominated`` verdict used."""

    sup_gap: float
    sup_majorant: float
    dominated: bool
    slack: float


@dataclass(frozen=True)
class ContinuousDependenceResult:
    """The bound, one record per Q_n, and the largest slack any record used."""

    bound: GronwallBound
    records: List[GapRecord]
    slack: float

    @property
    def all_dominated(self) -> bool:
        return all(r.dominated for r in self.records)


def continuous_dependence_gap(base: EvolutionFamily, Q_seq: Sequence[OperatorFunction],
                              Q_limit: OperatorFunction, x, s_index: int = 0, *,
                              slack: Optional[float] = None) -> ContinuousDependenceResult:
    """Compare the perturbed-family gaps against the Gronwall majorant.

    For each Q_n builds the family perturbed by Q_n (sign +1, unknown on the
    right) and measures sup over t >= t_s of the vector gap
    ||(Psi^(n)_{t,s} - Psi_{t,s}) x|| together with the majorant
    M_U * exp(M_U M_Q (t - s)) * int_s^t ||[Q_n - Q](r) Psi_{r,s} x|| dr.
    The domination flag allows ``slack`` for the quadrature error of both
    sides (default scales with h^2).
    """
    if base.direction != "forward":
        raise ValueError("continuous dependence is set up on forward families")
    vec = np.asarray(x, dtype=float).reshape(-1)
    if vec.shape[0] != base.dim:
        raise ValueError(f"x must have length {base.dim}, got {vec.shape[0]}")
    grid = base.grid
    if not (0 <= s_index <= grid.steps):
        raise IndexError(f"s_index {s_index} out of range")
    for q in list(Q_seq) + [Q_limit]:
        if q.shape != (base.dim, base.dim) or q.grid != grid:
            raise ValueError("all Q samples must be square on the base grid")

    limit_family = perturb_forward(base, Q_limit)
    limit_vectors = np.stack(list(limit_family.carry(s_index, vec)))

    bound = GronwallBound(M_U=base.bound, M_Q=max(sup_opnorm(q.values) for q in list(Q_seq) + [Q_limit]))
    h = grid.h
    dts = grid.nodes()[s_index:] - grid.nodes()[s_index]
    records = []
    for q_n in Q_seq:
        fam_n = perturb_forward(base, q_n)
        vec_n = np.stack(list(fam_n.carry(s_index, vec)))
        gaps = np.linalg.norm(vec_n - limit_vectors, axis=1)
        drive = np.linalg.norm(
            (q_n.values[s_index:] - Q_limit.values[s_index:]) @ limit_vectors[..., None],
            axis=(1, 2),
        )
        # cumulative trapezoid of the driving integrand
        cum = np.concatenate(([0.0], np.cumsum(0.5 * h * (drive[1:] + drive[:-1]))))
        majorants = bound.majorant(dts, cum)
        sup_majorant = float(majorants.max(initial=0.0))
        used = 1e-10 + 50.0 * h * h * (1.0 + sup_majorant) if slack is None else slack
        records.append(GapRecord(sup_gap=float(gaps.max(initial=0.0)), sup_majorant=sup_majorant,
                                 dominated=bool(np.all(gaps <= majorants + used)), slack=used))
    final_slack = slack if slack is not None else max((r.slack for r in records), default=1e-10)
    return ContinuousDependenceResult(bound=bound, records=records, slack=final_slack)
