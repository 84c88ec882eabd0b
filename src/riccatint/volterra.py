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

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .evolution import EvolutionFamily, OperatorFunction
from .linops import sup_opnorm

_FORMS = ("first", "second")


@dataclass(frozen=True)
class PerturbationSpec:
    """Datum of a perturbed-family equation.

    ``form='first'`` puts the unknown family to the right of Q inside the
    integral, ``form='second'`` to the left.  ``sign`` is the sign of the
    integral term.
    """

    base: EvolutionFamily
    Q: OperatorFunction
    sign: int = 1
    form: str = "first"

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if self.form not in _FORMS:
            raise ValueError(f"form must be one of {_FORMS}, got {self.form!r}")
        rows, cols = self.Q.shape
        if rows != cols or rows != self.base.dim:
            raise ValueError(
                f"Q must be square of dimension {self.base.dim}, got shape {(rows, cols)}"
            )
        if self.Q.grid != self.base.grid:
            raise ValueError("Q must be sampled on the base family's grid")


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


def _perturbed_steps(spec: PerturbationSpec, direction: str) -> np.ndarray:
    base = spec.base
    n = base.dim
    grid = base.grid
    if grid.steps == 0:
        return np.zeros((0, n, n))
    c = 0.5 * spec.sign * grid.h
    eye = np.eye(n)
    q_lo = spec.Q.values[:-1]   # Q at the interval's earlier node
    q_hi = spec.Q.values[1:]    # Q at the later node
    steps = base.steps
    if direction == "forward":
        if spec.form == "first":
            # X = (I - c Q_hi)^-1 S (I + c Q_lo)
            left = _inv_or_report(eye - c * q_hi, "forward/first steps")
            return left @ steps @ (eye + c * q_lo)
        # X = (I + c Q_hi) S (I - c Q_lo)^-1
        right = _inv_or_report(eye - c * q_lo, "forward/second steps")
        return (eye + c * q_hi) @ steps @ right
    if spec.form == "first":
        # X = (I - c Q_lo)^-1 B (I + c Q_hi)
        left = _inv_or_report(eye - c * q_lo, "backward/first steps")
        return left @ steps @ (eye + c * q_hi)
    # X = (I + c Q_lo) B (I - c Q_hi)^-1
    right = _inv_or_report(eye - c * q_hi, "backward/second steps")
    return (eye + c * q_lo) @ steps @ right


def perturb_forward(spec: PerturbationSpec) -> EvolutionFamily:
    """Forward family solving the selected Volterra form over the base family."""
    if spec.base.direction != "forward":
        raise ValueError("perturb_forward needs a forward base family")
    return EvolutionFamily(spec.base.grid, "forward", _perturbed_steps(spec, "forward"))


def perturb_backward(spec: PerturbationSpec) -> EvolutionFamily:
    """Backward analogue of :func:`perturb_forward`."""
    if spec.base.direction != "backward":
        raise ValueError("perturb_backward needs a backward base family")
    return EvolutionFamily(spec.base.grid, "backward", _perturbed_steps(spec, "backward"))


def _pair_sweep_max_diff(fam_a: EvolutionFamily, fam_b: EvolutionFamily,
                         max_starts: int) -> float:
    """Max over sampled grid pairs of ||A_{t,s} - B_{t,s}||."""
    n_steps = fam_a.grid.steps
    if n_steps == 0:
        return 0.0
    starts = sorted(set(np.linspace(0, n_steps - 1, min(max_starts, n_steps)).astype(int)))
    worst = 0.0
    forward = fam_a.direction == "forward"
    for j in starts:
        va = np.eye(fam_a.dim)
        vb = va.copy()
        rng = range(j, n_steps) if forward else range(j - 1, -1, -1)
        diffs = np.empty((len(rng), fam_a.dim, fam_a.dim))
        for d, k in enumerate(rng):
            va = fam_a.steps[k] @ va
            vb = fam_b.steps[k] @ vb
            diffs[d] = va - vb
        worst = max(worst, sup_opnorm(diffs))
    return worst


def cross_form_check(spec: PerturbationSpec, tol: Optional[float] = None, *,
                     max_starts: int = 64) -> float:
    """Max grid-pair discrepancy between the two Volterra forms.

    Both forms discretize the same family to second order, so at a fixed grid
    the discrepancy is O(h^2).  When ``tol`` is given a ValueError is raised
    if it is exceeded.
    """
    solve = perturb_forward if spec.base.direction == "forward" else perturb_backward
    fam_first = solve(PerturbationSpec(spec.base, spec.Q, spec.sign, "first"))
    fam_second = solve(PerturbationSpec(spec.base, spec.Q, spec.sign, "second"))
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
        if self.M_U < 1.0:
            raise ValueError("M_U must be >= 1")
        if self.M_Q < 0.0:
            raise ValueError("M_Q must be >= 0")

    def majorant(self, dt: float, driving_integral: float) -> float:
        if dt < 0:
            raise ValueError("dt must be nonnegative")
        return self.M_U * math.exp(self.M_U * self.M_Q * dt) * driving_integral


@dataclass(frozen=True)
class GapRecord:
    """Per-sequence-member outcome of the continuous-dependence comparison."""

    sup_gap: float
    sup_majorant: float
    dominated: bool


@dataclass(frozen=True)
class ContinuousDependenceResult:
    bound: GronwallBound
    records: List[GapRecord]
    slack: float

    @property
    def all_dominated(self) -> bool:
        return all(r.dominated for r in self.records)


def _family_apply_sweep(family: EvolutionFamily, s_index: int, x: np.ndarray) -> np.ndarray:
    """Vectors Psi_{t_i, t_s} x for i = s..N (forward family)."""
    n_nodes = family.grid.num_nodes
    out = np.empty((n_nodes - s_index, x.shape[0]))
    v = x.copy()
    out[0] = v
    for k in range(s_index, family.grid.steps):
        v = family.steps[k] @ v
        out[k - s_index + 1] = v
    return out


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

    limit_family = perturb_forward(PerturbationSpec(base, Q_limit, 1, "first"))
    limit_vectors = _family_apply_sweep(limit_family, s_index, vec)

    m_u = base.bound
    norms = [q.sup_norm() for q in list(Q_seq) + [Q_limit]]
    m_q = max(norms) if norms else 0.0
    bound = GronwallBound(M_U=max(1.0, m_u), M_Q=m_q)

    h = grid.h
    dts = grid.nodes()[s_index:] - grid.nodes()[s_index]
    records = []
    for q_n in Q_seq:
        fam_n = perturb_forward(PerturbationSpec(base, q_n, 1, "first"))
        vec_n = _family_apply_sweep(fam_n, s_index, vec)
        gaps = np.linalg.norm(vec_n - limit_vectors, axis=1)
        drive = np.linalg.norm(
            (q_n.values[s_index:] - Q_limit.values[s_index:]) @ limit_vectors[..., None],
            axis=(1, 2),
        )
        # cumulative trapezoid of the driving integrand
        cum = np.concatenate(([0.0], np.cumsum(0.5 * h * (drive[1:] + drive[:-1]))))
        majorants = bound.M_U * np.exp(bound.M_U * bound.M_Q * dts) * cum
        if slack is None:
            eff_slack = 1e-10 + 50.0 * h * h * (1.0 + float(majorants.max(initial=0.0)))
        else:
            eff_slack = slack
        dominated = bool(np.all(gaps <= majorants + eff_slack))
        records.append(GapRecord(
            sup_gap=float(gaps.max(initial=0.0)),
            sup_majorant=float(majorants.max(initial=0.0)),
            dominated=dominated,
        ))
    final_slack = slack if slack is not None else 1e-10
    return ContinuousDependenceResult(bound=bound, records=records, slack=final_slack)
