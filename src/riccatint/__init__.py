"""Finite-dimensional solvers for the backward operator Riccati integral equation
posed on two-parameter evolution families, with certified contraction stepping,
a monotone iteration, a Volterra engine for perturbed families, and an
independent ODE oracle."""

from .evolution import (
    EvolutionFamily,
    OperatorFunction,
    TimeGrid,
    adjoint_backward_family,
    build_forward_family,
    check_semigroup,
    propagate_step,
)
from .linops import (
    SymmetryReport,
    adjoint,
    is_nonnegative,
    is_self_adjoint,
    loewner_leq,
    op_norm,
    quadratic_form,
    symmetry_report,
)
from .lyapunov import (
    LinearIntegralProblem,
    solve_both_perturbed,
    solve_left_perturbed,
    solve_linear_picard,
    solve_right_perturbed,
)
from .oracle import OdeSolveReport, compare, solve_differential_riccati
from .riccati import (
    ContractionParams,
    ConvergenceError,
    HypothesisReport,
    HypothesisViolation,
    IntervalCertificate,
    RiccatiProblem,
    RiccatiSolution,
    check_hypotheses,
    compute_delta,
    flow_consistency,
    monotone_step,
    representation_check_one_sided,
    representation_check_two_sided,
    riccati_residual,
    solve_monotone,
    solve_picard_stepped,
)
from .volterra import (
    ContinuousDependenceResult,
    GronwallBound,
    PerturbationSpec,
    continuous_dependence_gap,
    cross_form_check,
    perturb_backward,
    perturb_forward,
)

__version__ = "0.1.0"

__all__ = [
    "TimeGrid", "OperatorFunction", "EvolutionFamily",
    "propagate_step", "build_forward_family", "adjoint_backward_family",
    "check_semigroup",
    "SymmetryReport", "adjoint", "is_self_adjoint", "is_nonnegative",
    "loewner_leq", "op_norm", "quadratic_form", "symmetry_report",
    "PerturbationSpec", "GronwallBound", "ContinuousDependenceResult",
    "perturb_forward", "perturb_backward", "cross_form_check",
    "continuous_dependence_gap",
    "LinearIntegralProblem", "solve_right_perturbed", "solve_left_perturbed",
    "solve_both_perturbed", "solve_linear_picard",
    "RiccatiProblem", "RiccatiSolution", "HypothesisReport", "HypothesisViolation",
    "ConvergenceError", "ContractionParams", "IntervalCertificate",
    "check_hypotheses", "monotone_step", "solve_monotone", "riccati_residual",
    "flow_consistency", "representation_check_one_sided",
    "representation_check_two_sided", "compute_delta", "solve_picard_stepped",
    "OdeSolveReport", "solve_differential_riccati", "compare",
    "__version__",
]
