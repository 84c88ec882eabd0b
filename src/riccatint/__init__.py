"""Finite-dimensional solvers for the backward operator Riccati integral equation
posed on two-parameter evolution families, with certified contraction stepping,
a monotone iteration, a Volterra engine for perturbed families, and an
independent ODE oracle.

This list is the package's one declaration of its public API; every other
helper is imported from its module.
"""

from .evolution import (EvolutionFamily, OperatorFunction, TimeGrid,
                        adjoint_backward_family, build_forward_family)
from .lyapunov import LinearIntegralProblem, solve_linear
from .oracle import solve_differential_riccati
from .riccati import (ContractionParams, ConvergenceError, HypothesisViolation,
                      RiccatiProblem, check_hypotheses, compute_delta,
                      flow_consistency, representation_check_one_sided,
                      representation_check_two_sided, riccati_residual,
                      solve_monotone, solve_picard_stepped)
from .volterra import (GronwallBound, continuous_dependence_gap, cross_form_check,
                       perturb_backward, perturb_forward)

__version__ = "0.1.0"

__all__ = [
    "TimeGrid", "OperatorFunction", "EvolutionFamily",
    "build_forward_family", "adjoint_backward_family", "GronwallBound",
    "perturb_forward", "perturb_backward", "cross_form_check",
    "continuous_dependence_gap",
    "LinearIntegralProblem", "solve_linear",
    "RiccatiProblem", "HypothesisViolation", "ConvergenceError", "ContractionParams",
    "check_hypotheses", "solve_monotone", "riccati_residual",
    "flow_consistency", "representation_check_one_sided",
    "representation_check_two_sided", "compute_delta", "solve_picard_stepped",
    "solve_differential_riccati", "__version__",
]
