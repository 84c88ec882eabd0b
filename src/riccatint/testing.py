"""Problem factories shared by the test suite and quick experiments.

The random symmetric problems are deliberately moderate in scale (operator
norms below one, strictly positive definite B, C, G) so that closed-form and
cross-solver comparisons run in the regime the solvers certify.
"""

from __future__ import annotations

import numpy as np

from .evolution import OperatorFunction, TimeGrid, build_forward_family
from .linops import sup_opnorm
from .riccati import RiccatiProblem


def _scaled_random(rng: np.random.Generator, n: int) -> np.ndarray:
    mat = rng.standard_normal((n, n))
    return mat / max(1.0, sup_opnorm(mat))


def _psd_profile(rng: np.random.Generator, n: int, floor: float = 0.3) -> np.ndarray:
    mat = rng.standard_normal((n, n))
    psd = mat @ mat.T
    psd /= max(1.0, sup_opnorm(psd))
    return psd + floor * np.eye(n)


def random_symmetric_problem(seed: int, n: int, steps: int, horizon: float = 1.0,
                             ) -> tuple[RiccatiProblem, OperatorFunction]:
    """Smooth time-varying problem satisfying the symmetric-setting hypotheses.

    Returns the problem together with the generator samples (which the ODE
    oracle needs).  All data are reproducible from the seed alone.
    """
    rng = np.random.default_rng(seed)
    grid = TimeGrid(horizon, steps)
    a0 = 0.25 * _scaled_random(rng, n)
    a1 = 0.15 * _scaled_random(rng, n)
    b0 = 0.35 * _psd_profile(rng, n)
    b1 = 0.15 * _psd_profile(rng, n)
    c0 = 0.35 * _psd_profile(rng, n)
    c1 = 0.15 * _psd_profile(rng, n)
    g = 0.45 * _psd_profile(rng, n, floor=0.25)
    g = 0.5 * (g + g.T)

    def a_fn(t):
        return a0 + np.sin(np.pi * t / horizon) * a1

    def b_fn(t):
        return b0 + (np.sin(np.pi * t / horizon) ** 2) * b1

    def c_fn(t):
        return c0 + (np.cos(np.pi * t / horizon) ** 2) * c1

    generator = OperatorFunction.from_callable(grid, a_fn)
    b_fun = OperatorFunction.from_callable(grid, b_fn)
    c_fun = OperatorFunction.from_callable(grid, c_fn)
    u_fwd = build_forward_family(generator)
    problem = RiccatiProblem.symmetric(u_fwd, c_fun, b_fun, g)
    return problem, generator


def tanh_problem(steps: int, horizon: float = 1.0
                 ) -> tuple[RiccatiProblem, OperatorFunction]:
    """Scalar problem A=0, B=1, C=1, G=0 with solution p(t) = tanh(T - t)."""
    grid = TimeGrid(horizon, steps)
    generator = OperatorFunction.zero(grid, 1)
    ones = OperatorFunction.constant(grid, [[1.0]])
    problem = RiccatiProblem.symmetric(build_forward_family(generator), ones, ones,
                                       np.zeros((1, 1)))
    return problem, generator


def inverse_linear_problem(steps: int, horizon: float = 1.0
                           ) -> tuple[RiccatiProblem, OperatorFunction]:
    """Scalar problem A=0, B=1, C=0, G=1 with solution p(t) = 1 / (1 + T - t)."""
    grid = TimeGrid(horizon, steps)
    generator = OperatorFunction.zero(grid, 1)
    one = OperatorFunction.constant(grid, [[1.0]])
    zero = OperatorFunction.constant(grid, [[0.0]])
    problem = RiccatiProblem.symmetric(build_forward_family(generator), zero, one,
                                       np.ones((1, 1)))
    return problem, generator
