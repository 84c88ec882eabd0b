"""Dense matrix primitives: adjoints, definiteness predicates, Loewner order.

All operators are real matrices and the pairing is the Euclidean one, so the
adjoint is the transpose.  Symmetry and nonnegativity predicates use the
relative tolerance tol * (1 + ||M||) so that they behave uniformly on badly
scaled inputs, and eigenvalue queries always go through the symmetrized part
(M + M^T)/2 to avoid being poisoned by roundoff asymmetry.

:func:`sup_opnorm` and :func:`node_opnorms` are the only SVDs of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SymmetryReport",
    "adjoint",
    "is_self_adjoint",
    "is_nonnegative",
    "loewner_leq",
    "op_norm",
    "quadratic_form",
    "symmetry_report",
    "symmetrize",
    "min_eigenvalue",
    "node_opnorms",
    "require_matrix",
    "sup_opnorm",
]


def require_matrix(value, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float array with finite entries, or raise ValueError."""
    mat = np.asarray(value, dtype=float)
    if mat.ndim != 2 or mat.shape[0] < 1 or mat.shape[1] < 1:
        raise ValueError(f"{name} must be a nonempty 2-D matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{name} contains non-finite entries")
    return mat


def _require_square(value, name: str = "matrix") -> np.ndarray:
    mat = require_matrix(value, name)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square, got shape {mat.shape}")
    return mat


def adjoint(mat) -> np.ndarray:
    """Adjoint with respect to the real Euclidean pairing: the transpose."""
    return require_matrix(mat).T.copy()


def op_norm(mat) -> float:
    """Spectral norm (largest singular value)."""
    return float(np.linalg.norm(require_matrix(mat), 2))


def node_opnorms(values: np.ndarray) -> np.ndarray:
    """Spectral norm of every matrix of a stack (zeros(0) for an empty stack)."""
    if values.shape[0] == 0:
        return np.zeros(0)
    return np.linalg.svd(values, compute_uv=False).max(axis=1)


def _opnorm_bounds(stack: np.ndarray) -> np.ndarray:
    """||(A^T A)^8||_F^(1/16) = (sum sigma^32)^(1/32) >= sigma_max(A) for every A of a stack.

    The stack must be scaled into (-1, 1): then nothing overflows for any
    practical size, and a node whose bound underflows has a norm far below
    that of the node holding the largest entry.
    """
    power = np.swapaxes(stack, -1, -2) @ stack
    for _ in range(3):
        power = power @ power
    return np.einsum("nij,nij->n", power, power) ** (1.0 / 32.0)


def sup_opnorm(values) -> float:
    """Max over a stack of matrices of the spectral norm; 0.0 for an empty stack.

    Bitwise equal to ``float(np.linalg.svd(values, compute_uv=False).max(initial=0.0))``,
    but only the nodes whose bound reaches the norm of the node with the largest
    bound are decomposed; LAPACK runs on each matrix on its own, so a node's
    norm is the same in any batch.  Bounds are taken on the stack scaled by a
    power of two (exact, free of under- and overflow), in chunks of at most 512 KiB
    (one node at least) to keep temporaries small.  Non-finite entries take the full SVD.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return 0.0
    stack = values.reshape((-1,) + values.shape[-2:])
    top = float(max(stack.max(), -stack.min()))
    if not math.isfinite(top):
        return float(np.linalg.svd(stack, compute_uv=False).max(initial=0.0))
    if top == 0.0:
        return 0.0
    exponent = math.frexp(top)[1]               # scaled entries in (-1, 1)
    chunks = min(len(stack), -(-stack.nbytes // (512 << 10)))
    bounds = np.concatenate([_opnorm_bounds(np.ldexp(part, -exponent))
                             for part in np.array_split(stack, chunks)])
    k = int(np.argmax(bounds))
    floor = float(np.linalg.svd(stack[k], compute_uv=False).max())
    candidates = bounds * (1.0 + 1e-8) >= math.ldexp(floor, -exponent)
    candidates[k] = False
    rest = np.linalg.svd(stack[candidates], compute_uv=False).max(initial=0.0)
    return max(floor, float(rest))


def symmetrize(values: np.ndarray) -> np.ndarray:
    """(M + M^T)/2, applied to a matrix or a stack of matrices."""
    arr = np.asarray(values, dtype=float)
    return 0.5 * (arr + np.swapaxes(arr, -1, -2))


def min_eigenvalue(mat) -> float:
    """Smallest eigenvalue of the symmetrized matrix."""
    sym = symmetrize(_require_square(mat))
    return float(np.linalg.eigvalsh(sym)[0])


def is_self_adjoint(mat, tol: float = 1e-12) -> bool:
    """True iff ||M - M^T|| <= tol * (1 + ||M||) in spectral norm."""
    square = _require_square(mat)
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    defect = float(np.linalg.norm(square - square.T, 2))
    return defect <= tol * (1.0 + float(np.linalg.norm(square, 2)))


def is_nonnegative(mat, tol: float = 1e-12) -> bool:
    """True iff the symmetrized matrix has min eigenvalue >= -tol * (1 + ||M||).

    Raises ValueError when the input is asymmetric beyond the tolerance; a
    definiteness query on a genuinely non-self-adjoint operator is a usage bug.
    """
    square = _require_square(mat)
    if not is_self_adjoint(square, tol):
        raise ValueError("matrix is not self-adjoint within tolerance")
    bound = tol * (1.0 + float(np.linalg.norm(square, 2)))
    return min_eigenvalue(square) >= -bound


def loewner_leq(a, b, tol: float = 1e-12) -> bool:
    """Loewner order test: A <= B iff B - A is nonnegative (within tol)."""
    mat_a = _require_square(a, "A")
    mat_b = _require_square(b, "B")
    if mat_a.shape != mat_b.shape:
        raise ValueError(f"shape mismatch: {mat_a.shape} vs {mat_b.shape}")
    return is_nonnegative(mat_b - mat_a, tol)


def quadratic_form(mat, x) -> float:
    """The pairing <M x, x>."""
    square = _require_square(mat)
    vec = np.asarray(x, dtype=float).reshape(-1)
    if vec.shape[0] != square.shape[0]:
        raise ValueError(
            f"dimension mismatch: matrix is {square.shape}, vector has length {vec.shape[0]}"
        )
    return float(vec @ square @ vec)


@dataclass(frozen=True)
class SymmetryReport:
    """Outcome of symmetry/nonnegativity queries on one matrix."""

    asymmetry: float
    min_eigenvalue: float
    symmetric: bool
    nonnegative: bool

    def __post_init__(self):
        if self.asymmetry < 0:
            raise ValueError("asymmetry must be nonnegative")


def symmetry_report(mat, tol: float = 1e-12) -> SymmetryReport:
    """Measure asymmetry and the smallest symmetrized eigenvalue of a matrix."""
    square = _require_square(mat)
    norm = float(np.linalg.norm(square, 2))
    asym = float(np.linalg.norm(square - square.T, 2))
    lam = min_eigenvalue(square)
    slack = tol * (1.0 + norm)
    return SymmetryReport(
        asymmetry=asym,
        min_eigenvalue=lam,
        symmetric=asym <= slack,
        nonnegative=(asym <= slack and lam >= -slack),
    )
