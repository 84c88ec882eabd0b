"""Dense matrix primitives: spectral norms, definiteness predicates, quadratic forms.

All operators are real matrices and the pairing is the Euclidean one, so the
adjoint is the transpose.  Symmetry and nonnegativity predicates use the
relative tolerance tol * (1 + ||M||) so that they behave uniformly on badly
scaled inputs, and eigenvalue queries always go through the symmetrized part
(M + M^T)/2 to avoid being poisoned by roundoff asymmetry.

:func:`sup_opnorm` and :func:`node_opnorms` are the only SVDs of the package.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np


def _require_square(value, name: str = "matrix") -> np.ndarray:
    """Coerce to a square 2-D float array with finite entries, or raise ValueError."""
    mat = np.asarray(value, dtype=float)
    if mat.ndim != 2 or mat.shape[0] < 1 or mat.shape[1] < 1:
        raise ValueError(f"{name} must be a nonempty 2-D matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{name} contains non-finite entries")
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square, got shape {mat.shape}")
    return mat


def node_opnorms(values: np.ndarray) -> np.ndarray:
    """Spectral norm of every matrix of a stack (zeros(0) for an empty stack)."""
    if values.shape[0] == 0:
        return np.zeros(0)
    return np.linalg.svd(values, compute_uv=False).max(axis=1)


def first_defect(a: np.ndarray, b: np.ndarray, scale: Callable[[np.ndarray], np.ndarray | float],
                 tol: float) -> Optional[int]:
    """First node k of two equal stacks with ||a[k] - b[k]|| > tol * scale(part), or None.

    ``scale`` maps an index array ``part`` to the scales of those nodes (or to
    one scale for all).  A node where a and b are equal passes without LAPACK;
    only the others are decomposed, each with the norm it has in any batch.
    The first of them goes alone, as a defective stack usually fails there, and
    ``scale`` is evaluated on the decomposed nodes only.  A NaN or negative
    ``tol``, which would pass every node or fail an equal one, is refused.
    """
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    undecided = np.flatnonzero((a != b).any(axis=(1, 2)))
    for part in (undecided[:1], undecided[1:]):
        if part.size:
            failed = part[node_opnorms(a[part] - b[part]) > tol * scale(part)]
            if failed.size:
                return int(failed[0])
    return None


def _opnorm_bounds(stack: np.ndarray) -> np.ndarray:
    """||(A^T A)^8||_F^(1/16) = (sum sigma^32)^(1/32) >= sigma_max(A) for every A of a stack.

    The stack must be scaled into (-1, 1): then nothing overflows for any
    practical size, and a node whose bound underflows has a norm far below
    that of the node holding the largest entry.
    """
    # a contiguous copy of the transposes: a strided left operand multiplies ~4x slower
    power = np.ascontiguousarray(np.swapaxes(stack, -1, -2)) @ stack
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


def is_nonnegative(mat, tol: float = 1e-12) -> bool:
    """True iff the symmetrized matrix has min eigenvalue >= -tol * (1 + ||M||).

    Raises ValueError when ||M - M^T|| exceeds the same bound (a definiteness
    query on a genuinely non-self-adjoint operator is a usage bug) or when
    ``tol`` is negative or NaN.
    """
    square = _require_square(mat)
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    bound = tol * (1.0 + sup_opnorm(square))
    if not sup_opnorm(square - square.T) <= bound:
        raise ValueError("matrix is not self-adjoint within tolerance")
    return float(np.linalg.eigvalsh(symmetrize(square))[0]) >= -bound


def quadratic_form(mat, x) -> float:
    """The pairing <M x, x>."""
    square = _require_square(mat)
    vec = np.asarray(x, dtype=float).reshape(-1)
    if vec.shape[0] != square.shape[0]:
        raise ValueError(
            f"dimension mismatch: matrix is {square.shape}, vector has length {vec.shape[0]}"
        )
    return float(vec @ square @ vec)
