"""A fixed reference kernel that measures how fast the host runs right now.

The shared host this benchmark was built on runs identical work at two
speeds, in phases that last from seconds to minutes: a solve takes 1.4 s in
one phase and 2.5 s in the next.  Wall times alone therefore spread by up to
2x between runs of the same code.  The benchmark times this kernel between
every two commands and scales each command's wall time by
``NOMINAL_SECONDS / kernel time``, which reports it in seconds at one fixed
host speed.  The kernel uses only Python, numpy and scipy, never
``riccatint``, so a change to the program moves the scaled times exactly as
it moves the wall times.

The kernel mixes the kinds of work the three commands do: a Python loop of
small dense products and solves, matrix exponentials, batched symmetric
eigenvalue and singular value decompositions, and CSV text round trips.
"""

from __future__ import annotations

import io
import time

import numpy as np
from scipy.linalg import expm   # bound here, so tracing never counts these calls

NOMINAL_SECONDS = 0.03   # kernel time in the host's fast phase
REPEATS = 3              # a reading is the fastest of this many kernel runs

_rng = np.random.default_rng(20190620)
_A8 = _rng.standard_normal((8, 8)) / 8.0
_A32 = _rng.standard_normal((32, 32)) / 32.0
_EYE32 = np.eye(32)
_STACK = _rng.standard_normal((64, 32, 32))
_STACK = _STACK + _STACK.transpose(0, 2, 1)
_TABLE = _rng.standard_normal((400, 16))


def kernel() -> None:
    x = _EYE32
    for _ in range(400):
        x = np.linalg.solve(_A32 @ x + 33.0 * _EYE32, _A32)
    for _ in range(50):
        expm(_A8)
    np.linalg.eigvalsh(_STACK)
    np.linalg.svd(_STACK, compute_uv=False)
    buf = io.StringIO()
    np.savetxt(buf, _TABLE, delimiter=",", fmt="%.17g")
    np.loadtxt(io.StringIO(buf.getvalue()), delimiter=",")


def reading() -> float:
    """Seconds of the fastest of ``REPEATS`` kernel runs."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best
