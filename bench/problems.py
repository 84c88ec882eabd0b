"""Seeded problem files for the benchmark workloads.

Every file is a function of (workload, seed, index) alone, so the same seed
gives byte-identical inputs.  Coefficients are polynomial specs with the
scaling of ``riccatint.testing.random_symmetric_problem``: operator norms
below one and strictly positive definite B and G, which keeps both solvers in
the regime they certify.  The program under test sees only the JSON files.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    dimension: int
    steps: int
    symmetric: bool       # False: C is not symmetric, only Picard applies
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload("mono-narrow-long", 2, 4000, True,
                 "n=2, N=4000: the per-node Python loop of the implicit march "
                 "dominates solve, the 100 flow-consistency marches dominate check"),
        Workload("mono-wide-short", 32, 500, True,
                 "n=32, N=500: dense per-node linear algebra, full-stack "
                 "bookkeeping decompositions and an 11 MB CSV dominate"),
        Workload("picard-general", 8, 2000, False,
                 "n=8, N=2000, non-symmetric C: only certified Picard windows "
                 "of explicit marches run, no implicit march or bookkeeping"),
    )
}


def _scaled_random(rng: np.random.Generator, n: int) -> np.ndarray:
    mat = rng.standard_normal((n, n))
    return mat / max(1.0, float(np.linalg.norm(mat, 2)))


def _psd_profile(rng: np.random.Generator, n: int, floor: float = 0.3) -> np.ndarray:
    mat = rng.standard_normal((n, n))
    psd = mat @ mat.T
    psd /= max(1.0, float(np.linalg.norm(psd, 2)))
    psd = 0.5 * (psd + psd.T)
    return psd + floor * np.eye(n)


def _poly(*coeffs: np.ndarray) -> dict:
    return {"kind": "polynomial", "coefficients": [c.tolist() for c in coeffs]}


def problem_doc(workload: Workload, seed: int, index: int,
                steps: Optional[int] = None) -> dict:
    """Problem document number ``index`` of ``workload`` under ``seed``.

    A(t) = A0 + A1 t, B(t) = B0 + B1 t^2 and C(t) = C0 + C1 (1 - t^2) on
    [0, 1]: B and C stay positive semidefinite over the horizon.  On the
    general workload C0 gets a non-symmetric part, so the hypothesis check
    fails and the file asks for the Picard solver.
    """
    key = zlib.crc32(workload.name.encode("utf-8"))
    rng = np.random.default_rng([key, seed, index])
    n = workload.dimension
    zero = np.zeros((n, n))
    a0 = 0.25 * _scaled_random(rng, n)
    a1 = 0.15 * _scaled_random(rng, n)
    b0 = 0.35 * _psd_profile(rng, n)
    b1 = 0.15 * _psd_profile(rng, n)
    c0 = 0.35 * _psd_profile(rng, n)
    c1 = 0.15 * _psd_profile(rng, n)
    g = 0.45 * _psd_profile(rng, n, floor=0.25)
    if not workload.symmetric:
        c0 = c0 + 0.15 * _scaled_random(rng, n)
    return {
        "dimension": n,
        "horizon": 1.0,
        "steps": workload.steps if steps is None else steps,
        "generator": _poly(a0, a1),
        "B": _poly(b0, zero, b1),
        "C": _poly(c0 + c1, zero, -c1),
        "G": g.tolist(),
        "solver": "monotone" if workload.symmetric else "picard",
    }


def write_problem(path, workload: Workload, seed: int, index: int,
                  steps: Optional[int] = None) -> Path:
    path = Path(path)
    doc = problem_doc(workload, seed, index, steps)
    path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
    return path
