"""Time grids, grid-sampled operator functions, and evolution families.

A two-parameter evolution family is represented by its one-step propagators,
one matrix per grid interval.  Values at arbitrary node pairs are ordered
products of the stored steps, so the composition law U_{t,s} = U_{t,r} U_{r,s}
holds by construction (up to floating-point regrouping) and the family costs
O(N) memory instead of O(N^2).

Generator-driven construction uses the midpoint rule for the single step,
exp(h * A(t_{i+1/2})), which is second order for smooth time-varying
generators and exact for constant ones up to the matrix-exponential routine.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Optional

import numpy as np
import scipy.linalg

from .linops import node_opnorms


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] with nodes t_i = i * T / N."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not np.isfinite(self.horizon) or self.horizon < 0:
            raise ValueError(f"horizon must be a finite nonnegative real, got {self.horizon}")
        if self.horizon == 0.0:
            if self.steps != 0:
                raise ValueError("a zero horizon collapses to a single node; use steps=0")
        elif self.steps < 1:
            raise ValueError("steps must be >= 1 for a positive horizon")

    @property
    def h(self) -> float:
        return 0.0 if self.steps == 0 else self.horizon / self.steps

    @property
    def num_nodes(self) -> int:
        return self.steps + 1

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.num_nodes)

    def midpoints(self) -> np.ndarray:
        nodes = self.nodes()
        return 0.5 * (nodes[:-1] + nodes[1:])


def _freeze(array: np.ndarray) -> np.ndarray:
    out = np.array(array, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class OperatorFunction:
    """Matrix-valued function of time sampled on a grid.

    ``values`` holds one matrix per node.  ``midpoint_values`` is optional and
    only required where an integrator needs samples between nodes (generators
    and the ODE oracle's coefficients).
    """

    grid: TimeGrid
    values: np.ndarray
    midpoint_values: Optional[np.ndarray] = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 3 or vals.shape[0] != self.grid.num_nodes:
            raise ValueError(
                f"values must have shape (num_nodes, rows, cols); got {vals.shape} "
                f"for a grid with {self.grid.num_nodes} nodes"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("operator function has non-finite samples")
        object.__setattr__(self, "values", _freeze(vals))
        if self.midpoint_values is not None:
            mids = np.asarray(self.midpoint_values, dtype=float)
            if mids.shape != (self.grid.steps,) + vals.shape[1:]:
                raise ValueError(
                    f"midpoint_values must have shape {(self.grid.steps,) + vals.shape[1:]}, "
                    f"got {mids.shape}"
                )
            if not np.all(np.isfinite(mids)):
                raise ValueError("operator function has non-finite midpoint samples")
            object.__setattr__(self, "midpoint_values", _freeze(mids))

    @classmethod
    def from_sampler(cls, grid: TimeGrid, sample: Callable[[np.ndarray], np.ndarray],
                     midpoints: bool = True) -> "OperatorFunction":
        """Sample from whole time arrays: ``sample(ts)`` returns one matrix per
        time, so the nodes and the midpoints cost one call each (none for the
        midpoints of a zero-step grid, or without ``midpoints``)."""
        values = sample(grid.nodes())
        if not midpoints:
            return cls(grid, values)
        mids = sample(grid.midpoints()) if grid.steps else np.zeros((0,) + values.shape[1:])
        return cls(grid, values, mids)

    @classmethod
    def from_callable(cls, grid: TimeGrid,
                      fn: Callable[[float], np.ndarray]) -> "OperatorFunction":
        """Sample ``fn(t)``, one time at a time, through :meth:`from_sampler`."""
        return cls.from_sampler(grid, lambda ts: np.stack(
            [np.atleast_2d(np.asarray(fn(t), dtype=float)) for t in ts]))

    @classmethod
    def constant(cls, grid: TimeGrid, mat) -> "OperatorFunction":
        mat = np.atleast_2d(np.asarray(mat, dtype=float))
        return cls.from_sampler(grid, lambda ts: np.broadcast_to(mat, (len(ts),) + mat.shape))

    @classmethod
    def zero(cls, grid: TimeGrid, rows: int, cols: Optional[int] = None) -> "OperatorFunction":
        return cls.constant(grid, np.zeros((rows, rows if cols is None else cols)))

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape[1], self.values.shape[2]


def _certified_product_bound(step_norms: np.ndarray) -> float:
    """Upper bound on sup over grid pairs of ||U_{t,s}||, from the step norms.

    Uses submultiplicativity: ||S_{i-1} ... S_j|| <= prod ||S_k||, maximised
    over contiguous index runs (empty run included, giving the identity's
    norm 1).  This dominates every actual pair norm.
    """
    if step_norms.shape[0] == 0:
        return 1.0
    lognorms = np.log(np.maximum(step_norms, 1e-300))
    best = 0.0
    cur = 0.0
    for v in lognorms:
        cur = max(v, cur + v)
        best = max(best, cur)
    return float(math.exp(best))


@dataclass(frozen=True)
class EvolutionFamily:
    """Two-parameter family of matrices stored by one-step propagators.

    For a forward family ``steps[i]`` maps node i to node i+1; for a backward
    family it maps node i+1 to node i.  ``step_norms`` (the spectral norm of
    each step) and ``bound`` (a certified upper bound on the spectral norm
    over all grid pairs, always >= 1) are computed on first use.  An adjoint
    dual (``adjoint_of`` set) takes both from its forward family, whose
    transposed steps have the same norms.
    """

    grid: TimeGrid
    direction: str
    steps: np.ndarray
    adjoint_of: Optional["EvolutionFamily"] = field(default=None, repr=False)

    def __post_init__(self):
        if self.direction not in ("forward", "backward"):
            raise ValueError(f"direction must be 'forward' or 'backward', got {self.direction!r}")
        steps = np.asarray(self.steps, dtype=float)
        if steps.ndim != 3 or steps.shape[1] != steps.shape[2]:
            raise ValueError(f"steps must be a stack of square matrices, got shape {steps.shape}")
        if steps.shape[0] != self.grid.steps:
            raise ValueError(
                f"expected {self.grid.steps} step propagators, got {steps.shape[0]}"
            )
        if not np.all(np.isfinite(steps)):
            raise ValueError("step propagators contain non-finite entries")
        object.__setattr__(self, "steps", _freeze(steps))

    @cached_property
    def step_norms(self) -> np.ndarray:
        if self.adjoint_of is not None:
            return self.adjoint_of.step_norms
        return _freeze(node_opnorms(self.steps))

    @cached_property
    def bound(self) -> float:
        if self.adjoint_of is not None:
            return self.adjoint_of.bound
        return _certified_product_bound(self.step_norms)

    @property
    def dim(self) -> int:
        return self.steps.shape[1]

    def carry(self, start: int, x: np.ndarray) -> Iterator[np.ndarray]:
        """Yield x, then ``steps[k] @ x`` one step at a time from node ``start``:
        up to node N for a forward family, down to node 0 for a backward one."""
        yield x
        for k in (range(start, self.grid.steps) if self.direction == "forward"
                  else range(start - 1, -1, -1)):
            x = self.steps[k] @ x
            yield x

    def value(self, i: int, j: int) -> np.ndarray:
        """Ordered product of step propagators between nodes i and j.

        Forward families require i >= j (propagation j -> i), backward
        families i <= j (propagation j -> i, backwards in time).
        """
        n_nodes = self.grid.num_nodes
        if not (0 <= i < n_nodes and 0 <= j < n_nodes):
            raise IndexError(f"node indices out of range: ({i}, {j})")
        forward = self.direction == "forward"
        if (j - i if forward else i - j) > 0:
            raise ValueError(f"{self.direction} family requires i {'>=' if forward else '<='} j")
        return next(itertools.islice(self.carry(j, np.eye(self.dim)), abs(i - j), None))


def build_forward_family(generator_samples: OperatorFunction) -> EvolutionFamily:
    """Forward evolution family generated by A(t) via midpoint exponentials."""
    rows, cols = generator_samples.shape
    if rows != cols:
        raise ValueError("generator samples must be square")
    mids = generator_samples.midpoint_values
    if mids is None:
        raise ValueError("generator-driven construction needs midpoint samples")
    grid, h = generator_samples.grid, generator_samples.grid.h
    steps = np.empty((grid.steps, rows, rows))
    nonzero = mids.any(axis=(1, 2))
    steps[~nonzero] = np.eye(rows)
    with np.errstate(over="ignore", invalid="ignore"):  # reported once, below
        for i in np.flatnonzero(nonzero).tolist():
            steps[i] = scipy.linalg.expm(h * mids[i])
    if not np.all(np.isfinite(steps)):
        raise ValueError("a step propagator exp(h A) overflows; refine the grid")
    return EvolutionFamily(grid, "forward", steps)


def adjoint_backward_family(forward: EvolutionFamily) -> EvolutionFamily:
    """The adjoint-dual backward family V_{t,s} = (U_{s,t})^T.

    Transposing each step propagator realises the duality exactly at every
    grid pair, because products of steps transpose in reverse order.
    """
    if forward.direction != "forward":
        raise ValueError("adjoint duality is defined on forward families")
    steps = np.swapaxes(forward.steps, -1, -2)
    return EvolutionFamily(forward.grid, "backward", steps, adjoint_of=forward)
