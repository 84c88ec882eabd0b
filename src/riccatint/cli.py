"""Command-line front end: solve problems from JSON files, check solutions,
run refinement studies, and demonstrate the quadratic-cost interpretation.

Problem files are JSON documents; matrices are row-major nested arrays and
time-dependent coefficients are given as specs ({"kind": "zero" | "constant" |
"polynomial" | "piecewise", ...}).  Solutions are written as CSV (one row per
node: t followed by the n^2 entries of P(t), row-major) next to a JSON
diagnostics document; a large CSV is formatted and parsed from both ends at
once, and the Picard and oracle solvers hand it rows as they finish them (see
``_Meet``).  Exit codes, assigned in ``main`` alone: 0 success, 1 failed
check/assertion, 2 invalid input, 3 non-convergence, 4 hypothesis violation.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import itertools
import json
import math
import mmap
import operator
import os
import signal
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

from . import __version__
from .evolution import EvolutionFamily, OperatorFunction, TimeGrid, build_forward_family
from .linops import sup_opnorm
from .oracle import solve_differential_riccati
from .riccati import (ConvergenceError, HypothesisViolation, RiccatiProblem,
                      RiccatiSolution, _lane, _psi_forward, _require_hypotheses,
                      flow_consistency, representation_check_one_sided,
                      representation_check_two_sided, riccati_residual,
                      solve_monotone, solve_picard_stepped)
from .riccati import check_hypotheses  # bench/test_bench.py reads cli.check_hypotheses

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3
EXIT_HYPOTHESIS = 4

_SPEC_KINDS = ("zero", "constant", "polynomial", "piecewise")
_SOLVERS = ("monotone", "picard", "oracle")
_LQR_PERTURBATIONS = 10     # seeded open-loop controls lqr-demo compares against


def _float_array(data, name: str) -> np.ndarray:
    """``data`` as a float array; a boolean or string entry is refused, not read as a number."""
    values = np.asarray(data, dtype=float)
    entries = [data]
    for _ in range(values.ndim):
        entries = itertools.chain.from_iterable(entries)
    types = set(map(type, entries))
    if types & {bool, str}:
        raise ValueError(f"{name} has {'boolean' if bool in types else 'string'} entries")
    return values


def _as_matrix(data, n: int, name: str, cols: Optional[int] = None) -> np.ndarray:
    mat = _float_array(data, name)
    cols = n if cols is None else cols
    if mat.shape != (n, cols):
        raise ValueError(f"{name} must be a {n}x{cols} matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{name} has non-finite entries")
    return mat


def _b_factor(data, n: int) -> np.ndarray:
    """B_factor as a finite n x m matrix with m >= 1 columns."""
    mat = _float_array(data, "B_factor")
    if mat.ndim != 2 or mat.shape[0] != n or mat.shape[1] < 1:
        raise ValueError(f"B_factor must be a {n}xm matrix with m >= 1, got shape {mat.shape}")
    return _as_matrix(mat, n, "B_factor", cols=mat.shape[1])


def _as_object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(value).__name__}")
    return value


def _field(doc: dict, name: str, parse, default=...):
    """Parse one document field (null counts as absent); any error names it.
    A JSON string is taken as text only: one that ``parse`` reads as a number is refused."""
    value = doc.get(name)
    if value is None:
        if default is ...:
            raise ValueError(f"problem file is missing field {name!r}")
        return default
    try:
        parsed = parse(value)
    except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
        raise ValueError(f"field {name!r}: {exc}") from None
    if isinstance(value, str) and not isinstance(parsed, str):
        raise ValueError(f"field {name!r}: expected a number, got {value!r}")
    return parsed


def _real(value) -> float:
    """``float`` of option text or of a JSON number, refusing a bool."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _safety(value) -> float:
    """Window safety margin of the Picard solver, in (0, 1)."""
    value = _real(value)
    if not 0.0 < value < 1.0:
        raise ValueError(f"safety must lie in (0, 1), got {value!r}")
    return value


def _grids(text: str) -> List[int]:
    grids = [int(g) for g in text.split(",") if g.strip()]
    if min(grids, default=0) < 1:
        raise ValueError(f"grid sizes must be positive, got {text!r}")
    return grids


def _integer(value) -> int:
    """``int`` of option text or of a JSON number, refusing a bool and a
    number that is not integral (2000.0 is 2000, 2000.7 is refused)."""
    number = int(value)
    if isinstance(value, bool) or (isinstance(value, float) and number != value):
        raise ValueError(f"expected an integer, got {value!r}")
    return number


def _positive_int(text) -> int:
    value = _integer(text)
    if value < 1:
        raise ValueError(f"expected a positive integer, got {text!r}")
    return value


def _nonnegative(text) -> float:
    value = _real(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"expected a finite value >= 0, got {text!r}")
    return value


def _reals(text: str) -> List[float]:
    values = [float(v) for v in text.split(",") if v.strip()]
    if not all(map(math.isfinite, values)):
        raise ValueError(f"expected finite reals, got {text!r}")
    return values


def _spec_sampler(spec: dict, n: int, name: str):
    """Validate a coefficient spec; return ``sample(ts)``, one n x n matrix per time."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError(f"{name} spec must be an object with a 'kind' field")
    kind = spec["kind"]
    if kind == "zero":
        return lambda ts: np.zeros((len(ts), n, n))
    if kind == "constant":
        mat = _as_matrix(spec.get("matrix"), n, f"{name}.matrix")
        return lambda ts: np.broadcast_to(mat, (len(ts), n, n))
    if kind == "polynomial":
        coeffs = [_as_matrix(c, n, f"{name}.coefficients[{k}]")
                  for k, c in enumerate(spec.get("coefficients", []))]
        if not coeffs:
            raise ValueError(f"{name} polynomial needs at least one coefficient")

        def poly(ts, coeffs=coeffs):
            acc = np.zeros((len(ts), n, n))
            tk = np.ones(len(ts))
            for c in coeffs:      # lowest degree first
                acc += tk[:, None, None] * c
                tk = tk * ts
            return acc

        return poly
    if kind == "piecewise":
        times = _float_array(spec.get("times", []), f"{name}.times")
        mats = [_as_matrix(m, n, f"{name}.matrices[{k}]")
                for k, m in enumerate(spec.get("matrices", []))]
        if times.ndim != 1 or len(times) != len(mats) or len(mats) == 0:
            raise ValueError(f"{name} piecewise needs matching times and matrices")
        if not np.isfinite(times).all():
            raise ValueError(f"{name} piecewise times must be finite")
        if times[0] != 0.0 or np.any(np.diff(times) <= 0):
            raise ValueError(f"{name} piecewise times must start at 0 and increase")

        def piecewise(ts, times=times, mats=np.stack(mats)):
            j = np.searchsorted(times, ts, side="right") - 1
            return mats[np.clip(j, 0, len(mats) - 1)]

        return piecewise
    raise ValueError(f"{name} spec kind must be one of {_SPEC_KINDS}, got {kind!r}")


def _propagator_table(table, steps: int, n: int) -> np.ndarray:
    steps_arr = _float_array(_as_object(table, "propagators").get("steps"), "propagators.steps")
    if steps_arr.shape != (steps, n, n):
        raise ValueError(f"propagators.steps must have shape {(steps, n, n)}, "
                         f"got {steps_arr.shape}")
    return steps_arr


def _tolerances(table) -> dict:
    table = _as_object(table, "tolerances")
    return {key: _field(table, key, kind)
            for key, kind in (("tol_abs", _nonnegative), ("tol_rel", _nonnegative),
                              ("max_iter", _positive_int))
            if key in table}


@dataclass
class ProblemFile:
    """Parsed problem document; see the README for the format reference.
    Each coefficient spec is kept as the ``sample(ts)`` that parsing it gave."""

    dimension: int
    horizon: float
    steps: int
    c_sampler: Callable
    b_sampler: Callable
    g: np.ndarray
    generator: Optional[Callable] = None
    propagators: Optional[np.ndarray] = None
    tolerances: Optional[dict] = None
    solver: str = "monotone"
    safety: float = 0.5
    b_factor: Optional[np.ndarray] = None

    @classmethod
    def from_dict(cls, doc: dict) -> "ProblemFile":
        _as_object(doc, "a problem file")
        n = _field(doc, "dimension", _integer)
        if n < 1:
            raise ValueError("dimension must be >= 1")
        steps = _field(doc, "steps", _integer)
        generator = _field(doc, "generator", lambda spec: _spec_sampler(spec, n, "generator"),
                           None)
        propagators = _field(doc, "propagators",
                             lambda table: _propagator_table(table, steps, n), None)
        if (generator is None) == (propagators is None):
            raise ValueError("exactly one of 'generator' or 'propagators' is required")
        solver = _field(doc, "solver", str, "monotone")
        if solver not in _SOLVERS:
            raise ValueError(f"solver must be one of {_SOLVERS}, got {solver!r}")
        return cls(
            dimension=n, horizon=_field(doc, "horizon", _real), steps=steps,
            c_sampler=_field(doc, "C", lambda spec: _spec_sampler(spec, n, "C")),
            b_sampler=_field(doc, "B", lambda spec: _spec_sampler(spec, n, "B")),
            g=_field(doc, "G", lambda mat: _as_matrix(mat, n, "G")),
            generator=generator, propagators=propagators,
            tolerances=_field(doc, "tolerances", _tolerances, None),
            solver=solver, safety=_field(doc, "safety", _safety, 0.5),
            b_factor=_field(doc, "B_factor", lambda mat: _b_factor(mat, n), None))

    @classmethod
    def from_path(cls, path) -> "ProblemFile":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def build(self, steps: Optional[int] = None, midpoints: bool = True
              ) -> tuple[RiccatiProblem, Optional[OperatorFunction]]:
        """Instantiate the problem, optionally overriding the grid resolution.
        Only with ``midpoints`` are B and C sampled at the step midpoints and the
        sampled generator kept: the RK4 integrators read them, nothing else."""
        grid = TimeGrid(self.horizon, self.steps if steps is None else steps)
        c_fun = OperatorFunction.from_sampler(grid, self.c_sampler, midpoints)
        b_fun = OperatorFunction.from_sampler(grid, self.b_sampler, midpoints)
        generator = None
        if self.generator is not None:
            generator = OperatorFunction.from_sampler(grid, self.generator)
            u_fwd = build_forward_family(generator)
        else:
            u_fwd = EvolutionFamily(grid, "forward", self.propagators)
        return RiccatiProblem.symmetric(u_fwd, c_fun, b_fun, self.g), \
            generator if midpoints else None


def _csv_header(n_rows: int, n_cols: int) -> str:
    return "t," + ",".join(f"p{r}_{c}" for r in range(n_rows) for c in range(n_cols))


def _mirror_columns(n: int) -> tuple[list, list]:
    """For a CSV row of ``t`` and an n x n block in row-major order: the
    columns of ``t`` and the block's upper triangle (diagonal included), and
    for every column of the row the position in that list of the column that
    holds the same entry when the block is symmetric."""
    upper = [0] + [1 + i * n + j for i in range(n) for j in range(i, n)]
    slot = {col: k for k, col in enumerate(upper)}
    return upper, [0] + [slot[1 + min(i, j) * n + max(i, j)]
                         for i in range(n) for j in range(n)]


_FORK_ENTRIES = 1 << 16     # rows x (1 + n^2) from which a child works a CSV's rows too


class _Meet:
    """A CSV's ``rows`` x ``width`` table of P entries, worked from both ends by
    ``work(table, lo, hi)`` (rows lo..hi; returns their bytes, ``spare`` in all at
    most, or None).  From ``_FORK_ENTRIES`` entries (rows x (1 + width)), if
    ``os.fork`` exists and two CPUs are usable, the first :meth:`publish` forks a
    child that works the published rows from the last one down while :meth:`meet`
    works up from row 0: the sides meet wherever they meet.  The table and the
    child's bytes (stacked at the end) share one anonymous ``mmap``; the frontier
    reaches the child through a pipe, so it reads no row before the write that
    finished it.  Its lowest finished row is only a hint of where to stop: its
    bytes are read once it is reaped, and the rows it left (at a row ``work``
    refuses with ``ValueError``, or on a failure) are done here.  It imports
    nothing, runs no BLAS or LAPACK (see the README), writes no file and ends in
    ``os._exit``."""

    def __init__(self, rows: int, width: int, work, spare: int = 0):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
            else os.cpu_count() or 1
        self.forks = rows * (1 + width) >= _FORK_ENTRIES and hasattr(os, "fork") and cpus > 1
        self.rows, self.work, self.chunk = rows, work, max(1, (_FORK_ENTRIES >> 6) // (1 + width))
        self.shared = mmap.mmap(-1, 24 + 8 * rows * width + spare)
        self.head = np.frombuffer(self.shared, np.int64, 3)    # child's last row, stop, bytes
        self.head[:] = rows, 0, len(self.shared)
        self.table = np.frombuffer(self.shared, float, rows * width, 24).reshape(rows, width)
        self.sent, self.pid, self.pipe = rows, -1, -1

    def close(self, stop: int = signal.SIGKILL) -> int:
        """Stop (signal 0: after its chunk) and reap the child; its lowest row, or rows."""
        if self.pid > 0:
            os.kill(self.pid, stop)
            self.head[1] = 1
            if os.waitpid(self.pid, 0)[1]:
                self.head[:] = self.rows, 1, len(self.shared)
            os.close(self.pipe)
            self.pid = self.pipe = -1
        return int(self.head[0])

    def publish(self, values: Optional[np.ndarray], lo: int) -> None:
        """The solver hook: rows ``lo`` on of ``values`` (None: of the table) are
        final.  A call that adds less than a chunk above row 0 waits for the next."""
        if lo >= self.sent or lo and self.sent - lo < self.chunk:
            return
        if values is not None and (self.forks or self.pid > 0):     # the child alone reads them
            self.table[lo:self.sent] = values[lo:self.sent].reshape(self.sent - lo, -1)
            page = (24 + self.table[:lo].nbytes) // mmap.PAGESIZE * mmap.PAGESIZE
            self.shared.madvise(mmap.MADV_DONTNEED, page, 24 + self.table[:self.sent].nbytes - page)
        self.sent = lo = int(lo)
        if self.pid > 0:
            with contextlib.suppress(BrokenPipeError):     # a dead child is met as failed
                os.write(self.pipe, lo.to_bytes(8, "little"))
        elif self.forks:
            self.forks, (frontier, self.pipe) = False, os.pipe()
            try:
                with warnings.catch_warnings():   # Python >= 3.12 warns of BLAS threads
                    warnings.filterwarnings("ignore", ".*fork", DeprecationWarning)
                    self.pid = os.fork()
            except OSError:
                os.close(self.pipe)
                self.pid = self.pipe = -1
            if self.pid == 0:
                try:
                    os.close(self.pipe)
                    self._child(frontier)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(frontier)

    def _child(self, frontier: int) -> None:
        lo, end, published = self.rows, len(self.shared), self.sent
        while lo and not self.head[1]:
            if lo <= published:     # wait for rows; the last frontier sent is the lowest
                if not (sent := os.read(frontier, 1 << 16)):
                    return
                published = int.from_bytes(sent[-8:], "little")
                continue
            below = max(published, lo - self.chunk)
            try:
                out = self.work(self.table, below, lo)
            except ValueError:      # the caller reaches this row and raises
                return
            if out:
                self.shared[end - len(out):end] = out
                end = self.head[2] = end - len(out)
            lo = self.head[0] = below

    def meet(self, table: np.ndarray, sink) -> None:
        """Hand ``sink`` what ``work`` makes of ``table`` (shared, or a copy) from row 0
        up until it meets the child, which it then reaps, and of the rows it left; then
        the child's bytes past the lines made here too, freeing each slice once handed."""
        mine, theirs = 0, self.rows
        while mine < theirs or self.pid > 0:
            if self.pid > 0 and mine >= self.head[0]:
                theirs = self.close(0)
            else:
                sink(self.work(table, mine, min(mine + self.chunk, theirs)))
                mine = min(mine + self.chunk, theirs)
        if (start := int(self.head[2])) < len(self.shared):
            for _ in range(mine - theirs):
                start = self.shared.find(b"\n", start) + 1
            for page in range(start - start % mmap.PAGESIZE, len(self.shared), 1 << 16):
                sink(memoryview(self.shared)[max(page, start):page + (1 << 16)])
                self.shared.madvise(getattr(mmap, "MADV_REMOVE", mmap.MADV_DONTNEED), page, 1 << 16)


def _solution_rows(grid: TimeGrid, shape: tuple[int, int]) -> _Meet:
    """The :class:`_Meet` formatting a solution's CSV lines at ``repr`` precision.
    A node whose block is bitwise symmetric formats its upper triangle only and
    copies the text to the mirrored entries: the same bytes for half the calls."""
    nodes, (n_rows, n_cols) = grid.nodes(), shape
    square, (upper, mirror) = n_rows == n_cols > 1, _mirror_columns(n_rows)
    upper, mirrored = np.array(upper[1:]) - 1, operator.itemgetter(*mirror)

    def text(table, lo, hi):    # 25 bytes an entry at most: a float64's longest repr, a comma
        block, symmetric = table[lo:hi], [False] * (hi - lo)
        if square:      # bits, not floats: -0.0 against 0.0 or two NaN payloads are unequal
            bits = block.view(np.int64).reshape(-1, n_rows, n_cols)
            symmetric = (bits == np.swapaxes(bits, 1, 2)).all(axis=(1, 2)).tolist()
        return "".join(",".join(mirrored([repr(t), *map(repr, row[upper].tolist())]) if sym
                                else map(repr, [t, *row.tolist()])) + "\n"
                       for t, row, sym in zip(nodes[lo:hi].tolist(), block, symmetric)).encode()

    return _Meet(grid.num_nodes, n_rows * n_cols, text, 25 * grid.num_nodes * (1 + n_rows * n_cols))


def write_solution_csv(path, grid: TimeGrid, values: np.ndarray, rows: Optional[_Meet] = None):
    """Row-major CSV of ``values``, formatted on ``rows`` (see :func:`_solution_rows`;
    opened here if not given): this process streams its lines to the file and
    appends the child's, dropping the lines both formatted."""
    if rows is None:
        with contextlib.closing(_solution_rows(grid, values.shape[1:])) as rows:
            return write_solution_csv(path, grid, values, rows)
    rows.publish(values, 0)
    with open(path, "wb") as fh:
        fh.write((_csv_header(*values.shape[1:]) + "\n").encode())
        rows.meet(values.reshape(grid.num_nodes, -1), fh.write)


def read_solution_csv(path, grid: TimeGrid, n: int) -> OperatorFunction:
    """Parse a CSV that ``write_solution_csv`` wrote, on a :class:`_Meet` whose
    child parses from the last row down and stops at a bad row.  A row whose
    mirrored tokens are equal strings parses its upper triangle only, where its
    first bad token in row-major order lies: the errors are those of the serial parse."""
    text = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not text:
        raise ValueError("solution file is empty")
    if text[0] != _csv_header(n, n):
        raise ValueError(f"solution header does not match the {n}x{n} header "
                         "'t,p0_0,...' that solve writes")
    if len(text) != grid.num_nodes + 1:
        raise ValueError(
            f"solution has {len(text) - 1} rows, expected {grid.num_nodes}")
    upper, mirror = _mirror_columns(n)
    upper_tokens, mirrored = operator.itemgetter(*upper), operator.itemgetter(*mirror)
    nodes = grid.nodes()

    def parse(table, lo, hi):
        half, symmetric = np.empty((hi - lo, len(upper))), np.zeros(hi - lo, dtype=bool)
        for i in range(lo, hi):
            parts = text[i + 1].split(",")
            if len(parts) != 1 + n * n:
                raise ValueError(f"row {i} has {len(parts)} columns, expected {1 + n * n}")
            t = float(parts[0])
            if not abs(t - nodes[i]) <= 1e-12 * (1.0 + abs(nodes[i])):    # nan fails too
                raise ValueError(f"row {i} has t={t}, expected {nodes[i]}")
            # p0_1 against p1_0 first: a non-symmetric row is told at once
            if n > 1 and parts[2] == parts[n + 1] and \
                    mirrored(upper_tokens(parts)) == tuple(parts):
                symmetric[i - lo] = True
                half[i - lo] = list(map(float, upper_tokens(parts)))
            else:
                table[i] = list(map(float, parts[1:]))
        table[lo:hi][symmetric] = half[symmetric][:, mirror[1:]]

    with contextlib.closing(_Meet(grid.num_nodes, n * n, parse)) as meet:
        meet.publish(None, 0)
        meet.meet(meet.table, lambda _: None)
    return OperatorFunction(grid, meet.table.reshape(-1, n, n))


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _solution_diagnostics(solution: RiccatiSolution) -> dict:
    diag = {
        "iterations": solution.iterations,
        "sup_differences": solution.sup_differences,
        "residual": solution.residual,
    }
    if solution.invariant_report:
        diag["invariants"] = [
            {k: v for k, v in dataclasses.asdict(rec).items() if v is not None}
            for rec in solution.invariant_report
        ]
    if solution.intervals is not None:
        certificate_keys = ("start_index", "end_index", "iterations", "final_update",
                            "sup_iterate_norm")
        params_keys = ("rho", "delta", "contraction_lhs")
        diag["intervals"] = [
            {**{key: getattr(c, key) for key in certificate_keys},
             **{key: getattr(c.params, key) for key in params_keys}}
            for c in solution.intervals]
    return diag


def _settings(pfile: ProblemFile, **overrides) -> dict:
    """Solver settings: explicit overrides, else the document, else defaults."""
    settings = {"tol_abs": 1e-10, "tol_rel": 1e-8, "max_iter": 50,
                **(pfile.tolerances or {}), "safety": pfile.safety}
    settings.update((key, value) for key, value in overrides.items() if value is not None)
    return settings


def _residual_threshold(grid: TimeGrid, p_fun: OperatorFunction) -> float:
    """The residual gate of ``check``, and of every solve."""
    return max(1e-9, 25.0 * grid.h * grid.h * (1.0 + sup_opnorm(p_fun.values)))


def _run_solver(solver: str, problem: RiccatiProblem,
                generator: Optional[OperatorFunction], tol_abs: float,
                tol_rel: float, max_iter: int, safety: float, publish=None) -> RiccatiSolution:
    """The one dispatch over the monotone, Picard and oracle solvers, and the one
    residual gate: a solution whose residual exceeds the gate of ``check``
    raises.  A monotone or Picard solver then stopped on its tolerances before
    convergence; the oracle's RK4 steps were too coarse for the problem.  The
    monotone solver does not take ``publish``."""
    if solver == "oracle":
        if generator is None:
            raise ValueError("the oracle solver needs a generator-driven problem")
        p_oracle = solve_differential_riccati(generator, problem.B, problem.C, problem.G,
                                              publish=publish)
        solution = RiccatiSolution(P=p_oracle, sup_differences=[],
                                   residual=riccati_residual(p_oracle, problem))
    elif solver == "monotone":
        solution = solve_monotone(problem, tol_abs=tol_abs, tol_rel=tol_rel, max_iter=max_iter)
    else:
        solution = solve_picard_stepped(problem, tol_abs=tol_abs, tol_rel=tol_rel,
                                        max_iter=max_iter, safety=safety, publish=publish)
    limit = _residual_threshold(problem.grid, solution.P)
    if not solution.residual <= limit:
        gap = f"residual {solution.residual:.3e} > {limit:.3e}"
        raise ConvergenceError(f"oracle {gap}; refine the grid" if solver == "oracle"
                               else f"stopped before convergence: {gap}")
    return solution


def cmd_solve(problem_path, out_dir, tol_abs: Optional[float] = None,
              tol_rel: Optional[float] = None, max_iter: Optional[int] = None,
              safety: Optional[float] = None, solver: Optional[str] = None) -> int:
    """Solve the problem file and write CSV + JSON outputs into out_dir."""
    pfile = ProblemFile.from_path(problem_path)
    chosen = solver if solver is not None else pfile.solver
    problem, generator = pfile.build(midpoints=chosen == "oracle")
    symmetric = problem.symmetric_mode      # the one hypothesis check, off the timer
    settings = _settings(pfile, tol_abs=tol_abs, tol_rel=tol_rel, max_iter=max_iter,
                         safety=safety)
    start = time.perf_counter()
    with contextlib.closing(_solution_rows(problem.grid, (pfile.dimension,) * 2)) as rows:
        solution = _run_solver(chosen, problem, generator, **settings, publish=rows.publish)
        wall = time.perf_counter() - start
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        stem = Path(problem_path).stem
        csv_path = out / f"{stem}_P.csv"
        json_path = out / f"{stem}_run.json"
        write_solution_csv(csv_path, problem.grid, solution.P.values, rows)
    record = {
        "solver": chosen,
        "version": __version__,
        "problem_sha256": _sha256(problem_path),
        "wall_time_s": wall,
        "symmetric_mode": symmetric,
        "dimension": pfile.dimension,
        "grid": {"horizon": problem.grid.horizon, "steps": problem.grid.steps},
        "tolerances": settings,
        "outputs": {"solution_csv": str(csv_path)},
        "diagnostics": _solution_diagnostics(solution),
    }
    json_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                         encoding="utf-8")
    print(f"solved with {chosen}: residual={solution.residual:.3e} "
          f"iterations={solution.iterations} -> {csv_path}")
    return EXIT_OK


def cmd_check(problem_path, solution_path, threshold: Optional[float] = None,
              flow_pairs: int = 100) -> int:
    """Residual checks of a stored solution against its problem file.  The flow
    gate runs on ``riccati._lane`` while this thread runs the other three in
    order, building the -BP family both representation gates read once; the
    output, and the error raised first, are the serial order's."""
    pfile = ProblemFile.from_path(problem_path)
    problem, _ = pfile.build(midpoints=False)
    p_fun = read_solution_csv(solution_path, problem.grid, pfile.dimension)
    limit = threshold if threshold is not None else _residual_threshold(problem.grid, p_fun)

    pairs = np.random.default_rng(20240).integers(
        0, problem.grid.num_nodes, size=(flow_pairs, 2))
    with _lane(pfile.dimension) as lane:
        flow = lane.submit(flow_consistency, p_fun, problem, pairs.min(1), pairs.max(1))
        try:
            residual = riccati_residual(p_fun, problem)
            psi_fwd = _psi_forward(problem, p_fun.values)
            checks = {
                "riccati_residual": residual,
                "flow_consistency_max": flow,      # its value once the lane is done
                "representation_one_sided": representation_check_one_sided(
                    p_fun, problem, psi_forward=psi_fwd),
                "representation_two_sided": representation_check_two_sided(
                    p_fun, problem, psi_forward=psi_fwd),
            }
        finally:        # an error of the flow gate, first in serial order, wins
            flow.result()
    checks["flow_consistency_max"] = float(flow.result().max())
    ok = True
    for name, value in checks.items():
        passed = value <= limit
        ok = ok and passed
        print(f"{name} {value:.6e} (threshold {limit:.6e}) "
              f"{'PASS' if passed else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_study(problem_path, grids: List[int], solver: Optional[str] = None) -> int:
    """Refinement study: solver error against the finest-grid oracle."""
    pfile = ProblemFile.from_path(problem_path)
    grids = sorted(set(int(g) for g in grids))
    if len(grids) < 3:
        raise ValueError("a study needs at least 3 distinct grid sizes")
    finest = grids[-1]
    for g in grids:
        if finest % g != 0:
            raise ValueError(f"grid size {g} must divide the finest size {finest}")
    if pfile.generator is None:
        raise ValueError("studies need a generator-driven problem (oracle reference)")

    chosen = solver if solver is not None else pfile.solver
    settings = _settings(pfile)
    reference = _run_solver("oracle", *pfile.build(steps=finest), **settings).P
    rows = []
    for n_steps in grids:
        problem, generator = pfile.build(steps=n_steps, midpoints=chosen == "oracle")
        values = _run_solver(chosen, problem, generator, **settings).P.values
        stride = finest // n_steps
        err = sup_opnorm(values - reference.values[::stride])
        rows.append((n_steps, problem.grid.h, err))

    print(f"{'N':>8} {'h':>12} {'sup_error':>14}")
    for n_steps, h, err in rows:
        print(f"{n_steps:>8} {h:>12.6e} {err:>14.6e}")
    errs = np.array([max(r[2], 1e-300) for r in rows[:-1]])
    hs = np.array([r[1] for r in rows[:-1]])
    order = float(np.polyfit(np.log(hs), np.log(errs), 1)[0]) if len(errs) >= 2 else float("nan")
    print(f"fitted order: {order:.3f}")
    return EXIT_OK


def _simulate_lqr(generator: OperatorFunction, c_fun: OperatorFunction,
                  g_mat: np.ndarray, bu: np.ndarray, grid: TimeGrid, x0: np.ndarray,
                  p_values: Optional[np.ndarray] = None,
                  u_nodes: Optional[np.ndarray] = None,
                  u_mids: Optional[np.ndarray] = None):
    """Forward RK4 of the state and running cost; closed loop when P is given.

    Returns (total cost, state trajectory at nodes).
    """
    h = grid.h
    a_n, a_m = generator.values, generator.midpoint_values
    c_n, c_m = c_fun.values, c_fun.midpoint_values
    if p_values is not None:    # closed loop: the stage data is P, the control -B_u^T P x
        v_n, v_m = p_values, 0.5 * (p_values[:-1] + p_values[1:])
    else:                       # open loop: the stage data is the control
        v_n, v_m = u_nodes, u_mids

    def rhs(a_t, c_t, v_t, x):
        u = -bu.T @ v_t @ x if p_values is not None else v_t
        dx = a_t @ x + bu @ u
        dj = float(x @ c_t @ x + u @ u)
        return dx, dj

    x = np.asarray(x0, dtype=float).copy()
    cost = 0.0
    states = np.empty((grid.num_nodes, x.shape[0]))
    states[0] = x
    for i in range(grid.steps):
        dx1, dj1 = rhs(a_n[i], c_n[i], v_n[i], x)
        dx2, dj2 = rhs(a_m[i], c_m[i], v_m[i], x + 0.5 * h * dx1)
        dx3, dj3 = rhs(a_m[i], c_m[i], v_m[i], x + 0.5 * h * dx2)
        dx4, dj4 = rhs(a_n[i + 1], c_n[i + 1], v_n[i + 1], x + h * dx3)
        x = x + (h / 6.0) * (dx1 + 2 * dx2 + 2 * dx3 + dx4)
        cost += (h / 6.0) * (dj1 + 2 * dj2 + 2 * dj3 + dj4)
        states[i + 1] = x
    cost += float(x @ g_mat @ x)
    return cost, states


def cmd_lqr_demo(problem_path, x0: List[float], tol: Optional[float] = None) -> int:
    """Closed-loop cost check: realized cost matches <P(0) x0, x0> and no
    sampled perturbed control does better."""
    pfile = ProblemFile.from_path(problem_path)
    if pfile.b_factor is None:
        raise ValueError("lqr-demo needs a B_factor with B = B_factor @ B_factor^T")
    problem, generator = pfile.build()
    if generator is None:
        raise ValueError("lqr-demo needs a generator-driven problem")
    _require_hypotheses(problem)
    bu = pfile.b_factor
    mismatch = float(np.abs(problem.B.values - (bu @ bu.T)[None]).max())
    if mismatch > 1e-10 * (1.0 + float(np.abs(problem.B.values).max())):
        raise ValueError(
            f"B_factor does not factor B(t) on the grid (defect {mismatch:.3e}); "
            "the demo needs a constant factored B")
    x_init = np.asarray(x0, dtype=float)
    if x_init.shape != (pfile.dimension,):
        raise ValueError(f"x0 must have length {pfile.dimension}")

    solution = _run_solver("monotone", problem, generator, **_settings(pfile))
    with np.errstate(over="ignore", invalid="ignore"):  # reported once, below
        predicted = float(x_init @ solution.P.values[0] @ x_init)
        cost, states = _simulate_lqr(generator, problem.C, problem.G, bu, problem.grid,
                                     x_init, p_values=solution.P.values)
        eff_tol = tol if tol is not None else 1e-4 * (1.0 + abs(predicted))

        # open-loop replay data for the perturbations
        p_mid = 0.5 * (solution.P.values[:-1] + solution.P.values[1:])
        x_mid = 0.5 * (states[:-1] + states[1:])
        u_nodes = -(solution.P.values @ bu).transpose(0, 2, 1) @ states[..., None]
        u_nodes = u_nodes[..., 0]
        u_mids = -(p_mid @ bu).transpose(0, 2, 1) @ x_mid[..., None]
        u_mids = u_mids[..., 0]

        nodes_t = problem.grid.nodes()
        mids_t = problem.grid.midpoints() if problem.grid.steps else np.zeros(0)
        horizon = max(problem.grid.horizon, 1e-300)
        u_scale = max(1.0, float(np.abs(u_nodes).max()))
        perturbed_costs = []
        for j in range(_LQR_PERTURBATIONS):
            rng = np.random.default_rng(1000 + j)
            amps = 0.1 * u_scale * rng.standard_normal((3, bu.shape[1]))
            phases = rng.uniform(0, 2 * np.pi, size=3)

            def wave(ts):
                out = np.zeros((len(ts), bu.shape[1]))
                for k in range(3):
                    out += (np.sin((k + 1) * np.pi * ts / horizon + phases[k])[:, None]
                            * amps[k])
                return out

            cost_j, _ = _simulate_lqr(
                generator, problem.C, problem.G, bu, problem.grid, x_init,
                u_nodes=u_nodes + wave(nodes_t), u_mids=u_mids + wave(mids_t))
            perturbed_costs.append(cost_j)
    if not np.isfinite([predicted, cost] + perturbed_costs).all():
        raise ValueError("the quadratic cost overflows; scale --x0 down")

    gap = abs(cost - predicted)
    worst = min(perturbed_costs) - cost
    report = {
        "predicted_cost": predicted,
        "realized_cost": cost,
        "absolute_gap": gap,
        "tolerance": eff_tol,
        "perturbed_costs": perturbed_costs,
        "min_perturbed_margin": worst,
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    if gap > eff_tol:
        print(f"FAIL: realized cost deviates from <P(0)x0, x0> by {gap:.3e}",
              file=sys.stderr)
        return EXIT_CHECK_FAILED
    if any(c < cost - eff_tol for c in perturbed_costs):
        print("FAIL: a perturbed control undercut the feedback cost", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Argument errors raise ValueError, so ``main`` maps them like any input."""

    def error(self, message):
        raise ValueError(message)


def _option(parse):
    """argparse type that keeps the message of the parser's ValueError."""
    def convert(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="riccatint",
        description="Backward Riccati integral equation solver toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("problem", help="path to the JSON problem file")

    p_solve = sub.add_parser("solve", help="solve a problem file")
    add_common(p_solve)
    p_solve.add_argument("--out", default=".", help="output directory")
    p_solve.add_argument("--tol-abs", type=_option(_nonnegative), default=None)
    p_solve.add_argument("--tol-rel", type=_option(_nonnegative), default=None)
    p_solve.add_argument("--max-iter", type=_option(_positive_int), default=None)
    p_solve.add_argument("--safety", type=_option(_safety), default=None)
    p_solve.add_argument("--solver", choices=_SOLVERS, default=None)
    p_solve.set_defaults(run=lambda a: cmd_solve(
        a.problem, a.out, tol_abs=a.tol_abs, tol_rel=a.tol_rel,
        max_iter=a.max_iter, safety=a.safety, solver=a.solver))

    p_oracle = sub.add_parser("oracle", help="run the ODE oracle on a problem file")
    add_common(p_oracle)
    p_oracle.add_argument("--out", default=".", help="output directory")
    p_oracle.set_defaults(run=lambda a: cmd_solve(a.problem, a.out, solver="oracle"))

    p_check = sub.add_parser("check", help="verify a stored solution")
    add_common(p_check)
    p_check.add_argument("solution", help="path to the solution CSV")
    p_check.add_argument("--threshold", type=_option(_nonnegative), default=None,
                         help="residual threshold (default: 25 h^2 (1 + sup||P||))")
    p_check.add_argument("--flow-pairs", type=_option(_positive_int), default=100)
    p_check.set_defaults(run=lambda a: cmd_check(
        a.problem, a.solution, threshold=a.threshold, flow_pairs=a.flow_pairs))

    p_study = sub.add_parser("study", help="grid refinement study")
    add_common(p_study)
    p_study.add_argument("--grids", required=True, type=_option(_grids),
                         help="comma-separated grid sizes, e.g. 250,500,1000,2000")
    p_study.add_argument("--solver", choices=_SOLVERS, default=None)
    p_study.set_defaults(run=lambda a: cmd_study(a.problem, a.grids, solver=a.solver))

    p_demo = sub.add_parser("lqr-demo", help="closed-loop quadratic cost check")
    add_common(p_demo)
    p_demo.add_argument("--x0", required=True, type=_option(_reals),
                        help="comma-separated initial state")
    p_demo.add_argument("--tol", type=_option(_nonnegative), default=None)
    p_demo.set_defaults(run=lambda a: cmd_lqr_demo(a.problem, a.x0, tol=a.tol))
    return parser


def main(argv=None) -> int:
    """Run one command; the only place where exceptions become exit codes."""
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except HypothesisViolation as exc:       # a ValueError, so it comes first
        code, message = EXIT_HYPOTHESIS, \
            f"hypothesis violation ({exc.kind} at node {exc.node})"
    except RuntimeError as exc:              # ConvergenceError included
        code, message = EXIT_NO_CONVERGENCE, str(exc)
    except (OSError, ValueError) as exc:     # json.JSONDecodeError included
        code, message = EXIT_INVALID, str(exc)
    except MemoryError as exc:
        code, message = EXIT_INVALID, \
            f"out of memory: {exc}; reduce steps, dimension or --flow-pairs"
    print("error: " + " ".join(message.split()), file=sys.stderr)
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
