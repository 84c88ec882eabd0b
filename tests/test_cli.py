import contextlib
import copy
import io
import json
import math
import os
import signal
import threading
import time
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riccatint.cli
import riccatint.riccati
from riccatint.cli import (EXIT_CHECK_FAILED, EXIT_HYPOTHESIS, EXIT_INVALID,
                           EXIT_NO_CONVERGENCE, EXIT_OK, ProblemFile, _spec_sampler,
                           cmd_check, cmd_lqr_demo, cmd_solve, cmd_study, main,
                           read_solution_csv, write_solution_csv)
from riccatint.evolution import OperatorFunction, TimeGrid
from riccatint.linops import symmetrize

from conftest import (flow_consistency_blocked, read_solution_csv_reference,
                      sample_per_time, spec_callable_reference,
                      write_solution_csv_reference)


def tanh_doc(steps=2000, **overrides):
    doc = {
        "dimension": 1,
        "horizon": 1.0,
        "steps": steps,
        "generator": {"kind": "zero"},
        "C": {"kind": "constant", "matrix": [[1.0]]},
        "B": {"kind": "constant", "matrix": [[1.0]]},
        "G": [[0.0]],
        "solver": "monotone",
        "B_factor": [[1.0]],
    }
    doc.update(overrides)
    return doc


def write_doc(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_problem_file_validation(tmp_path):
    with pytest.raises(ValueError):
        ProblemFile.from_dict({"dimension": 1})  # missing fields
    bad = tanh_doc()
    bad["C"] = {"kind": "mystery"}
    with pytest.raises(ValueError):
        ProblemFile.from_dict(bad)
    both = tanh_doc(propagators={"steps": [[[1.0]]]})
    with pytest.raises(ValueError):
        ProblemFile.from_dict(both)
    for name, doc in (("steps", tanh_doc(steps=2000.7)), ("steps", tanh_doc(steps=False)),
                      ("dimension", tanh_doc(dimension=1.9)),
                      ("max_iter", tanh_doc(tolerances={"max_iter": 2.9}))):
        with pytest.raises(ValueError, match=f"field '{name}': expected an integer"):
            ProblemFile.from_dict(doc)
    for name, doc in (("horizon", tanh_doc(horizon=True)), ("safety", tanh_doc(safety=False)),
                      ("tol_abs", tanh_doc(tolerances={"tol_abs": True})),
                      ("tol_rel", tanh_doc(tolerances={"tol_rel": True}))):
        with pytest.raises(ValueError, match=f"field '{name}': expected a number, got"):
            ProblemFile.from_dict(doc)
    for name, doc in (("G", tanh_doc(G=[[False]])),
                      ("C.matrix", tanh_doc(C={"kind": "constant", "matrix": [[True]]})),
                      ("B_factor", tanh_doc(B_factor=[[True]])),
                      ("C.times", tanh_doc(C={"kind": "piecewise", "times": [False],
                                              "matrices": [[[1.0]]]})),
                      ("propagators.steps", _without_generator(
                          steps=1, propagators={"steps": [[[True]]]}))):
        with pytest.raises(ValueError, match=f"{name} has boolean entries"):
            ProblemFile.from_dict(doc)
    for t1 in (math.nan, math.inf):
        with pytest.raises(ValueError, match="C piecewise times must be finite"):
            ProblemFile.from_dict(tanh_doc(C=_piecewise_c(t1)))
    integral = ProblemFile.from_dict(tanh_doc(steps=10.0, dimension=1.0,
                                              tolerances={"max_iter": 3.0}))
    assert (integral.steps, integral.dimension, integral.tolerances["max_iter"]) == (10, 1, 3)
    assert type(integral.steps) is int and type(integral.tolerances["max_iter"]) is int


def test_coefficient_spec_kinds():
    doc = tanh_doc(
        steps=4,
        generator={"kind": "polynomial", "coefficients": [[[0.0]], [[1.0]]]},
        C={"kind": "piecewise", "times": [0.0, 0.5], "matrices": [[[1.0]], [[2.0]]]},
    )
    problem, gen = ProblemFile.from_dict(doc).build()
    assert np.allclose(gen.values[:, 0, 0], [0.0, 0.25, 0.5, 0.75, 1.0])  # A(t) = t
    assert np.allclose(problem.C.values[:, 0, 0], [1.0, 1.0, 2.0, 2.0, 2.0])


def _random_specs(n, rng):
    mats = [rng.standard_normal((n, n)).tolist() for _ in range(4)]
    return [
        {"kind": "zero"},
        {"kind": "constant", "matrix": mats[0]},
        {"kind": "polynomial", "coefficients": mats},
        {"kind": "piecewise", "times": [0.0, 0.25, 0.5, 0.875], "matrices": mats},
    ]


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("grid", [TimeGrid(1.0, 8), TimeGrid(2.7, 41), TimeGrid(0.0, 0)],
                         ids=["breakpoint-nodes", "past-last-time", "zero-horizon"])
def test_spec_sampler_equals_per_time_calls(n, grid):
    for spec in _random_specs(n, np.random.default_rng(n)):
        fun = OperatorFunction.from_sampler(grid, _spec_sampler(spec, n, "C"))
        values, mids = sample_per_time(grid, spec_callable_reference(spec, n))
        assert np.array_equal(fun.values, values)
        assert np.array_equal(fun.midpoint_values, mids)
        # on the piecewise breakpoints themselves, before 0 and past the last time
        ts = np.array([-0.5, 0.0, 0.25, 0.5, 0.875, 0.9, 3.0])
        ref = spec_callable_reference(spec, n)
        assert np.array_equal(_spec_sampler(spec, n, "C")(ts), np.stack([ref(t) for t in ts]))


def test_cmd_solve_tanh(tmp_path):
    path = write_doc(tmp_path / "tanh.json", tanh_doc())
    out = tmp_path / "out"
    assert cmd_solve(path, out) == EXIT_OK
    rows = (out / "tanh_P.csv").read_text().strip().splitlines()
    assert rows[0] == "t,p0_0"
    first = rows[1].split(",")
    assert float(first[0]) == 0.0
    assert abs(float(first[1]) - math.tanh(1.0)) < 1e-6
    record = json.loads((out / "tanh_run.json").read_text())
    assert record["solver"] == "monotone"
    assert record["symmetric_mode"] is True
    assert record["diagnostics"]["residual"] < 1e-12


def test_cmd_solve_zero_problem(tmp_path):
    doc = tanh_doc(steps=50, C={"kind": "zero"}, G=[[0.0]])
    path = write_doc(tmp_path / "zero.json", doc)
    out = tmp_path / "out"
    assert cmd_solve(path, out) == EXIT_OK
    rows = (out / "zero_P.csv").read_text().strip().splitlines()[1:]
    assert all(float(r.split(",")[1]) == 0.0 for r in rows)


def test_cmd_solve_hypothesis_gate(tmp_path):
    doc = {
        "dimension": 2,
        "horizon": 1.0,
        "steps": 20,
        "generator": {"kind": "zero"},
        "C": {"kind": "constant", "matrix": [[1.0, 2.0], [2.0, 1.0]]},  # indefinite
        "B": {"kind": "constant", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
        "G": [[0.0, 0.0], [0.0, 0.0]],
        "solver": "monotone",
    }
    path = write_doc(tmp_path / "bad.json", doc)
    assert main(["solve", path, "--out", str(tmp_path / "out")]) == EXIT_HYPOTHESIS
    # the general solver still accepts it
    assert cmd_solve(path, tmp_path / "out2", solver="picard") == EXIT_OK


def test_cmd_solve_invalid_input(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["solve", str(missing), "--out", str(tmp_path)]) == EXIT_INVALID
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json", encoding="utf-8")
    assert main(["solve", str(garbled), "--out", str(tmp_path)]) == EXIT_INVALID


def test_cmd_solve_deterministic(tmp_path):
    path = write_doc(tmp_path / "tanh.json", tanh_doc(steps=400))
    assert cmd_solve(path, tmp_path / "a") == EXIT_OK
    assert cmd_solve(path, tmp_path / "b") == EXIT_OK
    assert (tmp_path / "a" / "tanh_P.csv").read_bytes() \
        == (tmp_path / "b" / "tanh_P.csv").read_bytes()


def test_csv_round_trip(tmp_path):
    grid = TimeGrid(1.0, 7)
    values = np.random.default_rng(5).standard_normal((8, 2, 2))
    write_solution_csv(tmp_path / "p.csv", grid, values)
    back = read_solution_csv(tmp_path / "p.csv", grid, 2)
    assert np.array_equal(back.values, values)
    text = (tmp_path / "p.csv").read_text(encoding="utf-8")
    (tmp_path / "p.csv").write_text(text.replace("p1_0", "p1_x", 1), encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        read_solution_csv(tmp_path / "p.csv", grid, 2)
    (tmp_path / "p.csv").write_text(" \n", encoding="utf-8")
    with pytest.raises(ValueError, match="empty"):
        read_solution_csv(tmp_path / "p.csv", grid, 2)

    # the first fault in row order is the one reported; in a row, the time first
    rows = text.splitlines()
    faults = [
        ({3: "0.5,0,0,0,0", 6: "1,2"}, r"row 2 has t=0.5, expected 0.2857"),
        ({3: "0.5,0,0,0,0", 7: "y,0,0,0,0"}, r"row 2 has t=0.5, expected 0.2857"),
        ({3: "0.5,x,0,0,0"}, r"row 2 has t=0.5, expected 0.2857"),
        ({4: "0.4285714285714285,x,0,0,0", 6: "0.5,0,0,0,0"}, "could not convert"),
        ({6: "1,2"}, "row 5 has 2 columns, expected 5"),
        ({7: "y,0,0,0,0"}, "could not convert"),
        ({8: "2.0,0,0,0,0"}, r"row 7 has t=2.0, expected 1.0"),
        # a bad token in the lower triangle only, in both mirrors, and in the
        # lower triangle of the row after a symmetric one
        ({4: "0.4285714285714285,1,2,x,3"}, "could not convert string to float: 'x'"),
        ({4: "0.4285714285714285,1,x,x,3"}, "could not convert string to float: 'x'"),
        ({4: "0.4285714285714285,1,2,2,3", 5: "0.5714285714285714,1,2,z,3"},
         "could not convert string to float: 'z'"),
        ({4: "0.4285714285714285,1,2,2,3", 5: "0.5714285714285714,1,2,2"},
         "row 4 has 4 columns, expected 5"),
    ]
    for edits, message in faults:
        bad = [edits.get(k, row) for k, row in enumerate(rows)]
        (tmp_path / "p.csv").write_text("\n".join(bad) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=message) as got:
            read_solution_csv(tmp_path / "p.csv", grid, 2)
        with pytest.raises(ValueError) as want:
            read_solution_csv_reference(tmp_path / "p.csv", grid, 2)
        assert str(got.value) == str(want.value)

    # two bad tokens in a string-symmetric 3x3 row: the first in row-major
    # order (p0_2 = a, before p1_1 = b) is the one reported
    header = "t," + ",".join(f"p{r}_{c}" for r in range(3) for c in range(3))
    (tmp_path / "p.csv").write_text(f"{header}\n0.0,1,2,a,2,b,3,a,3,4\n", encoding="utf-8")
    with pytest.raises(ValueError, match="could not convert string to float: 'a'"):
        read_solution_csv(tmp_path / "p.csv", TimeGrid(0.0, 0), 3)


_CSV_SPECIALS = (0.0, -0.0, 1.0, -2.5e-300, 1e300, math.nan, math.inf, -math.inf)


@st.composite
def _solution_stacks(draw):
    """Node stacks mixing bitwise symmetric blocks (special values mirrored),
    non-symmetric ones, and symmetric ones but for one mirrored pair of 0.0
    and -0.0 or of two NaN payloads."""
    n = draw(st.sampled_from([1, 2, 3, 8, 32]))
    steps = draw(st.integers(0, 4 if n == 32 else 12))
    kinds = draw(st.lists(st.sampled_from(["symmetric", "general", "signed-zero",
                                           "nan-payload"]),
                          min_size=steps + 1, max_size=steps + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    share = draw(st.sampled_from([0.0, 0.1, 0.5]))
    pool = _CSV_SPECIALS[:draw(st.sampled_from([2, 5, 8]))]   # finite ones first
    values = _mixed_values(rng, n, kinds, share, pool)
    respell = draw(st.booleans())
    return TimeGrid(float(steps) / 4.0, steps), values, respell


def _mixed_values(rng, n, kinds, share, pool):
    """One n x n node per kind: "symmetric" (bitwise), "general", or symmetric
    but for one mirrored pair of 0.0 and -0.0 ("signed-zero") or of two NaN
    payloads ("nan-payload"); a ``share`` of the entries drawn from ``pool``."""
    scales = 10.0 ** rng.integers(-5, 6, (len(kinds), 1, 1))
    values = rng.standard_normal((len(kinds), n, n)) * scales
    specials = rng.random(values.shape) < share
    values[specials] = rng.choice(pool, size=int(specials.sum()))
    upper = np.triu_indices(n, 1)
    for node, kind in zip(values, kinds):
        if kind != "general":
            node[upper[1], upper[0]] = node[upper]      # bitwise mirror
        if kind in ("signed-zero", "nan-payload") and n > 1:
            i, j = sorted(rng.choice(n, size=2, replace=False))
            pair = (0.0, -0.0) if kind == "signed-zero" else \
                np.array([0x7FF8000000000000, 0x7FF8000000000001]).view(float)
            node[i, j], node[j, i] = pair[::rng.choice([1, -1])]
    return values


@given(_solution_stacks())
def test_solution_csv_matches_row_by_row_reference(tmp_path_factory, stack):
    grid, values, respell = stack
    root = tmp_path_factory.mktemp("csv")
    n = values.shape[1]
    write_solution_csv(root / "new.csv", grid, values)
    write_solution_csv_reference(root / "ref.csv", grid, values)
    text = (root / "ref.csv").read_text(encoding="utf-8")
    assert (root / "new.csv").read_text(encoding="utf-8") == text
    if respell:     # one lower token of every row spelled another way, same float
        lines = text.splitlines()
        col = 1 + (n - 1) * n
        for k in range(1, len(lines)):
            parts = lines[k].split(",")
            parts[col] = f" {parts[col]}"
            lines[k] = ",".join(parts)
        text = "\n".join(lines) + "\n"
    path = root / "p.csv"
    path.write_text(text, encoding="utf-8")
    if np.isfinite(values).all():
        got = read_solution_csv(path, grid, n).values
        want = read_solution_csv_reference(path, grid, n).values
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    else:           # a solution holds finite samples only: the same error
        with pytest.raises(ValueError) as got:
            read_solution_csv(path, grid, n)
        with pytest.raises(ValueError) as want:
            read_solution_csv_reference(path, grid, n)
        assert str(got.value) == str(want.value)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _counted_forks(monkeypatch, child=None):
    """Record the pid of every ``os.fork`` of the CSV layer.  In each child,
    ``child()`` runs first: it ends the process or returns to let the child
    go on (an error in it exits 3, so no copy of the test run goes on)."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid == 0 and child is not None:
            try:
                child()
            except BaseException:
                os._exit(3)
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def _two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _split_table(n, above=True, kinds=("symmetric", "general", "signed-zero", "nan-payload")):
    """A grid and a stack of mixed nodes with just as many entries
    rows x (1 + n^2) as reach the split rule, or one row fewer."""
    rows = -(-riccatint.cli._FORK_ENTRIES // (1 + n * n)) - (not above)
    values = _mixed_values(np.random.default_rng(0), n,
                           [kinds[k % len(kinds)] for k in range(rows)], 0.05, _CSV_SPECIALS[:5])
    return TimeGrid(1.0, rows - 1), values


def _assert_like_reference(root, grid, values):
    """The CSV written, and the floats or the error read back, are the
    row-by-row reference's, and no child process is left."""
    n = values.shape[1]
    write_solution_csv(root / "new.csv", grid, values)
    _no_child_left()
    write_solution_csv_reference(root / "ref.csv", grid, values)
    assert (root / "new.csv").read_bytes() == (root / "ref.csv").read_bytes()
    _assert_read_like_reference(root / "ref.csv", grid, n)


def _assert_read_like_reference(path, grid, n):
    try:
        want = read_solution_csv_reference(path, grid, n).values
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            read_solution_csv(path, grid, n)
        assert str(got.value) == str(exc)
    else:
        got = read_solution_csv(path, grid, n).values
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    _no_child_left()


@pytest.mark.parametrize("above", [False, True], ids=["below-rule", "at-rule"])
@pytest.mark.parametrize("n", [1, 8, 32])
def test_split_csv_matches_row_by_row_reference(tmp_path, monkeypatch, n, above):
    """Tables just below and at 2^16 entries: the writer's bytes and the
    reader's bits are the reference's, forking once per call only at the rule.
    Non-finite nodes make the read fail as the reference's does, so a finite
    copy of the stack is read too."""
    _two_cpus(monkeypatch)
    pids = _counted_forks(monkeypatch)
    grid, values = _split_table(n, above)
    _assert_like_reference(tmp_path, grid, values)
    finite = tmp_path / "finite"
    finite.mkdir()
    _assert_like_reference(finite, grid, np.where(np.isnan(values), -0.0, values))
    assert len(pids) == (4 if above else 0)


def _exit_status_plus_5():
    real = os._exit
    os._exit = lambda code: real(code + 5)


def _exit_0_after_one_chunk():
    """Let the child finish one chunk of its rows, then end it with status 0."""
    real = riccatint.cli._Meet._child

    def child(self, frontier):
        work = self.work

        def once(*args):
            self.work = lambda *args: os._exit(0)
            return work(*args)

        self.work = once
        real(self, frontier)

    riccatint.cli._Meet._child = child


@pytest.mark.parametrize("child", [
    lambda: os._exit(1),
    lambda: os.kill(os.getpid(), signal.SIGKILL),
    lambda: os._exit(0),
    _exit_0_after_one_chunk,
    _exit_status_plus_5,
], ids=["exits-1", "killed", "exits-0-sending-nothing", "exits-0-after-one-chunk",
        "sends-all-then-exits-5"])
def test_failed_csv_child_leaves_the_serial_result(tmp_path, monkeypatch, child):
    """A child that fails or stops early leaves this process to do the rows it
    did not finish: the same bytes, bits and errors as the reference, and no
    child is left behind.  A child that did all its rows but exits non-zero
    is failed too: its text and floats are not read."""
    _two_cpus(monkeypatch)
    pids = _counted_forks(monkeypatch, child)
    grid, values = _split_table(8, kinds=("symmetric", "general", "signed-zero"))
    _assert_like_reference(tmp_path, grid, values)
    lines = (tmp_path / "ref.csv").read_text(encoding="utf-8").splitlines()
    lines[-2] = lines[-2].replace(",", ",x", 1)
    (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _assert_read_like_reference(tmp_path / "bad.csv", grid, 8)
    assert len(pids) == 3


def _wait_for_hint(meet, row):
    deadline = time.monotonic() + 30.0
    while meet.head[0] != row:
        assert time.monotonic() < deadline, f"the child's rows never reached {row}"
        time.sleep(0.001)


@pytest.mark.parametrize("meeting", ["child-does-none", "child-does-all-but-row-0",
                                     "middle", "child-does-all"])
def test_meeting_row_anywhere_writes_the_reference_bytes(tmp_path, monkeypatch, meeting):
    """The child is stopped at a chosen row through the stop flag (it sees it
    at the next frontier): at the last row, at row 1, at the middle row, or
    not at all.  This process then formats up from row 0 a chunk at a time,
    past the child's row but for the stop at the last row, and the writer drops
    the lines both formatted: the bytes are the reference's, and the child's
    lowest row is the chosen one."""
    _two_cpus(monkeypatch)
    pids = _counted_forks(monkeypatch)
    grid, values = _split_table(8)
    rows = grid.num_nodes
    row = {"child-does-none": rows, "child-does-all-but-row-0": 1,
           "middle": rows // 2, "child-does-all": 0}[meeting]
    meet = riccatint.cli._solution_rows(grid, (8, 8))
    with contextlib.closing(meet):
        if row < rows:
            meet.publish(values, row)
            _wait_for_hint(meet, row)
        meet.head[1] = row > 0
        mine, work = [], meet.work
        meet.work = lambda table, lo, hi: mine.append(hi - lo) or work(table, lo, hi)
        write_solution_csv(tmp_path / "new.csv", grid, values, meet)
        assert meet.head[0] == row and len(pids) == 1
        assert sum(mine) == min(-(-row // meet.chunk) * meet.chunk, rows)   # past the child's
    _no_child_left()
    write_solution_csv_reference(tmp_path / "ref.csv", grid, values)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("bad_rows", [[-1], [1, -1], [1]],
                         ids=["child-half", "both-halves", "own-half"])
def test_split_read_reports_the_first_bad_row(tmp_path, monkeypatch, bad_rows):
    """Bad tokens in the child's rows, in this process's rows or in both are
    reported as the row-by-row reference reports them: the first in row order.
    The child stops at a bad row, and this process parses up to it."""
    _two_cpus(monkeypatch)
    grid, values = _split_table(8, kinds=("symmetric", "general"))
    write_solution_csv(tmp_path / "p.csv", grid, values)
    lines = (tmp_path / "p.csv").read_text(encoding="utf-8").splitlines()
    for row in bad_rows:
        k = row + 1 if row >= 0 else len(lines) + row
        parts = lines[k].split(",")
        parts[3 + k % 5] = f"bad{k}"
        lines[k] = ",".join(parts)
    (tmp_path / "p.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _assert_read_like_reference(tmp_path / "p.csv", grid, 8)


@pytest.mark.parametrize("state", ["waiting-for-rows", "still-working"])
def test_meet_kills_and_reaps_its_child_on_an_interrupt(monkeypatch, state):
    """An interrupt in this process, while the child waits for rows the solver
    has not finished or is still working, kills the child before reaping it:
    the call ends at once and leaves no child."""
    _two_cpus(monkeypatch)
    parent = os.getpid()

    def work(table, lo, hi):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        if state == "still-working":
            time.sleep(60)
        return b"x"

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        with contextlib.closing(riccatint.cli._Meet(1 << 16, 1, work, 1 << 16)) as meet:
            if state == "waiting-for-rows":
                meet.publish(np.zeros(1 << 16), (1 << 16) - meet.chunk)
                _wait_for_hint(meet, (1 << 16) - meet.chunk)
                raise KeyboardInterrupt
            meet.publish(None, 0)
            meet.meet(meet.table, lambda out: None)
    assert time.monotonic() - start < 30.0
    _no_child_left()


def _streamed_doc(solver, steps=1100, **overrides):
    """An 8 x 8 problem whose CSV (steps + 1 rows of 65 entries) reaches the
    fork rule: a constant generator and constant C, B and G."""
    rng = np.random.default_rng(5)
    a, m = 0.3 * rng.standard_normal((2, 8, 8))
    psd = (m @ m.T / 8).tolist()
    doc = {"dimension": 8, "horizon": 1.0, "steps": steps, "solver": solver,
           "generator": {"kind": "constant", "matrix": a.tolist()},
           "C": {"kind": "constant", "matrix": psd},
           "B": {"kind": "constant", "matrix": psd}, "G": psd}
    doc.update(overrides)
    return doc


@pytest.mark.parametrize("solver", ["picard", "oracle"])
def test_streamed_solve_csv_is_the_unstreamed_write(tmp_path, monkeypatch, solver):
    """Picard windows and RK4 steps publish their rows while the solve runs and
    a forked child formats them meanwhile: the CSV is byte for byte the
    row-by-row reference's of the solution the library returns unstreamed."""
    _two_cpus(monkeypatch)
    pids = _counted_forks(monkeypatch)
    path = write_doc(tmp_path / "p.json", _streamed_doc(solver))
    published = []
    real = riccatint.cli._Meet.publish
    monkeypatch.setattr(riccatint.cli._Meet, "publish",
                        lambda self, values, lo: published.append(lo) or real(self, values, lo))
    assert main(["solve", path, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert len(pids) == 1 and len(published) > 2 and published[-1] == 0
    _no_child_left()
    problem, generator = ProblemFile.from_path(path).build(midpoints=solver == "oracle")
    settings = riccatint.cli._settings(ProblemFile.from_path(path))
    values = riccatint.cli._run_solver(solver, problem, generator, **settings).P.values
    write_solution_csv_reference(tmp_path / "ref.csv", problem.grid, values)
    assert (tmp_path / "out" / "p_P.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _second_window_fails(monkeypatch):
    real, calls = riccatint.riccati._picard_window, []

    def window(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise riccatint.riccati.ConvergenceError("window [0, 1] did not converge")
        return real(*args, **kwargs)

    monkeypatch.setattr(riccatint.riccati, "_picard_window", window)


@pytest.mark.parametrize("command, doc, patch, message", [
    ("solve", _streamed_doc("picard", tolerances={"tol_abs": 1e300}), None,
     "stopped before convergence: residual"),
    ("solve", _streamed_doc("picard"), _second_window_fails, "did not converge"),
    # P = tan(3 (1 - t)) I has its pole at t = 1 - pi / 6, between nodes 523 and 524
    ("oracle", _streamed_doc("oracle", generator={"kind": "zero"}, G=np.zeros((8, 8)).tolist(),
                             B={"kind": "constant", "matrix": (-3.0 * np.eye(8)).tolist()},
                             C={"kind": "constant", "matrix": (3.0 * np.eye(8)).tolist()}),
     None, "backward integration blew up at node 521"),
], ids=["residual-gate", "later-window-raises", "rk4-blows-up"])
def test_failed_streamed_solve_leaves_no_output_and_no_child(tmp_path, monkeypatch, capsys,
                                                             command, doc, patch, message):
    """A solve that fails after its rows were handed to the CSV child (every
    window published then the residual gate, a window after a published one,
    or an RK4 blow-up at an interior node after the rows above it) exits 3 and
    leaves, as an unstreamed solve does, no CSV, no run JSON and no --out
    directory; the child is killed and reaped."""
    _two_cpus(monkeypatch)
    pids = _counted_forks(monkeypatch)
    if patch is not None:
        patch(monkeypatch)
    path = write_doc(tmp_path / "p.json", doc)
    assert main([command, path, "--out", str(tmp_path / "out")]) == EXIT_NO_CONVERGENCE
    assert message in capsys.readouterr().err
    assert len(pids) == 1 and not (tmp_path / "out").exists()
    _no_child_left()


@pytest.mark.parametrize("host", ["no-fork", "fork-raises", "one-cpu", "one-cpu-no-affinity"])
def test_csv_runs_serially_without_a_usable_fork(tmp_path, monkeypatch, host):
    """Without ``os.fork``, when it raises, or with one usable CPU, nothing is
    forked and the CSV is the reference's."""
    pids = _counted_forks(monkeypatch)
    if host == "no-fork":
        monkeypatch.delattr(os, "fork")
    elif host == "fork-raises":
        def refuse():
            raise BlockingIOError(11, "Resource temporarily unavailable")
        monkeypatch.setattr(os, "fork", refuse)
    elif host == "one-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    grid, values = _split_table(8, kinds=("symmetric", "general", "signed-zero"))
    _assert_like_reference(tmp_path, grid, values)
    assert pids == []


def test_cmd_check_self_and_mismatch(tmp_path):
    path = write_doc(tmp_path / "tanh.json", tanh_doc(steps=500))
    out = tmp_path / "out"
    assert cmd_solve(path, out) == EXIT_OK
    assert cmd_check(path, out / "tanh_P.csv") == EXIT_OK

    # zero solution against a problem with G != 0 fails the residual gate
    doc_g = tanh_doc(steps=500, C={"kind": "zero"}, G=[[1.0]])
    path_g = write_doc(tmp_path / "terminal.json", doc_g)
    write_solution_csv(tmp_path / "zeros.csv", TimeGrid(1.0, 500),
                       np.zeros((501, 1, 1)))
    assert cmd_check(path_g, tmp_path / "zeros.csv") == EXIT_CHECK_FAILED


def test_cmd_check_flow_max_equals_per_window_loop(tmp_path, capsys):
    path = write_doc(tmp_path / "lin.json", tanh_doc(
        steps=300, generator={"kind": "constant", "matrix": [[0.3]]}))
    out = tmp_path / "out"
    assert cmd_solve(path, out) == EXIT_OK
    capsys.readouterr()
    assert cmd_check(path, out / "lin_P.csv") == EXIT_OK
    printed = capsys.readouterr().out.splitlines()[1].split()
    assert printed[0] == "flow_consistency_max"

    problem, _ = ProblemFile.from_path(path).build()
    p_fun = read_solution_csv(out / "lin_P.csv", problem.grid, 1)
    pairs = np.random.default_rng(20240).integers(0, problem.grid.num_nodes, size=(100, 2))
    want = flow_consistency_blocked(p_fun, problem, pairs.min(1), pairs.max(1)).max()
    assert printed[1] == f"{want:.6e}"


@pytest.mark.parametrize("g, p, code, verdicts", [
    (1.0, 1.0, EXIT_CHECK_FAILED, ["FAIL"] * 4),
    (1e300, 1e300, EXIT_INVALID, []),
], ids=["transport-overflows-to-nan", "transport-leaves-the-svd-nothing-finite"])
def test_check_of_an_overflowing_transport_keeps_its_verdicts(tmp_path, capsys, g, p,
                                                              code, verdicts):
    """``check`` of P = p on a 40-step grid with generator 400 and G = g, where a
    step scales P by e^10 on each side, so a transport over 36 steps or more
    overflows.  The blocked explicit march overflows where the per-node loop
    does: the exit code and the gates' verdicts are those the per-node loop gave."""
    path = write_doc(tmp_path / "growth.json", tanh_doc(
        steps=40, generator={"kind": "constant", "matrix": [[400.0]]}, G=[[g]]))
    csv = tmp_path / "P.csv"
    csv.write_text("t,p0_0\n" + "".join(f"{t!r},{p!r}\n"
                                        for t in TimeGrid(1.0, 40).nodes().tolist()))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)     # overflow in the marches
        assert main(["check", path, str(csv)]) == code
    out, err = capsys.readouterr()
    assert [line.split()[-1] for line in out.splitlines()] == verdicts
    assert err == ("" if verdicts else "error: SVD did not converge\n")


def _zero_solution_doc(steps, generator):
    """A 1-D problem with C = 0 and G = 0, so P = 0, whose every step scales by
    e^(generator / steps) on each side."""
    return tanh_doc(steps=steps, generator={"kind": "constant", "matrix": [[generator]]},
                    C={"kind": "zero"})


def test_solve_of_an_overflowing_block_map_is_the_per_node_march(tmp_path, capsys):
    """Each step is e^7.5 on each side, finite, but a block of isqrt(10000) = 100
    steps overflows: the explicit march is redone node by node, so ``solve``
    writes P = 0 with residual 0 and ``check`` passes all four gates."""
    path = write_doc(tmp_path / "zero.json", _zero_solution_doc(10000, 75000.0))
    assert main(["solve", path, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert capsys.readouterr().out.split()[3] == "residual=0.000e+00"
    grid = TimeGrid(1.0, 10000)
    p_fun = read_solution_csv(tmp_path / "out" / "zero_P.csv", grid, 1)
    assert np.array_equal(p_fun.values, np.zeros((10001, 1, 1)))
    assert main(["check", path, str(tmp_path / "out" / "zero_P.csv")]) == EXIT_OK
    out, err = capsys.readouterr()
    assert [line.split()[-1] for line in out.splitlines()] == ["PASS"] * 4 and err == ""


def test_check_of_an_overflowing_stretch_map_is_the_per_node_sweep(tmp_path, capsys):
    """Each step is e^7.5 on each side, finite; the one flow pair (117, 255) spans
    138 steps, whose composed stretch map overflows and would give inf * 0 = NaN
    on P = 0.  The chunk is redone node by node: four PASS lines, exit 0."""
    path = write_doc(tmp_path / "zero.json", _zero_solution_doc(400, 3000.0))
    assert main(["solve", path, "--out", str(tmp_path / "out")]) == EXIT_OK
    capsys.readouterr()
    assert main(["check", path, str(tmp_path / "out" / "zero_P.csv"),
                 "--flow-pairs", "1"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert [line.split()[-1] for line in out.splitlines()] == ["PASS"] * 4 and err == ""


def test_solve_of_an_overflowing_short_stretch_is_the_per_node_march(tmp_path, capsys):
    """At 10099 steps of e^7.43 on each side the march goes in stretches of
    isqrt(10099) = 100 steps and a last one of 99, and the maps of both overflow:
    the march is redone node by node, so P = 0 stays exactly zero."""
    path = write_doc(tmp_path / "zero.json", _zero_solution_doc(10099, 75000.0))
    assert main(["solve", path, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert capsys.readouterr().out.split()[3] == "residual=0.000e+00"
    p_fun = read_solution_csv(tmp_path / "out" / "zero_P.csv", TimeGrid(1.0, 10099), 1)
    assert np.array_equal(p_fun.values, np.zeros((10100, 1, 1)))


def _heat_doc(n=32, steps=50):
    """The finite-difference heat equation on (0, 1) with Dirichlet ends over the
    horizon 0.1: generator 0.1 (n + 1)^2 tridiag(1, -2, 1), B = C = G = I."""
    lap = np.diag(np.full(n - 1, 1.0), 1) + np.diag(np.full(n - 1, 1.0), -1) - 2.0 * np.eye(n)
    eye = np.eye(n).tolist()
    return {"dimension": n, "horizon": 0.1, "steps": steps, "solver": "monotone",
            "generator": {"kind": "constant", "matrix": (0.1 * (n + 1) ** 2 * lap).tolist()},
            "C": {"kind": "constant", "matrix": eye}, "B": {"kind": "constant", "matrix": eye},
            "G": eye}


def test_oracle_above_the_residual_gate_exits_3(tmp_path, capsys):
    """The stiff heat problem at n = 32, N = 50 (2 h ||A|| = 1.74): the RK4
    oracle's residual is far above the gate of ``check``, so ``oracle`` and the
    oracle reference of ``study`` exit 3 with one line and write nothing.  The
    monotone ``solve`` exits 0 and its CSV passes ``check``."""
    path = write_doc(tmp_path / "heat.json", _heat_doc())
    assert main(["oracle", path, "--out", str(tmp_path / "oracle")]) == EXIT_NO_CONVERGENCE
    out, err = capsys.readouterr()
    words = err.split()
    assert out == "" and err.count("\n") == 1 and not (tmp_path / "oracle").exists()
    assert words[:3] == ["error:", "oracle", "residual"] and words[4] == ">"
    assert err.endswith("; refine the grid\n")
    residual, limit = float(words[3]), float(words[5].rstrip(";"))
    assert residual == pytest.approx(1.017e-1, rel=1e-3) and limit == pytest.approx(2.0e-4, rel=0.05)
    assert main(["study", path, "--grids", "10,25,50"]) == EXIT_NO_CONVERGENCE
    assert capsys.readouterr().err.startswith("error: oracle residual ")
    assert main(["solve", path, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert main(["check", path, str(tmp_path / "out" / "heat_P.csv")]) == EXIT_OK
    out, err = capsys.readouterr()
    assert [line.split()[-1] for line in out.splitlines()[1:]] == ["PASS"] * 4 and err == ""


def _indefinite_doc(steps=20):
    """A problem that violates C-nonnegativity; only the Picard solver takes it."""
    return {
        "dimension": 2, "horizon": 1.0, "steps": steps, "generator": {"kind": "zero"},
        "C": {"kind": "constant", "matrix": [[1.0, 2.0], [2.0, 1.0]]},
        "B": {"kind": "constant", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
        "G": [[0.0, 0.0], [0.0, 0.0]], "solver": "picard",
    }


def test_cmd_check_runs_no_hypothesis_check_or_family_svd(tmp_path, monkeypatch):
    path = write_doc(tmp_path / "lin.json", tanh_doc(
        steps=200, generator={"kind": "constant", "matrix": [[0.3]]}))
    out = tmp_path / "out"
    assert main(["solve", path, "--out", str(out)]) == EXIT_OK

    hypothesis_calls = []
    perturbed, svd_args, passed_families = [], [], []
    real_check, real_svd = riccatint.cli.check_hypotheses, np.linalg.svd

    def record_family(perturb):
        def wrapper(*args):
            perturbed.append(perturb(*args))
            return perturbed[-1]
        return wrapper

    def counted_check(*args, **kwargs):
        hypothesis_calls.append(args)
        return real_check(*args, **kwargs)

    def recorded_svd(a, *args, **kwargs):
        svd_args.append(a)
        return real_svd(a, *args, **kwargs)

    def record_gate(gate):
        def wrapper(*args, psi_forward):
            passed_families.append(psi_forward)
            return gate(*args, psi_forward=psi_forward)
        return wrapper

    monkeypatch.setattr(riccatint.cli, "check_hypotheses", counted_check)
    monkeypatch.setattr(riccatint.riccati, "check_hypotheses", counted_check)
    for name in ("perturb_forward", "perturb_backward"):
        monkeypatch.setattr(riccatint.riccati, name,
                            record_family(getattr(riccatint.riccati, name)))
    for name in ("representation_check_one_sided", "representation_check_two_sided"):
        monkeypatch.setattr(riccatint.cli, name, record_gate(getattr(riccatint.cli, name)))
    monkeypatch.setattr(np.linalg, "svd", recorded_svd)
    assert main(["check", path, str(out / "lin_P.csv")]) == EXIT_OK
    assert hypothesis_calls == []
    assert len(perturbed) == 2      # the -BP forward family once, the -PB backward one
    assert [fam.direction for fam in perturbed] == ["forward", "backward"]
    assert len(passed_families) == 2
    assert passed_families[0] is passed_families[1] is perturbed[0]
    assert not any(a.shape == fam.steps.shape and np.array_equal(a, fam.steps)
                   for fam in perturbed for a in svd_args)


def test_cmd_solve_monotone_runs_one_hypothesis_check(tmp_path, monkeypatch):
    calls = []
    real_check = riccatint.riccati.check_hypotheses

    def counted_check(*args, **kwargs):
        calls.append(args)
        return real_check(*args, **kwargs)

    monkeypatch.setattr(riccatint.cli, "check_hypotheses", counted_check)
    monkeypatch.setattr(riccatint.riccati, "check_hypotheses", counted_check)
    good = write_doc(tmp_path / "tanh.json", tanh_doc(steps=100))
    bad = write_doc(tmp_path / "bad.json", _indefinite_doc())
    out = str(tmp_path / "out")
    runs = ((["solve", good, "--solver", "monotone", "--out", out], EXIT_OK),
            (["solve", bad, "--solver", "monotone", "--out", out], EXIT_HYPOTHESIS),
            (["lqr-demo", good, "--x0", "1.0"], EXIT_OK))
    for argv, code in runs:
        calls.clear()
        assert main(argv) == code
        assert len(calls) == 1, argv


def test_cmd_study_checks_hypotheses_only_for_the_monotone_solver(tmp_path, monkeypatch):
    calls = []
    real_check = riccatint.riccati.check_hypotheses

    def counted_check(*args, **kwargs):
        calls.append(args)
        return real_check(*args, **kwargs)

    monkeypatch.setattr(riccatint.cli, "check_hypotheses", counted_check)
    monkeypatch.setattr(riccatint.riccati, "check_hypotheses", counted_check)
    path = write_doc(tmp_path / "tanh.json", tanh_doc(steps=20))
    for solver, expected in (("picard", 0), ("oracle", 0), ("monotone", 3)):
        calls.clear()
        assert main(["study", path, "--grids", "10,20,40", "--solver", solver]) == EXIT_OK
        assert len(calls) == expected, solver


def test_cmd_solve_hypothesis_check_decomposes_no_node(tmp_path, monkeypatch):
    """A symmetric problem with exactly dual families passes the check by exact
    zeros and one Cholesky per coefficient: no SVD and no eigvalsh."""
    inside, lapack = [], []
    real_check = riccatint.riccati.check_hypotheses

    def spied_check(*args, **kwargs):
        inside.append(True)
        try:
            return real_check(*args, **kwargs)
        finally:
            inside.pop()

    def spy(name):
        real = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            if inside:
                lapack.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(riccatint.cli, "check_hypotheses", spied_check)
    monkeypatch.setattr(riccatint.riccati, "check_hypotheses", spied_check)
    for name in ("svd", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, spy(name))
    path = write_doc(tmp_path / "tanh.json", tanh_doc(steps=100))
    for solver in ("monotone", "picard", "oracle"):
        assert main(["solve", path, "--solver", solver, "--out", str(tmp_path)]) == EXIT_OK
    assert lapack == []


def test_symmetric_mode_recorded_by_solve_and_oracle(tmp_path):
    for doc, symmetric in ((tanh_doc(steps=100), True), (_indefinite_doc(), False)):
        path = write_doc(tmp_path / "problem.json", doc)
        for command in ("solve", "oracle"):
            out = tmp_path / f"{command}-{symmetric}"
            assert main([command, path, "--out", str(out)]) == EXIT_OK
            record = json.loads((out / "problem_run.json").read_text())
            assert record["symmetric_mode"] is symmetric


def test_cmd_check_of_hypothesis_violating_problem(tmp_path):
    path = write_doc(tmp_path / "bad.json", _indefinite_doc())
    out = tmp_path / "out"
    assert main(["solve", path, "--out", str(out)]) == EXIT_OK
    assert main(["check", path, str(out / "bad_P.csv")]) == EXIT_OK


def test_cmd_check_oracle_output(tmp_path):
    path = write_doc(tmp_path / "tanh.json", tanh_doc())
    out = tmp_path / "out"
    assert main(["oracle", path, "--out", str(out)]) == EXIT_OK
    assert cmd_check(path, out / "tanh_P.csv") == EXIT_OK


def _lane_doc(n, steps):
    """A symmetric problem on n x n blocks with time-dependent A and C, a
    constant B and its Cholesky factor as B_factor; ``steps = 0`` is the zero
    horizon."""
    rng = np.random.default_rng(n)
    a0, a1, c0, b0, g0 = rng.standard_normal((5, n, n)) / (2.0 * n)
    psd = [0.2 * (m @ m.T + 0.5 * np.eye(n)) for m in (c0, b0, g0)]
    return {"dimension": n, "horizon": 1.0 if steps else 0.0, "steps": steps,
            "generator": {"kind": "polynomial", "coefficients": [a0.tolist(), a1.tolist()]},
            "C": {"kind": "polynomial", "coefficients": [psd[0].tolist(), np.eye(n).tolist()]},
            "B": {"kind": "constant", "matrix": psd[1].tolist()},
            "G": psd[2].tolist(), "B_factor": np.linalg.cholesky(psd[1]).tolist()}


def _run(argv, capsys):
    """Exit code, stdout and stderr of one command; no thread may outlive it."""
    threads = threading.active_count()
    code = main(argv)
    assert threading.active_count() == threads
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _flow_threads(monkeypatch, lane):
    """Force the lane predicate to ``lane``; returns the list of the thread
    idents that ``check``'s flow gate ran on."""
    monkeypatch.setattr(riccatint.riccati, "_wide", lambda n: lane)
    real, threads = riccatint.cli.flow_consistency, []

    def flow(*args):
        threads.append(threading.get_ident())
        return real(*args)

    monkeypatch.setattr(riccatint.cli, "flow_consistency", flow)
    return threads


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("steps", [1, 40, 0], ids=["N1", "N40", "zero-horizon"])
def test_check_prints_the_same_on_the_lane_and_inline(tmp_path, capsys, monkeypatch, n,
                                                      steps):
    path = write_doc(tmp_path / "p.json", _lane_doc(n, steps))
    assert main(["solve", path, "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    runs = []
    for lane in (True, False):
        threads = _flow_threads(monkeypatch, lane)
        runs.append(_run(["check", path, str(tmp_path / "p_P.csv")], capsys))
        assert len(threads) == 1 and (threads[0] == threading.get_ident()) != lane
    assert runs[0] == runs[1]
    assert runs[0][0] == EXIT_OK and runs[0][1].count(" PASS\n") == 4


@pytest.mark.parametrize("lane", [True, False], ids=["thread", "inline"])
@pytest.mark.parametrize("failing, message", [
    (("flow_consistency", "representation_check_two_sided"), "flow_consistency gate failed"),
    (("representation_check_two_sided",), "representation_check_two_sided gate failed"),
])
def test_check_raises_gate_errors_in_serial_order(tmp_path, capsys, monkeypatch, lane,
                                                  failing, message):
    """With the flow gate and the two-sided gate both failing, exit 2 carries
    the flow gate's message (it runs first in serial order) on either lane;
    with the two-sided gate failing alone, that gate's message."""
    path = write_doc(tmp_path / "p.json", _lane_doc(3, 20))
    assert main(["solve", path, "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    _flow_threads(monkeypatch, lane)

    def failed(name):
        def gate(*args, **kwargs):
            raise ValueError(f"{name} gate failed")
        return gate

    for name in failing:
        monkeypatch.setattr(riccatint.cli, name, failed(name))
    assert _run(["check", path, str(tmp_path / "p_P.csv")], capsys) == \
        (EXIT_INVALID, "", f"error: {message}\n")


@pytest.mark.parametrize("lane", [True, False], ids=["thread", "inline"])
def test_check_names_the_forward_family_when_both_corrections_are_singular(
        tmp_path, capsys, monkeypatch, lane):
    """P = -2/h at node 0 makes the implicit correction singular in both the
    -BP forward and the -PB backward family; check builds the forward one
    first and exits 2 naming its steps."""
    path = write_doc(tmp_path / "p.json", tanh_doc(steps=4))
    csv = tmp_path / "p_P.csv"
    grid = TimeGrid(1.0, 4)
    write_solution_csv(csv, grid, np.array([-8.0, 0.5, 0.4, 0.2, 0.0]).reshape(5, 1, 1))
    _flow_threads(monkeypatch, lane)
    assert _run(["check", path, str(csv)], capsys) == (
        EXIT_INVALID, "", "error: implicit trapezoidal correction is singular while "
        "building forward/second steps; h * ||Q|| is too large for this grid\n")


def _sampling(monkeypatch):
    """Record, per coefficient spec name, whether each sampler call was at the
    grid nodes (the first time is 0) or at the midpoints; and, per build, whether
    the generator samples outlive it."""
    calls, kept = [], []
    real_sampler, real_build = riccatint.cli._spec_sampler, ProblemFile.build
    real_family, samples = riccatint.cli.build_forward_family, []

    def spec_sampler(spec, n, name):
        sample = real_sampler(spec, n, name)

        def counted(ts):
            calls.append((name, "nodes" if ts[0] == 0.0 else "midpoints"))
            return sample(ts)
        return counted

    def family(generator):
        samples.append(weakref.ref(generator))
        return real_family(generator)

    def build(self, *args, **kwargs):
        result = real_build(self, *args, **kwargs)
        kept.append(samples.pop()() is not None)
        return result

    monkeypatch.setattr(riccatint.cli, "_spec_sampler", spec_sampler)
    monkeypatch.setattr(riccatint.cli, "build_forward_family", family)
    monkeypatch.setattr(ProblemFile, "build", build)
    return calls, kept


_COMMANDS = {
    "solve-monotone": (["solve", "{p}", "--out", "{out}", "--solver", "monotone"], False),
    "solve-picard": (["solve", "{p}", "--out", "{out}", "--solver", "picard"], False),
    "check": (["check", "{p}", "{csv}"], False),
    "oracle": (["oracle", "{p}", "--out", "{out}"], True),
    "study": (["study", "{p}", "--grids", "10,20,40"], True),
    "lqr-demo": (["lqr-demo", "{p}", "--x0", "1,0.5,-1"], True),
}


@pytest.mark.parametrize("command", _COMMANDS)
def test_each_command_samples_only_what_it_reads(tmp_path, capsys, monkeypatch, command):
    """``check`` and the monotone and Picard ``solve`` sample B and C at the
    nodes alone and release the generator after the family build; the RK4
    commands (oracle, study's reference, lqr-demo) sample midpoints too.
    Outputs are those of the full build, byte for byte."""
    argv, rk4 = _COMMANDS[command]
    path = write_doc(tmp_path / "p.json", _lane_doc(3, 40))
    assert main(["solve", path, "--out", str(tmp_path)]) == EXIT_OK
    outputs = []
    for diet in (True, False):
        out = tmp_path / f"out-{diet}"
        fill = [arg.format(p=path, out=out, csv=tmp_path / "p_P.csv") for arg in argv]
        with monkeypatch.context() as patch:
            if diet:
                calls, kept = _sampling(patch)
            else:
                full = ProblemFile.build
                patch.setattr(ProblemFile, "build", lambda self, steps=None, midpoints=True:
                              full(self, steps))
            capsys.readouterr()
            code, stdout, _ = _run(fill, capsys)
        csv = out / "p_P.csv"
        outputs.append((code, stdout.replace(str(out), "OUT"),
                        csv.read_bytes() if csv.exists() else None))
    assert outputs[0] == outputs[1] and outputs[0][0] == EXIT_OK
    coefficient = [where for name, where in calls if name in ("B", "C")]
    assert coefficient.count("nodes") == 2 * len(kept)
    assert ("midpoints" in coefficient) == rk4 == any(kept)


def test_cmd_study(tmp_path, capsys):
    path = write_doc(tmp_path / "tanh.json", tanh_doc())
    assert cmd_study(path, [250, 500, 1000]) == EXIT_OK
    captured = capsys.readouterr().out
    order = float(captured.strip().splitlines()[-1].split(":")[1])
    assert order >= 1.8
    # autonomous A = 0 case: errors shrink monotonically with h
    errors = [float(line.split()[-1]) for line in captured.strip().splitlines()[1:-1]]
    assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
    # linear problem (B = 0) refines at second order too; a nonzero generator
    # keeps the quadrature error genuinely O(h^2) (with A = 0 both paths are exact)
    lin = tanh_doc(B={"kind": "zero"}, G=[[0.5]],
                   generator={"kind": "constant", "matrix": [[0.3]]})
    del lin["B_factor"]
    path_lin = write_doc(tmp_path / "lin.json", lin)
    assert cmd_study(path_lin, [250, 500, 1000]) == EXIT_OK
    order_lin = float(capsys.readouterr().out.strip().splitlines()[-1].split(":")[1])
    assert order_lin >= 1.8
    assert main(["study", path, "--grids", "250,500"]) == EXIT_INVALID   # needs >= 3 grids
    assert main(["study", path, "--grids", "300,500,1000"]) == EXIT_INVALID  # not nested


def test_cmd_lqr_demo(tmp_path, capsys):
    path = write_doc(tmp_path / "tanh.json", tanh_doc())
    assert cmd_lqr_demo(path, [1.0]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert abs(report["predicted_cost"] - math.tanh(1.0)) < 1e-6
    assert abs(report["realized_cost"] - report["predicted_cost"]) <= report["tolerance"]
    assert report["min_perturbed_margin"] >= -report["tolerance"]

    # trivial cost: C = 0, G = 0
    doc0 = tanh_doc(steps=200, C={"kind": "zero"}, G=[[0.0]])
    path0 = write_doc(tmp_path / "null.json", doc0)
    assert cmd_lqr_demo(path0, [1.0]) == EXIT_OK
    report0 = json.loads(capsys.readouterr().out)
    assert abs(report0["predicted_cost"]) < 1e-12

    # missing factor
    nofac = tanh_doc()
    del nofac["B_factor"]
    path_nf = write_doc(tmp_path / "nofac.json", nofac)
    assert main(["lqr-demo", path_nf, "--x0", "1.0"]) == EXIT_INVALID

    # a hypothesis violation is named with its node and exits as `solve` does
    capsys.readouterr()
    path_bad = write_doc(tmp_path / "bad.json",
                         dict(_indefinite_doc(), B_factor=[[1.0, 0.0], [0.0, 1.0]]))
    assert main(["lqr-demo", path_bad, "--x0", "1.0,0.0"]) == EXIT_HYPOTHESIS
    assert capsys.readouterr().err == \
        "error: hypothesis violation (C-nonnegativity at node 0)\n"


@pytest.mark.parametrize("factor, shape", [(1.0, "()"), ([], "(0,)"), ([[]], "(1, 0)")],
                         ids=["scalar", "empty-list", "no-columns"])
def test_lqr_demo_refuses_a_b_factor_without_rows_and_columns(tmp_path, capsys, factor,
                                                              shape):
    """B_factor must be an n x m matrix with m >= 1; anything else is named
    with the shape it has, not met later as an index error or a bad factor."""
    path = write_doc(tmp_path / "tanh.json", tanh_doc(steps=20, B_factor=factor))
    assert main(["lqr-demo", path, "--x0", "1.0"]) == EXIT_INVALID
    assert capsys.readouterr().err == ("error: field 'B_factor': B_factor must be a 1xm "
                                       f"matrix with m >= 1, got shape {shape}\n")


@pytest.mark.parametrize("tolerances", [{"max_iter": 1}, {"tol_abs": 1e300}])
def test_monotone_commands_stop_as_solve_does(tmp_path, capsys, tolerances):
    """``lqr-demo`` and ``study`` solve with the document's tolerances and the
    residual gate of ``solve``: a cap too low to converge, or a tolerance so
    loose that the iteration stops after one iterate, ends each command in exit
    3 with one message and no output."""
    path = write_doc(tmp_path / "tanh.json", tanh_doc(steps=200, tolerances=tolerances))
    assert main(["solve", path, "--out", str(tmp_path / "out")]) == EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err
    assert err.startswith("error: monotone iteration did not converge in 1 steps"
                          if "max_iter" in tolerances else
                          "error: stopped before convergence: residual ")
    for argv in (["lqr-demo", path, "--x0", "1.0"], ["study", path, "--grids", "200,400,800"]):
        assert main(argv) == EXIT_NO_CONVERGENCE
        assert capsys.readouterr() == ("", err)


def test_propagator_table_problem(tmp_path):
    steps = 40
    doc = {
        "dimension": 1,
        "horizon": 1.0,
        "steps": steps,
        "propagators": {"steps": [[[1.0]] for _ in range(steps)]},
        "C": {"kind": "constant", "matrix": [[1.0]]},
        "B": {"kind": "constant", "matrix": [[1.0]]},
        "G": [[0.0]],
        "solver": "picard",
    }
    path = write_doc(tmp_path / "table.json", doc)
    out = tmp_path / "out"
    assert cmd_solve(path, out) == EXIT_OK
    # no generator: the study (oracle reference) must refuse
    assert main(["study", path, "--grids", "10,20,40"]) == EXIT_INVALID
    assert main(["solve", path, "--out", str(out), "--solver", "oracle"]) == EXIT_INVALID


def test_main_dispatch(tmp_path):
    path = write_doc(tmp_path / "tanh.json", tanh_doc(steps=100))
    out = tmp_path / "out"
    assert main(["solve", path, "--out", str(out), "--max-iter", "30"]) == EXIT_OK
    assert main(["check", path, str(out / "tanh_P.csv")]) == EXIT_OK
    assert main(["study", path, "--grids", "nope"]) == EXIT_INVALID
    assert main(["lqr-demo", path, "--x0", "oops"]) == EXIT_INVALID
    assert main(["lqr-demo", path, "--x0", "nan"]) == EXIT_INVALID


@pytest.mark.parametrize("solver", ["monotone", "picard"])
def test_solve_stopped_before_convergence_exits_3(tmp_path, capsys, solver):
    """A tolerance so loose that the solver stops after one iterate leaves a
    residual above check's gate: one line, exit 3, nothing written."""
    path = write_doc(tmp_path / "tanh.json", tanh_doc(steps=200))
    out = tmp_path / "out"
    assert main(["solve", path, "--out", str(out), "--solver", solver,
                 "--tol-abs", "1e300"]) == EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: stopped before convergence: residual ")
    assert not out.exists()
    # the same solution, written anyway, fails check's residual gate
    problem, _ = ProblemFile.from_path(path).build()
    solve = riccatint.riccati.solve_monotone if solver == "monotone" \
        else riccatint.riccati.solve_picard_stepped
    csv = tmp_path / "loose_P.csv"
    write_solution_csv(csv, problem.grid, solve(problem, tol_abs=1e300).P.values)
    assert cmd_check(path, csv) == EXIT_CHECK_FAILED
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith("riccati_residual ") and first.endswith(" FAIL")


def test_oracle_solve_reads_no_stopping_tolerance(tmp_path):
    """The oracle has no stopping tolerance, so ``--tol-abs 1e300`` changes
    nothing; its residual on tanh stays far below the gate."""
    path = write_doc(tmp_path / "tanh.json", tanh_doc(steps=200))
    assert main(["solve", path, "--out", str(tmp_path / "out"), "--solver", "oracle",
                 "--tol-abs", "1e300"]) == EXIT_OK

def _without_generator(**overrides):
    doc = tanh_doc(**overrides)
    del doc["generator"]
    return doc


def _overflow_doc(n):
    """A generator so large that exp(h A) overflows on the 50-step grid."""
    eye = np.eye(n).tolist()
    return {"dimension": n, "horizon": 1.0, "steps": 50,
            "generator": {"kind": "constant", "matrix": (1e5 * np.eye(n)).tolist()},
            "C": {"kind": "constant", "matrix": eye}, "B": {"kind": "constant", "matrix": eye},
            "G": np.zeros((n, n)).tolist()}


# a well-formed CSV of P = 0 on the 20-step grid: `check` fails its gates on it (exit 1)
_ZERO_CSV = "t,p0_0\n" + "".join(f"{t},0\n" for t in TimeGrid(1.0, 20).nodes().tolist())
# the same with the time of row 4 replaced by nan
_NAN_TIME_CSV = "\n".join("nan,0" if k == 5 else line
                          for k, line in enumerate(_ZERO_CSV.splitlines())) + "\n"


def _piecewise_c(t1):
    return {"kind": "piecewise", "times": [0.0, t1], "matrices": [[[1.0]], [[2.0]]]}


def _stiff_doc(steps, solver):
    """The 1-D stiff case B = C = 400, G = 50: the trapezoid's node solve
    diverges (monotone) and the certified window is shorter than h (Picard)."""
    return tanh_doc(steps=steps, B={"kind": "constant", "matrix": [[400.0]]},
                    C={"kind": "constant", "matrix": [[400.0]]}, G=[[50.0]], solver=solver)


_STIFF_CASES = {f"stiff-{solver}-N{steps}": ("solve", _stiff_doc(steps, solver), [],
                                              EXIT_NO_CONVERGENCE)
                for solver in ("monotone", "picard") for steps in (4, 400, 4000, 10000)}
# the name the case had when it was the only one
_STIFF_CASES["stiff-implicit-endpoint"] = _STIFF_CASES.pop("stiff-monotone-N4")

BOUNDARY_CASES = {
    **_STIFF_CASES,
    "safety-out-of-range": ("solve", tanh_doc(steps=20),
                            ["--solver", "picard", "--safety", "1.5"], EXIT_INVALID),
    "zero-grid-size": ("study", tanh_doc(steps=20), ["--grids", "0,2,4"], EXIT_INVALID),
    "null-horizon": ("solve", tanh_doc(steps=20, horizon=None), [], EXIT_INVALID),
    "top-level-array": ("solve", [tanh_doc(steps=20)], [], EXIT_INVALID),
    "non-numeric-tolerance": ("solve", tanh_doc(steps=20, tolerances={"tol_abs": "x"}),
                              [], EXIT_INVALID),
    "non-object-propagators": ("solve", _without_generator(steps=20, propagators=[1]),
                               [], EXIT_INVALID),
    # `check` reads the text of its solution CSV from the first extra item
    "flow-pairs-zero": ("check", tanh_doc(steps=20), [_ZERO_CSV, "--flow-pairs", "0"],
                        EXIT_INVALID),
    "flow-pairs-negative": ("check", tanh_doc(steps=20),
                            [_ZERO_CSV, "--flow-pairs", "-5"], EXIT_INVALID),
    "threshold-nan": ("check", tanh_doc(steps=20), [_ZERO_CSV, "--threshold", "nan"],
                      EXIT_INVALID),
    "threshold-negative": ("check", tanh_doc(steps=20), [_ZERO_CSV, "--threshold", "-1"],
                           EXIT_INVALID),
    "threshold-inf": ("check", tanh_doc(steps=20), [_ZERO_CSV, "--threshold", "inf"],
                      EXIT_INVALID),
    "empty-csv": ("check", tanh_doc(steps=20), [""], EXIT_INVALID),
    "garbage-csv-header": ("check", tanh_doc(steps=20),
                           [_ZERO_CSV.replace("t,p0_0", "garbage", 1)], EXIT_INVALID),
    "csv-nan-time": ("check", tanh_doc(steps=20), [_NAN_TIME_CSV], EXIT_INVALID),
    "step-overflow-1d-solve": ("solve", _overflow_doc(1), [], EXIT_INVALID),
    "step-overflow-1d-oracle": ("oracle", _overflow_doc(1), [], EXIT_INVALID),
    "step-overflow-2d-solve": ("solve", _overflow_doc(2), [], EXIT_INVALID),
    "tol-rel-inf": ("solve", tanh_doc(steps=20), ["--tol-rel", "inf"], EXIT_INVALID),
    "tol-abs-nan": ("solve", tanh_doc(steps=20), ["--tol-abs", "nan"], EXIT_INVALID),
    "tol-abs-negative": ("solve", tanh_doc(steps=20), ["--tol-abs", "-1"], EXIT_INVALID),
    "max-iter-negative": ("solve", tanh_doc(steps=20), ["--max-iter", "-3"], EXIT_INVALID),
    "lqr-demo-tol-nan": ("lqr-demo", tanh_doc(steps=20), ["--x0", "1", "--tol", "nan"],
                         EXIT_INVALID),
    "lqr-demo-tol-inf": ("lqr-demo", tanh_doc(steps=20), ["--x0", "1", "--tol", "inf"],
                         EXIT_INVALID),
    "lqr-demo-tol-negative": ("lqr-demo", tanh_doc(steps=20), ["--x0", "1", "--tol", "-1"],
                              EXIT_INVALID),
    # the quadratic cost of so large a state overflows (it once passed, with a nan gap)
    "lqr-demo-cost-overflow": ("lqr-demo", tanh_doc(steps=20), ["--x0", "1e200"],
                               EXIT_INVALID),
    "document-tol-rel-inf": ("solve", tanh_doc(steps=20, tolerances={"tol_rel": math.inf}),
                             [], EXIT_INVALID),
    "document-max-iter-zero": ("solve", tanh_doc(steps=20, tolerances={"max_iter": 0}),
                               [], EXIT_INVALID),
    # integer fields refuse what int() would truncate
    "non-integral-steps": ("solve", tanh_doc(steps=20.7), [], EXIT_INVALID),
    "boolean-steps": ("solve", tanh_doc(steps=True), [], EXIT_INVALID),
    "non-integral-dimension": ("solve", tanh_doc(steps=20, dimension=1.9), [], EXIT_INVALID),
    "non-integral-max-iter": ("solve", tanh_doc(steps=20, tolerances={"max_iter": 2.9}),
                              [], EXIT_INVALID),
    # number fields and matrix entries refuse what float() would read as 0 or 1
    "boolean-tol-abs": ("solve", tanh_doc(steps=20, tolerances={"tol_abs": True}),
                        [], EXIT_INVALID),
    "boolean-tol-rel": ("solve", tanh_doc(steps=20, tolerances={"tol_rel": False}),
                        [], EXIT_INVALID),
    "boolean-horizon": ("solve", tanh_doc(steps=20, horizon=True), [], EXIT_INVALID),
    "boolean-matrix-entry": ("solve", tanh_doc(steps=20, G=[[True]]), [], EXIT_INVALID),
    "boolean-spec-entry": ("solve", tanh_doc(steps=20, C={"kind": "constant",
                                                         "matrix": [[True]]}),
                           [], EXIT_INVALID),
    # json.load reads NaN and Infinity; a piecewise breakpoint must be finite
    "piecewise-nan-time": ("solve", tanh_doc(steps=20, C=_piecewise_c(math.nan)),
                           [], EXIT_INVALID),
    "piecewise-infinite-time": ("solve", tanh_doc(steps=20, C=_piecewise_c(math.inf)),
                                [], EXIT_INVALID),
}


@pytest.mark.parametrize("command, doc, extra, expected", BOUNDARY_CASES.values(),
                         ids=BOUNDARY_CASES.keys())
def test_error_boundary_one_line(tmp_path, capsys, command, doc, extra, expected):
    path = write_doc(tmp_path / "problem.json", doc)
    option = extra[-2] if len(extra) >= 2 and extra[-2].startswith("--") else None
    if command in ("solve", "oracle"):
        extra = extra + ["--out", str(tmp_path / "out")]
    if command == "check":
        solution = tmp_path / "P.csv"
        solution.write_text(extra[0], encoding="utf-8")
        extra = [str(solution)] + extra[1:]
    with warnings.catch_warnings(record=True) as caught:   # they would print too
        warnings.simplefilter("always")
        assert main([command, path] + extra) == expected
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err
    assert option is None or option in err      # an option out of range is named


@pytest.mark.parametrize("case", [case for case, (_, doc, _, _) in _STIFF_CASES.items()
                                  if doc["solver"] == "monotone"])
def test_stiff_monotone_names_the_diverging_endpoint_solve(tmp_path, capsys, case):
    path = write_doc(tmp_path / "problem.json", _STIFF_CASES[case][1])
    assert main(["solve", path, "--out", str(tmp_path / "out")]) == EXIT_NO_CONVERGENCE
    assert "implicit endpoint solve is diverging" in capsys.readouterr().err


@pytest.mark.parametrize("n", [1, 2])
def test_overflowing_step_exponent_asks_to_refine_the_grid(n):
    with pytest.raises(ValueError, match="overflows; refine the grid"):
        ProblemFile.from_dict(_overflow_doc(n)).build()


_DROP = object()
_MUTABLE_PATHS = [
    ("dimension",), ("horizon",), ("steps",), ("generator",), ("generator", "kind"),
    ("C",), ("C", "matrix"), ("C", "matrix", 0, 0), ("B", "matrix", 0, 0),
    ("G",), ("G", 0, 0), ("solver",), ("B_factor",), ("B_factor", 0, 0),
    ("tolerances",), ("tolerances", "tol_abs"), ("tolerances", "max_iter"),
    ("safety",),
]
_BAD_VALUES = st.sampled_from([
    _DROP,                                                  # drop the field
    "x", None, [], {}, True, [[1.0, 2.0]], {"kind": "zero"},  # swap the type
    math.inf, -math.inf, math.nan, -1, -1.0, -2.5,          # non-finite or negative
])


def _mutated(mutations):
    doc = tanh_doc(steps=20, safety=0.5,
                   tolerances={"tol_abs": 1e-10, "tol_rel": 1e-8, "max_iter": 50})
    for path, value in mutations:
        try:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if value is _DROP:
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(value)
        except (KeyError, IndexError, TypeError):
            pass        # an earlier mutation removed the path
    return doc


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    """A scratch directory holding the solution of the unmutated document."""
    root = tmp_path_factory.mktemp("mutations")
    path = write_doc(root / "valid.json", _mutated([]))
    assert main(["solve", path, "--out", str(root)]) == EXIT_OK
    return root


@given(st.lists(st.tuples(st.sampled_from(_MUTABLE_PATHS), _BAD_VALUES),
                min_size=1, max_size=2))
def test_mutated_documents_end_in_documented_codes(mutation_dir, mutations):
    path = write_doc(mutation_dir / "mutated.json", _mutated(mutations))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        solved = main(["solve", path, "--out", str(mutation_dir / "out")])
        checked = main(["check", path, str(mutation_dir / "valid_P.csv")])
    assert solved in (EXIT_OK, EXIT_INVALID, EXIT_NO_CONVERGENCE, EXIT_HYPOTHESIS)
    assert checked in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_INVALID, EXIT_NO_CONVERGENCE,
                       EXIT_HYPOTHESIS)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("where", ["option", "document"])
def test_max_iter_caps_the_picard_sweeps(tmp_path, capsys, where):
    """``--max-iter`` and the document's ``max_iter`` cap each Picard window."""
    tolerances = {"max_iter": 1} if where == "document" else None
    path = write_doc(tmp_path / "tanh.json", tanh_doc(steps=20, tolerances=tolerances))
    out = tmp_path / "out"
    extra = ["--max-iter", "1"] if where == "option" else []
    assert main(["solve", path, "--out", str(out), "--solver", "picard"] + extra) \
        == EXIT_NO_CONVERGENCE
    assert capsys.readouterr().err == \
        "error: window [13, 20] did not converge in 1 sweeps\n"
    assert not out.exists()


def test_solve_picard_stepped_raises_at_its_sweep_cap():
    problem, _ = ProblemFile.from_dict(tanh_doc(steps=20)).build()
    with pytest.raises(riccatint.riccati.ConvergenceError, match="in 1 sweeps"):
        riccatint.riccati.solve_picard_stepped(problem, max_iter=1)


_ALLOCATION_FAILURE = ("Unable to allocate 7.28 TiB for an array with shape "
                       "(1000000000001, 1, 1) and data type float64")


def _fail_to_allocate(*args, **kwargs):
    raise MemoryError(_ALLOCATION_FAILURE)


@pytest.mark.parametrize("command, owner, name",
                         [("solve", riccatint.cli.ProblemFile, "build"),
                          ("check", riccatint.cli, "flow_consistency")])
def test_out_of_memory_exits_2_with_one_line(tmp_path, capsys, monkeypatch, command,
                                             owner, name):
    """An allocation that fails (patched: a real one could wake the OOM killer)
    ends in one line and exit 2, not in a traceback."""
    monkeypatch.setattr(owner, name, _fail_to_allocate)
    path = write_doc(tmp_path / "tanh.json", tanh_doc(steps=20))
    csv = tmp_path / "P.csv"
    csv.write_text(_ZERO_CSV, encoding="utf-8")
    extra = ["--out", str(tmp_path / "out")] if command == "solve" else [str(csv)]
    assert main([command, path] + extra) == EXIT_INVALID
    assert capsys.readouterr().err == \
        f"error: out of memory: {_ALLOCATION_FAILURE}; reduce steps, dimension or --flow-pairs\n"


_FUZZ_DOCS = {
    "tanh": tanh_doc(steps=20),
    "rotation": {"dimension": 2, "horizon": 1.0, "steps": 16,
                 "generator": {"kind": "constant", "matrix": [[0.0, 1.0], [-1.0, -0.5]]},
                 "C": {"kind": "constant", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
                 "B": {"kind": "constant", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
                 "G": [[0.5, 0.0], [0.0, 0.5]], "B_factor": [[1.0, 0.0], [0.0, 1.0]]},
}
# Each option draws a valid value, or at most one option per call an invalid
# one: numbers out of range, text, nan/inf, negatives and empty strings.
_FUZZ_TEXT = st.sampled_from(["", " ", "x", "nan", "NaN", "inf", "-inf", "Infinity",
                              "1e", "0x10", "1_0", "--", "1,2"])


def _reals(lo, hi, **bounds):
    return st.floats(lo, hi, **bounds).map(repr)


_FUZZ_NONNEGATIVE = (st.one_of(st.sampled_from(["0", "1e-10", "1e-3", "1", "1e300"]),
                               _reals(0.0, 1e300)),
                     st.one_of(_FUZZ_TEXT, st.sampled_from(["-1", "-1e-300", "-1e300"])))
_FUZZ_COUNT = (st.integers(1, 10 ** 4).map(str),
               st.one_of(_FUZZ_TEXT, st.sampled_from(["0", "-3", "2.0", "1e3", "2.5"])))
_FUZZ_SOLVER = (st.sampled_from(["monotone", "picard", "oracle"]),
                st.sampled_from(["", "newton", "Monotone"]))
FUZZ_OPTIONS = {
    "solve": {"--tol-abs": _FUZZ_NONNEGATIVE, "--tol-rel": _FUZZ_NONNEGATIVE,
              "--max-iter": _FUZZ_COUNT, "--solver": _FUZZ_SOLVER,
              "--safety": (st.one_of(st.sampled_from(["0.5", "0.99", "1e-300"]),
                                     _reals(0.0, 1.0, exclude_min=True, exclude_max=True)),
                           st.one_of(_FUZZ_TEXT, st.sampled_from(["0", "1", "1.5", "-0.5"])))},
    "oracle": {},
    "check": {"--threshold": _FUZZ_NONNEGATIVE, "--flow-pairs": _FUZZ_COUNT},
    "study": {"--solver": _FUZZ_SOLVER,
              "--grids": (st.one_of(st.sampled_from(["4,8,16", "16,32,64", "5,10,20,40"]),
                                    st.lists(st.integers(1, 64), max_size=5).map(
                                        lambda sizes: ",".join(map(str, sizes)))),
                          st.one_of(st.none(), _FUZZ_TEXT,
                                    st.sampled_from(["0,2,4", "-4,8,16", "3,6,12,64"])))},
    "lqr-demo": {"--tol": _FUZZ_NONNEGATIVE,
                 "--x0": (st.lists(st.one_of(st.sampled_from(["0", "1", "-2.5", "1e200"]),
                                             _reals(-1e300, 1e300)),
                                   min_size=1, max_size=2).map(",".join),
                          st.one_of(st.none(), _FUZZ_TEXT,
                                    st.sampled_from(["1,nan", "1,inf", "1,2,3"])))},
}
_REQUIRED = ("--grids", "--x0")   # absent only as the invalid option


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """The fuzzed problems, each with its monotone solution for ``check``."""
    root = tmp_path_factory.mktemp("fuzz")
    for name, doc in _FUZZ_DOCS.items():
        path = write_doc(root / f"{name}.json", doc)
        assert main(["solve", path, "--out", str(root)]) == EXIT_OK
    return root


@pytest.mark.parametrize("command", FUZZ_OPTIONS)
@settings(max_examples=50)
@given(data=st.data())
def test_fuzzed_options_end_in_documented_codes(fuzz_dir, command, data):
    name = data.draw(st.sampled_from(sorted(_FUZZ_DOCS)))
    argv = [command, str(fuzz_dir / f"{name}.json")]
    if command == "check":
        argv.append(str(fuzz_dir / f"{name}_P.csv"))
    if command in ("solve", "oracle"):
        argv += ["--out", str(fuzz_dir / "out")]
    options = FUZZ_OPTIONS[command]
    invalid = data.draw(st.none() | st.sampled_from(sorted(options)), label="invalid") \
        if options else None
    for option, (good, bad) in options.items():
        value = data.draw(bad if option == invalid else good if option in _REQUIRED
                          else st.none() | good, label=option)
        if value is not None:
            argv += [option, value]
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in caught] == []      # they would print too
    assert code in (EXIT_OK, EXIT_INVALID, EXIT_NO_CONVERGENCE, EXIT_HYPOTHESIS) or \
        (code == EXIT_CHECK_FAILED and command in ("check", "lqr-demo"))
    if code not in (EXIT_OK, EXIT_CHECK_FAILED):
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


def _random_symmetric_doc(seed, n, steps, k_c, k_b, k_g, solver):
    """A symmetric polynomial-spec document with C, B and G scaled by 10^k_c,
    10^k_b and 10^k_g; ``steps = 0`` is the zero horizon."""
    rng = np.random.default_rng(seed)
    a0, a1 = 0.5 * rng.standard_normal((2, n, n))
    psd = [symmetrize(m @ m.T) / n for m in rng.standard_normal((5, n, n))]

    def poly(scale, c0, c1):
        return {"kind": "polynomial", "coefficients": [(scale * c0).tolist(),
                                                       (scale * c1).tolist()]}

    return {"dimension": n, "horizon": 1.0 if steps else 0.0, "steps": steps,
            "generator": {"kind": "polynomial", "coefficients": [a0.tolist(), a1.tolist()]},
            "C": poly(10.0 ** k_c, psd[0], psd[1]), "B": poly(10.0 ** k_b, psd[2], psd[3]),
            "G": (10.0 ** k_g * psd[4]).tolist(), "solver": solver}


def _main_quietly(argv):
    """Exit code and stdout of one command, which ends in a documented code:
    with one ``error:`` line for codes 2-4, on an otherwise empty stderr."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in caught] == []      # they would print too
    assert "Traceback" not in err.getvalue()
    lines = err.getvalue().splitlines()
    if code in (EXIT_OK, EXIT_CHECK_FAILED):
        assert lines == []
    else:
        assert len(lines) == 1 and lines[0].startswith("error: ")
    return code, out.getvalue()


_SCALE = st.floats(-6.0, 3.0)


@pytest.mark.parametrize("steps", [1, 2, 40, 0], ids=["N1", "N2", "N40", "zero-horizon"])
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([1, 2, 3]),
       k_c=_SCALE, k_b=_SCALE, k_g=_SCALE, solver=st.sampled_from(["monotone", "picard"]))
def test_random_symmetric_documents_solve_then_check(tmp_path_factory, steps, seed, n,
                                                     k_c, k_b, k_g, solver):
    """A valid document ends in a documented code through ``main``, and a
    solution ``solve`` accepts passes ``check``'s residual gate: both gate the
    residual with ``_residual_threshold``."""
    root = tmp_path_factory.mktemp("random-doc")
    path = write_doc(root / "p.json",
                     _random_symmetric_doc(seed, n, steps, k_c, k_b, k_g, solver))
    solved, _ = _main_quietly(["solve", path, "--out", str(root)])
    assert solved in (EXIT_OK, EXIT_NO_CONVERGENCE, EXIT_HYPOTHESIS)
    if solved != EXIT_OK:
        return
    checked, out = _main_quietly(["check", path, str(root / "p_P.csv")])
    assert checked in (EXIT_OK, EXIT_CHECK_FAILED)
    residual = [line for line in out.splitlines() if line.startswith("riccati_residual ")]
    assert len(residual) == 1 and residual[0].endswith(" PASS")
