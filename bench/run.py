"""riccatint benchmark: the solve, check and oracle jobs on seeded problem files.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it imports the package from the
checkout's ``src`` directory.  One process is one closed-loop client: for each
problem file of the workload it runs ``solve``, ``check`` on the CSV just
written and ``oracle``, each through ``riccatint.cli.main`` and each waiting
for the one before.  New files are started until ``--seconds`` have passed.

Every command passes a correctness gate or counts as failed (see
``Job``).  Every timing is scaled to a fixed host speed by a reference kernel
timed around it (see ``reference.py``).  With ``--trace 0`` the last stdout
line holds the end-to-end metrics: the median scaled seconds of each command
over the run's files, the fresh-interpreter import time and the process's
peak RSS.  With
``--trace 1`` each file is run once plain and once with the layer functions
wrapped (see ``tracing.py``), and the last line holds the per-layer metrics.
The line before it is a report with the environment stamp, sample counts and
the error rate.  README.md lists the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SETUP_REPEATS = 9        # fresh interpreters per run; setup_s is their median
WARMUP_STEPS = 100       # grid of the untimed warm-up file (same dimension)
GAP_BOUND = 1e-4         # solve vs oracle sup gap, acceptance criterion 2
CHECK_GATES = ("riccati_residual", "flow_consistency_max",
               "representation_one_sided", "representation_two_sided")
COMMANDS = ("solve", "check", "oracle")

LAYER_METRICS = [
    ("cli.parse_s", "s"), ("cli.build_s", "s"), ("cli.build.calls", "count"),
    ("cli.write_csv_s", "s"), ("cli.read_csv_s", "s"), ("cli.csv_bytes", "bytes"),
    ("cli.solve.other_s", "s"), ("cli.check.other_s", "s"),
    ("cli.oracle.other_s", "s"),
    ("evolution.sample_s", "s"), ("evolution.build_forward_family_s", "s"),
    ("evolution.expm_calls", "count"),
    ("riccati.check_hypotheses_s", "s"), ("riccati.check_hypotheses.calls", "count"),
    ("riccati.solve_monotone_s", "s"), ("riccati.monotone_iterations", "count"),
    ("riccati.monotone_bookkeeping_s", "s"),
    ("riccati.solve_picard_s", "s"), ("riccati.picard_windows", "count"),
    ("riccati.picard_sweeps", "count"),
    ("riccati.residual_s", "s"), ("riccati.residual.calls", "count"),
    ("riccati.flow_consistency_s", "s"), ("riccati.flow_consistency.calls", "count"),
    ("riccati.representation_one_sided_s", "s"),
    ("riccati.representation_two_sided_s", "s"),
    ("lyapunov.solve_both_perturbed_s", "s"),
    ("volterra.perturb_forward_s", "s"), ("volterra.perturb_backward_s", "s"),
    ("oracle.rk4_s", "s"), ("oracle.rk4_steps", "count"),
    ("tracing_overhead.solve", "ratio"), ("tracing_overhead.check", "ratio"),
    ("tracing_overhead.oracle", "ratio"),
]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def configure_threads() -> None:
    """Pin the BLAS thread count to nproc unless set; refuse more than nproc."""
    cores = nproc()
    for var in THREAD_VARS:
        value = os.environ.setdefault(var, str(cores))
        try:
            threads = int(value)
        except ValueError:
            raise SystemExit(f"refusing to run: {var}={value!r} is not an integer")
        if threads > cores:
            raise SystemExit(
                f"refusing to run: {var}={threads} exceeds nproc={cores}")


def import_cli():
    """Import riccatint.cli from this checkout's sources, never from elsewhere."""
    if not (SRC / "riccatint" / "cli.py").is_file():
        raise SystemExit(f"no riccatint sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from riccatint import cli
    if Path(cli.__file__).resolve().parent != (SRC / "riccatint").resolve():
        raise SystemExit(f"imported riccatint from {cli.__file__}, not {SRC}")
    return cli


def environment_stamp() -> dict:
    import numpy as np
    import scipy

    caches = {}
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        out = subprocess.run(["lscpu"], capture_output=True, text=True,
                             timeout=10).stdout
        for line in out.splitlines():
            key, _, value = line.partition(":")
            if key.strip() in ("L2 cache", "L3 cache"):
                caches[key.strip()] = value.strip()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        **{var: os.environ.get(var) for var in THREAD_VARS},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **caches,
    }


def scaled(seconds: float, before: float, after: float) -> float:
    """Wall seconds at the nominal host speed, from the readings around them."""
    import reference

    return seconds * reference.NOMINAL_SECONDS / (0.5 * (before + after))


def setup_seconds(repeats: int, clock: Callable[[], float]) -> List[float]:
    """Scaled wall time of fresh interpreters that only import riccatint.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    before = clock()
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import riccatint.cli"],
                              env=env, capture_output=True, text=True, timeout=120)
        seconds = time.perf_counter() - start
        if proc.returncode != 0:
            raise SystemExit(f"importing riccatint.cli failed:\n{proc.stderr}")
        after = clock()
        samples.append(scaled(seconds, before, after))
        before = after
    return samples


def load_solution(path: Path, n: int):
    """P samples of a solution CSV as a (nodes, n, n) array."""
    import numpy as np

    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, 1:].reshape(-1, n, n)


def sup_gap(a, b) -> float:
    """Sup over nodes of the spectral norm of a - b."""
    import numpy as np

    if a.shape != b.shape:
        return float("inf")
    return float(np.linalg.svd(a - b, compute_uv=False).max())


@dataclass
class Command:
    name: str
    seconds: float         # wall time
    failure: str = ""      # the gate that failed; empty when the command passed
    scaled: float = float("nan")   # wall time at the nominal host speed

    @property
    def ok(self) -> bool:
        return not self.failure


class Job:
    """The three commands on one problem file, each behind its gate.

    * solve: exit 0, and the run JSON shows the path the workload exists for
      (symmetric mode with invariant records, or Picard windows);
    * check: exit 0 with every residual gate PASS;
    * oracle: exit 0, and the sup spectral-norm gap between its CSV and the
      solve CSV is at most ``GAP_BOUND``.
    """

    def __init__(self, cli, workload, problem: Path, out: Path):
        self.cli = cli
        self.workload = workload
        self.problem = problem
        self.recorder = None       # a tracing.Recorder while the run is traced
        stem = problem.stem
        self.solve_dir = out / "solve"
        self.oracle_dir = out / "oracle"
        self.solution = self.solve_dir / f"{stem}_P.csv"
        self.oracle_solution = self.oracle_dir / f"{stem}_P.csv"
        self.run_record: dict = {}

    def _call(self, name: str, argv: List[str]):
        span = (self.recorder.span(f"cli.{name}") if self.recorder is not None
                else contextlib.nullcontext())
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with span:
                start = time.perf_counter()
                try:
                    code = self.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception:  # a leaked error is a failed command
                    code = "raised " + traceback.format_exc(limit=-3)
                seconds = time.perf_counter() - start
        failure = "" if code == 0 else f"{name}: exit {code}"
        if failure and err.getvalue().strip():
            failure += f" ({err.getvalue().strip().splitlines()[-1]})"
        return Command(name, seconds, failure), out.getvalue()

    def solve(self) -> Command:
        cmd, _ = self._call("solve", ["solve", str(self.problem),
                                      "--out", str(self.solve_dir)])
        if cmd.ok:
            cmd.failure = self._path_failure()
        return cmd

    def _path_failure(self) -> str:
        stem = self.problem.stem
        record = json.loads((self.solve_dir / f"{stem}_run.json").read_text())
        self.run_record = record
        expected = self.workload.symmetric
        section = "invariants" if expected else "intervals"
        if record.get("symmetric_mode") is not expected \
                or section not in record.get("diagnostics", {}):
            return (f"solve: path changed (symmetric_mode="
                    f"{record.get('symmetric_mode')}, expected {expected} "
                    f"with diagnostics.{section})")
        return ""

    def check(self) -> Command:
        cmd, out = self._call("check", ["check", str(self.problem), str(self.solution)])
        if cmd.ok:
            passed = {line.split()[0] for line in out.splitlines()
                      if line.rstrip().endswith(" PASS")}
            missing = [gate for gate in CHECK_GATES if gate not in passed]
            if missing:
                cmd.failure = f"check: gates not PASS: {', '.join(missing)}"
        return cmd

    def oracle(self) -> Command:
        cmd, _ = self._call("oracle", ["oracle", str(self.problem),
                                       "--out", str(self.oracle_dir)])
        if cmd.ok:
            n = self.workload.dimension
            try:
                gap = sup_gap(load_solution(self.solution, n),
                              load_solution(self.oracle_solution, n))
            except (OSError, ValueError) as exc:
                gap, cmd.failure = float("nan"), f"oracle: cannot compare ({exc})"
            if not gap <= GAP_BOUND and not cmd.failure:
                cmd.failure = f"oracle: gap {gap:.3e} to solve exceeds {GAP_BOUND}"
        return cmd

    def run(self, clock: Callable[[], float]) -> List[Command]:
        """The three commands, each timed between two readings of ``clock``."""
        commands = []
        before = clock()
        for step in (self.solve, self.check, self.oracle):
            cmd = step()
            after = clock()
            cmd.scaled = scaled(cmd.seconds, before, after)
            commands.append(cmd)
            before = after
        return commands


def probe_march(cli, job: Job, recorder) -> None:
    """One implicit march at the solved P: the core of one monotone step.

    Q1 = B P, Q2 = P B and Q12 = C + P B P, as ``riccati`` passes them.  The
    problem is rebuilt outside any span so only the march is recorded.
    """
    from riccatint.evolution import OperatorFunction
    from riccatint.lyapunov import LinearIntegralProblem, solve_both_perturbed

    problem, _ = cli.ProblemFile.from_path(job.problem).build()
    p = load_solution(job.solution, job.workload.dimension)
    b = problem.B.values
    grid = problem.grid
    linear = LinearIntegralProblem(
        problem.U_forward, problem.U_backward,
        OperatorFunction(grid, problem.C.values + p @ b @ p), problem.G,
        Q1=OperatorFunction(grid, b @ p), Q2=OperatorFunction(grid, p @ b))
    with recorder.span("lyapunov.solve_both_perturbed"):
        solve_both_perturbed(linear)


def file_layer_row(recorder, file: int, job: Job) -> Dict[str, float]:
    """Per-layer values of one traced file, summed over its three commands."""
    spans = [(i, s) for i, s in enumerate(recorder.spans) if s.file == file]
    child_time: Dict[int, float] = {}
    for _, s in spans:
        if s.parent >= 0:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.end - s.start
    row: Dict[str, float] = {}
    self_time: Dict[str, float] = {}
    for i, s in spans:
        row[f"{s.name}_s"] = row.get(f"{s.name}_s", 0.0) + s.end - s.start
        row[f"{s.name}.calls"] = row.get(f"{s.name}.calls", 0) + 1
        self_time[s.name] = self_time.get(s.name, 0.0) + s.end - s.start \
            - child_time.get(i, 0.0)
    for name in COMMANDS:
        row[f"cli.{name}.other_s"] = self_time.get(f"cli.{name}", 0.0)
    diag = job.run_record.get("diagnostics", {})
    intervals = diag.get("intervals") or []
    iterations = diag.get("iterations", 0) if job.workload.symmetric else 0
    row["riccati.monotone_iterations"] = iterations
    # derived: solve_monotone minus its hypothesis/residual children, minus
    # the marches (iterations x one probed march)
    row["riccati.monotone_bookkeeping_s"] = (
        self_time.get("riccati.solve_monotone", 0.0)
        - iterations * row.get("lyapunov.solve_both_perturbed_s", 0.0))
    row["riccati.picard_windows"] = len(intervals)
    row["riccati.picard_sweeps"] = sum(c["iterations"] for c in intervals)
    row["evolution.expm_calls"] = recorder.counts.get((file, "evolution.expm"), 0)
    row["oracle.rk4_steps"] = row.get("oracle.rk4.calls", 0) * \
        job.run_record.get("grid", {}).get("steps", 0)
    row["cli.csv_bytes"] = job.solution.stat().st_size if job.solution.exists() else 0
    return row


def run_workload(cli, workload, seed: int, seconds: float, trace: bool,
                 work: Path, steps: Optional[int] = None) -> dict:
    """Run one workload; returns the result object and the report."""
    import problems
    import reference
    from tracing import Recorder, instrumented

    report: dict = {"workload": workload.name, "seed": seed,
                    "environment": environment_stamp()}
    readings: List[float] = []

    def clock() -> float:
        readings.append(reference.reading())
        return readings[-1]

    setup = [] if trace else setup_seconds(SETUP_REPEATS, clock)
    commands: List[Command] = []

    warm = Job(cli, workload, problems.write_problem(
        work / "warmup.json", workload, seed, 0, steps=WARMUP_STEPS), work / "warmup")
    commands += warm.run(clock)

    plain: Dict[str, List[float]] = {name: [] for name in COMMANDS}
    traced: Dict[str, List[float]] = {name: [] for name in COMMANDS}
    wall: Dict[str, List[float]] = {name: [] for name in COMMANDS}
    recorder = Recorder()
    rows = []
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        path = problems.write_problem(work / f"p{index}.json", workload, seed,
                                      index, steps=steps)
        job = Job(cli, workload, path, work / f"out{index}")
        for cmd in job.run(clock):
            plain[cmd.name].append(cmd.scaled)
            wall[cmd.name].append(cmd.seconds)
            commands.append(cmd)
        if trace:
            recorder.file = index
            job.recorder = recorder
            with instrumented(recorder):
                run_cmds = job.run(clock)
            job.recorder = None
            for cmd in run_cmds:
                traced[cmd.name].append(cmd.scaled)
                commands.append(cmd)
            if workload.symmetric:
                probe_march(cli, job, recorder)
            # layer times scale like the traced commands they sit in
            factor = sum(c.scaled for c in run_cmds) / sum(c.seconds for c in run_cmds)
            row = file_layer_row(recorder, index, job)
            rows.append({key: value * factor if key.endswith("_s") else value
                         for key, value in row.items()})
        index += 1

    failures = [cmd.failure for cmd in commands if not cmd.ok]
    report.update({
        "files": index,
        "samples": {name: len(plain[name]) for name in COMMANDS},
        "error_rate": len(failures) / len(commands),
        "wall_median_s": {name: statistics.median(wall[name]) for name in COMMANDS},
        "reference_s": {"nominal": reference.NOMINAL_SECONDS,
                        "median": statistics.median(readings),
                        "min": min(readings), "max": max(readings)},
        "failures": failures[:10],
        "tail_percentiles": "omitted: fewer than 10 samples beyond p90",
    })
    if trace:
        metrics = {name: {"value": statistics.median(row.get(name, 0.0) for row in rows),
                          "unit": unit}
                   for name, unit in LAYER_METRICS}
        for name in COMMANDS:
            metrics[f"tracing_overhead.{name}"]["value"] = (
                statistics.median(traced[name]) / statistics.median(plain[name]) - 1.0)
        report["traced_samples"] = {name: len(traced[name]) for name in COMMANDS}
        report["derived"] = ["riccati.monotone_bookkeeping_s"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            **{f"{name}_s": {"value": statistics.median(plain[name]), "unit": "s"}
               for name in COMMANDS},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"},
        }
        report["setup_samples"] = len(setup)
    result = {"correct": not failures, "attempted": len(commands),
              "failed": len(failures), "metrics": metrics}
    return {"result": result, "report": report}


def parse_args(argv=None) -> argparse.Namespace:
    import problems

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(problems.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    args.workload = problems.WORKLOADS[args.workload]
    return args


def main(argv=None) -> int:
    configure_threads()     # before anything imports numpy
    args = parse_args(argv)
    cli = import_cli()
    with tempfile.TemporaryDirectory(prefix=".bench_run-", dir=ROOT) as work:
        out = run_workload(cli, args.workload, args.seed, args.seconds,
                           bool(args.trace), Path(work))
    print(json.dumps(out["report"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
