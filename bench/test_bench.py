"""Tests of the benchmark harness itself, at tiny problem sizes.

    python3 -m pytest bench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import problems
import reference
import run
from tracing import SPANNED, Recorder, instrumented

CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY_STEPS = 40


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


@pytest.fixture
def quick_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def test_generator_is_byte_identical_for_a_seed(tmp_path):
    for workload in problems.WORKLOADS.values():
        a = problems.write_problem(tmp_path / "a.json", workload, 7, 3).read_bytes()
        b = problems.write_problem(tmp_path / "b.json", workload, 7, 3).read_bytes()
        other = problems.write_problem(tmp_path / "c.json", workload, 8, 3).read_bytes()
        assert a == b
        assert a != other


def test_contract_workloads_are_defined_here():
    for entry in CONTRACT["workloads"]:
        assert problems.WORKLOADS[entry["name"]].why == entry["why"]


@pytest.mark.parametrize("workload", list(problems.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric(cli, quick_setup, tmp_path, workload, trace):
    out = run.run_workload(cli, problems.WORKLOADS[workload], seed=0, seconds=0.01,
                           trace=trace, work=tmp_path, steps=TINY_STEPS)
    result, report = out["result"], out["report"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
    assert report["error_rate"] == 0.0
    expected = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        layers = result["metrics"]
        assert layers["cli.build.calls"]["value"] == 3
        assert layers["evolution.expm_calls"]["value"] == 3 * TINY_STEPS
        assert layers["oracle.rk4_steps"]["value"] == TINY_STEPS
        if problems.WORKLOADS[workload].symmetric:
            assert layers["riccati.monotone_iterations"]["value"] > 0
            assert layers["lyapunov.solve_both_perturbed_s"]["value"] > 0
        else:
            assert layers["riccati.picard_windows"]["value"] > 0
            assert layers["riccati.solve_monotone_s"]["value"] == 0


def _corrupt(csv: Path) -> None:
    """Add 0.5 to every entry of P, keeping the file well-formed."""
    lines = csv.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    body = [",".join([r[0]] + [repr(float(v) + 0.5) for v in r[1:]]) for r in rows]
    csv.write_text("\n".join([lines[0]] + body) + "\n")


def test_corrupted_solution_counts_in_error_rate(cli, quick_setup, tmp_path, monkeypatch):
    real_check = run.Job.check

    def corrupting_check(job):
        _corrupt(job.solution)
        return real_check(job)

    monkeypatch.setattr(run.Job, "check", corrupting_check)
    out = run.run_workload(cli, problems.WORKLOADS["mono-narrow-long"], seed=0,
                           seconds=0.01, trace=False, work=tmp_path, steps=TINY_STEPS)
    result, report = out["result"], out["report"]
    jobs = result["attempted"] // 3
    # every check fails its residual gates, every oracle its gap to solve
    assert result["failed"] == 2 * jobs and not result["correct"]
    assert report["error_rate"] == pytest.approx(2 / 3)
    assert any(f.startswith("check: exit 1") for f in report["failures"])
    assert any(f.startswith("oracle: gap") for f in report["failures"])


def test_path_change_fails_the_solve(cli, tmp_path):
    workload = problems.WORKLOADS["picard-general"]
    path = problems.write_problem(tmp_path / "p.json", workload, 0, 0, steps=TINY_STEPS)
    doc = json.loads(path.read_text())
    doc["solver"] = "oracle"           # exits 0, but records no Picard windows
    path.write_text(json.dumps(doc))
    cmd = run.Job(cli, workload, path, tmp_path / "out").solve()
    assert not cmd.ok and cmd.failure.startswith("solve: path changed")


def test_command_times_are_scaled_by_the_readings_around_them(cli, tmp_path):
    workload = problems.WORKLOADS["picard-general"]
    path = problems.write_problem(tmp_path / "p.json", workload, 0, 0, steps=TINY_STEPS)
    readings = iter([1.0, 3.0, 2.0, 2.0])     # x NOMINAL_SECONDS

    def clock():
        return next(readings) * reference.NOMINAL_SECONDS

    solve, check, oracle = run.Job(cli, workload, path, tmp_path / "out").run(clock)
    assert solve.scaled == pytest.approx(solve.seconds / 2.0)
    assert check.scaled == pytest.approx(check.seconds / 2.5)
    assert oracle.scaled == pytest.approx(oracle.seconds / 2.0)


def test_leaked_exception_is_a_failed_command(cli, tmp_path, monkeypatch):
    def leak(argv):
        raise RuntimeError("leaked")

    monkeypatch.setattr(cli, "main", leak)
    workload = problems.WORKLOADS["picard-general"]
    path = problems.write_problem(tmp_path / "p.json", workload, 0, 0, steps=TINY_STEPS)
    cmd = run.Job(cli, workload, path, tmp_path / "out").check()
    assert not cmd.ok and "RuntimeError: leaked" in cmd.failure


def test_instrumentation_is_removed_after_the_block(cli):
    import riccatint.riccati as riccati
    import riccatint.cli as cli_module

    before = (riccati.check_hypotheses, cli_module.check_hypotheses,
              cli_module.ProblemFile.__dict__["from_path"])
    recorder = Recorder()
    with instrumented(recorder):
        assert riccati.check_hypotheses is not before[0]
        assert cli_module.check_hypotheses is not before[1]
    after = (riccati.check_hypotheses, cli_module.check_hypotheses,
             cli_module.ProblemFile.__dict__["from_path"])
    assert after == before
    assert len({name for _, _, name in SPANNED}) == len(SPANNED)


def test_refuses_more_blas_threads_than_nproc(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(run.nproc() + 1))
    with pytest.raises(SystemExit, match="exceeds nproc"):
        run.configure_threads()


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "picard-general",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "no riccatint sources" in proc.stderr
    assert proc.stdout.strip() == ""
