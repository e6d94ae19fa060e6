"""Tests of the benchmark itself (not collected by the repository's test run,
whose pattern is test_*.py):

    python3 -m pytest -q perfbench/selfcheck.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np

import calibrate
import jobs

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT, timeout=300):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_gives_same_job_list(workload):
    first = jobs.make_jobs(workload, 7)
    assert first == jobs.make_jobs(workload, 7)
    other = jobs.make_jobs(workload, 8)
    assert len(other) == len(first)
    assert other != first


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_every_job_has_a_calibration_part_in_its_workload_kernel(workload):
    parts = set(calibrate.KERNELS[workload])
    assert {job["work"] for job in jobs.make_jobs(workload, 1)} <= parts


@pytest.mark.parametrize("law", ("constant", "scaled", "feedback"))
def test_gate_fails_nbar_shifted_by_ten_tolerances(law):
    job = {"law": law, "gamma": 1.3, "n_res": 1.5}
    n0 = 4.0
    times = np.linspace(0.0, 0.5, 11)
    exact = jobs.nbar_oracle(law, n0, job["n_res"], job["gamma"], times)
    assert jobs.gate_trajectory(times, exact, None, job, n0)[0]
    shifted = exact + 10 * jobs.TRAJ_TOL * max(n0, job["n_res"])
    ok, err = jobs.gate_trajectory(times, shifted, None, job, n0)
    assert not ok and err == pytest.approx(10 * jobs.TRAJ_TOL)


def test_gate_passes_a_real_trajectory_and_fails_its_shift():
    job = jobs.make_jobs("ladder-sweep", 3)[5]
    p0 = jobs.initial_populations(job["state"], job["dim"])
    model = jobs.lindblad.RateModel(jobs.lindblad.RateLaw(job["law"]),
                                    job["gamma"], job["n_res"])
    cfg = jobs.lindblad.IntegratorConfig(dt=job["dt"], t_end=job["steps"] * job["dt"])
    traj = jobs.ladder.evolve_populations(p0, model, cfg)
    n0 = float(np.arange(job["dim"]) @ p0)
    assert jobs.gate_trajectory(traj.times, traj.n_bar, None, job, n0)[0]
    shift = 10 * jobs.TRAJ_TOL * max(n0, job["n_res"])
    assert not jobs.gate_trajectory(traj.times, traj.n_bar + shift, None, job, n0)[0]


@pytest.mark.parametrize("trace,key", ((0, "end_to_end"), (1, "per_layer")))
def test_every_named_metric_is_printed_with_its_unit(trace, key):
    proc = _run("--workload", "ladder-sweep", "--seed", "4", "--seconds", "2",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in lines[:-1]), name
    if trace:
        metrics = {n: m["value"] for n, m in result["metrics"].items()}
        assert metrics["lindblad.busy_s"] == 0.0
        assert metrics["ladder.busy_s"] > 0.0
        assert abs(metrics["trace.accounted_frac"] - 1.0) < 0.01


def test_one_command_runs_every_workload_and_checks_its_outputs():
    proc = _run("--workload", "all", "--seed", "5", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == {f"{w['name']}.{n}" for w in SPEC["workloads"]
                                      for n in names}
    assert all(result["metrics"][f"{w}.passed_frac"]["value"] == 1.0
               for w in jobs.WORKLOADS)


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "verify", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
