"""Benchmark runner for qcooling: time to an accurate trajectory, per workload.

    python3 perfbench/run.py --workload matrix-fock --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5

Each run starts fresh worker processes (worker.py) with the BLAS thread
count pinned: eight set-up-only processes, then the measured one.  With
``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it runs the workload once untraced and once traced (half the
seconds each) and prints the per-layer metrics.  Every metric is printed
with its unit; the last line of standard output is one JSON object.  The
full record (environment, pass timings, job latencies, spans) is written to
``.bench_out/`` at the repository root.  ``--workload all`` runs every
workload in turn and exits non-zero unless every output passed its gate.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

# One BLAS thread (at most nproc): with two, brute_force_four_point at dim
# 200 took 96 ms against 7.7 ms, so verify would time the scheduler.
BLAS_THREADS = 1
SETUP_RUNS = 8
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def _worker(workload: str, *flags: str, timeout: float = 60) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, *flags]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker for {workload} timed out after {timeout} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker for {workload} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def end_to_end(setups: list, run: dict) -> dict:
    lat = sorted(run["job_latency_s"])
    worst = max(run["err_max"].values(), default=0.0)
    return {
        "setup_s": statistics.median(s["import_s"] + s["warmup_s"] for s in setups),
        "wall_s": statistics.median(run["pass_walls"]),
        "job_p50_ms": statistics.median(lat) * 1e3,
        # the latency with exactly ten jobs beyond it
        "job_tail_ms": lat[len(lat) - 11] * 1e3,
        "peak_rss_mb": run["peak_rss_mb"],
        "oracle_digits": -math.log10(max(worst, 1e-16)),
        "passed_frac": 1.0 - run["failed"] / run["attempted"],
    }


def per_layer(setups: list, plain: dict, run: dict) -> dict:
    """Per-layer figures of the traced run, per pass; span times are divided
    by the run's median calibration slowdown like the end-to-end times."""
    spans, passes, slow = run["spans"], run["passes"], run["slowdown"]
    named = tracing.summarize(spans)
    busy = tracing.layer_busy(spans)
    err, failed, counts = run["err_max"], run["failed_by_gate"], run["counts"]

    def busy_s(layer):
        return busy.get(layer, 0.0) / slow / passes

    def span(name, field="total_s"):
        value = named.get(name, {}).get(field, 0) / passes
        return value / slow if field.endswith("_s") else value

    def per_call(name, scale):
        entry = named.get(name)
        return entry["total_s"] / slow / entry["calls"] * scale if entry else 0.0

    def per_step(name):
        entry = named.get(name)
        return entry["total_s"] / slow / entry["steps"] * 1e6 if entry else 0.0

    metrics = {}
    for layer, name in (("lindblad", "lindblad.integrate"),
                        ("ladder", "ladder.evolve_populations")):
        metrics.update({
            f"{layer}.busy_s": busy_s(layer),
            f"{layer}.calls": span(name, "calls"),
            f"{layer}.steps": span(name, "steps"),
            **{f"{layer}.step_us.d{d}": per_step(f"{name}@dim{d}")
               for d in (48, 200, 800)},
            f"{layer}.oracle_err_max": err.get(layer, 0.0),
            f"{layer}.failed": failed.get(layer, 0),
        })
    lat = run["job_latency_s"]
    metrics.update({
        "laws.busy_s": busy_s("laws"),
        "laws.calls": span("laws.evaluate_law", "calls"),
        "correlators.four_point_busy_s": span("correlators.four_point", "self_s"),
        "correlators.four_point_calls": span("correlators.four_point", "calls"),
        "correlators.four_point_ms.d200": per_call("correlators.four_point@dim200", 1e3),
        "correlators.four_point_ms.d400": per_call("correlators.four_point@dim400", 1e3),
        "correlators.wick_rel_err_max": err.get("four_point", 0.0),
        "correlators.spectral_busy_s": span("correlators.spectral", "self_s"),
        "correlators.spectral_calls": span("correlators.spectral", "calls"),
        "correlators.spectral_ms.m801": per_call("correlators.spectral@modes801", 1e3),
        "correlators.spectral_ms.m3201": per_call("correlators.spectral@modes3201", 1e3),
        "correlators.slope_dev_max": err.get("spectral", 0.0),
        "checks.busy_s": busy_s("checks"),
        "checks.wick_s": span("checks.wick"),
        "checks.ladder_equiv_s": span("checks.ladder_equiv"),
        "checks.spectral_s": span("checks.spectral"),
        "checks.failed": counts.get("checks_failed", 0),
        "cli.busy_s": busy_s("cli"),
        "cli.simulate_lindblad_s": span("cli.simulate_lindblad"),
        "cli.simulate_ladder_s": span("cli.simulate_ladder"),
        "cli.verify_s": span("cli.verify"),
        "cli.csv_rows": counts.get("csv_rows", 0) / passes,
        "cli.exit_nonzero": counts.get("exit_nonzero", 0),
        "setup.import_s": statistics.median(s["import_s"] for s in setups),
        "setup.warmup_s": statistics.median(s["warmup_s"] for s in setups),
        "bench.self_s": busy_s("bench"),
        "bench.jobs": len(lat),
        "bench.tail_pct": 100.0 * (len(lat) - 10) / len(lat),
        "bench.failed_frac": run["failed"] / run["attempted"],
        "trace.overhead_frac": (statistics.median(run["pass_walls"])
                                / statistics.median(plain["pass_walls"]) - 1.0),
        "trace.accounted_frac": sum(busy.values()) / sum(run["raw_walls"]),
        "calibration.busy_s": busy_s("calibration"),
        "calibration.slowdown": slow,
    })
    return metrics


def measure(spec: dict, workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (result object, full record)."""
    setups = [_worker(workload, "--setup-only") for _ in range(SETUP_RUNS)]
    timed = ["--seed", str(seed)]
    if trace:
        half = str(max(seconds / 2, 1.0))
        plain = _worker(workload, *timed, "--seconds", half, timeout=WORKER_TIMEOUT_S)
        run = _worker(workload, *timed, "--seconds", half, "--trace",
                      timeout=WORKER_TIMEOUT_S)
        runs = [plain, run]
        values = per_layer(setups + [plain, run], plain, run)
        names = spec["per_layer"]
    else:
        run = _worker(workload, *timed, "--seconds", str(seconds),
                      timeout=WORKER_TIMEOUT_S)
        runs = [run]
        values = end_to_end(setups + [run], run)
        names = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in names}
    result = {"correct": all(r["failed"] == 0 for r in runs),
              "attempted": sum(r["attempted"] for r in runs),
              "failed": sum(r["failed"] for r in runs), "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "commit": _commit(), "blas_threads": BLAS_THREADS,
              "env": run["env"], "result": result, "setups": setups,
              "runs": runs}
    return result, record


def _report(workload: str, result: dict, run_info: dict) -> None:
    print(f"{workload}: {run_info['jobs']} jobs x {run_info['passes']} passes, "
          f"job_tail_ms at p{100.0 * (run_info['jobs'] - 10) / run_info['jobs']:.1f}, "
          f"failed {result['failed']}/{result['attempted']}")
    for failure in run_info["failures"]:
        print(f"  FAILED {failure}")
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    chosen = workloads if args.workload == "all" else [args.workload]
    results = {}
    try:
        for workload in chosen:
            result, record = measure(spec, workload, args.seed, args.seconds,
                                     bool(args.trace))
            OUT.mkdir(exist_ok=True)
            path = OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(record))
            if workload == chosen[0]:
                env = record["env"]
                print(f"commit {record['commit']}, seed {args.seed}, BLAS threads "
                      f"{BLAS_THREADS}, nproc {env['nproc']}, python {env['python']}, "
                      f"numpy {env['numpy']}, scipy {env['scipy']}, {env['blas']}")
            _report(workload, result, record["runs"][-1])
            results[workload] = result
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    combined = {"correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}.{name}": m for w, r in results.items()
                            for name, m in r["metrics"].items()}}
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
