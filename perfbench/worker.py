"""One measured process of the qcooling benchmark.

Started by run.py with the BLAS thread count already pinned in its
environment.  It times ``import qcooling`` and the first call into each
layer the workload uses (set-up), then runs the workload's job list in
passes until ``--seconds`` have elapsed, gating every job against its
oracle.  Between jobs it runs the workload's calibration kernel and
divides each job's time by the kernel's mean slowdown around it, so
reported times are at the reference speed of calibrate.py; raw pass times
are kept beside them.  It prints one JSON summary as the last line of
standard output.

    python3 perfbench/worker.py --workload verify --seed 1 --seconds 5 [--trace]
    python3 perfbench/worker.py --workload verify --setup-only
"""

import argparse
import bisect
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"             # temporary CLI output lives under here
# Calibration kernel time kept at this share of job time (calibrate.py),
# and the reach in time of the kernel runs that a job's time is divided by.
PROBE_SHARE = 0.2
WINDOW_S = 0.5


def _parse(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def _environment():
    import numpy as np
    from importlib import metadata
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy_version, "blas": blas, "nproc": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def _traced_functions(modules):
    """Layer-call boundaries: each function with the span name and counts it
    records.  ``steps`` is computed from the call's dt and t_end."""
    lindblad, ladder, laws, correlators, checks, cli = modules

    def steps(cfg):
        return int(round(cfg.t_end / cfg.dt))

    def cli_name(argv, *_, **__):
        sub = argv[0]
        if sub == "simulate":
            sub += "_" + argv[argv.index("--law") + 1]
        return f"cli.{sub}", {}

    return {
        lindblad.integrate: lambda rho0, model, cfg: (
            "lindblad.integrate", {"dim": rho0.shape[0], "steps": steps(cfg)}),
        ladder.evolve_populations: lambda p0, model, cfg: (
            "ladder.evolve_populations", {"dim": len(p0), "steps": steps(cfg)}),
        laws.evaluate_law: lambda *a, **k: ("laws.evaluate_law", {}),
        correlators.brute_force_four_point: lambda ops, n_bar, dim: (
            "correlators.four_point", {"dim": dim}),
        correlators.evolved_spectral_density: lambda grid, *a, **k: (
            "correlators.spectral", {"modes": len(grid.frequencies)}),
        checks.wick_suite: lambda *a, **k: ("checks.wick", {}),
        checks.ladder_equivalence_suite: lambda: ("checks.ladder_equiv", {}),
        checks.spectral_suite: lambda: ("checks.spectral", {}),
        cli.main: cli_name,
    }


class _Tally:
    """Gate outcomes of every job run, by the job's gate."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.failed_by_gate, self.err_max, self.counts = {}, {}, {}
        self.failures = []

    def add(self, i, job, ok, err, counts, problem):
        gate = job["gate"]
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failed_by_gate[gate] = self.failed_by_gate.get(gate, 0) + 1
            if len(self.failures) < 20:
                self.failures.append(f"job {i} ({job['kind']}): {problem}")
        if err is not None and math.isfinite(err):
            self.err_max[gate] = max(self.err_max.get(gate, 0.0), err)
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value


def _normalise(job_list, samples, executions, passes):
    """Each job's time over the mean slowdown, within WINDOW_S of it, of the
    calibration part that does its kind of work."""
    stamps = [t for t, _ in samples]
    latencies = [[] for _ in job_list]
    pass_walls = [0.0] * passes
    for p, i, j0, j1 in executions:
        near = samples[bisect.bisect_left(stamps, j0 - WINDOW_S):
                       bisect.bisect_right(stamps, j1 + WINDOW_S)]
        work = job_list[i]["work"]
        latency = (j1 - j0) / statistics.mean(s[work] for _, s in near)
        latencies[i].append(latency)
        pass_walls[p] += latency
    return [statistics.median(lat) for lat in latencies], pass_walls


def _measure(args, jobs, calibrate, tracing) -> dict:
    job_list = jobs.make_jobs(args.workload, args.seed)
    reference = jobs.load_reference() if args.workload == "matrix-coherent" else {}
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        from qcooling import checks, cli, correlators, ladder, laws, lindblad
        modules = (lindblad, ladder, laws, correlators, checks, cli)
        tracing.instrument(tracer, modules, _traced_functions(modules))
        span = tracer.span
    else:
        span = lambda name, **attrs: nullcontext()

    samples = []        # (time, {part: slowdown}) of each calibration kernel run
    executions = []     # (pass, job index, start, end)

    def probe(job_s, probe_s):
        """Run the kernel until it has taken PROBE_SHARE of the pass's job
        time, at least once; returns the pass's kernel time."""
        with span("calibration.kernel"):
            while True:
                k0 = time.perf_counter()
                found = calibrate.slowdowns(args.workload)
                k1 = time.perf_counter()
                samples.append((0.5 * (k0 + k1), found))
                probe_s += k1 - k0
                if probe_s >= PROBE_SHARE * job_s:
                    return probe_s

    tally, raw_walls = _Tally(), []
    OUT.mkdir(exist_ok=True)
    deadline = time.perf_counter() + args.seconds
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        while not raw_walls or time.perf_counter() < deadline:
            p0 = time.perf_counter()
            job_s = 0.0
            with span("workload"):
                probe_s = probe(0.0, 0.0)
                for i, job in enumerate(job_list):
                    j0 = time.perf_counter()
                    with span("job", index=i):
                        try:
                            ok, err, counts = jobs.run_job(job, scratch, reference)
                            problem = f"missed its gate, err={err}"
                        except Exception as exc:     # a failing job stays counted
                            ok, err, counts, problem = False, None, {}, repr(exc)
                    j1 = time.perf_counter()
                    executions.append((len(raw_walls), i, j0, j1))
                    job_s += j1 - j0
                    probe_s = probe(job_s, probe_s)
                    tally.add(i, job, ok, err, counts, problem)
            raw_walls.append(time.perf_counter() - p0)

    job_latency_s, pass_walls = _normalise(job_list, samples, executions,
                                           len(raw_walls))
    return dict(
        vars(tally), jobs=len(job_list), passes=len(raw_walls),
        pass_walls=pass_walls, raw_walls=raw_walls, job_latency_s=job_latency_s,
        slowdown=statistics.median(statistics.mean(s.values()) for _, s in samples),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=_environment(), spans=tracer.spans if tracer else None)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "qcooling" / "__init__.py").is_file():
        print(f"perfbench: no qcooling source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    t0 = time.perf_counter()
    import qcooling
    import_s = time.perf_counter() - t0
    import calibrate
    import jobs
    import tracing
    if args.workload not in jobs.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    jobs.warm_up(args.workload)
    warmup_s = time.perf_counter() - t0
    calibrate.import_slowdown()                     # the kernel's own first call
    slow = statistics.median(calibrate.import_slowdown() for _ in range(5))
    summary = {"import_s": import_s / slow, "warmup_s": warmup_s / slow,
               "setup_slowdown": slow}
    if not args.setup_only:
        summary.update(_measure(args, jobs, calibrate, tracing))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
