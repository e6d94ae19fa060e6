"""Interleaved in-process A/B timing of one benchmark workload's jobs.

Loads the ``qcooling`` package of two source trees into one process, each
bound to its own copy of ``perfbench/jobs.py`` (read, not changed), runs
every job on A and B alternately, ``--repeat`` times each, and prints the
best times summed per rate law (or job kind) and their ratio B / A, and
the lowest and highest B / A of one repeat, the ratio of the two sides'
summed times in it, which shows how far one pass can stray.  Every
run must pass its oracle gate.  One process holds both sides, so a noisy
host moves both alike and no per-process calibration plays a part.  One
more, untimed run of each job per side keeps the trajectories that its
calls of ``integrate`` and ``evolve_populations`` return, under each name
a job reaches them by (``lindblad``, ``ladder``, and the ``cli`` and
``checks`` imports), and the report counts, per law or job kind, the jobs
whose populations, purity and final state are bit-identical on A and B,
with the largest differences.  When A and B are the same tree, a job whose
trajectories differ in any bit fails the run, as a failed gate does:

    OPENBLAS_NUM_THREADS=1 python tools/ab_jobs.py /path/to/parent/src src \\
        --workload ladder-sweep --seeds 1 2 3
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(src: str, tag: str):
    """perfbench's jobs module bound to the qcooling package under ``src``."""
    for name in [m for m in sys.modules if m.split(".")[0] == "qcooling"]:
        del sys.modules[name]
    sys.path.insert(0, str(Path(src).resolve()))
    try:
        spec = importlib.util.spec_from_file_location(f"jobs_{tag}", PERFBENCH / "jobs.py")
        jobs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(jobs)
    finally:
        sys.path.pop(0)
    return jobs


def captured(jobs, job, scratch, reference):
    """(passed its gate, the trajectories it recorded) of one untimed run
    of ``job`` on the side ``jobs``."""
    kept = []

    def keeping(call):
        def wrapper(*args, **kwargs):
            kept.append(call(*args, **kwargs))
            return kept[-1]
        return wrapper

    names = [(jobs.lindblad, "integrate"), (jobs.ladder, "evolve_populations"),
             (jobs.cli, "integrate"), (jobs.cli, "evolve_populations"),
             (jobs.checks, "integrate")]
    calls = [getattr(module, name) for module, name in names]
    for (module, name), call in zip(names, calls):
        setattr(module, name, keeping(call))
    try:
        ok = jobs.run_job(job, scratch, reference)[0]
    finally:
        for (module, name), call in zip(names, calls):
            setattr(module, name, call)
    return ok, kept


def identical(a, b) -> bool:
    """Whether two arrays (or two Nones) hold the same bits."""
    if a is None or b is None:
        return a is b
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="source tree A (the directory holding qcooling/)")
    parser.add_argument("b", help="source tree B")
    parser.add_argument("--workload", default="ladder-sweep")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    one_tree = Path(args.a).resolve() == Path(args.b).resolve()
    sides = {"A": load(args.a, "a"), "B": load(args.b, "b")}
    best, count, failed = {side: defaultdict(float) for side in sides}, defaultdict(int), 0
    # per side and law or job kind, the summed time of each repeat
    summed = {side: defaultdict(lambda: [0.0] * args.repeat) for side in sides}
    # per law or job kind: trajectory jobs, bit-identical ones, largest |dp| and
    # |dpurity| / purity
    same = defaultdict(lambda: [0, 0, 0.0, 0.0])
    with tempfile.TemporaryDirectory() as scratch:
        for jobs in sides.values():
            jobs.warm_up(args.workload)
        reference = sides["A"].load_reference()
        for seed in args.seeds:
            for job in sides["A"].make_jobs(args.workload, seed):
                key = job.get("law", job["kind"])
                count[key] += 1
                times = {side: [] for side in sides}
                for r in range(args.repeat):
                    for side in ("A", "B") if r % 2 == 0 else ("B", "A"):
                        t0 = time.perf_counter()
                        ok = sides[side].run_job(job, scratch, reference)[0]
                        times[side].append(time.perf_counter() - t0)
                        failed += not ok
                for side in sides:
                    best[side][key] += min(times[side])
                    for r, t in enumerate(times[side]):
                        summed[side][key][r] += t
                kept = {}
                for side in sides:
                    ok, kept[side] = captured(sides[side], job, scratch, reference)
                    failed += not ok
                if not kept["A"]:
                    continue
                tally = same[key]
                tally[0] += 1
                tally[1] += len(kept["A"]) == len(kept["B"]) and all(
                    identical(getattr(a, f), getattr(b, f))
                    for a, b in zip(kept["A"], kept["B"])
                    for f in ("populations", "purity", "final_state"))
                for a, b in zip(kept["A"], kept["B"]):
                    tally[2] = max(tally[2], float(abs(a.populations - b.populations).max()))
                    tally[3] = max(tally[3], float((abs(a.purity - b.purity) / a.purity).max()))
    print(f"{args.workload}, seeds {args.seeds}, best of {args.repeat}; {failed} failed gates")
    print(f"{'law':>12} {'jobs':>5} {'A ms':>9} {'B ms':>9} {'B/A':>7} {'min B/A':>7} "
          f"{'max B/A':>7}")
    for key in [*sorted(count), "all"]:
        a, b = (sum(t.values()) if key == "all" else t[key] for t in best.values())
        jobs = sum(count.values()) if key == "all" else count[key]
        ra, rb = (list(map(sum, zip(*t.values()))) if key == "all" else t[key]
                  for t in summed.values())
        ratios = [y / x for x, y in zip(ra, rb)]
        print(f"{key:>12} {jobs:>5} {1e3 * a:9.1f} {1e3 * b:9.1f} {b / a:7.3f} "
              f"{min(ratios):7.3f} {max(ratios):7.3f}")
    if same:
        print("trajectory output, B against A (populations, purity and final state)")
        print(f"{'law':>12} {'jobs':>5} {'identical':>9} {'max |dp|':>9} {'max rel dpurity':>15}")
        for key, (jobs, equal, dp, dpurity) in sorted(same.items()):
            print(f"{key:>12} {jobs:>5} {equal:>9} {dp:9.2e} {dpurity:15.2e}")
    differ = sum(jobs - equal for jobs, equal, _, _ in same.values())
    if one_tree and differ:
        print(f"{differ} jobs of one tree gave trajectories that differ in some bit")
    return 1 if failed or (one_tree and differ) else 0


if __name__ == "__main__":
    sys.exit(main())
