"""Record the purity reference of the matrix-coherent job catalogue.

Each catalogue entry is integrated twice with ``lindblad.integrate``: at the
benchmark's step and at a quarter of it.  The quarter-step purities (RK4
error 256 times smaller) are stored as the reference, and the script fails
unless the benchmark-step run already agrees with them to a fifth of the
gate tolerance, so that a more exact propagator still passes the gate.

    python3 perfbench/reference.py      # rewrites perfbench/purity_ref.json
"""

import json
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np

import jobs
from qcooling import lindblad


def _purity(job: dict, refine: int) -> np.ndarray:
    model = lindblad.RateModel(lindblad.RateLaw(job["law"]), job["gamma"],
                               job["n_res"])
    dt = job["dt"] / refine
    cfg = lindblad.IntegratorConfig(dt=dt, t_end=job["steps"] * refine * dt,
                                    record_every=job["record_every"] * refine)
    return lindblad.integrate(jobs.initial_rho(job["state"], job["dim"]),
                              model, cfg).purity


def main() -> int:
    catalogue = [jobs.COHERENT_ANCHOR] + [
        jobs.coherent_job(dim, law, steps, v)
        for dim, law, steps in jobs.COHERENT_TYPES
        for v in range(jobs.COHERENT_VARIANTS)]
    purity, worst = {}, 0.0
    for job in catalogue:
        fine = _purity(job, 4)
        coarse = _purity(job, 1)
        dev = float(np.max(np.abs(coarse - fine) / fine))
        worst = max(worst, dev)
        print(f"{job['ref']}: {dev:.2e}")
        purity[job["ref"]] = fine.tolist()
    print(f"{len(catalogue)} entries, worst benchmark-step deviation {worst:.2e}")
    if worst > jobs.TRAJ_TOL / 5:
        print("benchmark step too coarse for the purity gate", file=sys.stderr)
        return 1
    with open(jobs.REFERENCE_PATH, "w") as fh:
        json.dump({"refine": 4, "worst_step_deviation": worst,
                   "purity": purity}, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
