"""Machine-speed probe used to report times at a fixed reference speed.

On a shared host the same job list ran anywhere from 1.1 s to 2.1 s
within two minutes, with CPU time tracking wall time: neighbours slow the
core itself, not the scheduling of this process.  A fixed kernel that
never calls qcooling, run between jobs, slows down with them, so dividing
each job's time by the kernel's slowdown around it removes most of that
noise.  Raw wall_s spread between quartiles by 7-29% over five seeds per
workload; divided, by at most 3.6% over ten (BASELINE.md).

Each workload's kernel repeats the shape of its own work with plain numpy
(RK4 steps of a shifted-slice stencil on a vector or a complex matrix, and
complex matmuls), so that it meets the same contention, and each job is
divided by the slowdown of the part that does its kind of work (its
``work`` field).  The kernel never calls qcooling, so a change to the
program does not move it.
"""

import marshal
import time
from pathlib import Path

import numpy as np


def _stencil_rk4(x: np.ndarray, steps: int) -> np.ndarray:
    """RK4 steps of a nearest-neighbour stencil along every axis of x."""
    def rhs(y):
        out = -1.5 * y
        inner = (slice(None, -1),) * y.ndim
        outer = (slice(1, None),) * y.ndim
        out[inner] += 0.5 * y[outer]
        out[outer] += 0.5 * y[inner]
        return out
    h = 1e-3
    for _ in range(steps):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * h * k1)
        k3 = rhs(x + 0.5 * h * k2)
        k4 = rhs(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def _matmul(x: np.ndarray, reps: int) -> np.ndarray:
    for _ in range(reps):
        x = (x @ x) / np.abs(x).max()
    return x


def _vector(n):
    return np.linspace(0.0, 1.0, n)


def _matrix(n):
    v = np.linspace(0.0, 1.0, n)
    return np.outer(v, v[::-1]) * (1 + 0.5j)


# Kernel parts, each standing for one kind of work: (function, operand,
# repetitions, seconds on the reference machine -- a 2-vCPU Intel Xeon VM,
# Python 3.11, numpy 2.4, one OpenBLAS thread -- in a quiet phase).
# Reported times are in seconds of that machine at that speed.
PARTS = {
    "dense48": (_stencil_rk4, _matrix(48), 20, 3.9e-3),
    "dense200": (_stencil_rk4, _matrix(200), 1, 3.7e-3),
    "vector": (_stencil_rk4, _vector(200), 15, 0.7e-3),
    "matmul": (_matmul, _matrix(320), 1, 6.4e-3),
}
# The parts each workload's kernel runs, split in time about as its jobs are
# (verify's matmul part is sized like its four-point traces at dim 400).
KERNELS = {
    "matrix-fock": ("dense48", "dense200"),
    "matrix-coherent": ("dense48", "dense200"),
    "ladder-sweep": ("vector", "vector"),
    "verify": ("dense48", "vector", "matmul"),
}
# Set-up is an import: compiling and unmarshalling Python code tracked its
# time in fresh processes (correlation 0.82; numpy kernels 0.57).
_SOURCE = Path(__file__).with_name("jobs.py").read_text()
IMPORT_REFERENCE_S = 7.0e-3


def slowdowns(workload: str) -> dict:
    """One run of the workload's kernel: per part, its time now over the
    reference (above 1: slower)."""
    found: dict = {}
    for name in KERNELS[workload]:
        func, operand, reps, reference = PARTS[name]
        start = time.perf_counter()
        func(operand, reps)
        found.setdefault(name, []).append((time.perf_counter() - start) / reference)
    return {name: sum(v) / len(v) for name, v in found.items()}


def import_slowdown() -> float:
    """One run of the set-up kernel: its time now over the reference."""
    start = time.perf_counter()
    code = compile(_SOURCE, "jobs.py", "exec")
    for _ in range(5):
        marshal.loads(marshal.dumps(code))
    return (time.perf_counter() - start) / IMPORT_REFERENCE_S
