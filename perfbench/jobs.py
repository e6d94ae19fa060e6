"""Seeded job lists for the four workloads, the calls into qcooling that each
job makes, and the oracle gate that each result must pass.

A job is one trajectory or one check, described by a JSON-serialisable dict.
``make_jobs(workload, seed)`` builds a workload's list from the seed alone.
The costly shape of every list (job count, dims, step counts) is fixed per
workload, so the seed moves the physics parameters but not the amount of
work: runs with different seeds time the same work.

``run_job(job, scratch)`` calls into qcooling through module attributes
(``lindblad.integrate``, ``cli.main``, ...), so that a tracer can wrap those
attributes from outside the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from itertools import permutations
from pathlib import Path

import numpy as np

from qcooling import checks, cli, correlators, ladder, laws, lindblad

WORKLOADS = ("matrix-fock", "matrix-coherent", "ladder-sweep", "verify")

# Relative deviation a trajectory may show from its closed-form n_bar(t)
# (scaled by max(n0, n_res)) or from its recorded purity reference.
TRAJ_TOL = 1e-6
# Four-point brute-force trace against the Wick three-pairing sum.
WICK_TOL = 1e-10
# Fitted spectral-density slope against gamma^2/2 per unit excess; the
# finite band of ModeGrid.flat_band leaves a ~0.6% deviation.
SLOPE_TOL = 0.10

# Thermal tail budget: dim >= (n_bar + 1/2) ln(1/EPS_TAIL) keeps the mass on
# the truncation wall far below TRAJ_TOL, so the gate sees integrator error.
EPS_TAIL = 1e-9
# dt * 2 * dim * (g_down + g_up) * growth.  Explicit RK4 on the ladder went
# negative at 3.0 (dim 200, n_res 2, t 3) and passed at 2.5; 0.5 keeps the
# RK4 purity error of the coherent jobs near 1e-8, far below TRAJ_TOL.
STABILITY = 0.5

# The ROADMAP acceptance case: n0=8, n_res=2, gamma=1, t_end=3, dt=1e-3, dim 48.
ACCEPTANCE = {"dim": 48, "law": "scaled", "gamma": 1.0, "n_res": 2.0,
              "state": {"fock": 8}, "dt": 1e-3, "steps": 3000,
              "record_every": 10}
ACCEPTANCE_ARGV = ["simulate", "--n0", "8", "--nr", "2", "--gamma", "1",
                   "--t-end", "3", "--dt", "0.001", "--record-every", "10"]

# matrix-coherent draws each job from a fixed catalogue, so that its purity
# can be checked against a reference recorded once (reference.py).
COHERENT_TYPES = ((48, "constant", 120), (48, "feedback", 120),
                  (200, "constant", 30), (200, "feedback", 30))
COHERENT_SLOTS = (12, 12, 4, 4)
COHERENT_VARIANTS = 16
COHERENT_ANCHOR = {"dim": 48, "law": "constant", "gamma": 1.0, "n_res": 2.0,
                   "state": {"superposition": [[6, 1.0, 0.0], [8, 0.0, 1.0],
                                               [10, -1.0, 0.0]]},
                   "dt": 1e-3, "steps": 3000, "record_every": 10,
                   "ref": "anchor"}
REFERENCE_PATH = Path(__file__).with_name("purity_ref.json")

FOUR_POINT_DIMS = (200, 400)
SPECTRAL_MODES = (801, 1601, 2401, 3201)
SPECTRAL_OMEGA0, SPECTRAL_HALF_WIDTH = 50.0, 20.0
BALANCED = sorted(set(permutations(("raise", "raise", "lower", "lower"))))


# ---------------------------------------------------------------------------
# job generation
# ---------------------------------------------------------------------------

def nbar_cap(dim: int) -> float:
    """Largest thermal n_bar whose tail mass at the wall stays below EPS_TAIL."""
    return dim / math.log(1.0 / EPS_TAIL) - 0.5


def state_mean(state: dict) -> float:
    if "fock" in state:
        return float(state["fock"])
    if "thermal" in state:
        return float(state["thermal"])
    weights = [(lvl, re * re + im * im) for lvl, re, im in state["superposition"]]
    return sum(lvl * w for lvl, w in weights) / sum(w for _, w in weights)


def rk4_dt(dim: int, law: str, gamma: float, n_res: float, n0: float,
           steps: int) -> float:
    """Step from 2*dim*(g_down+g_up) times the law's rate growth over the run."""
    rate_sum = gamma * (1.0 + 2.0 * n_res)
    dt = STABILITY / (2.0 * dim * rate_sum)
    if law == "feedback":
        dt = min(dt, 0.9 / (gamma * steps))          # meaningful for t < 1/gamma
    t_end = steps * dt
    if law == "scaled":
        growth = 1.0 + gamma * t_end
    elif law == "feedback":
        growth = 1.0 + 2.0 * gamma**2 * abs(n0 - n_res) * t_end / rate_sum
    else:
        growth = 1.0
    return dt / growth


def work_of(layer: str, dim: int) -> str:
    """The calibration kernel part (calibrate.py) doing this job's kind of work."""
    if layer == "ladder":
        return "vector"
    return "dense48" if dim <= 48 else "dense200"


def _trajectory(rng: random.Random, layer: str, dim: int, law: str, steps: int,
                state: dict | None = None) -> dict:
    cap = nbar_cap(dim)
    gamma = rng.uniform(0.5, 2.0)
    if state is None:
        if rng.random() < 0.5:
            state = {"fock": rng.randint(1 if law == "feedback" else 0,
                                         int(2 * cap))}
        else:
            state = {"thermal": rng.uniform(0.5, cap)}
    n0 = state_mean(state)
    # the feedback law is run cooling only: heating drives g_up negative
    n_res = (rng.uniform(0.1, 0.9) * n0 if law == "feedback"
             else rng.uniform(0.1, cap))
    return {"kind": "trajectory", "gate": layer, "work": work_of(layer, dim),
            "dim": dim, "law": law, "gamma": gamma, "n_res": n_res, "state": state,
            "dt": rk4_dt(dim, law, gamma, n_res, n0, steps), "steps": steps,
            "record_every": max(1, steps // 5)}


def coherent_job(dim: int, law: str, steps: int, variant: int) -> dict:
    """Catalogue entry ``variant`` of one coherent job type."""
    rng = random.Random(f"coherent:{dim}:{law}:{variant}")
    levels = rng.sample(range(int(2 * nbar_cap(dim)) + 1), rng.choice((2, 3)))
    state = {"superposition": [[lvl, rng.gauss(0, 1), rng.gauss(0, 1)]
                               for lvl in sorted(levels)]}
    if law == "feedback" and state_mean(state) < 0.5:
        state["superposition"].append([int(2 * nbar_cap(dim)), 1.0, 0.0])
    job = _trajectory(rng, "lindblad", dim, law, steps, state)
    job["ref"] = f"{dim}-{law}-{variant}"
    return job


def _matrix_fock(rng):
    jobs = [dict(ACCEPTANCE, kind="trajectory", gate="lindblad", work="dense48")]
    for dim, steps, count in ((800, 4, 1), (200, 40, 6), (48, 100, 32)):
        jobs += [_trajectory(rng, "lindblad", dim,
                             rng.choice(("constant", "scaled")), steps)
                 for _ in range(count)]
    return jobs


def _matrix_coherent(rng):
    jobs = [dict(COHERENT_ANCHOR, kind="trajectory", gate="lindblad",
                 work="dense48")]
    for (dim, law, steps), count in zip(COHERENT_TYPES, COHERENT_SLOTS):
        jobs += [coherent_job(dim, law, steps, rng.randrange(COHERENT_VARIANTS))
                 for _ in range(count)]
    return jobs


def _ladder_sweep(rng):
    jobs = [dict(ACCEPTANCE, kind="trajectory", gate="ladder", work="vector")]
    for _ in range(8):
        for dim in (48, 100, 200, 400, 800):
            for law in ("constant", "scaled", "feedback"):
                jobs.append(_trajectory(rng, "ladder", dim, law, 150))
    return jobs


def _verify(rng):
    jobs = [{"kind": "cli_verify", "gate": "checks", "work": "dense48"},
            {"kind": "cli_simulate", "gate": "lindblad", "work": "dense48",
             "law": "lindblad"},
            {"kind": "cli_simulate", "gate": "ladder", "work": "vector",
             "law": "ladder"}]
    # 24 traces at dim 400 put both the median and the tail job among them
    for dim, count in zip(FOUR_POINT_DIMS, (12, 24)):
        jobs += [{"kind": "four_point", "gate": "four_point", "work": "matmul",
                  "dim": dim, "ops": list(rng.choice(BALANCED)),
                  "n_bar": rng.uniform(0.2, 3.0)} for _ in range(count)]
    jobs += [{"kind": "spectral", "gate": "spectral", "work": "vector",
              "modes": modes,
              "n_res": rng.uniform(0.5, 2.0), "excess": rng.uniform(3.0, 6.0)}
             for modes in SPECTRAL_MODES * 2]
    return jobs


GENERATORS = {"matrix-fock": _matrix_fock, "matrix-coherent": _matrix_coherent,
              "ladder-sweep": _ladder_sweep, "verify": _verify}


def make_jobs(workload: str, seed: int) -> list[dict]:
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


# ---------------------------------------------------------------------------
# oracles and the gate
# ---------------------------------------------------------------------------

def nbar_oracle(law: str, n0: float, n_res: float, gamma: float, t):
    """Closed-form n_bar(t) of each rate law."""
    params = laws.CoolingParams(x0=n0, x_res=n_res, gamma=gamma)
    if law == "constant":
        return laws.evaluate_law(laws.LawKind.MARKOV, params, t)
    if law == "scaled":
        return laws.evaluate_law(laws.LawKind.MODIFIED, params, t)
    # feedback: g_down - g_up = gamma closes the mean, d(n-n_res)/dt =
    # (-gamma + gamma^2 t)(n - n_res)
    return n_res + (n0 - n_res) * np.exp(-gamma * t + 0.5 * (gamma * t) ** 2)


def gate_trajectory(times, n_bar, purity, job: dict, n0: float,
                    reference=None) -> tuple[bool, float]:
    """(passed, worst relative deviation) of one recorded trajectory."""
    oracle = nbar_oracle(job["law"], n0, job["n_res"], job["gamma"],
                         np.asarray(times))
    err = float(np.max(np.abs(np.asarray(n_bar) - oracle))) / max(n0, job["n_res"])
    if reference is not None:
        ref = np.asarray(reference)
        if len(ref) != len(purity):
            return False, math.inf
        err = max(err, float(np.max(np.abs(np.asarray(purity) - ref) / ref)))
    return err <= TRAJ_TOL, err


def wick_oracle(ops, n_bar: float) -> float:
    """Three-pairing sum of the thermal two-point table <a+a>=n, <aa+>=1+n."""
    two = {("raise", "lower"): n_bar, ("lower", "raise"): 1.0 + n_bar}
    a, b, c, d = ops
    pair = lambda x, y: two.get((x, y), 0.0)
    return pair(a, b) * pair(c, d) + pair(a, c) * pair(b, d) + pair(a, d) * pair(b, c)


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["purity"]


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def initial_rho(state: dict, dim: int) -> np.ndarray:
    if "fock" in state:
        return lindblad.number_state(state["fock"], dim)
    if "thermal" in state:
        return lindblad.thermal_state(state["thermal"], dim)
    psi = np.zeros(dim, dtype=complex)
    for lvl, re, im in state["superposition"]:
        psi[lvl] = complex(re, im)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def initial_populations(state: dict, dim: int) -> np.ndarray:
    if "fock" in state:
        p = np.zeros(dim)
        p[state["fock"]] = 1.0
        return p
    x = state["thermal"] / (1.0 + state["thermal"])
    p = x ** np.arange(dim)
    return p / p.sum()


def _run_trajectory(job, scratch, reference):
    dim = job["dim"]
    model = lindblad.RateModel(lindblad.RateLaw(job["law"]), job["gamma"],
                               job["n_res"])
    cfg = lindblad.IntegratorConfig(dt=job["dt"], t_end=job["steps"] * job["dt"],
                                    record_every=job["record_every"])
    if job["gate"] == "lindblad":
        rho0 = initial_rho(job["state"], dim)
        p0 = np.real(rho0.diagonal())
        traj = lindblad.integrate(rho0, model, cfg)
    else:
        p0 = initial_populations(job["state"], dim)
        traj = ladder.evolve_populations(p0, model, cfg)
    n0 = float(np.arange(dim) @ p0)
    ref = reference[job["ref"]] if "ref" in job else None
    ok, err = gate_trajectory(traj.times, traj.n_bar, traj.purity, job, n0, ref)
    return ok, err, {}


def _call_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:            # argparse rejects bad flags
            rc = exc.code
    return rc, out.getvalue()


def _run_cli_verify(job, scratch, reference):
    rc, text = _call_cli(["verify", "--suite", "all"])
    lines = text.splitlines()
    passed = sum(line.startswith("[PASS]") for line in lines)
    failed = sum(line.startswith("[FAIL]") for line in lines)
    ok = (rc == 0 and failed == 0 and passed > 0
          and lines[-1] == f"{passed}/{passed} checks passed")
    return ok, None, {"checks_failed": failed, "exit_nonzero": int(rc != 0)}


def _run_cli_simulate(job, scratch, reference):
    path = Path(scratch) / f"simulate-{job['law']}.csv"
    rc, _ = _call_cli(ACCEPTANCE_ARGV + ["--law", job["law"], "--out", str(path)])
    counts = {"exit_nonzero": int(rc != 0), "csv_rows": 0}
    if rc != 0:
        return False, None, counts
    rows = [line.split(",") for line in path.read_text().splitlines()
            if not line.startswith("#")][1:]
    counts["csv_rows"] = len(rows)
    times = np.array([float(r[0]) for r in rows])
    n_bar = np.array([float(r[1]) for r in rows])
    ok, err = gate_trajectory(times, n_bar, None, ACCEPTANCE,
                              state_mean(ACCEPTANCE["state"]))
    expected_rows = ACCEPTANCE["steps"] // ACCEPTANCE["record_every"] + 1
    return ok and len(rows) == expected_rows, err, counts


def _run_four_point(job, scratch, reference):
    ops = tuple(correlators.LadderOp(op) for op in job["ops"])
    value = correlators.brute_force_four_point(ops, job["n_bar"], job["dim"])
    exact = wick_oracle(job["ops"], job["n_bar"])
    err = abs(value - exact) / abs(exact)
    return err <= WICK_TOL, err, {}


def _run_spectral(job, scratch, reference):
    omega0, half_width = SPECTRAL_OMEGA0, SPECTRAL_HALF_WIDTH
    grid = correlators.ModeGrid.flat_band(omega0, half_width, job["modes"])
    temperature = omega0 / math.log1p(1.0 / job["n_res"])   # resonant n_res
    t_values = np.linspace(5.0 / half_width + 0.05, 3.0, 12)
    res = correlators.evolved_spectral_density(
        grid, omega0, job["n_res"] + job["excess"], temperature, t_values)
    # flat_band's default strength 1/(2 pi) makes gamma = 1
    err = abs(res.slope / (0.5 * job["excess"]) - 1.0)
    return err <= SLOPE_TOL, err, {}


RUNNERS = {"trajectory": _run_trajectory, "cli_verify": _run_cli_verify,
           "cli_simulate": _run_cli_simulate, "four_point": _run_four_point,
           "spectral": _run_spectral}


def run_job(job: dict, scratch, reference: dict) -> tuple[bool, float | None, dict]:
    """Run one job: (passed its gate, relative deviation or None, counters)."""
    return RUNNERS[job["kind"]](job, scratch, reference)


# ---------------------------------------------------------------------------
# set-up: the first call into each layer a workload uses
# ---------------------------------------------------------------------------

def _warm_lindblad():
    model = lindblad.RateModel(lindblad.RateLaw.CONSTANT, 1.0, 0.5)
    lindblad.integrate(lindblad.number_state(1, 8), model,
                       lindblad.IntegratorConfig(dt=0.01, t_end=0.02))


def _warm_ladder():
    model = lindblad.RateModel(lindblad.RateLaw.CONSTANT, 1.0, 0.5)
    ladder.evolve_populations(initial_populations({"fock": 1}, 8), model,
                              lindblad.IntegratorConfig(dt=0.01, t_end=0.02))


def _warm_laws():
    laws.evaluate_law(laws.LawKind.MARKOV, laws.CoolingParams(1.0, 0.5, 1.0),
                      np.array([0.0, 0.1]))


def _warm_correlators():
    _run_four_point({"ops": BALANCED[0], "n_bar": 0.5, "dim": 40}, None, None)
    _run_spectral({"modes": 101, "n_res": 1.0, "excess": 1.0}, None, None)


def _warm_checks():
    checks.spectral_suite()


def _warm_cli():
    _call_cli(["halftime", "--law", "modified", "--gamma", "1"])


LAYERS_USED = {"matrix-fock": (_warm_lindblad, _warm_laws),
               "matrix-coherent": (_warm_lindblad, _warm_laws),
               "ladder-sweep": (_warm_ladder, _warm_laws),
               "verify": (_warm_cli, _warm_checks, _warm_correlators,
                          _warm_lindblad, _warm_ladder, _warm_laws)}


def warm_up(workload: str) -> None:
    for call in LAYERS_USED[workload]:
        call()
