"""Self-contained verification suites behind ``qcool verify``.

Each suite returns a list of :class:`CheckResult`; a suite passes when
every check passes.  The suites are deliberately independent of the unit
tests so they can run from an installed package.  Each compares the
program with an oracle that shares no code with it: a brute-force trace
(``wick``), the closed-form channel (``ladder-equiv``) and the closed-form
slope gamma^2/2 (``spectral``).  Every bound is at least 4x the distance
its check measures; the README lists both.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from . import channel
from .correlators import (LadderOp, ModeGrid, brute_force_four_point,
                          decay_constant, evolved_spectral_density,
                          wick_four_point)
from .lindblad import (IntegratorConfig, RateLaw, RateModel, integrate,
                       number_state)


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    bound: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name}: measured={self.measured:.3e} bound={self.bound:.3e}"


def wick_suite() -> list[CheckResult]:
    """Three-pairing factorization vs the brute-force trace at dim 200, all
    balanced orderings of two raising and two lowering labels."""
    dim, results = 200, []
    balanced = sorted(set(permutations((LadderOp.RAISE, LadderOp.RAISE,
                                        LadderOp.LOWER, LadderOp.LOWER))),
                      key=lambda p: [op.value for op in p])
    for n_bar in (0.5, 1.0, 3.0):
        worst = 0.0
        for ops in balanced:
            wick = wick_four_point(ops, n_bar)
            brute = brute_force_four_point(ops, n_bar, dim)
            worst = max(worst, abs(wick - brute) / abs(brute))
        results.append(CheckResult(
            f"wick four-point, n_bar={n_bar} (6 balanced orderings)",
            worst < 1e-8, worst, 1e-8))
    unbalanced = (LadderOp.LOWER, LadderOp.RAISE, LadderOp.LOWER, LadderOp.LOWER)
    residue = max(abs(wick_four_point(unbalanced, 2.0)),
                  abs(brute_force_four_point(unbalanced, 2.0, dim)))
    results.append(CheckResult("unbalanced ordering vanishes",
                               residue < 1e-12, residue, 1e-12))
    return results


def ladder_equivalence_suite() -> list[CheckResult]:
    """Populations of the k = 0 chain from ``integrate`` vs the closed-form
    channel (:mod:`qcooling.channel`), at every recorded sample of one
    run per rate law from Fock 8 into n_res 2 at dim 48.  The channel is
    the untruncated solution, so it shares no code with the run."""
    cases = [
        (RateLaw.CONSTANT, 0.005, 3.0, 4e-5),
        (RateLaw.SCALED, 0.001, 3.0, 2e-7),    # rate scale grows, needs smaller dt
        (RateLaw.FEEDBACK, 0.002, 1.0, 1e-5),  # meaningful (and stable) for t < 1/gamma
    ]
    dim, level = 48, 8
    rho0 = number_state(level, dim)
    trajs, params = [], []
    for law, dt, t_end, _ in cases:
        model = RateModel(law=law, gamma=1.0, n_res=2.0)
        trajs.append(integrate(rho0, model, IntegratorConfig(dt=dt, t_end=t_end,
                                                             record_every=10)))
        params.append(channel.parameters(model, level, trajs[-1].times))
    # one closed-form evaluation for the samples of all three runs
    exact = channel.populations(rho0.diagonal().real, *np.concatenate(params, axis=1), dim)
    exact = np.split(exact, np.cumsum([len(traj.times) for traj in trajs])[:-1])
    results = []
    for (law, _, _, bound), traj, ref in zip(cases, trajs, exact):
        diff = float(np.abs(traj.populations - ref).max())
        results.append(CheckResult(f"ladder vs closed-form channel, {law.value} law",
                                   diff < bound, diff, bound))
    return results


def spectral_suite() -> list[CheckResult]:
    """Linear-in-time bath feedback on the default flat band: slope value,
    equilibrium null, linearity in the occupation difference, and
    grid-resolution insensitivity."""
    omega0, half_width, n_res = 50.0, 20.0, 2.0
    t_values = np.linspace(5.0 / half_width + 0.05, 3.0, 12)
    temperature = omega0 / np.log1p(1.0 / n_res)   # resonant occupation n_res

    def slope(n_sys, n_modes=801):
        grid = ModeGrid.flat_band(omega0, half_width, n_modes)
        res = evolved_spectral_density(grid, omega0, n_sys, temperature, t_values)
        return res.slope, decay_constant(grid, omega0)

    results = []
    s5, gamma = slope(n_res + 5.0)
    target = 0.5 * gamma**2 * 5.0
    dev = abs(s5 / target - 1.0)
    results.append(CheckResult("feedback slope vs gamma^2/2 per unit excess "
                               "(excess 5)", dev < 0.10, dev, 0.10))

    s0, gamma = slope(n_res)
    null = abs(s0) / (0.5 * gamma**2)
    results.append(CheckResult("slope vanishes at equilibrium (fraction of "
                               "unit-excess scale)", null < 0.01, null, 0.01))

    s2, _ = slope(n_res + 2.0)
    s4, _ = slope(n_res + 4.0)
    lin = abs(s4 / s2 - 2.0) / 2.0
    results.append(CheckResult("slope linear in occupation excess (4 vs 2)",
                               lin < 0.03, lin, 0.03))

    s5d, _ = slope(n_res + 5.0, n_modes=1601)
    grid_dev = abs(s5d / s5 - 1.0)
    results.append(CheckResult("slope stable under grid doubling",
                               grid_dev < 0.02, grid_dev, 0.02))
    return results


SUITES = {
    "wick": wick_suite,
    "ladder-equiv": ladder_equivalence_suite,
    "spectral": spectral_suite,
}


def run_suites(names) -> list[CheckResult]:
    results = []
    for name in names:
        results.extend(SUITES[name]())
    return results
