"""Diagonal loss-gain (birth-death) form of the master equation.

For diagonal states the master equation closes on the level populations
p_i with nearest-neighbour transitions only:

    dp_i/dt = down(i+1) p_{i+1} + up(i-1) p_{i-1} - [down(i) + up(i)] p_i,

with down(i) = i * g_down(t) and up(i) = (i+1) * g_up(t).  These are the
unique neighbour rates that make the ladder identical to the diagonal
restriction of the full dissipator, so :func:`evolve_populations` and
the density-matrix integrator agree pointwise for diagonal initial
states; both run the same banded generator and RK4 loop.  The upward
rate out of the top level is zero (the reflecting truncation wall),
which conserves total probability exactly.
"""

from __future__ import annotations

import numpy as np

from .lindblad import (_POS_TOL, _TRACE_MAX, _TRACE_MIN, IntegratorConfig, RateModel, Trajectory,
                       _band, _evolve)


def evolve_populations(p0: np.ndarray, model: RateModel,
                       cfg: IntegratorConfig) -> Trajectory:
    """Fixed-step RK4 for the population ladder; returns the same
    Trajectory record as the density-matrix integrator.

    Purity is sum(p^2) and the checkpointed "minimum eigenvalue" is the
    most negative population.  Probability conservation and the
    nonnegativity floor are enforced with the same tolerance budget as
    the matrix integrator.
    """
    p0 = np.asarray(p0, dtype=float)
    if p0.ndim != 1 or p0.size < 2:
        raise ValueError(f"p0 must be a 1-D vector of >= 2 levels, got shape {p0.shape}")
    if p0.min() < -_POS_TOL:
        raise ValueError(f"populations must be >= -{_POS_TOL:g}, got min {p0.min():g}")
    total = p0.sum()
    if not _TRACE_MIN <= total <= _TRACE_MAX:
        raise ValueError(f"populations must sum to 1 within budget, got {total!r}")
    # contiguous, so that no sample depends on how p0 is laid out in memory
    return _evolve(_band(p0.size, (0,)), np.ascontiguousarray(p0[None, :]), model, cfg)[0]
