"""Population ladder: the master equation restricted to a diagonal state,
the birth-death chain of level populations that the k = 0 row of
``lindblad._Band`` states, stepped by the same RK4 loop as
:func:`qcooling.lindblad.integrate`.
"""

from __future__ import annotations

import numpy as np

from .lindblad import (_POS_TOL, _TRACE_MAX, _TRACE_MIN, IntegratorConfig, RateModel, Trajectory,
                       _band, _evolve)


def evolve_populations(p0: np.ndarray, model: RateModel,
                       cfg: IntegratorConfig) -> Trajectory:
    """Fixed-step RK4 for the population ladder from the populations p0;
    returns the same Trajectory record as the density-matrix integrator,
    with purity sum(p^2), the most negative population as the checkpointed
    "minimum eigenvalue" and no final state.  p0 and every checkpoint must
    lie inside the integrator's tolerance budget."""
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
