"""Closed-form relaxation laws and their characteristic times.

Three laws are covered, all relaxing an initial value x0 toward a
reservoir value x_res at rate gamma:

* ``NEWTON``   -- exponential law in temperature,  x_res + (x0-x_res) e^{-g t}
* ``MARKOV``   -- the same exponential in occupation number
* ``MODIFIED`` -- the accelerated law with a time-growing rate,
                  x_res + (x0-x_res) e^{-g t (1 + g t / 2)}

These are the reference oracles for the numerical integrators.  The
modified law comes from a first-order treatment of the reservoir's own
dynamics and is physically meaningful for t < 1/gamma; the functions
here evaluate it for all t >= 0 and leave the validity caveat to the
caller (the CLI emits a ``valid`` column).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import _member, _positive


class LawKind(Enum):
    NEWTON = "newton"
    MARKOV = "markov"
    MODIFIED = "modified"


@dataclass(frozen=True)
class CoolingParams:
    """Initial value, reservoir value and rate for a relaxation law.

    x0 and x_res may be temperatures or occupations, as long as they are
    used consistently.  x0 < x_res (heating) is allowed; the formulas are
    symmetric in the sign of (x0 - x_res).
    """

    x0: float
    x_res: float
    gamma: float

    def __post_init__(self):
        _positive("gamma", self.gamma)
        if not (math.isfinite(self.x0) and math.isfinite(self.x_res)):
            raise ValueError("x0 and x_res must be finite")


def _check_time(t):
    t = np.asarray(t, dtype=float)
    if np.any(t < 0) or not np.all(np.isfinite(t)):
        raise ValueError("t must be finite and >= 0")
    return t


def evaluate_law(kind: LawKind, params: CoolingParams, t):
    """Value of the law at time(s) ``t`` (scalar or array, t >= 0)."""
    _member("kind", kind, LawKind)
    t = _check_time(t)
    g = params.gamma
    if kind is LawKind.MODIFIED:
        decay = np.exp(-g * t * (1.0 + 0.5 * g * t))
    else:
        decay = np.exp(-g * t)
    out = params.x_res + (params.x0 - params.x_res) * decay
    return out if out.ndim else float(out)


def half_thermalization_time(kind: LawKind, gamma: float) -> float:
    """Time for the deviation from the reservoir value to halve.

    Independent of x0 and x_res: ln(2)/gamma for the exponential laws,
    (sqrt(1 + 2 ln 2) - 1)/gamma for the modified law.
    """
    return time_to_value(kind, CoolingParams(2.0, 0.0, gamma), 1.0)


def time_to_value(kind: LawKind, params: CoolingParams, x_target: float) -> float:
    """Time at which the law reaches ``x_target``.

    The target must lie strictly between x_res and x0 (otherwise it is
    never reached, or has already been passed at t=0).  For the modified
    law the quadratic (g t)^2/2 + g t = L has a single positive root,
    t = (sqrt(1 + 2 L) - 1)/gamma with L = ln((x0-x_res)/(x_target-x_res)).
    """
    _member("kind", kind, LawKind)
    lo, hi = min(params.x0, params.x_res), max(params.x0, params.x_res)
    if not (math.isfinite(x_target) and lo < x_target < hi):
        raise ValueError(
            f"x_target={x_target} not strictly between x_res={params.x_res} "
            f"and x0={params.x0}")
    log_ratio = math.log((params.x0 - params.x_res) / (x_target - params.x_res))
    if kind is LawKind.MODIFIED:
        return (math.sqrt(1.0 + 2.0 * log_ratio) - 1.0) / params.gamma
    return log_ratio / params.gamma
