"""Unit conventions and the temperature-to-occupation maps.

Temperatures are expressed in one user-supplied scale, ``theta0``, the
oscillator quantum in temperature units.  The decay constant ``gamma``
is given to each law with its other parameters (``CoolingParams``,
``RateModel``).  No physical constants are hard-coded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PhysicalScales:
    """Unit system: ``theta0``, the temperature equivalent of one
    oscillator quantum.  Must be positive and finite.
    """

    theta0: float

    def __post_init__(self):
        if not (math.isfinite(self.theta0) and self.theta0 > 0):
            raise ValueError(f"theta0 must be positive and finite, got {self.theta0}")


def occupation_from_temperature(temperature: float, scales: PhysicalScales) -> float:
    """Mean thermal occupation 1/(exp(theta0/T) - 1) at absolute temperature T.

    Strictly increasing in T.  Raises ValueError for T <= 0 or non-finite T.
    """
    if not (math.isfinite(temperature) and temperature > 0):
        raise ValueError(f"temperature must be positive and finite, got {temperature}")
    return 1.0 / math.expm1(scales.theta0 / temperature)


def high_temp_occupation(temperature: float, scales: PhysicalScales) -> float:
    """Classical-limit occupation T/theta0 (leading term for T >> theta0)."""
    if not (math.isfinite(temperature) and temperature > 0):
        raise ValueError(f"temperature must be positive and finite, got {temperature}")
    return temperature / scales.theta0
