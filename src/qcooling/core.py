"""Unit conventions, the temperature-to-occupation maps, and the argument
checks that the other modules share.

Temperatures are expressed in one user-supplied scale, ``theta0``, the
oscillator quantum in temperature units.  The decay constant ``gamma``
is given to each law with its other parameters (``CoolingParams``,
``RateModel``).  No physical constants are hard-coded.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum


@dataclass(frozen=True)
class PhysicalScales:
    """Unit system: ``theta0``, the temperature equivalent of one
    oscillator quantum.  Must be positive and finite.
    """

    theta0: float

    def __post_init__(self):
        _positive("theta0", self.theta0)


def _integer(name: str, value, least: int) -> int:
    """``value`` as an int (a numpy integer passes) of at least ``least``,
    else ValueError."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def _member(name: str, value, kind: type[Enum]):
    """Raise ValueError unless ``value`` is a member of ``kind``: its value
    (a string) would pass an ``is`` test against no member."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__name__} member, got {value!r}")


def _positive(name: str, value):
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _nonnegative(name: str, value):
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be >= 0 and finite, got {value}")


def occupation_from_temperature(temperature: float, scales: PhysicalScales) -> float:
    """Mean thermal occupation 1/(exp(theta0/T) - 1) at absolute temperature T.

    Strictly increasing in T.  Raises ValueError for T <= 0 or non-finite T.
    """
    _positive("temperature", temperature)
    return 1.0 / math.expm1(scales.theta0 / temperature)


def high_temp_occupation(temperature: float, scales: PhysicalScales) -> float:
    """Classical-limit occupation T/theta0 (leading term for T >> theta0)."""
    _positive("temperature", temperature)
    return temperature / scales.theta0
