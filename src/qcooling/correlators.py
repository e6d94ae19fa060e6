"""Thermal reservoir correlators and the evolved-spectral-density check.

The reservoir is a set of harmonic modes in a thermal state, so all of
its correlation functions reduce to products of two-point functions
(Gaussian/Wick factorization).  This module provides

* the single-mode thermal two-point table and the three-pairing
  four-point decomposition, with a brute-force trace oracle to check it,
* a desk-scale numerical verification that the bath feedback grows
  linearly in time with slope 2 pi^2 D^2(w0) |k(w0)|^4 (n_sys - n_res),
  i.e. gamma^2/2 per unit occupation difference.

Evaluation of the evolved spectral density
------------------------------------------
The feedback term is a double sum over mode pairs of triple nested time
integrals of complex exponentials.  Its linear-in-t law holds in the
wide-band (Markovian) idealization in which each inner time integral is
extended to its own infinite horizon, so that each mode axis contributes
an independent resonance kernel concentrated at the system frequency.
In that idealization the bracket splits as
(n_sys - n_r) + (n_sys - n_s) and the double sum factorizes into
products of single-axis kernel sums; the remaining free time integral
supplies the linear growth.  That factorized form is what
:func:`evolved_spectral_density` evaluates, with each kernel in closed
form, K(d, t) = (e^{i d t} - 1)/(i d) (Taylor limit t at d = 0).

The fully time-ordered nested integral, by contrast, pins both
resonances to a corner of the integration simplex and stays bounded for
all t: it carries no secular term.  The linear law is therefore a
property of the wide-band idealization, not of the literal triple
integral; the toolkit verifies the former.

The two axes detune oppositely and K(-d, t) = conj K(d, t), so one kernel
serves both, their principal-value (frequency-shift) pieces cancel, and
the sum is real: it carries the dissipative (resonant) physics.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np


class LadderOp(Enum):
    LOWER = "lower"
    RAISE = "raise"


def _check_occupation(name: str, n: float) -> None:
    if not (math.isfinite(n) and n >= 0):
        raise ValueError(f"{name} must be >= 0 and finite, got {n}")


def thermal_two_point(left: LadderOp, right: LadderOp, n_bar: float) -> complex:
    """Single-mode thermal expectation <left . right>.

    <raise lower> = n_bar, <lower raise> = 1 + n_bar, and the
    particle-nonconserving pairs vanish (the thermal state is diagonal).
    """
    _check_occupation("n_bar", n_bar)
    if left is LadderOp.RAISE and right is LadderOp.LOWER:
        return complex(n_bar)
    if left is LadderOp.LOWER and right is LadderOp.RAISE:
        return complex(1.0 + n_bar)
    return 0j


def wick_four_point(ops: tuple[LadderOp, LadderOp, LadderOp, LadderOp],
                    n_bar: float) -> complex:
    """Three-pairing sum <ab><cd> + <ac><bd> + <ad><bc> of thermal two-points.

    Exact for the thermal (Gaussian) state of a single mode.
    """
    a, b, c, d = ops
    return (thermal_two_point(a, b, n_bar) * thermal_two_point(c, d, n_bar)
            + thermal_two_point(a, c, n_bar) * thermal_two_point(b, d, n_bar)
            + thermal_two_point(a, d, n_bar) * thermal_two_point(b, c, n_bar))


def brute_force_four_point(ops: tuple[LadderOp, LadderOp, LadderOp, LadderOp],
                           n_bar: float, dim: int) -> complex:
    """Independent oracle: Tr[O_a O_b O_c O_d rho_thermal] in a truncated
    Fock basis, in O(dim).

    The truncated a (a+) has the single diagonal a[j, j+1] = sqrt(j+1)
    (a+[j, j-1] = sqrt(j)), so row i of the product has one entry, in
    column col[i]: each factor moves col by +-1 and scales the entry by
    sqrt(max(old, new)), and a column leaving [0, dim) zeroes it.  This is
    the dense product's trace, not Wick's theorem: it sums no pairings and
    keeps the truncation.

    Requires the thermal tail beyond the truncation to be < 1e-10 in mass.
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    _check_occupation("n_bar", n_bar)
    x = n_bar / (1.0 + n_bar)
    if x > 0 and x ** dim > 1e-10:
        raise ValueError(
            f"dim={dim} keeps tail mass {x**dim:.2e} > 1e-10 for n_bar={n_bar}; "
            "increase dim")
    rows = np.arange(dim)
    p = x ** rows
    p /= p.sum()
    col, amp = rows, np.ones(dim)
    for op in ops:
        new = col + (1 if op is LadderOp.LOWER else -1)
        # new >= 0 where inside, so the square root never sees a negative
        inside = (new >= 0) & (new < dim)
        amp = amp * np.sqrt(np.maximum(col, new) * inside)
        col = new
    diag = col == rows
    return complex(p[diag] @ amp[diag])


# ---------------------------------------------------------------------------
# discretized reservoir
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModeGrid:
    """Discretized reservoir band: frequencies, the strength profile
    D(w) |k(w)|^2 (density of states times squared coupling), and
    quadrature weights turning mode sums into integrals, all finite and
    stored as float arrays, whatever sequences they are given as."""

    frequencies: np.ndarray
    strength: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for name in ("frequencies", "strength", "weights"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        f = self.frequencies
        if f.ndim != 1 or f.size < 2:
            raise ValueError("frequencies must be a 1-D array of >= 2 modes")
        if not np.all(np.diff(f) > 0):
            raise ValueError("frequencies must be strictly increasing")
        if not (f[0] > 0 and math.isfinite(f[-1])):
            raise ValueError("frequencies must be positive and finite")
        for name in ("strength", "weights"):
            arr = getattr(self, name)
            if arr.shape != f.shape:
                raise ValueError(f"{name} must match frequencies in shape")
            if not np.all((arr >= 0) & np.isfinite(arr)):
                raise ValueError(f"{name} must be nonnegative and finite")

    @classmethod
    def flat_band(cls, omega0: float, half_width: float,
                  n_modes: int = 801) -> "ModeGrid":
        """Uniform band [omega0 - half_width, omega0 + half_width] with a
        flat D |k|^2 = 1/(2 pi), which makes the decay constant 1, and
        trapezoid weights."""
        if omega0 - half_width <= 0:
            raise ValueError("band must stay at positive frequencies")
        if n_modes < 2:
            raise ValueError("need at least 2 modes")
        f = np.linspace(omega0 - half_width, omega0 + half_width, n_modes)
        w = np.full(n_modes, f[1] - f[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        return cls(frequencies=f, strength=np.full(n_modes, 1.0 / (2.0 * math.pi)),
                   weights=w)


def decay_constant(grid: ModeGrid, omega0: float) -> float:
    """Weak-coupling decay constant 2 pi D(w0) |k(w0)|^2, interpolated."""
    f = grid.frequencies
    if not (f[0] <= omega0 <= f[-1]):
        raise ValueError(f"omega0={omega0} outside grid span [{f[0]}, {f[-1]}]")
    return 2.0 * math.pi * float(np.interp(omega0, f, grid.strength))


# ---------------------------------------------------------------------------
# evolved spectral density
# ---------------------------------------------------------------------------

@dataclass
class SpectralDensityResult:
    """Evolved spectral density samples and the fitted linear slope of the
    real part (fit excludes the initial transient t < 5/half_width)."""

    times: np.ndarray
    values: np.ndarray
    slope: float
    fit_residual: float


def _resonance_kernel(delta: np.ndarray, t) -> np.ndarray:
    """Closed form of int_0^t exp(i delta tau) dtau, broadcast over delta
    and t, with its Taylor limit where |delta t| < 1e-6."""
    z = delta * t
    small = np.abs(z) < 1e-6
    d = np.where(small, 1.0, delta)
    out = (np.exp(1j * d * t) - 1.0) / (1j * d)
    return np.where(small, t * (1.0 + 0.5j * z), out)


def bath_occupations(grid: ModeGrid, temperature: float) -> np.ndarray:
    """Thermal occupation of each grid mode at the given temperature, read
    in angular-frequency units (oscillator quantum == frequency)."""
    if not (math.isfinite(temperature) and temperature > 0):
        raise ValueError(f"temperature must be positive, got {temperature}")
    return 1.0 / np.expm1(grid.frequencies / temperature)


def evolved_spectral_density(grid: ModeGrid, omega0: float, n_sys: float,
                             temperature: float, t_values) -> SpectralDensityResult:
    """Bath-feedback spectral density over ``t_values`` and its fitted slope.

    n_sys is held fixed across the evaluation (quasi-static reading: the
    system occupation varies slowly on the bath correlation time).  The
    expected slope of the real part is
    2 pi^2 D^2(w0) |k(w0)|^4 (n_sys - n_res(w0)) = gamma^2/2 per unit
    occupation difference; the fit discards the transient t < 5/half_width
    over which the resonance kernels are still building up.  Warns when
    the post-transient window is too short for a trustworthy fit (narrow
    band and/or short times).  The values are real, stored as complex.
    """
    _check_occupation("n_sys", n_sys)
    t_values = np.asarray(t_values, dtype=float)
    if t_values.ndim != 1 or t_values.size < 2:
        raise ValueError("t_values must be a 1-D array of >= 2 times")
    if not (t_values[0] > 0 and np.all(np.diff(t_values) > 0) and math.isfinite(t_values[-1])):
        raise ValueError("t_values must be positive, finite and strictly increasing")
    f = grid.frequencies
    if not (f[0] < omega0 < f[-1]):
        raise ValueError(f"omega0={omega0} not inside grid span")

    n_res = bath_occupations(grid, temperature)
    w = np.multiply(grid.weights, grid.strength)
    kernel = _resonance_kernel(f - omega0, t_values[:, None])
    plain, excess = kernel @ w, kernel @ (w * (n_sys - n_res))
    # the other axis's sums are the conjugates, so the bracket is 2 Re(...)
    values = (2.0 * t_values * (excess.conj() * plain).real).astype(complex)

    half_width = 0.5 * (f[-1] - f[0])
    mask = t_values >= 5.0 / half_width
    if mask.sum() < 4 or half_width * t_values[mask].max() < 10.0:
        warnings.warn(
            "band too narrow (or times too short) for a reliable slope fit: "
            f"only {int(mask.sum())} points past the transient 5/half_width",
            stacklevel=2)
    if mask.sum() < 2:
        mask = np.ones_like(mask)
    design = np.vstack([t_values[mask], np.ones(int(mask.sum()))]).T
    coeffs, *_ = np.linalg.lstsq(design, values[mask].real, rcond=None)
    fitted = design @ coeffs
    residual = float(np.sqrt(np.mean((values[mask].real - fitted) ** 2)))
    return SpectralDensityResult(times=t_values, values=values,
                                 slope=float(coeffs[0]), fit_residual=residual)
