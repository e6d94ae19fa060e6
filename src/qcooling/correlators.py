"""Thermal reservoir correlators and the evolved-spectral-density check.

The reservoir is a set of harmonic modes in a thermal state, so all of
its correlation functions reduce to products of two-point functions
(Gaussian/Wick factorization).  This module provides

* the single-mode thermal two-point table and the three-pairing
  four-point decomposition, with a brute-force trace oracle to check it,
* a desk-scale numerical verification that the bath feedback grows
  linearly in time with slope 2 pi^2 D^2(w0) |k(w0)|^4 (n_sys - n_res),
  i.e. gamma^2/2 per unit occupation difference.

The brute-force four-point trace
--------------------------------
The truncated a has the single diagonal a[j, j+1] = sqrt(j+1), and a+
the single diagonal a+[j, j-1] = sqrt(j).  So row i of a product of them
has one entry, and each factor moves its column by a fixed step (+1 for
a, -1 for a+) and scales it by sqrt(max(old column, new column)).  Every
row follows the same path of column offsets o_0 = 0, o_1, ..., o_4, so
the trace is sum_i p_i sqrt(prod_k (i + m_k)), with p_i the thermal
populations and m_k = max(o_{k-1}, o_k), taken over the contiguous rows
whose path stays inside [0, dim).  A path that does not return to 0 (an
unbalanced ordering) leaves no diagonal entry, and the trace is exactly
0.  This is the dense product's trace, not Wick's theorem: it sums no
pairings and keeps the truncation.

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
form from the half angle h = d t/2,

    K(d, t) = (e^{i d t} - 1)/(i d) = (2 sin h cos h + 2i sin^2 h)/d,

and K(0, t) = t.  Neither part cancels at small d t, so no Taylor branch
is needed.  The sine and cosine come from one tangent, q = tan(h/2):
sin h = 2q/(1 + q^2) and cos h = 2/(1 + q^2) - 1, whose absolute error
is a few units in the last place, as that of sin and cos at a rounded h
is.  Both single-axis sums, the plain one and the one weighted by the
occupation excess, come from one real product: the (2 times, modes)
table of sin h cos h and sin^2 h by the (modes, 2) table of the two
weights times 2/d.

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
from itertools import accumulate

import numpy as np

from .core import _integer, _member, _nonnegative, _positive


class LadderOp(Enum):
    LOWER = "lower"
    RAISE = "raise"


def thermal_two_point(left: LadderOp, right: LadderOp, n_bar: float) -> complex:
    """Single-mode thermal expectation <left . right>.

    <raise lower> = n_bar, <lower raise> = 1 + n_bar, and the
    particle-nonconserving pairs vanish (the thermal state is diagonal).
    """
    _member("left", left, LadderOp)
    _member("right", right, LadderOp)
    _nonnegative("n_bar", n_bar)
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
    Fock basis, in O(dim), read along the ordering's path of columns (see
    the module docstring).

    Requires the thermal tail beyond the truncation to be < 1e-10 in mass.
    """
    for op in ops:
        _member("each of ops", op, LadderOp)
    dim = _integer("dim", dim, 2)
    _nonnegative("n_bar", n_bar)
    x = n_bar / (1.0 + n_bar)
    if x > 0 and x ** dim > 1e-10:
        raise ValueError(
            f"dim={dim} keeps tail mass {x**dim:.2e} > 1e-10 for n_bar={n_bar}; "
            "increase dim")
    path = [0, *accumulate(1 if op is LadderOp.LOWER else -1 for op in ops)]
    if path[-1] != 0:
        return 0j   # an unbalanced product has no diagonal entry
    rows = np.arange(dim, dtype=float)
    weights = x ** rows   # p_i times sum_j x^j
    lo, hi = -min(path), dim - max(path)   # the rows whose path stays inside
    i = rows[lo:hi]
    amp = i + max(path[0], path[1])
    for k in range(2, len(path)):
        amp *= i + max(path[k - 1], path[k])
    return complex(weights[lo:hi] @ np.sqrt(amp) / weights.sum())


# ---------------------------------------------------------------------------
# discretized reservoir
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModeGrid:
    """Discretized reservoir band: frequencies, the strength profile
    D(w) |k(w)|^2 (density of states times squared coupling), and
    quadrature weights turning mode sums into integrals, all finite and
    stored as read-only float copies of whatever sequences they are given
    as, so the grid stays as it was validated."""

    frequencies: np.ndarray
    strength: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for name in ("frequencies", "strength", "weights"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
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


def _kernel_sums(delta: np.ndarray, t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_m K(delta_m, t) w[m, j] for each time and each column of w, as a
    complex (times, columns) array, with K(0, t) = t."""
    zero = np.abs(delta) < np.finfo(float).tiny   # where 1/delta would overflow
    inv = np.divide(2.0, delta, out=np.zeros_like(delta), where=~zero)
    q = np.tan(np.multiply.outer(0.25 * t, delta))   # tan(h/2)
    r = q * q
    r += 1.0
    np.divide(2.0, r, out=r)              # 2/(1 + q^2)
    n = t.size
    trig = np.empty((2 * n, delta.size))
    s = np.multiply(q, r, out=trig[n:])   # sin h
    r -= 1.0                              # cos h
    np.multiply(s, r, out=trig[:n])
    s *= s
    sums = trig @ (inv[:, None] * w)
    return sums[:n] + np.outer(t, w[zero].sum(axis=0)) + 1j * sums[n:]


def bath_occupations(grid: ModeGrid, temperature: float) -> np.ndarray:
    """Thermal occupation of each grid mode at the given temperature, read
    in angular-frequency units (oscillator quantum == frequency)."""
    _positive("temperature", temperature)
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
    _nonnegative("n_sys", n_sys)
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
    plain, excess = _kernel_sums(f - omega0, t_values,
                                 np.stack([w, w * (n_sys - n_res)], axis=1)).T
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
