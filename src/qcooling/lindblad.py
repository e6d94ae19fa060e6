"""Truncated Fock-space integrator for the damped-oscillator master equation.

The dissipator is the standard pair of lowering/raising channels,

    dS/dt = -(g_down/2) [N S - 2 a S a+ + S N]
            -(g_up/2)   [a a+ S - 2 a+ S a + S a a+],

with the rates of a :class:`RateLaw` (the README states the three laws,
layer 2), integrated in the frame rotating with the free Hamiltonian (the
commutator only rotates coherences and never touches populations or the
mean occupation, so it is dropped; this removes the fast timescale and
lets dt be set by the rates alone).  All operators are truncated to the
lowest ``dim`` Fock levels, a+ annihilating the top one: the README's
reflecting wall, sized by :func:`default_dim` and ``_thermal_dim``.

Only the diagonals rho[i + k, i] (k >= 0) present at t = 0 are stored,
one per row of a (rows, dim) array, and each evolves on its own under
A = g_down D + g_up U for two fixed tridiagonal chains D and U
(:class:`_Band`).  An RK4 step whose stages have the generators
A_1 .. A_4 is, in M_s = dt A_s, b = (1, 2, 2, 1),

    P = 1 + sum_s b_s M_s / 6 + sum M_{s+1} M_s / 6
          + sum M_{s+2} M_{s+1} M_s / 12 + M_4 M_3 M_2 M_1 / 24,

one nine-tap operator, stored taps-first and applied with one product
and one tap sum (:func:`_polynomial_step`).  The product is taken in a
contiguous copy of the nine overlapping views of the state, which numpy
multiplies faster than the views themselves, copy included.  A run keeps
one state and steps it in place: the copy reads a block of rows before
the sum overwrites it, and each block, its rows independent chains, runs
through a whole interval on its own.  In D and U, P is a
weighted sum of the 31 ordered words of at most 4 factors
(:func:`_products`), whose taps on the k = 0 chain (every diagonal
state, and the ladder) are integers: on a row at least 4 below the top,
polynomials in its level with one fixed table of coefficients, and on
the top 4 rows, which reach the wall, each band's own, built on its top
8 levels (:func:`_word_taps`).  Under CONSTANT and SCALED every
A_s is A times the rate scale, and a word of length j with u factors U
weighs g_down^(j - u) g_up^u.  Under FEEDBACK on one
row a factor weighs its stage's U-rate e_s, plus g for a D, so each
word's weight is a sum of the 16 products of the e_s times a matrix
fixed per run.  The rates are RateModel.rates at the stage means,
written out in scalars before the step (:func:`_feedback_build`):
n_1 = n, the state's, and n_{s+1} = n + w_s levels.(A_s x_s), w_s stage
s + 1's weight, where levels.(A x) = -g_down n + g_up (n + trace - dim
x_top) on the truncated chain, the last term the wall.  Below it, where
the window of live levels ends short of dim, every top entry is exactly
0, and the rates of a block of ``_WINDOW_EVERY`` steps follow from the
state at its first step, the mean carried from step to step by the same
identity.  At the wall they are read a step at a time, the stage inputs'
top entries from the state's top 3 through the top rows' taps, in a loop
of its own whose every turn builds one step's taps and takes that step
(:func:`_wall_steps`).  A state with more than one row under FEEDBACK is
stepped a stage at a time instead, each stage's rates read off its own
input (:func:`_staged_step`).

A tap reused step after step must not hold a rounded 1 + delta, whose
error adds up, so a FEEDBACK step is x + (P - I) x, its tap sum taken in
a scratch state.  A CONSTANT step on all dim levels is fixed for the
rest of the run; if a power fits in 8 ``_BUILD_ROWS`` (rows dim^2) and
four squarings cost less than the steps (rows dim^3 <= 4 ``_BUILD_ROWS``
n_steps), it is applied as dense powers E_m = P^m - I,
E_2m = 2 E_m + E_m^2 squared when first read (:func:`_dense_steps`): a
chain state takes x + E_16 x every 16 steps from the step this starts
at, and a sample r steps past that is a copy given x + E_m x for the set
bits m of r, lowest first, so it depends on its step alone.  Other
CONSTANT runs keep P, whose diagonal tap holds fl(1 + delta).

Every propagator has one call shape, ``advance(n0, n1)``, which runs
steps n0 + 1 .. n1, and a run calls it once per interval between its
events, the steps where it samples or checkpoints.  A one-row state is
stepped, and its operator built, only on a window of its first hi
levels, past which it stays exactly 0.  RK4 moves an entry at most 4
levels a step, so the window holds every entry above ``_NEGLIGIBLE`` for
``_WINDOW_EVERY`` steps if none lies in its last 4 ``_WINDOW_EVERY``
levels.  That is checked at every multiple of ``_WINDOW_EVERY`` steps,
whatever the intervals; where it fails, the window is set 2
``_WINDOW_EVERY`` levels wider than that needs, or to dim within 4
levels of the wall, and the steps are rebuilt.  The band of each recent
(dim, offsets), with its top rows' words, is kept, read-only, so runs on
the same diagonals share one.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import _integer, _member, _nonnegative, _positive


class RateLaw(Enum):
    CONSTANT = "constant"
    FEEDBACK = "feedback"
    SCALED = "scaled"


def _rate_scale(model: RateModel, t):
    """f(t) with model.rates(t, n) = f(t) * model.rates(0, n) (t may be an
    array), or None for FEEDBACK, whose rates read the state."""
    if model.law is RateLaw.FEEDBACK:
        return None
    return 1.0 + model.gamma * t if model.law is RateLaw.SCALED else 1.0


@dataclass(frozen=True)
class RateModel:
    """Dissipator rate law with its parameters gamma and n_res."""

    law: RateLaw
    gamma: float
    n_res: float

    def __post_init__(self):
        _member("law", self.law, RateLaw)
        _positive("gamma", self.gamma)
        _nonnegative("n_res", self.n_res)

    def rates(self, t, n_sys):
        """(g_down, g_up) at time t for mean occupation n_sys, either of which
        may be an array of samples (a law that reads neither returns scalars)."""
        g, n_res = self.gamma, self.n_res
        f = _rate_scale(self, t)
        if f is not None:
            return f * g * (1.0 + n_res), f * g * n_res
        g2, down, up = self._feedback()
        corr = g2 * (n_sys - n_res) * t
        return down + corr, up + corr

    def _feedback(self):
        """FEEDBACK's constants (g^2, g (1 + n_res), g n_res), which the
        steps that write out :meth:`rates` read."""
        g = self.gamma
        return g * g, g * (1.0 + self.n_res), g * self.n_res


# the tolerance budget of every state check: Hermiticity, trace, positivity
_HERM_TOL, _TRACE_MIN, _TRACE_MAX, _POS_TOL = 1e-12, 1.0 - 1e-6, 1.0 + 1e-9, 1e-8
# steps between the checkpoints of a run (README, Numerical notes)
_CHECK_EVERY = 100
# a checkpoint leaves out a level whose entries are all at most this in
# modulus; zeroing them moves no eigenvalue by more than sqrt(2) dim times it
_NEGLIGIBLE = 1e-30
# steps between the checks of the window of live levels a run steps on
_WINDOW_EVERY = 16


@dataclass
class IntegratorConfig:
    """Fixed-step RK4 settings; ``t_end`` must be a whole number of steps
    ``dt``, so that no run ends short of it."""

    dt: float
    t_end: float
    record_every: int = 1

    def __post_init__(self):
        _positive("dt", self.dt)
        _nonnegative("t_end", self.t_end)
        every = self.record_every
        if not (hasattr(every, "__index__") and operator.index(every) >= 1):
            raise ValueError(f"record_every must be an integer >= 1, got {every!r}")
        if abs(self.n_steps * self.dt - self.t_end) > 1e-9 * max(1.0, self.t_end):
            raise ValueError(f"t_end={self.t_end!r} is not a whole number of steps "
                             f"dt={self.dt!r}; the nearest is {self.n_steps * self.dt!r}")

    @property
    def n_steps(self) -> int:
        """Number of steps from t = 0 to t_end."""
        return int(round(self.t_end / self.dt))

    @property
    def recorded_steps(self) -> np.ndarray:
        """Every ``record_every``-th step and the last (np.unique imports numpy.ma)."""
        return np.append(np.arange(0, self.n_steps, self.record_every), self.n_steps)


@dataclass
class Trajectory:
    """Recorded observables of one integration.

    All per-sample arrays share one length and ``times`` is strictly
    increasing.  ``negative_rate`` marks samples where the rate model
    produced a negative rate (non-Lindblad excursion); ``within_rate_bound``
    marks samples satisfying (n_sys - n_res) * gamma * t <= n_res, the
    regime in which the feedback correction stays a small perturbation.
    Minimum eigenvalues are sampled at checkpoint times only.
    ``final_state`` is the density matrix at the last time (None for the
    population ladder), built from the stepped diagonals on first read.
    """

    times: np.ndarray
    n_bar: np.ndarray
    populations: np.ndarray
    trace: np.ndarray
    purity: np.ndarray
    negative_rate: np.ndarray
    within_rate_bound: np.ndarray
    check_times: np.ndarray
    min_eigenvalues: np.ndarray
    _final: tuple[_Band, np.ndarray] | None = field(default=None, repr=False)

    @cached_property
    def final_state(self) -> np.ndarray | None:
        if self._final is None:
            return None
        band, x = self._final
        return band.dense(x)


class IntegrationError(RuntimeError):
    """Tolerance violation during integration, with time and diagnostics."""

    def __init__(self, message: str, t: float, trace: float, min_eigenvalue):
        super().__init__(f"{message} at t={t:g} (trace={trace:g}, "
                         f"min eigenvalue={min_eigenvalue})")
        self.t = t
        self.trace = trace
        self.min_eigenvalue = min_eigenvalue


# ---------------------------------------------------------------------------
# state constructors and observables
# ---------------------------------------------------------------------------

def default_dim(n_max: float) -> int:
    """Truncation size keeping Poissonian tails below ~1e-9 (a geometric
    tail at the same mean is heavier; see ``_thermal_dim``).

    n_max should be the largest mean occupation the run will see,
    typically max(n_sys(0), n_res).
    """
    _nonnegative("n_max", n_max)
    return math.ceil(n_max + 12.0 * math.sqrt(n_max + 1.0)) + 4


def _thermal_dim(n_bar: float, eps: float) -> int:
    """Smallest dim whose thermal tail mass (n_bar/(1+n_bar))**dim is < eps."""
    x = n_bar / (1.0 + n_bar)
    return 1 if x == 0 else math.floor(math.log(eps) / math.log(x)) + 1


def _populations(n0, dim: int, fock: bool, stacklevel: int = 2) -> np.ndarray:
    """The diagonal of ``number_state(n0, dim)`` if ``fock``, else of
    ``thermal_state(n0, dim)``, checked and warned about as they are, the
    warning at ``warnings.warn``'s ``stacklevel``."""
    if fock:
        level, dim = _integer("level", n0, 0), _integer("dim", dim, 2)
        if level >= dim:
            raise ValueError(f"level must satisfy 0 <= level < dim, got {level}")
        p = np.zeros(dim)
        p[level] = 1.0
        return p
    dim = _integer("dim", dim, 2)
    _nonnegative("n_bar", n0)
    x = n0 / (1.0 + n0)
    enough = _thermal_dim(n0, 1e-3)
    if dim < enough:
        warnings.warn(
            f"thermal_state(n_bar={n0}, dim={dim}) keeps only "
            f"{(1 - x**dim) * 100:.2f}% of the untruncated mass; "
            f"consider dim >= {enough}",
            stacklevel=stacklevel)
    p = x ** np.arange(dim)
    p /= p.sum()
    return p


def thermal_state(n_bar: float, dim: int) -> np.ndarray:
    """Thermal (geometric) density matrix renormalized over the truncation.

    Warns if the truncation captures less than 99.9% of the untruncated
    mass, i.e. (n_bar/(1+n_bar))**dim > 1e-3.
    """
    return np.diag(_populations(n_bar, dim, False, 3).astype(complex))


def number_state(level: int, dim: int) -> np.ndarray:
    """Projector onto Fock level ``level`` (sharp occupation)."""
    return np.diag(_populations(level, dim, True).astype(complex))


def mean_occupation(rho: np.ndarray) -> float:
    """Mean occupation sum_i i * rho_ii (real part of the diagonal)."""
    return float(np.real(np.arange(rho.shape[0]) @ rho.diagonal()))


def _min_eigenvalue(dim: int, g: int, rows, cols, values, negligible: float = 0.0) -> float:
    """Minimum eigenvalue of the dim x dim Hermitian matrix whose lower
    triangle holds ``values`` at (rows, cols), rows >= cols, and whose other
    entries are zero, as ``eigvalsh`` of all of it finds it up to rounding,
    from blocks with the same eigenvalues (Golub & Van Loan, section 8.1).
    A level with no entry beyond ``negligible`` in modulus is left out, as
    a zero row and column: an eigenvalue of 0.  Every entry lies on a
    diagonal at a multiple of g >= 1, so the remaining levels of each
    residue mod g form a block.  The blocks are gathered from the entries
    alone, along the diagonal of one matrix of the remaining levels stably
    sorted by residue: each keeps the level order, so ``eigvalsh`` reads
    the lower triangle that the whole matrix has there.
    """
    big = np.abs(values) > negligible
    live = np.bincount(np.append(rows[big], cols[big]), minlength=dim) > 0
    keep = live[rows] & live[cols]
    rows, cols, values, levels = rows[keep], cols[keep], values[keep], np.flatnonzero(live)
    residues = levels % g
    order = np.argsort(residues, kind="stable")
    at = np.empty(dim, dtype=np.intp)
    at[levels[order]] = np.arange(len(levels))
    m = np.zeros((len(levels),) * 2, dtype=values.dtype)
    m[at[cols], at[rows]] = values.conj()
    m[at[rows], at[cols]] = values
    ends = [*np.flatnonzero(np.diff(residues[order])) + 1, len(levels)]
    return float(min([np.linalg.eigvalsh(m[a:b, a:b]).min() for a, b in zip([0] + ends, ends)]
                     + [0.0] * (len(levels) < dim)))


def check_density_matrix(rho: np.ndarray):
    """Raise ValueError unless rho is a non-empty square matrix of finite
    entries, Hermitian, near-unit-trace, and PSD within the tolerance budget.

    Returns the offsets k >= 0 of rho's nonzero diagonals, ascending (0
    among them), and its minimum eigenvalue, computed block by block
    (:func:`_min_eigenvalue`; a diagonal rho needs no ``eigvalsh``).
    """
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    dim = len(rho)
    if not dim:
        raise ValueError("density matrix is empty (0 x 0)")
    diagonal = rho.diagonal()
    # every entry off the diagonal, as rows of dim + 1 flat entries less the last
    if rho.reshape(-1)[1:].reshape(dim - 1, dim + 1)[:, :dim].any():
        rows, cols = np.nonzero(rho != 0)
        values = rho[rows, cols]
    else:
        rows, values = None, diagonal
    if not np.isfinite(values).all():
        raise ValueError("density matrix has an entry that is not finite")
    # a zero entry with a zero mirror adds nothing, and a population's
    # asymmetry is twice its imaginary part
    herm = (2.0 * np.abs(diagonal.imag).max() if rows is None
            else np.abs(values - rho[cols, rows].conj()).max())
    if not herm <= _HERM_TOL:
        raise ValueError(f"not Hermitian: max asymmetry {herm:g} > {_HERM_TOL:g}")
    tr = float(np.real(np.trace(rho)))
    if not _TRACE_MIN <= tr <= _TRACE_MAX:
        raise ValueError(f"trace {tr!r} outside [{_TRACE_MIN!r}, {_TRACE_MAX!r}]")
    if rows is None:
        offsets, min_eig = np.zeros(1, dtype=np.intp), float(diagonal.real.min())
    else:
        # a unit trace puts 0 among the offsets (np.unique would import numpy.ma)
        offsets = np.flatnonzero(np.bincount(np.abs(rows - cols)))
        lower = rows >= cols
        min_eig = _min_eigenvalue(dim, int(np.gcd.reduce(offsets)), rows[lower],
                                  cols[lower], values[lower])
    if not min_eig >= -_POS_TOL:
        raise ValueError(f"not positive: min eigenvalue {min_eig:g} < -{_POS_TOL:g}")
    return offsets, min_eig


# ---------------------------------------------------------------------------
# generator and integrator
# ---------------------------------------------------------------------------

class _Band:
    """The dissipator acting on the stored diagonals of rho (module
    docstring), row j holding the offset ``offsets[j]`` diagonal.  It maps
    each diagonal onto itself as a tridiagonal chain,

        dx_i/dt = -(g_down a_i + g_up b_i) x_i
                  + g_down c_i x_{i+1} + g_up c_{i-1} x_{i-1},

    with a_i = i + k/2, b_i = (m_{i+k} + m_i)/2 for m the diagonal of the
    truncated a a+ (zero at the top level) and c_i = sqrt((i+k+1)(i+1)):
    at k = 0 the birth-death chain of populations, level i decaying at
    i g_down and rising at (i + 1) g_up, not at all from the top level.
    ``taps`` holds the planes of D (a = 0) and U (a = 1) that are not
    always zero, shape (2, 2, rows, dim), taps[a, b] multiplying
    x[j, i + b - a]; they vanish on the padding and at both row ends, so
    the padding stays zero.  ``top`` holds row 0's planes on its top 8
    levels, zero below level 0: no path of at most 4 steps from the top 4
    rows leaves them.  Row 0 is always k = 0, the population ladder
    (:mod:`qcooling.ladder`); when it is the only row the state is real
    and diagonal.  ``g`` is the gcd of the offsets.
    """

    def __init__(self, dim: int, offsets):
        self.dim = dim
        self.offsets = np.asarray(offsets)
        self.g = int(np.gcd.reduce(self.offsets))
        k = self.offsets[:, None]
        i = np.arange(dim)
        top = i + k
        self.mask = inside = top < dim
        m = np.concatenate((np.arange(1.0, dim), np.zeros(dim)))
        # the powers 0 .. 4 of the levels, exact integers (:func:`_chain_powers`)
        self.powers = np.ascontiguousarray(np.vander(i.astype(float), 5, increasing=True).T)
        self.levels = self.powers[1]
        self.taps = np.zeros((2, 2, *inside.shape))
        self.taps[0, 0] = np.where(inside, -(i + 0.5 * k), 0.0)
        self.taps[1, 1] = np.where(inside, -0.5 * (m[top] + m[i]), 0.0)
        top = top[:, :-1] + 1.0
        self.taps[0, 1, :, :-1] = np.where(top < dim, np.sqrt(top * (i[:-1] + 1.0)), 0.0)
        self.taps[1, 0, :, 1:] = self.taps[0, 1, :, :-1]
        self.top = np.zeros((2, 2, 8))
        self.top[..., -min(dim, 8):] = self.taps[:, :, 0, -8:]
        rows, cols = np.nonzero(inside)
        self.lower = (cols + self.offsets[rows], cols)
        for a in (self.offsets, self.mask, self.powers, self.levels, self.taps, self.top,
                  *self.lower):
            a.flags.writeable = False

    @cached_property
    def wall(self):
        """The 31 words on all dim levels of the k = 0 chain as T (31, 9, 9)
        times a basis (9, dim): the powers 0 .. 4 of the levels below the
        top 4 rows, and those rows' indicators, their taps built on ``top``."""
        n = self.dim
        T = np.concatenate((_WORDS_FREE, _products(self.top[:, :, None], np.eye(2))[:, :, 0, 4:]),
                           axis=2)
        basis = np.concatenate((self.powers * (self.levels < n - 4), np.eye(4, n, n - 4)))
        T.flags.writeable = basis.flags.writeable = False
        return T, basis

    def pack(self, rho: np.ndarray) -> np.ndarray:
        """Stored diagonals of the Hermitian part of rho (real if k = 0 only)."""
        if len(self.offsets) == 1:
            # 0.5 (p + conj(p)) is Re p exactly
            return rho.diagonal().real.astype(float)[None]
        r, c = self.lower
        x = np.zeros(self.mask.shape, dtype=complex)
        x[self.mask] = 0.5 * (rho[r, c] + rho[c, r].conj())
        return x

    def dense(self, x: np.ndarray) -> np.ndarray:
        r, c = self.lower
        rho = np.zeros((self.dim, self.dim), dtype=complex)
        rho[c, r] = x[self.mask].conj()
        rho[r, c] = x[self.mask]
        return rho


_band = lru_cache(maxsize=16)(_Band)


def _products(taps: np.ndarray, rates) -> np.ndarray:
    """Every product of at most 4 factors r_D D + r_U U, each one of the f
    rows (r_D, r_U) of ``rates``, on the chains whose planes are ``taps``
    (2, 2, rows, n) as :class:`_Band` stores them, as nine taps each, shape
    (1 + f + .. + f^4, 9, rows, n): by length, then by the factors' rows,
    the leftmost the most significant.  Built a factor at a time."""
    (d_diag, d_up), (u_low, u_diag) = taps
    # the entries [i, i], [i, i + 1] and [i, i - 1] of every chain, per factor
    factors = [(r_d * d_diag + r_u * u_diag, r_d * d_up, r_u * u_low) for r_d, r_u in rates]
    f = len(factors)
    P = np.zeros((1 + f + f ** 2 + f ** 3 + f ** 4, 9, *d_diag.shape))
    P[0, 4] = 1.0
    start, m = 0, 1   # the products of the last length, P[start:start + m]
    for _ in range(4):
        prev = P[start:start + m]
        for r, (diag, up, down) in enumerate(factors, 1):
            block = P[start + r * m:start + (r + 1) * m]
            np.multiply(diag, prev, out=block)
            block[:, 1:, :, :-1] += up[:, :-1] * prev[:, :-1, :, 1:]
            block[:, :-1, :, 1:] += down[:, 1:] * prev[:, 1:, :, :-1]
        start, m = start + m, f * m
    return P


# the 31 ordered words of at most 4 factors of D and U, by length j, the m-th
# word of length j having U as its factor i from the left where bit j - 1 - i
# of m is set: each word's length and its count of U
_WORD_LEN, _WORD_U = np.array([(j, m.bit_count()) for j in range(5) for m in range(2 ** j)]).T
# the integer coefficient _WORDS_FREE[w, d, p] of i^p in tap d, multiplying
# x[i + d - 4], of word w on each row i of the k = 0 chain at least 4 below its
# top level (a path below level 0 has a zero factor), fitted at levels 4 .. 8
# of the dim-13 chain
_WORDS_FREE = np.rint(np.dot(np.linalg.inv(np.vander(np.arange(4.0, 9.0), increasing=True)),
                             _products(_Band(13, (0,)).taps, np.eye(2))[:, :, 0, 4:9]
                             .reshape(-1, 5).T).T).reshape(31, 9, 5)
_WORDS_FREE.flags.writeable = False


def _word_taps(band: _Band, hi: int):
    """(T, basis), T @ basis the 31 words on the first ``hi`` levels of the
    k = 0 chain of ``band`` (hi <= dim - 4 or hi = dim)."""
    return band.wall if hi == band.dim else (_WORDS_FREE, band.powers[:, :hi])


def _chain_powers(band: _Band, hi: int, g_down: float, g_up: float) -> np.ndarray:
    """(g_down D + g_up U)^j on the first ``hi`` levels of the k = 0 chain
    of ``band`` (hi <= dim - 4 or hi = dim) for j = 0 .. 4, as nine taps
    each, shape (5, 9, hi)."""
    T, basis = _word_taps(band, hi)
    weights = np.equal.outer(range(5), _WORD_LEN) * (g_down ** (_WORD_LEN - _WORD_U)
                                                     * g_up ** _WORD_U)
    return np.dot(np.dot(weights, T.reshape(31, -1)).reshape(-1, len(basis)),
                  basis).reshape(5, 9, hi)


def _shifted(x0: np.ndarray, width: int):
    """Two states of x0's shape, the first set to x0 and the second a
    scratch state, each in a flat buffer between width // 2 zeros at either
    end, and the first's read-only views x[j, i + d - width // 2] of shape
    (width, rows, dim)."""
    nb, dim = x0.shape
    h, step = width // 2, x0.itemsize
    bufs = np.zeros((2, nb * dim + 2 * h), dtype=x0.dtype)
    states = bufs[:, h:h + nb * dim].reshape(2, nb, dim)
    states[0] = x0
    return states, np.ndarray((width, nb, dim), x0.dtype, memoryview(bufs[0]).toreadonly(), 0,
                              (step, dim * step, step))


def lindblad_rhs(rho: np.ndarray, t: float, model: RateModel) -> np.ndarray:
    """Right-hand side of the master equation (module docstring) at time t,
    dense, at O(dim^2) cost, with FEEDBACK's n_sys read off ``rho``:
    complex for any ``rho``, and traceless, as the truncated generator
    conserves probability exactly."""
    _nonnegative("t", t)
    g_down, g_up = model.rates(t, mean_occupation(rho))
    n = np.arange(float(len(rho)))
    decay = g_down * n + g_up * np.append(n[1:], 0.0)
    out = np.multiply(-0.5 * (decay[:, None] + decay), rho, dtype=complex)
    c = np.sqrt(np.outer(n[1:], n[1:]))
    out[:-1, :-1] += g_down * c * rho[1:, 1:]   # a rho a+
    out[1:, 1:] += g_up * c * rho[:-1, :-1]     # a+ rho a
    return out


# stored entries (rows x dim) whose step operator _polynomial_step builds and
# applies at once, and the most a block of SCALED step operators spans (steps
# x rows x dim), or 1/8 of a dense power's entries: a Fock or few-level state
# is one block of entries, while a fully coherent one needs 45 * _BUILD_ROWS
# floats of build temporaries and 9 * _BUILD_ROWS products
_BUILD_ROWS = 2048


def _window_end(x: np.ndarray) -> int:
    """End hi of the window of levels [0, hi) to step x on (module
    docstring); all dim levels if x has more than one row."""
    nb, dim = x.shape
    if nb > 1:
        return dim
    live = np.flatnonzero(np.abs(x[0]) > _NEGLIGIBLE)
    hi = (live[-1] + 1 if live.size else 0) + 6 * _WINDOW_EVERY
    return dim if hi > dim - 4 else int(hi)


def _staged_step(band: _Band, x0: np.ndarray, model: RateModel, dt: float):
    """``advance`` for RK4 steps from x0 on all dim levels, each stage's
    slope one product of the four planes of ``band.taps`` with views of
    its input."""
    nb, dim = x0.shape
    weights = np.array([1.0, 2.0, 1.0, 3.0]) / 3.0
    stage_rates = np.empty(4)   # w_s (g_down, g_down, g_up, g_up), filled in place
    (x, y), _ = _shifted(x0, 3)
    # the views of each buffer; [1, 0] of the first entry reads the zero before it
    views = [as_strided(v, band.taps.shape, (-x0.itemsize, x0.itemsize, *v.strides),
                        writeable=False) for v in (x, y)]
    prod = np.empty(band.taps.shape, dtype=x0.dtype)
    prod_flat = prod.reshape(4, -1).view(float)
    slopes = np.empty((4, nb, dim), dtype=x0.dtype)
    slopes_flat, stage_flat = slopes.reshape(4, -1).view(float), y.reshape(-1).view(float)
    moments, state_row = np.array([band.levels, np.ones(dim)]), x[0].real
    # (c_s, w_s, the views and k = 0 row of the stage's input, the slope the
    # input adds, the stage's own slope)
    stages = list(zip((0.0, 0.5 * dt, 0.5 * dt, dt), (0.5 * dt, 0.5 * dt, dt, dt / 6.0),
                      views[:1] + 3 * views[1:], [x[0].real] + 3 * [y[0].real],
                      [None, *slopes[:3]], slopes_flat))

    g2, down, up = model._feedback()
    n_res = model.n_res
    read, rate, combine = moments.dot, stage_rates.dot, weights.dot

    def advance(n0, n1):
        add, multiply, taps = np.add, np.multiply, band.taps
        for n in range(n0 + 1, n1 + 1):
            t = (n - 1) * dt
            n_bar, trace = read(state_row).tolist()
            n_s = n_bar
            for c, w, x_views, row, prev, k in stages:
                if c:
                    add(x, prev, out=y)
                corr = g2 * (n_s - n_res) * (t + c)
                g_down, g_up = down + corr, up + corr
                stage_rates[0] = stage_rates[1] = w * g_down
                stage_rates[2] = stage_rates[3] = w * g_up
                multiply(taps, x_views, out=prod)
                rate(prod_flat, k)
                n_s = n_bar + w * (g_up * (n_s + trace - dim * row.item(-1)) - g_down * n_s)
            combine(slopes_flat, stage_flat)
            add(x, y, out=x)
        return x

    return advance


# K[S, w] of a FEEDBACK run, the coefficient in word w's weight of the
# product over the stages s in S of e_s, stage s's U-rate (its D-rate being
# e_s + gamma), sums 52 pairs of a run of n = 1 .. 4 consecutive stages
# a .. a + n - 1 and a word of length n, whose factor from stage a + q is U
# where bit q is set: the run's RK4 weight if it covers S (_RUN_WEIGHT) times
# _RUN_FACTOR[q, S, pair] over q, indices into (dt, dt gamma, 0, 1): dt in S,
# dt gamma for a factor D outside S, 0 for a factor U outside it, 1 past the run
def _run_tables():
    n, a, m, w = np.array([(n, a, m, w) for n, ws in enumerate(
        (np.array([1, 2, 2, 1]) / 6, [1 / 6] * 3, [1 / 12] * 2, [1 / 24]), 1)
        for a, w in enumerate(ws) for m in range(2 ** n)]).T
    n, a, m = (v.astype(int) for v in (n, a, m))
    S, q = np.arange(16)[:, None], np.arange(4)[:, None, None]
    return (np.where(q >= n, 3, np.where(S >> (a + q) & 1, 0, 1 + (m >> q & 1))),
            np.where(S & ~(2 ** n - 1 << a) == 0, w, 0.0),
            np.equal.outer(2 ** n - 2 + m, range(30)) * 1.0)


_RUN_FACTOR, _RUN_WEIGHT, _RUN_WORD = _run_tables()


def _monomials(e1, e2, e3, e4):
    """The 16 products of the stage U-rates e_s over the stages s in S, bit
    s - 1 of S set (:data:`_RUN_FACTOR`)."""
    e12, e34 = e1 * e2, e3 * e4
    return (1.0, e1, e2, e12, e3, e1 * e3, e2 * e3, e12 * e3,
            e4, e1 * e4, e2 * e4, e12 * e4, e34, e1 * e34, e2 * e34, e12 * e34)


def _feedback_build(band: _Band, model: RateModel, dt: float, n_steps: int, row, ops, K):
    """``build(lo)``, which writes to ops, shape (span, 9, hi), the nine
    taps of P - I for each FEEDBACK step lo + 1 .. lo + span (at most
    n_steps) of a one-row state on its first hi levels, P the step's
    operator, from ``row``, which holds the state at step lo, and the
    run's K (:data:`_RUN_FACTOR`; module docstring).  Each stage's rates
    are ``RateModel.rates`` written out, operation for operation."""
    dim, span, hi = band.dim, len(ops), ops.shape[-1]
    T, basis = _word_taps(band, hi)
    Q = np.dot(K, T[1:].reshape(30, -1))
    mono, coeffs = np.zeros((span, 16)), np.empty((span, Q.shape[1]))
    # the mean, the trace and rows n - 2 .. n, n = dim - 1, of the state, read
    # together on both paths: BLAS's sum for one row can depend on the others
    moments = np.vstack((band.levels, np.ones(dim), np.eye(3, dim, dim - 3)))
    read, weigh, expand = moments.dot, mono.dot, coeffs.reshape(-1, len(basis)).dot
    out = ops.reshape(-1, hi)
    g2, down, up = model._feedback()
    n_res, h = model.n_res, 0.5 * dt
    if hi < dim:
        # every entry on rows n - 2 .. n is 0, and the mean is carried from
        # step to step
        b1, b2, mono_flat = dt / 6.0, dt / 3.0, mono.reshape(-1)

        def build(lo):
            n_bar, trace = read(row)[:2].tolist()
            monomials = []
            for n in range(lo, min(lo + span, n_steps)):
                t = n * dt
                c = g2 * (n_bar - n_res) * t
                d, e1 = down + c, up + c
                s1 = e1 * (n_bar + trace) - d * n_bar
                m = n_bar + h * s1
                c = g2 * (m - n_res) * (t + h)
                d, e2 = down + c, up + c
                s2 = e2 * (m + trace) - d * m
                m = n_bar + h * s2
                c = g2 * (m - n_res) * (t + h)
                d, e3 = down + c, up + c
                s3 = e3 * (m + trace) - d * m
                m = n_bar + dt * s3
                c = g2 * (m - n_res) * (t + dt)
                d, e4 = down + c, up + c
                n_bar = n_bar + b1 * s1 + b2 * s2 + b2 * s3 + b1 * (e4 * (m + trace) - d * m)
                monomials += _monomials(e1, e2, e3, e4)
            # a short last block leaves the rows past it stale, which no step reads
            mono_flat[:len(monomials)] = monomials
            weigh(Q, coeffs)
            expand(basis, out)

        return build

    # the taps of D and U on rows n - 1 (dd1, ...) and n: the slopes of stages
    # 2 and 3, and so the means of stages 3 and 4, read row n of their inputs
    # x + w A y, carried on rows n - 1 and n
    dd1, dd, du1, _, ul1, ul, ud1, ud = band.top[..., -2:].ravel().tolist()

    def build(n):
        n_bar, trace, z0, z1, z2 = read(row).tolist()
        t = n * dt
        c = g2 * (n_bar - n_res) * t
        d, e1 = down + c, up + c
        s = e1 * (n_bar + trace - dim * z2) - d * n_bar
        # rows n - 1 and n of stage 2's input; stage 1's input is x
        y1 = z1 + h * (d * (dd1 * z1 + du1 * z2) + e1 * (ul1 * z0 + ud1 * z1))
        y2 = z2 + h * (d * dd * z2 + e1 * (ul * z1 + ud * z2))
        m = n_bar + h * s
        c = g2 * (m - n_res) * (t + h)
        d, e2 = down + c, up + c
        s = e2 * (m + trace - dim * y2) - d * m
        # row n of stage 3's input, the last that a mean reads
        y2 = z2 + h * (d * dd * y2 + e2 * (ul * y1 + ud * y2))
        m = n_bar + h * s
        c = g2 * (m - n_res) * (t + h)
        d, e3 = down + c, up + c
        m = n_bar + dt * (e3 * (m + trace - dim * y2) - d * m)
        mono[0] = _monomials(e1, e2, e3, up + g2 * (m - n_res) * (t + dt))
        weigh(Q, coeffs)
        expand(basis, out)

    return build


def _dense_steps(taps: np.ndarray, states: np.ndarray):
    """``run(n0, n1)``, returning the state at step n1, for the fixed step
    x + E x, E = P - I with the nine taps ``taps`` (9, rows, dim) on all
    levels, from states[0] at the n0 of its first call: it steps its chain
    in states[0] and takes each sample in states[1] (module docstring)."""
    nb, dim = taps.shape[1:]
    buf = np.zeros((nb, dim, dim + 8))
    # tap d of row i lands in column i + d of the buffer, i + d - 4 of E
    as_strided(buf, taps.shape, (8, 8 * dim * (dim + 8), 8 * (dim + 9)))[...] = taps
    powers, at = [buf[..., 4:-4]], None
    chain, sample = (x.view(float).reshape(nb, dim, -1) for x in states)

    def apply(j, v):
        while len(powers) <= j:
            powers.append(2.0 * powers[-1] + np.matmul(powers[-1], powers[-1]))
        v += np.matmul(powers[j], v)

    def run(n0, n1):
        nonlocal at
        if at is None:
            at = n0
        for _ in range((n1 - at) // 16):
            apply(4, chain)
        at = n1 - (n1 - at) % 16
        states[1] = states[0]
        for j in range(4):
            if (n1 - at) >> j & 1:
                apply(j, sample)
        return states[1]

    return run


def _wall_steps(build, op, views, states):
    """``run(n0, n1)`` for FEEDBACK steps of a one-row state on all its
    levels, from states[0], its tap sum taken in states[1]: one ``build``
    of the step's taps ``op`` (9, dim) and one step a turn."""
    x, out = states[0], states[1, 0]
    prod = np.empty(op.shape)
    views, tap_sum = views[:, 0], np.ones(9).dot

    def run(n0, n1):
        multiply, add, row = np.multiply, np.add, x[0]
        for n in range(n0, n1):
            build(n)
            prod[...] = views
            multiply(op, prod, prod)
            tap_sum(prod, out)
            add(row, out, row)
        return x

    return run


def _polynomial_step(band: _Band, x0: np.ndarray, model: RateModel,
                     dt: float, n_steps: int):
    """``advance`` for RK4 steps from x0 under a linear law, or FEEDBACK on
    one row; the state it returns depends on n1 alone, not on the
    intervals."""
    nb, dim = x0.shape
    law = model.law
    feedback = law is RateLaw.FEEDBACK
    g_down, g_up = (dt * g for g in model.rates(0.0, 0.0))
    if not feedback:
        # the coefficients of (dt A)^j for the scale f1, f2, f3 at t, t + dt/2
        # and t + dt, linear in t; CONSTANT's are five scalars
        t = np.arange(n_steps) * dt if law is RateLaw.SCALED else 0.0
        f1, f2, f3 = (_rate_scale(model, s) for s in (t, t + 0.5 * dt, t + dt))
        f22 = f2 * f2
        coeffs = np.array([np.ones_like(f2), f2, 0.5 * f22, f22 * f2 / 6.0,
                           f1 * f3 * f22 / 24.0]).T
    else:
        f = np.array([dt, dt * model.gamma, 0.0, 1.0])[_RUN_FACTOR]
        K = np.dot(f[0] * f[1] * f[2] * f[3] * _RUN_WEIGHT, _RUN_WORD)
    states, views = _shifted(x0, 9)
    x, tap_sum = states[0], np.ones(9).dot

    def make(hi):
        size = max(1, _BUILD_ROWS // hi)
        blocks = [slice(lo, min(lo + size, nb)) for lo in range(0, nb, size)]
        build = None
        if feedback:
            span = _WINDOW_EVERY if hi < dim else 1
            ops = np.empty((span, 9, 1, hi))
            build = _feedback_build(band, model, dt, n_steps, x[0], ops.reshape(span, 9, hi), K)
            if hi == dim:
                return _wall_steps(build, ops[0, :, 0], views, states)
        elif (law is RateLaw.CONSTANT and hi == dim and nb * dim * dim <= 8 * _BUILD_ROWS
              and nb * dim ** 3 <= 4 * _BUILD_ROWS * n_steps):
            P = (_chain_powers(band, dim, g_down, g_up) if nb == 1
                 else _products(band.taps, [(g_down, g_up)]))
            return _dense_steps(np.dot(coeffs[1:], P[1:].reshape(4, -1)).reshape(9, nb, dim),
                                states)
        else:
            span = max(1, min(n_steps, _BUILD_ROWS // (nb * hi)))
            B = np.empty((5, 9, nb, hi)) if law is RateLaw.SCALED else None
            ops = np.empty((1 if B is None else span, 9, nb, hi))
            for chains in blocks:
                P = (_chain_powers(band, hi, g_down, g_up) if nb == 1
                     else _products(band.taps[:, :, chains], [(g_down, g_up)]))
                if B is None:
                    ops[0][:, chains] = np.dot(coeffs, P.reshape(5, -1)).reshape(9, -1, hi)
                else:
                    B[:, :, chains] = P.reshape(5, 9, -1, hi)
            if B is not None:
                B, ops_flat = B.reshape(5, -1), ops.reshape(span, -1)

                def build(lo):
                    c = coeffs[lo:lo + span]
                    c.dot(B, ops_flat[:len(c)])

        # each block of rows' operators, one per step of a block of steps, its
        # input views and their contiguous copy, and as floats the copy, the
        # tap sum's output and the state; a block of one row takes 2-D
        # operands, and a window short of dim has one row, so its output is
        # contiguous
        copies, rows = np.empty(9 * min(size, nb) * hi, dtype=x0.dtype), []
        for r in blocks:
            at = r.start if r.stop - r.start == 1 else r
            x_r = views[:, at, :hi]
            copy = copies[:x_r.size].reshape(x_r.shape)
            rows.append((list(ops[:, :, at]) * (span if build is None else 1), x_r, copy,
                         copy.reshape(9, -1).view(float),
                         (states[1] if feedback else x)[r, :hi].reshape(-1).view(float),
                         x[r, :hi].reshape(-1).view(float)))
        built = None

        def run(n0, n1):
            nonlocal built
            multiply, add = np.multiply, np.add
            for lo in range(n0 - n0 % span, n1, span):
                if build is not None and lo != built:
                    build(lo)
                    built = lo
                steps = range(max(n0 - lo, 0), min(n1 - lo, span))
                for seq, x_r, copy, terms, out, x_flat in rows:
                    for s in steps:
                        copy[...] = x_r
                        multiply(seq[s], copy, copy)
                        tap_sum(terms, out)
                        if feedback:
                            add(x_flat, out, x_flat)
            return x

        return run

    # a one-row state is stepped on its window of live levels (module docstring)
    every = _WINDOW_EVERY
    hi = _window_end(x)
    run = make(hi)
    if hi == dim:
        return run
    x[:, hi:] = 0.0

    def advance(n0, n1):
        nonlocal hi, run
        while n0 < n1:
            stop = n1 if hi == dim else min(n1, n0 - n0 % every + every)
            state = run(n0, stop)
            n0 = stop
            if hi < dim and not n0 % every and np.abs(x[0, hi - 4 * every:hi]).max() > _NEGLIGIBLE:
                hi = _window_end(x)
                run = make(hi)
        return state

    return advance


def _evolve(band: _Band, x0: np.ndarray, model: RateModel, cfg: IntegratorConfig,
            min_eig0: float | None = None) -> tuple[Trajectory, np.ndarray]:
    """Fixed-step RK4 on the stored diagonals ``x0``, shared by
    :func:`integrate` and the population ladder; returns the trajectory
    and the final diagonals.  A sample keeps the populations and the
    purity (each k > 0 diagonal counted twice, for its k < 0 mirror).
    ``min_eig0``, if given, is the minimum eigenvalue at t = 0."""
    x = x0
    dt, n_steps = cfg.dt, cfg.n_steps
    # a run of no steps never advances, so it builds no propagator
    advance = None if not n_steps else (
        _staged_step(band, x0, model, dt) if model.law is RateLaw.FEEDBACK and len(x0) > 1
        else _polynomial_step(band, x0, model, dt, n_steps))
    # Python ints compare fastest
    recorded = cfg.recorded_steps.tolist()
    events = sorted({*recorded, *range(0, n_steps, _CHECK_EVERY), n_steps})
    pops, purities = np.empty((len(recorded), band.dim)), np.empty(len(recorded))
    check_times, min_eigs, sample, one_row = [], [], 0, len(x0) == 1

    def checkpoint(step, min_eig):
        t = step * dt
        tr = float(x[0].real.sum())
        # an entry of a state inside the budget is at most 1 + dim 1e-8 in modulus
        if not np.abs(x).max() <= 2.0:
            raise IntegrationError("state has blown up (unstable step size?)",
                                   t, tr, float("nan"))
        if min_eig is None:
            min_eig = float(x[0].min()) if band.g == 0 else _min_eigenvalue(
                band.dim, band.g, *band.lower, x[band.mask], _NEGLIGIBLE)
        check_times.append(t)
        min_eigs.append(min_eig)
        if not _TRACE_MIN <= tr <= _TRACE_MAX:
            raise IntegrationError("trace leak exceeds budget", t, tr, min_eig)
        if not min_eig >= -_POS_TOL:
            raise IntegrationError("positivity violated", t, tr, min_eig)

    # a state that blows up between checkpoints overflows the purity of its
    # next sample, which then runs the checkpoint; that raises, because a
    # state inside the budget has purity <= 1
    with np.errstate(over="ignore", invalid="ignore"):
        for n0, step in zip([0] + events, events):
            if step:
                x = advance(n0, step)
            if step == recorded[sample]:
                p = pops[sample] = x[0].real
                # a one-row state is real, and its purity is p.p
                purity = purities[sample] = (p.dot(p) if one_row
                                             else 2.0 * np.vdot(x, x).real - p.dot(p))
                sample += 1
                if not math.isfinite(purity):
                    checkpoint(step, None)
            if step % _CHECK_EVERY == 0 or step == n_steps:
                checkpoint(step, None if step else min_eig0)

    times = np.array(recorded) * dt
    n_bar = pops @ band.levels
    g_down, g_up = model.rates(times, n_bar)
    return Trajectory(
        times=times,
        n_bar=n_bar,
        populations=pops,
        trace=pops.sum(axis=1),
        purity=purities,
        # a law that reads neither time nor state gives one flag for all
        negative_rate=np.full(times.shape, (g_down < 0.0) | (g_up < 0.0)),
        within_rate_bound=(n_bar - model.n_res) * model.gamma * times <= model.n_res,
        check_times=np.array(check_times),
        min_eigenvalues=np.array(min_eigs),
    ), x


def integrate(rho0: np.ndarray, model: RateModel, cfg: IntegratorConfig) -> Trajectory:
    """Fixed-step RK4 integration of the master equation from rho0, which
    :func:`check_density_matrix` must accept.  Raises
    :class:`IntegrationError`, with the time and diagnostics, where a
    checkpoint (README, Numerical notes) finds the state blown up or
    outside the tolerance budget."""
    offsets, min_eig = check_density_matrix(rho0)
    band = _band(rho0.shape[0], tuple(offsets.tolist()))
    traj, x = _evolve(band, band.pack(rho0), model, cfg, min_eig)
    traj._final = band, x
    return traj
