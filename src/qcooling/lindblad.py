"""Truncated Fock-space integrator for the damped-oscillator master equation.

The dissipator is the standard pair of lowering/raising channels,

    dS/dt = -(g_down/2) [N S - 2 a S a+ + S N]
            -(g_up/2)   [a a+ S - 2 a+ S a + S a a+],

integrated in the frame rotating with the free Hamiltonian (the
commutator only rotates coherences and never touches populations or the
mean occupation, so it is dropped; this removes the fast timescale and
lets dt be set by the rates alone).

Three rate laws are supported (:class:`RateLaw`):

* ``CONSTANT``  g_down = g (1 + n_res),  g_up = g n_res  -- fixed rates.
* ``FEEDBACK``  both rates get the additive, state-dependent correction
  c = g^2 (n_sys(t) - n_res) t read off the instantaneous state.  As
  g_down - g_up = g, the mean is n_res + (n(0) - n_res) exp(-g t + g^2 t^2/2),
  which diverges past t = 1/g, so the law is only meaningful on t < 1/g.
  From n(0) = 8 into n_res = 2 it reads 5.64 at t = 1/g, against 4.21 for
  Newton's law and 3.34 for the accelerated one: it cools slower than
  Newton's, and ``SCALED`` is the law that shows the acceleration.  It can
  also drive g_up negative when n_sys < n_res; such rates are flagged per
  sample, not clamped.
* ``SCALED``    both constant rates multiplied by (1 + g t), which makes
  the mean occupation follow the accelerated closed form
  n_res + (n(0) - n_res) exp(-g t (1 + g t / 2)) exactly.

All operators are truncated consistently to the lowest ``dim`` Fock
levels (a+ annihilates the top level), which keeps the generator exactly
trace preserving; the price is a reflecting wall at the top whose effect
on n_sys(t) is set by the population reaching the highest level.
:func:`default_dim` sizes the truncation by a Poisson-tail rule; a
thermal state's geometric tail needs more levels (``_thermal_dim``).

Only the diagonals rho[i + k, i] (k >= 0) present at t = 0 are stored,
one per row of a (rows, dim) array, and each evolves on its own under
g_down D + g_up U for two fixed tridiagonal chains D and U, which
:class:`_Band` stores as their four planes that are not always zero.
Under CONSTANT and SCALED one RK4 step is a degree-4 polynomial in dt A,
one nine-tap operator, the one operator stored taps-first
(:func:`_polynomial_step`), whose taps a step sums with one product with
ones.  On the k = 0 chain alone (every diagonal state, and the ladder)
the powers of dt A are their rate weights times two fixed integer tables
of the polynomials in the level that the rate-free sums of the words in
D and U are (:func:`_chain_tables`), times the powers of the levels; the
band of each recent (dim, offsets) is kept, read-only.  A FEEDBACK
stage dots its rates, read off its state's mean, with the products of
the four planes and views of its state.  That mean follows from scalars,
as levels.(A x) = -g_down n + g_up (n + trace - dim x_top) on the
truncated chain (the last term is the wall).  Both propagators share one
call shape, ``advance(n0, n1)``, which runs steps n0 + 1 .. n1, and a run
calls it once per interval between its events: the recorded steps, every
100th step and the last, where it samples and checkpoints.  A one-row
state is stepped, and its operator built, only on the window of levels
that can carry an entry above ``_NEGLIGIBLE`` before the next of its
checks, every ``_WINDOW_EVERY`` steps (:func:`_windowed`); past it the
state stays exactly 0.  The README gives the step's measured stability
limit; a step beyond it blows up, and the next checkpoint raises
IntegrationError, naming the blow-up.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from itertools import chain

import numpy as np
from numpy.lib.stride_tricks import as_strided


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
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if not (math.isfinite(self.n_res) and self.n_res >= 0):
            raise ValueError(f"n_res must be >= 0 and finite, got {self.n_res}")

    def rates(self, t, n_sys):
        """(g_down, g_up) at time t for mean occupation n_sys, either of which
        may be an array of samples (a law that reads neither returns scalars)."""
        g, n_res = self.gamma, self.n_res
        f = _rate_scale(self, t)
        if f is not None:
            return f * g * (1.0 + n_res), f * g * n_res
        corr = g * g * (n_sys - n_res) * t
        return g * (1.0 + n_res) + corr, g * n_res + corr


# the tolerance budget of every state check: Hermiticity, trace, positivity
_HERM_TOL, _TRACE_MIN, _TRACE_MAX, _POS_TOL = 1e-12, 1.0 - 1e-6, 1.0 + 1e-9, 1e-8
# steps between the checkpoints of a run, which also checks its last step
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
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (math.isfinite(self.t_end) and self.t_end >= 0):
            raise ValueError(f"t_end must be >= 0, got {self.t_end}")
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
    population ladder), built from the stepped diagonals on first read, so
    a run that never reads it builds no dense copy of its last state.
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
    if not (math.isfinite(n_max) and n_max >= 0):
        raise ValueError(f"n_max must be >= 0 and finite, got {n_max}")
    return math.ceil(n_max + 12.0 * math.sqrt(n_max + 1.0)) + 4


def _thermal_dim(n_bar: float, eps: float) -> int:
    """Smallest dim whose thermal tail mass (n_bar/(1+n_bar))**dim is < eps."""
    x = n_bar / (1.0 + n_bar)
    return 1 if x == 0 else math.floor(math.log(eps) / math.log(x)) + 1


def thermal_state(n_bar: float, dim: int) -> np.ndarray:
    """Thermal (geometric) density matrix renormalized over the truncation.

    Warns if the truncation captures less than 99.9% of the untruncated
    mass, i.e. (n_bar/(1+n_bar))**dim > 1e-3.
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    if not (math.isfinite(n_bar) and n_bar >= 0):
        raise ValueError(f"n_bar must be >= 0 and finite, got {n_bar}")
    x = n_bar / (1.0 + n_bar)
    enough = _thermal_dim(n_bar, 1e-3)
    if dim < enough:
        warnings.warn(
            f"thermal_state(n_bar={n_bar}, dim={dim}) keeps only "
            f"{(1 - x**dim) * 100:.2f}% of the untruncated mass; "
            f"consider dim >= {enough}",
            stacklevel=2)
    p = x ** np.arange(dim)
    p /= p.sum()
    return np.diag(p.astype(complex))


def number_state(level: int, dim: int) -> np.ndarray:
    """Projector onto Fock level ``level`` (sharp occupation)."""
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    if not (0 <= level < dim):
        raise ValueError(f"level must satisfy 0 <= level < dim, got {level}")
    rho = np.zeros((dim, dim), dtype=complex)
    rho[level, level] = 1.0
    return rho


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
    Finiteness and Hermiticity are checked over the nonzero entries only:
    a zero entry with a zero mirror adds nothing.  A diagonal rho, which
    has no entry off its diagonal, is read off its diagonal alone, not by
    an index scan of all dim^2 entries; a population's asymmetry is twice
    its imaginary part.
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
    truncated a a+ (zero at the top level) and c_i = sqrt((i+k+1)(i+1)).
    ``taps`` holds the planes of D (a = 0) and U (a = 1) that are not
    always zero, shape (2, 2, rows, dim), taps[a, b] multiplying
    x[j, i + b - a]; they vanish on the padding and at both row ends, so
    the padding stays zero.  Row 0 is always k = 0, the population ladder;
    when it is the only row the state is real and diagonal.  ``g`` is the
    gcd of the offsets.  Every array is read-only, so that one band can
    serve every run on its (dim, offsets) (:func:`_band`).
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
        rows, cols = np.nonzero(inside)
        self.lower = (cols + self.offsets[rows], cols)
        for a in (self.offsets, self.mask, self.powers, self.levels, self.taps, *self.lower):
            a.flags.writeable = False

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


# the band of each recent (dim, offsets), the offsets a tuple; a run reads its
# band and writes nothing to it, so runs on the same diagonals share one
_band = lru_cache(maxsize=16)(_Band)


def _band_powers(taps: np.ndarray, g_down, g_up) -> np.ndarray:
    """(g_down D + g_up U)^j for j = 0 .. 4 on the chains whose planes are
    ``taps``, shape (2, 2, rows, n) as :class:`_Band` stores them, as nine
    taps each, shape (5, 9, rows, n), built one factor at a time; a rate
    may also be a column of one rate per chain."""
    (d_diag, d_up), (u_low, u_diag) = taps
    # the entries [i, i], [i, i + 1] and [i, i - 1] of every chain
    diag = g_down * d_diag + g_up * u_diag
    up, down = g_down * d_up[:, :-1], g_up * u_low[:, 1:]
    P = np.zeros((5, 9, *diag.shape))
    P[0, 4] = 1.0
    for j in range(1, 5):
        np.multiply(P[j - 1], diag, out=P[j])
        P[j, 1:, :, :-1] += up * P[j - 1, :-1, :, 1:]
        P[j, :-1, :, 1:] += down * P[j - 1, 1:, :, :-1]
    return P


# the 15 words of at most 4 factors of D and U, as how many of each, by length
# j and then by falling count of D: the words of length j start at j (j + 1) / 2,
# the m-th being (j - m, m); _POWER_OF_WORD[j] marks them
_WORD_D, _WORD_U = np.array([(a, j - a) for j in range(5) for a in range(j, -1, -1)]).T
_POWER_OF_WORD = np.equal.outer(np.arange(5), _WORD_D + _WORD_U)


def _chain_tables():
    """Integer coefficients of the word sums S[w] of the k = 0 chain (all
    products of ``_WORD_D[w]`` factors D and ``_WORD_U[w]`` factors U, as
    nine taps S[w, d, i] multiplying x[i + d - 4]), polynomials of degree
    <= 4: ``free[w, 5 d + p]`` of i^p on each row i at least 4 below the top
    level n = dim - 1 (a path below level 0 has a zero factor), and
    ``wall[36 w + 4 d + r, p]`` of n^p on row n - 3 + r.  The g^b
    coefficient of (D + g U)^j is S[(j - b, b)], so both are fitted exactly
    to :func:`_band_powers` at five g on the chains of dims 8 .. 13: at
    levels 4 .. 8 of the last and the top 4 rows of the others.  Read-only."""
    g, dims = np.arange(5.0), range(8, 14)

    def fit(x, y):
        # the coefficients of the polynomials of degree <= 4 through y at g + x
        return np.dot(np.linalg.inv(np.vander(g + x, increasing=True)), y)

    # five rows of each chain, zero past its top level
    taps = np.zeros((2, 2, len(dims), 5, 13))
    for n, dim in enumerate(dims):
        taps[..., n, :, :dim] = _Band(dim, (0,)).taps
    P = _band_powers(taps.reshape(2, 2, -1, 13), 1.0, np.tile(g, len(dims))[:, None])
    S = fit(0.0, P.reshape(5, 9, -1, 5, 13).transpose(3, 0, 1, 2, 4).reshape(5, -1))
    S = S.reshape(5, 5, 9, -1, 13)[_WORD_U, _WORD_D + _WORD_U]
    free = fit(4.0, S[:, :, -1, 4:9].reshape(-1, 5).T)
    wall = [S[:, :, n, dim - 4:dim] for n, dim in enumerate(dims[:-1])]
    wall = fit(7.0, np.reshape(wall, (5, -1)))
    free, wall = np.rint(free.T).reshape(15, 45), np.rint(wall.T)
    free.flags.writeable = wall.flags.writeable = False
    return free, wall


_FREE, _WALL = _chain_tables()


def _chain_powers(band: _Band, hi: int, g_down: float, g_up: float) -> np.ndarray:
    """(g_down D + g_up U)^j on the first ``hi`` rows of the k = 0 chain of
    ``band`` (hi <= dim - 4 or hi = dim) for j = 0 .. 4, as nine taps each,
    shape (5, 9, hi): the rate weights g_down^a g_up^b of the words (a, b)
    of length j times the tables of :func:`_chain_tables`, times the powers
    of the levels, or on the top 4 rows, when hi = dim, of the top level."""
    weights = _POWER_OF_WORD * (g_down ** _WORD_D * g_up ** _WORD_U)
    P = np.dot(np.dot(weights, _FREE).reshape(45, 5), band.powers[:, :hi]).reshape(5, 9, hi)
    if hi == band.dim:
        top = np.dot(_WALL, band.powers[:, -1]).reshape(15, 36)
        P[..., -4:] = np.dot(weights, top).reshape(5, 9, 4)[..., max(0, 4 - hi):]
    return P


def _shifted(x0: np.ndarray, width: int):
    """Two states of x0's shape, the first set to x0, each in a flat buffer
    between width // 2 zeros at either end, and for each its read-only
    views x[j, i + d - width // 2] of shape (width, rows, dim)."""
    nb, dim = x0.shape
    h, step = width // 2, x0.itemsize
    bufs = np.zeros((2, nb * dim + 2 * h), dtype=x0.dtype)
    states = bufs[:, h:h + nb * dim].reshape(2, nb, dim)
    states[0] = x0
    return states, [np.ndarray((width, nb, dim), x0.dtype, memoryview(buf).toreadonly(), 0,
                               (step, dim * step, step)) for buf in bufs]


def lindblad_rhs(rho: np.ndarray, t: float, model: RateModel) -> np.ndarray:
    """Right-hand side of the master equation at time t (rotating frame),
    with FEEDBACK's n_sys read off ``rho``: complex for any ``rho``, and
    traceless, as the truncated generator conserves probability exactly.
    It is the dissipator's matrix elements, at O(dim^2) cost,

        out[i, j] = -(g_down (i + j) + g_up (m_i + m_j))/2 rho[i, j]
                    + g_down sqrt((i + 1)(j + 1)) rho[i + 1, j + 1]
                    + g_up sqrt(i j) rho[i - 1, j - 1],

    for m the diagonal of the truncated a a+ (i + 1, zero at the top
    level), without the terms that reach outside the basis.
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be >= 0 and finite, got {t}")
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
# x rows x dim): a Fock or few-level state is one block of entries, while a
# fully coherent one needs 45 * _BUILD_ROWS floats of build temporaries and
# 9 * _BUILD_ROWS products, not copies of its operator
_BUILD_ROWS = 2048


def _window_end(x: np.ndarray) -> int:
    """End of the window of levels [0, hi) a run steps x on until the window
    needs to grow: 6 ``_WINDOW_EVERY`` levels past x's highest level with
    an entry beyond ``_NEGLIGIBLE`` in modulus (4 to hold every live entry
    until the next check, and 2 more, so that the window is not set again
    at the next one), or all dim levels if that comes within 4 of the top
    level, where the wall is, or x has more than one row
    (:func:`_windowed`)."""
    nb, dim = x.shape
    if nb > 1 or dim < 6 * _WINDOW_EVERY + 4:
        return dim
    live = np.flatnonzero(np.abs(x[0]) > _NEGLIGIBLE)
    hi = (live[-1] + 1 if live.size else 0) + 6 * _WINDOW_EVERY
    return dim if hi > dim - 4 else int(hi)


def _windowed(make, x0: np.ndarray):
    """``advance(n0, n1)`` for the state x0, a propagator's own buffer,
    whose steps ``make(hi)`` builds on its first hi levels, as a
    ``run(n0, n1)`` that runs steps n0 + 1 .. n1 and returns the state.
    RK4 moves an entry at most 4 levels a step, so the window holds every
    entry above ``_NEGLIGIBLE`` for ``_WINDOW_EVERY`` steps if none lies in
    its last 4 ``_WINDOW_EVERY`` levels.  That is checked after every
    multiple of ``_WINDOW_EVERY`` steps, whatever intervals ``advance`` is
    called with, until the window has all dim levels; where it fails, the
    window is set again (:func:`_window_end`) and the steps rebuilt.  Past
    the window the buffers stay exactly 0."""
    dim, every = x0.shape[1], _WINDOW_EVERY
    hi = _window_end(x0)
    run = make(hi)
    if hi == dim:
        return run
    x0[:, hi:] = 0.0

    def advance(n0, n1):
        nonlocal hi, run
        while n0 < n1:
            stop = n1 if hi == dim else min(n1, n0 - n0 % every + every)
            x = run(n0, stop)
            n0 = stop
            if hi < dim and not n0 % every and np.abs(x[0, hi - 4 * every:hi]).max() > _NEGLIGIBLE:
                hi = _window_end(x)
                run = make(hi)
        return x

    return advance


def _staged_step(band: _Band, x0: np.ndarray, model: RateModel, dt: float):
    """RK4 steps whose stage rates read the stage state, starting from x0;
    ``advance(n0, n1)`` runs steps n0 + 1 .. n1 on the window of live
    levels (:func:`_windowed`) and returns the state.  The state and the
    stage state are the buffers of :func:`_shifted`.
    Stage s multiplies the four planes of ``band.taps`` with the views of
    its input they read, and dots the products with w_s (g_down, g_down,
    g_up, g_up): its rates at t + c_s for its input's mean n_s, weighed by
    the next stage's c (dt/6 for the last), so a stage state is one add
    and the update one dot.  Only the first mean and the trace are read
    off the state: the next stage's mean is n + w_s levels.(A x_s), by the
    module docstring's identity with its wall term dim x_s[0, dim - 1],
    which is 0 while the window ends below the top level.
    """
    nb, dim = x0.shape
    weights = np.array([1.0, 2.0, 1.0, 3.0]) / 3.0
    stage_rates = np.empty(4)   # w_s (g_down, g_down, g_up, g_up), filled in place
    (state, stage), _ = _shifted(x0, 3)
    # the views of each buffer; [1, 0] of the first entry reads the zero before it
    views = [as_strided(x, band.taps.shape, (-x0.itemsize, x0.itemsize, *x.strides),
                        writeable=False) for x in (state, stage)]

    def make(hi):
        taps = band.taps[..., :hi]
        prod = np.empty(taps.shape, dtype=x0.dtype)
        prod_flat = prod.reshape(4, -1).view(float)
        slopes = np.empty((4, nb, hi), dtype=x0.dtype)
        moments = np.array([band.levels[:hi], np.ones(hi)])
        x, y = state[:, :hi], stage[:, :hi]
        state_row = x[0].real
        slopes_flat = slopes.reshape(4, -1).view(float)
        stage_flat = y.reshape(-1).view(float)
        # (c_s, w_s, the views and whole k = 0 row of the stage's input, the
        # slope the input adds, the stage's own slope)
        stages = list(zip((0.0, 0.5 * dt, 0.5 * dt, dt), (0.5 * dt, 0.5 * dt, dt, dt / 6.0),
                          [v[..., :hi] for v in views[:1] + 3 * views[1:]],
                          [state[0].real] + 3 * [stage[0].real],
                          [None, *slopes[:3]], slopes_flat))

        def run(n0, n1):
            dot, add, multiply, rates = np.dot, np.add, np.multiply, model.rates
            for n in range(n0 + 1, n1 + 1):
                t = (n - 1) * dt
                n_bar, trace = dot(moments, state_row).tolist()
                n_s = n_bar
                for c, w, x_views, row, prev, k in stages:
                    if c:
                        add(x, prev, out=y)
                    g_down, g_up = rates(t + c, n_s)
                    stage_rates[0] = stage_rates[1] = w * g_down
                    stage_rates[2] = stage_rates[3] = w * g_up
                    multiply(taps, x_views, out=prod)
                    dot(stage_rates, prod_flat, out=k)
                    n_s = n_bar + w * (g_up * (n_s + trace - dim * row.item(-1)) - g_down * n_s)
                dot(weights, slopes_flat, out=stage_flat)
                add(x, y, out=x)
            return state

        return run

    return _windowed(make, state)


def _polynomial_step(band: _Band, x0: np.ndarray, model: RateModel,
                     dt: float, n_steps: int):
    """RK4 steps for a generator f(t) A, starting from x0; ``advance(n0, n1)``
    runs steps n0 + 1 .. n1 on the window of live levels [0, hi)
    (:func:`_windowed`) and returns the state.

    The four stages compose to x <- sum_j c_j (dt A)^j x, with f1, f2, f3
    the scale at t, t + dt/2 and t + dt:
    c = (1, (f1 + 4 f2 + f3)/6, f2 (f1 + f2 + f3)/6, f2^2 (f1 + f3)/12,
    f1 f2^2 f3/24), which is (1, f2, f2^2/2, f2^3/6, f1 f2^2 f3/24) for
    a scale linear in t, as both laws' are.  P[j] holds the nine taps of
    (dt A)^j on the window, built again whenever it grows.  A state on the
    k = 0 chain alone takes them from the word-sum tables
    (:func:`_chain_powers`), in two small matrix products and one more for
    the top rows; any other, whose window is all dim levels, builds them
    one factor at a time (:func:`_band_powers`) for ``_BUILD_ROWS // dim``
    stored diagonals at a time, the blocks of rows in which the operator is
    also applied.
    CONSTANT, whose c are five scalars, keeps only sum_j c_j P[j].
    SCALED, whose c_j change every step, keeps
    the five powers B and builds the operators of ``span`` consecutive
    steps at once, as one matrix product of their c with B, so that a step
    is one product and one sum over the taps, as under CONSTANT.  ``span``
    is ``_BUILD_ROWS // (rows hi)`` (at least 1), so a state of more than
    one block of rows builds one operator per step.  The blocks of steps
    start at the multiples of ``span``, whatever n0 is, so the intervals a
    run is advanced in change no bit.  The state alternates between the
    two buffers of :func:`_shifted`, and a step sums its nine products
    with one BLAS product with ones, on float views of a complex state.
    """
    nb, dim = x0.shape
    g_down, g_up = (dt * g for g in model.rates(0.0, 0.0))
    # CONSTANT's scale is 1 at every t, so its c are five scalars
    t = np.arange(n_steps) * dt if model.law is RateLaw.SCALED else 0.0
    f1, f2, f3 = (_rate_scale(model, s) for s in (t, t + 0.5 * dt, t + dt))
    f22 = f2 * f2
    coeffs = np.array([np.ones_like(f2), f2, 0.5 * f22, f22 * f2 / 6.0,
                       f1 * f3 * f22 / 24.0]).T
    states, views = _shifted(x0, 9)
    ones = np.ones(9)

    def make(hi):
        B = None if coeffs.ndim == 1 else np.empty((5, 9, nb, hi))
        span = max(1, min(n_steps, _BUILD_ROWS // (nb * hi)))
        ops = np.empty((1 if B is None else span, 9, nb, hi))
        size = max(1, _BUILD_ROWS // hi)
        blocks = [slice(lo, min(lo + size, nb)) for lo in range(0, nb, size)]
        for chains in blocks:
            P = (_chain_powers(band, hi, g_down, g_up) if nb == 1
                 else _band_powers(band.taps[:, :, chains], g_down, g_up))
            if B is None:
                ops[0][:, chains] = np.dot(coeffs, P.reshape(5, -1)).reshape(9, -1, hi)
            else:
                B[:, :, chains] = P.reshape(5, 9, -1, hi)
        if B is not None:
            B, ops_flat = B.reshape(5, -1), ops.reshape(span, -1)

        prod = np.empty((9, min(size, nb), hi), dtype=x0.dtype)
        # the input views, product, and the product and output as floats (for
        # the tap sum, a product with ones) of each block of rows, for a step
        # that reads the state in buffer 0 and for one that reads buffer 1; a
        # window short of dim has one row, so its output is contiguous
        rows = [[(views[s][:, r, :hi], prod[:, :r.stop - r.start],
                  prod[:, :r.stop - r.start].reshape(9, -1).view(float),
                  states[1 - s][r, :hi].reshape(-1).view(float)) for r in blocks]
                for s in (0, 1)]
        nr = len(blocks)
        parity = (rows[0] + rows[1]) * (span // 2 + 1)
        # step lo + k + 1 of a block of steps applies the k-th run of nr views
        # in op_seq, one per block of rows
        op_seq = list(chain.from_iterable(zip(*[ops[:, :, r] for r in blocks])))
        op_seq *= span if B is None else 1
        built = None

        def run(n0, n1):
            nonlocal built
            multiply, dot = np.multiply, np.dot
            for lo in range(n0 - n0 % span, n1, span):
                if B is not None and lo != built:
                    c = coeffs[lo:lo + span]
                    dot(c, B, out=ops_flat[:len(c)])
                    built = lo
                k = max(n0 - lo, 0)
                # step n + 1 reads the state in buffer n % 2 and writes the other one
                for op_r, (x_r, prod_r, terms, out) in zip(op_seq[k * nr:(n1 - lo) * nr],
                                                           parity[(lo + k) % 2 * nr:]):
                    multiply(op_r, x_r, prod_r)
                    dot(ones, terms, out)
            return states[n1 % 2]

        return run

    return _windowed(make, states[0])


def _evolve(band: _Band, x0: np.ndarray, model: RateModel, cfg: IntegratorConfig,
            min_eig0: float | None = None) -> tuple[Trajectory, np.ndarray]:
    """Fixed-step RK4 on the stored diagonals ``x0``, shared by
    :func:`integrate` and the population ladder; returns the trajectory
    and the final diagonals.  A linear law steps by
    :func:`_polynomial_step`, FEEDBACK by :func:`_staged_step`, in one
    ``advance`` call per interval between events: the recorded steps,
    every ``_CHECK_EVERY``-th step and the last.  A one-row state is
    stepped on its window of live levels only (:func:`_windowed`), which
    grows at fixed steps inside ``advance``, whatever the events; every
    level past it is exactly 0, and every sample and checkpoint reads all
    dim levels, so each array keeps its shape.  A sample keeps the
    populations and the purity (each k > 0 diagonal counted twice, for its
    k < 0 mirror); the mean, trace and rate flags of all samples are
    evaluated on arrays after the loop.  A checkpoint first calls a state
    with an entry beyond 2 in modulus (or not finite) blown up, since no
    state inside the budget has one.  Its minimum eigenvalue is then the
    minimum population for a diagonal state, else :func:`_min_eigenvalue`'s
    of the stored entries, with no dense copy of the state.  It leaves out
    every level whose stored entries are all at most ``_NEGLIGIBLE`` in
    modulus: the tail, down to subnormal
    numbers, beyond the levels a short run has reached, which would
    otherwise set the cost.  Weyl's inequality bounds the change to the
    minimum by sqrt(2) dim ``_NEGLIGIBLE``, far below ``eigvalsh``'s own
    rounding.  ``min_eig0``, if given, is the minimum at t = 0.
    """
    x = x0
    dt, n_steps = cfg.dt, cfg.n_steps
    # a run of no steps never advances, so it builds no propagator
    advance = None if not n_steps else (
        _staged_step(band, x0, model, dt) if _rate_scale(model, 0.0) is None
        else _polynomial_step(band, x0, model, dt, n_steps))
    # Python ints compare fastest
    recorded = [*range(0, n_steps, cfg.record_every), n_steps]
    events = sorted({*recorded, *range(0, n_steps, _CHECK_EVERY), n_steps})
    pops, purities, check_times, min_eigs = [], [], [], []

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
            if step == recorded[len(pops)]:
                p = x[0].real
                pops.append(p.copy())
                purities.append(2.0 * float(np.vdot(x, x).real) - float(p @ p))
                if not math.isfinite(purities[-1]):
                    checkpoint(step, None)
            if step % _CHECK_EVERY == 0 or step == n_steps:
                checkpoint(step, None if step else min_eig0)

    times = np.array(recorded) * dt
    pops = np.array(pops)
    n_bar = pops @ band.levels
    g_down, g_up = model.rates(times, n_bar)
    return Trajectory(
        times=times,
        n_bar=n_bar,
        populations=pops,
        trace=pops.sum(axis=1),
        purity=np.array(purities),
        # a law that reads neither time nor state gives one flag for all
        negative_rate=np.full(times.shape, (g_down < 0.0) | (g_up < 0.0)),
        within_rate_bound=(n_bar - model.n_res) * model.gamma * times <= model.n_res,
        check_times=np.array(check_times),
        min_eigenvalues=np.array(min_eigs),
    ), x


def integrate(rho0: np.ndarray, model: RateModel, cfg: IntegratorConfig) -> Trajectory:
    """Fixed-step RK4 integration of the master equation.

    Only the diagonals that are non-zero in rho0 are stepped, so a
    diagonal rho0 costs O(dim) per step.  Every 100 steps, at the last
    step and at any sample whose purity is not finite, the trace and the
    minimum eigenvalue are checked against the tolerance budget; a
    violation, or a state blown up beyond any state inside the budget,
    raises :class:`IntegrationError` with the offending time and
    diagnostics.
    Observables are recorded every ``cfg.record_every`` steps.
    """
    offsets, min_eig = check_density_matrix(rho0)
    band = _band(rho0.shape[0], tuple(offsets.tolist()))
    traj, x = _evolve(band, band.pack(rho0), model, cfg, min_eig)
    traj._final = band, x
    return traj
