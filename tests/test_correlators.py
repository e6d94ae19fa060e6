import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qcooling import (LadderOp, ModeGrid, PhysicalScales, bath_occupations,
                      brute_force_four_point, decay_constant,
                      evolved_spectral_density, occupation_from_temperature,
                      thermal_two_point, wick_four_point)
from qcooling.correlators import _kernel_sums

L, R = LadderOp.LOWER, LadderOp.RAISE


# --- two-point table --------------------------------------------------------

def test_vacuum_two_points():
    assert thermal_two_point(R, L, 0.0) == 0.0
    assert thermal_two_point(L, R, 0.0) == 1.0
    assert thermal_two_point(R, R, 5.0) == 0.0
    assert thermal_two_point(L, L, 5.0) == 0.0


def test_two_point_matches_temperature_map():
    scales = PhysicalScales(theta0=1.0)
    n_bar = occupation_from_temperature(200.0, scales)
    assert thermal_two_point(R, L, n_bar).real == pytest.approx(199.500416666, abs=1e-6)


# --- four-point factorization ----------------------------------------------

def test_number_squared():
    # <n^2> = 2 n^2 + n for the thermal state
    assert wick_four_point((R, L, R, L), 1.0) == pytest.approx(3.0)
    assert wick_four_point((R, L, R, L), 2.0) == pytest.approx(10.0)


def test_all_lowering_vanishes():
    assert wick_four_point((L, L, L, L), 2.3) == 0.0


def test_antinormal_ordering():
    # <a a+ a a+> = (1+n)^2 + n(1+n) at n = 2
    assert wick_four_point((L, R, L, R), 2.0) == pytest.approx(15.0)


def _balanced_orderings():
    from itertools import permutations
    return sorted(set(permutations((R, R, L, L))),
                  key=lambda p: [op.value for op in p])


@pytest.mark.parametrize("n_bar", [0.5, 1.0, 3.0])
def test_factorization_matches_trace_oracle(n_bar):
    orderings = _balanced_orderings()
    assert len(orderings) == 6
    for ops in orderings:
        wick = wick_four_point(ops, n_bar)
        brute = brute_force_four_point(ops, n_bar, 200)
        assert abs(wick - brute) <= 1e-8 * abs(brute)


def test_unbalanced_orderings_vanish():
    for ops in ((R, L, L, L), (R, R, R, L), (L, R, R, R)):
        assert abs(wick_four_point(ops, 2.0)) < 1e-12
        assert abs(brute_force_four_point(ops, 2.0, 200)) < 1e-12


def test_brute_force_truncation_guard():
    with pytest.raises(ValueError):
        brute_force_four_point((R, L, R, L), 3.0, 20)


@pytest.mark.parametrize("n_bar", [math.nan, math.inf, -0.25])
def test_brute_force_rejects_invalid_occupation(n_bar):
    with pytest.raises(ValueError, match="n_bar must be >= 0 and finite"):
        brute_force_four_point((R, L, R, L), n_bar, 40)


@pytest.mark.parametrize("call, name", [
    (lambda: thermal_two_point("raise", L, 1.0), "left"),
    (lambda: thermal_two_point(R, "lower", 1.0), "right"),
    (lambda: wick_four_point((R, "lower", R, L), 1.0), "right"),
    (lambda: brute_force_four_point((R, L, "raise", L), 1.0, 200), "each of ops")],
    ids=["two-point left", "two-point right", "wick", "brute force"])
def test_an_op_that_is_not_a_ladder_op_is_rejected(call, name):
    # no identity test against the members holds for a member's value: the
    # two-point table used to read it as a vanishing pair, and the trace as
    # a raising factor
    with pytest.raises(ValueError, match=f"{name} must be a LadderOp member"):
        call()


def test_brute_force_rejects_a_non_integer_dim():
    with pytest.raises(ValueError, match="dim must be an integer, got 200.5"):
        brute_force_four_point((R, L, R, L), 1.0, 200.5)
    assert (brute_force_four_point((R, L, R, L), 1.0, np.int64(200))
            == brute_force_four_point((R, L, R, L), 1.0, 200))


@settings(max_examples=80, deadline=None)
@given(ops=st.sampled_from(list(product((L, R), repeat=4))),
       dim=st.integers(2, 40), scale=st.floats(0.0, 0.99))
@example(ops=(R, L, L, R), dim=3, scale=1.1125369292536007e-308)
def test_brute_force_matches_dense_matrix_products(ops, dim, scale):
    # x = n_bar / (1 + n_bar) at most 0.99 of the largest x whose tail x**dim
    # passes the guard, 1e-10 ** (1 / dim)
    x_max = 1e-10 ** (1.0 / dim)
    n_bar = scale * x_max / (1.0 - scale * x_max)
    x = n_bar / (1.0 + n_bar)
    low = np.diag(np.sqrt(np.arange(1, dim)), 1)   # truncated a
    p = x ** np.arange(dim)
    p /= p.sum()
    factors = [low if op is L else low.conj().T for op in ops]
    expect = np.trace(np.linalg.multi_dot([*factors, np.diag(p)]))
    got = brute_force_four_point(ops, n_bar, dim)
    if ops.count(L) == 2:
        # a subnormal n_bar gives a subnormal trace, where the dense product
        # is one subnormal step off: the error is measured against the
        # smallest normal number there
        assert abs(got - expect) <= 1e-13 * max(abs(expect), np.finfo(float).tiny)
    else:
        assert got == 0


# --- mode grid and decay constant -------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError):
        ModeGrid(frequencies=np.array([2.0, 1.0]), strength=np.ones(2),
                 weights=np.ones(2))
    with pytest.raises(ValueError):
        ModeGrid(frequencies=np.array([1.0, 2.0]), strength=np.ones(3),
                 weights=np.ones(2))
    with pytest.raises(ValueError):
        ModeGrid.flat_band(omega0=5.0, half_width=10.0)


def test_grid_given_lists_stores_float_arrays():
    # a grid built from lists holds arrays, so every correlator reads it as
    # it reads the same grid built from arrays
    fields = [40.0, 50.0, 60.0], [0.2] * 3, [5.0, 10.0, 5.0]
    grid = ModeGrid(*fields)
    for name in ("frequencies", "strength", "weights"):
        assert getattr(grid, name).dtype == np.float64
    times = [0.5, 1.0, 1.5, 2.0]
    got = evolved_spectral_density(grid, 50.0, 3.0, 100.0, times)
    expect = evolved_spectral_density(ModeGrid(*map(np.array, fields)), 50.0, 3.0, 100.0, times)
    assert np.array_equal(got.values, expect.values)
    assert decay_constant(grid, 50.0) == decay_constant(ModeGrid(*map(np.array, fields)), 50.0)


def test_grid_keeps_its_own_read_only_copies():
    # changing the arrays a grid was built from leaves the validated grid as it was
    f, s = np.linspace(40.0, 60.0, 3), np.full(3, 0.2)
    grid = ModeGrid(f, s, np.ones(3))
    s[1] = -5.0
    f[0] = 70.0
    assert np.array_equal(grid.frequencies, [40.0, 50.0, 60.0])
    assert np.array_equal(grid.strength, [0.2, 0.2, 0.2])
    assert decay_constant(grid, 50.0) == pytest.approx(2 * math.pi * 0.2, rel=1e-15)
    for name in ("frequencies", "strength", "weights"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(grid, name)[0] = 1.0


def test_decay_constant_flat_band():
    grid = ModeGrid.flat_band(omega0=50.0, half_width=20.0)
    assert decay_constant(grid, 50.0) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        decay_constant(grid, 100.0)


def test_decay_constant_interpolates():
    f = np.linspace(10.0, 20.0, 11)
    grid = ModeGrid(frequencies=f, strength=f / (2 * np.pi), weights=np.full(11, 1.0))
    assert decay_constant(grid, 15.5) == pytest.approx(15.5, rel=1e-12)


def test_bath_occupations_units():
    grid = ModeGrid.flat_band(omega0=50.0, half_width=20.0, n_modes=3)
    # temperature in frequency units: the center mode's quantum is 50, T = 100
    assert bath_occupations(grid, 100.0)[1] == pytest.approx(1.0 / np.expm1(0.5))


# --- evolved spectral density ----------------------------------------------

OMEGA0, HALF_WIDTH, N_RES = 50.0, 20.0, 2.0
T_RES = OMEGA0 / np.log1p(1.0 / N_RES)
T_VALUES = np.linspace(5.0 / HALF_WIDTH + 0.05, 3.0, 12)


def _slope(n_sys, n_modes=801):
    grid = ModeGrid.flat_band(OMEGA0, HALF_WIDTH, n_modes)
    return evolved_spectral_density(grid, OMEGA0, n_sys, T_RES, T_VALUES).slope


def test_slope_matches_rate_scale():
    # expected slope: gamma^2/2 per unit occupation excess
    grid = ModeGrid.flat_band(OMEGA0, HALF_WIDTH)
    gamma = decay_constant(grid, OMEGA0)
    slope = _slope(N_RES + 5.0)
    assert abs(slope / (0.5 * gamma**2 * 5.0) - 1.0) < 0.10


def test_slope_vanishes_at_equilibrium():
    assert abs(_slope(N_RES)) < 0.01 * 0.5   # 1% of the unit-excess scale


def test_slope_linear_in_excess():
    s2, s4 = _slope(N_RES + 2.0), _slope(N_RES + 4.0)
    assert s4 / s2 == pytest.approx(2.0, rel=0.03)


def test_slope_grid_converged():
    s_base, s_fine = _slope(N_RES + 5.0), _slope(N_RES + 5.0, n_modes=1601)
    assert abs(s_fine / s_base - 1.0) < 0.02


def test_imaginary_part_reported():
    grid = ModeGrid.flat_band(OMEGA0, HALF_WIDTH)
    res = evolved_spectral_density(grid, OMEGA0, N_RES + 5.0, T_RES, T_VALUES)
    assert np.iscomplexobj(res.values)
    assert res.fit_residual < 0.05 * abs(res.slope) * (T_VALUES[-1] - T_VALUES[0])


def _complex_kernel(delta, t):
    # (e^{i d t} - 1)/(i d) in complex arithmetic: its power series
    # t sum_n (i d t)^n/(n+1)! below |d t| = 1, where e^{i d t} - 1 cancels,
    # and the closed form above
    z = np.multiply.outer(t, delta)
    term = np.multiply.outer(t, np.ones_like(delta)).astype(complex)
    series = term.copy()
    for n in range(1, 30):
        term *= 1j * z / (n + 1)
        series += term
    big = np.abs(z) >= 1.0
    d = np.where(delta == 0, 1.0, delta)
    return np.where(big, (np.exp(1j * z) - 1.0) / (1j * d), series)


def test_kernel_sums_match_complex_exponential():
    rng = np.random.default_rng(7)
    t = np.array([0.5, 1.0, 2.0, 3.0])
    # a random non-uniform grid of detunings of both signs, with d = 0 and
    # |d t| spread from 1e-9 to 60
    size = np.exp(rng.uniform(np.log(1e-9 / t[0]), np.log(60.0 / t[-1]), 400))
    delta = np.sort(np.concatenate([[0.0, 1e-9 / t[0], 60.0 / t[-1]],
                                    size * rng.choice([-1.0, 1.0], size.size)]))
    w = rng.uniform(0.0, 1.0, (delta.size, 2)) * rng.choice([-1.0, 1.0], (delta.size, 2))
    expect = _complex_kernel(delta, t) @ w
    got = _kernel_sums(delta, t, w)
    assert got.shape == (t.size, 2)
    assert np.all(np.abs(got - expect) <= 1e-13 * np.abs(expect))
    # K(0, t) = t exactly
    one = np.zeros((delta.size, 1))
    one[delta == 0] = 1.0
    assert np.array_equal(_kernel_sums(delta, t, one)[:, 0], t.astype(complex))


def test_mirrored_band_gives_real_values():
    # K(-d, t) = conj K(d, t), so on a band mirrored about omega0 the
    # factorized sum has no imaginary part
    grid = ModeGrid.flat_band(OMEGA0, HALF_WIDTH)
    res = evolved_spectral_density(grid, OMEGA0, N_RES + 5.0, T_RES, T_VALUES)
    assert np.all(res.values.imag == 0.0)


_GRID = ModeGrid.flat_band(OMEGA0, HALF_WIDTH, n_modes=101)
_PAIR = np.array([1.0, 2.0])


@pytest.mark.parametrize("call", [
    lambda: ModeGrid(np.array([1.0, math.inf]), np.ones(2), np.ones(2)),
    lambda: ModeGrid(_PAIR, np.array([1.0, math.nan]), np.ones(2)),
    lambda: ModeGrid(_PAIR, np.ones(2), np.array([math.inf, 1.0])),
    lambda: evolved_spectral_density(_GRID, OMEGA0, math.nan, T_RES, T_VALUES),
    lambda: evolved_spectral_density(_GRID, OMEGA0, math.inf, T_RES, T_VALUES),
    lambda: evolved_spectral_density(_GRID, OMEGA0, -1.0, T_RES, T_VALUES),
    lambda: evolved_spectral_density(_GRID, OMEGA0, N_RES, T_RES, [0.5, 1.0, math.inf]),
    lambda: thermal_two_point(R, L, -2.0),
    lambda: thermal_two_point(R, R, math.nan),
    lambda: wick_four_point((R, L, R, L), -2.0),
    lambda: wick_four_point((L, L, L, L), math.inf),
], ids=["grid-frequency-inf", "grid-strength-nan", "grid-weight-inf", "n_sys-nan",
        "n_sys-inf", "n_sys-negative", "t-inf", "two-point-negative", "two-point-nan",
        "four-point-negative", "four-point-inf"])
def test_non_finite_or_negative_inputs_are_rejected(call):
    # occupations must be >= 0 and finite, and a grid's fields and the times
    # finite, as brute_force_four_point already requires of its n_bar
    with pytest.raises(ValueError):
        call()


def test_narrow_band_warns():
    grid = ModeGrid.flat_band(OMEGA0, 2.0, n_modes=101)
    with pytest.warns(UserWarning, match="too narrow"):
        evolved_spectral_density(grid, OMEGA0, N_RES + 5.0, T_RES,
                                 np.linspace(0.5, 3.0, 8))
