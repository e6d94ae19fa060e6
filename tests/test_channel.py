import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcooling import (IntegratorConfig, RateLaw, RateModel, channel,
                      evolve_populations, integrate, number_state, thermal_state)


def test_zero_time_returns_p0_exactly():
    p0 = thermal_state(1.5, 30).diagonal().real
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no log(0) on the way
        for law in RateLaw:
            eta, nu = channel.parameters(RateModel(law, 1.3, 2.0), 1.5, 0.0)
            assert (eta, nu) == (1.0, 0.0)
            assert np.array_equal(channel.populations(p0, eta, nu, 30), [p0])
        fock = number_state(8, 48).diagonal().real
        assert np.array_equal(channel.populations(fock[:9], 1.0, 0.0, 48), [fock])


def test_zero_noise_is_pure_loss():
    n, eta = 7, 0.37
    binomial = [math.comb(n, j) * eta**j * (1 - eta)**(n - j) for j in range(n + 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = channel.populations(number_state(n, 12).diagonal().real, eta, 0.0, 12)
    assert np.allclose(out[0], binomial + [0.0] * 4, rtol=1e-13, atol=1e-16)


# cooling from 8 into n_res 0.1 under the FEEDBACK law with the opposite
# sign of its correction: nu(t = 1) = -1.08
FLIPPED_NU = 0.1 * (1 - math.exp(-1)) + 7.9 * math.exp(-1) * math.expm1(-0.5)


@pytest.mark.parametrize("eta, nu", [(0.0, 0.5), (-0.1, 0.5), (1.2, 0.0), (0.5, -1e-12),
                                     (0.5, math.inf), (math.nan, 0.5),
                                     (math.exp(-1), FLIPPED_NU)])
def test_not_a_channel_raises(eta, nu):
    with pytest.raises(ValueError, match="not a channel"):
        channel.populations([0.0, 1.0], [0.5, eta], [0.1, nu], 8)


@pytest.mark.parametrize("dim", [2.5, "8", 0])
def test_dim_must_be_a_positive_integer(dim):
    with pytest.raises(ValueError, match="dim must be"):
        channel.populations([0.0, 1.0], 0.5, 0.1, dim)


def test_feedback_heating_is_not_a_channel():
    # nu = n_res (1 - exp(-g t + g^2 t^2 / 2)) from n(0) = 0, negative past t = 2/g
    model = RateModel(RateLaw.FEEDBACK, gamma=1.0, n_res=2.0)
    eta, nu = channel.parameters(model, 0.0, np.array([1.9, 2.1]))
    assert nu[0] > 0.0 > nu[1]
    with pytest.raises(ValueError, match="not a channel"):
        channel.populations([1.0], eta, nu, 8)


@settings(max_examples=20, deadline=None)
@given(law=st.sampled_from(list(RateLaw)),
       start=st.one_of(st.integers(0, 6), st.floats(0.0, 2.0)),
       n_res=st.floats(0.0, 1.0), gamma=st.floats(0.5, 2.0),
       steps=st.integers(1, 990), extra=st.integers(0, 8))
def test_closed_form_matches_both_integrators(law, start, n_res, gamma, steps, extra):
    # Fock level for an int start, else a thermal mean; FEEDBACK cools only
    # and stays at t < 1/gamma (steps * dt = steps / 1000 / gamma)
    if law is RateLaw.FEEDBACK:
        n_res = min(n_res, float(start))
    model = RateModel(law, gamma, n_res)
    dt = 1e-3 / gamma
    cfg = IntegratorConfig(dt=dt, t_end=steps * dt, record_every=10)

    def state(dim):
        return (number_state(start, dim) if isinstance(start, int)
                else thermal_state(start, dim))

    big = state(160).diagonal().real
    n0 = float(big @ np.arange(160))
    eta, nu = channel.parameters(model, n0, cfg.recorded_steps * dt)
    exact = channel.populations(big, eta, nu, 160)
    if not isinstance(start, int):
        mean = (eta * n0 + nu)[:, None]
        thermal = (mean / (1 + mean)) ** np.arange(160) / (1 + mean)
        assert np.abs(exact - thermal).max() < 1e-13
    # the smallest dim whose closed-form tail (the mass on levels >= dim)
    # stays below 1e-12, plus extra
    tails = np.cumsum(exact[:, ::-1], axis=1)[:, ::-1].max(axis=0)
    dim = max(2, int(np.argmax(tails < 1e-12))) + extra
    rho0 = state(dim)
    p0 = rho0.diagonal().real
    exact = channel.populations(p0, eta, nu, dim)
    ladder = evolve_populations(p0, model, cfg)
    matrix = integrate(rho0, model, cfg)
    assert np.abs(ladder.populations - exact).max() < 1e-8
    assert np.abs(matrix.populations - exact).max() < 1e-8


def exact_populations(p0, eta, nu, dim):
    """The channel's populations in exact rational arithmetic, from the
    binomial kernels of its loss and its amplifier (the ``channel`` module
    docstring's), with p0, eta and nu read as the rationals their floats
    are."""
    gain = 1 + Fraction(nu)
    tau = Fraction(eta) / gain
    kept = [sum(math.comb(n, j) * tau**j * (1 - tau)**(n - j) * Fraction(p)
                for n, p in enumerate(p0) if n >= j) for j in range(dim)]
    return [sum(math.comb(m, j) * kept[j] / gain**(j + 1) * (1 - 1 / gain)**(m - j)
                for j in range(m + 1)) for m in range(dim)]


# (dim, levels of p0, eta, nu): pure loss, a weak and a strong amplifier,
# a map near the identity, where 1 - tau must not be taken as a difference,
# and p0 both shorter and longer than dim
@pytest.mark.parametrize("dim, size, eta, nu", [
    (12, 5, 0.37, 0.0), (20, 26, 0.81, 0.0), (16, 9, 0.05, 0.01), (24, 30, 0.52, 0.05),
    (14, 18, 1 - 1e-6, 1e-7), (18, 12, 1.0, 0.7), (22, 28, 0.23, 2.5), (20, 20, 0.66, 5.0)])
def test_matches_exact_rational_arithmetic(dim, size, eta, nu):
    p0 = np.random.default_rng(dim * size).random(size)
    p0[1::3] = 0.0          # levels that only the loss from above fills
    p0 /= p0.sum()
    exact = exact_populations(p0, eta, nu, dim)
    out = channel.populations(p0, eta, nu, dim)[0]
    for got, want in zip(out, exact):
        if want == 0:       # pure loss past the degree of p0
            assert got == 0.0
        else:
            assert abs(Fraction(got) - want) < 1e-14 * want


def test_composition_law():
    # Phi(eta2, nu2) after Phi(eta1, nu1) is Phi(eta1 eta2, eta2 nu1 + nu2);
    # from below level 40 with nu1 <= 2 the mass that the first map leaves
    # past dim 400 is below 1e-28 (a negative binomial tail)
    rng = np.random.default_rng(7)
    dim, worst = 400, 0.0
    for _ in range(20):
        p0 = rng.random(int(rng.integers(1, 40)))
        p0 /= p0.sum()
        eta1, nu1 = rng.uniform(0.05, 1.0), rng.uniform(0.0, 2.0)
        eta2, nu2 = rng.uniform(0.05, 1.0, 10), rng.uniform(0.0, 5.0, 10)
        first = channel.populations(p0, eta1, nu1, dim)[0]
        twice = channel.populations(first, eta2, nu2, dim)
        once = channel.populations(p0, eta1 * eta2, eta2 * nu1 + nu2, dim)
        worst = max(worst, np.abs(twice - once).max())
    assert worst < 8e-15


def test_thermal_in_thermal_out_at_dim_800():
    # p0 runs past dim, to where its tail is below 1e-18, so the result
    # is the untruncated thermal state of mean eta n0 + nu cut at dim
    n0, dim = 100.0, 800
    p0 = (n0 / (1 + n0)) ** np.arange(4200) / (1 + n0)
    for law in RateLaw:
        eta, nu = channel.parameters(RateModel(law, 1.0, 2.0), n0, np.array([0.05, 0.4, 0.9]))
        mean = (eta * n0 + nu)[:, None]
        thermal = (mean / (1 + mean)) ** np.arange(dim) / (1 + mean)
        out = channel.populations(p0, eta, nu, dim)
        assert np.abs(out / thermal - 1).max() < 2e-12
