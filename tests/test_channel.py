import math
import warnings

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
