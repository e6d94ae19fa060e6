import numpy as np
import pytest

from qcooling import (IntegratorConfig, RateLaw, RateModel, evolve_populations,
                      integrate, number_state, thermal_state)
from qcooling.lindblad import _Band

CONSTANT = RateModel(law=RateLaw.CONSTANT, gamma=1.0, n_res=2.0)
SCALED = RateModel(law=RateLaw.SCALED, gamma=1.0, n_res=2.0)
FEEDBACK = RateModel(law=RateLaw.FEEDBACK, gamma=1.0, n_res=2.0)


def _neighbour_rates(model, n_sys, t, dim):
    """Each level's rates down to i - 1 and up to i + 1: minus the
    diagonals of the k = 0 row of the generator's D and U, scaled by the
    law's (g_down, g_up)."""
    g_down, g_up = model.rates(t, n_sys)
    (down, _), (_, up) = _Band(dim, [0]).taps[:, :, 0]
    return -g_down * down, -g_up * up


def test_cold_bath_pure_decay_cascade():
    model = RateModel(law=RateLaw.CONSTANT, gamma=1.0, n_res=0.0)
    down, up = _neighbour_rates(model, 5.0, 0.3, 12)
    assert np.all(up == 0.0)
    assert np.allclose(down, np.arange(12) * 1.0)


def test_neighbour_rates_warm_bath():
    down, up = _neighbour_rates(CONSTANT, 5.0, 0.0, 10)
    assert down[3] == pytest.approx(9.0)    # 3 * gamma * (1 + n_res)
    assert up[3] == pytest.approx(8.0)      # 4 * gamma * n_res
    assert down[0] == 0.0
    assert up[-1] == 0.0                    # reflecting truncation wall
    # what leaves a level arrives at its neighbour, and nothing else moves
    (down_diag, down_upper), (up_lower, up_diag) = _Band(10, [0]).taps[:, :, 0]
    assert np.array_equal(down_upper[:-1], -down_diag[1:])
    assert np.array_equal(up_lower[1:], -up_diag[:-1])
    assert down_upper[-1] == 0.0 and up_lower[0] == 0.0


def test_scaled_rates_double_at_inverse_gamma():
    down0, up0 = _neighbour_rates(SCALED, 5.0, 0.0, 10)
    down1, up1 = _neighbour_rates(SCALED, 5.0, 1.0, 10)
    assert np.allclose(down1, 2.0 * down0)
    assert np.allclose(up1[:-1], 2.0 * up0[:-1])


def test_point_mass_matches_exponential_oracle():
    p0 = number_state(8, 48).diagonal().real
    cfg = IntegratorConfig(dt=0.005, t_end=3.0, record_every=10)
    traj = evolve_populations(p0, CONSTANT, cfg)
    oracle = 2.0 + 6.0 * np.exp(-traj.times)
    assert np.abs(traj.n_bar - oracle).max() < 1e-6


def test_thermal_populations_stationary():
    p0 = thermal_state(2.0, 40).diagonal().real
    cfg = IntegratorConfig(dt=0.005, t_end=5.0, record_every=100)
    traj = evolve_populations(p0, CONSTANT, cfg)
    assert np.abs(traj.populations - p0[None, :]).max() < 1e-10


def test_probability_conserved_all_models():
    # support the random state on low levels: the feedback correction grows
    # with n_bar and would outrun the explicit step size for a hot state
    rng = np.random.default_rng(3)
    p0 = np.zeros(48)
    p0[:8] = rng.random(8)
    p0 /= p0.sum()
    for model, dt, t_end in ((CONSTANT, 0.005, 3.0), (SCALED, 0.001, 3.0),
                             (FEEDBACK, 0.002, 1.0)):
        traj = evolve_populations(p0, model, IntegratorConfig(dt=dt, t_end=t_end))
        assert np.abs(traj.trace - 1.0).max() < 1e-9


def test_nonnegativity_with_nonnegative_rates():
    p0 = number_state(8, 48).diagonal().real
    for model, dt in ((CONSTANT, 0.005), (SCALED, 0.001)):
        traj = evolve_populations(p0, model, IntegratorConfig(dt=dt, t_end=3.0))
        assert traj.populations.min() > -1e-9


def test_detailed_balance_equilibrium():
    model = RateModel(law=RateLaw.CONSTANT, gamma=1.0, n_res=0.5)
    p0 = number_state(4, 24).diagonal().real
    cfg = IntegratorConfig(dt=0.01, t_end=40.0, record_every=1000)
    p_final = evolve_populations(p0, model, cfg).populations[-1]
    ratio_target = 0.5 / 1.5
    for i in range(10):
        assert p_final[i + 1] / p_final[i] == pytest.approx(ratio_target, abs=1e-8)


@pytest.mark.parametrize("model,dt,t_end", [
    (CONSTANT, 0.005, 3.0),
    (SCALED, 0.001, 3.0),
    (FEEDBACK, 0.002, 1.0),
])
def test_matches_matrix_integrator(model, dt, t_end):
    # the ladder is the diagonal restriction of the full generator
    cfg = IntegratorConfig(dt=dt, t_end=t_end, record_every=20)
    rho0 = number_state(8, 48)
    matrix = integrate(rho0, model, cfg)
    chain = evolve_populations(rho0.diagonal().real, model, cfg)
    assert np.abs(matrix.populations - chain.populations).max() < 1e-8
    assert np.abs(matrix.n_bar - chain.n_bar).max() < 1e-8
    # the ladder steps no dense state, so it returns none
    assert chain.final_state is None


def test_input_validation():
    with pytest.raises(ValueError):
        evolve_populations(np.array([0.7, 0.7]), CONSTANT,
                           IntegratorConfig(dt=0.01, t_end=1.0))
    with pytest.raises(ValueError):
        evolve_populations(np.array([1.5, -0.5]), CONSTANT,
                           IntegratorConfig(dt=0.01, t_end=1.0))
    for p0 in (np.array([[0.5, 0.5]]), np.array([1.0])):
        with pytest.raises(ValueError, match=r"1-D vector of >= 2 levels, got shape"):
            evolve_populations(p0, CONSTANT, IntegratorConfig(dt=0.01, t_end=1.0))


def test_trajectory_does_not_depend_on_the_layout_of_p0():
    # a strided p0, such as a density matrix's diagonal, gives the bits of
    # its contiguous copy, the purity at t = 0 among them
    p0 = thermal_state(0.7, 60).diagonal().real
    cfg = IntegratorConfig(dt=1e-3, t_end=0.01)
    strided, contiguous = (evolve_populations(p, SCALED, cfg) for p in (p0, p0.copy()))
    for name in ("populations", "purity", "trace"):
        assert np.array_equal(getattr(strided, name), getattr(contiguous, name))


# a step past the positivity limit that the checkpoints, every 100 steps,
# do not see: from Fock 47 at the top of dim 48 the smallest recorded
# population is -2.2e-2 (level 44, t = dt), gone again before step 100
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 18: no sample is checked against the budget")
def test_every_sample_keeps_the_positivity_budget():
    p0 = number_state(47, 48).diagonal().real
    traj = evolve_populations(p0, CONSTANT, IntegratorConfig(dt=0.006, t_end=3.0))
    assert traj.populations.min() >= -1e-8
