import re
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.sparse import diags

from qcooling import (IntegrationError, IntegratorConfig, RateLaw, RateModel,
                      channel, check_density_matrix, default_dim, evolve_populations,
                      integrate, lindblad, lindblad_rhs, mean_occupation,
                      number_state, thermal_state)

GAMMA, N_RES = 1.0, 2.0
CONSTANT = RateModel(law=RateLaw.CONSTANT, gamma=GAMMA, n_res=N_RES)
SCALED = RateModel(law=RateLaw.SCALED, gamma=GAMMA, n_res=N_RES)
FEEDBACK = RateModel(law=RateLaw.FEEDBACK, gamma=GAMMA, n_res=N_RES)


# --- rate models -----------------------------------------------------------

def test_rate_model_values():
    assert CONSTANT.rates(7.0, 5.0) == (3.0, 2.0)
    assert SCALED.rates(0.0, 5.0) == (3.0, 2.0)
    g_down, g_up = SCALED.rates(1.0, 5.0)
    assert (g_down, g_up) == (6.0, 4.0)
    g_down, g_up = FEEDBACK.rates(0.5, 8.0)   # correction (8-2)*0.5 = 3
    assert g_down == pytest.approx(6.0)
    assert g_up == pytest.approx(5.0)


def test_rate_model_validation():
    with pytest.raises(ValueError):
        RateModel(law=RateLaw.CONSTANT, gamma=0.0, n_res=1.0)
    with pytest.raises(ValueError):
        RateModel(law=RateLaw.CONSTANT, gamma=1.0, n_res=-0.1)


@pytest.mark.parametrize("law", ["feedback", 42])
def test_rate_model_rejects_a_law_that_is_not_a_rate_law(law):
    # no identity test against the members holds for it, so it used to run
    # as CONSTANT
    with pytest.raises(ValueError, match=f"law must be a RateLaw member, got {law!r}"):
        RateModel(law, 1.0, 2.0)


# --- state constructors ----------------------------------------------------

def test_thermal_state_ground_limit():
    rho = thermal_state(0.0, 12)
    assert rho[0, 0] == pytest.approx(1.0)
    assert np.abs(rho).sum() == pytest.approx(1.0)


def test_thermal_state_occupation_one():
    rho = thermal_state(1.0, 30)
    p = rho.diagonal().real
    assert p[0] == pytest.approx(0.5, abs=1e-8)
    assert p[1] == pytest.approx(0.25, abs=1e-8)
    assert mean_occupation(rho) == pytest.approx(1.0, abs=1e-6)


def test_thermal_state_mean_recovery():
    # geometric tails are heavy: the n-weighted tail x^dim (dim(1-x)+x)/(1-x)
    # must fall below 1e-6 * n_bar, which needs roughly dim ~ n ln(1/eps)
    for n_bar, dim in ((0.5, 40), (2.0, 60), (6.0, 130)):
        assert mean_occupation(thermal_state(n_bar, dim)) == pytest.approx(n_bar, rel=1e-6)


def test_thermal_state_truncation_warning():
    with pytest.warns(UserWarning, match="untruncated mass"):
        thermal_state(20.0, 25)


@pytest.mark.parametrize("n_bar,dim", [(8.5, 50), (20.0, 25), (0.5, 3)])
def test_thermal_state_warning_suggests_a_dim_that_silences_it(n_bar, dim):
    with pytest.warns(UserWarning, match="untruncated mass") as record:
        thermal_state(n_bar, dim)
    suggested = int(re.search(r"consider dim >= (\d+)", str(record[0].message))[1])
    assert suggested > dim
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        thermal_state(n_bar, suggested)
    with pytest.warns(UserWarning, match="untruncated mass"):
        thermal_state(n_bar, suggested - 1)


def test_number_state():
    rho = number_state(5, 12)
    assert mean_occupation(rho) == 5.0
    assert np.vdot(rho, rho).real == pytest.approx(1.0)   # purity
    with pytest.raises(ValueError):
        number_state(12, 12)


@pytest.mark.parametrize("make, bad, good", [
    (number_state, (2.5, 10), (np.int64(2), 10)),
    (number_state, (3, 10.0), (3, np.int64(10))),
    (thermal_state, (1.0, 2.5), (1.0, np.int64(30))),
], ids=["number-level", "number-dim", "thermal-dim"])
def test_state_constructors_reject_non_integer_sizes(make, bad, good):
    # a level or dim that is not an integer is an error, not an IndexError, a
    # TypeError or a matrix of another size; a numpy integer passes
    with pytest.raises(ValueError, match="must be an integer"):
        make(*bad)
    assert make(*good).shape == (good[1],) * 2


def test_mean_occupation_mixture():
    rho = 0.5 * number_state(0, 10) + 0.5 * number_state(2, 10)
    assert mean_occupation(rho) == pytest.approx(1.0)


def test_check_density_matrix():
    check_density_matrix(thermal_state(1.0, 20))
    bad = number_state(0, 6)
    bad[0, 1] = 0.5   # not Hermitian
    with pytest.raises(ValueError):
        check_density_matrix(bad)
    with pytest.raises(ValueError):
        check_density_matrix(2.0 * number_state(0, 6))


@pytest.mark.parametrize("entry", [(0, 0), (1, 2)])
def test_check_density_matrix_rejects_nan(entry):
    rho = thermal_state(1.0, 12)
    rho[entry] = np.nan
    with pytest.raises(ValueError):
        check_density_matrix(rho)


def test_check_density_matrix_rejects_all_zero():
    with pytest.raises(ValueError, match="trace"):
        check_density_matrix(np.zeros((5, 5), dtype=complex))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [np.inf, np.nan, complex(1.0, np.inf)])
@pytest.mark.parametrize("entry", [(0, 0), (1, 2)])
def test_check_density_matrix_rejects_non_finite_entries(entry, value):
    # the entry and its mirror; the finiteness check comes before the
    # asymmetry, whose subtraction of inf from inf would warn
    rho = thermal_state(1.0, 12)
    rho[entry] = value
    rho[entry[::-1]] = np.conj(value)
    with pytest.raises(ValueError, match="not finite"):
        check_density_matrix(rho)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_check_density_matrix_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        check_density_matrix(np.zeros((0, 0), dtype=complex))


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """The shapes of the matrices np.linalg.eigvalsh is called on."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return calls


def test_check_density_matrix_positivity_on_both_paths(eigvalsh_calls):
    # a diagonal matrix takes the exact shortcut, any other calls eigvalsh
    calls = eigvalsh_calls
    diagonal = np.diag([1.1, -0.1, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="not positive"):
        check_density_matrix(diagonal)
    check_density_matrix(number_state(2, 5))
    assert calls == []
    mixed = np.array([[0.5, 0.6], [0.6, 0.5]], dtype=complex)   # eigenvalue -0.1
    with pytest.raises(ValueError, match="not positive"):
        check_density_matrix(mixed)
    check_density_matrix(np.full((2, 2), 0.5, dtype=complex))
    assert len(calls) == 2


def _diagonal(*pops):
    return np.diag(np.array(pops, dtype=complex))


def _uniform_with_entry(dim, at):
    """The uniform diagonal state plus the entry e at ``at``, whose mirror
    entry stays zero."""
    def make(e):
        rho = _diagonal(*[1.0 / dim] * dim)
        rho[at] = e
        return rho
    return make


# each bound of the tolerance budget: the state at offset e from it, the
# bound, and the error just outside it
BUDGET_EDGES = {
    "hermiticity": (lambda e: np.array([[0.5, 0.1 + e], [0.1, 0.5]], dtype=complex),
                    1e-12, "not Hermitian"),
    # a population with imaginary part e / 2 is asymmetric by e
    "hermiticity on the diagonal": (lambda e: _diagonal(1.0 + 0.5j * e, 0.0), 1e-12,
                                    "not Hermitian"),
    "trace low": (lambda e: _diagonal(1.0 - e, 0.0), 1e-6, "trace"),
    "trace high": (lambda e: _diagonal(1.0 + e, 0.0), 1e-9, "trace"),
    "positivity on the diagonal": (lambda e: _diagonal(1.0 + e, -e), 1e-8, "not positive"),
    # eigenvalues 1 + e and -e
    "positivity by eigvalsh": (
        lambda e: np.array([[0.5, 0.5 + e], [0.5 + e, 0.5]], dtype=complex),
        1e-8, "not positive"),
    # the first and the last entry that the off-diagonal scan of a diagonal
    # state reads (at dim 2 they are one entry)
    **{f"hermiticity of one entry at {at} of dim {dim}": (
        _uniform_with_entry(dim, at), 1e-12, "not Hermitian")
       for dim in (2, 800) for at in ((1, 0), (dim - 1, dim - 2))},
}


@pytest.mark.parametrize("edge", BUDGET_EDGES)
def test_check_density_matrix_budget_edges(edge):
    make, bound, error = BUDGET_EDGES[edge]
    check_density_matrix(make(0.99 * bound))
    with pytest.raises(ValueError, match=error):
        check_density_matrix(make(1.01 * bound))


@st.composite
def block_sparse_states(draw):
    """Unit-trace Hermitian matrices whose nonzero entries sit on random
    multiples of a random offset gcd, among random live levels (some
    dead, or one live), with a minimum eigenvalue on the live levels of 0,
    a little above it, or just below the -1e-8 budget."""
    dim = draw(st.integers(2, 40))
    g = draw(st.integers(1, dim - 1))
    offsets = draw(st.sets(st.sampled_from(range(g, dim, g)), min_size=1, max_size=3))
    keep = draw(st.lists(st.booleans(), min_size=dim, max_size=dim) | st.just([True] * dim)
                | st.integers(0, dim - 1).map(lambda i: [j == i for j in range(dim)]))
    live = [i for i in range(dim) if keep[i]] or [0]
    lowest = draw(st.sampled_from((0.0, 1e-3)) | st.floats(-3e-8, -1.01e-8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho = np.zeros((dim, dim), dtype=complex)
    if len(live) == 1:
        rho[live[0], live[0]] = 1.0
        return rho
    for k in offsets:
        for i in live:
            if i + k in live:
                rho[i + k, i] = complex(*rng.normal(size=2))
                rho[i, i + k] = rho[i + k, i].conjugate()
    rho[live, live] = rng.normal(size=len(live))
    # shift the live diagonal so that rho / trace has `lowest` on the live levels
    block = rho[np.ix_(live, live)]
    lam, tr, n = np.linalg.eigvalsh(block)[0], block.trace().real, len(live)
    rho[live, live] += (lowest * tr - lam) / (1.0 - lowest * n)
    return rho / rho.trace().real


@settings(max_examples=300, deadline=None)
@given(rho=block_sparse_states())
# a positive-definite block beside a dead level: the minimum is exactly 0
@example(rho=np.array([[0.6, 0.2, 0.0], [0.2, 0.4, 0.0], [0.0, 0.0, 0.0]], dtype=complex))
# offset 2: the even block is positive, the odd one has eigenvalue -0.05
@example(rho=np.array([[0.5, 0.0, 0.1, 0.0], [0.0, 0.1, 0.0, 0.15],
                       [0.1, 0.0, 0.3, 0.0], [0.0, 0.15, 0.0, 0.1]], dtype=complex))
def test_check_density_matrix_min_eigenvalue_matches_dense(rho):
    dense = np.linalg.eigvalsh(rho).min()
    if dense < -1e-8:
        with pytest.raises(ValueError, match="not positive"):
            check_density_matrix(rho)
    else:
        assert abs(check_density_matrix(rho)[1] - dense) <= 1e-14


@pytest.mark.parametrize("edge,error", [
    ("positivity on the diagonal", "must be >="),
    ("trace low", "sum to 1"),
    ("trace high", "sum to 1"),
], ids=["min population", "sum low", "sum high"])
def test_evolve_populations_input_budget_edges(edge, error):
    # the ladder holds its populations to the matrix integrator's budget
    make, bound, _ = BUDGET_EDGES[edge]
    cfg = IntegratorConfig(dt=0.01, t_end=0.0)
    evolve_populations(make(0.99 * bound).diagonal().real, CONSTANT, cfg)
    with pytest.raises(ValueError, match=error):
        evolve_populations(make(1.01 * bound).diagonal().real, CONSTANT, cfg)


def test_t_end_must_be_a_whole_number_of_steps():
    with pytest.raises(ValueError, match="whole number of steps"):
        IntegratorConfig(dt=0.003, t_end=1.0)
    assert IntegratorConfig(dt=0.003, t_end=0.999).n_steps == 333
    assert IntegratorConfig(dt=0.1, t_end=0.3).n_steps == 3


@pytest.mark.parametrize("name", ["record_every"])
def test_sampling_intervals_must_be_whole_numbers_of_steps(name):
    for every in (2.5, 2.0, 0, -3, "2", None):
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
            IntegratorConfig(dt=0.1, t_end=1.0, **{name: every})
    assert getattr(IntegratorConfig(dt=0.1, t_end=1.0, **{name: np.int64(3)}), name) == 3


def test_checkpoint_cadence_is_not_configurable():
    with pytest.raises(TypeError, match="check_every"):
        IntegratorConfig(dt=0.1, t_end=1.0, check_every=50)


def test_default_dim_rule():
    assert default_dim(8.0) == 48
    assert default_dim(0.0) == 16


# --- generator -------------------------------------------------------------

def _random_state(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def _lowering(dim):
    """Truncated lowering operator a on the lowest ``dim`` Fock levels."""
    return np.diag(np.sqrt(np.arange(1, dim)), 1)


def test_rhs_matches_explicit_matrix_products():
    dim = 17
    low = _lowering(dim)
    raise_ = low.conj().T
    t = 0.4
    # the generator is linear: a non-Hermitian input and a real one are
    # mapped by the same matrix elements, and the result is complex
    for rho in (_random_state(dim, 7), _random_state(dim, 8) + 0.3j * _random_state(dim, 9),
                _random_state(dim, 10).real):
        g_down, g_up = SCALED.rates(t, mean_occupation(rho))
        num = low @ rho @ raise_
        expect = (-0.5 * g_down * (raise_ @ low @ rho - 2 * num + rho @ raise_ @ low)
                  - 0.5 * g_up * (low @ raise_ @ rho - 2 * (raise_ @ rho @ low)
                                  + rho @ low @ raise_))
        got = lindblad_rhs(rho, t, SCALED)
        assert got.dtype == complex
        assert np.abs(got - expect).max() < 1e-13


def test_thermal_state_is_stationary():
    rho = thermal_state(N_RES, 40)
    deriv = lindblad_rhs(rho, 0.0, CONSTANT)
    assert np.abs(deriv).max() < 1e-10 * GAMMA


def test_ground_state_stationary_cold_bath():
    model = RateModel(law=RateLaw.CONSTANT, gamma=1.0, n_res=0.0)
    deriv = lindblad_rhs(number_state(0, 10), 0.0, model)
    assert np.abs(deriv).max() < 1e-14


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("model", [CONSTANT, SCALED, FEEDBACK],
                         ids=["constant", "scaled", "feedback"])
@pytest.mark.parametrize("t", [np.nan, np.inf, -1.0])
def test_rhs_rejects_a_negative_or_non_finite_time(t, model):
    with pytest.raises(ValueError, match=r"t must be >= 0 and finite"):
        lindblad_rhs(thermal_state(1.0, 10), t, model)


def test_rhs_traceless():
    for rho in (thermal_state(2.0, 30), number_state(4, 30)):
        deriv = lindblad_rhs(rho, 0.3, SCALED)
        assert abs(np.trace(deriv)) < 1e-12 * GAMMA


def test_mean_rate_from_generator():
    # d n/dt from the generator equals -gamma (m - n_res) at t=0
    for m in (3, 8):
        deriv = lindblad_rhs(number_state(m, 40), 0.0, SCALED)
        dn_dt = float(np.real(np.arange(40) @ deriv.diagonal()))
        assert dn_dt == pytest.approx(-GAMMA * (m - N_RES), abs=1e-10)


# --- integration vs closed-form oracles ------------------------------------

def test_constant_rates_match_exponential_oracle():
    cfg = IntegratorConfig(dt=0.005, t_end=3.0, record_every=10)
    traj = integrate(number_state(8, 48), CONSTANT, cfg)
    oracle = N_RES + (8 - N_RES) * np.exp(-GAMMA * traj.times)
    assert np.abs(traj.n_bar - oracle).max() < 1e-6


def test_scaled_rates_match_accelerated_oracle():
    # rate scale grows like (1 + g t): dt must resolve dim * g * (1 + g t)
    cfg = IntegratorConfig(dt=0.001, t_end=3.0, record_every=50)
    traj = integrate(number_state(8, 48), SCALED, cfg)
    oracle = N_RES + (8 - N_RES) * np.exp(-GAMMA * traj.times
                                          * (1 + 0.5 * GAMMA * traj.times))
    assert np.abs(traj.n_bar - oracle).max() < 1e-6


def test_feedback_rates_match_scalar_oracle():
    # feedback law is meaningful (and bounded) only for t < 1/gamma
    cfg = IntegratorConfig(dt=0.001, t_end=1.0, record_every=20)
    traj = integrate(number_state(8, 80), FEEDBACK, cfg)

    def scalar_rhs(t, n):
        return -GAMMA * (n - N_RES) + GAMMA**2 * (n - N_RES) * t

    sol = solve_ivp(scalar_rhs, (0.0, 1.0), [8.0], rtol=1e-12, atol=1e-14,
                    dense_output=True)
    oracle = sol.sol(traj.times)[0]
    assert np.abs(traj.n_bar - oracle).max() < 1e-6
    # heating-side bound flag flips once (n_sys - n_res) g t exceeds n_res
    assert traj.within_rate_bound[0]
    assert not traj.within_rate_bound[-1]


def _integrate_populations(p0, model, cfg):
    return integrate(np.diag(p0), model, cfg)


INTEGRATORS = pytest.mark.parametrize(
    "run", [_integrate_populations, evolve_populations],
    ids=["integrate", "evolve_populations"])


@INTEGRATORS
def test_feedback_mean_follows_its_closed_form(run):
    # the mean of the closed-form channel, eta n0 + nu; dim 160 keeps the
    # truncation wall out of reach
    n0, dim = 8, 160
    cfg = IntegratorConfig(dt=2.5e-4, t_end=1.0, record_every=100)
    traj = run(number_state(n0, dim).diagonal().real, FEEDBACK, cfg)
    eta, nu = channel.parameters(FEEDBACK, n0, traj.times)
    oracle = eta * n0 + nu
    assert traj.times[-1] == 1.0
    assert np.abs(traj.n_bar - oracle).max() < 1e-12


@INTEGRATORS
def test_recorder_samples_every_record_step_and_the_last(run):
    p0 = number_state(8, 48).diagonal().real
    traj = run(p0, CONSTANT, IntegratorConfig(dt=1e-3, t_end=7e-3, record_every=3))
    every = run(p0, CONSTANT, IntegratorConfig(dt=1e-3, t_end=7e-3))
    assert np.array_equal(traj.times, np.array([0, 3, 6, 7]) * 1e-3)
    assert np.array_equal(traj.populations, every.populations[[0, 3, 6, 7]])
    assert np.array_equal(traj.purity, every.purity[[0, 3, 6, 7]])
    start = run(p0, CONSTANT, IntegratorConfig(dt=1e-3, t_end=0.0))
    assert start.times.tolist() == [0.0]
    assert start.populations.tolist() == [p0.tolist()]
    for samples in (start.n_bar, start.trace, start.purity, start.negative_rate,
                    start.within_rate_bound):
        assert samples.shape == (1,)


@INTEGRATORS
@pytest.mark.parametrize("model", [CONSTANT, SCALED, FEEDBACK],
                         ids=["constant", "scaled", "feedback"])
@pytest.mark.parametrize("level,t_end", [(0, 2.0), (8, 1.0)])
def test_rate_flags_match_a_per_sample_evaluation(run, model, level, t_end):
    # a cold start in the warm bath turns g_up negative under FEEDBACK, and a
    # hot one leaves the rate bound
    p0 = number_state(level, 40).diagonal().real
    traj = run(p0, model, IntegratorConfig(dt=1e-3, t_end=t_end, record_every=10))
    negative, within = [], []
    for t, n_sys in zip(traj.times.tolist(), traj.n_bar.tolist()):
        g_down, g_up = model.rates(t, n_sys)
        negative.append(g_down < 0.0 or g_up < 0.0)
        within.append((n_sys - model.n_res) * model.gamma * t <= model.n_res)
    assert traj.negative_rate.shape == traj.within_rate_bound.shape == traj.times.shape
    assert traj.negative_rate.tolist() == negative
    assert traj.within_rate_bound.tolist() == within
    if model is FEEDBACK:
        assert len(set(negative if level == 0 else within)) == 2


def test_trajectory_invariants_on_benchmark():
    cfg = IntegratorConfig(dt=0.005, t_end=3.0, record_every=10)
    traj = integrate(number_state(8, 48), CONSTANT, cfg)
    assert np.abs(traj.trace - 1.0).max() < 1e-6
    assert traj.min_eigenvalues.min() > -1e-8
    assert np.all(np.diff(traj.times) > 0)
    assert len({len(traj.times), len(traj.n_bar), len(traj.trace),
                len(traj.purity), traj.populations.shape[0]}) == 1
    # purity relaxes from pure toward the mixed thermal value
    assert traj.purity[0] == pytest.approx(1.0, abs=1e-12)
    assert traj.purity[-1] < 0.3


def test_diagonal_closure_and_hermiticity():
    cfg = IntegratorConfig(dt=0.005, t_end=1.0, record_every=100)
    dim = 40
    rho = number_state(8, dim)
    dis_model = CONSTANT
    # step a few times manually through the public rhs to inspect the state
    dt = cfg.dt
    for step in range(200):
        t = step * dt
        k1 = lindblad_rhs(rho, t, dis_model)
        k2 = lindblad_rhs(rho + 0.5 * dt * k1, t + 0.5 * dt, dis_model)
        k3 = lindblad_rhs(rho + 0.5 * dt * k2, t + 0.5 * dt, dis_model)
        k4 = lindblad_rhs(rho + dt * k3, t + dt, dis_model)
        rho = rho + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
    off_diag = rho - np.diag(rho.diagonal())
    assert np.abs(off_diag).max() < 1e-12
    assert np.abs(rho - rho.conj().T).max() < 1e-10


def test_truncation_insensitivity():
    # adequate truncations agree; the tail-budget rule (dim 48 here) is the
    # knee of the curve, and 60 vs 80 sits below 1e-8.  dt must shrink with
    # dim to stay inside the explicit stability region.
    cfg = IntegratorConfig(dt=0.0025, t_end=3.0, record_every=50)
    n60 = integrate(number_state(8, 60), CONSTANT, cfg).n_bar
    n80 = integrate(number_state(8, 80), CONSTANT, cfg).n_bar
    assert np.abs(n60 - n80).max() < 1e-8


def test_truncation_bias_at_dim_40_is_real():
    # regression pin: at dim 40 the reflecting wall biases n_bar by ~1.4e-5
    # on this benchmark, which is why oracle checks run at the tail-budget dim
    cfg = IntegratorConfig(dt=0.0025, t_end=3.0, record_every=50)
    n40 = integrate(number_state(8, 40), CONSTANT, cfg).n_bar
    n80 = integrate(number_state(8, 80), CONSTANT, cfg).n_bar
    gap = np.abs(n40 - n80).max()
    assert 5e-6 < gap < 5e-5


@pytest.mark.parametrize("model, t_max", [(CONSTANT, 1.0), (SCALED, 0.95)],
                         ids=["constant", "scaled"])
def test_unstable_step_size_aborts_with_diagnostics(model, t_max):
    # dim * rates * dt far beyond the explicit stability limit: the run
    # stops at the t = 1 checkpoint, or sooner at the first sample whose
    # purity overflows (t = 0.93 under SCALED), with no numpy warning; the
    # error names the blow-up, not the trace its cancellations leave
    cfg = IntegratorConfig(dt=0.01, t_end=3.0)
    with warnings.catch_warnings(), pytest.raises(IntegrationError) as excinfo:
        warnings.simplefilter("error")
        integrate(number_state(8, 64), model, cfg)
    assert 0 < excinfo.value.t <= t_max
    assert str(excinfo.value).startswith("state has blown up (unstable step size?)")


def _staged_rk4_on_explicit_ladder(p, model, dt, steps, start=0):
    """The four RK4 stages written out on the tridiagonal population
    generator dp/dt = (g_down D + g_up U) p, the rates read off each stage,
    for the steps start + 1 .. start + steps."""
    level = np.arange(p.size, dtype=float)
    down = diags([level[1:], -level], [1, 0], format="csr")
    up = diags([level[1:], -np.append(level[1:], 0.0)], [-1, 0], format="csr")

    def rhs(p, t):
        g_down, g_up = model.rates(t, level @ p)
        return g_down * (down @ p) + g_up * (up @ p)

    for step in range(start, start + steps):
        t = step * dt
        k1 = rhs(p, t)
        k2 = rhs(p + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = rhs(p + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = rhs(p + dt * k3, t + dt)
        p = p + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return p


def test_acceptance_case_matches_staged_rk4_on_explicit_ladder():
    # 3000 banded-operator steps against the staged explicit ladder
    dim, dt, steps = 48, 1e-3, 3000
    p = _staged_rk4_on_explicit_ladder(number_state(8, dim).diagonal().real,
                                       SCALED, dt, steps)
    cfg = IntegratorConfig(dt=dt, t_end=steps * dt, record_every=steps)
    traj = integrate(number_state(8, dim), SCALED, cfg)
    assert np.abs(traj.populations[-1] - p).max() < 1e-12


def test_feedback_ladder_at_dim_800_matches_staged_rk4_on_explicit_ladder():
    # a thermal start spreads over all 800 levels; every stage reads its rates
    # off its own state, so a stage that read another state's mean would show
    dim, dt, steps = 800, 1e-4, 300
    p0 = thermal_state(40.0, dim).diagonal().real
    cfg = IntegratorConfig(dt=dt, t_end=steps * dt, record_every=steps)
    traj = evolve_populations(p0, FEEDBACK, cfg)
    p = _staged_rk4_on_explicit_ladder(p0, FEEDBACK, dt, steps)
    assert np.abs(traj.populations[-1] - p).max() < 1e-12
    assert traj.n_bar[-1] == pytest.approx(np.arange(dim) @ p, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 60), seed=st.integers(0, 2**32 - 1), complex_state=st.booleans(),
       g_down=st.floats(-5.0, 5.0), g_up=st.floats(-5.0, 5.0))
# subnormal rates: a product rounds by a whole subnormal step
@example(dim=3, seed=1, complex_state=False, g_down=0.0, g_up=5e-324)
def test_mean_slope_follows_from_the_mean_trace_and_top_level(dim, seed, complex_state,
                                                              g_down, g_up):
    # levels.(D x) = -n and levels.(U x) = n + trace - dim x_top on the
    # truncated chain, where a+ annihilates the top level; the FEEDBACK step
    # reads each stage's mean off these scalars
    rng = np.random.default_rng(seed)
    offsets = rng.choice(np.arange(1, dim), size=rng.integers(0, min(3, dim - 1) + 1),
                         replace=False)
    band = lindblad._Band(dim, np.append(0, np.sort(offsets)))
    x = rng.normal(size=band.mask.shape)
    if complex_state:
        x = x + 1j * rng.normal(size=x.shape)
    x[~band.mask] = 0.0
    # any pair of rates, not only a law's: the generator is linear in them
    model = SimpleNamespace(rates=lambda t, n_sys: (g_down, g_up))
    # band.dense(x) is Hermitian, so its populations are real: a complex row
    # 0 is two real cases, its real and its imaginary part
    for part in (x.real, x.imag) if complex_state else (x,):
        ax = band.pack(lindblad_rhs(band.dense(part), 0.0, model))
        n_bar, trace = band.levels @ part[0], part[0].sum()
        expect = -g_down * n_bar + g_up * (n_bar + trace - dim * part[0, -1])
        rates = max(abs(g_down) + abs(g_up), np.finfo(float).tiny)
        scale = dim * dim * rates * np.abs(part[0]).sum()
        assert abs(band.levels @ ax[0].real - expect) <= 1e-13 * scale


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 60), seed=st.integers(0, 2**32 - 1), complex_state=st.booleans(),
       gamma=st.floats(0.1, 3.0), n_res=st.floats(0.0, 60.0), t0=st.floats(0.0, 3.0),
       top=st.floats(0.0, 1.0))
# a cold state in a warm bath late in the run: g_up < 0 at every stage
@example(dim=60, seed=1, complex_state=True, gamma=2.0, n_res=60.0, t0=2.0, top=0.0)
# half the mass on the top level, where D and U meet the wall
@example(dim=7, seed=2, complex_state=False, gamma=1.0, n_res=1.0, t0=0.5, top=0.5)
def test_staged_step_matches_rk4_on_the_banded_operator(dim, seed, complex_state, gamma,
                                                         n_res, t0, top):
    # one FEEDBACK step against the four RK4 stages written out with the
    # dense generator, each stage's rates read off its own state: the step's
    # product with the four planes of taps must read the right neighbours at
    # every row end; row 0 (the populations) is real, as band.dense needs
    rng = np.random.default_rng(seed)
    offsets = rng.choice(np.arange(1, dim), size=rng.integers(0, min(3, dim - 1) + 1),
                         replace=False)
    band = lindblad._Band(dim, np.append(0, np.sort(offsets)))
    x = rng.normal(size=band.mask.shape)
    if complex_state:
        x = x + 1j * rng.normal(size=x.shape)
    populations = rng.random(dim) ** 4
    x[0] = (1.0 - top) * populations / populations.sum()
    x[0, -1] += top
    x[~band.mask] = 0.0
    model = RateModel(law=RateLaw.FEEDBACK, gamma=gamma, n_res=n_res)
    # a step of about a tenth of the fastest rate's reciprocal
    dt = 0.1 / (dim * (1.0 + np.abs(model.rates(t0, band.levels @ x[0].real)).sum()))
    n0 = round(t0 / dt)

    def slope(x, t):
        return band.pack(lindblad_rhs(band.dense(x), t, model))

    t = n0 * dt
    k1 = slope(x, t)
    k2 = slope(x + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = slope(x + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = slope(x + dt * k3, t + dt)
    expect = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    got = lindblad._staged_step(band, x, model, dt)(n0, n0 + 1)
    assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()


@INTEGRATORS
@pytest.mark.parametrize("n_bar,dim", [(5.0, 12), (3.0, 6)])
def test_feedback_with_mass_on_the_wall_matches_staged_rk4_on_explicit_ladder(
        run, n_bar, dim):
    # a thermal start with over 2% of its mass on the top level: a stage
    # mean that left out the wall term dim x_top would read the wrong rates
    x = n_bar / (1.0 + n_bar)
    p0 = x ** np.arange(dim)
    p0 /= p0.sum()
    assert p0[-1] >= 0.02
    dt, steps = 1e-3, 500
    traj = run(p0, FEEDBACK, IntegratorConfig(dt=dt, t_end=steps * dt, record_every=steps))
    p = _staged_rk4_on_explicit_ladder(p0, FEEDBACK, dt, steps)
    assert np.abs(traj.populations[-1] - p).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 60), seed=st.integers(0, 2**32 - 1), gamma=st.floats(0.1, 3.0),
       n_res=st.floats(0.0, 60.0), t0=st.floats(0.0, 3.0), top=st.floats(0.0, 1.0))
# dims below 4, where the top rows reach the bottom of the chain
@example(dim=2, seed=1, gamma=1.0, n_res=1.0, t0=0.5, top=0.5)
@example(dim=3, seed=2, gamma=2.0, n_res=5.0, t0=1.0, top=1.0)
# a cold state in a warm bath late in the run: g_up < 0 at every stage
@example(dim=60, seed=1, gamma=2.0, n_res=60.0, t0=2.0, top=0.0)
# a warm bath at the wall, rates near 70, which the word weights must not cancel
@example(dim=17, seed=0, gamma=1.75, n_res=39.0, t0=0.84375, top=0.5)
def test_feedback_step_at_the_wall_matches_rk4_on_the_banded_operator(dim, seed, gamma, n_res,
                                                                      t0, top):
    # one FEEDBACK step of a one-row state on all its levels, whose stage
    # rates follow from the state's mean, trace and top three entries, against
    # the four RK4 stages written out with the dense generator, each stage's
    # rates read off its own state
    rng = np.random.default_rng(seed)
    band = lindblad._band(dim, (0,))
    populations = rng.random(dim) ** 4
    x = (1.0 - top) * populations / populations.sum()
    x[-1] += top
    model = RateModel(law=RateLaw.FEEDBACK, gamma=gamma, n_res=n_res)
    # a step of about a tenth of the fastest rate's reciprocal
    dt = 0.1 / (dim * (1.0 + np.abs(model.rates(t0, band.levels @ x)).sum()))
    # the step index nearest t0, kept even as the test has always taken it; the
    # propagator steps one state buffer in place, so any start step would do
    n0 = 2 * round(t0 / dt / 2)

    def slope(x, t):
        return band.pack(lindblad_rhs(band.dense(x[None]), t, model))[0]

    t = n0 * dt
    k1 = slope(x, t)
    k2 = slope(x + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = slope(x + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = slope(x + dt * k3, t + dt)
    expect = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    got = lindblad._polynomial_step(band, x[None], model, dt, n0 + 1)(n0, n0 + 1)
    assert np.abs(got[0] - expect).max() <= 1e-14 * np.abs(expect).max()


def _feedback_taps_by_stage_rates(band, model, dt, n_steps, row, K, span, hi, lo):
    """The taps of P - I that _feedback_build writes for the FEEDBACK steps
    lo + 1 .. lo + span (at most n_steps), each stage's rates read through
    model.rates at the stage's mean, stage by stage."""
    dim = band.dim
    wall = hi == dim
    T, basis = lindblad._word_taps(band, hi)
    Q = np.dot(K, T[1:].reshape(30, -1))
    moments = np.vstack((band.levels, np.ones(dim), np.eye(3, dim, dim - 3)))
    dd1, dd, du1, _, ul1, ul, ud1, ud = band.top[..., -2:].ravel().tolist()
    # (c_s, w_s, the weight of the stage's slope in the step, and whether to
    # carry the top rows into the next stage's input)
    stages = tuple(zip((0.0, 0.5 * dt, 0.5 * dt, dt), (0.5 * dt, 0.5 * dt, dt, 0.0),
                       (dt / 6.0, dt / 3.0, dt / 3.0, dt / 6.0), (wall, wall, False, False)))
    mono = np.zeros((span, 16))
    n_bar, trace, z0, z1, z2 = np.dot(moments, row).tolist()
    for j, n in enumerate(range(lo, min(lo + span, n_steps))):
        t, n_s, n_next, y1, y2, e = n * dt, n_bar, n_bar, z1, z2, []
        for c, w, b, top in stages:
            g_down, g_up = model.rates(t + c, n_s)
            e.append(g_up)
            slope = g_up * (n_s + trace - dim * y2) - g_down * n_s
            n_s, n_next = n_bar + w * slope, n_next + b * slope
            if top:
                y1, y2 = (z1 + w * (g_down * (dd1 * y1 + du1 * y2)
                                    + g_up * (ul1 * z0 + ud1 * y1)),
                          z2 + w * (g_down * dd * y2 + g_up * (ul * y1 + ud * y2)))
        n_bar = n_next
        e1, e2, e3, e4 = e
        # the product of the e_s over the stages in S, bit s - 1 of S set
        mono[j] = [low * high for high in (1.0, e3, e4, e3 * e4) for low in (1.0, e1, e2, e1 * e2)]
    coeffs = np.dot(mono, Q)
    return np.dot(coeffs.reshape(-1, len(basis)), basis).reshape(span, 9, hi)


@settings(max_examples=80, deadline=None)
@given(dim=st.integers(2, 60), seed=st.integers(0, 2**32 - 1), gamma=st.floats(0.1, 3.0),
       n_res=st.floats(0.0, 60.0), t0=st.floats(0.0, 3.0), top=st.floats(0.0, 1.0),
       live=st.integers(1, 60), steps=st.integers(1, 20))
# dims below 4, where the top rows reach the bottom of the chain
@example(dim=2, seed=1, gamma=1.0, n_res=1.0, t0=0.5, top=0.5, live=60, steps=1)
@example(dim=3, seed=2, gamma=2.0, n_res=5.0, t0=1.0, top=1.0, live=60, steps=1)
# a cold state in a warm bath late in the run: g_up < 0 at every stage, on
# all levels and on a window with a short last block
@example(dim=60, seed=1, gamma=2.0, n_res=60.0, t0=2.0, top=0.0, live=60, steps=1)
@example(dim=60, seed=1, gamma=2.0, n_res=60.0, t0=2.0, top=0.0, live=20, steps=7)
# a warm bath at the wall, rates near 70
@example(dim=17, seed=0, gamma=1.75, n_res=39.0, t0=0.84375, top=0.5, live=60, steps=1)
def test_feedback_taps_equal_those_of_the_stage_rates_bit_for_bit(dim, seed, gamma, n_res, t0,
                                                                   top, live, steps):
    # the build's rates are RateModel.rates written out: on all levels (live
    # reaches the wall) one step from the state's top rows, and on a window
    # of hi levels a block of up to 16 steps from the carried mean
    rng = np.random.default_rng(seed)
    band = lindblad._band(dim, (0,))
    hi = live if live <= dim - 4 else dim
    populations = rng.random(hi) ** 4
    x = np.zeros(dim)
    x[:hi] = (1.0 - top) * populations / populations.sum()
    x[hi - 1] += top
    model = RateModel(law=RateLaw.FEEDBACK, gamma=gamma, n_res=n_res)
    dt = 0.1 / (dim * (1.0 + np.abs(model.rates(t0, band.levels @ x)).sum()))
    f = np.array([dt, dt * gamma, 0.0, 1.0])[lindblad._RUN_FACTOR]
    K = np.dot(f[0] * f[1] * f[2] * f[3] * lindblad._RUN_WEIGHT, lindblad._RUN_WORD)
    lo = round(t0 / dt)
    span = 1 if hi == dim else lindblad._WINDOW_EVERY
    n_steps = lo + min(steps, span)
    ops = np.empty((span, 9, hi))
    lindblad._feedback_build(band, model, dt, n_steps, x, ops, K)(lo)
    expect = _feedback_taps_by_stage_rates(band, model, dt, n_steps, x, K, span, hi, lo)
    built = n_steps - lo
    assert ops[:built].tobytes() == expect[:built].tobytes()


def _feedback_run_step_by_step(dim, level, n_res, gamma, courant, steps):
    """A FEEDBACK ladder run of ``steps`` steps from Fock ``level``, advanced
    one step a call, against one explicit RK4 step from each state it
    reaches; returns the ends of the windows of live levels it set."""
    model = RateModel(law=RateLaw.FEEDBACK, gamma=gamma, n_res=n_res)
    # the law holds for t < 1/gamma
    dt = min(courant / (2 * dim * gamma * (1 + 2 * n_res)), 0.9 / (gamma * steps))
    p = number_state(level, dim).diagonal().real
    ends = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lindblad, "_window_end",
                      lambda x, end=lindblad._window_end: ends.append(end(x)) or ends[-1])
        advance = lindblad._polynomial_step(lindblad._band(dim, (0,)), p[None], model, dt, steps)
        for n in range(steps):
            expect = _staged_rk4_on_explicit_ladder(p, model, dt, 1, start=n)
            p = advance(n, n + 1)[0].copy()
            assert np.abs(p - expect).max() <= 1e-14 * np.abs(expect).max()
    return ends


@settings(max_examples=15, deadline=None)
@given(dim=st.integers(100, 400), level=st.integers(0, 10), n_res=st.floats(0.5, 5.0),
       gamma=st.floats(0.5, 2.0), courant=st.floats(0.2, 1.0), steps=st.integers(17, 200))
def test_feedback_blocks_below_the_wall_match_rk4_step_by_step(dim, level, n_res, gamma,
                                                               courant, steps):
    # the rates of each block of steps come from the mean recursion started
    # at the block's first step; every step of it, the first past a block
    # edge among them, matches RK4 with its rates read off its own stages
    _feedback_run_step_by_step(dim, level, n_res, gamma, courant, steps)


def test_feedback_run_crosses_a_window_regrowth_and_reaches_the_wall():
    # Fock 10 at dim 300: the front of the mass passes the first window's
    # slack, so the window grows mid-run and the blocks go on on the new one
    ends = _feedback_run_step_by_step(300, 10, 0.5, 1.0, 1.0, 300)
    assert len(ends) > 1 and ends[-1] < 300
    # Fock 5 at dim 110: the window grows to all levels, and the run goes on
    # a step at a time, its stage rates read off the wall
    ends = _feedback_run_step_by_step(110, 5, 0.5, 1.0, 1.0, 200)
    assert ends[0] < 110 and ends[-1] == 110


@pytest.mark.parametrize("rho0", [number_state(8, 160), thermal_state(2.0, 48)],
                         ids=["fock8-dim160", "thermal2-dim48"])
def test_feedback_trace_does_not_drift(rho0):
    # 4000 steps, below the wall in blocks and then at it a step at a time
    # (Fock 8), or at the wall throughout (thermal): the step adds its
    # operator less the identity to the state, so no tap rounds 1 + delta,
    # which would lose 5e-17 of trace or more a step (2e-13 over this run)
    cfg = IntegratorConfig(dt=2.5e-4, t_end=1.0, record_every=100)
    traj = evolve_populations(rho0.diagonal().real, FEEDBACK, cfg)
    assert np.abs(traj.trace - 1.0).max() <= 5e-14


def test_negative_rate_flagged_not_clamped():
    # cold system in a warm bath: feedback correction turns g_up negative
    model = RateModel(law=RateLaw.FEEDBACK, gamma=1.0, n_res=2.0)
    cfg = IntegratorConfig(dt=0.005, t_end=2.0, record_every=10)
    traj = integrate(number_state(0, 36), model, cfg)
    assert traj.negative_rate.any()
    assert not traj.negative_rate[0]
    # closed form for the mean passes through zero again at t = 2
    assert traj.n_bar[-1] == pytest.approx(0.0, abs=1e-5)
    assert traj.min_eigenvalues.min() > -1e-8


# --- banded storage: coherences ----------------------------------------------

def _pure_state(amplitudes: dict, dim: int) -> np.ndarray:
    psi = np.zeros(dim, dtype=complex)
    for level, amp in amplitudes.items():
        psi[level] = amp
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def test_coherent_amplitude_decays_at_half_rate():
    # d<a>/dt = -(g_down - g_up)/2 <a> = -(gamma/2) <a> under constant rates;
    # dim 60 keeps the truncation wall out of reach (at dim 24 it shows, 5e-6)
    dim = 60
    rho0 = _pure_state({3: 1.0, 4: 1.0, 5: 1.0j}, dim)
    low = _lowering(dim)
    mean_a = lambda rho: np.trace(low @ rho)
    cfg = IntegratorConfig(dt=0.001, t_end=0.4, record_every=100)
    traj = integrate(rho0, CONSTANT, cfg)
    expect = mean_a(rho0) * np.exp(-0.5 * GAMMA * cfg.t_end)
    assert abs(mean_a(rho0)) > 0.5
    assert abs(mean_a(traj.final_state) - expect) < 1e-12
    assert traj.min_eigenvalues.min() > -1e-8


def _explicit_rk4(rho, model, dt, steps):
    """RK4 on the master equation written with explicit a, a+ products."""
    low = _lowering(rho.shape[0])
    raise_ = low.conj().T
    number, anti = raise_ @ low, low @ raise_

    def rhs(r, t):
        g_down, g_up = model.rates(t, mean_occupation(r))
        return (g_down * (low @ r @ raise_ - 0.5 * (number @ r + r @ number))
                + g_up * (raise_ @ r @ low - 0.5 * (anti @ r + r @ anti)))

    for step in range(steps):
        t = step * dt
        k1 = rhs(rho, t)
        k2 = rhs(rho + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = rhs(rho + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = rhs(rho + dt * k3, t + dt)
        rho = rho + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return rho


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 24), seed=st.integers(0, 2**32 - 1),
       support_size=st.integers(1, 4), law=st.sampled_from(list(RateLaw)),
       n_res=st.floats(0.5, 2.0), courant=st.floats(0.01, 0.2),
       steps=st.integers(1, 5))
def test_banded_integrate_matches_explicit_products(dim, seed, support_size, law,
                                                    n_res, courant, steps):
    # any set of stored diagonals evolves as the full matrix would
    rng = np.random.default_rng(seed)
    levels = rng.choice(dim, size=min(support_size, dim), replace=False)
    amps = rng.normal(size=levels.size) + 1j * rng.normal(size=levels.size)
    rho0 = _pure_state(dict(zip(levels.tolist(), amps)), dim)
    model = RateModel(law=law, gamma=GAMMA, n_res=n_res)
    dt = courant / (2 * dim * GAMMA * (1 + 2 * n_res))
    traj = integrate(rho0, model, IntegratorConfig(dt=dt, t_end=steps * dt))
    expect = _explicit_rk4(rho0, model, dt, steps)
    assert np.abs(traj.final_state - expect).max() < 1e-12
    assert traj.purity[-1] == pytest.approx(np.vdot(expect, expect).real, abs=1e-12)
    assert np.abs(traj.populations[-1] - expect.diagonal().real).max() < 1e-12


def _dense_spy(patch):
    """The (rows, dim) of every dense CONSTANT step a run builds."""
    shapes = []

    def spy(taps, states, build=lindblad._dense_steps):
        shapes.append(taps.shape[1:])
        return build(taps, states)
    patch.setattr(lindblad, "_dense_steps", spy)
    return shapes


@pytest.fixture
def dense_builds(monkeypatch):
    return _dense_spy(monkeypatch)


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 64), seed=st.integers(0, 2**32 - 1), support_size=st.integers(1, 3),
       n_res=st.floats(0.5, 2.0), courant=st.floats(0.01, 0.2), steps=st.integers(1, 70),
       every=st.sampled_from([1, 5, 16, None]))
# the step counts on either side of one and two blocks of 16 steps
@example(dim=48, seed=1, support_size=3, n_res=2.0, courant=0.2, steps=15, every=None)
@example(dim=48, seed=1, support_size=3, n_res=2.0, courant=0.2, steps=16, every=None)
@example(dim=48, seed=1, support_size=3, n_res=2.0, courant=0.2, steps=17, every=16)
@example(dim=64, seed=2, support_size=1, n_res=1.0, courant=0.2, steps=31, every=5)
@example(dim=64, seed=2, support_size=1, n_res=1.0, courant=0.2, steps=32, every=1)
@example(dim=64, seed=2, support_size=2, n_res=1.0, courant=0.2, steps=33, every=16)
def test_dense_constant_steps_match_explicit_products(dim, seed, support_size, n_res,
                                                     courant, steps, every):
    # 1 to 4 stored diagonals (1 to 3 levels), real or complex, stepped by the
    # cached powers of the fixed step on all levels; a build budget that
    # admits every run puts each on that path, and every sample, whichever
    # steps it falls on, is the explicit RK4 state at its step
    rng = np.random.default_rng(seed)
    levels = rng.choice(dim, size=min(support_size, dim), replace=False)
    amps = rng.normal(size=levels.size) + 1j * rng.normal(size=levels.size)
    rho = _pure_state(dict(zip(levels.tolist(), amps)), dim)
    model = RateModel(law=RateLaw.CONSTANT, gamma=GAMMA, n_res=n_res)
    dt = courant / (2 * dim * GAMMA * (1 + 2 * n_res))
    cfg = IntegratorConfig(dt=dt, t_end=steps * dt, record_every=every or steps)
    with pytest.MonkeyPatch.context() as patch:
        shapes = _dense_spy(patch)
        patch.setattr(lindblad, "_BUILD_ROWS", 2 ** 40)
        traj = integrate(rho, model, cfg)
    assert shapes == [(len(check_density_matrix(rho)[0]), dim)]
    expect = [rho]
    for _ in range(steps):
        expect.append(_explicit_rk4(expect[-1], model, dt, 1))
    for got, purity, step in zip(traj.populations, traj.purity, cfg.recorded_steps):
        assert np.abs(got - expect[step].diagonal().real).max() < 1e-12
        assert purity == pytest.approx(np.vdot(expect[step], expect[step]).real, abs=1e-12)
    assert np.abs(traj.final_state - expect[-1]).max() < 1e-12


def test_dense_constant_steps_after_a_window_regrowth_match_the_banded_steps(windows,
                                                                            dense_builds):
    # a heating run from Fock 0 steps its first window of 97 levels on the
    # banded step, grows it to all 128 (the largest one-row dim whose powers
    # fit the build budget) and goes on with cached powers counted from the
    # step it grew at; a zero build budget keeps it on the banded step
    dim, dt, steps = 128, 2e-4, 400
    model = RateModel(law=RateLaw.CONSTANT, gamma=GAMMA, n_res=8.0)
    p0 = number_state(0, dim).diagonal().real
    cfg = IntegratorConfig(dt=dt, t_end=steps * dt, record_every=7)
    traj = evolve_populations(p0, model, cfg)
    assert windows[0] < dim == windows[-1] and dense_builds == [(1, dim)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lindblad, "_BUILD_ROWS", 0)
        banded = evolve_populations(p0, model, cfg)
    assert len(dense_builds) == 1
    assert np.abs(traj.populations - banded.populations).max() < 1e-13


def test_dense_constant_steps_are_taken_by_small_fixed_steps_only(dense_builds):
    # the cached powers need all levels (a fixed step), a power within 8
    # build budgets and a run long enough to pay for its four squarings; the
    # last two runs off the path fail only the second and only the third
    three = _pure_state({0: 1.0, 3: 1.0j, 5: -1.0}, 48)
    coherent200 = _pure_state({0: 1.0, 3: 1.0j, 5: -1.0}, 200)
    on = [(three, 2.5e-4, 120), (number_state(8, 48), 2.5e-4, 100)]
    off = [(coherent200, 2.5e-5, 30), (number_state(8, 800), 5e-5, 150),
           (thermal_state(8.0, 150), 5e-5, 500), (three, 2.5e-4, 30)]
    for rho0, dt, steps in on + off:
        integrate(rho0, CONSTANT, IntegratorConfig(dt=dt, t_end=steps * dt))
    assert dense_builds == [(4, 48), (1, 48)]
    for model in (SCALED, FEEDBACK):
        for rho0, dt, steps in on + off:
            integrate(rho0, model, IntegratorConfig(dt=dt, t_end=steps * dt))
    assert len(dense_builds) == 2


@pytest.mark.parametrize("run", [
    lambda cfg: evolve_populations(thermal_state(2.0, 48).diagonal().real, CONSTANT, cfg),
    lambda cfg: integrate(_pure_state({2: 1.0, 5: 1.0j, 9: -1.0}, 48), CONSTANT, cfg)],
    ids=["ladder-thermal2-dim48", "integrate-superposition-dim48"])
def test_constant_trace_does_not_drift_on_the_dense_path(run, dense_builds):
    # 4000 steps on cached powers of P - I: no reused tap holds a rounded
    # 1 + delta (the banded step's one tap does, 4.4e-14 over these runs)
    traj = run(IntegratorConfig(dt=2.5e-4, t_end=1.0, record_every=100))
    assert len(dense_builds) == 1
    assert np.abs(traj.trace - 1.0).max() <= 5e-15


def _fully_coherent(dim, seed):
    # every level occupied, so every diagonal of rho is stored and stepped
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return _pure_state(dict(enumerate(amps)), dim)


@pytest.mark.parametrize("model", [CONSTANT, SCALED, FEEDBACK],
                         ids=["constant", "scaled", "feedback"])
def test_many_diagonals_match_explicit_products(model):
    # 150 complex diagonals of 150 rows: the step operator is built in several
    # blocks, and each FEEDBACK stage runs its taps across every row boundary
    dim, dt, steps = 150, 1e-4, 3
    rho0 = _fully_coherent(dim, 3)
    traj = integrate(rho0, model, IntegratorConfig(dt=dt, t_end=steps * dt))
    assert np.abs(traj.final_state - _explicit_rk4(rho0, model, dt, steps)).max() < 1e-12


def test_constant_step_peak_memory_stays_near_one_operator():
    # the CONSTANT step operator holds 9 float64 per stored element; building
    # it must not hold its five powers or their full-size temporaries too
    dim, dt = 150, 1e-5
    rho0 = _fully_coherent(dim, 4)
    cfg = IntegratorConfig(dt=dt, t_end=dt)
    integrate(rho0, CONSTANT, cfg)
    tracemalloc.start()
    try:
        integrate(rho0, CONSTANT, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * dim * dim * 9 * 8


def test_scaled_step_peak_memory_stays_near_one_operator_per_step():
    # SCALED keeps the five powers (45 float64 per stored element) and builds
    # the operators of a block of steps at once; past the build budget that
    # block is one operator (9 float64), so the run stays under nine operators
    # (a block of all four steps reads over 11)
    dim, dt = 150, 1e-5
    rho0 = _fully_coherent(dim, 4)
    cfg = IntegratorConfig(dt=dt, t_end=4 * dt)
    integrate(rho0, SCALED, cfg)
    tracemalloc.start()
    try:
        integrate(rho0, SCALED, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * dim * dim * 9 * 8


def test_feedback_step_peak_memory_stays_near_its_buffers():
    # the staged step allocates its bands, taps, product, four slopes and two
    # padded states once per call; the whole run stays within 20 complex
    # copies of the stored state (1.6x the 4.3 MiB that fresh per-stage
    # temporaries peaked at)
    dim, dt = 150, 1e-5
    rho0 = _fully_coherent(dim, 4)
    cfg = IntegratorConfig(dt=dt, t_end=3 * dt)
    integrate(rho0, FEEDBACK, cfg)
    tracemalloc.start()
    try:
        integrate(rho0, FEEDBACK, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * dim * dim * 16


def test_coherent_start_is_diagonalized_once(eigvalsh_calls):
    # the t = 0 checkpoint takes rho0's minimum eigenvalue from the input
    # check, which diagonalizes only the block of its two live levels
    rho0 = _pure_state({2: 1.0, 5: 1.0j}, 12)
    traj = integrate(rho0, CONSTANT, IntegratorConfig(dt=0.01, t_end=0.0))
    assert eigvalsh_calls == [(2, 2)]
    assert traj.min_eigenvalues[0] == np.linalg.eigvalsh(rho0).min()
    bad = rho0.copy()
    bad[2, 2] += 0.01
    bad[5, 5] -= 0.01
    with pytest.raises(ValueError, match="not positive"):
        integrate(bad, CONSTANT, IntegratorConfig(dt=0.01, t_end=0.0))


def test_coherent_checkpoints_diagonalize_blocks_only(eigvalsh_calls):
    # offsets {0, 3, 6} have gcd 3, so each checkpoint splits the state by
    # level mod 3, and the levels the run has not reached are left out
    dim = 200
    rho0 = _pure_state({0: 1.0, 3: 1.0j, 6: -1.0}, dim)
    traj = integrate(rho0, CONSTANT, IntegratorConfig(dt=2.5e-4, t_end=30 * 2.5e-4))
    assert len(eigvalsh_calls) > 1
    assert all(shape[0] < dim for shape in eigvalsh_calls)
    dense = np.linalg.eigvalsh(traj.final_state).min()
    assert abs(traj.min_eigenvalues[-1] - dense) <= 1e-14


def test_coherent_checkpoint_leaves_out_negligible_tail(eigvalsh_calls):
    # offsets {0, 1} have gcd 1, so the entries are one block: 24 levels
    # with entries of order 1 and a tail of 176 levels whose entries are all
    # below 1e-30, down to subnormal numbers, which the checkpoint's minimum
    # eigenvalue leaves out
    dim, live = 200, 24
    rng = np.random.default_rng(7)
    level = np.arange(dim)
    scale = np.where(level < live, 1.0, 1e-31 * 0.025 ** (level - live).clip(0))
    diagonal = rng.normal(size=dim) * scale
    below = (rng.normal(size=dim - 1) + 1j * rng.normal(size=dim - 1)) * scale[1:]
    rows, cols = np.append(level, level[1:]), np.append(level, level[:-1])
    values = np.append(diagonal, below)
    tail = values[rows >= live]
    assert np.count_nonzero(tail) > 100
    assert np.abs(tail).max() < 1e-30
    assert np.abs(tail[tail != 0]).min() < np.finfo(float).tiny
    got = lindblad._min_eigenvalue(dim, 1, rows, cols, values, lindblad._NEGLIGIBLE)
    assert eigvalsh_calls == [(live, live)]
    dense = np.diag(diagonal.astype(complex)) + np.diag(below, -1) + np.diag(below.conj(), 1)
    assert abs(got - np.linalg.eigvalsh(dense).min()) <= 1e-14


@pytest.fixture
def advance_calls(monkeypatch):
    """The (n0, n1) of every call to the propagator a run steps with."""
    calls = []
    for name in ("_staged_step", "_polynomial_step"):
        def spy(*args, make=getattr(lindblad, name)):
            advance = make(*args)

            def counted(n0, n1):
                calls.append((n0, n1))
                return advance(n0, n1)
            return counted
        monkeypatch.setattr(lindblad, name, spy)
    return calls


@pytest.fixture
def windows(monkeypatch):
    """The end of every window of live levels a run sets."""
    ends = []

    def spy(x, end=lindblad._window_end):
        ends.append(end(x))
        return ends[-1]
    monkeypatch.setattr(lindblad, "_window_end", spy)
    return ends


@pytest.mark.parametrize("model", [CONSTANT, SCALED, FEEDBACK],
                         ids=["constant", "scaled", "feedback"])
def test_sampling_does_not_perturb_stepping(model, advance_calls, windows):
    # one propagator call runs each interval between samples and checkpoints;
    # where the intervals fall must change no bit, in particular not which
    # step's rate scale SCALED reads at an interval's edges, nor where the
    # window of live levels of the Fock start grows; the thermal start reaches
    # the wall, where it takes the dense CONSTANT powers, the one-row SCALED
    # step on all levels or the FEEDBACK wall loop
    steps, set_windows = 257, []
    for rho0, dt in ((_pure_state({2: 1.0, 5: 1.0j}, 24), 1e-3), (number_state(10, 300), 3e-4),
                     (_fully_coherent(70, 5), 1e-3), (thermal_state(2.0, 48), 1e-3)):
        runs, ends = {}, {}
        for every in (1, 7, 30):
            advance_calls.clear()
            windows.clear()
            runs[every] = integrate(rho0, model, IntegratorConfig(dt=dt, t_end=steps * dt,
                                                                  record_every=every))
            ends[every] = windows.copy()
            events = sorted({*range(0, steps, every), *range(0, steps, 100), steps})
            assert advance_calls == list(zip(events, events[1:]))
        full = runs[1]
        for every, traj in runs.items():
            recorded = np.append(np.arange(0, steps, every), steps)
            assert np.array_equal(traj.populations, full.populations[recorded])
            assert np.array_equal(traj.purity, full.purity[recorded])
            assert np.array_equal(traj.min_eigenvalues, full.min_eigenvalues)
            assert np.array_equal(traj.final_state, full.final_state)
            assert ends[every] == ends[1]
            assert np.array_equal(traj.check_times,
                                  np.append(np.arange(0, steps, 100), steps) * dt)
        set_windows.append(ends[1])
    # the coherent starts step on all their levels (under FEEDBACK the staged
    # step, which sets no window), the 70 rows of the second in 3 blocks of
    # at most 29; the Fock start's window grew, and the thermal start's is
    # all its levels
    coherent, fock, rows, thermal = set_windows
    assert coherent == ([] if model is FEEDBACK else [24])
    assert rows == ([] if model is FEEDBACK else [70])
    assert len(fock) > 1 and fock[-1] < 300
    assert thermal == [48]


# --- the window of live levels ------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(law=st.sampled_from(list(RateLaw)), level=st.integers(0, 10),
       second=st.none() | st.integers(0, 10), dim=st.integers(100, 400),
       n_res=st.floats(0.5, 5.0), courant=st.floats(0.2, 1.0), steps=st.integers(1, 300))
# fronts that pass the first window's slack, so the window grows mid-run
@example(law=RateLaw.FEEDBACK, level=10, second=None, dim=300, n_res=0.5, courant=1.0,
         steps=300)
@example(law=RateLaw.SCALED, level=3, second=None, dim=400, n_res=5.0, courant=1.0, steps=300)
# a superposition, stepped on all its levels
@example(law=RateLaw.CONSTANT, level=0, second=7, dim=100, n_res=2.0, courant=1.0, steps=300)
def test_live_window_matches_rk4_on_all_levels(law, level, second, dim, n_res, courant,
                                               steps):
    # a Fock start steps on the window of its live levels, which grows as the
    # front of its mass moves up; a superposition of two levels steps on all
    # of them; both against RK4 on every level of the explicit generator
    model = RateModel(law=law, gamma=GAMMA, n_res=n_res)
    if second is not None and second != level:
        # the dense products cost dim^3 a stage
        dim, steps = min(dim, 120), min(steps, 6)
    dt = courant / (2 * dim * GAMMA * (1 + 2 * n_res))
    if law is RateLaw.FEEDBACK:
        dt = min(dt, 0.9 / (GAMMA * steps))   # the law holds for t < 1/gamma
    cfg = IntegratorConfig(dt=dt, t_end=steps * dt, record_every=steps)
    if second is None or second == level:
        p0 = number_state(level, dim).diagonal().real
        traj = evolve_populations(p0, model, cfg)
        expect = _staged_rk4_on_explicit_ladder(p0, model, dt, steps)
    else:
        rho0 = _pure_state({level: 1.0, second: 1.0j}, dim)
        traj = integrate(rho0, model, cfg)
        expect = _explicit_rk4(rho0, model, dt, steps).diagonal().real
    assert np.abs(traj.populations[-1] - expect).max() < 1e-12


def test_levels_past_the_window_stay_exactly_zero(windows):
    # 1000 steps from Fock 8 at dim 800: RK4 on all 800 levels would leave
    # 329 of them nonzero, 15 subnormal, far past the 44 live ones; the
    # window does not step them, so every level past it ends exactly 0
    p0 = number_state(8, 800).diagonal().real
    traj = evolve_populations(p0, CONSTANT, IntegratorConfig(dt=5e-5, t_end=0.05))
    p = traj.populations[-1]
    assert windows[-1] < 800
    assert not p[windows[-1]:].any()
    assert np.flatnonzero(p > lindblad._NEGLIGIBLE)[-1] < windows[-1] - 4 * lindblad._WINDOW_EVERY
    assert not np.any((p != 0) & (np.abs(p) < np.finfo(float).tiny))


# --- setup: the cached generator and the word tables ------------------------

@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 60), hi=st.integers(1, 60), g_down=st.floats(0.0, 5.0),
       g_up=st.floats(0.0, 5.0), dt=st.floats(1e-4, 1.0))
@example(dim=2, hi=2, g_down=0.0, g_up=0.0, dt=1.0)
# a window 4 levels short of the wall, and the whole chain
@example(dim=40, hi=36, g_down=1.0, g_up=2.0, dt=0.01)
@example(dim=40, hi=40, g_down=1.0, g_up=2.0, dt=0.01)
def test_word_sums_give_the_powers_of_the_population_generator(dim, hi, g_down, g_up, dt):
    # (dt A)^j for the k = 0 chain, written densely from the dissipator's
    # matrix elements, against the weighted word tables the step builds
    # from, on a window of its first hi levels (hi <= dim - 4) or on all of
    # them; and CONSTANT's one operator, its RK4 coefficients times them
    hi = dim if hi > dim - 4 else hi
    model = SimpleNamespace(rates=lambda t, n_sys: (g_down, g_up))
    step = np.zeros((dim, dim))
    for level in range(dim):
        step[:, level] = dt * lindblad_rhs(number_state(level, dim), 0.0, model).diagonal().real
    powers = lindblad._chain_powers(lindblad._band(dim, (0,)), hi, dt * g_down, dt * g_up)
    assert powers.shape == (5, 9, hi)
    coeffs = np.array([1.0, 1.0, 1.0 / 2.0, 1.0 / 6.0, 1.0 / 24.0])
    dense = [np.linalg.matrix_power(step, j) for j in range(5)]
    dense.append(np.tensordot(coeffs, dense, 1))
    powers = [*powers, np.dot(coeffs, powers.reshape(5, -1)).reshape(9, hi)]
    i = np.arange(dim)
    for m, got in zip(dense, powers):
        taps = np.zeros((9, dim))
        for d in range(9):
            inside = (i + d - 4 >= 0) & (i + d - 4 < dim)
            taps[d, inside] = m[i[inside], i[inside] + d - 4]
        # a rounding of a subnormal entry is absolute, far below the smallest normal
        bound = 1e-13 * np.abs(m).max() + np.finfo(float).tiny
        assert np.abs(got - taps[:, :hi]).max() <= bound


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(3, 39), k=st.integers(1, 5), g_down=st.floats(0.0, 5.0),
       g_up=st.floats(0.0, 5.0), dt=st.floats(1e-4, 1.0))
# a diagonal of one entry, and the largest step on the largest chain
@example(dim=6, k=5, g_down=1.0, g_up=2.0, dt=0.1)
@example(dim=39, k=1, g_down=5.0, g_up=5.0, dt=1.0)
def test_products_give_the_powers_of_a_coherence_generator(dim, k, g_down, g_up, dt):
    # (dt A)^j on the offset-k diagonal, written densely from the
    # dissipator's matrix elements, against the powers a state with
    # coherences builds its step from, on the rows of that diagonal
    k = min(k, dim - 1)
    n = dim - k
    model = SimpleNamespace(rates=lambda t, n_sys: (g_down, g_up))
    step = np.zeros((n, n))
    for level in range(n):
        rho = np.zeros((dim, dim), dtype=complex)
        rho[level + k, level] = 1.0
        step[:, level] = dt * lindblad_rhs(rho, 0.0, model).diagonal(-k).real
    band = lindblad._band(dim, (0, k))
    powers = lindblad._products(band.taps, [(dt * g_down, dt * g_up)])[:, :, 1]
    assert powers.shape == (5, 9, dim)
    i = np.arange(n)
    for j, got in enumerate(powers):
        m = np.linalg.matrix_power(step, j)
        taps = np.zeros((9, n))
        for d in range(9):
            inside = (i + d - 4 >= 0) & (i + d - 4 < n)
            taps[d, inside] = m[i[inside], i[inside] + d - 4]
        bound = 1e-13 * np.abs(m).max() + np.finfo(float).tiny
        assert np.abs(got[:, band.mask[1]] - taps).max() <= bound


@pytest.mark.parametrize("dim", [*range(1, 8), *range(13, 61), 800])
def test_chain_tables_give_the_band_powers_bit_for_bit(dim):
    # at integer rates every entry of a power is an integer, exact in both
    # builds: the table fitted at dim 13 and each band's wall words give the
    # one-factor-at-a-time powers of _products at every other dim, on all
    # levels (with the wall) and on every window hi <= dim - 4, and so the
    # same operators
    band = lindblad._band(dim, (0,))
    windows = {dim, *range(1, dim - 3)} if dim <= 60 else {dim, dim - 4, dim // 2, 1}
    for g_down, g_up in ((1.0, 2.0), (3.0, 1.0), (0.0, 5.0), (7.0, 0.0)):
        expect = lindblad._products(band.taps, [(g_down, g_up)])[:, :, 0]
        for hi in sorted(windows):
            assert np.array_equal(lindblad._chain_powers(band, hi, g_down, g_up),
                                  expect[..., :hi])


def _word_by_word(band, word):
    """The nine taps of the product of the factors of ``word`` on the k = 0
    chain of ``band``, D for 0 and U for 1, leftmost first, built from the
    identity one factor at a time, the last factor first."""
    (d_diag, d_up), (u_low, u_diag) = band.taps[:, :, 0]
    zero = np.zeros(band.dim)
    taps = np.zeros((9, band.dim))
    taps[4] = 1.0
    for factor in reversed(word):
        diag, up, down = (d_diag, d_up, zero) if factor == 0 else (u_diag, zero, u_low)
        product = diag * taps
        product[1:, :-1] += up[:-1] * taps[:-1, 1:]
        product[:-1, 1:] += down[1:] * taps[1:, :-1]
        taps = product
    return taps


@pytest.mark.parametrize("dim", [*range(1, 61), 800])
def test_word_tables_give_the_ordered_products_bit_for_bit(dim):
    # every entry of a product of D and U is an integer, exact in both
    # builds: the 31 ordered word tables, fitted at dim 13 and with each
    # band's wall words, give each word at every other dim, on all levels
    # (with the wall) and on every window hi <= dim - 4
    band = lindblad._band(dim, (0,))
    words = [[m >> (j - 1 - i) & 1 for i in range(j)] for j in range(5) for m in range(2 ** j)]
    expect = np.array([_word_by_word(band, word) for word in words])
    windows = {dim, *range(1, dim - 3)} if dim <= 60 else {dim, dim - 4, dim // 2, 1}
    for hi in sorted(windows):
        T, basis = lindblad._word_taps(band, hi)
        assert np.array_equal(np.dot(T, basis), expect[..., :hi])


@pytest.fixture
def build_calls(monkeypatch):
    """The law of every propagator a run builds."""
    calls = []
    for name in ("_staged_step", "_polynomial_step"):
        def spy(band, x0, model, *args, make=getattr(lindblad, name)):
            calls.append(model.law)
            return make(band, x0, model, *args)
        monkeypatch.setattr(lindblad, name, spy)
    return calls


@pytest.mark.parametrize("model", [CONSTANT, SCALED, FEEDBACK],
                         ids=["constant", "scaled", "feedback"])
def test_a_run_of_no_steps_builds_no_step_operator(model, build_calls):
    for t_end in (0.0, 0.01):
        integrate(number_state(3, 24), model, IntegratorConfig(dt=0.01, t_end=t_end))
        evolve_populations(thermal_state(1.0, 24).diagonal().real, model,
                           IntegratorConfig(dt=0.01, t_end=t_end))
    # only the two one-step runs built one
    assert build_calls == [model.law] * 2


def test_runs_share_the_cached_generator_and_nothing_else():
    # two runs at one dim read the same band and word tables; neither can
    # write to them, and the second leaves the first's results as they were
    dim = 40
    cfg = IntegratorConfig(dt=1e-3, t_end=0.05, record_every=10)
    first = integrate(number_state(5, dim), SCALED, cfg)
    populations = first.populations.copy()
    second = integrate(thermal_state(3.0, dim), SCALED, cfg)
    assert second._final[0] is first._final[0]
    assert np.array_equal(first.populations, populations)
    final_state = first.final_state.copy()
    # the same run again, on a band of its own
    lindblad._band.cache_clear()
    alone = integrate(number_state(5, dim), SCALED, cfg)
    assert alone._final[0] is not first._final[0]
    assert np.array_equal(alone.populations, populations)
    assert np.array_equal(alone.final_state, final_state)
    band = lindblad._band(dim, (0,))
    for cached in (band.offsets, band.mask, band.powers, band.levels, band.taps, *band.lower,
                   lindblad._WORDS_FREE, band.top, *lindblad._word_taps(band, dim)):
        with pytest.raises(ValueError, match="read-only"):
            cached[...] = 0
