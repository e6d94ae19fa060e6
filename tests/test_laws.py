import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qcooling import (CoolingParams, LawKind, evaluate_law,
                      half_thermalization_time, time_to_value)

FIG_PARAMS = CoolingParams(x0=2000.0, x_res=200.0, gamma=1.0)
ALL_KINDS = (LawKind.NEWTON, LawKind.MARKOV, LawKind.MODIFIED)


def test_initial_condition():
    for kind in ALL_KINDS:
        assert evaluate_law(kind, FIG_PARAMS, 0.0) == pytest.approx(2000.0)


def test_newton_reaches_800_at_ln3():
    assert evaluate_law(LawKind.NEWTON, FIG_PARAMS, math.log(3.0)) == pytest.approx(800.0, abs=1e-9)


def test_modified_vs_markov_unit_case():
    params = CoolingParams(x0=1.0, x_res=0.0, gamma=1.0)
    assert evaluate_law(LawKind.MODIFIED, params, 1.0) == pytest.approx(0.223130160, abs=1e-9)
    assert evaluate_law(LawKind.MARKOV, params, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)


@pytest.mark.parametrize("x0, x_res", [(math.inf, 200.0), (math.nan, 200.0), (2000.0, -math.inf)])
def test_params_reject_non_finite_values(x0, x_res):
    with pytest.raises(ValueError, match="x0 and x_res must be finite"):
        CoolingParams(x0=x0, x_res=x_res, gamma=1.0)


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        evaluate_law(LawKind.NEWTON, FIG_PARAMS, -0.1)


def test_rate_matches_numerical_derivative():
    # central difference of the trajectory vs its rate law:
    # -gamma (x - x_res), times (1 + gamma t) for the modified law
    h = 1e-6
    for params in (FIG_PARAMS, CoolingParams(x0=1.0, x_res=4.0, gamma=2.0)):
        h_g = h / params.gamma
        tol = 1e-6 * params.gamma * abs(params.x0 - params.x_res)
        for kind in ALL_KINDS:
            for t in np.linspace(h_g, 5.0 / params.gamma, 40):
                num = (evaluate_law(kind, params, t + h_g)
                       - evaluate_law(kind, params, t - h_g)) / (2 * h_g)
                rate = -params.gamma * (evaluate_law(kind, params, t) - params.x_res)
                if kind is LawKind.MODIFIED:
                    rate *= 1.0 + params.gamma * t
                assert abs(num - rate) < tol


def test_half_time_values():
    assert half_thermalization_time(LawKind.NEWTON, 1.0) == pytest.approx(0.693147181, abs=1e-9)
    assert half_thermalization_time(LawKind.MODIFIED, 1.0) == pytest.approx(0.544763529, abs=1e-9)
    assert half_thermalization_time(LawKind.NEWTON, 2.0) == pytest.approx(0.346573590, abs=1e-9)
    assert half_thermalization_time(LawKind.MARKOV, 1.0) == half_thermalization_time(LawKind.NEWTON, 1.0)


def test_half_time_independent_of_endpoints():
    for kind in (LawKind.NEWTON, LawKind.MODIFIED):
        t_half = half_thermalization_time(kind, 1.3)
        for x0, x_res in ((2000.0, 200.0), (5.0, 1.0), (1.0, 9.0)):
            params = CoolingParams(x0=x0, x_res=x_res, gamma=1.3)
            midpoint = 0.5 * (x0 + x_res)
            assert time_to_value(kind, params, midpoint) == pytest.approx(t_half, rel=1e-12)


@pytest.mark.parametrize("kind", ["modified", 2])
@pytest.mark.parametrize("call", [
    lambda kind: evaluate_law(kind, CoolingParams(x0=8.0, x_res=2.0, gamma=1.0), 1.0),
    lambda kind: half_thermalization_time(kind, 1.0),
    lambda kind: time_to_value(kind, FIG_PARAMS, 800.0)],
    ids=["evaluate_law", "half_thermalization_time", "time_to_value"])
def test_a_kind_that_is_not_a_law_kind_is_rejected(call, kind):
    # "modified" is the value of a member, not the member, so every identity
    # test against the members fails on it: it used to run the exponential law
    with pytest.raises(ValueError, match=f"kind must be a LawKind member, got {kind!r}"):
        call(kind)


def test_cooling_time_2000_to_800():
    t_newton = time_to_value(LawKind.NEWTON, FIG_PARAMS, 800.0)
    t_modified = time_to_value(LawKind.MODIFIED, FIG_PARAMS, 800.0)
    assert t_newton == pytest.approx(1.098612289, abs=1e-9)
    assert t_modified == pytest.approx(0.788078460, abs=1e-9)
    assert t_modified / t_newton == pytest.approx(0.717339927, abs=1e-9)


def test_time_to_value_domain():
    for bad in (200.0, 2000.0, 100.0, 2500.0):
        with pytest.raises(ValueError):
            time_to_value(LawKind.NEWTON, FIG_PARAMS, bad)


@given(st.sampled_from(ALL_KINDS),
       st.floats(min_value=0.01, max_value=0.99))
def test_time_to_value_round_trip(kind, frac):
    params = CoolingParams(x0=2000.0, x_res=200.0, gamma=0.7)
    target = params.x_res + frac * (params.x0 - params.x_res)
    t_hit = time_to_value(kind, params, target)
    assert evaluate_law(kind, params, t_hit) == pytest.approx(target, rel=1e-10)


def test_round_trip_heating_direction():
    params = CoolingParams(x0=1.0, x_res=7.0, gamma=1.0)
    target = 4.0
    t_hit = time_to_value(LawKind.MODIFIED, params, target)
    assert t_hit > 0
    assert evaluate_law(LawKind.MODIFIED, params, t_hit) == pytest.approx(target, rel=1e-10)


def test_modified_below_newton_pointwise():
    ts = np.linspace(1e-6, 3.0, 400)
    newton = evaluate_law(LawKind.NEWTON, FIG_PARAMS, ts)
    modified = evaluate_law(LawKind.MODIFIED, FIG_PARAMS, ts)
    assert np.all(modified < newton)


def test_modified_markov_gap_bound():
    # |modified - markov| / |x0 - x_res| < (g t)^2 e^{-g t} on t > 0
    params = CoolingParams(x0=8.0, x_res=2.0, gamma=1.0)
    ts = np.linspace(0.01, 5.0, 200)
    gap = np.abs(evaluate_law(LawKind.MODIFIED, params, ts)
                 - evaluate_law(LawKind.MARKOV, params, ts)) / 6.0
    assert np.all(gap < ts**2 * np.exp(-ts))
