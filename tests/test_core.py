import math

import pytest
from hypothesis import given, strategies as st

from qcooling import PhysicalScales, high_temp_occupation, occupation_from_temperature

UNIT = PhysicalScales(theta0=1.0)


def test_scales_validation():
    for bad in (0.0, -2.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            PhysicalScales(theta0=bad)


def test_occupation_identity_point():
    # exp(ln 2) - 1 = 1
    assert occupation_from_temperature(1.0 / math.log(2.0), UNIT) == pytest.approx(1.0, abs=1e-12)


def test_occupation_reference_values():
    # frozen from series 1/x - 1/2 + x/12 - x^3/720 at x = theta0/T
    assert occupation_from_temperature(200.0, UNIT) == pytest.approx(199.500416666, abs=1e-6)
    n_hot = occupation_from_temperature(2000.0, UNIT)
    assert n_hot == pytest.approx(1999.500041667, abs=1e-6)
    # classical limit is good to 0.03% here
    assert abs(n_hot - 2000.0) / n_hot < 3e-4


def test_occupation_domain_errors():
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            occupation_from_temperature(bad, UNIT)


@given(st.floats(min_value=0.01, max_value=1e4),
       st.sampled_from([0.5, 1.0, 3.7]))
def test_round_trip(temperature, theta0):
    scales = PhysicalScales(theta0=theta0)
    t_in = temperature * theta0
    # the inverse map, T = theta0 / ln(1 + 1/n)
    back = theta0 / math.log1p(1.0 / occupation_from_temperature(t_in, scales))
    assert back == pytest.approx(t_in, rel=1e-12)


def test_monotonicity():
    temps = [0.05 * 1.5**k for k in range(30)]
    occs = [occupation_from_temperature(t, UNIT) for t in temps]
    assert all(a < b for a, b in zip(occs, occs[1:]))


def test_high_temp_limit():
    two = PhysicalScales(theta0=2.0)
    assert high_temp_occupation(2.0, two) == pytest.approx(1.0)
    assert high_temp_occupation(2000.0, UNIT) == pytest.approx(2000.0)
    # frozen: 10*(e^0.1 - 1) - 1
    dev10 = (high_temp_occupation(10.0, UNIT)
             / occupation_from_temperature(10.0, UNIT)) - 1.0
    assert dev10 == pytest.approx(0.051709181, abs=1e-8)
    # the relative gap crosses 1% just above T = 50*theta0 (1.0067% there)
    dev50 = (high_temp_occupation(50.0, UNIT)
             / occupation_from_temperature(50.0, UNIT)) - 1.0
    assert dev50 == pytest.approx(0.010067001, abs=1e-8)
    for temperature in (51.0, 100.0, 1e3, 1e4):
        dev = (high_temp_occupation(temperature, UNIT)
               / occupation_from_temperature(temperature, UNIT)) - 1.0
        assert 0.0 < dev < 0.01
