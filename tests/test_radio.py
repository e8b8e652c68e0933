import math

import pytest
from hypothesis import given, strategies as st

from railsim.radio import PathLossModel, estimate_distance, rssi_at

MODEL = PathLossModel(rssi_d0=-40.0, d0=1.0, n_exp=2.0, sigma=0.0)


def test_model_validation():
    with pytest.raises(ValueError):
        PathLossModel(d0=0.0)
    with pytest.raises(ValueError):
        PathLossModel(n_exp=-1.0)
    with pytest.raises(ValueError):
        PathLossModel(sigma=-0.1)
    for bad in ({"sigma": math.inf}, {"sigma": math.nan}, {"rssi_d0": -math.inf},
                {"d0": math.inf}, {"n_exp": math.nan}):
        with pytest.raises(ValueError):
            PathLossModel(**bad)


def test_rssi_at_reference():
    assert rssi_at(MODEL, 1.0) == pytest.approx(-40.0)


def test_rssi_decades():
    assert rssi_at(MODEL, 10.0) == pytest.approx(-60.0)
    assert rssi_at(MODEL, 100.0) == pytest.approx(-80.0)


def test_rssi_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        rssi_at(MODEL, 0.0)
    with pytest.raises(ValueError):
        rssi_at(MODEL, -3.0)


def test_noise_is_additive():
    assert rssi_at(MODEL, 10.0, noise_draw=2.5) == pytest.approx(-57.5)


def test_estimate_distance_known_values():
    assert estimate_distance(MODEL, -40.0) == pytest.approx(1.0)
    assert estimate_distance(MODEL, -60.0) == pytest.approx(10.0)
    # 10^(30/20) = 31.6227766...
    assert estimate_distance(MODEL, -70.0) == pytest.approx(31.6227766017, rel=1e-9)


@given(st.floats(min_value=0.1, max_value=100.0))
def test_round_trip(d):
    assert estimate_distance(MODEL, rssi_at(MODEL, d)) == pytest.approx(d, rel=1e-9)


@given(st.floats(min_value=0.1, max_value=99.0), st.floats(min_value=1e-6, max_value=1.0))
def test_rssi_strictly_decreasing_in_distance(d, delta):
    assert rssi_at(MODEL, d + delta) < rssi_at(MODEL, d)


@given(st.floats(min_value=-90.0, max_value=-41.0), st.floats(min_value=1e-6, max_value=1.0))
def test_estimate_strictly_decreasing_in_rssi(rssi, delta):
    assert estimate_distance(MODEL, rssi + delta) < estimate_distance(MODEL, rssi)
