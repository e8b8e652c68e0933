import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from railsim import radio
from railsim.radio import PathLossModel, estimate_distance, rssi_at


def test_model_validation():
    # a real number in [0, SIGMA_MAX_DB], not a bool: 5000 dB overflowed
    # estimate_distance's pow in build_graph, and True was read as 1 dB;
    # 10**400, too large for a float, raised OverflowError in math.isfinite
    for bad in (-0.1, math.inf, math.nan, True, "4", None, 100.5, 5000,
                math.nextafter(radio.SIGMA_MAX_DB, math.inf), 10**400):
        with pytest.raises(ValueError, match=re.escape(
                f"sigma must be a number in [0, 100] dB, got {bad!r}") + "$"):
            PathLossModel(sigma=bad)
    for good in (0, 0.0, 4, np.float64(4.0), radio.SIGMA_MAX_DB):
        assert PathLossModel(sigma=good).sigma == good


def test_rssi_at_reference():
    assert rssi_at(1.0) == pytest.approx(-40.0)


def test_rssi_decades():
    assert rssi_at(10.0) == pytest.approx(-60.0)
    assert rssi_at(100.0) == pytest.approx(-80.0)


def test_rssi_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        rssi_at(0.0)
    with pytest.raises(ValueError):
        rssi_at(-3.0)


@pytest.mark.parametrize("d, bad", [
    (math.nan, math.nan), (math.inf, math.inf), (-math.inf, -math.inf), (0.0, 0.0),
    (np.array([1.0, math.nan, 0.0]), math.nan), (np.array([[2.0, 1.0], [-1.0, math.inf]]), -1.0),
])
def test_rssi_names_first_bad_distance(d, bad):
    # NaN and inf gave a NaN and a -inf strength
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(
                f"distance must be finite and > 0, got {bad!r}") + "$"):
            rssi_at(d)


@pytest.mark.parametrize("rssi, bad", [
    # -1e6 dBm raised OverflowError from pow; NaN gave NaN, -inf gave inf,
    # and inf and 1e4 dBm a zero distance
    (-1e6, -1e6), (math.nan, math.nan), (-math.inf, -math.inf), (math.inf, math.inf),
    (1e4, 1e4), (np.array([-50.0, 1e4, -1e6]), 1e4), (np.array([-50.0, -1e6, 1e4]), -1e6),
    (np.array([-40.0, math.nan]), math.nan),
])
def test_estimate_names_first_bad_rssi(rssi, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(
                f"rssi must be finite with a distance finite and > 0, got {bad!r}") + "$"):
            estimate_distance(rssi)


def test_extreme_finite_strengths_accepted():
    # far outside any channel, yet their distances are finite and > 0
    assert 0 < estimate_distance(6000.0) < estimate_distance(-6000.0) < math.inf
    assert rssi_at(np.array([1e-300, 1e300])).tolist() == [5960.0, -6040.0]
    # a graph with no link at all
    assert rssi_at(np.array([])).size == estimate_distance(np.array([])).size == 0


def test_noise_is_additive():
    assert rssi_at(10.0, noise_draw=2.5) == pytest.approx(-57.5)


def test_estimate_distance_known_values():
    assert estimate_distance(-40.0) == pytest.approx(1.0)
    assert estimate_distance(-60.0) == pytest.approx(10.0)
    # 10^(30/20) = 31.6227766...
    assert estimate_distance(-70.0) == pytest.approx(31.6227766017, rel=1e-9)


@given(st.floats(min_value=0.1, max_value=100.0))
def test_round_trip(d):
    assert estimate_distance(rssi_at(d)) == pytest.approx(d, rel=1e-9)


@given(st.floats(min_value=0.1, max_value=99.0), st.floats(min_value=1e-6, max_value=1.0))
def test_rssi_strictly_decreasing_in_distance(d, delta):
    assert rssi_at(d + delta) < rssi_at(d)


@given(st.floats(min_value=-90.0, max_value=-41.0), st.floats(min_value=1e-6, max_value=1.0))
def test_estimate_strictly_decreasing_in_rssi(rssi, delta):
    assert estimate_distance(rssi + delta) < estimate_distance(rssi)
