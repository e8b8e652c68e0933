"""Log-distance path-loss model: RSSI generation and distance inversion.

The channel is fixed at -40 dBm at 1 m with path loss exponent 2; only the
shadowing sigma varies. All randomness is injected by the caller (a single
seeded generator lives in the experiment harness), so both functions here
are deterministic. Both take a float or an array (one value per edge) and
map the C library's ``log10`` and ``pow`` over it with ``geometry.libm``, so
a value gives the same bits either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import _finite, _require, libm

# received strength (dBm) at the reference distance D0 (m)
RSSI_D0 = -40.0
D0 = 1.0
# path loss exponent of the environment
N_EXP = 2.0
# the largest accepted shadowing sigma (dB). Far above any measured channel,
# and far below the thousands of dB at which a draw overflows the path-loss
# inverse's 10 ** exponent
SIGMA_MAX_DB = 100.0


@dataclass(frozen=True)
class PathLossModel:
    """The channel's shadowing: sigma is the standard deviation (dB) of the
    Gaussian term added to each edge's RSSI, a real number in [0,
    SIGMA_MAX_DB], not a bool."""

    sigma: float = 0.0

    def __post_init__(self):
        # a non-finite sigma gives zero and NaN edge weights, on which the
        # shortest-path tie resolution never settles
        _require("sigma", self.sigma, _finite(self.sigma) and 0 <= self.sigma <= SIGMA_MAX_DB,
                 f"a number in [0, {SIGMA_MAX_DB:g}] dB")


def _refuse(name: str, values, ok, rule: str):
    """Raise ValueError naming the first of ``values``, flattened, that fails ``ok``."""
    _require(name, next(v for v in np.ravel(values).tolist() if not ok(v)), False, rule)


def _all_positive(a) -> bool:
    """Whether every value of a is finite and > 0, by two reductions, with
    no mask as long as a (NaN fails the first)."""
    return np.min(a, initial=math.inf) > 0 and np.max(a, initial=0.0) < math.inf


def rssi_at(d, noise_draw=0.0):
    """Received strength (dBm) at distance d (m), plus a caller-drawn noise
    term; ValueError unless every distance is finite and > 0."""
    if not _all_positive(d):
        _refuse("distance", d, _all_positive, "finite and > 0")
    return RSSI_D0 - 10.0 * N_EXP * libm(math.log10, d / D0) + noise_draw


def _distance(rssi):
    return D0 * libm(math.pow, 10.0, (RSSI_D0 - rssi) / (10.0 * N_EXP))


def _gives_distance(rssi) -> bool:
    try:
        return _all_positive(_distance(rssi))  # NaN, -inf and inf give NaN, inf and 0
    except OverflowError:
        return False


def estimate_distance(rssi):
    """Invert the path-loss model: distance (m) implied by a received
    strength; ValueError for an RSSI that is not finite or whose distance
    is not finite and > 0 (``pow`` overflows below about -6200 dBm and
    gives 0 above about 6400 dBm)."""
    try:
        d = _distance(rssi)
    except OverflowError:
        d = math.inf
    if not _all_positive(d):
        _refuse("rssi", rssi, _gives_distance, "finite with a distance finite and > 0")
    return d
