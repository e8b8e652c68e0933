"""Log-distance path-loss model: RSSI generation and distance inversion.

All randomness is injected by the caller (a single seeded generator lives in
the experiment harness), so both functions here are deterministic. Both take
a float or an array (one value per edge) and give the same bits either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .geometry import libm


@dataclass(frozen=True)
class PathLossModel:
    """Parameters of the log-distance path-loss channel.

    rssi_d0: received strength (dBm) at the reference distance d0.
    n_exp:   path loss exponent of the environment.
    sigma:   standard deviation (dB) of the Gaussian shadowing term.
    """

    rssi_d0: float = -40.0
    d0: float = 1.0
    n_exp: float = 2.0
    sigma: float = 0.0

    def __post_init__(self):
        if self.d0 <= 0:
            raise ValueError("d0 must be positive")
        if self.n_exp <= 0:
            raise ValueError("path loss exponent must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")


def _elementwise(fn, x):
    return libm(fn, x) if isinstance(x, np.ndarray) else fn(x)


def rssi_at(model: PathLossModel, d, noise_draw=0.0):
    """Received strength (dBm) at distance d, plus a caller-drawn noise term."""
    if np.any(np.less_equal(d, 0)):
        raise ValueError(f"distance must be positive, got {np.min(d)}")
    return (
        model.rssi_d0
        - 10.0 * model.n_exp * _elementwise(math.log10, d / model.d0)
        + noise_draw
    )


def estimate_distance(model: PathLossModel, rssi):
    """Invert the path-loss model: distance (m) implied by a received strength."""
    exponent = (model.rssi_d0 - rssi) / (10.0 * model.n_exp)
    return model.d0 * _elementwise(partial(pow, 10.0), exponent)
