"""Log-distance path-loss model: RSSI generation and distance inversion.

All randomness is injected by the caller (a single seeded generator lives in
the experiment harness), so both functions here are deterministic. Both take
a float or an array (one value per edge) and map the C library's ``log10``
and ``pow`` over it with ``geometry.libm``, so a value gives the same bits
either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        # a non-finite sigma gives zero and NaN edge weights, on which the
        # shortest-path tie resolution never settles
        params = (self.rssi_d0, self.d0, self.n_exp, self.sigma)
        if not all(math.isfinite(v) for v in params):
            raise ValueError(f"path-loss parameters must be finite, got {params}")
        if self.d0 <= 0:
            raise ValueError("d0 must be positive")
        if self.n_exp <= 0:
            raise ValueError("path loss exponent must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")


def rssi_at(model: PathLossModel, d, noise_draw=0.0):
    """Received strength (dBm) at distance d, plus a caller-drawn noise term."""
    if np.any(np.less_equal(d, 0)):
        raise ValueError(f"distance must be positive, got {np.min(d)}")
    return (
        model.rssi_d0
        - 10.0 * model.n_exp * libm(math.log10, d / model.d0)
        + noise_draw
    )


def estimate_distance(model: PathLossModel, rssi):
    """Invert the path-loss model: distance (m) implied by a received strength."""
    exponent = (model.rssi_d0 - rssi) / (10.0 * model.n_exp)
    return model.d0 * libm(math.pow, 10.0, exponent)
