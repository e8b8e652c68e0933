"""RSSI-based 2D sensor-network localization.

Implements the RAIL algorithm (bounding box + per-hop error correction +
angle inference + ray-intersection decision rules) alongside Min-Max and
RSSI-based DV-hop baselines, plus a seeded Monte Carlo experiment harness.
"""

from .geometry import Point
from .network import Deployment, NetworkGraph, RangingResult
from .radio import PathLossModel

__all__ = [
    "Point",
    "Deployment",
    "NetworkGraph",
    "RangingResult",
    "PathLossModel",
]

__version__ = "0.1.0"
