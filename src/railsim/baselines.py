"""Comparison algorithms: Min-Max and RSSI-based DV-hop.

Min-Max is range-free (BFS hop counts times the communication range);
the DV-hop variant here feeds accumulated RSSI multi-hop distances straight
into a linearized trilateration solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Point

DET_TOL = 1e-9


@dataclass(frozen=True)
class BaselineEstimate:
    position: Point
    degenerate: bool = False


def min_max_all(ax: np.ndarray, ay: np.ndarray, hops: np.ndarray, comm_range: float):
    """Min-Max for many targets: the center of the intersection of the
    per-anchor squares of half-width hops * comm_range. Anchor coordinates
    are (k,) and hop counts (k, m), or (k, B) and (k, B, m) for B runs of
    m targets each. Returns the estimates (x, y) and the inverted flags,
    each (m,) or (B, m).

    The (max-of-mins, min-of-maxes) rectangle is centered even when it is
    inverted; the flag records that situation.
    """
    reach = hops * comm_range
    ax, ay = ax[..., None], ay[..., None]
    x_min = (ax - reach).max(axis=0)
    x_max = (ax + reach).min(axis=0)
    y_min = (ay - reach).max(axis=0)
    y_max = (ay + reach).min(axis=0)
    inverted = (x_min > x_max) | (y_min > y_max)
    return (x_min + x_max) / 2.0, (y_min + y_max) / 2.0, inverted


def rssi_dv_hop_all(ax: np.ndarray, ay: np.ndarray, chosen: np.ndarray, d: np.ndarray):
    """``rssi_dv_hop`` for many targets: anchor coordinates (k,), the three
    anchors (indices into them) of each target and their distances, both
    (3, m). Returns the estimates (x, y) and the degenerate flags, each (m,).
    """
    # squares by Python's float power (the C library pow), as the scalar
    # solve took them
    ax2 = np.array([x**2 for x in ax.tolist()])
    ay2 = np.array([y**2 for y in ay.tolist()])
    (p1x, p2x, p3x), (p1y, p2y, p3y) = ax[chosen], ay[chosen]
    (s1x, s2x, s3x), (s1y, s2y, s3y) = ax2[chosen], ay2[chosen]
    d1, d2, d3 = d

    a11 = 2.0 * (p1x - p3x)
    a12 = 2.0 * (p1y - p3y)
    a21 = 2.0 * (p2x - p3x)
    a22 = 2.0 * (p2y - p3y)
    b1 = (d3 * d3 - d1 * d1) + (s1x - s3x) + (s1y - s3y)
    b2 = (d3 * d3 - d2 * d2) + (s2x - s3x) + (s2y - s3y)

    det = a11 * a22 - a12 * a21
    degenerate = np.abs(det) < DET_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        x = (b1 * a22 - b2 * a12) / det
        y = (a11 * b2 - a21 * b1) / det
    x = np.where(degenerate, (p1x + p2x + p3x) / 3.0, x)
    y = np.where(degenerate, (p1y + p2y + p3y) / 3.0, y)
    return x, y, degenerate


def rssi_dv_hop(anchors: Sequence[tuple[Point, float]]) -> BaselineEstimate:
    """Trilateration from three accumulated multi-hop RSSI distances.

    The three circle equations are linearized by subtracting the third;
    the resulting 2x2 system is the exact least-squares solution. Collinear
    anchors fall back to the mean of the anchor positions.
    """
    if len(anchors) != 3:
        raise ValueError("exactly three anchors required")
    ax = np.array([p.x for p, _ in anchors], dtype=float)
    ay = np.array([p.y for p, _ in anchors], dtype=float)
    d = np.array([[dist] for _, dist in anchors], dtype=float)
    x, y, degenerate = rssi_dv_hop_all(ax, ay, np.array([[0], [1], [2]]), d)
    return BaselineEstimate(Point(float(x[0]), float(y[0])), degenerate=bool(degenerate[0]))
