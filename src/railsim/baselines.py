"""Comparison algorithms: Min-Max and RSSI-based DV-hop.

Min-Max is range-free: the center of RAIL's box of anchor squares
(``square_box``) with BFS hop counts times the communication range in place
of shortest distances; the DV-hop variant feeds accumulated RSSI multi-hop
distances straight into a linearized trilateration solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Point, _finite, _require, libm, square_box

DET_TOL = 1e-9


@dataclass(frozen=True)
class BaselineEstimate:
    position: Point
    degenerate: bool = False


def min_max_all(ax: np.ndarray, ay: np.ndarray, hops: np.ndarray, comm_range: float):
    """Min-Max for many targets: the center of ``square_box``, the
    intersection of the per-anchor squares of half-width hops * comm_range.
    Anchor coordinates are (k,) and hop counts (k, m), or (k, B) and
    (k, B, m) for B runs of m targets each. Returns the estimates (x, y) and
    the inverted flags, each (m,) or (B, m).

    The rectangle is centered even when it is inverted; the flag records
    that situation.
    """
    (x_min, x_max, y_min, y_max), inverted = square_box(ax[..., None], ay[..., None],
                                                        hops * comm_range)
    return (x_min + x_max) / 2.0, (y_min + y_max) / 2.0, inverted


def rssi_dv_hop_all(ax: np.ndarray, ay: np.ndarray, chosen: np.ndarray, d: np.ndarray):
    """``rssi_dv_hop`` for many targets: anchor coordinates (k,) and the three
    anchors (indices into them) of each target and their distances (3, m),
    or (k, B) and (3, B, m) for B runs of m targets each, as ``min_max_all``
    takes them. Returns the estimates (x, y) and the degenerate flags, each
    (m,) or (B, m).
    """
    # the chosen anchors' coordinates and their squares, squared by the C
    # library's pow as the scalar solve's x**2 took them
    (p1x, p2x, p3x), (p1y, p2y, p3y), (s1x, s2x, s3x), (s1y, s2y, s3y) = (
        np.take_along_axis(a[..., None], chosen, axis=0)
        for a in (ax, ay, libm(math.pow, ax, 2.0), libm(math.pow, ay, 2.0)))
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
    anchors fall back to the mean of the anchor positions. ValueError
    unless each distance is a finite real number.
    """
    if len(anchors) != 3:
        raise ValueError("exactly three anchors required")
    for _, dist in anchors:
        _require("distance", dist, _finite(dist), "a finite real number")
    ax = np.array([p.x for p, _ in anchors], dtype=float)
    ay = np.array([p.y for p, _ in anchors], dtype=float)
    d = np.array([[dist] for _, dist in anchors], dtype=float)
    x, y, degenerate = rssi_dv_hop_all(ax, ay, np.array([[0], [1], [2]]), d)
    return BaselineEstimate(Point(float(x[0]), float(y[0])), degenerate=bool(degenerate[0]))
