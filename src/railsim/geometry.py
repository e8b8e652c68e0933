"""Exact 2D primitives: points, axis-aligned boxes and directed rays, plus
the elementwise helpers the array passes use to reproduce scalar float
arithmetic bit for bit.

Everything here is pure value arithmetic; an empty box intersection is
represented by ``None`` rather than an exception because noisy ranging can
legitimately produce one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

DEFAULT_TOL = 1e-9


def libm(fn: Callable[..., float], *arrays: np.ndarray) -> np.ndarray:
    """``fn``, a scalar ``math`` function, applied elementwise to equal-length
    1-D arrays.

    numpy's SIMD acos, log10, hypot and power can differ from the C
    library's in the last bit on some CPUs, while the scalar code calls the
    C library; mapping it keeps array and scalar results identical.
    """
    return np.fromiter(map(fn, *(a.tolist() for a in arrays)), float, len(arrays[0]))


def first_max(first, *rest) -> np.ndarray:
    """Elementwise builtin ``max(first, *rest)``: among equal values (0.0
    and -0.0) the earliest argument wins, as in the scalar code."""
    out = first
    for x in rest:
        out = np.where(x > out, x, out)
    return out


def first_min(first, *rest) -> np.ndarray:
    """Elementwise builtin ``min(first, *rest)``; see ``first_max``."""
    out = first
    for x in rest:
        out = np.where(x < out, x, out)
    return out


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite point ({self.x}, {self.y})")


@dataclass(frozen=True)
class AABox:
    """Axis-aligned box [x_min, x_max] x [y_min, y_max]."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise ValueError(f"inverted box {self}")


@dataclass(frozen=True)
class Ray:
    """Directed ray from ``origin`` along the unit vector (dx, dy)."""

    origin: Point
    dx: float
    dy: float

    def __post_init__(self):
        norm2 = self.dx * self.dx + self.dy * self.dy
        if abs(norm2 - 1.0) > 1e-9:
            raise ValueError(f"direction ({self.dx}, {self.dy}) is not unit length")


def make_ray(origin: Point, dx: float, dy: float) -> Ray:
    """Build a ray, normalizing the direction vector."""
    norm = math.hypot(dx, dy)
    if norm == 0.0:
        raise ValueError("zero direction vector")
    return Ray(origin, dx / norm, dy / norm)


def intersect_boxes(boxes: Sequence[AABox]) -> Optional[AABox]:
    """Component-wise intersection of boxes; None when the result is empty."""
    if not boxes:
        raise ValueError("empty box list")
    x_min = max(b.x_min for b in boxes)
    x_max = min(b.x_max for b in boxes)
    y_min = max(b.y_min for b in boxes)
    y_max = min(b.y_max for b in boxes)
    if x_min > x_max or y_min > y_max:
        return None
    return AABox(x_min, x_max, y_min, y_max)


def ray_pair_intersection(r1: Ray, r2: Ray, tol: float = DEFAULT_TOL) -> Optional[Point]:
    """Forward intersection of two rays, or None.

    Solves origin1 + t1*d1 = origin2 + t2*d2 and accepts the solution only
    when both parameters are >= -tol and the rays are not (near) parallel.
    """
    det = r1.dx * r2.dy - r1.dy * r2.dx
    if abs(det) <= tol:
        return None
    ox = r2.origin.x - r1.origin.x
    oy = r2.origin.y - r1.origin.y
    t1 = (ox * r2.dy - oy * r2.dx) / det
    t2 = (ox * r1.dy - oy * r1.dx) / det
    if t1 < -tol or t2 < -tol:
        return None
    return Point(r1.origin.x + t1 * r1.dx, r1.origin.y + t1 * r1.dy)


def contains(box: AABox, p: Point, tol: float = DEFAULT_TOL) -> bool:
    """Inclusive containment with tolerance on each face."""
    return (
        box.x_min - tol <= p.x <= box.x_max + tol
        and box.y_min - tol <= p.y <= box.y_max + tol
    )


def box_distance(box: AABox, p: Point) -> float:
    """Euclidean distance from p to the box (0 inside or on)."""
    dx = max(box.x_min - p.x, 0.0, p.x - box.x_max)
    dy = max(box.y_min - p.y, 0.0, p.y - box.y_max)
    return math.hypot(dx, dy)


def project_onto_box(box: AABox, p: Point) -> Point:
    """Closest point on the box boundary to an outside point p."""
    strictly_inside = box.x_min < p.x < box.x_max and box.y_min < p.y < box.y_max
    if strictly_inside:
        raise ValueError(f"{p} is strictly inside {box}")
    x = min(max(p.x, box.x_min), box.x_max)
    y = min(max(p.y, box.y_min), box.y_max)
    return Point(x, y)


def box_center(box: AABox) -> Point:
    if box is None:
        raise ValueError("cannot take the center of an empty box")
    return Point((box.x_min + box.x_max) / 2.0, (box.y_min + box.y_max) / 2.0)


def centroid(points: Iterable[Point]) -> Point:
    pts = list(points)
    if not pts:
        raise ValueError("centroid of empty point list")
    return Point(
        sum(p.x for p in pts) / len(pts),
        sum(p.y for p in pts) / len(pts),
    )


def distance(a: Point, b: Point) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)
