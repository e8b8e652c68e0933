"""Exact 2D primitives: points and their distance, the tolerance of the
location rule's comparisons, ``square_box``, the intersection of
axis-aligned squares that gives Min-Max its estimate and RAIL its box,
and ``libm``, the array map that keeps the array passes bit-identical to
scalar float arithmetic: it maps a scalar ``math`` function (``hypot``
for every distance, ``log10``, ``pow``, ``acos``, ``cos``, ``sin``) over
arrays one element at a time. The input rules every module applies
(``_whole``, ``_finite``, ``_floats``, ``_require``) live here too, as
this module imports nothing from railsim; a number too large for a float
is read as infinite (``_float``), so no rule ends in OverflowError.

The scalar boxes, rays and location rule that RAIL's array passes are
checked against live in ``tests/oracle.py``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Callable

import numpy as np

DEFAULT_TOL = 1e-9
# the largest area side and range a deployment accepts, and the largest
# anchor coordinate and distance ``rssi_dv_hop`` accepts in magnitude: at
# 1e103 its products b1 * a22 overflow, at 1e102 they do not
MAGNITUDE_MAX = 1e100


def _whole(x, low: int) -> bool:
    """Whether x is an integer, not a bool, >= low."""
    return isinstance(x, Integral) and not isinstance(x, bool) and x >= low


def _float(x) -> float:
    """float(x), or an infinity of x's sign where x is too large for a float
    (an integer of 309+ digits, on which ``float`` raises OverflowError)."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _floats(values) -> np.ndarray:
    """``values`` as a new float array, each number read by ``_float``."""
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        return np.vectorize(_float, otypes=[float])(np.array(values, dtype=object))


def _finite(x) -> bool:
    """Whether x is a real number, not a bool, whose float is finite."""
    return isinstance(x, Real) and not isinstance(x, bool) and math.isfinite(_float(x))


def _require(name: str, value, ok: bool, rule: str) -> None:
    """Refuse ``value`` unless ok, as "<name> must be <rule>, got <value>"."""
    if not ok:
        raise ValueError(f"{name} must be {rule}, got {value!r}")


def libm(fn: Callable[..., float], *arrays) -> np.ndarray:
    """``fn``, a scalar ``math`` function, mapped over its broadcast
    arguments; the result has their shape (0-d for scalars).

    numpy's SIMD acos, log10, hypot and power can differ from ``math``'s
    in the last bit on some CPUs, while the scalar code calls ``math``;
    mapping it keeps array and scalar results identical. Each array is
    read from a C-contiguous float64 buffer through a memoryview, so an
    element's float lives only while ``map`` consumes it and no list as
    long as the array is built.
    """
    arrays = [np.asarray(a) for a in arrays]
    shapes = {a.shape for a in arrays if a.ndim}
    shape = np.broadcast_shapes(*shapes) if len(shapes) > 1 else max(shapes, default=())
    # a 0-d argument is repeated, not broadcast into a buffer of its own
    flat = (itertools.repeat(a.item()) if a.ndim == 0
            else memoryview(np.asarray(a if a.shape == shape else np.broadcast_to(a, shape),
                                       float).ravel())
            for a in arrays)
    return np.fromiter(map(fn, *flat), float, math.prod(shape)).reshape(shape)


def square_box(ax: np.ndarray, ay: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The intersection over axis 0 of the squares of half-width ``half``
    around (ax, ay), broadcast together: its bounds (x_min, x_max, y_min,
    y_max) stacked on a new axis 0, and the mask where they are inverted,
    the squares having no common point.
    """
    box = np.stack(((ax - half).max(axis=0), (ax + half).min(axis=0),
                    (ay - half).max(axis=0), (ay + half).min(axis=0)))
    return box, (box[0] > box[1]) | (box[2] > box[3])


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite point ({self.x}, {self.y})")


def distance(a: Point, b: Point) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)
