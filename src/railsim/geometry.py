"""Exact 2D primitives: points and their distance, the tolerance of the
location rule's comparisons, and ``libm``, the array map that keeps the
array passes bit-identical to scalar float arithmetic: it maps a scalar
``math`` function (``hypot`` for every distance, ``log10``, ``pow``,
``acos``, ``cos``, ``sin``) over arrays one element at a time.

The scalar boxes, rays and location rule that RAIL's array passes are
checked against live in ``tests/oracle.py``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

DEFAULT_TOL = 1e-9


def libm(fn: Callable[..., float], *arrays) -> np.ndarray:
    """``fn``, a scalar ``math`` function, mapped over its broadcast
    arguments; the result has their shape (0-d for scalars).

    numpy's SIMD acos, log10, hypot and power can differ from ``math``'s
    in the last bit on some CPUs, while the scalar code calls ``math``;
    mapping it keeps array and scalar results identical.
    """
    arrays = [np.asarray(a) for a in arrays]
    shapes = {a.shape for a in arrays if a.ndim}
    shape = np.broadcast_shapes(*shapes) if len(shapes) > 1 else max(shapes, default=())
    # a 0-d argument is repeated, not broadcast into a list of its own
    flat = (itertools.repeat(a.item()) if a.ndim == 0
            else (a if a.shape == shape else np.broadcast_to(a, shape)).ravel().tolist()
            for a in arrays)
    return np.fromiter(map(fn, *flat), float, math.prod(shape)).reshape(shape)


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite point ({self.x}, {self.y})")


def distance(a: Point, b: Point) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)
