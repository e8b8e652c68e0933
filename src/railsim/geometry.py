"""Exact 2D primitives: points and their distance, the tolerance of the
location rule's comparisons, and the two array maps that keep the array
passes bit-identical to scalar float arithmetic: ``libm``, which maps any
C library function over arrays one element at a time, and ``hypot``, the
elementwise ``math.hypot`` that long arrays take through an exact numpy
port of CPython's algorithm.

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

_VELTKAMP = 2.0**27 + 1.0  # splits a double into two 26-bit halves
_TINY = np.finfo(float).tiny  # the smallest normal double
_HUGE = 2.0**1023  # below it no hypot overflows
_BLOCK = 4096  # elements per block of the port
# arrays at least this long take the port, shorter ones ``libm``. A port
# call costs about 27 us whatever its length; in a loop of calls the two
# tie near 540 elements (2-vCPU Xeon), but inside whole runs the port still
# lost at the 550-600 links of 100-node graphs and won from the 2,000-link
# graphs of 200 nodes on. In a chunked sweep the per-target calls hold
# 1,200 elements or more and take the port; 100-node graphs, the sampler's
# anchor pairs and most case-3 box gaps of a sigma-0 sweep stay on libm
_PORT_MIN = 1024


def libm(fn: Callable[..., float], *arrays) -> np.ndarray:
    """``fn``, a scalar ``math`` function, mapped over its broadcast
    arguments; the result has their shape (0-d for scalars).

    numpy's SIMD acos, log10, hypot and power can differ from the C
    library's in the last bit on some CPUs, while the scalar code calls the
    C library; mapping it keeps array and scalar results identical.
    """
    arrays = [np.asarray(a) for a in arrays]
    shapes = {a.shape for a in arrays if a.ndim}
    shape = np.broadcast_shapes(*shapes) if len(shapes) > 1 else max(shapes, default=())
    # a 0-d argument is repeated, not broadcast into a list of its own
    flat = (itertools.repeat(a.item()) if a.ndim == 0
            else (a if a.shape == shape else np.broadcast_to(a, shape)).ravel().tolist()
            for a in arrays)
    return np.fromiter(map(fn, *flat), float, math.prod(shape)).reshape(shape)


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: (hi, lo) with hi + lo == x exactly, hi of 26 bits."""
    t = x * _VELTKAMP
    hi = t - x
    np.subtract(t, hi, out=hi)  # t - (t - x)
    return hi, np.subtract(x, hi, out=t)


def _add(csum: np.ndarray, frac: np.ndarray, x: np.ndarray) -> np.ndarray:
    """csum + x, with its round-off ``(csum - (csum + x)) + x`` added to
    frac; csum's buffer is spent."""
    new = csum + x
    csum -= new
    csum += x
    frac += csum
    return new


def hypot(dx, dy) -> np.ndarray:
    """``math.hypot(dx, dy)`` elementwise, bit for bit, over two arrays of
    one shape; the result has that shape.

    numpy's own ``hypot`` differs from the C library's in the last bit on
    some CPUs. Below ``_PORT_MIN`` elements this is ``libm(math.hypot,
    ...)``; from there on ``_norm`` over blocks of ``_BLOCK`` elements,
    whose temporaries stay small enough to be reused from one block and
    call to the next (whole 16,000-link arrays page-faulted fresh memory
    for each temporary and ran about twice as slow per element).
    """
    if np.size(dx) < _PORT_MIN:
        return libm(math.hypot, dx, dy)
    shape = np.shape(dx)
    dx, dy = np.ravel(dx), np.ravel(dy)
    h = np.empty(dx.size)
    for i in range(0, dx.size, _BLOCK):
        block = slice(i, i + _BLOCK)
        h[block] = _norm(np.abs((dx[block], dy[block]), dtype=float))
    return h.reshape(shape)


def _norm(xy: np.ndarray) -> np.ndarray:
    """``math.hypot`` of the columns of the (2, k) array of magnitudes xy,
    which it overwrites.

    A port of CPython's ``vector_norm`` for two coordinates, where each
    step is one IEEE operation: both magnitudes are scaled by the power of
    two that brings the larger into [0.5, 1), split in two halves, and their
    squares summed into ``csum`` with three round-off accumulators; then a
    square root and one differential correction against the same sum, and
    the scale is undone. Zeros, subnormals, infinities and NaNs, where C
    takes other branches, and magnitudes above 2**1023, whose result may
    overflow, are handed to ``math.hypot`` itself.
    """
    big = np.maximum(xy[0], xy[1])
    odd = big.size and not (big.min() >= _TINY and big.max() <= _HUGE)
    if odd:
        special = ~((big >= _TINY) & (big <= _HUGE))
        fallback = libm(math.hypot, *xy[:, special])
        xy[:, special] = big[special] = 1.0
    scale = np.ldexp(1.0, -np.frexp(big)[1])
    xy *= scale  # exact
    hi, lo = _split(xy)
    sq = hi * hi
    hi *= 2.0
    hi *= lo  # 2.0 * hi * lo
    lo *= lo
    csum = np.ones_like(big)
    frac1, frac2, frac3 = np.zeros((3, big.size))
    for k in range(2):  # x, then y: hi * hi, 2.0 * hi * lo and lo * lo
        csum = _add(csum, frac1, sq[k])
        csum = _add(csum, frac2, hi[k])
        frac3 += lo[k]
    h = frac1 + frac2
    h += frac3
    h += csum - 1.0
    np.sqrt(h, out=h)
    # subtract h * h exactly and correct h by the residual
    hi, lo = _split(h)
    x = np.negative(hi)
    x *= hi
    csum = _add(csum, frac1, x)
    np.multiply(hi, -2.0, out=x)
    x *= lo
    csum = _add(csum, frac2, x)
    np.negative(lo, out=x)
    x *= lo
    csum = _add(csum, frac3, x)
    frac1 += frac2
    frac1 += frac3
    csum -= 1.0
    csum += frac1
    np.multiply(h, 2.0, out=x)
    csum /= x
    h += csum
    h /= scale
    if odd:
        h[special] = fallback
    return h


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite point ({self.x}, {self.y})")


def distance(a: Point, b: Point) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)
