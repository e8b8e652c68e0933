"""The RAIL localization pipeline: per-target bounding box, system per-hop
error, RSSI-inferred angles with hop correction, orientation disambiguation,
ray construction, and the four-case precise-location rule.

Every stage is an array pass over all targets, and ``localize_all`` runs
them in order: ``_per_hop_errors``, ``_boxes``, ``_angles``,
``_ray_directions`` and ``_locate``. ``corrected_angle`` is the one scalar
entry point, a 0-d call of the angle formula. Transcendentals go through
``geometry.libm`` and every expression keeps the scalar operand order, so
the passes give the results of the per-target scalar formulas bit for bit.
Max, min, clip and argmin need no such care: they return one of their
finite operands exactly.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .geometry import DEFAULT_TOL, AABox, Point, Ray, libm
from .network import Deployment, NetworkGraph, Unreachable, dijkstra_trees

MIN_SIDE = 0.01  # floor for corrected triangle sides, keeps arccos finite
# row i: the two members of an anchor triple other than i, in id order
OTHERS = np.array([[1, 2], [0, 2], [0, 1]])
PAIRS = np.triu_indices(3, 1)  # the pairs (0, 1), (0, 2), (1, 2) as (i, j)


class DegenerateGeometry(Exception):
    """Angle estimation has no usable triangle sample."""


class LocationCase(Enum):
    MULTI_INTERSECTION = "MultiIntersection"
    SINGLE_INTERSECTION = "SingleIntersection"
    ALL_OUTSIDE = "AllOutside"
    NO_INTERSECTION = "NoIntersection"


CASES = tuple(LocationCase)  # a case code is an index into CASES
MULTI, SINGLE, ALL_OUTSIDE, NO_INTERSECTION = range(4)


@dataclass
class RailDiagnostics:
    case_fired: LocationCase
    box: AABox
    rays: tuple[Ray, Ray, Ray]
    intersections: list[Point]

    def to_json_dict(self) -> dict:
        return {
            "case_fired": self.case_fired.value,
            "box": [self.box.x_min, self.box.x_max, self.box.y_min, self.box.y_max],
            "rays": [
                {"origin": [r.origin.x, r.origin.y], "direction": [r.dx, r.dy]}
                for r in self.rays
            ],
            "intersections": [[p.x, p.y] for p in self.intersections],
        }


class RailResults(Mapping):
    """The estimates and diagnostics of a set of targets, as arrays.

    Per target i: estimate ``(x[i], y[i])``, ``case[i]`` (an index into
    ``CASES``), the box ``box[:, i]`` (x_min, x_max, y_min, y_max; the
    empty-box fallback where the squares did not meet), rays ``r`` from
    ``(ray_x[r, i], ray_y[r, i])`` along ``(ray_dx[r, i], ray_dy[r, i])``,
    and the forward intersection of each ray pair ``q`` (pairs in (0, 1),
    (0, 2), (1, 2) order) at ``(hit_x[q, i], hit_y[q, i])`` where
    ``hit[q, i]``. As a mapping, ``results[t]`` is target t's
    ``(Point, RailDiagnostics)``.
    """

    def __init__(self, targets, x, y, case, box, rays, hits):
        self.targets = np.asarray(targets)
        self.x, self.y, self.case, self.box = x, y, case, box
        self.ray_x, self.ray_y, self.ray_dx, self.ray_dy = rays
        self.hit_x, self.hit_y, self.hit = hits

    @cached_property
    def _index(self) -> dict[int, int]:
        return {t: i for i, t in enumerate(self.targets.tolist())}

    def __getitem__(self, target: int) -> tuple[Point, RailDiagnostics]:
        return self.row(self._index[target])

    def __iter__(self) -> Iterator[int]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self.targets)

    def row(self, i: int) -> tuple[Point, RailDiagnostics]:
        """The i-th target's estimate and diagnostics as objects."""
        rays = tuple(
            Ray(Point(float(ox[i]), float(oy[i])), float(dx[i]), float(dy[i]))
            for ox, oy, dx, dy in zip(self.ray_x, self.ray_y, self.ray_dx, self.ray_dy)
        )
        hits = [
            Point(float(px[i]), float(py[i]))
            for px, py, ok in zip(self.hit_x, self.hit_y, self.hit) if ok[i]
        ]
        diag = RailDiagnostics(
            case_fired=CASES[self.case[i]],
            box=AABox(*(float(v) for v in self.box[:, i])),
            rays=rays,
            intersections=hits,
        )
        return Point(float(self.x[i]), float(self.y[i])), diag

    def box_contains(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per target, whether its box holds the point (x[i], y[i])."""
        return _inside(self.box, x, y)


def _boxes(ax: np.ndarray, ay: np.ndarray, sd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column, the intersection of the anchor squares of half-width sd
    around (ax, ay) (rows: anchors), as (4, m) bounds, and where it is empty;
    an empty box falls back to the square of the first anchor with the
    smallest sd.
    """
    squares = np.stack((ax - sd, ax + sd, ay - sd, ay + sd))
    x_min, x_max, y_min, y_max = squares
    box = np.stack((x_min.max(axis=0), x_max.min(axis=0), y_min.max(axis=0), y_max.min(axis=0)))
    empty = (box[0] > box[1]) | (box[2] > box[3])
    fallback = squares[:, np.argmin(sd, axis=0), np.arange(sd.shape[1])]
    return np.where(empty, fallback, box), empty


def _per_hop_errors(ax: np.ndarray, ay: np.ndarray, sd: np.ndarray, hops: np.ndarray) -> np.ndarray:
    """Per column, the system per-hop error of an anchor triple: the average
    per-hop excess of the pairwise shortest distances over the true ones,
    clamped at 0. Anchors (ax, ay) are (3, m) in id order; the pairwise SDs
    and hop counts are (3, m) in (01, 02, 12) order.
    """
    hop_sum = hops[0] + hops[1] + hops[2]
    if (hop_sum == 0).any():
        raise ValueError("anchor pair with zero hop count")
    i, j = PAIRS
    true = libm(math.hypot, ax[i] - ax[j], ay[i] - ay[j])  # geometry.distance
    return np.maximum((sd[0] + sd[1] + sd[2] - (true[0] + true[1] + true[2])) / hop_sum, 0.0)


def _corrected_angles(a, b, c, e, hops_a, hops_b, hops_c) -> np.ndarray:
    """``corrected_angle`` over arrays."""
    ac = np.maximum(np.where(hops_a >= 2, a - e * hops_a, a), MIN_SIDE)
    bc = np.maximum(np.where(hops_b >= 2, b - e * hops_b, b), MIN_SIDE)
    cc = np.where(hops_c >= 2, np.maximum(c - e * hops_c, MIN_SIDE), np.maximum(c, 0.0))
    cos = (ac * ac + bc * bc - cc * cc) / (2.0 * ac * bc)
    return libm(math.acos, np.clip(cos, -1.0, 1.0))


def corrected_angle(
    a: float, b: float, c: float, e: float, hops_a: int, hops_b: int, hops_c: int
) -> float:
    """Law-of-cosines angle after per-side hop correction.

    Each side is shortened by e per hop when its hop count is >= 2, floored
    at MIN_SIDE; the cosine argument is clamped to [-1, 1] so violated
    triangle inequalities map to 0 or pi.
    """
    return float(_corrected_angles(float(a), float(b), float(c), float(e), hops_a, hops_b, hops_c))


class _Forest(NamedTuple):
    """The shortest-path trees of some sources, stacked as (sources, n)
    arrays; row r belongs to node ``ids[r]``."""

    ids: np.ndarray
    dist: np.ndarray
    pred: np.ndarray
    hops: np.ndarray

    @classmethod
    def of(cls, g: NetworkGraph, sources: Sequence[int]) -> "_Forest":
        ids = np.array(sources, dtype=np.intp)
        return cls(ids, *dijkstra_trees(g, ids))


def _ancestors(forest: _Forest, rows: np.ndarray, v: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The node k hops from the root of tree ``rows`` on its path to v, by
    binary lifting: ``up`` holds each node's 2**r-th ancestor in pass r
    (entries above a root are never read)."""
    v = v.copy()
    steps = forest.hops[rows, v] - k
    up = forest.pred
    while steps.any():
        odd = np.flatnonzero(steps & 1)
        v[odd] = up[rows[odd], v[odd]]
        steps >>= 1
        up = np.take_along_axis(up, up, axis=1)
    return v


def _angles(g: NetworkGraph, forest: _Forest, rows: np.ndarray, ref: np.ndarray,
            target: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per item, the estimated angle at the anchor of tree ``rows`` of
    ``forest`` between the directions to ``ref`` and to ``target``, and the
    prefix length K.

    The two path-prefix segments formed by the first K <= 3 hops of the
    shortest paths toward ``ref`` and toward ``target``, together with the
    connection between their hop-K nodes, form the triangle the angle is
    read from; each side is shortened by the per-hop error ``e`` before
    applying the law of cosines. K shrinks when either path is shorter than
    3 hops. The connections that need a multi-hop path take one
    ``dijkstra_trees`` call over their distinct sources.
    """
    for v in (ref, target):
        missing = np.isinf(forest.dist[rows, v])
        if missing.any():
            i = int(np.argmax(missing))
            raise Unreachable(f"node {v[i]} unreachable from {forest.ids[rows[i]]}")
    k = np.minimum(np.minimum(forest.hops[rows, ref], forest.hops[rows, target]), 3)

    # a prefix length is the hop-K node's tree distance: Dijkstra summed the
    # same K edges in path order
    node_a = _ancestors(forest, rows, ref, k)
    node_b = _ancestors(forest, rows, target, k)
    a_len, b_len = forest.dist[rows, node_a], forest.dist[rows, node_b]
    c_len = np.zeros(len(rows))
    c_hops = np.zeros(len(rows), dtype=np.intp)
    apart = node_a != node_b
    found, pos = g.edge_index(node_a, node_b)
    direct = apart & found
    c_len[direct] = g.matrix.data[pos[direct]]
    c_hops[direct] = 1
    # same-hop nodes out of range of each other: fall back to their
    # multi-hop shortest distance
    far = np.flatnonzero(apart & ~found)
    if far.size:
        sources, side = np.unique(node_a[far], return_inverse=True)
        dist, _, hops = dijkstra_trees(g, sources)
        c_len[far] = dist[side, node_b[far]]
        c_hops[far] = hops[side, node_b[far]]
    return _corrected_angles(a_len, b_len, c_len, e, k, k, c_hops), k


def _rotate(dx, dy, theta):
    ct, st = libm(math.cos, theta), libm(math.sin, theta)
    return dx * ct - dy * st, dx * st + dy * ct


def _angle_between(ax, ay, bx, by):
    return libm(math.acos, np.clip(ax * bx + ay * by, -1.0, 1.0))


def _unit(ax, ay, to: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column, the unit vector from each anchor i to anchor ``to[i]``."""
    d = libm(math.hypot, ax - ax[to], ay - ay[to])  # geometry.distance
    if (d == 0).any():
        raise DegenerateGeometry("coincident anchors")
    return (ax[to] - ax) / d, (ay[to] - ay) / d


def _ray_directions(ax: np.ndarray, ay: np.ndarray, theta_j: np.ndarray,
                    theta_k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column, the unit direction of each anchor's ray toward the target:
    anchors (ax, ay) of shape (3, m) in id order; for anchor i with other
    anchors j < k (``OTHERS[i]``), ``theta_j[i]`` and ``theta_k[i]`` are the
    estimated angles at i between the target and j, and k.

    Anchor i's baseline to j is rotated by theta_j, counterclockwise or
    clockwise, whichever candidate's angle to the direction i -> k is closer
    to theta_k (ties go counterclockwise).
    """
    bx, by = _unit(ax, ay, OTHERS[:, 0])
    kx, ky = _unit(ax, ay, OTHERS[:, 1])
    ccw = _rotate(bx, by, theta_j)
    cw = _rotate(bx, by, -theta_j)
    err_ccw = np.abs(_angle_between(*ccw, kx, ky) - theta_k)
    err_cw = np.abs(_angle_between(*cw, kx, ky) - theta_k)
    pick = err_ccw <= err_cw
    dx, dy = np.where(pick, ccw[0], cw[0]), np.where(pick, ccw[1], cw[1])
    norm = libm(math.hypot, dx, dy)  # make_ray's normalisation
    return dx / norm, dy / norm


def _inside(box: np.ndarray, x, y) -> np.ndarray:
    tol = DEFAULT_TOL
    return (box[0] - tol <= x) & (x <= box[1] + tol) & (box[2] - tol <= y) & (y <= box[3] + tol)


def _locate(box: np.ndarray, rays):
    """The four-case rule for each column: the box (4, m) and the rays as
    (origin x, origin y, dx, dy) arrays of shape (R, m). Returns the
    estimate (x, y), the case codes and the ray-pair intersections
    (x, y, found), each (R(R-1)/2, m).
    """
    tol = DEFAULT_TOL
    ox, oy, dx, dy = rays
    # geometry.ray_pair_intersection for every pair (i, j), i < j
    i, j = np.triu_indices(len(ox), 1)
    det = dx[i] * dy[j] - dy[i] * dx[j]
    sx, sy = ox[j] - ox[i], oy[j] - oy[i]
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (sx * dy[j] - sy * dx[j]) / det
        t2 = (sx * dy[i] - sy * dx[i]) / det
    hit = ~(np.abs(det) <= tol) & ~(t1 < -tol) & ~(t2 < -tol)
    t1 = np.where(hit, t1, 0.0)
    hx, hy = ox[i] + t1 * dx[i], oy[i] + t1 * dy[i]
    inside = hit & _inside(box, hx, hy)
    n_inside = inside.sum(axis=0)

    # cases 1 and 2: the centroid of the inside points, summed in pair order
    # as geometry.centroid does (one point divided by 1 is itself)
    share = np.maximum(n_inside, 1)
    x = np.where(inside, hx, 0.0).sum(axis=0) / share
    y = np.where(inside, hy, 0.0).sum(axis=0) / share
    case = np.where(n_inside >= 2, MULTI, SINGLE)

    # case 4: no intersection at all, the box center
    none = ~hit.any(axis=0)
    case[none] = NO_INTERSECTION
    x[none] = ((box[0] + box[1]) / 2.0)[none]
    y[none] = ((box[2] + box[3]) / 2.0)[none]

    # case 3: all intersections outside, the nearest one projected onto the
    # box (argmin keeps the first of equally near ones)
    out = np.flatnonzero((n_inside == 0) & ~none)
    b, px, py = box[:, out], hx[:, out], hy[:, out]
    gap = libm(math.hypot,  # geometry.box_distance
               np.maximum(np.maximum(b[0] - px, 0.0), px - b[1]),
               np.maximum(np.maximum(b[2] - py, 0.0), py - b[3]))
    near = np.argmin(np.where(hit[:, out], gap, math.inf), axis=0), np.arange(out.size)
    case[out] = ALL_OUTSIDE
    x[out] = np.clip(px[near], b[0], b[1])
    y[out] = np.clip(py[near], b[2], b[3])
    return x, y, case, (hx, hy, hit)


def localize_all(dep: Deployment, g: NetworkGraph) -> RailResults:
    """Run the full pipeline for every unknown node, as array passes over
    all targets.

    When more than three anchors exist, each target uses its three nearest
    anchors by estimated shortest distance. One ``dijkstra_trees`` call gives
    the anchors' trees and one ``_angles`` call reads all six angles of
    every target, so a run makes at most two shortest-path calls.
    """
    anchors = _Forest.of(g, dep.anchor_ids)
    targets = np.array(dep.unknown_ids, dtype=np.intp)
    m = len(targets)

    # the three nearest anchors by SD (ties: anchor_ids order), in id order
    nearest = np.argsort(anchors.dist[:, targets], axis=0, kind="stable")[:3]
    nearest = np.take_along_axis(nearest, np.argsort(anchors.ids[nearest], axis=0), axis=0)
    chosen = anchors.ids[nearest]  # (3, m) anchor ids
    # one per-hop error per distinct triple
    triples, which = np.unique(nearest, axis=1, return_inverse=True)
    ends = anchors.ids[triples]
    i, j = PAIRS
    e = _per_hop_errors(dep.coords[ends, 0], dep.coords[ends, 1],
                        anchors.dist[triples[i], ends[j]],
                        anchors.hops[triples[i], ends[j]])[which.ravel()]

    ax, ay = dep.coords[chosen, 0], dep.coords[chosen, 1]
    box = _boxes(ax, ay, anchors.dist[nearest, targets])[0]

    # the six angle items of every target, at anchor i toward OTHERS[i, 0]
    # and OTHERS[i, 1], stacked as (anchor, other, target)
    at, ref = np.repeat(np.arange(3), 2), OTHERS.ravel()
    theta = _angles(g, anchors, nearest[at].ravel(), chosen[ref].ravel(),
                    np.tile(targets, 6), np.tile(e, 6))[0].reshape(3, 2, m)
    ray_dx, ray_dy = _ray_directions(ax, ay, theta[:, 0], theta[:, 1])
    rays = (ax, ay, ray_dx, ray_dy)
    x, y, case, hits = _locate(box, rays)
    return RailResults(targets, x, y, case, box, rays, hits)
