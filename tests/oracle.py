"""The scalar oracle of RAIL's location step, for the tests only.

``railsim.rail`` computes boxes, rays and the four-case rule as array
passes over all targets of a chunk. This module keeps the object-based,
one-target-at-a-time version they replaced: axis-aligned boxes, directed
rays and their primitives, and ``reference_localize``, which runs RAIL for
one target at a time with Python floats and ``math``. Tests import it as a
sibling module; pytest does not collect it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from railsim.geometry import DEFAULT_TOL, Point, distance
from railsim.network import dijkstra_trees
from railsim.rail import ALL_OUTSIDE, MULTI, NO_INTERSECTION, SINGLE


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


def reference_localize(dep, g):
    """Oracle: RAIL one target at a time with Python floats, ``math`` and the
    scalar primitives above, as the pipeline ran before it became array
    passes. Returns {target: (estimate, case code, box, intersections)}."""
    trees = {}

    def tree(s):
        if s not in trees:
            t = dijkstra_trees(g, [s])
            dist, pred = t.dist[0, 0].tolist(), t.pred[0, 0].tolist()
            hops = []
            for v in range(len(pred)):  # edges walked up to the root
                h = 0
                while pred[v] >= 0:
                    v, h = pred[v], h + 1
                hops.append(h)
            trees[s] = dist, pred, hops
        return trees[s]

    def corrected(a, b, c, e, ha, hb, hc):
        ac = max(a - e * ha, 0.01) if ha >= 2 else max(a, 0.01)
        bc = max(b - e * hb, 0.01) if hb >= 2 else max(b, 0.01)
        cc = max(c - e * hc, 0.01) if hc >= 2 else max(c, 0.0)
        cos = (ac * ac + bc * bc - cc * cc) / (2.0 * ac * bc)
        return math.acos(min(1.0, max(-1.0, cos)))

    def angle(e, at, ref, t):
        dist, pred, hops = tree(at)
        k = min(3, hops[ref], hops[t])
        ends = []
        for v in (ref, t):
            for _ in range(hops[v] - k):
                v = pred[v]
            ends.append(v)
        na, nb = ends
        if na == nb:
            c, ch = 0.0, 0
        elif g.edge_weight(na, nb) is not None:
            c, ch = g.edge_weight(na, nb), 1
        else:
            c, ch = tree(na)[0][nb], tree(na)[2][nb]
        return corrected(dist[na], dist[nb], c, e, k, k, ch)

    def unit(p, q):
        d = distance(p, q)
        return (q.x - p.x) / d, (q.y - p.y) / d

    def rotate(x, y, th):
        return x * math.cos(th) - y * math.sin(th), x * math.sin(th) + y * math.cos(th)

    def between(x, y, u, v):
        return math.acos(min(1.0, max(-1.0, x * u + y * v)))

    out = {}
    for t in dep.unknown_ids:
        ids = sorted(sorted(dep.anchor_ids, key=lambda a: tree(a)[0][t])[:3])
        pos = [dep.nodes[a] for a in ids]
        sds = [tree(a)[0][t] for a in ids]
        pairs = ((0, 1), (0, 2), (1, 2))
        sd_sum = sum(tree(ids[u])[0][ids[v]] for u, v in pairs)
        hop_sum = sum(tree(ids[u])[2][ids[v]] for u, v in pairs)
        td_sum = sum(distance(pos[u], pos[v]) for u, v in pairs)
        e = max((sd_sum - td_sum) / hop_sum, 0.0)
        box = intersect_boxes(
            [AABox(p.x - d, p.x + d, p.y - d, p.y + d) for p, d in zip(pos, sds)])
        if box is None:
            b = min(range(3), key=lambda i: sds[i])
            box = AABox(pos[b].x - sds[b], pos[b].x + sds[b], pos[b].y - sds[b], pos[b].y + sds[b])
        rays = []
        for i in range(3):
            j, k = (x for x in range(3) if x != i)
            th_j, th_k = angle(e, ids[i], ids[j], t), angle(e, ids[i], ids[k], t)
            bx, by = unit(pos[i], pos[j])
            kx, ky = unit(pos[i], pos[k])
            ccw, cw = rotate(bx, by, th_j), rotate(bx, by, -th_j)
            pick = abs(between(*ccw, kx, ky) - th_k) <= abs(between(*cw, kx, ky) - th_k)
            rays.append(make_ray(pos[i], *(ccw if pick else cw)))
        pts = [p for i, j in pairs
               if (p := ray_pair_intersection(rays[i], rays[j])) is not None]
        inside = [p for p in pts if contains(box, p)]
        if len(inside) >= 2:
            case, est = MULTI, centroid(inside)
        elif inside:
            case, est = SINGLE, inside[0]
        elif pts:
            near = min(pts, key=lambda p: box_distance(box, p))
            case, est = ALL_OUTSIDE, project_onto_box(box, near)
        else:
            case, est = NO_INTERSECTION, box_center(box)
        out[t] = (est, case, box, pts)
    return out
