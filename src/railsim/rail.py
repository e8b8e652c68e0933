"""The RAIL localization pipeline: per-target bounding box, system per-hop
error, RSSI-inferred angles with hop correction, orientation disambiguation,
ray construction, and the four-case precise-location rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from . import geometry
from .geometry import AABox, Point, Ray, make_ray
from .network import Deployment, NetworkGraph, Unreachable, dijkstra_tree

MIN_SIDE = 0.01  # floor for corrected triangle sides, keeps arccos finite


class DegenerateGeometry(Exception):
    """Angle estimation has no usable triangle sample."""


class LocationCase(Enum):
    MULTI_INTERSECTION = "MultiIntersection"
    SINGLE_INTERSECTION = "SingleIntersection"
    ALL_OUTSIDE = "AllOutside"
    NO_INTERSECTION = "NoIntersection"


@dataclass(frozen=True)
class AnchorTriple:
    """Three anchors with their ground-truth geometry and pairwise ranging:
    shortest multi-hop distances (SD) and their hop counts.
    """

    ids: tuple[int, int, int]
    positions: tuple[Point, Point, Point]
    pairwise_true_distances: tuple[float, float, float]  # (01, 02, 12)
    pairwise_sd: tuple[float, float, float]
    pairwise_hops: tuple[int, int, int]


@dataclass(frozen=True)
class AngleEstimate:
    at_anchor: int
    reference_anchor: int
    theta: float  # radians, in [0, pi]
    samples_used: int


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


def make_anchor_triple(dep: Deployment, ids: Sequence[int], trees: dict) -> AnchorTriple:
    """Assemble an AnchorTriple from the anchors' ``dijkstra_tree`` results,
    keyed by anchor id.
    """
    a, b, c = sorted(ids)
    pa, pb, pc = dep.nodes[a], dep.nodes[b], dep.nodes[c]
    pairs = ((a, b), (a, c), (b, c))
    return AnchorTriple(
        ids=(a, b, c),
        positions=(pa, pb, pc),
        pairwise_true_distances=(
            geometry.distance(pa, pb),
            geometry.distance(pa, pc),
            geometry.distance(pb, pc),
        ),
        pairwise_sd=tuple(trees[u][0][v] for u, v in pairs),
        pairwise_hops=tuple(trees[u][2][v] for u, v in pairs),
    )


def anchor_square(pos: Point, sd: float) -> AABox:
    return AABox(pos.x - sd, pos.x + sd, pos.y - sd, pos.y + sd)


def bounding_box(anchors: AnchorTriple, sds: Sequence[float]) -> Optional[AABox]:
    """Intersection of the three per-anchor squares of half-width SD."""
    squares = [anchor_square(pos, sd) for pos, sd in zip(anchors.positions, sds)]
    return geometry.intersect_boxes(squares)


def per_hop_error(anchors: AnchorTriple) -> float:
    """Average per-hop excess of anchor-pairwise multi-hop distances."""
    sd_sum = sum(anchors.pairwise_sd)
    hop_sum = sum(anchors.pairwise_hops)
    if hop_sum == 0:
        raise ValueError("anchor pair with zero hop count")
    td_sum = sum(anchors.pairwise_true_distances)
    return max((sd_sum - td_sum) / hop_sum, 0.0)


def corrected_angle(
    a: float, b: float, c: float, e: float, hops_a: int, hops_b: int, hops_c: int
) -> float:
    """Law-of-cosines angle after per-side hop correction.

    Each side is shortened by e per hop when its hop count is >= 2, floored
    at MIN_SIDE; the cosine argument is clamped to [-1, 1] so violated
    triangle inequalities map to 0 or pi.
    """
    ac = max(a - e * hops_a, MIN_SIDE) if hops_a >= 2 else max(a, MIN_SIDE)
    bc = max(b - e * hops_b, MIN_SIDE) if hops_b >= 2 else max(b, MIN_SIDE)
    cc = max(c - e * hops_c, MIN_SIDE) if hops_c >= 2 else max(c, 0.0)
    cos = (ac * ac + bc * bc - cc * cc) / (2.0 * ac * bc)
    return math.acos(min(1.0, max(-1.0, cos)))


def _tree(g: NetworkGraph, trees: dict, source: int) -> tuple[list, list, list]:
    """``dijkstra_tree(g, source)``, memoised in ``trees``."""
    if source not in trees:
        trees[source] = dijkstra_tree(g, source)
    return trees[source]


def _ancestor(pred: list[int], hops: list[int], v: int, k: int) -> int:
    """The node k hops from the tree root on the root's path to v."""
    for _ in range(hops[v] - k):
        v = pred[v]
    return v


def estimate_angle(
    g: NetworkGraph,
    e: float,
    at: int,
    ref: int,
    target: int,
    trees: Optional[dict] = None,
) -> AngleEstimate:
    """Estimate the angle at anchor ``at`` between the directions to ``ref``
    and to ``target``.

    The two path-prefix segments formed by the first K <= 3 hops of the
    shortest paths toward ``ref`` and toward ``target``, together with the
    connection between their hop-K nodes, form the triangle the angle is
    read from; each side is shortened by the per-hop error before applying
    the law of cosines. K shrinks when either path is shorter than 3 hops.
    ``trees`` memoises ``dijkstra_tree`` per source across calls.
    """
    if target == at or target == ref or at == ref:
        raise DegenerateGeometry(f"target {target} coincides with an anchor")
    if trees is None:
        trees = {}
    dist, pred, hops = _tree(g, trees, at)
    for v in (ref, target):
        if math.isinf(dist[v]):
            raise Unreachable(f"node {v} unreachable from {at}")
    k = min(3, hops[ref], hops[target])

    # a prefix length is the hop-K node's tree distance: Dijkstra summed the
    # same K edges in path order
    node_a, node_b = _ancestor(pred, hops, ref, k), _ancestor(pred, hops, target, k)
    a_len, b_len = dist[node_a], dist[node_b]
    if node_a == node_b:
        c_len, c_hops = 0.0, 0
    else:
        direct = g.edge_weight(node_a, node_b)
        if direct is not None:
            c_len, c_hops = direct, 1
        else:
            # same-hop nodes out of range of each other: fall back to their
            # multi-hop shortest distance
            c_dist, _, c_hop = _tree(g, trees, node_a)
            c_len, c_hops = c_dist[node_b], c_hop[node_b]
    theta = corrected_angle(a_len, b_len, c_len, e, k, k, c_hops)
    return AngleEstimate(
        at_anchor=at, reference_anchor=ref, theta=theta, samples_used=k
    )


def _rotate(dx: float, dy: float, theta: float) -> tuple[float, float]:
    ct, st = math.cos(theta), math.sin(theta)
    return dx * ct - dy * st, dx * st + dy * ct


def _angle_between(ax: float, ay: float, bx: float, by: float) -> float:
    cos = min(1.0, max(-1.0, ax * bx + ay * by))
    return math.acos(cos)


def build_rays(
    anchors: AnchorTriple, angles: dict[tuple[int, int], AngleEstimate]
) -> tuple[Ray, Ray, Ray]:
    """One ray per anchor toward the target.

    For anchor A_i the estimated angle to the target is measured from the
    baseline A_i->A_j; the third anchor A_k disambiguates the rotation sign:
    the candidate whose angle to A_i->A_k best matches the estimated angle
    at A_i relative to A_k wins (ties go counterclockwise).
    """
    rays = []
    for i, pos_i in zip(anchors.ids, anchors.positions):
        j, k = sorted(x for x in anchors.ids if x != i)
        pos_j = anchors.positions[anchors.ids.index(j)]
        pos_k = anchors.positions[anchors.ids.index(k)]
        theta_ij = angles[(i, j)].theta
        theta_ik = angles[(i, k)].theta

        bx, by = _unit(pos_i, pos_j)
        kx, ky = _unit(pos_i, pos_k)
        ccw = _rotate(bx, by, theta_ij)
        cw = _rotate(bx, by, -theta_ij)
        err_ccw = abs(_angle_between(*ccw, kx, ky) - theta_ik)
        err_cw = abs(_angle_between(*cw, kx, ky) - theta_ik)
        dx, dy = ccw if err_ccw <= err_cw else cw
        rays.append(make_ray(pos_i, dx, dy))
    return tuple(rays)


def _unit(src: Point, dst: Point) -> tuple[float, float]:
    d = geometry.distance(src, dst)
    if d == 0:
        raise DegenerateGeometry("coincident anchors")
    return (dst.x - src.x) / d, (dst.y - src.y) / d


def precise_location(
    box: Optional[AABox],
    rays: Sequence[Ray],
    empty_fallback: Optional[AABox] = None,
    tol: float = geometry.DEFAULT_TOL,
) -> tuple[Point, RailDiagnostics]:
    """Resolve the final estimate from the box and the forward ray
    intersections, by the four-case rule.
    """
    if box is None:
        box = empty_fallback
    if box is None:
        raise ValueError("empty box with no fallback")

    pts = []
    for i in range(len(rays)):
        for j in range(i + 1, len(rays)):
            p = geometry.ray_pair_intersection(rays[i], rays[j])
            if p is not None:
                pts.append(p)

    inside = [p for p in pts if geometry.contains(box, p, tol)]
    if len(inside) >= 2:
        case, est = LocationCase.MULTI_INTERSECTION, geometry.centroid(inside)
    elif len(inside) == 1:
        case, est = LocationCase.SINGLE_INTERSECTION, inside[0]
    elif pts:
        nearest = min(pts, key=lambda p: geometry.box_distance(box, p))
        case, est = LocationCase.ALL_OUTSIDE, geometry.project_onto_box(box, nearest)
    else:
        case, est = LocationCase.NO_INTERSECTION, geometry.box_center(box)
    diag = RailDiagnostics(case_fired=case, box=box, rays=tuple(rays), intersections=pts)
    return est, diag


def localize_all(
    dep: Deployment, g: NetworkGraph
) -> dict[int, tuple[Point, RailDiagnostics]]:
    """Run the full pipeline for every unknown node.

    When more than three anchors exist, each target uses its three nearest
    anchors by estimated shortest distance. Each source's ``dijkstra_tree``,
    anchors and angle-triangle fallbacks alike, is computed once per call.
    """
    trees: dict = {}
    sd = {a: _tree(g, trees, a)[0] for a in dep.anchor_ids}

    triples: dict[tuple[int, ...], tuple[AnchorTriple, float]] = {}

    def get_triple(ids: tuple[int, ...]) -> tuple[AnchorTriple, float]:
        if ids not in triples:
            triple = make_anchor_triple(dep, ids, trees)
            triples[ids] = (triple, per_hop_error(triple))
        return triples[ids]

    results = {}
    for t in dep.unknown_ids:
        chosen = sorted(dep.anchor_ids, key=lambda a: sd[a][t])[:3]
        ids = tuple(sorted(chosen))
        triple, e = get_triple(ids)
        sds = [sd[a][t] for a in triple.ids]
        box = bounding_box(triple, sds)

        angles = {}
        for i in triple.ids:
            for j in triple.ids:
                if i != j:
                    angles[(i, j)] = estimate_angle(g, e, i, j, t, trees)
        rays = build_rays(triple, angles)

        fallback = None
        if box is None:
            best = min(range(3), key=lambda i: sds[i])
            fallback = anchor_square(triple.positions[best], sds[best])
        results[t] = precise_location(box, rays, empty_fallback=fallback)
    return results
