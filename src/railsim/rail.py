"""The RAIL localization pipeline: per-target bounding box, system per-hop
error, RSSI-inferred angles with hop correction, orientation disambiguation,
ray construction, and the four-case precise-location rule.

Every stage is an array pass over all targets of a chunk of same-size
runs, and ``localize_chunk`` runs them in order: ``_per_hop_errors``,
``_boxes``, ``_angles``, ``_ray_directions`` and ``_locate``, and returns
``RailResults``: the estimates, case codes, boxes, rays and ray-pair hits
as arrays, with no per-target objects. ``localize_all`` is the chunk of
one run. ``corrected_angle`` is the one scalar
entry point, a 0-d call of the angle formula. Transcendentals go through
``geometry.libm``, distances through ``geometry.hypot``, and every
expression keeps the scalar operand order, so the passes give the results
of the per-target scalar formulas bit for bit. Max, min, clip and argmin
need no such care: they return one of their finite operands exactly.

Work that depends only on a target's anchor triple, its per-hop error and
its baseline directions, is done once per distinct (run, triple) and
gathered per target.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import DEFAULT_TOL, hypot, libm
from .network import (Deployment, GraphChunk, NetworkGraph, Unreachable, _depths,
                      dijkstra_trees, tree_hops)

MIN_SIDE = 0.01  # floor for corrected triangle sides, keeps arccos finite
# row i: the two members of an anchor triple other than i, in id order
OTHERS = np.array([[1, 2], [0, 2], [0, 1]])
PAIRS = np.triu_indices(3, 1)  # the pairs (0, 1), (0, 2), (1, 2) as (i, j)


class DegenerateGeometry(Exception):
    """Angle estimation has no usable triangle sample."""


# the case names, in ``scene.json``'s spelling; a case code indexes CASES
CASES = ("MultiIntersection", "SingleIntersection", "AllOutside", "NoIntersection")
MULTI, SINGLE, ALL_OUTSIDE, NO_INTERSECTION = range(4)


class RailResults(NamedTuple):
    """The estimates and diagnostics of a set of targets, as arrays.

    Per target i: estimate ``(x[i], y[i])``, ``case[i]`` (an index into
    ``CASES``), the box ``box[:, i]`` (x_min, x_max, y_min, y_max; the
    empty-box fallback where the squares did not meet), rays ``r`` from
    ``(ray_x[r, i], ray_y[r, i])`` along ``(ray_dx[r, i], ray_dy[r, i])``
    with ``rays = (ray_x, ray_y, ray_dx, ray_dy)``, and the forward
    intersection of each ray pair ``q`` (pairs in (0, 1), (0, 2), (1, 2)
    order) at ``(hit_x[q, i], hit_y[q, i])`` where ``hit[q, i]``, with
    ``hits = (hit_x, hit_y, hit)``.
    """

    targets: np.ndarray
    x: np.ndarray
    y: np.ndarray
    case: np.ndarray
    box: np.ndarray
    rays: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    hits: tuple[np.ndarray, np.ndarray, np.ndarray]

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
    true = hypot(ax[i] - ax[j], ay[i] - ay[j])  # geometry.distance
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
    """The shortest-path trees of some sources of a graph or a chunk,
    stacked as block-local (sources, n) arrays; row r belongs to the
    global id ``ids[r]``. The hop counts cover every node, by ``_depths``:
    nearly all nodes are targets, and over whole trees pointer jumping
    beats ``tree_hops``'s walk."""

    ids: np.ndarray
    dist: np.ndarray
    pred: np.ndarray
    hops: np.ndarray

    @classmethod
    def of(cls, g, sources: Sequence[int]) -> "_Forest":
        ids = np.array(sources, dtype=np.intp)
        dist, pred = dijkstra_trees(g, ids)
        return cls(ids, dist, pred, _depths(pred, ids % dist.shape[1]))


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


def _angles(g, forest: _Forest, rows: np.ndarray, ref: np.ndarray,
            target: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per item, the estimated angle at the anchor of tree ``rows`` of
    ``forest`` between the directions to ``ref`` and to ``target`` (nodes
    of the tree's own graph of ``g``, a NetworkGraph or a GraphChunk), and
    the prefix length K.

    The two path-prefix segments formed by the first K <= 3 hops of the
    shortest paths toward ``ref`` and toward ``target``, together with the
    connection between their hop-K nodes, form the triangle the angle is
    read from; each side is shortened by the per-hop error ``e`` before
    applying the law of cosines. K shrinks when either path is shorter than
    3 hops.
    """
    g = GraphChunk.of(g)
    for v in (ref, target):
        missing = np.isinf(forest.dist[rows, v])
        if missing.any():
            i = int(np.argmax(missing))
            raise Unreachable(f"node {v[i]} unreachable from "
                              f"{forest.ids[rows[i]] % g.node_count}")
    k = np.minimum(np.minimum(forest.hops[rows, ref], forest.hops[rows, target]), 3)

    # a prefix length is the hop-K node's tree distance: Dijkstra summed the
    # same K edges in path order
    node_a = _ancestors(forest, rows, ref, k)
    node_b = _ancestors(forest, rows, target, k)
    a_len, b_len = forest.dist[rows, node_a], forest.dist[rows, node_b]
    base = forest.ids[rows] // g.node_count * g.node_count  # the tree's graph, as global ids
    c_len, c_hops = _connections(g, forest, node_a + base, node_b + base)
    return _corrected_angles(a_len, b_len, c_len, e, k, k, c_hops), k


def _connections(g: GraphChunk, forest: _Forest, u: np.ndarray,
                 v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per item, the length and hop count of the connection from the
    global id u to the global id v of one graph of g: 0 and 0 hops where
    u == v, a direct link's weight and 1 hop, or else their multi-hop
    shortest distance, whose hops are counted at v only. A multi-hop
    connection reads u's row of ``forest`` where u is one of its roots, and
    the rest take one ``dijkstra_trees`` call per graph over their distinct
    sources; one graph's trees at a time, since those of all graphs at once
    would be a chunk's largest arrays.
    """
    n = g.node_count
    c_len = np.zeros(len(u))
    c_hops = np.zeros(len(u), dtype=np.intp)
    apart = u != v
    found, pos = g.edge_index(u, v)
    direct = apart & found
    c_len[direct] = g.weights[pos[direct]]
    c_hops[direct] = 1
    # same-hop nodes out of range of each other
    far = np.flatnonzero(apart & ~found)
    if far.size:
        row_of = np.full(g.blocks * n, -1)
        row_of[forest.ids] = np.arange(len(forest.ids))
        row = row_of[u[far]]
        root = row >= 0
        own, far = far[root], far[~root]
        c_len[own] = forest.dist[row[root], v[own] % n]
        c_hops[own] = forest.hops[row[root], v[own] % n]
    sources, side = np.unique(u[far], return_inverse=True)
    bounds = np.searchsorted(sources, np.arange(0, (g.blocks + 1) * n, n)).tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        if hi > lo:
            mine = (side >= lo) & (side < hi)
            row, item = side[mine] - lo, far[mine]
            dist, pred = dijkstra_trees(g, sources[lo:hi])
            c_len[item] = dist[row, v[item] % n]
            c_hops[item] = tree_hops(pred, sources[lo:hi] % n, row, v[item] % n)
    return c_len, c_hops


def _angle_between(ax, ay, bx, by):
    return libm(math.acos, np.clip(ax * bx + ay * by, -1.0, 1.0))


def _unit(ax, ay, to: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column, the unit vector from each anchor i to anchor ``to[..., i]``."""
    d = hypot(ax - ax[to], ay - ay[to])  # geometry.distance
    if (d == 0).any():
        raise DegenerateGeometry("coincident anchors")
    return (ax[to] - ax) / d, (ay[to] - ay) / d


def _ray_directions(ax: np.ndarray, ay: np.ndarray, theta_j: np.ndarray,
                    theta_k: np.ndarray, which: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column, the unit direction of each anchor's ray toward the target:
    anchors (ax, ay) of shape (3, T) in id order, one column per anchor
    triple, and column ``which[i]`` the triple of column i of the angles;
    for anchor i with other anchors j < k (``OTHERS[i]``), ``theta_j[i]``
    and ``theta_k[i]`` are the estimated angles at i between the target and
    j, and k.

    Anchor i's baseline to j is rotated by theta_j, counterclockwise or
    clockwise, whichever candidate's angle to the direction i -> k is closer
    to theta_k (ties go counterclockwise).
    """
    ux, uy = (u[..., which] for u in _unit(ax, ay, OTHERS.T))  # toward j, toward k
    bx, by = ux[0], uy[0]
    ct, st = libm(math.cos, theta_j), libm(math.sin, theta_j)
    # the counterclockwise and the clockwise candidate, by cos(-t) = cos t
    # and sin(-t) = -sin t, which the C library's cos and sin keep exactly
    st = np.stack((st, -st))
    dx, dy = bx * ct - by * st, bx * st + by * ct
    err = np.abs(_angle_between(dx, dy, ux[1], uy[1]) - theta_k)
    pick = err[0] <= err[1]
    dx, dy = np.where(pick, dx[0], dx[1]), np.where(pick, dy[0], dy[1])
    norm = hypot(dx, dy)  # make_ray's normalisation
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
    gap = hypot(np.maximum(np.maximum(b[0] - px, 0.0), px - b[1]),  # geometry.box_distance
                np.maximum(np.maximum(b[2] - py, 0.0), py - b[3]))
    near = np.argmin(np.where(hit[:, out], gap, math.inf), axis=0), np.arange(out.size)
    case[out] = ALL_OUTSIDE
    x[out] = np.clip(px[near], b[0], b[1])
    y[out] = np.clip(py[near], b[2], b[3])
    return x, y, case, (hx, hy, hit)


def localize_all(dep: Deployment, g: NetworkGraph) -> RailResults:
    """Run the full pipeline for every unknown node of one run: the chunk
    of one run."""
    return localize_chunk(dep.coords[None], dep.anchor_ids, GraphChunk.of(g))


def localize_chunk(coords: np.ndarray, anchor_ids: Sequence[int], g: GraphChunk) -> RailResults:
    """Run the full pipeline for every unknown node of B runs of n nodes,
    as array passes over all their targets: ``coords`` (B, n, 2) holds the
    runs' positions, ``anchor_ids`` their anchors (the same ids in every
    run) and ``g`` their graphs. Column ``b * m + t`` of the result is
    target t of run b, for the m unknowns of a run in id order.

    When more than three anchors exist, each target uses its three nearest
    anchors by estimated shortest distance. One ``dijkstra_trees`` call
    gives the anchors' trees of every run and one ``_angles`` call reads
    all six angles of every target, so each run's graph sees at most two
    scipy Dijkstra calls, and the second has no anchor among its sources.
    """
    runs, n = coords.shape[:2]
    anchor_ids = np.array(anchor_ids, dtype=np.intp)
    n_anchors = len(anchor_ids)
    targets = np.setdiff1d(np.arange(n), anchor_ids)
    m = len(targets)
    run = np.repeat(np.arange(runs), m)  # per column
    cols = np.tile(targets, runs)
    # forest row b * n_anchors + a: anchor a of run b
    anchors = _Forest.of(g, g.global_ids(anchor_ids))
    sd = anchors.dist.reshape(runs, n_anchors, n)[:, :, targets]

    # the three nearest anchors by SD (ties: anchor_ids order), in id order
    nearest = np.argsort(sd.transpose(1, 0, 2).reshape(n_anchors, -1), axis=0,
                         kind="stable")[:3]
    nearest = np.take_along_axis(nearest, np.argsort(anchor_ids[nearest], axis=0), axis=0)
    chosen = anchor_ids[nearest]  # (3, B m) anchor ids
    rows = run * n_anchors + nearest  # their forest rows
    # the distinct (run, triple) pairs, in (run, n0, n1, n2) order, and each
    # target's one
    _, first, which = np.unique(rows[0] * n_anchors ** 2 + nearest[1] * n_anchors + nearest[2],
                                return_index=True, return_inverse=True)
    triples, ends = rows[:, first], chosen[:, first]
    tx, ty = coords[run[first], ends, 0], coords[run[first], ends, 1]
    i, j = PAIRS
    e = _per_hop_errors(tx, ty, anchors.dist[triples[i], ends[j]],
                        anchors.hops[triples[i], ends[j]])[which]

    ax, ay = coords[run, chosen, 0], coords[run, chosen, 1]
    box = _boxes(ax, ay, anchors.dist[rows, cols])[0]

    # the six angle items of every target, at anchor i toward OTHERS[i, 0]
    # and OTHERS[i, 1], stacked as (anchor, other, target)
    at, ref = np.repeat(np.arange(3), 2), OTHERS.ravel()
    theta = _angles(g, anchors, rows[at].ravel(), chosen[ref].ravel(),
                    np.tile(cols, 6), np.tile(e, 6))[0].reshape(3, 2, runs * m)
    ray_dx, ray_dy = _ray_directions(tx, ty, theta[:, 0], theta[:, 1], which)
    rays = (ax, ay, ray_dx, ray_dy)
    x, y, case, hits = _locate(box, rays)
    return RailResults(cols, x, y, case, box, rays, hits)
