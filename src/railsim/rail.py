"""The RAIL localization pipeline: per-target bounding box, system per-hop
error, RSSI-inferred angles with hop correction, orientation disambiguation,
ray construction, and the four-case precise-location rule.

Every stage is an array pass over all targets of a chunk of same-size
runs, whose graphs are the blocks of one ``NetworkGraph``; a node keeps
its id in its run's graph. ``localize_chunk`` reads the graph and the
anchors' positions alone and composes the paper's three steps,
``_anchor_geometry``, ``_triangle_angles`` and ``_place``, into
``RailResults``: the estimates, case codes, boxes, rays and ray-pair hits
as arrays. ``localize_all`` is the chunk of one run. ``corrected_angle``
is the one scalar entry point, a 0-d call of the angle formula.
Transcendentals and distances (``math.hypot``) go through
``geometry.libm``, and every expression keeps the scalar operand order,
so the passes give the results of the per-target scalar formulas in
``tests/oracle.py`` bit for bit. Max, min, clip and argmin need no such
care: they return one of their finite operands exactly.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import DEFAULT_TOL, _finite, _floats, _require, _whole, libm, square_box
from .network import Deployment, NetworkGraph, Trees, Unreachable, _node_ids, dijkstra_trees

MIN_SIDE = 0.01  # floor for corrected triangle sides, keeps arccos finite
SIDE_MAX = 1e150  # corrected_angle's bound on sides and e: their squares stay finite
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
    """Per column, ``square_box`` of the anchor squares of half-width sd
    around (ax, ay) (rows: anchors), as (4, m) bounds, and where it is empty;
    an empty box falls back to the square of the first anchor with the
    smallest sd.
    """
    box, empty = square_box(ax, ay, sd)
    near = np.argmin(sd, axis=0)[None]
    fallback = square_box(*(np.take_along_axis(a, near, axis=0) for a in (ax, ay, sd)))[0]
    return np.where(empty, fallback, box), empty


def _per_hop_errors(true: np.ndarray, sd: np.ndarray, hops: np.ndarray) -> np.ndarray:
    """Per column, the system per-hop error of an anchor triple: the average
    per-hop excess of the pairwise shortest distances over the true ones,
    clamped at 0. The true distances, SDs and hop counts of the anchor
    pairs are (3, m) in (01, 02, 12) order; each hop count is at least 1,
    as the anchors of a triple are distinct and reachable.
    """
    hop_sum = hops[0] + hops[1] + hops[2]
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
    triangle inequalities map to 0 or pi. ValueError, naming the argument,
    unless the sides and e are finite real numbers in [0, SIDE_MAX] and the
    hop counts integers in [0, 2**63), none of them a bool.
    """
    for name, x in zip("abce", (a, b, c, e)):
        _require(name, x, _finite(x) and x >= 0, "a finite real number >= 0")
        _require(name, x, x <= SIDE_MAX, f"at most {SIDE_MAX:g}")
    for name, h in (("hops_a", hops_a), ("hops_b", hops_b), ("hops_c", hops_c)):
        _require(name, h, _whole(h, 0) and h < 2**63, "an integer in [0, 2**63)")
    return float(_corrected_angles(float(a), float(b), float(c), float(e), hops_a, hops_b, hops_c))


def _ancestors(forest: Trees, block: np.ndarray, slot: np.ndarray, v: np.ndarray,
               k: np.ndarray) -> np.ndarray:
    """Per item, as a new array, the node k hops from the root of tree [block,
    slot] on its path to v: each pass moves the items still deeper one hop up."""
    pred = forest.pred.reshape(-1)  # parent: pred[base + v], flat 1-D gathers
    base = np.ravel_multi_index((block, slot), forest.pred.shape[:2]) * forest.pred.shape[2]
    v, steps = v.copy(), forest.hops[block, slot, v] - k
    deep, done = np.flatnonzero(steps > 0), 0
    while deep.size:
        v[deep] = pred[base[deep] + v[deep]]
        done += 1
        deep = deep[steps[deep] > done]
    return v


def _angles(g: NetworkGraph, forest: Trees, block: np.ndarray, slot: np.ndarray,
            ref: np.ndarray, target: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per item, the estimated angle at the source of tree [block, slot] of
    ``forest`` between the directions to ``ref`` and to ``target`` (nodes
    of block ``block`` of ``g``), and the prefix length K.

    The two path-prefix segments formed by the first K <= 3 hops of the
    shortest paths toward ``ref`` and toward ``target``, together with the
    connection between their hop-K nodes, form the triangle the angle is
    read from; each side is shortened by the per-hop error ``e`` before
    applying the law of cosines. K shrinks when either path is shorter than
    3 hops.
    """
    k = np.minimum(np.minimum(forest.hops[block, slot, ref], forest.hops[block, slot, target]), 3)

    # a prefix length is the hop-K node's tree distance: Dijkstra summed the
    # same K edges in path order
    node_a, node_b = (_ancestors(forest, block, slot, v, k) for v in (ref, target))
    a_len, b_len = forest.dist[block, slot, node_a], forest.dist[block, slot, node_b]
    c_len, c_hops = _connections(g, forest, block, node_a, node_b)
    return _corrected_angles(a_len, b_len, c_len, e, k, k, c_hops), k


def _connections(g: NetworkGraph, forest: Trees, block: np.ndarray, u: np.ndarray,
                 v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per item, the length and hop count of the connection from node u to
    node v of block ``block`` of g: 0 and 0 hops where u == v, a direct
    link's weight and 1 hop, or else their multi-hop shortest distance and
    hop count. A multi-hop connection reads u's tree in ``forest`` where u
    is one of its sources, and the rest take one ``dijkstra_trees`` call per
    block over their distinct sources; one block's trees at a time, since
    those of all blocks at once would be a chunk's largest arrays.
    """
    k = len(forest.sources)
    c_len = np.zeros(len(u))
    c_hops = np.zeros(len(u), dtype=np.intp)
    apart = u != v
    found, pos = g.edge_index(block, u, v)
    direct = apart & found
    c_len[direct] = g.weights[pos[direct]]
    c_hops[direct] = 1
    # same-hop nodes out of range of each other
    far = np.flatnonzero(apart & ~found)
    slot = np.full(g.node_count, -1)  # each forest source's index in ``sources``
    slot[forest.sources] = np.arange(k)
    a = slot[u[far]]
    root = a >= 0
    own, far = far[root], far[~root]
    c_len[own] = forest.dist[block[own], a[root], v[own]]
    c_hops[own] = forest.hops[block[own], a[root], v[own]]
    for b in np.unique(block[far]).tolist():
        item = far[block[far] == b]
        sources, row = np.unique(u[item], return_inverse=True)
        t = dijkstra_trees(g, sources, b)
        c_len[item] = t.dist[0, row, v[item]]
        c_hops[item] = t.hops[0, row, v[item]]
    return c_len, c_hops


def _ray_directions(ax: np.ndarray, ay: np.ndarray, dist: np.ndarray, theta_j: np.ndarray,
                    theta_k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column, the unit direction of each anchor's ray toward the target:
    anchors (ax, ay) of shape (3, m) in id order, and ``dist`` (3, m) their
    distances in (01, 02, 12) order; for anchor i with other anchors j < k
    (``OTHERS[i]``), ``theta_j[i]`` and ``theta_k[i]`` are the estimated
    angles at i between the target and j, and k.

    Anchor i's baseline to j is rotated by theta_j, counterclockwise or
    clockwise, whichever candidate's angle to the direction i -> k is closer
    to theta_k (ties go counterclockwise).
    """
    # the unit vectors toward j and toward k: pair (a, b), a < b, is row a + b - 1
    d = dist[OTHERS.T + np.arange(3) - 1]
    ux, uy = (ax[OTHERS.T] - ax) / d, (ay[OTHERS.T] - ay) / d
    bx, by = ux[0], uy[0]
    ct, st = libm(math.cos, theta_j), libm(math.sin, theta_j)
    # the counterclockwise and the clockwise candidate, by cos(-t) = cos t
    # and sin(-t) = -sin t, which the C library's cos and sin keep exactly
    st = np.stack((st, -st))
    dx, dy = bx * ct - by * st, bx * st + by * ct
    err = np.abs(libm(math.acos, np.clip(dx * ux[1] + dy * uy[1], -1.0, 1.0)) - theta_k)
    pick = err[0] <= err[1]
    dx, dy = np.where(pick, dx[0], dx[1]), np.where(pick, dy[0], dy[1])
    norm = libm(math.hypot, dx, dy)  # the normalisation of oracle.make_ray
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
    # oracle.ray_pair_intersection for every pair (i, j), i < j
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

    # cases 1 and 2: the mean of the inside points, summed in pair order
    # as oracle.centroid does (one point divided by 1 is itself)
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
    gap = libm(math.hypot, np.maximum(np.maximum(b[0] - px, 0.0), px - b[1]),
               np.maximum(np.maximum(b[2] - py, 0.0), py - b[3]))  # oracle.box_distance
    near = np.argmin(np.where(hit[:, out], gap, math.inf), axis=0), np.arange(out.size)
    case[out] = ALL_OUTSIDE
    x[out] = np.clip(px[near], b[0], b[1])
    y[out] = np.clip(py[near], b[2], b[3])
    return x, y, case, (hx, hy, hit)


class _AnchorGeometry(NamedTuple):
    """The anchor ``forest`` (run, anchor slot, node) and, per column (target
    t of run b at b * m + t), its ``run`` and target id ``cols``, the slots
    ``nearest`` and ids ``chosen`` of its three nearest anchors in id order,
    their ``ax``, ``ay``, pair distances ``dist`` (01, 02, 12) and shortest
    distances ``sd`` to the target, all (3, columns), the per-hop error
    ``e``, and ``_boxes``' ``box`` (4, columns) and ``empty`` mask."""

    forest: Trees
    run: np.ndarray
    cols: np.ndarray
    nearest: np.ndarray
    chosen: np.ndarray
    ax: np.ndarray
    ay: np.ndarray
    dist: np.ndarray
    sd: np.ndarray
    e: np.ndarray
    box: np.ndarray
    empty: np.ndarray


def _anchor_geometry(anchor_x: np.ndarray, anchor_y: np.ndarray, anchor_ids: np.ndarray,
                     g: NetworkGraph) -> _AnchorGeometry:
    """RAIL's first stage, over ``localize_chunk``'s checked inputs. When more
    than three anchors exist, each target uses its three nearest anchors by
    estimated shortest distance. One ``dijkstra_trees`` call gives every
    run's anchor trees, so each run's block sees at most two scipy Dijkstra
    calls, and the second (``_triangle_angles``') has no anchor among its
    sources.
    """
    targets = np.setdiff1d(np.arange(g.node_count), anchor_ids)
    run = np.repeat(np.arange(g.blocks), len(targets))  # per column
    cols = np.tile(targets, g.blocks)
    forest = dijkstra_trees(g, anchor_ids)
    sd = forest.dist[:, :, targets]

    # the three nearest anchors by SD (ties: anchor_ids order), in id order
    nearest = np.argsort(sd.transpose(1, 0, 2).reshape(len(anchor_ids), -1), axis=0,
                         kind="stable")[:3]
    nearest = np.take_along_axis(nearest, np.argsort(anchor_ids[nearest], axis=0), axis=0)
    chosen = anchor_ids[nearest]  # (3, B m) anchor ids
    i, j = PAIRS  # an anchor pair's SD is read from the tree of its lower id
    pair_sd, target_sd = forest.dist[run, nearest[i], chosen[j]], forest.dist[run, nearest, cols]
    ends = np.broadcast_to(cols, nearest.shape)
    for a, b, d in ((chosen[i], chosen[j], pair_sd), (chosen, ends, target_sd)):
        if np.isinf(d).any():
            k = np.isinf(d).argmax()
            raise Unreachable(f"node {b.flat[k]} unreachable from {a.flat[k]}")

    ax, ay = anchor_x[nearest, run], anchor_y[nearest, run]
    dist = libm(math.hypot, ax[i] - ax[j], ay[i] - ay[j])  # geometry.distance
    if (dist == 0).any():
        raise DegenerateGeometry("coincident anchors")
    e = _per_hop_errors(dist, pair_sd, forest.hops[run, nearest[i], chosen[j]])
    return _AnchorGeometry(forest, run, cols, nearest, chosen, ax, ay, dist, target_sd, e,
                           *_boxes(ax, ay, target_sd))


def _triangle_angles(g: NetworkGraph, geo: _AnchorGeometry) -> tuple[np.ndarray, np.ndarray]:
    """RAIL's second stage: one ``_angles`` call for the six angles θ of
    every target and their prefix lengths K, each (anchor, other, column):
    θ[i, o] is the angle at chosen anchor i between the directions to
    anchor ``OTHERS[i, o]`` and to the target."""
    at, ref = np.repeat(np.arange(3), 2), OTHERS.ravel()
    theta, k = _angles(g, geo.forest, np.tile(geo.run, 6), geo.nearest[at].ravel(),
                       geo.chosen[ref].ravel(), np.tile(geo.cols, 6), np.tile(geo.e, 6))
    return theta.reshape(3, 2, len(geo.cols)), k.reshape(3, 2, len(geo.cols))


def _place(geo: _AnchorGeometry, theta: np.ndarray):
    """RAIL's third stage: the chosen anchors' rays turned by the angles θ
    (anchor, other, column), and ``_locate``'s four-case rule in the box,
    as (ray_x, ray_y, ray_dx, ray_dy) and (x, y, case, hits)."""
    rays = (geo.ax, geo.ay, *_ray_directions(geo.ax, geo.ay, geo.dist, theta[:, 0], theta[:, 1]))
    return rays, _locate(geo.box, rays)


def localize_all(dep: Deployment, g: NetworkGraph) -> RailResults:
    """``localize_chunk`` of one run, whose graph ``g`` is one block, from
    ``dep``'s anchor positions; ValueError unless dep has g's node count."""
    if len(dep.coords) != g.node_count:
        raise ValueError(f"{len(dep.coords)} deployed nodes do not match a graph of {g.node_count}")
    return localize_chunk(*dep.coords[list(dep.anchor_ids)].T[..., None], dep.anchor_ids, g)


def localize_chunk(anchor_x: np.ndarray, anchor_y: np.ndarray, anchor_ids: Sequence[int],
                   g: NetworkGraph) -> RailResults:
    """Run the full pipeline for every unknown node of B runs of n nodes,
    as array passes over all their targets: ``anchor_x`` and ``anchor_y``
    (anchor, run) hold the positions of the anchors ``anchor_ids`` (the
    same ids in every run), as the baselines take them, and ``g`` the
    runs' graphs, block b for run b. Column ``b * m + t`` of the result is
    target t of run b, for the m unknowns of a run in id order. It
    composes ``_anchor_geometry``, ``_triangle_angles`` and ``_place``.

    Raises ``ValueError`` for an anchor id that is not an integer in
    [0, n), for fewer than 3 distinct anchors or a repeated anchor id, and
    unless both anchor arrays are finite and (len(anchor_ids), g.blocks);
    ``Unreachable`` where a chosen anchor cannot reach a partner anchor or
    its target, and ``DegenerateGeometry`` where two chosen anchors
    coincide.
    """
    runs, n = g.blocks, g.node_count
    anchor_ids = _node_ids(n, anchor_ids)
    n_anchors = len(anchor_ids)
    ids, counts = np.unique(anchor_ids, return_counts=True)
    if len(ids) < 3:
        raise ValueError(f"RAIL needs 3 distinct anchors, got {len(ids)}")
    if (counts > 1).any():
        raise ValueError(f"anchor id {ids[counts > 1][0]} is given more than once")
    anchor_x, anchor_y = _floats(anchor_x), _floats(anchor_y)
    if anchor_x.shape != (n_anchors, runs) or anchor_y.shape != (n_anchors, runs):
        raise ValueError(f"anchor_x and anchor_y must be (anchors, runs) = ({n_anchors}, "
                         f"{runs}) arrays, got {anchor_x.shape} and {anchor_y.shape}")
    if not (np.isfinite(anchor_x).all() and np.isfinite(anchor_y).all()):
        raise ValueError("non-finite anchor position")
    geo = _anchor_geometry(anchor_x, anchor_y, anchor_ids, g)
    rays, (x, y, case, hits) = _place(geo, _triangle_angles(g, geo)[0])
    return RailResults(geo.cols, x, y, case, geo.box, rays, hits)
