"""Deployment generation, the one-hop connectivity graph with RSSI-estimated
edge weights, and multi-hop queries: the shortest-path trees of a batch of
sources from one scipy call (``dijkstra_trees``) and one minimum-hop flooding
tree (``hop_tree_ranging``).

A deployment holds its node positions as one (n, 2) coordinate array, and
the rejection sampler checks each attempt's anchors with array passes; the
per-node ``Point`` objects are built only when ``Deployment.nodes`` is read.

Edge weights come from the path-loss round trip, so with sigma = 0 they equal
the true pairwise distances (up to float round-off) and every multi-hop
shortest distance upper-bounds the straight-line distance.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components, dijkstra
from scipy.spatial import cKDTree

from .geometry import Point, libm
from .radio import PathLossModel, estimate_distance, rssi_at

# every anchor triple must span a triangle larger than this (m^2)
ANCHOR_AREA_MIN = 25.0


class GenerationFailed(Exception):
    """Deployment constraints could not be satisfied within max_attempts."""


class Unreachable(Exception):
    """A query target has no path from the source node."""


@dataclass(frozen=True, eq=False)
class Deployment:
    """Ground truth of one simulated world: node i sits at ``coords[i]``.

    ``coords`` is stored as a read-only (n, 2) float array (a copy of what
    the caller passed). Anchors occupy the first ``len(anchor_ids)`` node
    slots by construction, but consumers should rely on ``anchor_ids`` only.
    """

    width: float
    height: float
    coords: np.ndarray
    anchor_ids: tuple[int, ...]
    comm_range: float

    def __post_init__(self):
        xy = np.array(self.coords, dtype=float)
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise ValueError(f"coords must have shape (n, 2), not {xy.shape}")
        if not np.isfinite(xy).all():
            raise ValueError("non-finite node position")
        xy.flags.writeable = False
        object.__setattr__(self, "coords", xy)

    def __eq__(self, other):
        if not isinstance(other, Deployment):
            return NotImplemented
        return (
            (self.width, self.height, self.anchor_ids, self.comm_range)
            == (other.width, other.height, other.anchor_ids, other.comm_range)
            and np.array_equal(self.coords, other.coords)
        )

    @property
    def unknown_ids(self) -> tuple[int, ...]:
        anchors = set(self.anchor_ids)
        return tuple(i for i in range(len(self.coords)) if i not in anchors)

    @cached_property
    def nodes(self) -> tuple[Point, ...]:
        """The node positions as Points, for the demo and the scene render."""
        return tuple(Point(x, y) for x, y in self.coords.tolist())

    @cached_property
    def links(self) -> np.ndarray:
        """(pairs, 2) array of the node pairs (i, j), i < j, at most
        comm_range apart, in no particular order."""
        return cKDTree(self.coords).query_pairs(self.comm_range, output_type="ndarray")

    def to_json_dict(self) -> dict:
        return {
            "width": self.width,
            "height": self.height,
            "nodes": self.coords.tolist(),
            "anchor_ids": list(self.anchor_ids),
            "comm_range": self.comm_range,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Deployment":
        return cls(
            width=float(d["width"]),
            height=float(d["height"]),
            coords=d["nodes"],
            anchor_ids=tuple(int(i) for i in d["anchor_ids"]),
            comm_range=float(d["comm_range"]),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, s: str) -> "Deployment":
        return cls.from_json_dict(json.loads(s))


@dataclass(frozen=True)
class RangingResult:
    """Shortest estimated multi-hop distance from an anchor to one node."""

    anchor_id: int
    target_id: int
    shortest_distance: float
    hop_count: int
    path: tuple[int, ...]


class NetworkGraph:
    """Symmetric one-hop adjacency with per-edge estimated distances, held as
    one CSR matrix whose rows are sorted by neighbor id.

    ``adjacency[u]`` is row u as a sorted list of (neighbor, weight) tuples,
    built on first use. Parallel entries keep their given order, except that
    the adjacency constructor puts the smallest weight first.
    """

    def __init__(self, adjacency: Sequence[Sequence[tuple[int, float]]]):
        tails = np.array([u for u, nbrs in enumerate(adjacency) for _ in nbrs], dtype=np.intp)
        heads = np.array([v for nbrs in adjacency for v, _ in nbrs], dtype=np.intp)
        weights = np.array([w for nbrs in adjacency for _, w in nbrs], dtype=float)
        order = np.argsort(weights, kind="stable")  # parallel entries: smallest weight first
        self._set_edges(len(adjacency), tails[order], heads[order], weights[order])

    @classmethod
    def from_edges(cls, n: int, tails: np.ndarray, heads: np.ndarray,
                   weights: np.ndarray) -> "NetworkGraph":
        """The graph with one directed entry per (tail, head, weight) triple."""
        g = cls.__new__(cls)
        g._set_edges(n, tails, heads, weights)
        return g

    def _set_edges(self, n, tails, heads, weights) -> None:
        keys = tails.astype(np.int64) * n + heads
        order = np.argsort(keys, kind="stable")
        tails, heads = tails[order], heads[order]
        indptr = np.concatenate(([0], np.cumsum(np.bincount(tails, minlength=n))))
        self.node_count = n
        self.matrix = csr_matrix((weights[order], heads, indptr), shape=(n, n), dtype=float)
        self.edge_rows = tails  # tail node of each CSR entry
        # one sorted key per CSR entry, then a sentinel no edge query reaches
        self._keys = np.append(keys[order], n * n)

    @cached_property
    def adjacency(self) -> list[list[tuple[int, float]]]:
        pairs = list(zip(self.matrix.indices.tolist(), self.matrix.data.tolist()))
        bounds = self.matrix.indptr.tolist()
        return [pairs[bounds[u]:bounds[u + 1]] for u in range(self.node_count)]

    def neighbors(self, u: int) -> list[tuple[int, float]]:
        return self.adjacency[u]

    def edge_index(self, u, v) -> tuple[np.ndarray, np.ndarray]:
        """(found, CSR position) of the first entry u -> v, per element of
        the node arrays u and v; the position is meaningless where not found.
        """
        keys = np.asarray(u, dtype=np.int64) * self.node_count + v
        pos = np.searchsorted(self._keys, keys)
        return self._keys[pos] == keys, pos

    def edge_weight(self, u: int, v: int) -> Optional[float]:
        found, pos = self.edge_index(u, v)
        return float(self.matrix.data[pos]) if found else None


def _components_ok(dep: Deployment) -> bool:
    """True when every node can reach every other (so every anchor) over
    one-hop links."""
    n, pairs = len(dep.coords), dep.links
    links = csr_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    return connected_components(links, directed=False, return_labels=False) == 1


def generate_deployment(
    width: float,
    height: float,
    n_unknown: int,
    n_anchors: int,
    comm_range: float,
    seed,
    max_attempts: int = 1000,
) -> Deployment:
    """Sample uniform deployments until all placement constraints hold.

    Constraints: anchors pairwise farther apart than comm_range, every anchor
    triple spans a triangle of area > ANCHOR_AREA_MIN (keeps the baseline
    linear system well-conditioned), and every node reaches every anchor
    through the connectivity graph.
    """
    if n_anchors < 3:
        raise ValueError("at least 3 anchors required")
    if width <= 0 or height <= 0 or comm_range <= 0:
        raise ValueError("area dimensions and range must be positive")

    rng = np.random.default_rng(seed)
    n_total = n_anchors + n_unknown
    anchor_ids = tuple(range(n_anchors))
    pi, pj = np.triu_indices(n_anchors, 1)  # every anchor pair
    ti, tj, tk = np.array(list(itertools.combinations(range(n_anchors), 3))).T

    for _ in range(max_attempts):
        coords = rng.uniform((0.0, 0.0), (width, height), size=(n_total, 2))
        x, y = coords[:n_anchors, 0], coords[:n_anchors, 1]
        if (libm(math.hypot, x[pi] - x[pj], y[pi] - y[pj]) <= comm_range).any():
            continue
        # twice the signed area of each anchor triangle
        cross = (x[tj] - x[ti]) * (y[tk] - y[ti]) - (x[tk] - x[ti]) * (y[tj] - y[ti])
        if (np.abs(cross) / 2.0 <= ANCHOR_AREA_MIN).any():
            continue
        dep = Deployment(width, height, coords, anchor_ids, comm_range)
        if _components_ok(dep):  # computes dep.links, which build_graph reads
            return dep
    raise GenerationFailed(
        f"no valid deployment in {max_attempts} attempts "
        f"(area {width}x{height}, {n_unknown} unknown, {n_anchors} anchors, R={comm_range})"
    )


def build_graph(
    dep: Deployment,
    model: PathLossModel = PathLossModel(),
    rng: Optional[np.random.Generator] = None,
) -> NetworkGraph:
    """One symmetric edge per in-range pair, weighted by the RSSI round trip.

    Each edge gets a single RSSI measurement (shared by both directions);
    noise draws are consumed in sorted (i, j) edge order so a fixed rng seed
    yields a fixed graph. Two co-located nodes (an in-range pair at distance
    0) have no RSSI and raise ValueError naming both ids.
    """
    coords = dep.coords
    n = len(coords)
    pairs = dep.links
    pairs = pairs[np.argsort(pairs[:, 0] * n + pairs[:, 1])]
    i, j = pairs[:, 0], pairs[:, 1]

    if rng is not None and model.sigma > 0:
        noise = rng.normal(0.0, model.sigma, size=len(pairs))
    else:
        noise = np.zeros(len(pairs))

    delta = coords[i] - coords[j]
    true_d = libm(math.hypot, delta[:, 0], delta[:, 1])
    colocated = np.flatnonzero(true_d == 0)
    if colocated.size:
        k = colocated[0]
        raise ValueError(f"nodes {i[k]} and {j[k]} are co-located: zero distance has no RSSI")
    est = estimate_distance(model, rssi_at(model, true_d, noise))
    return NetworkGraph.from_edges(
        n, np.concatenate((i, j)), np.concatenate((j, i)), np.concatenate((est, est))
    )


def _reconstruct(pred: list[int], v: int) -> tuple[int, ...]:
    path = [v]
    while pred[v] >= 0:
        v = pred[v]
        path.append(v)
    return tuple(reversed(path))


def _depths(pred: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Hop count of every node in each row's tree given by pred (-1 off the
    tree; row r rooted at sources[r]) by pointer jumping over the flattened
    rows: each pass doubles how far every node has looked up.
    """
    k, n = pred.shape
    flat = pred.ravel()
    hops = (flat >= 0).astype(np.intp)  # edges to ``up``
    up = np.where(flat >= 0, flat + np.repeat(np.arange(k) * n, n), -1)
    live = np.flatnonzero(up >= 0)
    while live.size:
        nxt = up[live]
        hops[live] += hops[nxt]
        up[live] = up[nxt]
        live = live[up[live] >= 0]
    hops[flat < 0] = -1
    hops = hops.reshape(k, n)
    hops[np.arange(k), sources] = 0
    return hops


def _resolve_ties(g: NetworkGraph, dist: np.ndarray, pred: np.ndarray) -> None:
    """Re-resolve, in place, the pred of every node of one tree with two or
    more exact-tight predecessors to the one on the lexicographically
    smallest path; in increasing-distance order, so every candidate path is
    already final."""
    m = g.matrix
    tight = dist[g.edge_rows] + m.data == dist[m.indices]
    n_tight = np.bincount(m.indices[tight], minlength=g.node_count)
    ties = np.flatnonzero(n_tight >= 2)
    ties = ties[np.isfinite(dist[ties])]  # inf + w == inf is no tie
    if not ties.size:
        return
    d, pl = dist.tolist(), pred.tolist()
    bounds = m.indptr.tolist()
    for v in ties[np.argsort(dist[ties], kind="stable")].tolist():
        row = slice(bounds[v], bounds[v + 1])
        nbrs = zip(m.indices[row].tolist(), m.data[row].tolist())
        tight_preds = [u for u, w in nbrs if d[u] + w == d[v]]
        pl[v] = min(tight_preds, key=lambda u: _reconstruct(pl, u) + (v,))
    pred[:] = pl


def dijkstra_trees(
    g: NetworkGraph, sources: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shortest paths from each source, from one scipy call; returns (dist,
    pred, hops) arrays of shape (len(sources), n), row r for sources[r].

    Distance ties are broken so the recovered path is the lexicographically
    smallest node-id sequence among all minimum-distance paths. scipy's
    Dijkstra runs each source on its own and accumulates ``dist[u] + w``
    exactly as a textbook one does, so only nodes with two or more
    exact-tight predecessors need their pred re-resolved, one row at a time.
    Unreachable nodes have dist inf, pred and hops -1.
    """
    sources = np.asarray(sources, dtype=np.intp).reshape(-1)
    dist, p = dijkstra(g.matrix, indices=sources, return_predecessors=True)
    pred = np.where(p < 0, -1, p).astype(np.intp)
    for d, pr in zip(dist, pred):
        _resolve_ties(g, d, pr)
    return dist, pred, _depths(pred, sources)


def shortest_ranging(g: NetworkGraph, source: int, targets: Sequence[int]) -> list[RangingResult]:
    """Shortest estimated distances, hop counts and paths to each target,
    read from ``dijkstra_trees``.
    """
    dist, pred, hops = (a[0] for a in dijkstra_trees(g, [source]))
    pred = pred.tolist()
    out = []
    for t in targets:
        if math.isinf(dist[t]):
            raise Unreachable(f"node {t} unreachable from {source}")
        out.append(RangingResult(source, t, float(dist[t]), int(hops[t]), _reconstruct(pred, t)))
    return out


def hop_tree_ranging(g: NetworkGraph, source: int) -> tuple[np.ndarray, np.ndarray]:
    """Accumulated edge estimates along the BFS (minimum-hop) flooding tree.

    Models hop-count-propagation protocols: each node keeps the first beacon
    it hears (deterministically, from its smallest-id discovered neighbor)
    and accumulates per-hop RSSI distances along that tree path. Unlike
    ``dijkstra_trees`` the path is hop-minimal, not distance-minimal, so
    the accumulated distance overestimates more strongly.

    Returns (accumulated distance, hop count) arrays; the hop counts are
    the BFS minimum hops. Raises Unreachable if the graph is disconnected
    from the source.
    """
    n = g.node_count
    order, pred = breadth_first_order(g.matrix, source, return_predecessors=True)
    if len(order) < n:
        missing = np.setdiff1d(np.arange(n), order)
        raise Unreachable(f"nodes {missing[:5].tolist()} unreachable from {source}")
    # scipy scans each row in CSR (neighbor-id) order and keeps the first
    # discoverer, as a FIFO flood does. So each hop level is a contiguous run
    # of ``order`` whose parents form the previous run, and the distances
    # accumulate one level per numpy pass, indexed by position in ``order``.
    child = order[1:]
    step = g.matrix.data[g.edge_index(pred[child], child)[1]]
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    parent_rank = rank[pred[child]]  # non-decreasing
    bounds = [0, 1]  # level h holds ranks bounds[h]:bounds[h + 1]
    while bounds[-1] < n:
        bounds.append(1 + int(np.searchsorted(parent_rank, bounds[-1])))
    acc = np.zeros(n)
    for lo, hi in zip(bounds[1:], bounds[2:]):
        acc[lo:hi] = acc[parent_rank[lo - 1:hi - 1]] + step[lo - 1:hi - 1]
    dist = np.empty(n)
    hops = np.empty(n, dtype=np.intp)
    dist[order] = acc
    hops[order] = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    return dist, hops
