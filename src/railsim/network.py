"""Deployment generation, the one-hop connectivity graph with RSSI-estimated
edge weights, and multi-hop queries: one shortest-path tree per source
(``dijkstra_tree``) and one minimum-hop flooding tree (``hop_tree_ranging``).

Edge weights come from the path-loss round trip, so with sigma = 0 they equal
the true pairwise distances (up to float round-off) and every multi-hop
shortest distance upper-bounds the straight-line distance.
"""

from __future__ import annotations

import itertools
import json
import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import cKDTree

from .geometry import Point, distance
from .radio import PathLossModel, estimate_distance, rssi_at


class GenerationFailed(Exception):
    """Deployment constraints could not be satisfied within max_attempts."""


class Unreachable(Exception):
    """A query target has no path from the source node."""


@dataclass(frozen=True)
class Deployment:
    """Ground truth of one simulated world.

    Anchors occupy the first ``len(anchor_ids)`` node slots by construction,
    but consumers should rely on ``anchor_ids`` only.
    """

    width: float
    height: float
    nodes: tuple[Point, ...]
    anchor_ids: tuple[int, ...]
    comm_range: float

    @property
    def unknown_ids(self) -> tuple[int, ...]:
        anchors = set(self.anchor_ids)
        return tuple(i for i in range(len(self.nodes)) if i not in anchors)

    def to_json_dict(self) -> dict:
        return {
            "width": self.width,
            "height": self.height,
            "nodes": [[p.x, p.y] for p in self.nodes],
            "anchor_ids": list(self.anchor_ids),
            "comm_range": self.comm_range,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Deployment":
        return cls(
            width=float(d["width"]),
            height=float(d["height"]),
            nodes=tuple(Point(float(x), float(y)) for x, y in d["nodes"]),
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
    """Symmetric one-hop adjacency with per-edge estimated distances, kept
    both as sorted per-node lists and as one CSR matrix for scipy.
    """

    def __init__(self, adjacency: Sequence[Sequence[tuple[int, float]]]):
        self.adjacency = [sorted(nbrs) for nbrs in adjacency]
        self.node_count = n = len(self.adjacency)
        degree = np.array([len(nbrs) for nbrs in self.adjacency], dtype=np.intp)
        indptr = np.concatenate(([0], np.cumsum(degree)))
        weights = [w for nbrs in self.adjacency for _, w in nbrs]
        heads = [v for nbrs in self.adjacency for v, _ in nbrs]
        self.matrix = csr_matrix((weights, heads, indptr), shape=(n, n), dtype=float)
        self.edge_rows = np.repeat(np.arange(n), degree)  # tail node of each CSR entry

    def neighbors(self, u: int) -> list[tuple[int, float]]:
        return self.adjacency[u]

    def edge_weight(self, u: int, v: int) -> Optional[float]:
        row = self.adjacency[u]
        i = bisect_left(row, (v,))
        return row[i][1] if i < len(row) and row[i][0] == v else None


def _triangle_area(a: Point, b: Point, c: Point) -> float:
    return abs((b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y)) / 2.0


def _components_ok(positions: np.ndarray, anchor_ids: Sequence[int], comm_range: float) -> bool:
    """True when every node can reach every anchor over one-hop links."""
    n = len(positions)
    tree = cKDTree(positions)
    pairs = tree.query_pairs(comm_range, output_type="ndarray")
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in pairs:
        ri, rj = find(int(i)), find(int(j))
        if ri != rj:
            parent[ri] = rj
    root = find(anchor_ids[0])
    return all(find(k) == root for k in range(n))


def generate_deployment(
    width: float,
    height: float,
    n_unknown: int,
    n_anchors: int,
    comm_range: float,
    seed,
    max_attempts: int = 1000,
    anchor_area_min: float = 25.0,
) -> Deployment:
    """Sample uniform deployments until all placement constraints hold.

    Constraints: anchors pairwise farther apart than comm_range, every anchor
    triple spans a triangle of area > anchor_area_min (keeps the baseline
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

    for _ in range(max_attempts):
        coords = rng.uniform((0.0, 0.0), (width, height), size=(n_total, 2))
        anchors = [Point(*coords[i]) for i in range(n_anchors)]
        if any(
            distance(anchors[i], anchors[j]) <= comm_range
            for i, j in itertools.combinations(range(n_anchors), 2)
        ):
            continue
        if any(
            _triangle_area(anchors[i], anchors[j], anchors[k]) <= anchor_area_min
            for i, j, k in itertools.combinations(range(n_anchors), 3)
        ):
            continue
        if not _components_ok(coords, anchor_ids, comm_range):
            continue
        return Deployment(
            width=width,
            height=height,
            nodes=tuple(Point(float(x), float(y)) for x, y in coords),
            anchor_ids=anchor_ids,
            comm_range=comm_range,
        )
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
    yields a fixed graph.
    """
    n = len(dep.nodes)
    coords = np.array([[p.x, p.y] for p in dep.nodes])
    tree = cKDTree(coords)
    pairs = tree.query_pairs(dep.comm_range, output_type="ndarray")
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    pairs = pairs[order]

    if rng is not None and model.sigma > 0:
        noise = rng.normal(0.0, model.sigma, size=len(pairs))
    else:
        noise = np.zeros(len(pairs))

    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for (i, j), nz in zip(pairs, noise):
        i, j = int(i), int(j)
        true_d = distance(dep.nodes[i], dep.nodes[j])
        est = estimate_distance(model, rssi_at(model, true_d, float(nz)))
        adjacency[i].append((j, est))
        adjacency[j].append((i, est))
    return NetworkGraph(adjacency)


def _reconstruct(pred: list[int], v: int) -> tuple[int, ...]:
    path = [v]
    while pred[v] >= 0:
        v = pred[v]
        path.append(v)
    return tuple(reversed(path))


def dijkstra_tree(g: NetworkGraph, source: int) -> tuple[list[float], list[int], list[int]]:
    """Single-source shortest paths; returns (dist, pred, hops) per node.

    Distance ties are broken so the recovered path is the lexicographically
    smallest node-id sequence among all minimum-distance paths. scipy's
    Dijkstra accumulates ``dist[u] + w`` exactly as a textbook one does, so
    only nodes with two or more exact-tight predecessors need their pred
    re-resolved; that runs in increasing-distance order, so every candidate
    path is already final. Unreachable nodes have dist inf, pred and hops -1.
    """
    d, p = dijkstra(g.matrix, indices=source, return_predecessors=True)
    heads = g.matrix.indices
    tails = d[g.edge_rows]
    tight = np.isfinite(tails) & (tails + g.matrix.data == d[heads])
    n_tight = np.bincount(heads[tight], minlength=g.node_count)
    ties = set(np.flatnonzero(n_tight >= 2).tolist())
    dist = d.tolist()
    pred = np.where(p < 0, -1, p).tolist()
    hops = [-1] * g.node_count
    hops[source] = 0
    for v in np.argsort(d, kind="stable").tolist():
        if v in ties:
            tight_preds = [u for u, w in g.adjacency[v] if dist[u] + w == dist[v]]
            pred[v] = min(tight_preds, key=lambda u: _reconstruct(pred, u) + (v,))
        if pred[v] >= 0:
            hops[v] = hops[pred[v]] + 1
    return dist, pred, hops


def shortest_ranging(g: NetworkGraph, source: int, targets: Sequence[int]) -> list[RangingResult]:
    """Shortest estimated distances, hop counts and paths to each target,
    read from ``dijkstra_tree``.
    """
    dist, pred, hops = dijkstra_tree(g, source)
    out = []
    for t in targets:
        if math.isinf(dist[t]):
            raise Unreachable(f"node {t} unreachable from {source}")
        out.append(RangingResult(source, t, dist[t], hops[t], _reconstruct(pred, t)))
    return out


def hop_tree_ranging(g: NetworkGraph, source: int) -> tuple[list[float], list[int]]:
    """Accumulated edge estimates along the BFS (minimum-hop) flooding tree.

    Models hop-count-propagation protocols: each node keeps the first beacon
    it hears (deterministically, from its smallest-id discovered neighbor)
    and accumulates per-hop RSSI distances along that tree path. Unlike
    ``dijkstra_tree`` the path is hop-minimal, not distance-minimal, so
    the accumulated distance overestimates more strongly.

    Returns (accumulated distance, hop count) per node; the hop counts are
    the BFS minimum hops. Raises Unreachable if the graph is disconnected
    from the source.
    """
    n = g.node_count
    dist = [math.inf] * n
    hops = [-1] * n
    dist[source] = 0.0
    hops[source] = 0
    q = deque([source])
    while q:
        u = q.popleft()
        for v, w in g.adjacency[u]:
            if hops[v] < 0:
                hops[v] = hops[u] + 1
                dist[v] = dist[u] + w
                q.append(v)
    missing = [i for i, h in enumerate(hops) if h < 0]
    if missing:
        raise Unreachable(f"nodes {missing[:5]} unreachable from {source}")
    return dist, hops
