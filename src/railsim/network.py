"""Deployment generation, the one-hop connectivity graph with RSSI-estimated
edge weights, and multi-hop queries: the shortest-path trees of a batch of
sources from one scipy call (``dijkstra_trees``), the hop counts of chosen
nodes in such trees (``tree_hops``) and one minimum-hop flooding tree
(``hop_tree_ranging``).

A deployment holds its node positions as one (n, 2) coordinate array. The
rejection sampler checks each attempt's anchors with array passes; the
per-node ``Point`` objects are built only when ``Deployment.nodes`` is
read. A deployment finds its own in-range node pairs on a grid of cells
(``Deployment.links``, sorted by (i, j)) and places them once in a
symmetric CSR layout (``_symmetric_csr``), which both the connectivity
check and ``build_graph`` read. Every ``NetworkGraph`` is such a set of
links with one weight each, placed in that layout.

Edge weights come from the path-loss round trip, so with sigma = 0 they equal
the true pairwise distances (up to float round-off) and every multi-hop
shortest distance upper-bounds the straight-line distance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, dijkstra

from .geometry import Point, hypot
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

    @cached_property
    def unknown_ids(self) -> tuple[int, ...]:
        anchors = set(self.anchor_ids)
        return tuple(i for i in range(len(self.coords)) if i not in anchors)

    @cached_property
    def nodes(self) -> tuple[Point, ...]:
        """The node positions as Points, for demo 01 and the acceptance gate."""
        return tuple(Point(x, y) for x, y in self.coords.tolist())

    @cached_property
    def links(self) -> np.ndarray:
        """Read-only (pairs, 2) array of the node pairs (i, j), i < j, with
        ``dx*dx + dy*dy <= comm_range*comm_range``, sorted by (i, j)."""
        pairs = _pairs_in_range(self.coords, self.comm_range)
        pairs.flags.writeable = False
        return pairs

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``_symmetric_csr`` of ``links``, shared by the connectivity check and the graph."""
        return _symmetric_csr(len(self.coords), self.links)

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


@dataclass(frozen=True)
class RangingResult:
    """Shortest estimated multi-hop distance from an anchor to one node."""

    anchor_id: int
    target_id: int
    shortest_distance: float
    hop_count: int
    path: tuple[int, ...]


def _symmetric_csr(n: int, links: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, cols, slots): the symmetric CSR layout of n nodes' links, a
    (pairs, 2) array of pairs (i, j), i < j, sorted by (i, j).

    Row u lists u's neighbors in increasing id order, and link k = (i, j)
    fills entry ``slots[0, k]`` of row i and ``slots[1, k]`` of row j. The
    arrays are read-only: a deployment's layout is shared by its graphs.
    """
    i, j = links.T
    below = np.bincount(j, minlength=n)  # per node, neighbors with smaller ids
    above = np.bincount(i, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(below + above, out=indptr[1:])
    k = np.arange(len(i))
    # row i holds its smaller neighbors, then its links in (i, j) order
    upper = k + (indptr[:-1] + below - (np.cumsum(above) - above))[i]
    # row j holds its links by increasing i: a stable sort by j, which
    # numpy does as a radix sort on ids of up to 16 bits
    by_j = np.argsort(j.astype(np.min_scalar_type(n)), kind="stable")
    lower = np.empty_like(k)
    lower[by_j] = k + (indptr[:-1] - (np.cumsum(below) - below))[j[by_j]]
    cols = np.empty(2 * len(k), dtype=np.intp)
    cols[upper], cols[lower] = j, i
    slots = np.stack((upper, lower))
    for a in (indptr, cols, slots):
        a.flags.writeable = False
    return indptr, cols, slots


class NetworkGraph:
    """Symmetric one-hop graph: links (i, j), i < j, sorted by (i, j), one
    estimated distance each, and the CSR matrix placed from them (rows
    sorted by neighbor id, both entries of a link holding its weight).

    ``NetworkGraph(n, edges)`` takes (u, v, weight) triples in any order and
    orientation and raises ValueError on a self-loop, a repeated pair or a
    node id outside [0, n); ``build_graph`` places its links the same way.
    ``adjacency[u]`` is row u as (neighbor, weight) tuples, built on first
    use; ``edge_rows`` and ``edge_cols`` give each CSR entry's tail and
    head; ``_links`` (i, j, weights) holds each link once for the tie count.
    """

    def __init__(self, n: int, edges: Sequence[tuple[int, int, float]]):
        ends = np.array([(u, v) for u, v, _ in edges], dtype=np.intp).reshape(-1, 2)
        weights = np.array([w for _, _, w in edges], dtype=float)
        ends.sort(axis=1)  # each link as (i, j), i <= j
        if ends.size and (ends[:, 0].min() < 0 or ends[:, 1].max() >= n):
            raise ValueError(f"node ids must lie in [0, {n})")
        loops = ends[ends[:, 0] == ends[:, 1], 0]
        if loops.size:
            raise ValueError(f"self-loop at node {loops[0]}")
        order = np.argsort(ends[:, 0] * n + ends[:, 1])
        links = ends[order]
        repeated = links[1:][(links[1:] == links[:-1]).all(axis=1)]
        if repeated.size:
            raise ValueError(f"repeated pair {tuple(repeated[0].tolist())}")
        self._place(links, weights[order], _symmetric_csr(n, links))

    def _place(self, links: np.ndarray, weights: np.ndarray, csr: tuple) -> None:
        """Hold the sorted ``links`` and their ``weights``, placed in ``csr``."""
        indptr, cols, slots = csr
        n = len(indptr) - 1
        self.node_count = n
        data = np.empty(len(cols))
        data[slots] = weights  # each link's weight in its two entries
        self.matrix = csr_matrix((data, cols, indptr), shape=(n, n), dtype=float)
        # the tail and head node of each CSR entry, as intp: scipy keeps int32
        # indices, which a numpy gather would convert on every call
        self.edge_rows = np.repeat(np.arange(n), np.diff(indptr))
        self.edge_cols = cols
        # one sorted key per CSR entry, then a sentinel no edge query reaches
        self._keys = np.append(self.edge_rows * n + cols, n * n)
        # contiguous link ends: the tie count gathers with them once per tree
        self._links = (*np.ascontiguousarray(links.T), weights)

    @cached_property
    def adjacency(self) -> list[list[tuple[int, float]]]:
        pairs = list(zip(self.matrix.indices.tolist(), self.matrix.data.tolist()))
        bounds = self.matrix.indptr.tolist()
        return [pairs[bounds[u]:bounds[u + 1]] for u in range(self.node_count)]

    def neighbors(self, u: int) -> list[tuple[int, float]]:
        return self.adjacency[u]

    def edge_index(self, u, v) -> tuple[np.ndarray, np.ndarray]:
        """(found, CSR position) of the entry u -> v, per element of the
        node arrays u and v; the position is meaningless where not found.
        """
        keys = np.asarray(u, dtype=np.int64) * self.node_count + v
        pos = np.searchsorted(self._keys, keys)
        return self._keys[pos] == keys, pos

    def edge_weight(self, u: int, v: int) -> Optional[float]:
        found, pos = self.edge_index(u, v)
        return float(self.matrix.data[pos]) if found else None


def _pairs_in_range(coords: np.ndarray, r: float) -> np.ndarray:
    """The node pairs (i, j), i < j, with ``dx*dx + dy*dy <= r*r``, as a
    (pairs, 2) array sorted by (i, j).

    The nodes are binned into square cells a hair wider than r, so an
    in-range pair lies in one cell or in two adjacent ones. Each node is
    tested against the later nodes of its own cell, the cell above it and
    the three cells of the next column. Cells are keyed from the nodes'
    extent and looked up among the occupied cells only, so the cost follows
    the node count, not the area.
    """
    n = len(coords)
    if n == 0:
        return np.empty((0, 2), dtype=np.intp)
    lo = coords.min(axis=0)
    extent = float((coords.max(axis=0) - lo).max())
    # the margin exceeds the rounding of ``coords - lo`` and of the division,
    # so rounding never puts an in-range pair two cells apart
    side = r * (1 + 2**-40) + extent * 2**-48
    cx, cy = ((coords - lo) / side).astype(np.int64).T
    col_len = int(cy.max()) + 3  # keys per column, padded so cy - 1 and cy + 1 stay in it
    key = cx * col_len + cy + 1
    order = np.argsort(key, kind="stable")  # by cell, then by id
    cells, start, count = np.unique(key[order], return_index=True, return_counts=True)
    end = start + count
    pos = np.arange(n)  # position in ``order``
    cell = np.repeat(np.arange(len(cells)), count)
    # the later nodes of the own cell, then the cell above and the next
    # column's cells below, level and above
    steps = (1, col_len - 1, col_len, col_len + 1)
    first, last = [pos + 1], [end[cell]]
    for step in steps:
        want = cells + step
        k = np.minimum(np.searchsorted(cells, want), len(cells) - 1)
        hit = cells[k] == want
        first.append(np.where(hit, start[k], 0)[cell])
        last.append(np.where(hit, end[k], 0)[cell])
    first = np.concatenate(first)
    size = np.concatenate(last) - first
    # every candidate pair (a, b) of positions in ``order``
    a = np.repeat(np.tile(pos, 1 + len(steps)), size)
    b = np.repeat(first - (np.cumsum(size) - size), size)
    b += np.arange(len(b))
    xs, ys = coords[order, 0], coords[order, 1]
    # dx*dx + dy*dy, in place: each temporary is as long as the candidates
    dx = xs.take(a)
    dx -= xs.take(b)
    dx *= dx
    dy = ys.take(a)
    dy -= ys.take(b)
    dy *= dy
    dx += dy
    keep = np.flatnonzero(dx <= r * r)
    i, j = order.take(a.take(keep)), order.take(b.take(keep))
    keys = np.minimum(i, j) * n + np.maximum(i, j)
    keys.sort()
    i = keys // n
    return np.stack((i, keys - i * n), axis=1)


def _components_ok(dep: Deployment) -> bool:
    """True when every node can reach every other (so every anchor) over
    one-hop links: one BFS from node 0 over the deployment's CSR layout."""
    indptr, cols, _ = dep._csr
    n = len(indptr) - 1
    links = csr_matrix((np.ones(len(cols)), cols, indptr), shape=(n, n))
    return len(breadth_first_order(links, 0, return_predecessors=False)) == n


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
        # the bits of rng.uniform((0, 0), (width, height)), which adds 0.0
        coords = rng.random((n_total, 2)) * (width, height)
        x, y = coords[:n_anchors, 0], coords[:n_anchors, 1]
        if (hypot(x[pi] - x[pj], y[pi] - y[pj]) <= comm_range).any():
            continue
        # twice the signed area of each anchor triangle
        cross = (x[tj] - x[ti]) * (y[tk] - y[ti]) - (x[tk] - x[ti]) * (y[tj] - y[ti])
        if (np.abs(cross) / 2.0 <= ANCHOR_AREA_MIN).any():
            continue
        dep = Deployment(width, height, coords, anchor_ids, comm_range)
        if _components_ok(dep):  # computes dep.links and dep._csr, which build_graph reads
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
    i, j = dep.links.T
    if rng is not None and model.sigma > 0:
        noise = rng.normal(0.0, model.sigma, size=len(i))
    else:
        noise = np.zeros(len(i))

    x, y = dep.coords.T
    true_d = hypot(x[i] - x[j], y[i] - y[j])
    colocated = np.flatnonzero(true_d == 0)
    if colocated.size:
        k = colocated[0]
        raise ValueError(f"nodes {i[k]} and {j[k]} are co-located: zero distance has no RSSI")
    est = estimate_distance(model, rssi_at(model, true_d, noise))
    g = NetworkGraph.__new__(NetworkGraph)  # the links are already sorted and unique
    g._place(dep.links, est, dep._csr)
    return g


def _reconstruct(pred: list[int], v: int) -> tuple[int, ...]:
    path = [v]
    while pred[v] >= 0:
        v = pred[v]
        path.append(v)
    return tuple(reversed(path))


def _depths(pred: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Hop count of every node in each row's tree given by pred (-1 off the
    tree; row r rooted at sources[r]) by pointer jumping over the flattened
    rows: each pass doubles how far every node has looked up. Where nearly
    every node is read, this beats ``tree_hops``.
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


def tree_hops(pred: np.ndarray, sources, rows, nodes) -> np.ndarray:
    """Hop count of node ``nodes[i]`` in the tree of row ``rows[i]`` of
    ``pred``, rooted at ``sources[rows[i]]`` (rows and nodes broadcast
    together), by walking pred toward the root; -1 for a node off its tree.

    Each numpy pass moves every node one hop up, so the cost follows the
    number of nodes read times the depth of the deepest one, not the size
    of the trees as with ``_depths``.
    """
    k, n = pred.shape
    end = k * n
    flat = pred.ravel()
    # each entry's parent as a position in ``flat``; a root or a node off
    # its tree points at the sentinel ``end``, which points at itself
    up = np.append(np.where(flat >= 0, flat + np.repeat(np.arange(0, end, n), n), end), end)
    rows, nodes = np.broadcast_arrays(rows, nodes)
    v = up[rows * n + nodes]
    hops = np.zeros(v.shape, dtype=np.intp)
    while (step := v < end).any():
        hops += step
        v = up[v]
    hops[(hops == 0) & (nodes != np.asarray(sources)[rows])] = -1
    return hops


def _resolve_ties(g: NetworkGraph, dist: np.ndarray, pred: np.ndarray) -> None:
    """Re-resolve, in place, the pred of every node of one tree with two or
    more exact-tight predecessors to the one on the lexicographically
    smallest path; in increasing-distance order, so every candidate path is
    already final.

    A link (i, j) of weight w is tight into j where ``dist[i] + w ==
    dist[j]`` and into i where ``dist[j] + w == dist[i]``; both masks are
    taken once per tree. Dijkstra set each reached node's distance to
    ``dist[pred] + w``, so every reached non-root node has at least one
    tight entry. When every node is reached and the tree has n - 1 tight
    entries in all, each has exactly one and there is no tie.
    """
    n, (i, j, w) = g.node_count, g._links
    di, dj = dist.take(i), dist.take(j)
    into_j, into_i = di + w == dj, dj + w == di
    if np.count_nonzero(into_j) + np.count_nonzero(into_i) == n - 1 and np.isfinite(dist).all():
        return
    n_tight = np.bincount(j[into_j], minlength=n) + np.bincount(i[into_i], minlength=n)
    ties = np.flatnonzero(n_tight >= 2)
    ties = ties[np.isfinite(dist[ties])]  # inf + w == inf is no tie
    if not ties.size:
        return
    m, cols = g.matrix, g.edge_cols
    d, pl = dist.tolist(), pred.tolist()
    bounds = m.indptr.tolist()
    for v in ties[np.argsort(dist[ties], kind="stable")].tolist():
        row = slice(bounds[v], bounds[v + 1])  # v's links: its tight ones are its tight preds
        nbrs = zip(cols[row].tolist(), m.data[row].tolist())
        tight_preds = [u for u, uw in nbrs if d[u] + uw == d[v]]
        pl[v] = min(tight_preds, key=lambda u: _reconstruct(pl, u) + (v,))
    pred[:] = pl


def dijkstra_trees(g: NetworkGraph, sources: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Shortest paths from each source, from one scipy call; returns (dist,
    pred) arrays of shape (len(sources), n), row r for sources[r].

    Distance ties are broken so the recovered path is the lexicographically
    smallest node-id sequence among all minimum-distance paths. scipy's
    Dijkstra runs each source on its own and accumulates ``dist[u] + w``
    exactly as a textbook one does, so only nodes with two or more
    exact-tight predecessors need their pred re-resolved, one row at a time.
    Unreachable nodes have dist inf and pred -1. ``_depths`` gives the hop
    counts of every node, ``tree_hops`` those of the nodes a caller reads.
    """
    sources = np.asarray(sources, dtype=np.intp).reshape(-1)
    dist, p = dijkstra(g.matrix, indices=sources, return_predecessors=True)
    pred = np.where(p < 0, -1, p).astype(np.intp)
    for d, pr in zip(dist, pred):
        _resolve_ties(g, d, pr)
    return dist, pred


def shortest_ranging(g: NetworkGraph, source: int, targets: Sequence[int]) -> list[RangingResult]:
    """Shortest estimated distances, hop counts and paths to each target,
    read from ``dijkstra_trees``.
    """
    dist, pred = dijkstra_trees(g, [source])
    hops = tree_hops(pred, [source], 0, list(targets)).tolist()
    dist, pred = dist[0], pred[0].tolist()
    out = []
    for t, h in zip(targets, hops):
        if math.isinf(dist[t]):
            raise Unreachable(f"node {t} unreachable from {source}")
        out.append(RangingResult(source, t, float(dist[t]), h, _reconstruct(pred, t)))
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
    order, pred = (a.astype(np.intp) for a in
                   breadth_first_order(g.matrix, source, return_predecessors=True))
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
