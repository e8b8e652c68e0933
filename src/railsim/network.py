"""Deployment generation, the one-hop connectivity graph with RSSI-estimated
edge weights, and multi-hop queries: the shortest-path trees of a batch of
sources (``dijkstra_trees``) and their minimum-hop flooding trees
(``hop_floods``), both as one ``Trees`` record of (block, source, node)
arrays.

A deployment holds its node positions as one (n, 2) coordinate array. The
rejection sampler checks each attempt's anchors with array passes; the
per-node ``Point`` objects are built only when ``Deployment.nodes`` is
read. A deployment finds its own in-range node pairs with a sweep over
strips of x one range wide (``Deployment.links``, rows i and j, sorted by
(i, j)) and places them once in a symmetric CSR layout
(``_symmetric_csr``), which both the connectivity check and
``build_graph`` read.

A ``NetworkGraph`` is B >= 1 such graphs of one size side by side: a
scenario's graph is one block, and ``NetworkGraph.stack`` joins the graphs
of a chunk of runs, the unit a sweep scores at once. A query names nodes
by their ids within a block. scipy's Dijkstra and BFS run on each block's
own matrix; the passes around them run once over all blocks. Only the
four functions that call scipy import it, so a command that computes no
shortest path (``rail --help``, ``rail plot``, a refused config) never
loads it.

Edge weights come from the path-loss round trip, so with sigma = 0 they equal
the true pairwise distances (up to float round-off) and every multi-hop
shortest distance upper-bounds the straight-line distance.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .geometry import MAGNITUDE_MAX, Point, _finite, _floats, _require, _whole, libm
from .radio import PathLossModel, estimate_distance, rssi_at

# every anchor triple must span a triangle larger than this (m^2)
ANCHOR_AREA_MIN = 25.0
# the deployments ``generate_deployment`` samples before it gives up
MAX_ATTEMPTS = 1000
# the most anchors a deployment may place. Each attempt tests all
# C(n_anchors, 3) anchor triangles: 19,600 at 50 anchors, about 13 ms per
# attempt, against 1.3e9 at 2000
N_ANCHORS_MAX = 50
# the most unknown nodes a deployment may place
N_NODES_MAX = 5000
# the most in-range node pairs a deployment attempt may expect
# (``expected_pairs``). Every attempt holds all of its pairs, so its memory
# follows this count: the 1.6 M pairs expected of 5000 nodes and 50 anchors
# on 50 x 50 m with R = 10 (1.34 M found) take about 0.2 s and 160 MB of
# peak RSS per attempt on a 2-vCPU Xeon, while a range beyond the area's
# diagonal puts all 12.5 M pairs of 5000 nodes in range
N_PAIRS_MAX = 2_000_000


def _require_area(width, height, comm_range) -> None:
    """Refuse an area side or range that is not a finite number > 0: a
    negative range fails in the pair sweep, a NaN one casts NaN to ints.
    Refuse one above MAGNITUDE_MAX, where the pair sweep's squares and the
    DV-hop solve overflow. Refuse an area whose 2 * width * height, the
    bound of the anchor triangles' cross products and ``expected_pairs``'
    divisor, underflows to 0."""
    for name, x in (("width", width), ("height", height), ("comm_range", comm_range)):
        _require(name, x, _finite(x) and x > 0, "a finite number > 0")
        _require(name, x, x <= MAGNITUDE_MAX, f"at most {MAGNITUDE_MAX:g}")
    if not 2.0 * (float(width) * float(height)) > 0:  # Python floats: no warning
        raise ValueError(f"2 * width * height must be > 0, got width {width!r} and "
                         f"height {height!r}")


def expected_pairs(n: int, width, height, comm_range) -> float:
    """The expected in-range pairs of n nodes placed uniformly on the area,
    n**2 * min(pi R**2, W H) / (2 W H); ignoring the area's edges makes it
    an overestimate. In Python floats, so a range whose square overflows
    gives inf, not a numpy warning."""
    area, r = float(width) * float(height), float(comm_range)
    return n * n * min(math.pi * r * r, area) / (2 * area)


def _require_deployable(n_unknown, n_anchors, width, height, comm_range,
                        unknown: str = "n_unknown") -> None:
    """Refuse what no deployment attempt may hold: counts that are not
    integers >= 0 (unknowns, named ``unknown``) and >= 3 (anchors), an
    area ``_require_area`` refuses, more than N_NODES_MAX unknowns or
    N_ANCHORS_MAX anchors, or more than N_PAIRS_MAX expected pairs."""
    _require(unknown, n_unknown, _whole(n_unknown, 0), "an integer >= 0")
    _require("n_anchors", n_anchors, _whole(n_anchors, 3), "an integer >= 3")
    _require_area(width, height, comm_range)
    _require(unknown, n_unknown, n_unknown <= N_NODES_MAX, f"at most {N_NODES_MAX}")
    _require("n_anchors", n_anchors, n_anchors <= N_ANCHORS_MAX, f"at most {N_ANCHORS_MAX}")
    pairs = expected_pairs(n_unknown + n_anchors, width, height, comm_range)
    if pairs > N_PAIRS_MAX:
        raise ValueError(
            f"{n_unknown + n_anchors:,} nodes, anchors included, must expect at most "
            f"{N_PAIRS_MAX:,} node pairs in range, got {pairs:.3g}: lower {unknown} or "
            f"comm_range, or widen the area")


class GenerationFailed(Exception):
    """Deployment constraints could not be satisfied within MAX_ATTEMPTS."""


class Unreachable(Exception):
    """A query target has no path from the source node."""


@dataclass(frozen=True, eq=False)
class Deployment:
    """Ground truth of one simulated world: node i sits at ``coords[i]``.

    ``coords`` is stored as a read-only (n, 2) float array (a copy of what
    the caller passed). ``anchor_ids`` must be distinct node ids in [0, n),
    kept as a tuple of Python ints.
    Anchors occupy the first ``len(anchor_ids)`` node slots by construction,
    but consumers should rely on ``anchor_ids`` only. ``width``, ``height``
    and ``comm_range`` must be finite numbers > 0; the nodes may lie outside
    the area.
    """

    width: float
    height: float
    coords: np.ndarray
    anchor_ids: tuple[int, ...]
    comm_range: float

    def __post_init__(self):
        _require_area(self.width, self.height, self.comm_range)
        xy = _floats(self.coords)
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise ValueError(f"coords must have shape (n, 2), not {xy.shape}")
        if not np.isfinite(xy).all():
            raise ValueError("non-finite node position")
        ids, n = tuple(self.anchor_ids), len(xy)
        if not all(_whole(i, 0) and i < n for i in ids) or len(set(ids)) < len(ids):
            raise ValueError(f"anchor ids must be distinct integers in [0, {n}), not {ids}")
        xy.flags.writeable = False
        object.__setattr__(self, "coords", xy)
        object.__setattr__(self, "anchor_ids", tuple(int(i) for i in ids))

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
        """Read-only (2, pairs) array, rows i and j, of the node pairs
        i < j with ``dx*dx + dy*dy <= comm_range*comm_range``, sorted by
        (i, j)."""
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
            width=d["width"],
            height=d["height"],
            coords=d["nodes"],
            anchor_ids=tuple(d["anchor_ids"]),
            comm_range=d["comm_range"],
        )


@dataclass(frozen=True)
class RangingResult:
    """Shortest estimated multi-hop distance from an anchor to one node."""

    anchor_id: int
    target_id: int
    shortest_distance: float
    hop_count: int
    path: tuple[int, ...]


class Trees(NamedTuple):
    """The trees of the same k source nodes in blocks of a graph, as
    (blocks, k, n) arrays: ``[b, a]`` is the tree of ``sources[a]`` in
    block b. Per node v, ``dist[b, a, v]`` is its distance from the root
    (inf off the tree), ``pred`` its parent (-1 at the root and off the
    tree) and ``hops`` its depth (0 at the root, -1 off the tree)."""

    sources: np.ndarray
    dist: np.ndarray
    pred: np.ndarray
    hops: np.ndarray


def _node_ids(n: int, ids) -> np.ndarray:
    """``ids`` as a flat intp array; ValueError unless each is an integer,
    not a bool, in [0, n)."""
    if isinstance(ids, np.ndarray):
        flat = ids.reshape(-1)
        odd = [flat.dtype] if flat.size and flat.dtype.kind not in "iu" else []
    else:  # one by one: numpy turns a bool among ints into an int, a uint64 into a float
        flat = np.asarray(ids, dtype=object).reshape(-1)
        odd = [np.asarray(v).dtype for v in flat.tolist()
               if isinstance(v, bool) or not isinstance(v, Integral)]
    if odd:
        raise ValueError(f"node ids must be integers, got a {odd[0]} id")
    bad = flat[(flat < 0) | (flat >= n)]  # before the cast, which wraps large uint64 ids
    if bad.size:
        raise ValueError(f"node ids must lie in [0, {n}), got {bad[0]}")
    return flat.astype(np.intp)


def _symmetric_csr(n: int, links: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, cols, link): the symmetric CSR layout of n nodes' links, a
    (2, pairs) array of rows i and j, i < j, sorted by (i, j).

    One stable sort by row of both arcs of every link, the arcs (j, i)
    first, so row u lists its smaller neighbors and then its larger ones,
    each in increasing id order; numpy sorts ids of up to 16 bits by radix.
    Entry e belongs to link ``link[e]``. The arrays are read-only: a
    deployment's layout is shared by its graphs.
    """
    i, j = links
    rows = np.concatenate((j, i))
    order = np.argsort(rows.astype(np.min_scalar_type(n)), kind="stable")
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    cols = np.concatenate((i, j))[order]
    link = np.where(order < len(i), order, order - len(i))  # arc k is link k mod pairs
    for a in (indptr, cols, link):
        a.flags.writeable = False
    return indptr, cols, link


class NetworkGraph:
    """B >= 1 symmetric one-hop graphs of n nodes each, side by side. A
    scenario's graph is one block; ``stack`` joins the graphs of a chunk of
    runs. Queries name a node by its id v in [0, n) and, where it matters,
    its block b.

    A block is a set of links (i, j), i < j, sorted by (i, j), one estimated
    distance each, placed in the CSR matrix ``matrices[b]`` (rows sorted by
    neighbor id, both entries of a link holding its weight) for scipy.
    ``links``, a read-only (2, pairs) array of rows i and j, and ``weights``
    hold every block's links once, in (block, i, j) order; ``links_of``
    gives one block's, and ``edge_index`` finds links by their block and
    ends. ``adjacency[v]`` lists the (neighbor, weight) pairs of node v of
    block 0, built on first use; ``neighbors`` and ``edge_weight`` read
    block 0 too. Each of these but ``edge_index`` raises ValueError on a
    node id or block outside the graph.

    ``NetworkGraph(n, edges)`` takes (u, v, weight) triples in any order and
    orientation and raises ValueError on an n that is not an integer >= 0,
    a self-loop, a repeated pair, a node id that is not an integer in
    [0, n) or a weight that is not finite and > 0 (which could hang the tie
    resolution or drop its link);
    ``build_graph`` places its links the same way.
    """

    def __init__(self, n: int, edges: Sequence[tuple[int, int, float]]):
        _require("n", n, _whole(n, 0), "an integer >= 0")
        ends = _node_ids(n, [x for u, v, _ in edges for x in (u, v)]).reshape(-1, 2).T
        i, j = ends.min(axis=0), ends.max(axis=0)  # each link as (i, j), i <= j
        given = [w for _, _, w in edges]
        weights = _floats(given)
        loops = i[i == j]
        if loops.size:
            raise ValueError(f"self-loop at node {loops[0]}")
        bad = np.flatnonzero(~(np.isfinite(weights) & (weights > 0)))
        if bad.size:  # named as given: a weight too large for a float reads as inf
            raise ValueError(f"edge weights must be finite and > 0, got {given[bad[0]]}")
        order = np.argsort(i * n + j)
        links = np.stack((i[order], j[order]))
        repeated = np.flatnonzero((links[:, 1:] == links[:, :-1]).all(axis=0))
        if repeated.size:
            raise ValueError(f"repeated pair {tuple(links[:, repeated[0]].tolist())}")
        weights = weights[order]
        self._hold(n, links, weights, [_placed(weights, _symmetric_csr(n, links))])

    def _hold(self, n: int, links: np.ndarray, weights: np.ndarray, matrices) -> None:
        """Hold the blocks' CSR ``matrices`` and their links, made read-only."""
        links.flags.writeable = False
        self.node_count, self.blocks = n, len(matrices)
        self.links, self.weights, self.matrices = links, weights, tuple(matrices)

    @classmethod
    def stack(cls, graphs: Sequence["NetworkGraph"]) -> "NetworkGraph":
        """The blocks of ``graphs``, in order, as one graph that shares
        their matrices."""
        if not graphs:
            raise ValueError("a stack needs at least one graph")
        n = graphs[0].node_count
        if any(g.node_count != n for g in graphs):
            raise ValueError("the stacked graphs must have one node count")
        out = cls.__new__(cls)
        out._hold(n, np.concatenate([g.links for g in graphs], axis=1),
                  np.concatenate([g.weights for g in graphs]),
                  [m for g in graphs for m in g.matrices])
        return out

    @cached_property
    def _start(self) -> list[int]:
        """Where each block's links start in ``links``, then the link count."""
        return np.cumsum([0] + [m.nnz // 2 for m in self.matrices]).tolist()

    @cached_property
    def _keys(self) -> np.ndarray:
        """One sorted key ``(b * n + i) * n + j`` per link (i, j) of block
        b, then a sentinel no edge query reaches."""
        n, start = self.node_count, self._start
        i, j = self.links
        keys = [(i[lo:hi] + b * n) * n + j[lo:hi]
                for b, (lo, hi) in enumerate(zip(start, start[1:]))]
        return np.concatenate(keys + [[self.blocks * n * n]])

    @cached_property
    def adjacency(self) -> list[list[tuple[int, float]]]:
        m = self.matrices[0]
        pairs = list(zip(m.indices.tolist(), m.data.tolist()))
        bounds = m.indptr.tolist()
        return [pairs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def neighbors(self, u: int) -> list[tuple[int, float]]:
        (u,) = _node_ids(self.node_count, [u])
        return self.adjacency[u]

    def _require_block(self, block) -> None:
        """ValueError unless ``block`` is an integer, not a bool, in [0, blocks)."""
        if not (_whole(block, 0) and block < self.blocks):
            raise ValueError(f"block must lie in [0, {self.blocks}), got {block!r}")

    def links_of(self, block: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(i, j, weights) of the links of ``block``, i < j, sorted by (i, j)."""
        self._require_block(block)
        lo, hi = self._start[block], self._start[block + 1]
        return self.links[0, lo:hi], self.links[1, lo:hi], self.weights[lo:hi]

    def edge_index(self, block, u, v) -> tuple[np.ndarray, np.ndarray]:
        """(found, link position) of the link between nodes u and v of
        ``block``, per element of the broadcast arrays; the position is
        meaningless where not found, and the link's weight is
        ``weights[pos]``. The ids are not checked: a key of nodes outside
        [0, n) can match another pair's link.
        """
        u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
        keys = (np.asarray(block, dtype=np.int64) * self.node_count
                + np.minimum(u, v)) * self.node_count + np.maximum(u, v)
        pos = np.searchsorted(self._keys, keys)
        return self._keys[pos] == keys, pos

    def edge_weight(self, u: int, v: int) -> Optional[float]:
        """The weight of the link between nodes u and v of block 0, or None."""
        u, v = _node_ids(self.node_count, [u, v])
        found, pos = self.edge_index(0, u, v)
        return float(self.weights[pos]) if found else None


def _placed(weights: np.ndarray, csr: tuple):
    """The CSR matrix of the layout ``csr`` (see ``_symmetric_csr``) with
    each link's weight in both its entries."""
    from scipy.sparse import csr_matrix

    indptr, cols, link = csr
    n = len(indptr) - 1
    return csr_matrix((weights[link], cols, indptr), shape=(n, n), dtype=float)


def _pairs_in_range(coords: np.ndarray, r: float) -> np.ndarray:
    """The node pairs (i, j), i < j, with ``dx*dx + dy*dy <= r*r``, as a
    (2, pairs) array of rows i and j, sorted by (i, j): each node is tested
    against the later nodes of its own strip of x, a hair wider than r, and
    the next strip's nodes within a strip width of its y."""
    n = len(coords)
    if n == 0:
        return np.empty((2, 0), dtype=np.intp)
    lo = coords.min(axis=0)
    extent = float((coords.max(axis=0) - lo).max())
    # the margin exceeds the rounding of ``coords - lo``, of the division and
    # of ``y +- side``, so rounding never leaves an in-range pair untested
    side = r * (1 + 2**-40) + extent * 2**-48
    x, y = (coords - lo).T
    strip = (x / side).astype(np.int64)
    order = np.lexsort((y, strip))
    # numpy sorts and searches complex numbers by real part, then imaginary
    key = strip[order] + 1j * y[order]
    pos = np.arange(n)  # position in ``order``
    first = np.concatenate((pos + 1, np.searchsorted(key, key + (1 - 1j * side))))
    last = np.searchsorted(key, np.concatenate((key + 1j * side, key + (1 + 1j * side))), "right")
    size = last - first
    # every candidate pair (a, b) of positions in ``order``
    a = np.repeat(np.tile(pos, 2), size)
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
    return np.stack((i, keys - i * n))


def _components_ok(dep: Deployment) -> bool:
    """True when every node can reach every other (so every anchor) over
    one-hop links: one BFS from node 0 over the deployment's CSR layout."""
    from scipy.sparse.csgraph import breadth_first_order

    links = _placed(np.ones(len(dep.links[0])), dep._csr)
    return len(breadth_first_order(links, 0, return_predecessors=False)) == len(dep.coords)


@functools.lru_cache(maxsize=8)
def _anchor_index(n_anchors: int) -> tuple[np.ndarray, np.ndarray]:
    """Every anchor pair (i, j), i < j, as a (2, pairs) array, and every
    anchor triple (i, j, k), i < j < k, as a (3, triples) array, both
    read-only and built once per anchor count (13 ms at 50 anchors) for
    the recent counts: a sweep places one."""
    pairs = np.array(np.triu_indices(n_anchors, 1))
    triples = np.array(list(itertools.combinations(range(n_anchors), 3))).T
    for a in (pairs, triples):
        a.flags.writeable = False
    return pairs, triples


def generate_deployment(
    width: float,
    height: float,
    n_unknown: int,
    n_anchors: int,
    comm_range: float,
    seed,
) -> Deployment:
    """Sample uniform deployments until all placement constraints hold.

    Constraints: anchors pairwise farther apart than comm_range, every anchor
    triple spans a triangle of area > ANCHOR_AREA_MIN (keeps the baseline
    linear system well-conditioned), and every node reaches every anchor
    through the connectivity graph. ``_require_deployable`` refuses the
    arguments, ValueError, before the first draw.
    """
    _require_deployable(n_unknown, n_anchors, width, height, comm_range)

    rng = np.random.default_rng(seed)
    n_total = n_anchors + n_unknown
    anchor_ids = tuple(range(n_anchors))
    (pi, pj), (ti, tj, tk) = _anchor_index(n_anchors)

    for _ in range(MAX_ATTEMPTS):
        # the bits of rng.uniform((0, 0), (width, height)), which adds 0.0
        coords = rng.random((n_total, 2)) * (width, height)
        x, y = coords[:n_anchors, 0], coords[:n_anchors, 1]
        if (libm(math.hypot, x[pi] - x[pj], y[pi] - y[pj]) <= comm_range).any():
            continue
        # twice the signed area of each anchor triangle
        cross = (x[tj] - x[ti]) * (y[tk] - y[ti]) - (x[tk] - x[ti]) * (y[tj] - y[ti])
        if (np.abs(cross) / 2.0 <= ANCHOR_AREA_MIN).any():
            continue
        dep = Deployment(width, height, coords, anchor_ids, comm_range)
        if _components_ok(dep):  # computes dep.links and dep._csr, which build_graph reads
            return dep
    raise GenerationFailed(
        f"no valid deployment in {MAX_ATTEMPTS} attempts "
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
    yields a fixed graph. A model with sigma > 0 needs ``rng`` to draw from,
    and raises ValueError without it. Two co-located nodes (an in-range pair
    at distance 0) have no RSSI and raise ValueError naming both ids.
    """
    i, j = dep.links
    if model.sigma > 0 and rng is None:
        raise ValueError(f"sigma {model.sigma} dB needs an rng to draw the noise from")
    noise = rng.normal(0.0, model.sigma, size=len(i)) if model.sigma > 0 else 0.0

    x, y = dep.coords.T
    true_d = libm(math.hypot, x[i] - x[j], y[i] - y[j])
    colocated = np.flatnonzero(true_d == 0)
    if colocated.size:
        k = colocated[0]
        raise ValueError(f"nodes {i[k]} and {j[k]} are co-located: zero distance has no RSSI")
    est = estimate_distance(rssi_at(true_d, noise))
    g = NetworkGraph.__new__(NetworkGraph)  # the links are already sorted and unique
    g._hold(len(dep.coords), dep.links, est, [_placed(est, dep._csr)])
    return g


def _reconstruct(pred: list[int], v: int) -> tuple[int, ...]:
    path = [v]
    while pred[v] >= 0:
        v = pred[v]
        path.append(v)
    return tuple(reversed(path))


def _depths(pred: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Hop count of every node in each tree [b, a] of pred (-1 off the tree;
    rooted at sources[a]) by pointer jumping over the flattened trees: each
    pass doubles how far every node has looked up.
    """
    n = pred.shape[-1]
    flat = pred.ravel()
    end = flat.size  # one sentinel above every root and off-tree node
    on = np.flatnonzero(flat >= 0)
    up = np.full(end + 1, end)
    up[on] = flat[on] + on // n * n
    hops = np.zeros(end + 1, dtype=np.intp)  # edges to ``up``
    hops[on] = 1
    # whole-array passes cost half as much as tracking the nodes still
    # below their root
    while (up != end).any():
        hops += hops[up]
        up = up[up]
    hops = hops[:end].reshape(pred.shape)
    hops[pred < 0] = -1
    hops[..., np.arange(len(sources)), sources] = 0
    return hops


def _resolve_ties(g: NetworkGraph, dist: np.ndarray, pred: np.ndarray, block: int = 0) -> None:
    """Re-resolve, in place, the pred of every node of one tree of block
    ``block`` of g with two or more exact-tight predecessors to the one on
    the lexicographically smallest path; in increasing-distance order, so
    every candidate path is already final.

    A link (i, j) of weight w is tight into j where ``dist[i] + w ==
    dist[j]`` and into i where ``dist[j] + w == dist[i]``; both masks are
    taken once per tree. Dijkstra set each reached node's distance to
    ``dist[pred] + w``, so every reached non-root node has at least one
    tight entry. When every node is reached and the tree has n - 1 tight
    entries in all, each has exactly one and there is no tie.
    """
    n, (i, j, w) = g.node_count, g.links_of(block)
    di, dj = dist.take(i), dist.take(j)
    into_j, into_i = di + w == dj, dj + w == di
    if np.count_nonzero(into_j) + np.count_nonzero(into_i) == n - 1 and np.isfinite(dist).all():
        return
    n_tight = np.bincount(j[into_j], minlength=n) + np.bincount(i[into_i], minlength=n)
    ties = np.flatnonzero(n_tight >= 2)
    ties = ties[np.isfinite(dist[ties])]  # inf + w == inf is no tie
    if not ties.size:
        return
    m = g.matrices[block]
    d, pl = dist.tolist(), pred.tolist()
    bounds = m.indptr.tolist()
    for v in ties[np.argsort(dist[ties], kind="stable")].tolist():
        row = slice(bounds[v], bounds[v + 1])  # v's links: its tight ones are its tight preds
        nbrs = zip(m.indices[row].tolist(), m.data[row].tolist())
        tight_preds = [u for u, uw in nbrs if d[u] + uw == d[v]]
        pl[v] = min(tight_preds, key=lambda u: _reconstruct(pl, u) + (v,))
    pred[:] = pl


def dijkstra_trees(g: NetworkGraph, sources: Sequence[int], block: Optional[int] = None) -> Trees:
    """Shortest paths from each source node in every block, or in block
    ``block`` alone, from one scipy call per block.

    Distance ties are broken so the recovered path is the lexicographically
    smallest node-id sequence among all minimum-distance paths. scipy's
    Dijkstra runs each source on its own and accumulates ``dist[u] + w``
    exactly as a textbook one does, so only nodes with two or more
    exact-tight predecessors need their pred re-resolved, one row at a
    time: per row, two 1-D gathers over the links beat any 2-D gather over
    many rows.
    """
    from scipy.sparse.csgraph import dijkstra

    sources = _node_ids(g.node_count, sources)
    if block is not None:
        g._require_block(block)
    k, blocks = len(sources), range(g.blocks) if block is None else (block,)
    dist = np.empty((len(blocks), k, g.node_count))
    pred = np.empty(dist.shape, dtype=np.intp)
    for r, b in enumerate(blocks):
        dist[r], pred[r] = dijkstra(g.matrices[b], indices=sources, return_predecessors=True)
        pred[r][pred[r] < 0] = -1
        for d, p in zip(dist[r], pred[r]):
            _resolve_ties(g, d, p, b)
    return Trees(sources, dist, pred, _depths(pred, sources))


def shortest_ranging(g: NetworkGraph, source: int, targets: Sequence[int]) -> list[RangingResult]:
    """Shortest estimated distances, hop counts and paths to each target,
    read from ``dijkstra_trees``, on a graph of one block.
    """
    if g.blocks != 1:
        raise ValueError(f"shortest_ranging needs a graph of 1 block, got {g.blocks} blocks")
    # Python ints, not the caller's numpy ones, in each result and path
    (source,) = _node_ids(g.node_count, [source]).tolist()
    targets = _node_ids(g.node_count, targets).tolist()
    t = dijkstra_trees(g, [source])
    hops = t.hops[0, 0, targets].tolist()
    dist, pred = t.dist[0, 0], t.pred[0, 0].tolist()
    out = []
    for v, h in zip(targets, hops):
        if math.isinf(dist[v]):
            raise Unreachable(f"node {v} unreachable from {source}")
        out.append(RangingResult(source, v, float(dist[v]), h, _reconstruct(pred, v)))
    return out


def hop_floods(g: NetworkGraph, sources: Sequence[int]) -> Trees:
    """Accumulated edge estimates along the BFS (minimum-hop) flooding tree
    of each source node, in every block.

    Models hop-count-propagation protocols: each node keeps the first beacon
    it hears, from whichever of its neighbors one hop closer to the source a
    FIFO flood dequeues first (each dequeued node scans its neighbors in id
    order), which need not be the smallest-id one, and accumulates per-hop
    RSSI distances along that tree path. Unlike ``dijkstra_trees`` the path
    is hop-minimal, not distance-minimal, so the accumulated distance
    overestimates more strongly.

    Returns the trees of every block, ``dist`` holding the accumulated
    distance; the hop counts are the BFS minimum hops. Raises Unreachable
    if a block is disconnected from a source.
    """
    from scipy.sparse.csgraph import breadth_first_order

    sources = _node_ids(g.node_count, sources)
    n, k = g.node_count, len(sources)
    pred = np.empty((g.blocks, k, n), dtype=np.intp)
    # scipy scans each row in CSR (neighbor-id) order and keeps the first
    # discoverer, as a FIFO flood does
    for b, m in enumerate(g.matrices):
        for r, s in enumerate(sources):
            order, pred[b, r] = breadth_first_order(m, s, return_predecessors=True)
            if len(order) < n:
                missing = np.setdiff1d(np.arange(n), order)
                raise Unreachable(f"nodes {missing[:5].tolist()} unreachable from {s}")
    pred[pred < 0] = -1
    hops = _depths(pred, sources)
    # every tree's nodes by hop level, the roots first (a stable sort of
    # small ints is a radix sort); the distances accumulate one level per
    # numpy pass, each node's from its parent's (flat row b * k + a)
    child = np.argsort(hops.ravel().astype(np.min_scalar_type(n)), kind="stable")[g.blocks * k:]
    row, v = np.divmod(child, n)
    u = pred.ravel()[child]
    parent = u + row * n
    step = g.weights[g.edge_index(row // k, u, v)[1]]
    levels = np.cumsum(np.bincount(hops.ravel())[1:])
    dist = np.zeros(pred.size)
    for lo, hi in zip(itertools.chain((0,), levels), levels):
        dist[child[lo:hi]] = dist[parent[lo:hi]] + step[lo:hi]
    return Trees(sources, dist.reshape(pred.shape), pred, hops)
