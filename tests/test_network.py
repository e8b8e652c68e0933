import itertools
import math
import os
import re
import subprocess
import sys
import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra
from scipy.spatial import cKDTree

import railsim
from railsim import network
from railsim.experiment import ExperimentConfig
from railsim.geometry import MAGNITUDE_MAX, Point, distance, libm
from railsim.network import (
    ANCHOR_AREA_MIN,
    Deployment,
    GenerationFailed,
    NetworkGraph,
    RangingResult,
    Unreachable,
    _anchor_index,
    _components_ok,
    _reconstruct,
    _resolve_ties,
    _symmetric_csr,
    build_graph,
    dijkstra_trees,
    generate_deployment,
    hop_floods,
    shortest_ranging,
)
from railsim.radio import PathLossModel, estimate_distance, rssi_at

MODEL = PathLossModel()


def brute_force_shortest(g, source):
    """Oracle: enumerate all simple paths from source; per reachable node,
    the min (distance, path sequence)."""
    best = {}
    stack = [(source, (source,), 0.0)]
    while stack:
        node, path, acc = stack.pop()
        if node not in best or (acc, path) < best[node]:
            best[node] = (acc, path)
        for v, w in g.adjacency[node]:
            if v not in path:
                stack.append((v, path + (v,), acc + w))
    return best


def tree_path(pred, v):
    """The root-to-v path of a pred row."""
    path = [v]
    while pred[path[-1]] >= 0:
        path.append(pred[path[-1]])
    return tuple(reversed(path))


def bellman_ford(g, source):
    """Oracle: iterative relaxation until fixed point."""
    dist = [math.inf] * g.node_count
    dist[source] = 0.0
    for _ in range(g.node_count):
        changed = False
        for u in range(g.node_count):
            if math.isinf(dist[u]):
                continue
            for v, w in g.adjacency[u]:
                if dist[u] + w < dist[v]:
                    dist[v] = dist[u] + w
                    changed = True
        if not changed:
            break
    return dist


def deque_flood(g, source):
    """Oracle: the FIFO flood, one node at a time; each node keeps its first
    discoverer and adds that edge's weight."""
    dist = [math.inf] * g.node_count
    hops = [-1] * g.node_count
    dist[source], hops[source] = 0.0, 0
    q = deque([source])
    while q:
        u = q.popleft()
        for v, w in g.adjacency[u]:
            if hops[v] < 0:
                hops[v] = hops[u] + 1
                dist[v] = dist[u] + w
                q.append(v)
    return dist, hops


def bfs_levels(g, source):
    """Oracle: iterative frontier expansion without a queue."""
    level = {source}
    seen = {source}
    expect = [None] * g.node_count
    expect[source] = 0
    h = 0
    while level:
        h += 1
        nxt = set()
        for u in level:
            for v, _ in g.adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    expect[v] = h
                    nxt.add(v)
        level = nxt
    return expect


def random_lattice(rng):
    """A 2x3 to 3x4 grid with integer weights in {1, 2} and shuffled node
    ids: exact distance ties everywhere."""
    rows, cols = [(2, 3), (2, 4), (3, 3), (3, 4)][int(rng.integers(4))]
    ids = rng.permutation(rows * cols).reshape(rows, cols)
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((int(ids[r, c]), int(ids[r, c + 1]), float(rng.integers(1, 3))))
            if r + 1 < rows:
                edges.append((int(ids[r, c]), int(ids[r + 1, c]), float(rng.integers(1, 3))))
    return NetworkGraph(rows * cols, edges)


def random_connected_graph(rng, n_max=10):
    n = int(rng.integers(2, n_max + 1))
    pts = rng.uniform(0, 10, size=(n, 2))
    # connect everything within a radius, grow radius until connected;
    # radii kept small so brute-force path enumeration stays tractable
    for radius in (3.5, 4.5, 6.0):
        edges = []
        for i, j in itertools.combinations(range(n), 2):
            d = float(np.hypot(*(pts[i] - pts[j])))
            if d <= radius:
                edges.append((i, j, d))
        g = NetworkGraph(n, edges)
        try:
            flood(g, 0)
            return g
        except Unreachable:
            continue
    return NetworkGraph(n, [(i, i + 1, 1.0) for i in range(n - 1)])


def flood(g, source):
    """Tree [0, 0] of ``hop_floods``: the (accumulated distance, hop count)
    of every node in the flooding tree of one source."""
    t = hop_floods(g, [source])
    return t.dist[0, 0], t.hops[0, 0]


def walked_hops(pred, sources):
    """Oracle: the edges walked up ``pred`` from every node of every row to
    its root, or -1 where the walk does not end at the row's source."""
    out = []
    for row, s in zip(pred.tolist(), sources):
        hops = []
        for v in range(len(row)):
            h = 0
            while row[v] >= 0:
                v, h = row[v], h + 1
            hops.append(h if v == s else -1)
        out.append(hops)
    return np.array(out)


def resolve_ties_per_row(g, dist, pred):
    """Oracle: ``network._resolve_ties`` before its tight-count shortcut.
    Counts the tight entries of every node over all CSR entries, then
    re-resolves each tied node to the predecessor on the lexicographically
    smallest path, in increasing-distance order. Returns whether the row
    had a tie."""
    m = g.matrices[0]
    cols = m.indices.astype(np.intp)
    rows = np.repeat(np.arange(g.node_count), np.diff(m.indptr))
    tight = dist[rows] + m.data == dist[cols]
    n_tight = np.bincount(cols[tight], minlength=g.node_count)
    ties = np.flatnonzero(n_tight >= 2)
    ties = ties[np.isfinite(dist[ties])]  # inf + w == inf is no tie
    d, pl = dist.tolist(), pred.tolist()
    bounds = m.indptr.tolist()
    for v in ties[np.argsort(dist[ties], kind="stable")].tolist():
        row = slice(bounds[v], bounds[v + 1])
        nbrs = zip(cols[row].tolist(), m.data[row].tolist())
        tight_preds = [u for u, w in nbrs if d[u] + w == d[v]]
        pl[v] = min(tight_preds, key=lambda u: _reconstruct(pl, u) + (v,))
    pred[:] = pl
    return bool(ties.size)


def noisy_graph(seed, n_unknown=194, n_anchors=6, sigma=4.0):
    dep = generate_deployment(50, 50, n_unknown, n_anchors, 10, seed=seed)
    return build_graph(dep, PathLossModel(sigma=sigma), rng=np.random.default_rng(seed))


def _triangle_area(a: Point, b: Point, c: Point) -> float:
    return abs((b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y)) / 2.0


def reference_deployment(width, height, n_unknown, n_anchors, comm_range, seed,
                         max_attempts=1000):
    """Oracle: the rejection loop one anchor pair and one anchor triangle at
    a time on Points, as ``generate_deployment`` ran before its anchor
    checks became array passes."""
    rng = np.random.default_rng(seed)
    for _ in range(max_attempts):
        coords = rng.uniform((0.0, 0.0), (width, height), size=(n_anchors + n_unknown, 2))
        anchors = [Point(*coords[i]) for i in range(n_anchors)]
        if any(
            distance(anchors[i], anchors[j]) <= comm_range
            for i, j in itertools.combinations(range(n_anchors), 2)
        ):
            continue
        if any(
            _triangle_area(anchors[i], anchors[j], anchors[k]) <= ANCHOR_AREA_MIN
            for i, j, k in itertools.combinations(range(n_anchors), 3)
        ):
            continue
        dep = Deployment(width, height, coords, tuple(range(n_anchors)), comm_range)
        if _components_ok(dep):
            return dep
    raise GenerationFailed(f"no valid deployment in {max_attempts} attempts")


def attempt(generate, *args, **kwargs):
    """A generator's deployment, or None if it raised GenerationFailed."""
    try:
        return generate(*args, **kwargs)
    except GenerationFailed:
        return None


def assert_same_deployment(got, want):
    """Every field equal, the coordinates exactly."""
    assert np.array_equal(got.coords, want.coords)
    assert ((got.width, got.height, got.anchor_ids, got.comm_range)
            == (want.width, want.height, want.anchor_ids, want.comm_range))


def kd_links(dep):
    """Oracle: the in-range pairs from scipy's k-d tree, as rows i and j
    sorted by (i, j)."""
    pairs = cKDTree(dep.coords).query_pairs(dep.comm_range, output_type="ndarray")
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))].reshape(-1, 2).T


def coo_build_graph(dep, model, rng):
    """Oracle: ``build_graph`` as it was before the grid and the CSR layout:
    k-d tree pairs, noise in sorted (i, j) order, and both directions of
    every edge placed by a stable sort of the 2E (tail, head) keys. Returns
    (CSR matrix, tail and head of each entry)."""
    n = len(dep.coords)
    i, j = kd_links(dep)
    noise = (rng.normal(0.0, model.sigma, size=len(i)) if model.sigma > 0
             else np.zeros(len(i)))
    delta = dep.coords[i] - dep.coords[j]
    est = estimate_distance(rssi_at(libm(math.hypot, delta[:, 0], delta[:, 1]), noise))
    tails, heads = np.concatenate((i, j)), np.concatenate((j, i))
    order = np.argsort(tails * n + heads, kind="stable")
    tails, heads = tails[order], heads[order]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(tails, minlength=n))))
    weights = np.concatenate((est, est))[order]
    return csr_matrix((weights, heads, indptr), shape=(n, n)), tails, heads


def scipy_connected(dep):
    """Oracle: a COO matrix of the k-d tree pairs has one component."""
    n, (i, j) = len(dep.coords), kd_links(dep)
    links = csr_matrix((np.ones(len(i)), (i, j)), shape=(n, n))
    return connected_components(links, directed=False, return_labels=False) == 1


class TestGenerateDeployment:
    def test_table_densities(self):
        dep = generate_deployment(50, 50, 500, 3, 10, seed=1)
        assert len(dep.nodes) == 503
        assert dep.anchor_ids == (0, 1, 2)
        for p in dep.nodes:
            assert 0 <= p.x <= 50 and 0 <= p.y <= 50
        a, b, c = (dep.nodes[i] for i in dep.anchor_ids)
        assert distance(a, b) > 10 and distance(a, c) > 10 and distance(b, c) > 10
        area = abs((b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y)) / 2
        assert area > 25.0

    def test_anchor_index_built_once_read_only(self):
        for n in (3, 4, 7):
            pairs, triples = _anchor_index(n)
            assert _anchor_index(n)[1] is triples  # once per anchor count
            assert pairs.T.tolist() == [list(p) for p in itertools.combinations(range(n), 2)]
            assert triples.T.tolist() == [list(t) for t in itertools.combinations(range(n), 3)]
            assert not pairs.flags.writeable and not triples.flags.writeable

    def test_infeasible_anchor_spacing(self, monkeypatch):
        # anchors cannot be pairwise > 80 m apart inside a 50x50 area
        monkeypatch.setattr(network, "MAX_ATTEMPTS", 50)
        with pytest.raises(GenerationFailed, match="in 50 attempts"):
            generate_deployment(50, 50, 0, 3, 80, seed=1)

    def test_deterministic(self):
        d1 = generate_deployment(50, 50, 100, 3, 10, seed=42)
        d2 = generate_deployment(50, 50, 100, 3, 10, seed=42)
        assert_same_deployment(d1, d2)

    def test_connectivity(self):
        dep = generate_deployment(50, 50, 100, 3, 10, seed=3)
        g = build_graph(dep, MODEL)
        for a in dep.anchor_ids:
            flood(g, a)  # raises if any node unreachable

    # (width, height, n_unknown, n_anchors, comm_range, seeds); the last is
    # tight: most attempts put two of 6 anchors within range on 40 x 40 m
    @pytest.mark.parametrize("width, height, n_unknown, n_anchors, comm_range, seeds", [
        (50, 50, 40, 3, 10, 60),
        (50, 50, 40, 4, 10, 50),
        (80, 30, 40, 5, 10, 40),
        (50, 50, 40, 6, 10, 30),
        (40, 40, 60, 6, 10, 30),
        (120, 30, 150, 3, 10, 20),
        (50, 37.5, 60, 4, 10, 30),
    ])
    def test_matches_scalar_reference(self, width, height, n_unknown, n_anchors,
                                      comm_range, seeds):
        args = (width, height, n_unknown, n_anchors, comm_range)
        for seed in range(seeds):
            assert_same_deployment(generate_deployment(*args, seed),
                                   reference_deployment(*args, seed))

    def test_gives_up_with_scalar_reference(self, monkeypatch):
        # at 3 and 4 attempts the tight case fails for some seeds and not
        # others; both loops fail on the same ones. Seed 1 first succeeds at
        # attempt 3 and seed 0 at attempt 5, so one attempt too few or too
        # many changes the outcome
        args = (40, 40, 60, 6, 10)
        for max_attempts in (3, 4):
            monkeypatch.setattr(network, "MAX_ATTEMPTS", max_attempts)
            failed = 0
            for seed in range(40):
                got = attempt(generate_deployment, *args, seed)
                want = attempt(reference_deployment, *args, seed, max_attempts=max_attempts)
                assert (got is None) == (want is None)
                if got is None:
                    failed += 1
                else:
                    assert_same_deployment(got, want)
            assert 0 < failed < 40

    def test_connectivity_check_matches_scipy_components(self):
        # connected deployments, two clusters farther apart than the range,
        # and sparse uniform ones that are connected only sometimes
        rng = np.random.default_rng(17)
        deps = [generate_deployment(50, 50, n, 3, 10, seed=n) for n in (100, 200, 500)]
        for gap in (2.0, 10.5, 30.0):  # between the clusters' boxes
            blob = rng.uniform(0, 8, size=(30, 2))
            deps.append(Deployment(60, 60, np.vstack((blob, blob + (8 + gap, 0))), (0,), 10.0))
        deps += [Deployment(50, 50, rng.uniform(0, 50, size=(40, 2)), (0,), 10.0)
                 for _ in range(30)]
        got = [_components_ok(dep) for dep in deps]
        assert got == [scipy_connected(dep) for dep in deps]
        assert got[:3] == [True] * 3 and got[3:6] == [True, False, False]
        assert 0 < sum(got[6:]) < 30


class TestLinks:
    """``Deployment.links`` equals the k-d tree's pairs, in (i, j) order."""

    @staticmethod
    def assert_links_match(dep):
        links = dep.links
        assert np.array_equal(links, kd_links(dep))
        i, j = links
        assert (i < j).all()
        assert (np.diff(i * len(dep.coords) + j) > 0).all()
        assert not links.flags.writeable and links.flags.c_contiguous

    @pytest.mark.parametrize("n, side", [(100, 50), (200, 50), (500, 50), (4500, 150)])
    def test_random_deployments(self, n, side):
        rng = np.random.default_rng(n)
        for _ in range(3):
            self.assert_links_match(
                Deployment(side, side, rng.uniform(0, side, size=(n, 2)), (0,), 10.0))
        # strips run along x: many short ones, then a few long ones
        for width, height in ((200, 20), (20, 200)):
            xy = rng.uniform(0, (width, height), size=(n, 2))
            self.assert_links_match(Deployment(width, height, xy, (0,), 10.0))
        # 1e6 m out: each coordinate rounds to a step of 2**-33 m
        xy = 1e6 + rng.uniform(0, side, size=(n, 2))
        self.assert_links_match(Deployment(1e6 + side, 1e6 + side, xy, (0,), 10.0))

    def test_strip(self):
        dep = generate_deployment(200, 20, 200, 3, 10, seed=3)
        self.assert_links_match(dep)

    @pytest.mark.parametrize("r", [10.0, 0.1, 0.3, 1 / 3])
    def test_coordinates_on_range_multiples(self, r):
        # a lattice of pitch r: row and column neighbors lie at r, exactly
        # or rounded either way, and the strip edges fall on nodes
        k = np.arange(12) * r
        lattice = np.stack(np.meshgrid(k, k + 3 * r), axis=-1).reshape(-1, 2)
        dep = Deployment(50, 50, lattice, (0,), r)
        self.assert_links_match(dep)
        if r == 10.0:  # exact: every row and column neighbor is a link
            assert dep.links.shape == (2, 2 * 12 * 11)

    def test_rounding_across_a_cell_edge(self):
        # (x - x_min) / 0.1 gives 243.99999999999997 for node 1 and 245.0
        # for node 2, 0.1 apart: strips exactly 0.1 wide would put this
        # in-range pair two strips apart
        xy = np.array([[1.23456, 0.0], [25.63456, 0.0], [25.73456, 0.0]])
        dep = Deployment(50, 50, xy, (0,), 0.1)
        self.assert_links_match(dep)
        assert dep.links.tolist() == [[1], [2]]

    def test_colocated_nodes(self):
        rng = np.random.default_rng(5)
        xy = rng.uniform(0, 50, size=(150, 2))
        xy = np.vstack((xy, xy[:40], xy[:5]))
        dep = Deployment(50, 50, xy, (0,), 10.0)
        self.assert_links_match(dep)

    def test_sparse_over_large_area(self):
        # 60 small clusters on a 10,000 km square: about 1e6 strips of the
        # range would cover it, of which at most 180 hold a node
        rng = np.random.default_rng(9)
        centres = rng.uniform(0, 1e7, size=(60, 1, 2))
        xy = (centres + rng.uniform(0, 15, size=(60, 5, 2))).reshape(-1, 2)
        dep = Deployment(1e7, 1e7, xy, (0,), 10.0)
        self.assert_links_match(dep)
        assert dep.links.size > 0

    def test_one_node(self):
        for xy in (np.zeros((1, 2)), np.zeros((0, 2))):
            links = Deployment(50, 50, xy, (), 10.0).links
            assert links.shape == (2, 0)


class TestDeploymentCoords:
    def test_coords_read_only(self):
        dep = generate_deployment(50, 50, 100, 3, 10, seed=1)
        assert dep.coords.shape == (103, 2) and dep.coords.dtype == float
        with pytest.raises(ValueError):
            dep.coords[0, 0] = 1.0

    def test_caller_array_copied(self):
        xy = np.array([[0.0, 0.0], [5.0, 0.0]])
        dep = Deployment(50, 50, xy, (0,), 10.0)
        xy[0, 0] = 1.0
        assert dep.coords[0, 0] == 0.0 and xy.flags.writeable

    def test_nodes_match_coords(self):
        dep = generate_deployment(50, 50, 100, 3, 10, seed=2)
        assert len(dep.nodes) == len(dep.coords)
        assert [(p.x, p.y) for p in dep.nodes] == [tuple(r) for r in dep.coords.tolist()]
        assert all(type(p.x) is float for p in dep.nodes)

    @pytest.mark.parametrize("coords", [
        [[0.0, 0.0, 1.0]],
        [0.0, 1.0],
        [[0.0, math.nan]],
        [[math.inf, 0.0]],
        [[10**400, 0.0]],  # too large for a float: not an OverflowError
    ])
    def test_bad_coords_rejected(self, coords):
        with pytest.raises(ValueError):
            Deployment(50, 50, coords, (0,), 10.0)

    @pytest.mark.parametrize("name", ["width", "height", "comm_range"])
    @pytest.mark.parametrize("value", [-10.0, -50, 0, 0.0, math.nan, math.inf, -math.inf,
                                       True, "50", None,
                                       # too large for a float: not an OverflowError
                                       pytest.param(10**400, id="10**400"),
                                       pytest.param(-10**400, id="-10**400")])
    def test_bad_area_rejected(self, name, value):
        # ExperimentConfig's rule: a finite number > 0, not a bool, refused
        # before a negative range reaches the pair sweep or a NaN one its cast
        xy = [[0.0, 0.0], [5.0, 0.0]]
        args = {"width": 50.0, "height": 50.0, "comm_range": 10.0, name: value}
        match = re.escape(f"{name} must be a finite number > 0, got {value!r}") + "$"
        with pytest.raises(ValueError, match=match):
            Deployment(coords=xy, anchor_ids=(0,), **args)
        with pytest.raises(ValueError, match=match):
            generate_deployment(n_unknown=10, n_anchors=3, seed=1, **args)

    @pytest.mark.parametrize("width, height", [(1e308, 1e308), (1e200, 1e200),
                                               (np.float64(1e308), 2.0)])
    def test_area_overflowing_when_doubled_rejected(self, width, height):
        # 2 * width * height bounds the anchor triangles' cross products and
        # the expected pairs' divisor: an area whose double overflows is
        # refused by the side bound, with no RuntimeWarning, and not sampled
        # 1000 times into NaN cross products
        xy = [[0.0, 0.0], [5.0, 0.0]]
        args = {"width": width, "height": height, "comm_range": 10.0}
        match = re.escape(f"width must be at most {MAGNITUDE_MAX:g}, got {width!r}") + "$"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=match):
                Deployment(coords=xy, anchor_ids=(0,), **args)
            with pytest.raises(ValueError, match=match):
                generate_deployment(n_unknown=10, n_anchors=3, seed=1, **args)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        # the largest area is accepted: its double, 2e200, is finite
        assert Deployment(MAGNITUDE_MAX, MAGNITUDE_MAX, xy, (0,), 10.0).width == MAGNITUDE_MAX

    @pytest.mark.parametrize("name", ["width", "height", "comm_range"])
    @pytest.mark.parametrize("value", [1e200, math.nextafter(MAGNITUDE_MAX, math.inf),
                                       np.float64(1e101)], ids=["1e200", "next-above", "np-1e101"])
    def test_side_above_magnitude_max_rejected(self, name, value):
        # a width of 1e200 loaded, and its run ended in an OverflowError from
        # the DV-hop solve's pow or in the pair sweep's overflowing squares
        xy = [[0.0, 0.0], [5.0, 0.0]]
        args = {"width": 50.0, "height": 50.0, "comm_range": 10.0, name: value}
        match = re.escape(f"{name} must be at most 1e+100, got {value!r}") + "$"
        for make in (lambda: Deployment(coords=xy, anchor_ids=(0,), **args),
                     lambda: generate_deployment(n_unknown=10, n_anchors=3, seed=1, **args),
                     lambda: ExperimentConfig(**args)):
            with pytest.raises(ValueError, match=match):
                make()
        # at the bound each is accepted
        at = {**args, name: MAGNITUDE_MAX}
        assert getattr(Deployment(coords=xy, anchor_ids=(0,), **at), name) == MAGNITUDE_MAX
        assert getattr(ExperimentConfig(**at), name) == MAGNITUDE_MAX

    @pytest.mark.parametrize("width, height", [(1e-300, 1e-300), (1e-200, 1e-200),
                                               (np.float64(1e-300), 1e-100)])
    def test_area_underflowing_when_doubled_rejected(self, width, height):
        # an area whose double underflows to 0 divided expected_pairs by 0:
        # a bare ZeroDivisionError, not a refusal naming the area
        xy = [[0.0, 0.0], [5.0, 0.0]]
        args = {"width": width, "height": height, "comm_range": 10.0}
        match = re.escape(f"2 * width * height must be > 0, got width {width!r} and "
                          f"height {height!r}")
        with pytest.raises(ValueError, match=match):
            Deployment(coords=xy, anchor_ids=(0,), **args)
        with pytest.raises(ValueError, match=match):
            generate_deployment(n_unknown=10, n_anchors=3, seed=1, **args)
        # a positive subnormal double is accepted
        for w, h in ((1e-160, 1e-160), (5e-324, 1.0)):
            assert Deployment(w, h, xy, (0,), 10.0).width == w

    def test_numpy_range_past_float_squares_sampled(self, monkeypatch):
        # the expected pairs of a numpy range whose square overflows are
        # computed in Python floats: no RuntimeWarning. A deployment refuses
        # such a range by the side bound, and makes the attempt at the bound
        monkeypatch.setattr(network, "MAX_ATTEMPTS", 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert network.expected_pairs(13, 50, 50, np.float64(1e200)) == 13 * 13 / 2
            with pytest.raises(ValueError, match="comm_range must be at most 1e"):
                generate_deployment(50, 50, 10, 3, np.float64(1e200), seed=1)
            with pytest.raises(GenerationFailed):
                generate_deployment(50, 50, 10, 3, np.float64(MAGNITUDE_MAX), seed=1)

    @pytest.mark.parametrize("n_unknown, n_anchors, match", [
        (-5, 3, "n_unknown must be an integer >= 0, got -5$"),
        (2.5, 3, "n_unknown must be an integer >= 0, got 2.5$"),
        (True, 3, "n_unknown must be an integer >= 0, got True$"),
        (10, 3.5, "n_anchors must be an integer >= 3, got 3.5$"),
        (10, 2, "n_anchors must be an integer >= 3, got 2$"),
    ])
    def test_bad_counts_rejected(self, n_unknown, n_anchors, match):
        with pytest.raises(ValueError, match=match):
            generate_deployment(50, 50, n_unknown, n_anchors, 10.0, seed=1)

    def test_integer_area_and_counts_accepted(self):
        # an int or numpy number is a number; the area keeps the value passed
        dep = generate_deployment(np.int64(50), 50, np.int64(100), 3, np.float64(10), seed=1)
        assert_same_deployment(dep, generate_deployment(50.0, 50.0, 100, 3, 10.0, seed=1))

    @pytest.mark.parametrize("ids", [np.array([0, 1, 2]), tuple(np.arange(3))],
                             ids=["array", "int64-tuple"])
    def test_numpy_anchor_ids_kept_as_ints(self, ids):
        # Python ints, not numpy scalars, which scene.json could not hold
        xy = [[0.0, 0.0], [30.0, 0.0], [0.0, 30.0], [15.0, 5.0]]
        dep = Deployment(50, 50, xy, ids, 10.0)
        assert dep.anchor_ids == (0, 1, 2) and all(type(i) is int for i in dep.anchor_ids)
        assert_same_deployment(dep, Deployment(50, 50, xy, (0, 1, 2), 10.0))

    @pytest.mark.parametrize("anchor_ids", [(0, 1, -1), (0, 1, 4), (0, 0, 1), (0, 1, 1.5),
                                            np.array([[0, 1, 2]])])
    def test_bad_anchor_ids_rejected(self, anchor_ids):
        # on 4 nodes: negative, out of range, repeated and non-integer ids
        xy = [[0.0, 0.0], [30.0, 0.0], [0.0, 30.0], [15.0, 5.0]]
        with pytest.raises(ValueError, match=r"distinct integers in \[0, 4\)"):
            Deployment(50, 50, xy, anchor_ids, 10.0)


@st.composite
def link_sets(draw):
    """(n, links): a set of links (i, j), i < j, of n nodes as a (2, pairs)
    intp array sorted by (i, j), with n on each side of where
    ``np.min_scalar_type`` widens ids past 8 and past 16 bits."""
    n = draw(st.one_of(st.integers(0, 12), st.integers(250, 262), st.integers(65530, 65542)))
    ends = st.integers(0, max(n - 1, 0))
    pairs = draw(st.sets(st.tuples(ends, ends), max_size=60)) if n else set()
    links = sorted({(min(p), max(p)) for p in pairs if p[0] != p[1]})
    return n, np.array(links, dtype=np.intp).reshape(-1, 2).T


def lexsort_csr(n, links):
    """Reference layout: both entries of every link sorted by (row, column),
    with the link of each."""
    i, j = links
    rows, cols = np.concatenate((i, j)), np.concatenate((j, i))
    order = np.lexsort((cols, rows))
    indptr = np.searchsorted(rows[order], np.arange(n + 1))
    return indptr, cols[order], np.tile(np.arange(len(i)), 2)[order]


class TestSymmetricCsr:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(link_sets())
    def test_equals_lexsort_layout(self, case):
        # no links, isolated nodes and ids of 8, 16 and 32 bits
        n, links = case
        got = _symmetric_csr(n, links)
        for a, b in zip(got, lexsort_csr(n, links)):
            assert a.dtype == np.intp and np.array_equal(a, b)
            assert not a.flags.writeable


class TestBuildGraph:
    def test_exact_round_trip_edge(self):
        dep = Deployment(50, 50, np.array([[0, 0], [5, 0]]), (0,), 10.0)
        g = build_graph(dep, MODEL)
        assert g.edge_weight(0, 1) == pytest.approx(5.0, rel=1e-9)
        assert g.edge_weight(1, 0) == g.edge_weight(0, 1)

    def test_out_of_range_pair(self):
        dep = Deployment(50, 50, np.array([[0, 0], [10.01, 0]]), (0,), 10.0)
        g = build_graph(dep, MODEL)
        assert g.edge_weight(0, 1) is None

    def test_collinear_chain(self):
        dep = Deployment(50, 50, np.array([[0, 0], [6, 0], [12, 0]]), (0,), 10.0)
        g = build_graph(dep, MODEL)
        assert g.edge_weight(0, 1) is not None
        assert g.edge_weight(1, 2) is not None
        assert g.edge_weight(0, 2) is None

    def test_symmetry_and_range_invariant(self):
        dep = generate_deployment(50, 50, 80, 3, 10, seed=11)
        g = build_graph(dep, MODEL)
        for u in range(g.node_count):
            for v, w in g.adjacency[u]:
                assert (u, w) in [(x, y) for x, y in g.adjacency[v]]
                assert distance(dep.nodes[u], dep.nodes[v]) <= dep.comm_range
                assert w > 0

    @pytest.mark.parametrize("sigma", [0.0, 4.0])
    def test_weights_equal_scalar_round_trip(self, sigma):
        # every weight is bit-equal to the scalar RSSI round trip of its
        # edge, with the noise drawn in sorted (i, j) edge order
        model = PathLossModel(sigma=sigma)
        for n_unknown in (100, 500):
            dep = generate_deployment(50, 50, n_unknown, 3, 10, seed=n_unknown)
            g = build_graph(dep, model, rng=np.random.default_rng(5))
            edges = sorted((u, v) for u in range(g.node_count)
                           for v, _ in g.adjacency[u] if u < v)
            noise = (np.random.default_rng(5).normal(0.0, sigma, size=len(edges))
                     if sigma > 0 else np.zeros(len(edges)))
            for (u, v), nz in zip(edges, noise.tolist()):
                true_d = distance(dep.nodes[u], dep.nodes[v])
                want = estimate_distance(rssi_at(true_d, nz))
                assert g.edge_weight(u, v) == want
                assert g.edge_weight(v, u) == want

    @pytest.mark.parametrize("sigma", [0.0, 4.0])
    def test_csr_equals_coo_build(self, sigma):
        model = PathLossModel(sigma=sigma)
        for n_unknown in (100, 500):
            dep = generate_deployment(50, 50, n_unknown, 3, 10, seed=n_unknown + 1)
            g = build_graph(dep, model, rng=np.random.default_rng(3))
            want, tails, heads = coo_build_graph(dep, model, np.random.default_rng(3))
            m = g.matrices[0]
            for field in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(m, field), getattr(want, field))
            assert np.array_equal(np.repeat(np.arange(g.node_count), np.diff(m.indptr)), tails)
            # every link once, as (i, j), i < j, sorted by (i, j): the
            # entries of row i that lie above the diagonal
            i, j, w = g.links_of(0)
            above = heads > tails
            assert np.array_equal(i, tails[above]) and np.array_equal(j, heads[above])
            assert w.tobytes() == want.data[above].tobytes()
            # the layout is shared by every graph built from the deployment
            assert not any(a.flags.writeable for a in dep._csr)

    def test_colocated_unknowns_rejected(self):
        coords = np.array([[0, 0], [30, 0], [0, 30], [5, 5], [5, 5]])
        dep = Deployment(50, 50, coords, (0, 1, 2), 10.0)
        with pytest.raises(ValueError, match="nodes 3 and 4 are co-located"):
            build_graph(dep, MODEL)

    def test_unknown_on_anchor_rejected(self):
        coords = np.array([[0, 0], [30, 0], [0, 30], [30, 0]])
        dep = Deployment(50, 50, coords, (0, 1, 2), 10.0)
        with pytest.raises(ValueError, match="nodes 1 and 3 are co-located"):
            build_graph(dep, MODEL, rng=np.random.default_rng(1))

    @pytest.mark.parametrize("sigma", [0.0, 4.0])
    def test_adjacency_counts_each_link_twice(self, sigma):
        # per-layer tracing counts a graph's links from its adjacency
        dep = generate_deployment(50, 50, 200, 3, 10, seed=6)
        g = build_graph(dep, PathLossModel(sigma=sigma), rng=np.random.default_rng(6))
        assert g.blocks == 1 and len(g.adjacency) == g.node_count
        assert sum(map(len, g.adjacency)) // 2 == len(g.weights) == dep.links.shape[1] > 0
        # a scenario's graph shares the deployment's links
        assert g.links is dep.links

    def test_noise_needs_an_rng(self):
        # a noisy model without a generator is refused, not built noise-free
        dep = generate_deployment(50, 50, 30, 3, 12, seed=2)
        with pytest.raises(ValueError, match="needs an rng"):
            build_graph(dep, PathLossModel(sigma=4.0))

    def test_noise_changes_weights_deterministically(self):
        dep = generate_deployment(50, 50, 30, 3, 12, seed=2)
        noisy = PathLossModel(sigma=2.0)
        g1 = build_graph(dep, noisy, rng=np.random.default_rng(7))
        g2 = build_graph(dep, noisy, rng=np.random.default_rng(7))
        g3 = build_graph(dep, noisy, rng=np.random.default_rng(8))
        assert g1.adjacency == g2.adjacency
        assert g1.adjacency != g3.adjacency


class TestNetworkGraph:
    """The constructor and ``build_graph`` hold the same links and place
    them the same way."""

    @staticmethod
    def assert_same_graph(got, want):
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got.matrices[0], field),
                                  getattr(want.matrices[0], field))
        for a, b in zip(got.links_of(0), want.links_of(0)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        sources = range(0, want.node_count, 3)
        for a, b in zip(dijkstra_trees(got, sources), dijkstra_trees(want, sources)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_rebuilt_from_links_equals_build_graph(self, seed):
        # exact weights, then noisy ones; the constructor gets the links
        # shuffled and half of them reversed
        dep = generate_deployment(50, 50, 200, 3, 10, seed=seed)
        rng = np.random.default_rng(seed)
        for g in (build_graph(dep, MODEL), noisy_graph(seed)):
            i, j, w = g.links_of(0)
            edges = list(zip(i.tolist(), j.tolist(), w.tolist()))
            rng.shuffle(edges)
            edges = [(v, u, w) if k % 2 else (u, v, w) for k, (u, v, w) in enumerate(edges)]
            self.assert_same_graph(NetworkGraph(g.node_count, edges), g)

    @pytest.mark.parametrize("edges, match", [
        ([(0, 1, 1.0), (2, 2, 1.0)], "self-loop at node 2"),
        ([(0, 1, 1.0), (1, 2, 1.0), (0, 1, 1.0)], r"repeated pair \(0, 1\)"),
        ([(0, 1, 1.0), (2, 1, 1.0), (1, 2, 5.0)], r"repeated pair \(1, 2\)"),
        ([(0, 3, 1.0)], r"node ids must lie in \[0, 3\)"),
        ([(-1, 2, 1.0)], r"node ids must lie in \[0, 3\)"),
        # a zero or negative weight could hang the tie resolution (a
        # triangle of zero weights did), and a NaN or inf one would drop
        # its link
        ([(0, 1, 1.0), (1, 2, math.nan)], "finite and > 0, got nan"),
        ([(0, 1, math.inf), (1, 2, 1.0)], "finite and > 0, got inf"),
        ([(0, 1, 0.0), (1, 2, 0.0), (0, 2, 0.0)], "finite and > 0, got 0.0"),
        ([(0, 1, 1.0), (2, 1, -1.0)], "finite and > 0, got -1.0"),
        # too large for a float: refused as given, not an OverflowError
        ([(0, 1, 10**400)], "finite and > 0, got 1000"),
    ])
    def test_invalid_edges_rejected(self, edges, match):
        with pytest.raises(ValueError, match=match):
            NetworkGraph(3, edges)

    @pytest.mark.parametrize("n", [-1, 2.0, True, None])
    def test_bad_node_count_rejected(self, n):
        with pytest.raises(ValueError, match=re.escape(f"n must be an integer >= 0, got {n!r}")):
            NetworkGraph(n, [])

    def test_no_edges(self):
        g = NetworkGraph(2, [])
        assert g.adjacency == [[], []] and g.edge_weight(0, 1) is None
        t = dijkstra_trees(g, [0])
        assert t.dist.tolist() == [[[0.0, math.inf]]] and t.pred.tolist() == [[[-1, -1]]]
        assert t.hops.tolist() == [[[0, -1]]]


class TestStack:
    """A stack of same-size graphs answers every query about node v of
    block b as graph b does about its node v on its own."""

    @staticmethod
    def graphs():
        exact = build_graph(generate_deployment(50, 50, 60, 6, 10, seed=7), MODEL)
        return [noisy_graph(seed, n_unknown=60) for seed in range(3)] + [exact]

    def test_trees_and_floods_match_each_graph(self):
        gs = self.graphs()
        stack = NetworkGraph.stack(gs)
        n = stack.node_count
        assert stack.blocks == len(gs)
        sources = np.random.default_rng(5).choice(n, 6, replace=False)  # not sorted
        k = len(sources)
        floods, trees = hop_floods(stack, sources), dijkstra_trees(stack, sources)
        for t in (floods, trees):
            assert t.sources.tolist() == sources.tolist()
            assert t.dist.shape == t.pred.shape == t.hops.shape == (len(gs), k, n)
        for b, g in enumerate(gs):
            one = dijkstra_trees(stack, sources, b)
            assert one.dist.shape == one.pred.shape == one.hops.shape == (1, k, n)
            # with no block given, block b's trees are those of block b alone
            for got, want in zip(trees[1:], one[1:]):
                assert got[b].dtype == want.dtype and got[b].tobytes() == want[0].tobytes()
            for r, v in enumerate(sources.tolist()):
                want = dijkstra_trees(g, [v])
                assert want.dist.shape == (1, 1, n)
                assert one.dist[0, r].tobytes() == want.dist[0, 0].tobytes()
                assert one.pred[0, r].tolist() == want.pred[0, 0].tolist()
                assert one.hops[0, r].tolist() == want.hops[0, 0].tolist()
                want = hop_floods(g, [v])
                assert want.dist.shape == (1, 1, n)
                assert floods.dist[b, r].tobytes() == want.dist[0, 0].tobytes()
                assert floods.pred[b, r].tolist() == want.pred[0, 0].tolist()
                assert floods.hops[b, r].tolist() == want.hops[0, 0].tolist()

    def test_edge_index_finds_each_graphs_links(self):
        gs = self.graphs()
        stack = NetworkGraph.stack(gs)
        n = stack.node_count
        nodes = np.arange(n)
        for b, g in enumerate(gs):
            i, j, w = g.links_of(0)
            found, pos = stack.edge_index(b, j, i)
            assert found.all() and stack.weights[pos].tobytes() == w.tobytes()
            assert [a.tolist() for a in stack.links_of(b)] == [a.tolist() for a in (i, j, w)]
            # no link joins a node to itself
            assert not stack.edge_index(b, nodes, nodes)[0].any()
            # another block holds only its own graph's links
            other = (b + 1) % len(gs)
            theirs = set(zip(*(a.tolist() for a in gs[other].links_of(0)[:2])))
            want = [pair in theirs for pair in zip(i.tolist(), j.tolist())]
            assert stack.edge_index(other, i, j)[0].tolist() == want and not all(want)
        # adjacency, neighbors and edge_weight read block 0
        assert stack.adjacency == gs[0].adjacency and len(stack.adjacency) == n
        i, j, _ = gs[0].links_of(0)
        assert stack.neighbors(int(i[0])) == gs[0].neighbors(int(i[0]))
        assert stack.edge_weight(int(i[0]), int(j[0])) == gs[0].edge_weight(int(j[0]), int(i[0]))
        # the last pair of the last block stays below the keys' sentinel
        assert not stack.edge_index(len(gs) - 1, n - 1, n - 1)[0]

    def test_rejects_no_graphs(self):
        with pytest.raises(ValueError, match="a stack needs at least one graph"):
            NetworkGraph.stack([])

    def test_rejects_mixed_sizes(self):
        g = noisy_graph(0, n_unknown=60)
        with pytest.raises(ValueError, match="one node count"):
            NetworkGraph.stack([g, noisy_graph(0, n_unknown=61)])

    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_link_ends_contiguous(self, count):
        # the tie check gathers with the link ends of every graph a sweep or
        # a caller scores: one from build_graph, one from (u, v, weight)
        # triples and a stack
        gs = self.graphs()[:count]
        i, j, w = gs[0].links_of(0)
        rebuilt = NetworkGraph(gs[0].node_count, list(zip(j.tolist(), i.tolist(), w.tolist())))
        stack = NetworkGraph.stack(gs)
        for g in gs + [rebuilt, stack]:
            assert g.links.shape == (2, len(g.weights))
            assert g.links.flags.c_contiguous and not g.links.flags.writeable
            for b in range(g.blocks):
                for a in g.links_of(b):
                    assert a.flags.c_contiguous
                # a block's ends are its graph's links, not a second copy
                assert np.shares_memory(g.links_of(b)[0], g.links)
        assert np.array_equal(rebuilt.links, gs[0].links)


class TestShortestRanging:
    def test_single_path(self):
        g = NetworkGraph(3, [(0, 1, 4.0), (1, 2, 3.0)])
        (res,) = shortest_ranging(g, 0, [2])
        assert res.shortest_distance == pytest.approx(7.0)
        assert res.hop_count == 2
        assert res.path == (0, 1, 2)

    def test_direct_edge_beats_detour(self):
        g = NetworkGraph(3, [(0, 1, 5.0), (1, 2, 5.0), (0, 2, 9.0)])
        (res,) = shortest_ranging(g, 0, [2])
        assert res.shortest_distance == pytest.approx(9.0)
        assert res.hop_count == 1
        assert res.path == (0, 2)

    def test_numpy_ids_give_python_ints(self):
        # the fields are declared int: numpy ids in, Python ints out
        g = NetworkGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        (res,) = shortest_ranging(g, np.int64(0), np.array([3]))
        assert res == RangingResult(0, 3, 3.0, 3, (0, 1, 2, 3))
        for value in (res.anchor_id, res.target_id, res.hop_count, *res.path):
            assert type(value) is int
        assert type(res.shortest_distance) is float

    def test_rejects_a_stack(self):
        # not block 0's answer after growing every block's tree
        g = NetworkGraph(3, [(0, 1, 4.0), (1, 2, 3.0)])
        with pytest.raises(ValueError, match="got 2 blocks"):
            shortest_ranging(NetworkGraph.stack([g, g]), 0, [2])

    def test_unreachable(self):
        g = NetworkGraph(3, [(0, 1, 1.0)])
        with pytest.raises(Unreachable):
            shortest_ranging(g, 0, [2])

    def test_tie_break_prefers_smaller_ids(self):
        # two equal-length 2-hop routes 0-1-3 and 0-2-3
        g = NetworkGraph(4, [(0, 1, 2.0), (1, 3, 2.0), (0, 2, 2.0), (2, 3, 2.0)])
        (res,) = shortest_ranging(g, 0, [3])
        assert res.path == (0, 1, 3)
        # a direct edge ties a 3-hop detour whose first hop has the smaller id;
        # the tie-breaker compares whole paths, not just the predecessors'
        g = NetworkGraph(4, [(0, 3, 3.0), (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        (res,) = shortest_ranging(g, 0, [3])
        assert res.path == (0, 1, 2, 3)

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(123)
        graphs = itertools.chain(
            (random_connected_graph(rng) for _ in range(200)),
            (random_lattice(rng) for _ in range(200)),
        )
        for g in graphs:
            want = brute_force_shortest(g, 0)
            for target in range(1, g.node_count):
                got = shortest_ranging(g, 0, [target])[0]
                dist, path = want[target]
                assert got.shortest_distance == pytest.approx(dist, abs=1e-9)
                assert got.path == path
                assert got.hop_count == len(path) - 1

    def test_matches_bellman_ford_fixed_point(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            g = random_connected_graph(rng)
            bf = bellman_ford(g, 0)
            results = shortest_ranging(g, 0, list(range(g.node_count)))
            for r in results:
                assert r.shortest_distance == pytest.approx(bf[r.target_id], abs=1e-9)

    def test_overestimates_true_distance(self):
        dep = generate_deployment(50, 50, 150, 3, 10, seed=9)
        g = build_graph(dep, MODEL)
        for a in dep.anchor_ids:
            for r in shortest_ranging(g, a, list(range(len(dep.nodes)))):
                true_d = distance(dep.nodes[a], dep.nodes[r.target_id])
                assert r.shortest_distance >= true_d - 1e-6


class TestDijkstraTrees:
    def test_every_source_matches_brute_force(self):
        # all sources of a graph in one call; every row is its own tree
        rng = np.random.default_rng(123)
        graphs = itertools.chain(
            (random_connected_graph(rng) for _ in range(200)),
            (random_lattice(rng) for _ in range(200)),
        )
        for g in graphs:
            n = g.node_count
            _, (dist,), (pred,), (hops,) = dijkstra_trees(g, range(n))
            assert dist.shape == pred.shape == hops.shape == (n, n)
            for s in range(n):
                want = brute_force_shortest(g, s)
                for t in range(n):
                    d, path = want[t]
                    assert dist[s, t] == pytest.approx(d, abs=1e-9)
                    assert tree_path(pred[s], t) == path
                    assert hops[s, t] == len(path) - 1

    def test_disconnected_rows(self):
        g = NetworkGraph(5, [(0, 1, 2.0), (2, 3, 1.0), (3, 4, 1.5)])
        _, (dist,), (pred,), (hops,) = dijkstra_trees(g, [3, 0])
        assert dist.tolist() == [[math.inf, math.inf, 1.0, 0.0, 1.5],
                                 [0.0, 2.0, math.inf, math.inf, math.inf]]
        assert pred.tolist() == [[-1, -1, 3, -1, 3], [-1, 0, -1, -1, -1]]
        assert hops.tolist() == [[-1, -1, 1, 0, 1], [0, 1, -1, -1, -1]]

    def test_rows_re_resolve_different_ties(self):
        # two copies of a gadget where a direct edge ties a 3-hop detour with
        # the smaller first hop: row 0 re-resolves node 3, row 1 node 7
        gadget = [(0, 3, 3.0), (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]
        g = NetworkGraph(8, gadget + [(u + 4, v + 4, w) for u, v, w in gadget])
        _, (dist,), (pred,), (hops,) = dijkstra_trees(g, [0, 4])
        assert pred.tolist() == [[-1, 0, 1, 2, -1, -1, -1, -1],
                                 [-1, -1, -1, -1, -1, 4, 5, 6]]
        assert hops.tolist() == [[0, 1, 2, 3, -1, -1, -1, -1],
                                 [-1, -1, -1, -1, 0, 1, 2, 3]]
        assert dist[0, 3] == dist[1, 7] == 3.0


class TestTieShortcut:
    """A row whose tight entries number n - 1 skips the per-node tie count;
    every row still gets the pred of the per-row loop."""

    @staticmethod
    def check_rows(g, sources):
        """Both tie resolutions on scipy's trees of every source; returns
        how many rows had a tie."""
        dist, raw = dijkstra(g.matrices[0], indices=sources, return_predecessors=True)
        raw = np.where(raw < 0, -1, raw).astype(np.intp)
        tied = 0
        for d, p in zip(dist, raw):
            want, got = p.copy(), p.copy()
            tied += resolve_ties_per_row(g, d, want)
            _resolve_ties(g, d, got)
            assert got.tolist() == want.tolist()
        return tied

    def test_rows_with_and_without_ties_in_one_batch(self):
        # the gadget's direct edge 0-3 ties the detour 0-1-2-3: rows 0 and 3
        # have a tie, rows 1 and 2 none
        g = NetworkGraph(4, [(0, 3, 3.0), (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        assert self.check_rows(g, [0, 1, 2, 3]) == 2
        rng = np.random.default_rng(8)
        for _ in range(100):
            g = random_connected_graph(rng, n_max=20)
            self.check_rows(g, range(g.node_count))
        tied = rows = 0
        for _ in range(100):
            g = random_lattice(rng)
            tied += self.check_rows(g, range(g.node_count))
            rows += g.node_count
        assert 0 < tied < rows

    def test_noisy_and_exact_deployment_graphs(self):
        # one link per in-range pair stands for both of its entries
        for seed in range(3):
            self.check_rows(noisy_graph(seed), range(0, 200, 7))
        dep = generate_deployment(50, 50, 200, 3, 10, seed=2)
        self.check_rows(build_graph(dep, MODEL), range(0, 203, 5))

    def test_disconnected_graph(self):
        # inf + w == inf is tight between unreached nodes, and an isolated
        # node lowers the count: from 0 the gadget's tie plus the isolated
        # node 4 give n - 1 tight entries, so the shortcut must also see
        # that every node is reached
        g = NetworkGraph(5, [(0, 3, 3.0), (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        assert self.check_rows(g, range(5)) == 2
        assert tree_path(dijkstra_trees(g, [0]).pred[0, 0], 3) == (0, 1, 2, 3)
        g = NetworkGraph(6, [(0, 1, 2.0), (2, 3, 1.0), (3, 4, 1.5), (4, 2, 1.0)])
        self.check_rows(g, range(6))


class TestTreeHops:
    """``Trees.hops``, by pointer jumping over whole rows, equals a walk up
    ``pred`` from every node and the lengths of the reconstructed paths."""

    @staticmethod
    def check(g, sources, rng, reads):
        t = dijkstra_trees(g, sources)
        assert np.array_equal(t.hops[0], walked_hops(t.pred[0], t.sources.tolist()))
        rows = rng.integers(len(sources), size=reads)
        nodes = rng.integers(g.node_count, size=reads)
        for r, v, h in zip(rows.tolist(), nodes.tolist(), t.hops[0, rows, nodes].tolist()):
            if np.isfinite(t.dist[0, r, v]):
                assert h == len(_reconstruct(t.pred[0, r].tolist(), v)) - 1

    def test_random_lattices(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            g = random_lattice(rng)
            self.check(g, range(g.node_count), rng, 30)

    def test_noisy_200_node_graphs(self):
        rng = np.random.default_rng(32)
        for seed in range(4):
            g = noisy_graph(seed)
            self.check(g, rng.choice(200, size=28, replace=False), rng, 560)

    def test_off_the_tree_and_at_the_root(self):
        g = NetworkGraph(5, [(0, 1, 2.0), (2, 3, 1.0), (3, 4, 1.5)])
        # block 0 twice: a stack's trees keep each block's roots
        for t in (dijkstra_trees(g, [3, 0]), dijkstra_trees(NetworkGraph.stack([g, g]), [3, 0])):
            assert t.hops[:, :, [3, 0]].tolist() == [[[0, -1], [-1, 0]]] * len(t.hops)
            assert t.hops[:, :, [4, 1]].tolist() == [[[1, -1], [-1, 1]]] * len(t.hops)


class TestNodeIdsOutsideTheGraph:
    """Every entry point of the tree layer, and the graph constructor,
    refuses a node id that is not an integer in [0, n), and
    ``dijkstra_trees`` a block outside the stack, before it runs a tree."""

    CALLS = {
        "dijkstra_trees": lambda g, v: dijkstra_trees(g, [0, v]),
        "dijkstra_trees-block": lambda g, v: dijkstra_trees(g, [v], 0),
        "hop_floods": lambda g, v: hop_floods(g, [v]),
        "shortest_ranging-source": lambda g, v: shortest_ranging(g, v, [2]),
        "shortest_ranging-target": lambda g, v: shortest_ranging(g, 0, [1, v]),
        "NetworkGraph": lambda g, v: NetworkGraph(4, [(0, 1, 1.0), (2, v, 1.0)]),
    }

    # the largest uint64 is named as passed, not as the -1 it wraps to in intp
    @pytest.mark.parametrize("node", [-1, 4, np.uint64(2**64 - 1)])
    @pytest.mark.parametrize("call", CALLS)
    def test_rejected(self, call, node, capfd):
        g = NetworkGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        with pytest.raises(ValueError, match=rf"node ids must lie in \[0, 4\), got {node}$"):
            self.CALLS[call](g, node)
        assert capfd.readouterr().err == ""

    def test_uint64_among_ints_accepted(self):
        # not refused as floats, which numpy would make of the list
        g = NetworkGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, np.uint64(3), 1.0)])
        assert g.links.tolist() == [[0, 1, 2], [1, 2, 3]]
        assert dijkstra_trees(g, [0, np.uint64(3)]).sources.tolist() == [0, 3]

    @pytest.mark.parametrize("node", [1.5, True])
    @pytest.mark.parametrize("call", CALLS)
    def test_non_integer_rejected(self, call, node):
        # not truncated to node 1
        g = NetworkGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        with pytest.raises(ValueError, match=r"node ids must be integers, got a (float64|bool) id$"):
            self.CALLS[call](g, node)

    # bools and floats are refused, not read as blocks 0 and 1
    @pytest.mark.parametrize("block", [-1, 2, True, False, 1.0, np.True_])
    def test_block_outside_the_stack_rejected(self, block):
        path = NetworkGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        g = NetworkGraph.stack([path, path])
        message = rf"block must lie in \[0, 2\), got {re.escape(repr(block))}$"
        with pytest.raises(ValueError, match=message):
            dijkstra_trees(g, [0], block)


    # edge_weight(0, 6) once gave link (1, 2)'s weight, whose key 6 aliases,
    # and neighbors(-1) node 3's neighbors
    BLOCK0 = {
        "edge_weight": lambda g, v: g.edge_weight(0, v),
        "edge_weight-first": lambda g, v: g.edge_weight(v, 3),
        "neighbors": lambda g, v: g.neighbors(v),
    }

    @pytest.mark.parametrize("node", [-1, 6, 7])
    @pytest.mark.parametrize("call", BLOCK0)
    def test_block0_query_rejected(self, call, node):
        g = NetworkGraph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)])
        with pytest.raises(ValueError, match=rf"node ids must lie in \[0, 4\), got {node}$"):
            self.BLOCK0[call](g, node)

    @pytest.mark.parametrize("block", [-1, 1, True, 1.0])
    def test_links_of_block_outside_rejected(self, block):
        g = NetworkGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        message = rf"block must lie in \[0, 1\), got {re.escape(repr(block))}$"
        with pytest.raises(ValueError, match=message):
            g.links_of(block)


class TestMinHops:
    """The hop counts of the flooding tree are the BFS minimum hops."""

    def test_path_graph(self):
        g = NetworkGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert flood(g, 0)[1].tolist() == [0, 1, 2]

    def test_direct_neighbor(self):
        g = NetworkGraph(2, [(0, 1, 3.0)])
        assert flood(g, 0)[1][1] == 1

    def test_unreachable(self):
        g = NetworkGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(Unreachable, match=r"\[2, 3\]"):
            flood(g, 0)

    def test_matches_deque_flood(self):
        rng = np.random.default_rng(99)
        graphs = itertools.chain(
            (random_connected_graph(rng, n_max=40) for _ in range(200)),
            (random_lattice(rng) for _ in range(200)),
        )
        for g in graphs:
            for source in {0, g.node_count - 1}:
                dist, hops = flood(g, source)
                assert (dist.tolist(), hops.tolist()) == deque_flood(g, source)
        dep = generate_deployment(50, 50, 300, 3, 10, seed=4)
        g = build_graph(dep, PathLossModel(sigma=4.0), rng=np.random.default_rng(4))
        for a in dep.anchor_ids:
            dist, hops = flood(g, a)
            assert (dist.tolist(), hops.tolist()) == deque_flood(g, a)

    def test_matches_exhaustive_bfs(self):
        rng = np.random.default_rng(321)
        for _ in range(50):
            g = random_connected_graph(rng)
            assert flood(g, 0)[1].tolist() == bfs_levels(g, 0)


def test_cli_import_and_sweep_leave_out_scipy_spatial():
    # the package finds its in-range pairs itself, so neither `rail`'s
    # import nor a sweep loads scipy.spatial; checked in a fresh interpreter
    code = (
        "import sys\n"
        "from railsim import cli\n"
        "assert 'scipy.spatial' not in sys.modules, 'import'\n"
        "from railsim.experiment import ExperimentConfig, run_experiment\n"
        "run_experiment(ExperimentConfig(densities=(60,), n_anchors=4, sigma=2.0,\n"
        "                                runs_per_density=2))\n"
        "assert 'scipy.spatial' not in sys.modules, 'sweep'\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(railsim.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_commands_without_shortest_paths_leave_out_scipy(tmp_path):
    # only the network functions that compute paths import scipy, so loading
    # a config, --help, plot and a refused config never load it; only a
    # pooled sweep imports the process pool, in the parent, which its forked
    # workers inherit along with scipy; only demo and plot load the SVG
    # writer; `rail` prints its own stderr lines, so the logging module
    # loads only with scipy or the pool. Checked in fresh interpreters, each
    # in its order: plot alone, for scipy and logging, and every command, for
    # the pool, the SVG writer and logging
    (tmp_path / "runs.csv").write_text(
        "algorithm,density,run_index,seed,run_mean_error_m\nRAIL,60,0,123,4.5000\n")
    (tmp_path / "cfg.json").write_text('{"densities": [60], "runs_per_density": 2}')
    (tmp_path / "bad.json").write_text('{"densities": [60], "sigma": 3000}')
    prelude = (
        "import os, sys\n"
        "tmp = sys.argv[1]\n"
        "from railsim import cli, experiment\n"
        "def absent(names, what):\n"
        "    loaded = [m for m in names if m in sys.modules]\n"
        "    assert not loaded, (what, loaded)\n"
        "POOL = ['multiprocessing', 'concurrent.futures.process']\n"
        "def at(name):\n"
        "    return os.path.join(tmp, name)\n"
        "plot = ['plot', '--runs', at('runs.csv'), '--out', at('plots')]\n"
    )
    plot_alone = (
        "assert cli.main(plot) == 0\n"
        "absent(['scipy', 'logging'] + POOL, 'plot')\n"
    )
    every_command = (
        "cli.ExperimentConfig.from_json_file(at('cfg.json'))\n"
        "absent(['scipy', 'railsim.svgplot', 'logging'] + POOL, 'import and config load')\n"
        "try:\n"
        "    cli.main(['--help'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "absent(['scipy', 'railsim.svgplot', 'logging'] + POOL, '--help')\n"
        "assert cli.main(['run', '--config', at('bad.json'), '--out', at('bad-out')]) == 1\n"
        "absent(['scipy', 'railsim.svgplot', 'logging'] + POOL, 'refused config')\n"
        "serial = ['run', '--config', at('cfg.json'), '--out', at('serial'), '--workers', '1']\n"
        "assert cli.main(serial) == 0\n"
        "absent(['railsim.svgplot'] + POOL, 'serial run')\n"
        "assert cli.main(plot) == 0\n"
        "absent(POOL, 'plot')\n"
        "assert cli.main(['demo', '--config', at('cfg.json'), '--out', at('demo')]) == 0\n"
        "absent(POOL, 'demo')\n"
        "experiment._cpus = lambda: 2  # a pool of 2 on any runner\n"
        "cfg = cli.ExperimentConfig.from_json_file(at('cfg.json'))\n"
        "assert len(experiment.run_experiment(cfg, n_workers=2).records) == 2\n"
        "for m in ('scipy.sparse.csgraph', 'concurrent.futures.process'):\n"
        "    assert m in sys.modules, ('pooled sweep', m)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(railsim.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for steps in (plot_alone, every_command):
        proc = subprocess.run([sys.executable, "-c", prelude + steps, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "plots" / "errors_60.svg").exists()
    assert (tmp_path / "serial" / "runs.csv").exists()
    assert (tmp_path / "demo" / "scene.svg").exists()


def test_hop_floods_overestimate_weighted_shortest():
    dep = generate_deployment(50, 50, 120, 3, 10, seed=13)
    g = build_graph(dep, MODEL)
    for a in dep.anchor_ids:
        acc, hops = flood(g, a)
        weighted = shortest_ranging(g, a, list(range(len(dep.nodes))))
        bfs = bfs_levels(g, a)
        for r in weighted:
            t = r.target_id
            assert acc[t] >= r.shortest_distance - 1e-9
            assert hops[t] == bfs[t]
