import functools
import math

import numpy as np
import pytest

from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

from railsim import geometry, network
from railsim.geometry import AABox, Point, contains, distance, make_ray
from railsim.network import (
    Deployment,
    NetworkGraph,
    build_graph,
    dijkstra_trees,
    generate_deployment,
)
from railsim.radio import PathLossModel
from railsim.rail import (
    ALL_OUTSIDE,
    MULTI,
    NO_INTERSECTION,
    SINGLE,
    LocationCase,
    _angles,
    _Forest,
    _boxes,
    _locate,
    _per_hop_errors,
    _ray_directions,
    corrected_angle,
    localize_all,
)

MODEL = PathLossModel()


def graph_from_edges(n, edges):
    adj = [[] for _ in range(n)]
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    return NetworkGraph(adj)


def column(*values):
    """One (len(values), 1) float column."""
    return np.array(values, dtype=float).reshape(-1, 1)


class TestBoundingBox:
    def test_manual_intersection(self):
        box, empty = _boxes(column(0, 20, 0), column(0, 0, 20), column(10, 15, 15))
        assert box[:, 0].tolist() == [5, 10, 5, 10]
        assert not empty[0]

    def test_single_anchor_square(self):
        box, empty = _boxes(column(0), column(0), column(5))
        assert box[:, 0].tolist() == [-5, 5, -5, 5]
        assert not empty[0]

    def test_contains_truth_when_noise_free(self):
        for seed in range(5):
            dep = generate_deployment(50, 50, 120, 3, 10, seed=seed)
            g = build_graph(dep, MODEL)
            targets = list(dep.unknown_ids)
            anchors = list(dep.anchor_ids)
            sd = dijkstra_trees(g, anchors)[0][:, targets]
            ax, ay = (np.repeat(dep.coords[anchors, i, None], len(targets), axis=1)
                      for i in (0, 1))
            box, empty = _boxes(ax, ay, sd)
            assert not empty.any()
            results = localize_all(dep, g)
            assert (results.box == box).all()
            assert results.box_contains(dep.coords[targets, 0], dep.coords[targets, 1]).all()


class TestPerHopError:
    # anchors (0, 0), (6, 0), (0, 8): true sides 6, 8 and 10 m
    ax, ay = column(0, 6, 0), column(0, 0, 8)
    hops = np.array([[2], [2], [2]])

    def test_zero_when_paths_straight(self):
        assert _per_hop_errors(self.ax, self.ay, column(6, 8, 10), self.hops)[0] == 0.0

    def test_hand_value(self):
        e = _per_hop_errors(self.ax, self.ay, column(8, 10, 12), self.hops)
        assert e[0] == pytest.approx(1.0)

    def test_clamped_at_zero(self):
        assert _per_hop_errors(self.ax, self.ay, column(5, 7, 9), self.hops)[0] == 0.0

    def test_zero_hop_sum_rejected(self):
        with pytest.raises(ValueError):
            _per_hop_errors(self.ax, self.ay, column(6, 8, 10), np.zeros((3, 1), dtype=int))


class TestCorrectedAngle:
    def test_right_triangle(self):
        assert corrected_angle(3, 4, 5, 0.0, 1, 1, 1) == pytest.approx(math.pi / 2, abs=1e-9)

    def test_collinear(self):
        assert corrected_angle(2, 3, 5, 0.0, 1, 1, 1) == pytest.approx(math.pi, abs=1e-9)

    def test_corrected_equilateral(self):
        assert corrected_angle(12, 12, 12, 1.0, 2, 2, 2) == pytest.approx(math.pi / 3, abs=1e-9)

    def test_fuzz_stays_in_range(self):
        rng = np.random.default_rng(5)
        for _ in range(10000):
            a, b, c = rng.uniform(0.0, 40.0, size=3)
            e = rng.uniform(0.0, 5.0)
            ha, hb, hc = rng.integers(0, 6, size=3)
            th = corrected_angle(a, b, c, e, int(ha), int(hb), int(hc))
            assert 0.0 <= th <= math.pi
            assert math.isfinite(th)


def angle(g, e, at, ref, target):
    """``_angles`` for one item: (theta, K)."""
    theta, k = _angles(g, _Forest.of(g, [at]), np.array([0]), np.array([ref]),
                       np.array([target]), np.array([e]))
    return theta[0], k[0]


class TestEstimateAngle:
    def test_right_triangle_single_hop(self):
        g = graph_from_edges(3, [(0, 1, 3.0), (0, 2, 4.0), (1, 2, 5.0)])
        theta, k = angle(g, 0.0, at=0, ref=1, target=2)
        assert theta == pytest.approx(math.pi / 2, abs=1e-9)
        assert k == 1

    def test_collinear_single_hop(self):
        g = graph_from_edges(3, [(0, 1, 2.0), (0, 2, 3.0), (1, 2, 5.0)])
        theta, _ = angle(g, 0.0, at=0, ref=1, target=2)
        assert theta == pytest.approx(math.pi, abs=1e-9)

    def test_corrected_equilateral_two_hops(self):
        # both prefix segments are 2 hops of 6 m; connection is 2 hops of 6 m
        edges = [
            (0, 3, 6.0), (3, 1, 6.0),   # path 0 -> ref 1
            (0, 4, 6.0), (4, 2, 6.0),   # path 0 -> target 2
            (1, 5, 6.0), (5, 2, 6.0),   # connection between hop-2 nodes
        ]
        g = graph_from_edges(6, edges)
        theta, k = angle(g, 1.0, at=0, ref=1, target=2)
        assert theta == pytest.approx(math.pi / 3, abs=1e-9)
        assert k == 2

    def test_output_in_range_on_random_networks(self):
        for seed in (1, 4):
            dep = generate_deployment(50, 50, 100, 3, 10, seed=seed)
            g = build_graph(dep, MODEL)
            targets = np.array(dep.unknown_ids[::7])
            m = len(targets)
            theta, k = _angles(g, _Forest.of(g, [0]), np.zeros(m, dtype=int),
                               np.ones(m, dtype=int), targets, np.full(m, 2.5))
            assert ((0.0 <= theta) & (theta <= math.pi)).all()
            assert ((1 <= k) & (k <= 3)).all()


class TestBuildRays:
    # anchors (0, 0), (10, 0), (0, 10) in id order
    ax, ay = column(0, 10, 0), column(0, 0, 10)

    def _angles(self, th_01, th_02, rest=math.pi / 4):
        """(theta_j, theta_k): anchor 0's angles toward anchors 1 and 2 are
        th_01 and th_02, every other angle is ``rest``."""
        return column(th_01, rest, rest), column(th_02, rest, rest)

    def test_disambiguation_picks_matching_candidate(self):
        dx, dy = _ray_directions(self.ax, self.ay, *self._angles(math.pi / 4, math.pi / 4))
        assert (dx[0, 0], dy[0, 0]) == pytest.approx((math.sqrt(2) / 2, math.sqrt(2) / 2))

    def test_zero_angle_along_baseline(self):
        dx, dy = _ray_directions(self.ax, self.ay, *self._angles(0.0, math.pi / 2))
        assert (dx[0, 0], dy[0, 0]) == pytest.approx((1.0, 0.0))

    def test_right_angle_toward_disambiguator(self):
        dx, dy = _ray_directions(self.ax, self.ay, *self._angles(math.pi / 2, 0.0))
        assert (dx[0, 0], dy[0, 0]) == pytest.approx((0.0, 1.0))

    def test_scale_invariance(self):
        a = self._angles(1.1, 0.6)
        dx1, dy1 = _ray_directions(self.ax, self.ay, *a)
        dx2, dy2 = _ray_directions(self.ax * 3, self.ay * 3, *a)
        for r in range(3):
            assert (dx1[r, 0], dy1[r, 0]) == pytest.approx((dx2[r, 0], dy2[r, 0]))


def locate(cases):
    """``_locate`` over one column per (AABox, rays) case; returns the
    estimate (x, y) and the case codes."""
    box = np.array([[b.x_min, b.x_max, b.y_min, b.y_max] for b, _ in cases]).T
    rays = np.array([[[r.origin.x, r.origin.y, r.dx, r.dy] for r in rs] for _, rs in cases])
    x, y, case, _ = _locate(box, tuple(rays.transpose(2, 1, 0)))
    return x, y, case


class TestPreciseLocation:
    box = AABox(0, 10, 0, 10)

    def test_two_in_box_midpoint(self):
        # rays: horizontal through (2,2), vertical through both x=2 and x=4
        r1 = make_ray(Point(-1, 2), 1, 0)     # y = 2
        r2 = make_ray(Point(2, -1), 0, 1)     # x = 2 -> (2,2)
        r3 = make_ray(Point(4, 8), 0, -1)     # x = 4 downward -> (4,2)
        x, y, case = locate([(self.box, [r1, r2, r3])])
        assert case[0] == MULTI
        assert (x[0], y[0]) == pytest.approx((3, 2))

    def test_single_in_box(self):
        r1 = make_ray(Point(-1, 3), 1, 0)     # y = 3
        r2 = make_ray(Point(7, -1), 0, 1)     # x = 7 -> (7,3) in box
        r3 = make_ray(Point(30, 0), 0, 1)     # crosses r1 at (30,3), out of the box
        x, y, case = locate([(self.box, [r1, r2, r3])])
        assert case[0] == SINGLE
        assert (x[0], y[0]) == pytest.approx((7, 3))

    def test_single_in_box_exact(self):
        r1 = make_ray(Point(-1.3, 2.9), 1, 0.37)
        r2 = make_ray(Point(7.1, -1.7), -0.21, 1)
        r3 = make_ray(Point(30, 0), 0, 1)     # misses r2, crosses r1 out of the box
        hit = geometry.ray_pair_intersection(r1, r2)
        x, y, case = locate([(self.box, [r1, r2, r3])])
        assert case[0] == SINGLE
        assert (x[0], y[0]) == (hit.x, hit.y)

    def test_all_outside_tie_projects_first_pair(self):
        # pairs (0, 1) and (0, 2) meet at (12, 3) and (12, 7), both exactly
        # 2 m from the box; rays 1 and 2 are parallel
        r0 = make_ray(Point(12, -1), 0, 1)
        low, high = make_ray(Point(20, 3), -1, 0), make_ray(Point(20, 7), -1, 0)
        x, y, case = locate([(self.box, [r0, low, high]), (self.box, [r0, high, low])])
        assert case.tolist() == [ALL_OUTSIDE, ALL_OUTSIDE]
        assert (x.tolist(), y.tolist()) == ([10, 10], [3, 7])

    def test_all_outside_projects_nearest(self):
        r1 = make_ray(Point(11, 5), 1, 0)
        r2 = make_ray(Point(12, -1), 0, 1)    # -> (12,5), distance 2 from box
        r3 = make_ray(Point(20, 15), 0, 1)    # points away from r1: no crossing
        x, y, case = locate([(self.box, [r1, r2, r3])])
        assert case[0] == ALL_OUTSIDE
        assert (x[0], y[0]) == pytest.approx((10, 5))

    def test_parallel_rays_box_center(self):
        rays = [make_ray(Point(0, i), 1, 0) for i in range(3)]
        x, y, case = locate([(self.box, rays)])
        assert case[0] == NO_INTERSECTION
        assert (x[0], y[0]) == pytest.approx((5, 5))

    def test_empty_box_uses_fallback(self):
        # anchors 0-2 one 1 m hop from target 3 and 2 hops from each other:
        # the three 1 m squares do not meet, so the box falls back to the
        # square of the first anchor with the smallest SD, anchor 0's
        dep = Deployment(
            width=20.0, height=20.0,
            coords=np.array([[0, 0], [20, 0], [0, 20], [5, 5]]),
            anchor_ids=(0, 1, 2), comm_range=10.0,
        )
        g = graph_from_edges(4, [(0, 3, 1.0), (1, 3, 1.0), (2, 3, 1.0)])
        results = localize_all(dep, g)
        est, diag = results[3]
        assert diag.box == AABox(-1, 1, -1, 1)
        assert contains(diag.box, est)

    def test_estimate_in_box_for_cases_1_3_4(self):
        rng = np.random.default_rng(42)
        cases = []
        for _ in range(500):
            box = AABox(0, rng.uniform(5, 20), 0, rng.uniform(5, 20))
            rays = []
            for _ in range(3):
                ang = rng.uniform(0, 2 * math.pi)
                rays.append(
                    make_ray(
                        Point(rng.uniform(-20, 40), rng.uniform(-20, 40)),
                        math.cos(ang), math.sin(ang),
                    )
                )
            cases.append((box, rays))
        x, y, case = locate(cases)
        for (box, _), px, py, c in zip(cases, x.tolist(), y.tolist(), case.tolist()):
            if c != SINGLE:
                assert contains(box, Point(px, py), tol=1e-6)


def reference_localize(dep, g):
    """Oracle: RAIL one target at a time with Python floats, ``math`` and the
    scalar geometry primitives, as the pipeline ran before it became array
    passes. Returns {target: (estimate, case value, box, intersections)}."""
    trees = {}

    def tree(s):
        if s not in trees:
            trees[s] = [a[0].tolist() for a in dijkstra_trees(g, [s])]
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
        box = geometry.intersect_boxes(
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
               if (p := geometry.ray_pair_intersection(rays[i], rays[j])) is not None]
        inside = [p for p in pts if contains(box, p)]
        if len(inside) >= 2:
            case, est = LocationCase.MULTI_INTERSECTION, geometry.centroid(inside)
        elif inside:
            case, est = LocationCase.SINGLE_INTERSECTION, inside[0]
        elif pts:
            near = min(pts, key=lambda p: geometry.box_distance(box, p))
            case, est = LocationCase.ALL_OUTSIDE, geometry.project_onto_box(box, near)
        else:
            case, est = LocationCase.NO_INTERSECTION, geometry.box_center(box)
        out[t] = (est, case, box, pts)
    return out


# (width, height, nodes, anchors, sigma, seed) of the deployments that
# localize_all is checked on against reference_localize
REFERENCE_DEPLOYMENTS = [
    (50, 50, 120, 3, 0.0, 1),
    (50, 50, 300, 3, 4.0, 2),
    (50, 50, 200, 4, 1.0, 3),
    (60, 60, 200, 6, 4.0, 4),
    (200, 20, 200, 3, 0.0, 5),
    (120, 40, 250, 5, 3.0, 6),
]


@functools.cache
def localized(width, height, n, anchors, sigma, seed):
    dep = generate_deployment(width, height, n, anchors, 10, seed=seed)
    g = build_graph(dep, PathLossModel(sigma=sigma), rng=np.random.default_rng(seed))
    return localize_all(dep, g), dep, g


class TestLocalizeAll:
    @pytest.mark.parametrize("width, height, n, anchors, sigma, seed", REFERENCE_DEPLOYMENTS)
    def test_matches_scalar_reference(self, width, height, n, anchors, sigma, seed):
        results, dep, g = localized(width, height, n, anchors, sigma, seed)
        want = reference_localize(dep, g)
        assert list(results) == list(want)
        for i, t in enumerate(results):
            est, diag = results[t]
            assert (est, diag.case_fired, diag.box, diag.intersections) == want[t]
            assert (results.x[i], results.y[i]) == (est.x, est.y)

    def test_reference_deployments_fire_every_case(self):
        # the reference comparison covers all four cases of the rule and
        # the empty-box fallback
        fired, empty_boxes = set(), 0
        for params in REFERENCE_DEPLOYMENTS:
            results, dep, g = localized(*params)
            fired.update(results[t][1].case_fired for t in results)
            anchors, targets = list(dep.anchor_ids), list(dep.unknown_ids)
            sd = dijkstra_trees(g, anchors)[0][:, targets]
            nearest = np.argsort(sd, axis=0, kind="stable")[:3]
            ax, ay = (dep.coords[anchors, i][nearest] for i in (0, 1))
            empty_boxes += _boxes(ax, ay, np.take_along_axis(sd, nearest, axis=0))[1].sum()
        assert fired == set(LocationCase)
        assert empty_boxes > 0

    def test_at_most_two_shortest_path_calls(self, monkeypatch):
        # the anchor trees and every far c side each take one batched scipy
        # call, however many anchors and angle items a run has
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("indices"))
            return scipy_dijkstra(*args, **kwargs)

        monkeypatch.setattr(network, "dijkstra", counted)
        for width, height, n, anchors, sigma, seed in REFERENCE_DEPLOYMENTS:
            dep = generate_deployment(width, height, n, anchors, 10, seed=seed)
            g = build_graph(dep, PathLossModel(sigma=sigma), rng=np.random.default_rng(seed))
            calls.clear()
            localize_all(dep, g)
            assert 1 <= len(calls) <= 2
            assert calls[0].tolist() == list(dep.anchor_ids)

    def test_deterministic(self):
        dep = generate_deployment(50, 50, 80, 3, 10, seed=21)
        g = build_graph(dep, MODEL)
        r1 = localize_all(dep, g)
        r2 = localize_all(dep, g)
        assert {t: p for t, (p, _) in r1.items()} == {t: p for t, (p, _) in r2.items()}

    def test_near_anchor_targets_accurate(self):
        # noise-free: targets within one hop of some anchor average well
        # under the communication range in error
        dep = generate_deployment(50, 50, 150, 3, 10, seed=33)
        g = build_graph(dep, MODEL)
        results = localize_all(dep, g)
        near = [
            t for t in dep.unknown_ids
            if any(g.edge_weight(a, t) is not None for a in dep.anchor_ids)
        ]
        errs = [distance(dep.nodes[t], results[t][0]) for t in near]
        assert float(np.mean(errs)) < 3.0

    def test_diagnostics_consistent(self):
        dep = generate_deployment(50, 50, 100, 3, 10, seed=8)
        g = build_graph(dep, MODEL)
        for t, (est, diag) in localize_all(dep, g).items():
            in_box = [p for p in diag.intersections if contains(diag.box, p)]
            if diag.case_fired == LocationCase.MULTI_INTERSECTION:
                assert len(in_box) >= 2
            elif diag.case_fired == LocationCase.SINGLE_INTERSECTION:
                assert len(in_box) == 1
            elif diag.case_fired == LocationCase.ALL_OUTSIDE:
                assert diag.intersections and not in_box
            else:
                assert not diag.intersections

    def test_four_anchors_uses_nearest_three(self):
        dep = generate_deployment(50, 50, 120, 4, 10, seed=14)
        g = build_graph(dep, MODEL)
        results = localize_all(dep, g)
        assert set(results) == set(dep.unknown_ids)
