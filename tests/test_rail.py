import functools
import math
import pathlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

from oracle import AABox, contains, make_ray, ray_pair_intersection, reference_localize
from railsim import geometry, network, radio, rail
from railsim.baselines import min_max_all, rssi_dv_hop_all
from railsim.experiment import ExperimentConfig, _run_chunk, _scenes, scenario
from railsim.geometry import Point, distance, libm
from railsim.network import (
    Deployment,
    GenerationFailed,
    NetworkGraph,
    Unreachable,
    _reconstruct,
    build_graph,
    dijkstra_trees,
    generate_deployment,
    hop_floods,
)
from railsim.radio import PathLossModel
from railsim.rail import (
    ALL_OUTSIDE,
    MULTI,
    NO_INTERSECTION,
    OTHERS,
    SINGLE,
    _angles,
    _boxes,
    _locate,
    _per_hop_errors,
    _ray_directions,
    corrected_angle,
    localize_all,
    localize_chunk,
)

MODEL = PathLossModel()
CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def column(*values):
    """One (len(values), 1) float column."""
    return np.array(values, dtype=float).reshape(-1, 1)


def anchor_xy(coords, anchor_ids):
    """The (anchor, run) x and y arrays ``localize_chunk`` takes, cut from
    (runs, n, 2) coordinates as ``_run_chunk`` cuts them."""
    return coords[:, list(anchor_ids)].T


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
            sd = dijkstra_trees(g, anchors).dist[0][:, targets]
            ax, ay = (np.repeat(dep.coords[anchors, i, None], len(targets), axis=1)
                      for i in (0, 1))
            box, empty = _boxes(ax, ay, sd)
            assert not empty.any()
            results = localize_all(dep, g)
            assert (results.box == box).all()
            assert rail._inside(results.box, dep.coords[targets, 0], dep.coords[targets, 1]).all()

    @pytest.mark.parametrize("beyond, inside", [(1e-9, True), (1.5e-9, False)])
    def test_holds_points_to_the_tolerance(self, beyond, inside):
        # a point DEFAULT_TOL (1e-9) beyond any face is inside, as in the
        # oracle's contains, and one 1.5e-9 beyond is not
        x = np.array([-beyond, 10 + beyond, 5.0, 5.0])
        y = np.array([5.0, 5.0, -beyond, 10 + beyond])
        assert rail._inside(column(0, 10, 0, 10), x, y).tolist() == [inside] * 4
        assert [contains(AABox(0, 10, 0, 10), Point(*p)) for p in zip(x, y)] == [inside] * 4


class TestPerHopError:
    # anchors (0, 0), (6, 0), (0, 8): true sides 6, 8 and 10 m
    true = column(6, 8, 10)
    hops = np.array([[2], [2], [2]])

    def test_zero_when_paths_straight(self):
        assert _per_hop_errors(self.true, column(6, 8, 10), self.hops)[0] == 0.0

    def test_hand_value(self):
        e = _per_hop_errors(self.true, column(8, 10, 12), self.hops)
        assert e[0] == pytest.approx(1.0)

    def test_clamped_at_zero(self):
        assert _per_hop_errors(self.true, column(5, 7, 9), self.hops)[0] == 0.0


class TestCorrectedAngle:
    def test_right_triangle(self):
        assert corrected_angle(3, 4, 5, 0.0, 1, 1, 1) == pytest.approx(math.pi / 2, abs=1e-9)

    def test_collinear(self):
        assert corrected_angle(2, 3, 5, 0.0, 1, 1, 1) == pytest.approx(math.pi, abs=1e-9)

    def test_corrected_equilateral(self):
        assert corrected_angle(12, 12, 12, 1.0, 2, 2, 2) == pytest.approx(math.pi / 3, abs=1e-9)

    def test_sides_floored_at_one_centimetre(self):
        # MIN_SIDE (0.01 m) raises the shorter sides and keeps the longer
        assert corrected_angle(0.005, 0.005, 0.01, 0.0, 1, 1, 1) == pytest.approx(math.pi / 3)
        assert corrected_angle(0.015, 0.015, 0.015, 0.0, 1, 1, 1) == pytest.approx(math.pi / 3)

    def test_fuzz_stays_in_range(self):
        rng = np.random.default_rng(5)
        for _ in range(10000):
            a, b, c = rng.uniform(0.0, 40.0, size=3)
            e = rng.uniform(0.0, 5.0)
            ha, hb, hc = rng.integers(0, 6, size=3)
            th = corrected_angle(a, b, c, e, int(ha), int(hb), int(hc))
            assert 0.0 <= th <= math.pi
            assert math.isfinite(th)

    # no triangle has such a side or e: NaN, inf and 10**400 gave NaN (inf
    # with a RuntimeWarning), and "1" was read as 1
    @pytest.mark.parametrize("slot, name", enumerate("abce"))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400, -0.5, True, "1"])
    def test_bad_side_or_e_rejected(self, slot, name, bad):
        args = [3, 4, 5, 0.1, 1, 1, 1]
        args[slot] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^{name} must be a finite real number >= 0, "
                                                 rf"got {re.escape(repr(bad))}$"):
                corrected_angle(*args)

    # no path has such a hop count: True was read as 1 hop, 2.5 as 2.5 hops
    @pytest.mark.parametrize("slot, name", [(4, "hops_a"), (5, "hops_b"), (6, "hops_c")])
    @pytest.mark.parametrize("bad", [True, False, 2.5, 2.0, -1, 2**63, np.float64(1.0), "2"])
    def test_bad_hop_count_rejected(self, slot, name, bad):
        args = [3, 4, 5, 0.1, 1, 1, 1]
        args[slot] = bad
        with pytest.raises(ValueError, match=rf"^{name} must be an integer in \[0, 2\*\*63\), "
                                             rf"got {re.escape(repr(bad))}$"):
            corrected_angle(*args)

    def test_numpy_and_boundary_values_accepted(self):
        # zero sides and e, numpy numbers and the largest hop count
        assert corrected_angle(np.float64(3), np.int64(4), 5, np.float64(0.0), np.int64(1),
                               1, 1) == pytest.approx(math.pi / 2, abs=1e-9)
        assert corrected_angle(0, 0, 0, 0, 0, 0, 0) == 0.0  # sides 0.01, 0.01 and 0
        assert corrected_angle(1, 1, 1, 0.5, 2, 2, 2**63 - 1) == pytest.approx(math.pi / 3)

    # finite sides whose squares overflow: 1e160 warned "overflow
    # encountered in scalar multiply" and gave NaN with warnings ignored
    @pytest.mark.parametrize("slot, name", enumerate("abce"))
    @pytest.mark.parametrize("bad", [1e160, pytest.param(10**151, id="10**151"),
                                     np.float64(1.01e150)])
    def test_side_or_e_past_bound_rejected(self, slot, name, bad):
        args = [3, 4, 5, 0.1, 1, 1, 1]
        args[slot] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^{name} must be at most 1e\+150, "
                                                 rf"got {re.escape(repr(bad))}$"):
                corrected_angle(*args)

    def test_side_bound_accepted(self):
        # the bound itself, as sides and as e times the largest hop count
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert corrected_angle(1e150, 1e150, 1e150, 0, 1, 1, 1) == pytest.approx(math.pi / 3)
            assert corrected_angle(1e150, 1e150, 0, 1e150, 1, 1, 2**63 - 1) == 0.0
            assert corrected_angle(1e150, 1e150, 1e150, 1e150, 2, 2, 2) == pytest.approx(
                math.pi / 3)


def angle(g, e, at, ref, target):
    """``_angles`` for one item: (theta, K)."""
    theta, k = _angles(g, dijkstra_trees(g, [at]), np.array([0]), np.array([0]),
                       np.array([ref]), np.array([target]), np.array([e]))
    return theta[0], k[0]


class TestEstimateAngle:
    def test_right_triangle_single_hop(self):
        g = NetworkGraph(3, [(0, 1, 3.0), (0, 2, 4.0), (1, 2, 5.0)])
        theta, k = angle(g, 0.0, at=0, ref=1, target=2)
        assert theta == pytest.approx(math.pi / 2, abs=1e-9)
        assert k == 1

    def test_collinear_single_hop(self):
        g = NetworkGraph(3, [(0, 1, 2.0), (0, 2, 3.0), (1, 2, 5.0)])
        theta, _ = angle(g, 0.0, at=0, ref=1, target=2)
        assert theta == pytest.approx(math.pi, abs=1e-9)

    def test_corrected_equilateral_two_hops(self):
        # both prefix segments are 2 hops of 6 m; connection is 2 hops of 6 m
        edges = [
            (0, 3, 6.0), (3, 1, 6.0),   # path 0 -> ref 1
            (0, 4, 6.0), (4, 2, 6.0),   # path 0 -> target 2
            (1, 5, 6.0), (5, 2, 6.0),   # connection between hop-2 nodes
        ]
        g = NetworkGraph(6, edges)
        theta, k = angle(g, 1.0, at=0, ref=1, target=2)
        assert theta == pytest.approx(math.pi / 3, abs=1e-9)
        assert k == 2

    def test_anchor_c_side_read_from_forest(self, monkeypatch):
        # the hop-2 node toward ref 1 is node 1 itself, two hops from the
        # hop-2 node 2 toward the target: with 1 a root of the forest, the
        # c side reads 1's tree and runs no shortest-path call of its own
        edges = [(0, 3, 6.0), (3, 1, 6.0), (0, 4, 6.0), (4, 2, 6.0), (1, 5, 6.0), (5, 2, 6.0)]
        g = NetworkGraph(6, edges)
        items = np.array([0]), np.array([0]), np.array([1]), np.array([2]), np.array([1.0])
        alone = _angles(g, dijkstra_trees(g, [0]), *items)
        forest = dijkstra_trees(g, [0, 1])
        calls = []
        monkeypatch.setattr(rail, "dijkstra_trees", lambda g, sources, block=None:
                            calls.append(sources) or dijkstra_trees(g, sources, block))
        both = _angles(g, forest, *items)
        assert calls == []
        assert alone[0].tolist() == both[0].tolist() and alone[1].tolist() == both[1].tolist()
        assert both[0][0] == pytest.approx(math.pi / 3, abs=1e-9)

    def test_ancestors_walk_up_a_copy(self):
        # on the path 0-1-2-3-4 rooted at 0, the node k hops from the root
        # toward v, for every (v, k <= depth); v is left as it was
        g = NetworkGraph(5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
        forest = dijkstra_trees(g, [0])
        v, k = np.array([4, 4, 4, 3, 2, 0]), np.array([0, 1, 3, 3, 1, 0])
        kept = v.copy()
        zero = np.zeros(len(v), dtype=int)
        got = rail._ancestors(forest, zero, zero, v, k)
        assert got.tolist() == k.tolist() and v.tolist() == kept.tolist()

    def test_output_in_range_on_random_networks(self):
        for seed in (1, 4):
            dep = generate_deployment(50, 50, 100, 3, 10, seed=seed)
            g = build_graph(dep, MODEL)
            targets = np.array(dep.unknown_ids[::7])
            m = len(targets)
            zero = np.zeros(m, dtype=int)
            theta, k = _angles(g, dijkstra_trees(g, [0]), zero, zero, np.ones(m, dtype=int),
                               targets, np.full(m, 2.5))
            assert ((0.0 <= theta) & (theta <= math.pi)).all()
            assert ((1 <= k) & (k <= 3)).all()


class TestBuildRays:
    # anchors (0, 0), (10, 0), (0, 10) in id order, and their distances in
    # (01, 02, 12) order
    ax, ay = column(0, 10, 0), column(0, 0, 10)
    dist = column(10, 10, math.hypot(10, 10))

    def _angles(self, th_01, th_02, rest=math.pi / 4):
        """(theta_j, theta_k): anchor 0's angles toward anchors 1 and 2 are
        th_01 and th_02, every other angle is ``rest``."""
        return column(th_01, rest, rest), column(th_02, rest, rest)

    def test_disambiguation_picks_matching_candidate(self):
        a = self._angles(math.pi / 4, math.pi / 4)
        dx, dy = _ray_directions(self.ax, self.ay, self.dist, *a)
        assert (dx[0, 0], dy[0, 0]) == pytest.approx((math.sqrt(2) / 2, math.sqrt(2) / 2))

    def test_zero_angle_along_baseline(self):
        dx, dy = _ray_directions(self.ax, self.ay, self.dist, *self._angles(0.0, math.pi / 2))
        assert (dx[0, 0], dy[0, 0]) == pytest.approx((1.0, 0.0))

    def test_right_angle_toward_disambiguator(self):
        dx, dy = _ray_directions(self.ax, self.ay, self.dist, *self._angles(math.pi / 2, 0.0))
        assert (dx[0, 0], dy[0, 0]) == pytest.approx((0.0, 1.0))

    def test_scale_invariance(self):
        a = self._angles(1.1, 0.6)
        dx1, dy1 = _ray_directions(self.ax, self.ay, self.dist, *a)
        dx2, dy2 = _ray_directions(self.ax * 3, self.ay * 3, self.dist * 3, *a)
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
        hit = ray_pair_intersection(r1, r2)
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

    @pytest.mark.parametrize("behind, hits", [(1e-9, True), (2e-9, False)])
    def test_pair_meeting_behind_an_origin(self, behind, hits):
        # the rays meet ``behind`` m back along ray r0, as the first ray of
        # the pair and as the second: DEFAULT_TOL (1e-9) back still counts
        # as a hit, as in the oracle, and twice that does not
        r0, r1 = make_ray(Point(0, 5), 1, 0), make_ray(Point(-behind, 0), 0, 1)
        for pair in ([r0, r1], [r1, r0]):
            rays = np.array([[[r.origin.x], [r.origin.y], [r.dx], [r.dy]] for r in pair])
            _, _, _, (_, _, hit) = _locate(column(0, 10, 0, 10), tuple(rays.transpose(1, 0, 2)))
            assert hit.tolist() == [[hits]]
            assert (ray_pair_intersection(*pair) is not None) == hits

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
        g = NetworkGraph(4, [(0, 3, 1.0), (1, 3, 1.0), (2, 3, 1.0)])
        results = localize_all(dep, g)
        assert results.targets.tolist() == [3]
        assert results.box[:, 0].tolist() == [-1, 1, -1, 1]
        assert contains(AABox(-1, 1, -1, 1), Point(results.x[0], results.y[0]))

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


# (width, height, nodes, anchors, sigma, seed) of the deployments that
# localize_all is always checked on against reference_localize
REFERENCE_DEPLOYMENTS = [
    (50, 50, 120, 3, 0.0, 1),
    (50, 50, 300, 3, 4.0, 2),
    (50, 50, 200, 4, 1.0, 3),
    (60, 60, 200, 6, 4.0, 4),
    (200, 20, 200, 3, 0.0, 5),
    (120, 40, 250, 5, 3.0, 6),
]

# (pitch, comm_range, anchor cells) of the exact-tie lattices
TIE_LATTICES = [
    (5.0, 10.0, ((0, 0), (9, 0), (0, 9))),
    (4.0, 8.0, ((0, 0), (12, 3), (3, 12))),
    (5.0, 7.5, ((1, 1), (9, 2), (2, 9))),
]


# runs of the checked-in sweeps: every table2 density, and noisy6
SWEEP_RUNS = [("table2.json", 100, 0), ("table2.json", 200, 1), ("table2.json", 500, 0),
              ("noisy6.json", 200, 0), ("noisy6.json", 200, 1)]


@functools.cache
def sweep_scenario(config, density, run):
    return scenario(ExperimentConfig.from_json_file(CONFIGS / config), density, run)


def turned(dep):
    """``dep`` rotated by 90 degrees, (x, y) -> (-y, x), which is exact in
    floating point; the sides of its area swap."""
    x, y = dep.coords.T
    return Deployment(dep.height, dep.width, np.stack((-y, x), axis=1), dep.anchor_ids,
                      dep.comm_range)


def seeded(width, height, n, anchors, sigma, seed, turn=False):
    """The deployment (R = 10 m) and RSSI graph of one parameter set, both
    drawn from ``seed``; with ``turn``, the deployment is ``turned`` before
    its graph draws the same noise."""
    dep = generate_deployment(width, height, n, anchors, 10, seed=seed)
    dep = turned(dep) if turn else dep
    return dep, build_graph(dep, PathLossModel(sigma=sigma), rng=np.random.default_rng(seed))


def lattice(pitch, comm_range, anchor_cells, turn=False):
    """Node 13 * row + column at (column, row) * pitch on a 13 x 13 lattice in
    a 60 x 60 m area, anchors at ``anchor_cells`` and sigma 0: link weights
    repeat, so shortest paths tie exactly and ``network._resolve_ties``
    picks the hop-K nodes of RAIL's angle triangles. ``turn`` as ``seeded``."""
    row, column = np.divmod(np.arange(13 * 13), 13)
    anchors = tuple(sorted(13 * r + c for c, r in anchor_cells))
    dep = Deployment(60.0, 60.0, np.stack((column, row), axis=1) * pitch, anchors, comm_range)
    dep = turned(dep) if turn else dep
    return dep, build_graph(dep, MODEL)


@st.composite
def seeded_scenes(draw):
    """``seeded`` with 3-6 anchors and 20-150 unknowns on 15-50 m2 per node
    (a mean degree of about 6 to 20), sides up to 5:1 either way, sigma in
    [0, 6] dB and any seed."""
    anchors = draw(st.integers(3, 6))
    n = draw(st.integers(20, 150))
    area = (n + anchors) * draw(st.floats(15.0, 50.0))
    width = math.sqrt(area * draw(st.floats(0.2, 5.0)))
    sigma, seed = draw(st.floats(0.0, 6.0)), draw(st.integers(min_value=0))
    return functools.partial(seeded, width, area / width, n, anchors, sigma, seed)


def examples(values):
    """``@example(v)`` for each v of values."""
    def add(test):
        for v in values:
            test = example(v)(test)
        return test
    return add


def baselines_of(dep, g):
    """Min-Max's (x, y, inverted) and DV-hop's (x, y, degenerate) for the
    targets of one run, as a sweep computes them before the clamp."""
    anchors, targets = list(dep.anchor_ids), list(dep.unknown_ids)
    floods = hop_floods(g, anchors)
    acc, hops = floods.dist[0][:, targets], floods.hops[0][:, targets]
    ax, ay = dep.coords[anchors].T
    chosen = np.argsort(acc, axis=0, kind="stable")[:3]
    return (min_max_all(ax, ay, hops, dep.comm_range),
            rssi_dv_hop_all(ax, ay, chosen, np.take_along_axis(acc, chosen, axis=0)))


def assert_matches_reference(dep, g):
    """localize_all on (dep, g) gives reference_localize's targets, cases,
    boxes, intersections and estimates, bit for bit."""
    results = localize_all(dep, g)
    want = reference_localize(dep, g)
    assert results.targets.tolist() == list(want)
    hit_x, hit_y, hit = results.hits
    for i, t in enumerate(results.targets.tolist()):
        est, case, box, pts = want[t]
        assert results.case[i] == case
        assert results.box[:, i].tolist() == [box.x_min, box.x_max, box.y_min, box.y_max]
        assert [(hit_x[q, i], hit_y[q, i]) for q in range(3) if hit[q, i]] == [
            (p.x, p.y) for p in pts]
        assert (results.x[i], results.y[i]) == (est.x, est.y)


class TestStages:
    @pytest.mark.parametrize("density", [100, 200, 500])
    def test_true_angles_place_every_target(self, density):
        # fed the true angle at each chosen anchor, the rays and the
        # four-case rule put every target of table2's noise-free runs in
        # case MULTI at its own position: RAIL's error comes from the angles
        cfg = ExperimentConfig.from_json_file(CONFIGS / "table2.json")
        coords, anchors, _, g = _scenes(cfg, density, range(4))
        geo = rail._anchor_geometry(*coords[:, anchors].T, anchors, g)
        tx, ty = coords[geo.run, geo.cols].T
        # theta[i, o], at chosen anchor i between anchor OTHERS[i, o] and the target
        ux, uy = geo.ax[OTHERS] - geo.ax[:, None], geo.ay[OTHERS] - geo.ay[:, None]
        vx, vy = (tx - geo.ax)[:, None], (ty - geo.ay)[:, None]
        theta = np.arctan2(np.abs(ux * vy - uy * vx), ux * vx + uy * vy)
        _, (x, y, case, _) = rail._place(geo, theta)
        assert (case == MULTI).all()
        assert np.hypot(x - tx, y - ty).max() < 1e-5

    @pytest.mark.parametrize("config, density", [
        ("table2.json", 100), ("table2.json", 200), ("table2.json", 500), ("noisy6.json", 200)])
    def test_sweep_matches_localize_chunk(self, config, density, monkeypatch):
        # a 2-run chunk's RAIL estimates and box counts are localize_chunk's
        # on the same arrays, bit for bit, and the sweep reaches the three
        # stages through one rail._localize call, never through the checks
        cfg = ExperimentConfig.from_json_file(CONFIGS / config)
        coords, anchors, targets, g = _scenes(cfg, density, range(2))
        results = localize_chunk(*anchor_xy(coords, anchors), anchors, g)
        truth = coords[:, targets].reshape(-1, 2).T  # (x or y, column)
        held = rail._inside(results.box, *truth).reshape(2, -1).sum(axis=1)
        x = np.clip(results.x, 0.0, cfg.width).reshape(2, -1)
        y = np.clip(results.y, 0.0, cfg.height).reshape(2, -1)

        calls = []

        def spy(*args, fn=rail._localize):
            calls.append(args)
            return fn(*args)

        def checked(*args):
            raise AssertionError("the sweep called localize_chunk")

        monkeypatch.setattr(rail, "_localize", spy)
        monkeypatch.setattr(rail, "localize_chunk", checked)
        records = _run_chunk(cfg, density, range(2))
        assert len(calls) == 1
        for b, rec in enumerate(records):
            est = rec.estimates["RAIL"]
            assert est.x.tobytes() == x[b].tobytes() and est.y.tobytes() == y[b].tobytes()
            assert rec.rail_box_contains == held[b]


class TestLocalizeAll:
    @pytest.mark.parametrize("width, height, n, anchors, sigma, seed", REFERENCE_DEPLOYMENTS)
    def test_matches_scalar_reference(self, width, height, n, anchors, sigma, seed):
        assert_matches_reference(*seeded(width, height, n, anchors, sigma, seed))

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(seeded_scenes())
    @examples([functools.partial(lattice, *p) for p in TIE_LATTICES])
    def test_matches_scalar_reference_on_generated_scenes(self, scene):
        # ``scene`` builds a (deployment, graph) pair
        try:
            dep, g = scene()
        except GenerationFailed:
            reject()
        assert_matches_reference(dep, g)

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(seeded_scenes())
    @examples([functools.partial(lattice, *p) for p in TIE_LATTICES])
    def test_rotation_by_90_degrees(self, scene):
        # the scenes above, ``turned``: the graph keeps its links and weights
        # bit for bit, and RAIL's and Min-Max's estimates turn with the
        # deployment bit for bit but for the sign of a zero (a lattice anchor
        # at x = 0 turns to y = -0.0). DV-hop's b1 = (d3^2 - d1^2) + (s1x -
        # s3x) + (s1y - s3y) swaps its last two terms, so only its degenerate
        # flags are exact; its estimates agree within 1e-12 of max(1 m,
        # |estimate|), and 309 such scenes differed by at most 3.7e-14 of it
        try:
            (dep, g), (dep_t, g_t) = scene(), scene(turn=True)
        except GenerationFailed:
            reject()
        assert g.links.tobytes() == g_t.links.tobytes()
        assert g.weights.tobytes() == g_t.weights.tobytes()
        rail, rail_t = localize_all(dep, g), localize_all(dep_t, g_t)
        assert (rail_t.x == -rail.y).all() and (rail_t.y == rail.x).all()
        (mx, my, inverted), (dx, dy, degenerate) = baselines_of(dep, g)
        (mx_t, my_t, inverted_t), (dx_t, dy_t, degenerate_t) = baselines_of(dep_t, g_t)
        assert (mx_t == -my).all() and (my_t == mx).all() and (inverted_t == inverted).all()
        assert (degenerate_t == degenerate).all()
        size = np.maximum(1.0, np.maximum(abs(dx), abs(dy)))
        assert (abs(dx_t + dy) <= 1e-12 * size).all() and (abs(dy_t - dx) <= 1e-12 * size).all()

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(st.tuples(seeded_scenes(), st.integers(0, 2**32 - 1)))
    @examples([(functools.partial(lattice, *p), 0) for p in TIE_LATTICES]
              + [(functools.partial(seeded, 50.0, 50.0, 200, 6, 4.0, 1), 1)])  # noisy6-like
    def test_relabeling_the_unknowns(self, case):
        # the scenes above with their unknowns' ids permuted, anchors keeping
        # theirs and every physical link its weight: flood hop counts, and
        # so Min-Max's estimates, follow the nodes bit for bit, and so do
        # RAIL's but on the exact-tie lattices, where the tie rule takes the
        # smallest-id path. DV-hop sums the RSSI distances of the flood's
        # first-found parents, which depend on the ids, so it is not checked
        scene, seed = case
        try:
            dep, g = scene()
        except GenerationFailed:
            reject()
        unknown = np.array(dep.unknown_ids)
        new = np.arange(len(dep.coords))  # node v is renamed new[v]
        new[unknown] = np.random.default_rng(seed).permutation(unknown)
        coords = np.empty_like(dep.coords)
        coords[new] = dep.coords
        dep_r = Deployment(dep.width, dep.height, coords, dep.anchor_ids, dep.comm_range)
        i, j, w = g.links_of(0)
        g_r = NetworkGraph(len(new), list(zip(new[i].tolist(), new[j].tolist(), w.tolist())))

        anchors = list(dep.anchor_ids)
        floods, floods_r = hop_floods(g, anchors), hop_floods(g_r, anchors)
        assert (floods_r.hops[0][:, new] == floods.hops[0]).all()
        (mx, my, inverted), _ = baselines_of(dep, g)
        (mx_r, my_r, inverted_r), _ = baselines_of(dep_r, g_r)
        col = np.searchsorted(dep_r.unknown_ids, new[unknown])  # target t's column in dep_r
        assert mx_r[col].tobytes() == mx.tobytes() and my_r[col].tobytes() == my.tobytes()
        assert (inverted_r[col] == inverted).all()
        if scene.func is not lattice:
            rail, rail_r = localize_all(dep, g), localize_all(dep_r, g_r)
            assert rail_r.x[col].tobytes() == rail.x.tobytes()
            assert rail_r.y[col].tobytes() == rail.y.tobytes()

    def test_reference_deployments_fire_every_case(self):
        # the reference comparison covers all four cases of the rule and
        # the empty-box fallback
        fired, empty_boxes = set(), 0
        for params in REFERENCE_DEPLOYMENTS:
            dep, g = seeded(*params)
            fired.update(localize_all(dep, g).case.tolist())
            anchors, targets = list(dep.anchor_ids), list(dep.unknown_ids)
            sd = dijkstra_trees(g, anchors).dist[0][:, targets]
            nearest = np.argsort(sd, axis=0, kind="stable")[:3]
            ax, ay = (dep.coords[anchors, i][nearest] for i in (0, 1))
            empty_boxes += _boxes(ax, ay, np.take_along_axis(sd, nearest, axis=0))[1].sum()
        assert fired == {MULTI, SINGLE, ALL_OUTSIDE, NO_INTERSECTION}
        assert empty_boxes > 0

    @pytest.mark.parametrize("params", TIE_LATTICES)
    def test_tie_lattices_run_the_tie_rule(self, params, monkeypatch):
        # the lattices the reference comparison always runs send shortest
        # paths through the lexicographic tie rule
        calls = []
        monkeypatch.setattr(network, "_reconstruct", lambda pred, v:
                            calls.append(v) or _reconstruct(pred, v))
        localize_all(*lattice(*params))
        assert calls

    def test_at_most_two_shortest_path_calls(self, monkeypatch):
        # the anchor trees and every far c side each take one batched scipy
        # call, however many anchors and angle items a run has
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("indices"))
            return scipy_dijkstra(*args, **kwargs)

        # network imports scipy's dijkstra in the function, on every call
        monkeypatch.setattr("scipy.sparse.csgraph.dijkstra", counted)
        for width, height, n, anchors, sigma, seed in REFERENCE_DEPLOYMENTS:
            dep = generate_deployment(width, height, n, anchors, 10, seed=seed)
            g = build_graph(dep, PathLossModel(sigma=sigma), rng=np.random.default_rng(seed))
            calls.clear()
            localize_all(dep, g)
            assert 1 <= len(calls) <= 2
            assert calls[0].tolist() == list(dep.anchor_ids)

    @pytest.mark.parametrize("config, density, run", SWEEP_RUNS)
    def test_c_side_has_no_anchor_source(self, config, density, run, monkeypatch):
        # the anchor trees are one call; the c side reads an anchor source's
        # row from them, so its one call has no anchor among its sources
        dep, g = sweep_scenario(config, density, run)
        calls = []
        monkeypatch.setattr(rail, "dijkstra_trees", lambda g, sources, block=None:
                            calls.append(sources) or dijkstra_trees(g, sources, block))
        localize_all(dep, g)
        assert 1 <= len(calls) <= 2
        assert list(calls[0]) == list(dep.anchor_ids)
        if len(calls) == 2:
            assert len(calls[1]) and not set(calls[1].tolist()) & set(dep.anchor_ids)

    @pytest.mark.parametrize("config, density, run", SWEEP_RUNS)
    def test_libm_maps_cos_and_sin_once(self, config, density, run, monkeypatch):
        # one cos and one sin map per run, of the rays' theta_j: the
        # clockwise candidate reuses them for -theta_j
        cfg = ExperimentConfig.from_json_file(CONFIGS / config)
        calls = []

        def spy(fn, *arrays):
            out = libm(fn, *arrays)
            calls.append((fn, out.size))
            return out

        for module in (geometry, radio, rail):
            monkeypatch.setattr(module, "libm", spy)
        _run_chunk(cfg, density, (run,))
        m = 3 * density
        assert {fn for fn, _ in calls} == {math.acos, math.log10, math.pow, math.hypot,
                                           math.cos, math.sin}
        assert [size for fn, size in calls if fn is math.cos] == [m]
        assert [size for fn, size in calls if fn is math.sin] == [m]

    def test_unreachable_names_the_trees_source(self):
        # block 1 is block 0 with node 3 cut off: its column names anchor 0,
        # the first whose tree misses the target
        whole = NetworkGraph(4, [(0, 1, 3.0), (0, 2, 4.0), (1, 2, 5.0), (2, 3, 4.0)])
        cut = NetworkGraph(4, [(0, 1, 3.0), (0, 2, 4.0), (1, 2, 5.0)])
        coords = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0], [4.0, 4.0]])
        one = anchor_xy(coords[None], (0, 1, 2))
        two = anchor_xy(np.stack((coords, coords)), (0, 1, 2))
        assert localize_chunk(*one, (0, 1, 2), whole).targets.tolist() == [3]
        with pytest.raises(Unreachable, match="node 3 unreachable from 0"):
            localize_chunk(*two, (0, 1, 2), NetworkGraph.stack([whole, cut]))

    def test_unreachable_partner_anchor(self):
        # anchor 0 has no link: node 3 reaches anchors 1 and 2 only
        dep = Deployment(30.0, 30.0, [(0, 0), (30, 0), (30, 30), (20, 10)], (0, 1, 2), 25.0)
        g = NetworkGraph(4, [(1, 3, 14.0), (2, 3, 22.0)])
        with pytest.raises(Unreachable, match="node 1 unreachable from 0"):
            localize_all(dep, g)

    @pytest.mark.parametrize("anchor_ids, match", [
        pytest.param((0, 1), "3 distinct anchors, got 2", id="anchor_ids0-2"),
        pytest.param((0, 1, 1), "3 distinct anchors, got 2", id="anchor_ids1-2"),
        pytest.param((2,), "3 distinct anchors, got 1", id="anchor_ids2-1"),
        # 3 distinct ids, one of them twice: an input fault, not a geometry one
        pytest.param((0, 1, 2, 2), "anchor id 2 is given more than once", id="repeat-last"),
        pytest.param((0, 0, 1, 2), "anchor id 0 is given more than once", id="repeat-first"),
    ])
    def test_fewer_than_three_anchors_rejected(self, anchor_ids, match):
        dep, g = seeded(50, 50, 60, 3, 0.0, 1)
        with pytest.raises(ValueError, match=match):
            localize_chunk(*anchor_xy(dep.coords[None], anchor_ids), anchor_ids, g)

    @pytest.mark.parametrize("anchor_ids, match", [
        # not truncated to anchors 0, 1 and 2
        pytest.param([0.7, 1, 2], "be integers, got a float64 id$", id="float-first"),
        pytest.param([0, 1.9, 2], "be integers, got a float64 id$", id="float-middle"),
        pytest.param(np.array([0.0, 1.0, 2.0]), "be integers, got a float64 id$", id="float-array"),
        pytest.param([0, True, 2], "be integers, got a bool id$", id="bool"),
        pytest.param([0, 1, 63], r"lie in \[0, 63\), got 63$", id="past-n"),
        pytest.param([-1, 1, 2], r"lie in \[0, 63\), got -1$", id="negative"),
    ])
    def test_anchor_ids_checked_before_any_tree(self, anchor_ids, match, monkeypatch):
        dep, g = seeded(50, 50, 60, 3, 0.0, 1)

        def grown(*args, **kwargs):
            raise AssertionError("a tree was grown")
        monkeypatch.setattr(rail, "dijkstra_trees", grown)
        with pytest.raises(ValueError, match="node ids must " + match):
            localize_chunk(*anchor_xy(dep.coords[None], dep.anchor_ids), anchor_ids, g)

    def test_coords_must_match_the_graph(self, monkeypatch):
        # anchor arrays of another run count than the graph's blocks,
        # transposed, of another anchor count than anchor_ids, or 1-D are
        # refused with both shapes named, before any tree is grown and with
        # no numpy warning
        dep, g = seeded(50, 50, 60, 3, 0.0, 1)
        other = seeded(50, 50, 61, 3, 0.0, 1)[1]
        one = anchor_xy(dep.coords[None], (0, 1, 2))
        two = anchor_xy(np.stack((dep.coords, dep.coords)), (0, 1, 2))
        four = anchor_xy(dep.coords[None], (0, 1, 2, 3))

        def grown(*args, **kwargs):
            raise AssertionError("a tree was grown")
        monkeypatch.setattr(rail, "dijkstra_trees", grown)
        stacked = NetworkGraph.stack([g, g])
        for (x, y), graph, got in (
                (one, stacked, r"\(3, 1\) and \(3, 1\)"),
                (two, g, r"\(3, 2\) and \(3, 2\)"),
                (one.transpose(0, 2, 1), g, r"\(1, 3\) and \(1, 3\)"),
                ((one[0], one[1].T), g, r"\(3, 1\) and \(1, 3\)"),
                (four, g, r"\(4, 1\) and \(4, 1\)"),
                ((one[0, :, 0], one[1, :, 0]), g, r"\(3,\) and \(3,\)")):
            want = (r"must be \(anchors, runs\) = \(3, %d\) arrays, got " % graph.blocks) + got
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=want + "$"):
                    localize_chunk(x, y, (0, 1, 2), graph)
        with pytest.raises(ValueError, match=r"= \(3, 2\) arrays"):
            localize_all(dep, stacked)
        # localize_all reads the deployment's anchors for the graph's nodes
        with pytest.raises(ValueError, match="^63 deployed nodes do not match a graph of 64$"):
            localize_all(dep, other)

    @pytest.mark.parametrize("change", [
        # anchor 0's x
        pytest.param(lambda x, y: (np.where(np.arange(3)[:, None] == 0, math.inf, x), y),
                     id="infinite-anchor"),
        pytest.param(lambda x, y: (x, np.where(np.arange(3)[:, None] == 2, math.nan, y)),
                     id="nan-anchor-y"),
        # a number too large for a float is not finite: no OverflowError
        pytest.param(lambda x, y: ([[10**400]] + x[1:].tolist(), y), id="huge-integer"),
    ])
    def test_coords_must_be_finite_xy(self, change, monkeypatch):
        # refused before any tree is grown, with no numpy warning
        dep, g = seeded(50, 50, 60, 3, 0.0, 1)

        def grown(*args, **kwargs):
            raise AssertionError("a tree was grown")
        monkeypatch.setattr(rail, "dijkstra_trees", grown)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite anchor position$"):
                localize_chunk(*change(*anchor_xy(dep.coords[None], dep.anchor_ids)),
                               dep.anchor_ids, g)

    def test_deterministic(self):
        dep = generate_deployment(50, 50, 80, 3, 10, seed=21)
        g = build_graph(dep, MODEL)
        r1, r2 = (localize_all(dep, g) for _ in range(2))

        def columns(r):
            return [r.targets, r.x, r.y, r.case, r.box, *r.rays, *r.hits]

        assert all(np.array_equal(u, v) for u, v in zip(columns(r1), columns(r2)))

    def test_reads_no_unknown_position(self):
        # the unknowns moved, the graph kept: every column is the same
        dep = generate_deployment(50, 50, 80, 3, 10, seed=21)
        g = build_graph(dep, MODEL)
        xy = dep.coords.copy()
        xy[list(dep.unknown_ids)] = 25.0
        moved = Deployment(dep.width, dep.height, xy, dep.anchor_ids, dep.comm_range)
        r1, r2 = localize_all(dep, g), localize_all(moved, g)
        assert all(np.array_equal(u, v) for u, v in zip(
            [r1.targets, r1.x, r1.y, r1.case, r1.box, *r1.rays, *r1.hits],
            [r2.targets, r2.x, r2.y, r2.case, r2.box, *r2.rays, *r2.hits]))

    def test_near_anchor_targets_accurate(self):
        # noise-free: targets within one hop of some anchor average well
        # under the communication range in error
        dep = generate_deployment(50, 50, 150, 3, 10, seed=33)
        g = build_graph(dep, MODEL)
        results = localize_all(dep, g)
        near = [
            i for i, t in enumerate(results.targets.tolist())
            if any(g.edge_weight(a, t) is not None for a in dep.anchor_ids)
        ]
        errs = [distance(dep.nodes[results.targets[i]], Point(results.x[i], results.y[i]))
                for i in near]
        assert float(np.mean(errs)) < 3.0

    def test_diagnostics_consistent(self):
        dep = generate_deployment(50, 50, 100, 3, 10, seed=8)
        g = build_graph(dep, MODEL)
        results = localize_all(dep, g)
        hit_x, hit_y, hit = results.hits
        for i, case in enumerate(results.case.tolist()):
            box = AABox(*results.box[:, i].tolist())
            pts = [Point(hit_x[q, i], hit_y[q, i]) for q in range(3) if hit[q, i]]
            in_box = [p for p in pts if contains(box, p)]
            if case == MULTI:
                assert len(in_box) >= 2
            elif case == SINGLE:
                assert len(in_box) == 1
            elif case == ALL_OUTSIDE:
                assert pts and not in_box
            else:
                assert case == NO_INTERSECTION
                assert not pts

    def test_four_anchors_uses_nearest_three(self):
        dep = generate_deployment(50, 50, 120, 4, 10, seed=14)
        g = build_graph(dep, MODEL)
        results = localize_all(dep, g)
        targets = list(dep.unknown_ids)
        assert results.targets.tolist() == targets
        # each target's rays start at its three nearest anchors by SD, in id order
        sd = dijkstra_trees(g, list(dep.anchor_ids)).dist[0][:, targets]
        nearest = np.sort(np.argsort(sd, axis=0, kind="stable")[:3], axis=0)
        chosen = np.array(dep.anchor_ids)[nearest]
        ray_x, ray_y = results.rays[:2]
        assert (ray_x == dep.coords[chosen, 0]).all()
        assert (ray_y == dep.coords[chosen, 1]).all()
        assert len(set(map(tuple, nearest.T.tolist()))) > 1  # some targets differ
