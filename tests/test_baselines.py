import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from railsim.baselines import min_max_all, rssi_dv_hop, rssi_dv_hop_all
from railsim.geometry import Point, distance, libm


def same_bits(a, b) -> bool:
    """Equal arrays, down to the sign of zero (as float64 bits; flags too)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def scalar_min_max(anchors, comm_range):
    """Oracle: the per-target Min-Max formula in plain Python floats."""
    x_min = max(p.x - h * comm_range for p, h in anchors)
    x_max = min(p.x + h * comm_range for p, h in anchors)
    y_min = max(p.y - h * comm_range for p, h in anchors)
    y_max = min(p.y + h * comm_range for p, h in anchors)
    return (x_min + x_max) / 2.0, (y_min + y_max) / 2.0, x_min > x_max or y_min > y_max


def scalar_dv_hop(anchors):
    """Oracle: the per-target linearised trilateration in plain Python floats."""
    (p1, d1), (p2, d2), (p3, d3) = anchors
    a11, a12 = 2.0 * (p1.x - p3.x), 2.0 * (p1.y - p3.y)
    a21, a22 = 2.0 * (p2.x - p3.x), 2.0 * (p2.y - p3.y)
    b1 = (d3 * d3 - d1 * d1) + (p1.x**2 - p3.x**2) + (p1.y**2 - p3.y**2)
    b2 = (d3 * d3 - d2 * d2) + (p2.x**2 - p3.x**2) + (p2.y**2 - p3.y**2)
    det = a11 * a22 - a12 * a21
    if abs(det) < 1e-9:
        return (p1.x + p2.x + p3.x) / 3.0, (p1.y + p2.y + p3.y) / 3.0, True
    return (b1 * a22 - b2 * a12) / det, (a11 * b2 - a21 * b1) / det, False


def test_array_kernels_match_scalar_formulas():
    # every target's result is bit-equal to the plain-float formula,
    # including collinear (degenerate) and inverted draws
    rng = np.random.default_rng(21)
    for k in (3, 4, 6):
        ax, ay = rng.uniform(0, 50, k), rng.uniform(0, 50, k)
        if k == 4:  # three anchors on the line y = 2x + 1
            ax[:3], ay[:3] = (1.0, 5.0, 9.0), (3.0, 11.0, 19.0)
        m = 400
        hops = rng.integers(0, 6, size=(k, m))
        acc = rng.uniform(0.0, 60.0, size=(k, m))
        chosen = np.argsort(acc, axis=0, kind="stable")[:3]
        mx, my, inverted = min_max_all(ax, ay, hops, 10.0)
        dx, dy, degenerate = rssi_dv_hop_all(ax, ay, chosen, np.take_along_axis(acc, chosen, 0))
        pts = [Point(x, y) for x, y in zip(ax.tolist(), ay.tolist())]
        for t in range(m):
            want = scalar_min_max([(p, int(h)) for p, h in zip(pts, hops[:, t])], 10.0)
            assert (mx[t], my[t], inverted[t]) == want
            want = scalar_dv_hop([(pts[a], float(acc[a, t])) for a in chosen[:, t]])
            assert (dx[t], dy[t], degenerate[t]) == want
        assert inverted.any() and not inverted.all()
        assert degenerate.any() == (k == 4)


@pytest.mark.parametrize("k", [3, 4, 6])
def test_runs_layout_matches_one_run_calls(k):
    # (k, B) anchors with (3, B, m) choices and distances give, run by run,
    # what B calls of one run give, degenerate flags included
    rng = np.random.default_rng(22 + k)
    runs, m = 5, 300
    ax, ay = rng.uniform(0, 50, (2, k, runs))
    ax[:3, 1], ay[:3, 1] = (1.0, 5.0, 9.0), (3.0, 11.0, 19.0)  # run 1: a collinear triple
    acc = rng.uniform(0.0, 60.0, size=(k, runs, m))
    chosen = np.argsort(acc, axis=0, kind="stable")[:3]
    d = np.take_along_axis(acc, chosen, axis=0)
    x, y, degenerate = rssi_dv_hop_all(ax, ay, chosen, d)
    assert x.shape == y.shape == degenerate.shape == (runs, m)
    for b in range(runs):
        one = rssi_dv_hop_all(ax[:, b], ay[:, b], chosen[:, b], d[:, b])
        assert all(same_bits(got, want) for got, want in zip((x[b], y[b], degenerate[b]), one))
    # the targets of run 1 that chose the collinear triple, all of them at k = 3
    assert degenerate[1].any() and degenerate[1].all() == (k == 3)
    assert not np.delete(degenerate, 1, axis=0).any()


def test_pow_squares_match_python_power():
    # rssi_dv_hop_all squares anchor coordinates with libm(math.pow, a, 2.0),
    # the bits of the scalar formula's a**2; numpy's a * a and a**2 need not
    # give them
    rng = np.random.default_rng(20261019)
    a = 10.0 ** rng.uniform(-4, 4, 1_000_000) * rng.choice((-1.0, 1.0), 1_000_000)
    a[:6] = 0.0, -0.0, 5e-324, -5e-324, np.finfo(float).tiny / 3, -1e-310
    assert same_bits(libm(math.pow, a, 2.0), [v**2 for v in a.tolist()])


def test_overflowing_solve_falls_back_to_centroid():
    # distances of 1e200 square to inf: the solve warned "overflow
    # encountered in multiply" and returned NaN, unflagged. The second
    # target, with ordinary distances, solves as rssi_dv_hop does
    ax, ay = np.array([0.0, 10.0, 0.0]), np.array([0.0, 0.0, 10.0])
    d = np.array([[1e200, 5.0], [1e200, 5.0], [1e200, 5.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, y, degenerate = rssi_dv_hop_all(ax, ay, np.array([[0, 0], [1, 1], [2, 2]]), d)
    assert same_bits(x[0], 10.0 / 3.0) and same_bits(y[0], 10.0 / 3.0)
    assert degenerate.tolist() == [True, False]
    est = rssi_dv_hop([(Point(px, py), 5.0) for px, py in zip(ax, ay)])
    assert same_bits([x[1], y[1]], [est.position.x, est.position.y])


def min_max_one(anchors, comm_range):
    """``min_max_all`` for one target: (x, y, inverted) from (Point, hops) pairs."""
    ax = np.array([p.x for p, _ in anchors])
    ay = np.array([p.y for p, _ in anchors])
    x, y, inverted = min_max_all(ax, ay, np.array([[h] for _, h in anchors]), comm_range)
    return x[0], y[0], inverted[0]


class TestMinMax:
    def test_hand_example(self):
        # anchors at corners, 1 hop each with R = 10: rect is the
        # intersection of three 10 m squares
        x, y, inverted = min_max_all(np.array([0.0, 20.0, 0.0]), np.array([0.0, 0.0, 20.0]),
                                     np.array([[1], [2], [2]]), comm_range=10)
        assert (x[0], y[0]) == pytest.approx((5, 5))
        assert not inverted[0]

    def test_single_anchor_center_is_anchor(self):
        x, y, _ = min_max_all(np.array([3.0]), np.array([4.0]), np.array([[2]]), comm_range=5)
        assert (x[0], y[0]) == pytest.approx((3, 4))

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            pts = [
                (Point(*rng.uniform(0, 50, 2)), int(rng.integers(1, 5)))
                for _ in range(3)
            ]
            a = min_max_one(pts, comm_range=10)
            b = min_max_one(pts[::-1], comm_range=10)
            assert a[:2] == pytest.approx(b[:2])

    def test_truth_contained_when_hops_exact(self):
        # if hop counts upper-bound true distance / R, the true position
        # lies inside every anchor square, so the rect is non-empty
        rng = np.random.default_rng(7)
        for _ in range(200):
            truth = Point(*rng.uniform(0, 50, 2))
            anchors = []
            for _ in range(3):
                p = Point(*rng.uniform(0, 50, 2))
                hops = max(1, math.ceil(distance(p, truth) / 10))
                anchors.append((p, hops))
            x, _, inverted = min_max_one(anchors, comm_range=10)
            assert not inverted
            lo_x = max(p.x - h * 10 for p, h in anchors)
            hi_x = min(p.x + h * 10 for p, h in anchors)
            assert lo_x - 1e-9 <= x <= hi_x + 1e-9

    def test_inverted_rect_flagged_degenerate(self):
        # squares that cannot overlap
        x, _, inverted = min_max_all(np.array([0.0, 100.0]), np.array([0.0, 0.0]),
                                     np.array([[1], [1]]), comm_range=10)
        assert inverted[0]
        # still centers the (inverted) rect
        assert x[0] == pytest.approx(50)


class TestRssiDvHop:
    def test_planted_point(self):
        truth = Point(3, 4)
        anchors = [Point(0, 0), Point(10, 0), Point(0, 10)]
        obs = [(p, distance(p, truth)) for p in anchors]
        est = rssi_dv_hop(obs)
        assert (est.position.x, est.position.y) == pytest.approx((3, 4), abs=1e-9)
        assert not est.degenerate

    def test_known_distances(self):
        obs = [
            (Point(0, 0), 5.0),
            (Point(10, 0), math.sqrt(65)),
            (Point(0, 10), math.sqrt(45)),
        ]
        est = rssi_dv_hop(obs)
        assert (est.position.x, est.position.y) == pytest.approx((3, 4), abs=1e-9)

    def test_thousand_planted_points(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(1000):
            truth = Point(*rng.uniform(0, 50, 2))
            anchors = [Point(*rng.uniform(0, 50, 2)) for _ in range(3)]
            # skip nearly collinear anchor draws; those are the degenerate path
            a0, a1, a2 = anchors
            area = abs(
                (a1.x - a0.x) * (a2.y - a0.y) - (a2.x - a0.x) * (a1.y - a0.y)
            ) / 2
            if area < 5.0:
                continue
            est = rssi_dv_hop([(p, distance(p, truth)) for p in anchors])
            worst = max(worst, distance(est.position, truth))
        assert worst <= 1e-6

    def test_collinear_falls_back_to_centroid(self):
        obs = [
            (Point(0, 0), 1.0),
            (Point(5, 0), 1.0),
            (Point(10, 0), 1.0),
        ]
        est = rssi_dv_hop(obs)
        assert est.degenerate
        assert (est.position.x, est.position.y) == pytest.approx((5, 0))

    def test_equidistant_symmetry(self):
        # anchors on a circle, equal ranges: solution is the circumcenter
        c = Point(7, 9)
        r = 6.0
        anchors = [
            Point(c.x + r * math.cos(a), c.y + r * math.sin(a))
            for a in (0.3, 2.1, 4.4)
        ]
        est = rssi_dv_hop([(p, 2.5) for p in anchors])
        assert (est.position.x, est.position.y) == pytest.approx((7, 9), abs=1e-9)

    def test_requires_three_anchors(self):
        with pytest.raises(ValueError):
            rssi_dv_hop([(Point(0, 0), 1.0), (Point(1, 0), 1.0)])

    # a NaN or infinite distance was refused as "non-finite point (nan,
    # nan)", a point the caller never passed
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400, True, "1"])
    @pytest.mark.parametrize("slot", range(3))
    def test_non_finite_distance_rejected(self, bad, slot):
        anchors = [(Point(0, 0), 5.0), (Point(10, 0), 5.0), (Point(0, 10), 5.0)]
        anchors[slot] = (anchors[slot][0], bad)
        with pytest.raises(ValueError, match=rf"^distance must be a finite real number, "
                                             rf"got {re.escape(repr(bad))}$"):
            rssi_dv_hop(anchors)

    # finite values whose products overflow: 1e160 warned "overflow
    # encountered in multiply" as a distance, and raised a bare
    # OverflowError from the C library's pow as a coordinate
    @pytest.mark.parametrize("bad", [1e160, -1e101, pytest.param(10**200, id="10**200"),
                                     np.float64(1.1e100)])
    @pytest.mark.parametrize("name", ["x", "y", "distance"])
    @pytest.mark.parametrize("slot", range(3))
    def test_magnitude_past_bound_rejected(self, bad, name, slot):
        anchors = [[0.0, 0.0, 5.0], [10.0, 0.0, 5.0], [0.0, 10.0, 5.0]]
        anchors[slot][("x", "y", "distance").index(name)] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^{name} must be at most 1e\+100 in "
                                                 rf"magnitude, got {re.escape(repr(bad))}$"):
                rssi_dv_hop([(Point(x, y), d) for x, y, d in anchors])

    def test_magnitude_bound_accepted(self):
        # the bound itself solves to a finite point with no overflow; the
        # last set's b1 * a22 is 6 b**3, which overflows at b = 1e103
        b = 1e100
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for anchors in ([(Point(b, b), b), (Point(-b, b), b), (Point(b, -b), -b)],
                            [(Point(-b, -b), b), (Point(b, -b), -b), (Point(-b, b), b)],
                            [(Point(b, b), 0.0), (Point(-b, b), 0.0), (Point(0, 0), b)]):
                est = rssi_dv_hop(anchors)
                assert math.isfinite(est.position.x) and math.isfinite(est.position.y)

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.floats(0, 50), y=st.floats(0, 50),
        noise=st.floats(-0.5, 0.5),
    )
    def test_finite_under_noisy_ranges(self, x, y, noise):
        truth = Point(x, y)
        anchors = [Point(5, 5), Point(45, 5), Point(25, 45)]
        obs = [(p, max(0.01, distance(p, truth) + noise)) for p in anchors]
        est = rssi_dv_hop(obs)
        assert math.isfinite(est.position.x)
        assert math.isfinite(est.position.y)
