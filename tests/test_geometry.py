import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from oracle import (
    AABox,
    Ray,
    box_center,
    box_distance,
    centroid,
    contains,
    intersect_boxes,
    make_ray,
    project_onto_box,
    ray_pair_intersection,
)
from railsim.geometry import Point, distance, libm, square_box

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
DRAWS = 1_000_000


def same_bits(a, b) -> bool:
    """Equal float64 arrays, down to the sign of zero and the NaN payload."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def scalar_map(fn, *args):
    """fn over the broadcast arguments' elements as Python scalars."""
    flat = [a.ravel().tolist() for a in np.broadcast_arrays(*map(np.asarray, args))]
    shape = np.broadcast_shapes(*map(np.shape, args))
    return np.reshape(np.array([fn(*v) for v in zip(*flat)], dtype=float), shape)


def test_libm_keeps_shape():
    # any shape maps like the flat 1-D call, scalars broadcast and 0-d stays 0-d
    rng = np.random.default_rng(3)
    x, y = rng.uniform(-5, 5, size=(2, 3, 4))
    flat = np.array([math.hypot(a, b) for a, b in zip(x.ravel().tolist(), y.ravel().tolist())])
    assert (libm(math.hypot, x, y) == flat.reshape(3, 4)).all()
    powers = [math.pow(10.0, v) for v in x.ravel().tolist()]
    assert (libm(math.pow, 10.0, x) == np.reshape(powers, (3, 4))).all()
    scalar = libm(math.log10, 7.0)
    assert scalar.shape == () and scalar == math.log10(7.0)
    assert libm(math.acos, np.array(0.3)).shape == ()
    assert libm(math.hypot, np.empty(0), np.empty(0)).shape == (0,)
    # zeros, subnormals, infinities, NaN and magnitudes near overflow
    tiny = np.finfo(float).tiny
    dx = np.array([0.0, -0.0, 5e-324, tiny / 3, tiny, math.inf, -math.inf, math.nan,
                   math.nan, 1e308, 1.7e308, 2.0**1023, 3.0])
    dy = np.array([-0.0, 0.0, 0.0, tiny / 7, tiny, math.nan, 1.0, math.inf, 2.0,
                   1e308, 1.7e308, -(2.0**1023), -4.0])
    want = [math.hypot(a, b) for a, b in zip(dx.tolist(), dy.tolist())]
    assert same_bits(libm(math.hypot, dx, dy), want)


@pytest.mark.parametrize("shape", [(), (5,), (3, 4)])
def test_libm_scalars_match_broadcast_map(shape):
    # a 0-d argument is repeated instead of broadcast into a list; any mix
    # of scalars and arrays gives the map over the broadcast arguments, and
    # a call of scalars only stays 0-d
    rng = np.random.default_rng(11)
    x = rng.uniform(0.1, 4.0, shape)
    row = rng.uniform(0.1, 2.0, shape[-1:])  # broadcasts along the last axis
    for args in ((10.0, x), (x, 0.5), (np.array(2.0), x), (x, row), (row, x), (1.5, 2.0)):
        assert same_bits(libm(math.pow, *args), scalar_map(math.pow, *args))


def _layouts() -> dict:
    """Pairs of arrays of every memory layout, dtype and broadcast."""
    rng = np.random.default_rng(30)
    grid = rng.uniform(-5, 5, (6, 8))
    grid[0, :5] = 0.0, -0.0, 5e-324, 1.7e308, math.nan
    line = grid.ravel()
    col, mat = rng.uniform(-5, 5, (3, 1)), rng.uniform(-5, 5, (3, 7))
    fortran = np.asfortranarray(grid)
    return {
        "strided": (line[::3], line[1::3]),
        "reversed": (line[::-1], line),
        "strided-2d": (grid[::2, 1::2], grid[1::2, ::2]),
        "column-by-matrix": (col, mat),
        "matrix-by-column": (mat, col),
        "fortran": (fortran, grid),
        "transposed": (grid.T, fortran.T),
        "big-endian": (line.astype(">f8"), line[::-1]),
        "int-and-float32": (np.arange(-24, 24).reshape(6, 8),
                            np.clip(grid, -5, 5).astype(np.float32)),
        "empty": (np.empty(0), np.empty(0)),
        "empty-broadcast": (np.empty((3, 0)), np.empty((3, 1))),
        "empty-by-scalar": (np.empty((0, 4)), 2.0),
    }


LAYOUTS = _layouts()


@pytest.mark.parametrize("x, y", LAYOUTS.values(), ids=list(LAYOUTS))
def test_libm_any_layout_matches_scalar_map(x, y):
    # each array is read through a C-contiguous float64 copy when it is not
    # one already; the bits are those of the scalar map all the same
    assert same_bits(libm(math.hypot, x, y), scalar_map(math.hypot, x, y))
    assert same_bits(libm(math.atan2, x, y), scalar_map(math.atan2, x, y))
    assert same_bits(libm(math.cos, x), scalar_map(math.cos, x))


def test_libm_builds_no_list():
    # each element's float is made and freed as the map consumes it: the
    # peak is the output array, where a list per argument (about 32 bytes
    # an element) would take 6.4 MB
    x, y = np.random.default_rng(31).uniform(-5, 5, (2, 100_000))
    tracemalloc.start()
    try:
        out = libm(math.hypot, x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * out.nbytes, peak


def test_libm_cos_even_sin_odd():
    # the clockwise ray candidate reuses cos and sin of theta for -theta
    theta = np.random.default_rng(20261019).uniform(0.0, math.pi, DRAWS)
    theta[:3] = 0.0, math.pi / 2, math.pi
    cos, sin = libm(math.cos, theta), libm(math.sin, theta)
    assert libm(math.cos, -theta).tolist() == cos.tolist()
    assert libm(math.sin, -theta).tolist() == (-sin).tolist()


def test_point_rejects_nan():
    with pytest.raises(ValueError):
        Point(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Point(0.0, float("inf"))


def test_box_rejects_inverted():
    with pytest.raises(ValueError):
        AABox(1.0, 0.0, 0.0, 1.0)


def test_ray_requires_unit_direction():
    with pytest.raises(ValueError):
        Ray(Point(0, 0), 1.0, 1.0)
    r = make_ray(Point(0, 0), 3.0, 4.0)
    assert r.dx == pytest.approx(0.6)
    assert r.dy == pytest.approx(0.8)


class TestIntersectBoxes:
    def test_identity(self):
        b = AABox(-5, 5, -5, 5)
        assert intersect_boxes([b]) == b

    def test_two_boxes(self):
        got = intersect_boxes([AABox(-5, 5, -5, 5), AABox(1, 11, -5, 5)])
        assert got == AABox(1, 5, -5, 5)

    def test_disjoint_is_empty(self):
        assert intersect_boxes([AABox(0, 1, 0, 1), AABox(2, 3, 0, 1)]) is None

    def test_empty_list_errors(self):
        with pytest.raises(ValueError):
            intersect_boxes([])

    @given(
        st.lists(
            st.builds(
                lambda x1, x2, y1, y2: AABox(min(x1, x2), max(x1, x2), min(y1, y2), max(y1, y2)),
                finite, finite, finite, finite,
            ),
            min_size=2,
            max_size=5,
        )
    )
    def test_commutative_associative(self, boxes):
        a = intersect_boxes(boxes)
        b = intersect_boxes(list(reversed(boxes)))
        assert a == b
        left = boxes[0]
        folded = left
        for nxt in boxes[1:]:
            folded = intersect_boxes([folded, nxt]) if folded is not None else None
            if folded is None:
                break
        assert folded == a


# squares as (x, y, half-width), zero half-widths drawn often
square = st.tuples(finite, finite, st.one_of(st.just(0.0), st.floats(0.0, 1e3)))


@given(st.integers(1, 5).flatmap(
    lambda k: st.lists(st.lists(square, min_size=k, max_size=k), min_size=1, max_size=4)))
@example([[(0.0, 0.0, 1.0), (5.0, 0.0, 1.0)]])  # disjoint
@example([[(0.0, 0.0, 1.0), (2.0, 2.0, 1.0)]])  # touching at a corner
@example([[(1.0, 2.0, 0.0), (1.0, 2.0, 0.0)], [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)]])  # points
def test_square_box_matches_intersect_boxes(columns):
    # columns of k squares each, laid out as (k, m) arrays: column i's box
    # is the oracle's intersection, and the mask is set where that is None
    ax, ay, half = np.array(columns).transpose(2, 1, 0)
    box, empty = square_box(ax, ay, half)
    assert box.shape == (4, len(columns)) and empty.shape == (len(columns),)
    for i, squares in enumerate(columns):
        want = intersect_boxes([AABox(x - h, x + h, y - h, y + h) for x, y, h in squares])
        assert bool(empty[i]) == (want is None)
        if want is not None:
            assert box[:, i].tolist() == [want.x_min, want.x_max, want.y_min, want.y_max]


class TestRayPairIntersection:
    def test_perpendicular(self):
        r1 = make_ray(Point(0, 0), 1, 0)
        r2 = make_ray(Point(4, 4), 0, -1)
        p = ray_pair_intersection(r1, r2)
        assert (p.x, p.y) == pytest.approx((4, 0))

    def test_parallel_none(self):
        r1 = make_ray(Point(0, 0), 1, 0)
        r2 = make_ray(Point(0, 1), 1, 0)
        assert ray_pair_intersection(r1, r2) is None

    def test_backward_none(self):
        # crossing point (-2, 0) requires t1 = -2 on the first ray
        r1 = make_ray(Point(0, 0), 1, 0)
        r2 = make_ray(Point(-2, 2), 0, 1)
        assert ray_pair_intersection(r1, r2) is None

    @given(finite, finite, finite, finite, st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi))
    def test_symmetric(self, x1, y1, x2, y2, a1, a2):
        r1 = make_ray(Point(x1, y1), math.cos(a1), math.sin(a1))
        r2 = make_ray(Point(x2, y2), math.cos(a2), math.sin(a2))
        p = ray_pair_intersection(r1, r2)
        q = ray_pair_intersection(r2, r1)
        if p is not None and q is not None:
            assert math.hypot(p.x - q.x, p.y - q.y) < 1e-6 * (1 + abs(p.x) + abs(p.y))


class TestContains:
    def test_interior(self):
        assert contains(AABox(0, 10, 0, 10), Point(5, 5))

    def test_boundary(self):
        assert contains(AABox(0, 10, 0, 10), Point(10, 0), tol=1e-9)

    def test_outside(self):
        assert not contains(AABox(0, 10, 0, 10), Point(10.5, 0))


class TestProjectOntoBox:
    box = AABox(0, 10, 0, 10)

    def test_clamp_x(self):
        assert project_onto_box(self.box, Point(12, 5)) == Point(10, 5)

    def test_corner(self):
        assert project_onto_box(self.box, Point(12, 14)) == Point(10, 10)

    def test_negative_corner(self):
        assert project_onto_box(self.box, Point(-3, -4)) == Point(0, 0)

    def test_interior_point_rejected(self):
        with pytest.raises(ValueError):
            project_onto_box(self.box, Point(5, 5))

    def test_result_on_boundary_and_optimal(self):
        # projection beats a dense sampling of the boundary
        import random

        rng = random.Random(7)
        for _ in range(1000):
            box = AABox(0, rng.uniform(1, 20), 0, rng.uniform(1, 20))
            p = Point(rng.uniform(-30, 50), rng.uniform(-30, 50))
            inside = box.x_min < p.x < box.x_max and box.y_min < p.y < box.y_max
            if inside:
                continue
            proj = project_onto_box(box, p)
            on_face = (
                min(abs(proj.x - box.x_min), abs(proj.x - box.x_max)) < 1e-9
                or min(abs(proj.y - box.y_min), abs(proj.y - box.y_max)) < 1e-9
            )
            assert on_face
            d = distance(proj, p)
            for k in range(100):
                f = k / 99
                for q in (
                    Point(box.x_min + f * (box.x_max - box.x_min), box.y_min),
                    Point(box.x_min + f * (box.x_max - box.x_min), box.y_max),
                    Point(box.x_min, box.y_min + f * (box.y_max - box.y_min)),
                    Point(box.x_max, box.y_min + f * (box.y_max - box.y_min)),
                ):
                    assert d <= distance(q, p) + 1e-9


class TestCenterAndCentroid:
    def test_center(self):
        assert box_center(AABox(0, 10, 0, 10)) == Point(5, 5)
        assert box_center(AABox(1, 5, -5, 5)) == Point(3, 0)
        assert box_center(AABox(2, 2, 3, 3)) == Point(2, 3)

    def test_center_of_empty_errors(self):
        with pytest.raises(ValueError):
            box_center(None)

    def test_centroid(self):
        assert centroid([Point(0, 0), Point(4, 0)]) == Point(2, 0)
        assert centroid([Point(0, 0), Point(3, 0), Point(0, 3)]) == Point(1, 1)
        assert centroid([Point(7, 2)]) == Point(7, 2)

    def test_centroid_empty_errors(self):
        with pytest.raises(ValueError):
            centroid([])


def test_box_distance():
    box = AABox(0, 10, 0, 10)
    assert box_distance(box, Point(5, 5)) == 0.0
    assert box_distance(box, Point(12, 5)) == pytest.approx(2.0)
    assert box_distance(box, Point(13, 14)) == pytest.approx(5.0)
