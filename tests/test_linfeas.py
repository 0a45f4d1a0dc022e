"""Newton-polyhedron facets by double description, and the exact rational
feasibility (equality elimination plus Fourier-Motzkin) the test oracles use."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from stci.core import ResourceLimitError
from stci.linfeas import newton_facets

from oracles import feasible_point


def F(x):
    return Fraction(x)


def test_simple_feasible_box():
    point = feasible_point(
        equalities=[],
        inequalities=[([F(1), F(0)], F(1)), ([F(0), F(1)], F(1))],
        nvars=2,
    )
    assert point is not None
    assert point[0] >= 1 and point[1] >= 1


def test_equality_with_inequalities():
    # x = 2y, x >= 1, y >= 1, x + y >= 5
    point = feasible_point(
        equalities=[([F(1), F(-2)], F(0))],
        inequalities=[
            ([F(1), F(0)], F(1)),
            ([F(0), F(1)], F(1)),
            ([F(1), F(1)], F(5)),
        ],
        nvars=2,
    )
    assert point is not None
    assert point[0] == 2 * point[1]
    assert point[0] + point[1] >= 5


def test_infeasible_by_inequalities():
    # x >= 3 and -x >= -1 cannot hold together
    assert feasible_point(
        equalities=[],
        inequalities=[([F(1)], F(3)), ([F(-1)], F(-1))],
        nvars=1,
    ) is None


def test_infeasible_by_equalities():
    # x - x = 1 is contradictory
    assert feasible_point(
        equalities=[([F(0)], F(1))],
        inequalities=[],
        nvars=1,
    ) is None


def test_unconstrained_variables_default():
    point = feasible_point(equalities=[], inequalities=[], nvars=3)
    assert point == [F(0), F(0), F(0)]


def test_random_systems_agree_with_rejection_sampling():
    # on tiny boxes, compare feasibility against exhaustive grid search
    rng = random.Random(17)
    for _ in range(40):
        nvars = rng.randint(1, 3)
        ineqs = []
        for _ in range(rng.randint(1, 4)):
            coeffs = [F(rng.randint(-2, 2)) for _ in range(nvars)]
            ineqs.append((coeffs, F(rng.randint(-3, 1))))
        # bound the box so the grid check is finite: 0 <= x_i <= 3
        for j in range(nvars):
            e = [F(0)] * nvars
            e[j] = F(1)
            ineqs.append((list(e), F(0)))
            ineqs.append(([-c for c in e], F(-3)))
        point = feasible_point([], ineqs, nvars)
        grid_feasible = any(
            all(
                sum(c * v for c, v in zip(coeffs, candidate)) >= rhs
                for coeffs, rhs in ineqs
            )
            for candidate in _grid(nvars)
        )
        if point is not None:
            assert all(
                sum(c * v for c, v in zip(coeffs, point)) >= rhs
                for coeffs, rhs in ineqs
            )
        # soundness: a system with a grid-point solution is never rejected
        if grid_feasible:
            assert point is not None


def _grid(nvars):
    from itertools import product

    steps = [Fraction(k, 2) for k in range(0, 7)]
    return product(steps, repeat=nvars)


def _det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix, by Bareiss elimination."""
    m = [list(r) for r in rows]
    size = len(m)
    if size == 0:
        return 1
    sign, prev = 1, 1
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def brute_facets(points):
    """The valid inequalities w.x >= c, w >= 0, w != 0, of the Newton
    polyhedron that are tight on n linearly independent rows among (e_j, 0)
    and (p_k, -1): each n-subset of rank n fixes (w, c) up to scale as its
    cofactor vector."""
    n = len(points[0])
    rows = [[int(i == j) for i in range(n)] + [0] for j in range(n)]
    rows += [list(p) + [-1] for p in points]
    out = set()
    for chosen in combinations(rows, n):
        ray = [(-1) ** j * _det([r[:j] + r[j + 1:] for r in chosen])
               for j in range(n + 1)]
        for sign in (1, -1):
            w, c = [sign * x for x in ray[:n]], sign * ray[n]
            values = [sum(x * y for x, y in zip(w, p)) for p in points]
            if any(w) and min(w) >= 0 and min(values) >= c:
                g = 0
                for x in w + [c]:
                    g = gcd(g, x)
                mask = sum(1 << k for k, v in enumerate(values) if v == c)
                out.add((tuple(x // g for x in w), c // g, mask))
    return out


def assert_facets_match(points, brute):
    """Where the facets ``brute`` of the Newton polyhedron of ``points``
    include a compact one, newton_facets returns one compact facet among
    them alone; otherwise it returns each of them once."""
    facets = newton_facets(points, 10_000)
    if any(min(w) > 0 for w, _, _ in brute):
        assert len(facets) == 1, points
        assert facets[0] in brute and min(facets[0][0]) > 0, points
    else:
        assert len(facets) == len(set(facets))
        assert set(facets) == brute, points


def test_newton_facets_match_brute_force():
    # small exponents give many points on one hyperplane, where rays that
    # share n - 1 tight constraints need not be adjacent.  Each point times
    # a new variable z gives the polyhedron P x [1, oo), whose facets are
    # those of P, with w_z = 0, and z >= 1 on every point: none is compact,
    # so every draw also checks the full enumeration and its adjacency test
    rng = random.Random(29)
    compact = 0
    for _ in range(150):
        n = rng.randint(1, 5)
        points = [tuple(rng.choice((0, 0, 1, 2)) for _ in range(n))
                  for _ in range(rng.randint(1, 9))]
        brute = brute_facets(points)
        assert_facets_match(points, brute)
        compact += any(min(w) > 0 for w, _, _ in brute)
        lifted = {(w + (0,), c, mask) for w, c, mask in brute}
        lifted.add(((0,) * n + (1,), 1, (1 << len(points)) - 1))
        assert_facets_match([p + (1,) for p in points], lifted)
    # both branches are reached: 48 draws have a compact facet
    assert compact == 48


def test_newton_facets_of_a_triangle():
    # x^2, x*y, y^3: the compact edge through x^2 and x*y is found before
    # y^3 is cut in, and y^3 lies above it
    assert newton_facets([(2, 0), (1, 1), (0, 3)], 10) == [((1, 1), 2, 0b011)]
    # times z, no facet is compact: the two edges times z, the two coordinate
    # facets and z >= 1
    assert sorted(newton_facets([(2, 0, 1), (1, 1, 1), (0, 3, 1)], 10)) == [
        ((0, 0, 1), 1, 0b111), ((0, 1, 0), 0, 0b001), ((1, 0, 0), 0, 0b100),
        ((1, 1, 0), 2, 0b011), ((2, 1, 0), 3, 0b110),
    ]


def test_newton_facets_mask_holds_later_tight_points():
    # the compact facet x + 2y + 4z >= 4 appears when (2, 1, 0) is cut in,
    # and (4, 0, 0), not yet cut in, lies on it too
    assert newton_facets([(0, 0, 1), (0, 2, 0), (2, 1, 0), (4, 0, 0)], 100) == [
        ((1, 2, 4), 4, 0b1111)]


def test_newton_facets_bound():
    # a convex staircase of 12 points in the plane, times a third variable,
    # has 14 facets and none compact, so every one is listed; the ray list
    # holds them with the ray (0, 0, 0, -1)
    points = [(i, (11 - i) * (12 - i) // 2, 1) for i in range(12)]
    assert len(newton_facets(points, 15)) == 14
    with pytest.raises(ResourceLimitError, match="more than 14"):
        newton_facets(points, 14)
