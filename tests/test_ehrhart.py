"""Lattice-point counting, h*-extraction, reciprocity, file formats.

The geometric oracle here enumerates integer points of dilated order
polytopes in a box and checks the defining inequalities directly, which is
independent of the order-preserving-map route the library uses.
"""

import random
import re
import time
from collections import Counter
from fractions import Fraction
from itertools import product
from math import ceil, comb, factorial, floor

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hstarlib.ehrhart import (
    HRepPolytope,
    _adjugate,
    _checked_h_star,
    OrderPolytope,
    Simplex,
    ehrhart_polynomial,
    h_star,
    load_polytope,
    open_numerator,
    parse_polytope,
)
from hstarlib import ehrhart
from hstarlib.budget import limit
from hstarlib.errors import BudgetExceeded, InternalConsistencyError, InvalidInput
from hstarlib.graph import Graph
from hstarlib.harness import (
    dilated_cube,
    dilated_simplex,
    enumerate_labeled_posets,
    random_instances,
)
from hstarlib.polynomial import IntPolynomial, expand_series, series_numerator
from hstarlib.poset import Poset, descent_h_star, order_polynomial
from oracles import fourier_motzkin_box

CHAIN2 = Poset(2, [(1, 2)])
ANTI2 = Poset(2)
ANTI3 = Poset(3)
TRIANGLE = Simplex([(0, 0), (2, 0), (0, 2)])


def order_polytope_points_brute(poset, n, interior=False):
    """Box enumeration of n * O_Pi: 0 <= x_i <= n and x_i <= x_j on relations."""
    if interior and n == 0:
        return 0  # open-series convention, shared with the library
    rels = poset.relations
    total = 0
    for x in product(range(0, n + 1), repeat=poset.d):
        if interior:
            ok = all(0 < c < n for c in x) and all(x[i - 1] < x[j - 1] for i, j in rels)
        else:
            ok = all(x[i - 1] <= x[j - 1] for i, j in rels)
        if ok:
            total += 1
    return total


def box_points_brute(polytope, n, interior=False):
    """Test every point of the closed lattice box of n * P directly.

    A simplex point is in n * P when its barycentric coordinates, read off
    adj @ (x, n) from the vertices here rather than the library's stored
    rows, are all nonnegative (positive for the interior).  An
    H-polytope point must satisfy every row, and the box: a user box
    constrains the polytope, so an interior point lies strictly inside its
    dilate too.
    """
    if isinstance(polytope, Simplex):
        columns = list(zip(*polytope.vertices))
        lo = [n * min(col) for col in columns]
        hi = [n * max(col) for col in columns]
        _, adj = _adjugate([list(col) for col in columns] + [[1] * len(polytope.vertices)])

        def inside(x):
            bary = [sum(c * v for c, v in zip(row, (*x, n))) for row in adj]
            return all(b > 0 if interior else b >= 0 for b in bary)

    else:
        lo_q, hi_q = polytope.box
        lo = [ceil(n * q) for q in lo_q]
        hi = [floor(n * q) for q in hi_q]

        def inside(x):
            for normal, bound in polytope.inequalities:
                value = sum(c * v for c, v in zip(normal, x))
                if value > n * bound or (interior and value == n * bound):
                    return False
            return not interior or all(n * a < v < n * b for a, v, b in zip(lo_q, x, hi_q))

    return sum(1 for x in product(*(range(a, b + 1) for a, b in zip(lo, hi))) if inside(x))


def random_simplices(seed, d, count, high):
    """Seeded lattice simplices with vertices in [-high, high]^d."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        try:
            out.append(Simplex([[rng.randint(-high, high) for _ in range(d)] for _ in range(d + 1)]))
        except InvalidInput:
            continue
    return out


def random_hreps(seed, count, dims=(1, 3), sides=(0, 3)):
    """Seeded H-polytopes with d in ``dims`` and a user box with sides in
    ``sides``; coefficients in [-2, 2], so rows with a zero last coefficient
    and empty dilates occur."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        d = rng.randint(*dims)
        rows = [
            ([rng.randint(-2, 2) for _ in range(d)], rng.randint(-2, 3))
            for _ in range(rng.randint(1, 4))
        ]
        lo = [rng.randint(-2, 1) for _ in range(d)]
        out.append(HRepPolytope(rows, d, box=(lo, [a + rng.randint(*sides) for a in lo])))
    return out


def assert_counts_match_brute(polytope):
    for n in range(polytope.d + 3):
        for interior in (False, True):
            expected = box_points_brute(polytope, n, interior)
            assert polytope.count_points(n, interior) == expected, (polytope, n, interior)


class TestOrderPolytopeCounts:
    def test_chain2_dilate2(self):
        assert OrderPolytope(CHAIN2).count_points(2) == 6

    def test_unit_square_corners(self):
        assert OrderPolytope(ANTI2).count_points(1) == 4

    def test_dilate_zero(self):
        op = OrderPolytope(CHAIN2)
        assert op.count_points(0) == 1
        assert op.count_points(0, interior=True) == 0

    @pytest.mark.parametrize("interior", [False, True])
    def test_negative_n_rejected(self, interior):
        # Simplex and HRepPolytope reject negative n the same way
        op = OrderPolytope(CHAIN2)
        for n in (-1, -2):
            with pytest.raises(InvalidInput, match="n must be nonnegative"):
                op.count_points(n, interior)
            with pytest.raises(InvalidInput, match="n must be nonnegative"):
                op.count_series(n, interior)

    def test_matches_geometric_oracle(self):
        for d in range(4):
            for poset in enumerate_labeled_posets(d):
                op = OrderPolytope(poset)
                for n in range(4):
                    for interior in (False, True):
                        assert op.count_points(n, interior) == order_polytope_points_brute(
                            poset, n, interior
                        )

    def test_order_polynomial_bridge(self):
        # L(n) = Omega(n+1) and interior count = Omega°(n-1)
        for poset in enumerate_labeled_posets(3):
            op = OrderPolytope(poset)
            ehr = ehrhart_polynomial(op)
            weak = order_polynomial(poset)
            strict = order_polynomial(poset, strict=True)
            for n in range(poset.d + 3):
                assert ehr(n) == weak(n + 1)
                if n >= 1:
                    assert op.count_points(n, interior=True) == strict(n - 1)


def fraction_det(matrix):
    """Determinant by Fraction Gaussian elimination, test-side oracle."""
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return det


class TestAdjugate:
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n
            )
        )
    )
    def test_matches_fraction_determinant(self, matrix):
        det, adj = _adjugate(matrix)
        assert det == abs(fraction_det(matrix))
        n = len(matrix)
        for i in range(n if det else 0):
            for j in range(n):
                assert sum(matrix[i][k] * adj[k][j] for k in range(n)) == det * (i == j)


class TestSimplex:
    def test_vertex_order_does_not_matter(self):
        # reversing two vertices flips the sign of the determinant
        flipped = Simplex([(0, 0), (0, 2), (2, 0)])
        for n in range(4):
            for interior in (False, True):
                assert flipped.count_points(n, interior) == TRIANGLE.count_points(n, interior)

    def test_rejects_affinely_dependent(self):
        with pytest.raises(InvalidInput):
            Simplex([(0, 0), (1, 1), (2, 2)])

    def test_rejects_wrong_vertex_count(self):
        with pytest.raises(InvalidInput):
            Simplex([(0, 0), (1, 0)])

    def test_rejects_dimension_zero(self):
        # a point in Z^0 has no box to walk; HRepPolytope rejects d = 0 too
        with pytest.raises(InvalidInput, match="at least 1"):
            Simplex([[]])

    def test_triangle_interior(self):
        assert TRIANGLE.count_points(2, interior=True) == 3

    def test_triangle_closed_counts(self):
        assert [TRIANGLE.count_points(n) for n in range(3)] == [1, 6, 15]

    def test_ehrhart(self):
        ehr = ehrhart_polynomial(TRIANGLE)
        assert all(ehr(n) == (n + 1) * (2 * n + 1) for n in range(-3, 7))
        assert ehr == IntPolynomial([1, 3, 2])

    def test_h_star(self):
        assert h_star(TRIANGLE).coeffs == (1, 3)

    def test_unit_simplex_trivial_h_star(self):
        simplex = Simplex([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert h_star(simplex).coeffs == (1,)

    def test_volume_is_abs_det(self):
        # reordering the vertices flips the sign of det, not the volume
        assert TRIANGLE.volume == Simplex([(0, 0), (0, 2), (2, 0)]).volume == 4
        assert Simplex([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]).volume == 1

    def test_h_star_checked_against_det(self):
        # on the box route a wrong determinant route is a library bug, caught
        # after the counts' own checks pass
        simplex = Simplex([(0, 0), (2, 0), (0, 2)])
        simplex.volume = 5
        with pytest.raises(
            InternalConsistencyError,
            match=r"h\*\(1\) = 4 but the determinant gives normalized volume 5",
        ):
            ehrhart._box_h_star(simplex)

    def test_rows_alone_cut_out_the_simplex(self):
        # the vertices' bounding box is redundant: the barycentric rows in
        # a box one step wider on every side count the same points
        for simplex in random_simplices(7, 3, 6, 2):
            lo, hi = simplex.box
            wider = ([a - 1 for a in lo], [b + 1 for b in hi])
            rows_only = HRepPolytope(simplex.inequalities, simplex.d, wider)
            for n in range(4):
                for interior in (False, True):
                    expected = simplex.count_points(n, interior)
                    assert rows_only.count_points(n, interior) == expected, (simplex, n)

    @pytest.mark.parametrize(
        "interior, steps, points", [(False, 125, 35), (True, 27, 1)], ids=["closed", "interior"]
    )
    def test_budget_charges_the_dilated_vertex_box(self, interior, steps, points):
        # 2 * [0, 2]^3 = [0, 4]^3 holds 5^3 box points, its interior box
        # [1, 3]^3 holds 3^3; the whole box is charged, not the points counted
        simplex = dilated_simplex(3, 2)
        message = f"^bounding-box enumeration needs {steps} steps, budget is {steps - 1}$"
        with limit(steps - 1), pytest.raises(BudgetExceeded, match=message):
            simplex.count_points(2, interior)
        with limit(steps):
            assert simplex.count_points(2, interior) == points

    def test_unit_segment(self):
        segment = Simplex([(0,), (1,)])
        ehr = ehrhart_polynomial(segment)
        assert all(ehr(n) == n + 1 for n in range(-3, 7))
        assert ehr == IntPolynomial([1, 1])
        assert h_star(segment).coeffs == (1,)


class TestBoxWalker:
    """The line-sweep walker of simplices and H-polytopes against testing
    every point of the box."""

    @pytest.mark.parametrize("d, count, high", [(1, 12, 4), (2, 12, 3), (3, 6, 2), (4, 2, 1)])
    def test_random_simplices(self, d, count, high):
        for simplex in random_simplices(d, d, count, high):
            assert_counts_match_brute(simplex)

    @staticmethod
    def assert_hreps_match_brute(corpus, d):
        for polytope in corpus:
            assert_counts_match_brute(polytope)
        # the seeded corpus covers the walker's corner cases
        assert any(p.d == d for p in corpus)
        lasts = [normal[-1] for p in corpus for normal, _ in p.inequalities]
        assert 0 in lasts and min(lasts) < 0
        assert any(p.count_points(1) == 0 for p in corpus)

    def test_random_hreps(self):
        self.assert_hreps_match_brute(random_hreps(11, 60), 1)

    def test_random_hreps_in_dimension_4(self):
        # the dimension of polytopes-lattice's largest cubes and
        # cross-polytopes; boxes of sides 1 and 2 keep the brute force short
        self.assert_hreps_match_brute(random_hreps(2, 12, (4, 4), (1, 2)), 4)

    @pytest.mark.parametrize(
        "rows, d",
        [
            ([((-1, 0), 0), ((0, -1), 0), ((2, 3), 6)], 2),
            # non-lattice, rational derived box: counts are still exact
            ([((-1, 0), 0), ((0, -1), 0), ((2, 2), 3)], 2),
            ([((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0), ((1, 2, 3), 6)], 3),
            ([((2,), 3), ((-3,), 1)], 1),
        ],
    )
    def test_derived_boxes(self, rows, d):
        polytope = HRepPolytope(rows, d)
        assert all(type(x) is int for x in (*polytope.box[0], *polytope.box[1]))
        assert_counts_match_brute(polytope)
        # the derived box, rounded outwards, cuts no dilate: a user box
        # around every row's reach counts the same points
        wide = HRepPolytope(rows, d, box=([-4] * d, [8] * d))
        for n in range(d + 3):
            for interior in (False, True):
                assert polytope.count_points(n, interior) == wide.count_points(n, interior)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_unimodular_invariance(self, data):
        # a translation plus a shear x_i += k x_j (or a sign flip when
        # i == j) is a lattice isomorphism; a shear into the last coordinate
        # changes the lines the walker sweeps
        d = data.draw(st.integers(1, 3))
        coords = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
        vertices = data.draw(st.lists(coords, min_size=d + 1, max_size=d + 1))
        try:
            simplex = Simplex(vertices)
        except InvalidInput:
            assume(False)
        shift = data.draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
        i, j = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
        k = data.draw(st.integers(-2, 2))

        def move(v):
            w = list(v)
            w[i] = -w[i] if i == j else w[i] + k * w[j]
            return [a + b for a, b in zip(w, shift)]

        image = Simplex([move(v) for v in vertices])
        for n in range(d + 2):
            for interior in (False, True):
                assert image.count_points(n, interior) == simplex.count_points(n, interior)


class TestHRep:
    def cube(self, d, k):
        rows = []
        for i in range(d):
            e = [0] * d
            e[i] = 1
            rows.append((list(e), k))
            e[i] = -1
            rows.append((list(e), 0))
        return HRepPolytope(rows, d)

    def test_unit_square_counts(self):
        square = self.cube(2, 1)
        assert [square.count_points(n) for n in range(3)] == [1, 4, 9]
        assert square.count_points(2, interior=True) == 1

    def test_cube_h_star_is_eulerian(self):
        assert h_star(self.cube(3, 1)).coeffs == (1, 4, 1)

    def test_box_derived_by_propagation(self):
        # x, y >= 0 and x + y <= 2: no row bounds a coordinate on its own
        simplex = HRepPolytope([((-1, 0), 0), ((0, -1), 0), ((1, 1), 2)], 2)
        assert [simplex.count_points(n) for n in range(3)] == [1, 6, 15]

    def test_rejects_unbounded(self):
        with pytest.raises(InvalidInput):
            HRepPolytope([((1, 0), 5)], 2)

    def test_rejects_empty(self):
        # x <= 1 and x >= 1 meet at 1, but 0 x <= -1 has no solution: the
        # box [1, 1] is no box of this system, and no vertex is flagged
        with pytest.raises(InvalidInput) as info:
            HRepPolytope([((1,), 1), ((-1,), -1), ((0,), -1)], 1)
        assert str(info.value) == "the inequalities have no common solution; the polytope is empty"

    @pytest.mark.parametrize(
        "rows, vertex",
        [
            # x, y >= 0 and 2x + 2y <= 3: vertices (3/2, 0) and (0, 3/2)
            ([((-1, 0), 0), ((0, -1), 0), ((2, 2), 3)], "(0, 3/2)"),
            # the unit interval times [0, 3/2]
            ([((-1, 0), 0), ((1, 0), 1), ((0, -1), 0), ((0, 2), 3)], "(0, 3/2)"),
            # [0, 2]^2 cut by 2x + y <= 5: every coordinate range has
            # integer ends, and the vertex (3/2, 2) lies inside the box
            ([((-1, 0), 0), ((1, 0), 2), ((0, -1), 0), ((0, 1), 2), ((2, 1), 5)], "(3/2, 2)"),
        ],
        ids=["triangle-2x+2y<=3", "interval-times-3/2", "vertex-in-integer-box"],
    )
    def test_non_lattice_vertex_is_refused(self, rows, vertex):
        polytope = HRepPolytope(rows, 2)
        assert polytope.non_lattice == vertex
        message = f"^vertex {re.escape(vertex)} is not a lattice point$"
        for route in (h_star, ehrhart_polynomial):
            with pytest.raises(InvalidInput, match=message):
                route(polytope)
        # counting is unchanged: rational polytopes still count exactly
        assert_counts_match_brute(polytope)

    def test_lattice_and_user_boxed_polytopes_are_not_flagged(self):
        assert self.cube(3, 2).non_lattice is None
        assert TRIANGLE.non_lattice is None
        # a user box skips the vertex pass, so nothing is checked (unflagged)
        boxed = HRepPolytope([((-1, 0), 0), ((0, -1), 0), ((2, 2), 3)], 2, box=([0, 0], [2, 2]))
        assert boxed.non_lattice is None

    @pytest.mark.parametrize("d, high", [(2, 3), (3, 2), (4, 1)])
    def test_simplex_rows_derive_the_vertex_box(self, d, high):
        # a lattice simplex given by its barycentric rows alone: the vertex
        # pass finds the exact vertex box, and so the same h*
        for simplex in random_simplices(60 + d, d, 8, high):
            rows_only = HRepPolytope(simplex.inequalities, simplex.d)
            assert rows_only.box == simplex.box, simplex
            assert rows_only.non_lattice is None, simplex
            assert h_star(rows_only) == h_star(simplex), simplex

    def test_cross_polytope_without_a_box(self):
        # every row uses every coordinate: 16 rows, C(16, 4) = 1820 bases
        rows = [(signs, 1) for signs in product((-1, 1), repeat=4)]
        polytope = HRepPolytope(rows, 4)
        assert polytope.box == ((-1,) * 4, (1,) * 4)
        assert h_star(polytope).coeffs == (1, 4, 6, 4, 1)

    def test_elimination_is_charged_to_the_default_budget(self):
        # the 6-d cross-polytope's 64 rows have C(64, 6) bases of 6^3
        # steps each; the vertex pass is refused before it runs away
        rows = [(signs, 1) for signs in product((-1, 1), repeat=6)]
        message = (
            "^vertex enumeration over 74974368 bases needs 16194463488 steps, "
            "default budget is 5000000$"
        )
        with pytest.raises(BudgetExceeded, match=message):
            HRepPolytope(rows, 6)

    def test_elimination_is_charged_to_the_budget_in_force(self):
        # the 2-d cross-polytope: C(4, 2) = 6 bases of 2^3 = 8 steps each
        rows = [(signs, 1) for signs in product((-1, 1), repeat=2)]
        message = "^vertex enumeration over 6 bases needs 48 steps, budget is 47$"
        with limit(47), pytest.raises(BudgetExceeded, match=message):
            HRepPolytope(rows, 2)
        with limit(48):
            assert HRepPolytope(rows, 2).box == ((-1, -1), (1, 1))

    def test_vertex_box_matches_fourier_motzkin(self):
        # seeded systems with d = 1..4, m = d + 1..2d + 3 rows, normal
        # entries in [-2, 2] and bounds in [-1, 4], held against the
        # elimination that derived the box before the vertex pass
        rng = random.Random(34)
        seen = Counter()
        for _ in range(400):
            d = rng.randint(1, 4)
            rows = [
                ([rng.randint(-2, 2) for _ in range(d)], rng.randint(-1, 4))
                for _ in range(rng.randint(d + 1, 2 * d + 3))
            ]
            try:
                box, coordinate = fourier_motzkin_box(rows, d)
            except InvalidInput as exc:
                box, coordinate = str(exc), None
            try:
                polytope = HRepPolytope(rows, d)
            except InvalidInput as exc:
                refusal = str(exc)
                if refusal.startswith("cannot derive"):
                    assert box == refusal, rows  # unbounded for both
                    seen["unbounded"] += 1
                else:
                    # empty: the elimination boxes it, or finds lo > hi
                    assert refusal.endswith("the polytope is empty"), rows
                    assert isinstance(box, tuple) or box.startswith("empty bounding box"), rows
                    seen["empty", isinstance(box, tuple)] += 1
                continue
            assert polytope.box == box, rows
            # every range end the elimination flags is a non-lattice vertex
            assert coordinate is None or polytope.non_lattice is not None, rows
            seen["bounded", polytope.non_lattice is not None] += 1
        # each kind of system occurs, empty ones the elimination accepts too
        assert len(seen) == 5, seen

    def test_user_box_accepted(self):
        p = HRepPolytope([((1, 0), 5)], 2, box=([0, 0], [5, 5]))
        assert p.box == ((0, 0), (5, 5)) and all(type(x) is int for x in (*p.box[0], *p.box[1]))
        assert p.count_points(1) == 36

    def test_wrong_declared_dimension_caught(self):
        # a segment in the plane is not full-dimensional
        flat = HRepPolytope(
            [((1, 0), 1), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0)], 2
        )
        with pytest.raises(Exception, match="degree|volume"):
            h_star(flat)


def cross_polytope(d, k):
    """k times conv{+-e_i}, with its box given, as the benchmark builds it."""
    rows = [(signs, k) for signs in product((-1, 1), repeat=d)]
    return HRepPolytope(rows, d, box=([-k] * d, [k] * d))


def all_closed_counts_h_star(polytope):
    return _checked_h_star([polytope.count_points(n) for n in range(polytope.d + 1)])


FLAT_MESSAGE = (
    "normalized volume 0 is not positive; "
    "declared dimension is wrong or the polytope is degenerate"
)


class TestHalfRoute:
    """Simplices and certified full-dimensional H-polytopes get h* from the
    closed counts at n <= ceil(d/2) and the interior counts at
    n <= floor(d/2); the oracle reads h* off all closed counts n = 0..d."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("build", [dilated_simplex, dilated_cube])
    def test_dilated(self, build, d, k):
        polytope = build(d, k)
        assert h_star(polytope) == all_closed_counts_h_star(polytope)

    @pytest.mark.parametrize("d, high", [(3, 3), (4, 2)])
    def test_random_simplices(self, d, high):
        for simplex in random_simplices(40 + d, d, 10, high):
            assert h_star(simplex) == all_closed_counts_h_star(simplex), simplex

    @pytest.mark.parametrize("d, k", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)])
    def test_boxed_cross_polytopes(self, d, k):
        polytope = cross_polytope(d, k)
        assert h_star(polytope) == all_closed_counts_h_star(polytope)

    @pytest.mark.parametrize(
        "text",
        [
            # the segment [0, 2] x {0} declared 2-dimensional: L(-1..1) =
            # 0, 1, 3 would pass for a degree-2 polynomial if it were used
            "hrep 2 4\n1 0 2\n-1 0 0\n0 1 0\n0 -1 0\n",
            # the unit square in the plane z = 0 declared 3-dimensional
            "hrep 3 6\n1 0 0 1\n-1 0 0 0\n0 1 0 1\n0 -1 0 0\n0 0 1 0\n0 0 -1 0\n",
            # a triangle cut to the segment [0, 3] x {1} by a box with lo = hi in y
            "hrep 2 3\n1 1 4\n-1 0 0\n0 -1 0\nbox 0 1 4 1\n",
        ],
        ids=["segment", "square-in-3d", "flat-user-box"],
    )
    def test_flat_input_stays_invalid(self, text):
        # no interior point certifies full dimension, so every closed
        # dilate is counted and the zero volume is reported
        flat = parse_polytope(text)
        for route in (h_star, ehrhart_polynomial):
            with pytest.raises(InvalidInput) as info:
                route(flat)
            assert str(info.value) == FLAT_MESSAGE

    def test_half_walk_judges_the_volume(self):
        # a non-lattice triangle whose one lattice point, the origin, is
        # interior: that point certifies the half walk, whose
        # counts have top forward difference 0
        one_point = HRepPolytope(
            [((-2, 0), 1), ((0, -2), 1), ((2, 2), 1)], 2, box=([-1, -1], [1, 1])
        )
        assert one_point.count_points(1, interior=True) == 1
        for route in (h_star, ehrhart_polynomial):
            with pytest.raises(InvalidInput) as info:
                route(one_point)
            assert str(info.value) == FLAT_MESSAGE

    def test_budget_bounds_the_largest_box_walked(self):
        # closed boxes of [0, 2]^4: 5^4 = 625 at n = 2, 9^4 = 6561 at n = 4;
        # the half route walks nothing larger than the n = 2 box
        cube = dilated_cube(4, 2)
        expected = all_closed_counts_h_star(cube)
        with limit(1000):
            assert h_star(cube) == expected
            with pytest.raises(BudgetExceeded, match="needs 6561 steps, budget is 1000$"):
                cube.count_points(4)

    def test_unimodular_simplex_needs_no_interior_point(self):
        # the unit 3-simplex has no interior point at n = 1, but its
        # determinant certifies full dimension: the largest box walked is
        # the n = 2 box [0, 2]^3 of 27 points, not the n = 3 box of 64
        simplex = dilated_simplex(3, 1)
        assert simplex.count_points(1, interior=True) == 0
        with limit(27):
            assert h_star(simplex).coeffs == (1,)
            with pytest.raises(BudgetExceeded, match="needs 64 steps, budget is 27$"):
                simplex.count_points(3)


def pack(vector, width):
    """A residue vector as one int, entry i in bits [i * width, (i + 1) * width)."""
    return sum(c << width * i for i, c in enumerate(vector))


def shift_one_residue(group, modulus, width):
    """The packed group with field 0 of its largest element moved by 1."""
    top = max(group)
    low = top & (1 << width) - 1
    return group - {top} | {top - low + (low + 1) % modulus}


def span_brute(generators, modulus):
    """Every combination sum c_1 g_1 + ... + c_k g_k mod ``modulus``."""
    return {
        tuple(sum(c * x for c, x in zip(coeffs, column)) % modulus for column in zip(*generators))
        for coeffs in product(range(modulus), repeat=len(generators))
    }


def cyclic_simplex(d, volume, last):
    """0, e_1, ..., e_{d-1} and (*last, volume), of normalized volume ``volume``."""
    units = [tuple(int(i == j) for j in range(d)) for i in range(d - 1)]
    return Simplex([(0,) * d, *units, (*last, volume)])


class TestParallelepipedRoute:
    """A simplex's h* counts the residue classes of its fundamental
    parallelepiped by height; the oracle reads h* off all closed counts."""

    # (d, count, coordinate range) of the seeded simplices
    SIMPLICES = [(1, 30, 5), (2, 50, 4), (3, 50, 3), (4, 50, 2), (5, 30, 1)]

    def test_matches_all_closed_counts(self):
        rng = random.Random(15)
        signs = set()
        checked = 0
        for d, count, high in self.SIMPLICES:
            for simplex in random_simplices(150 + d, d, count, high):
                vertices = list(simplex.vertices)
                rng.shuffle(vertices)
                for polytope in (simplex, Simplex(vertices)):
                    matrix = [list(c) for c in zip(*polytope.vertices)] + [[1] * (d + 1)]
                    signs.add(fraction_det(matrix) > 0)
                    expected = all_closed_counts_h_star(polytope)
                    assert ehrhart._parallelepiped_h_star(polytope) == expected, polytope
                    checked += 1
        assert checked >= 400 and signs == {False, True}

    @pytest.mark.parametrize(
        "generators, modulus",
        [
            ([(2, 0), (0, 3)], 6),
            ([(1, 1), (2, 2)], 4),
            ([(0, 0), (0, 0)], 3),
            ([(2, 4, 0), (3, 0, 3), (0, 3, 3)], 6),
        ],
    )
    def test_coset_closure_is_the_span(self, generators, modulus):
        n = len(generators[0])
        width = (n * modulus).bit_length() + 1
        packed = [pack(g, width) for g in generators]
        group = ehrhart._coset_closure(packed, modulus, width, n)
        assert group == {pack(v, width) for v in span_brute(generators, modulus)}

    @pytest.mark.parametrize("row, column", [(0, 0), (1, 2), (2, 1)])
    def test_corrupted_generator_is_caught(self, row, column):
        # every column of sign(det) adj sums to 0 or |det| = 4, so one
        # entry moved by 1 breaks the order or the residue sums
        simplex = Simplex([(0, 0), (2, 0), (0, 2)])
        adjugate = [list(r) for r in simplex.adjugate]
        adjugate[row][column] += 1
        simplex.adjugate = tuple(map(tuple, adjugate))
        with pytest.raises(InternalConsistencyError):
            h_star(simplex)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (
                lambda group, big, width: group - {max(group)},
                "group has order 3, but [|]det[|] = 4",
            ),
            (shift_one_residue, r"residue sum \d+ is not divisible by [|]det[|] = 4"),
            # field 0 = big: the residue vector (big, 0, 0), of height 1
            (lambda group, big, width: group - {0} | {big}, r"h\*_0 = 0, expected 1"),
        ],
        ids=["order", "residue-sum", "constant"],
    )
    def test_corrupted_group_is_caught(self, monkeypatch, corrupt, message):
        closure = ehrhart._coset_closure

        def corrupted(gens, big, width, n):
            return corrupt(closure(gens, big, width, n), big, width)

        monkeypatch.setattr(ehrhart, "_coset_closure", corrupted)
        with pytest.raises(InternalConsistencyError, match=message):
            h_star(TRIANGLE)

    @pytest.mark.parametrize(
        "simplex, product",
        [
            (cyclic_simplex(2, 21, (5,)), 63),
            (cyclic_simplex(3, 16, (3, 7)), 64),
            # (Z/4)^2: the closure needs two generators
            (Simplex([(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 1)]), 64),
            (cyclic_simplex(4, 13, (2, 5, 7)), 65),
            (cyclic_simplex(2, 341, (100,)), 1023),
            (cyclic_simplex(3, 256, (3, 7)), 1024),
            (cyclic_simplex(4, 205, (2, 5, 7)), 1025),
        ],
    )
    def test_field_width_at_powers_of_two(self, simplex, product):
        # a field holds residue sums up to (d + 1)(|det| - 1), and its width
        # is one bit over (d + 1) |det|: check on either side of 2^k
        assert (simplex.d + 1) * simplex.volume == product
        assert ehrhart._parallelepiped_h_star(simplex) == ehrhart._box_h_star(simplex)

    def test_determinant_near_ten_to_the_five(self):
        rng = random.Random(35)
        while True:
            vertices = [[rng.randint(-14, 14) for _ in range(4)] for _ in range(5)]
            if 90_000 <= _adjugate([*map(list, zip(*vertices)), [1] * 5])[0] <= 110_000:
                break
        simplex = Simplex(vertices)
        start = time.perf_counter()
        hstar = h_star(simplex)
        assert time.perf_counter() - start < 10
        assert hstar(1) == simplex.volume and hstar[0] == 1 and hstar.degree <= 4

    def test_budget_is_charged_the_determinant_up_front(self):
        message = "^fundamental-parallelepiped enumeration needs 4 steps, budget is 3$"
        with limit(3), pytest.raises(BudgetExceeded, match=message):
            h_star(TRIANGLE)
        with limit(4):
            assert h_star(TRIANGLE).coeffs == (1, 3)
        # |det| = 200^3 = 8 * 10^6 is over the default budget
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="needs 8000000 steps, default budget is 5000000"):
            h_star(dilated_simplex(3, 200))
        assert time.perf_counter() - start < 1


class TestHStar:
    def test_order_polytope_of_chain_unimodular(self):
        assert h_star(OrderPolytope(CHAIN2)).coeffs == (1,)

    def test_antichain3_eulerian(self):
        assert h_star(OrderPolytope(ANTI3)).coeffs == (1, 4, 1)

    def test_matches_descent_route(self):
        for poset in enumerate_labeled_posets(4):
            assert h_star(OrderPolytope(poset)) == descent_h_star(poset)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 5).flatmap(lambda d: st.permutations(range(1, d + 1))), st.integers(0, 99))
    def test_relabelling_invariance(self, perm, seed):
        d = len(perm)
        (poset,) = random_instances("poset", d, 1, seed, relation_probability=0.4)
        image = Poset(d, [(perm[i - 1], perm[j - 1]) for i, j in poset.relations])
        assert h_star(OrderPolytope(image)) == h_star(OrderPolytope(poset))

    def test_matches_series_numerator_route(self):
        # h_star convolves the counts itself; the public route interpolates
        # the Ehrhart polynomial and reads its series numerator
        polytopes = [OrderPolytope(p) for d in range(5) for p in enumerate_labeled_posets(d)]
        polytopes += [
            build(d, k)
            for build in (dilated_simplex, dilated_cube)
            for d in (1, 2, 3)
            for k in (1, 2, 3)
        ]
        polytopes += random_simplices(11, 2, 10, 3) + random_simplices(12, 3, 6, 2)
        for polytope in polytopes:
            expected = series_numerator(ehrhart_polynomial(polytope), polytope.d)
            assert h_star(polytope) == expected, polytope

    @pytest.mark.parametrize(
        "counts, message",
        [
            # h* = (2, -1, 3): h*_0 is reported before the negative h*_1
            ([2, 5, 12], r"h\*_0 = 2, expected 1"),
            ([1, 2, 6], r"negative h\* coefficient in \(1, -1, 3\)"),
        ],
        ids=["constant", "negative"],
    )
    @pytest.mark.parametrize(
        "polytope",
        [TRIANGLE, OrderPolytope(ANTI2), dilated_cube(2, 1)],
        ids=["simplex", "order", "hrep"],
    )
    def test_checks_in_order(self, monkeypatch, polytope, counts, message):
        # the volume is judged by the walk in _closed_counts, replaced here
        monkeypatch.setattr(ehrhart, "_closed_counts", lambda polytope: counts)
        # a simplex's counts are read only by its second route
        route = ehrhart._box_h_star if isinstance(polytope, Simplex) else ehrhart.h_star
        with pytest.raises(InternalConsistencyError, match=message) as info:
            route(polytope)
        assert type(info.value) is InternalConsistencyError

    def test_at_one_is_normalized_volume(self):
        # the d-th difference of n -> L(n) is d! times the leading coefficient;
        # the triangle has area 2 and the unit cube volume 1
        for polytope, volume in ((TRIANGLE, 2), (OrderPolytope(ANTI3), 1)):
            d = polytope.d
            ehr = ehrhart_polynomial(polytope)
            difference = sum((-1) ** (d - k) * comb(d, k) * ehr(k) for k in range(d + 1))
            assert ehr.degree == d
            assert difference == factorial(d) * volume
            assert h_star(polytope)(1) == difference

    @pytest.mark.parametrize(
        "poset, counts, message",
        [
            # volume 2, but h*_0 = L(0) = 2
            (Poset(1), [2, 4], r"^h\*_0 = 2, expected 1$"),
            # volume 4, but h* = 1 - 2z + 5z^2
            (Poset(2), [1, 1, 5], r"^negative h\* coefficient in \(1, -2, 5\)$"),
        ],
        ids=["constant-term", "negative"],
    )
    def test_counts_no_lattice_polytope_has_are_a_bug(self, monkeypatch, poset, counts, message):
        monkeypatch.setattr(ehrhart, "_closed_counts", lambda polytope: counts)
        with pytest.raises(InternalConsistencyError, match=message):
            ehrhart_polynomial(OrderPolytope(poset))

    def test_flat_hrep_is_invalid_input(self):
        # the unit square {0 <= x <= 1, y = 0} declared 2-dimensional has
        # Ehrhart degree 1: the user's declaration is wrong, not the library
        flat = parse_polytope("hrep 2 4\n1 0 1\n-1 0 0\n0 1 0\n0 -1 0\n")
        for route in (h_star, ehrhart_polynomial):
            with pytest.raises(InvalidInput) as info:
                route(flat)
            assert str(info.value) == FLAT_MESSAGE


class TestReciprocity:
    """Ehrhart-Macdonald: L_P(-n) = (-1)^d L_{P°}(n), P's interior counts."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("build", [dilated_simplex, dilated_cube])
    def test_dilated(self, build, d, k):
        # the Ehrhart polynomial uses the interior counts at n <= d // 2;
        # n up to max(3, d + 1) also checks nodes it never counted
        polytope = build(d, k)
        ehr = ehrhart_polynomial(polytope)
        for n in range(1, max(4, d + 2)):
            assert ehr(-n) == (-1) ** d * polytope.count_points(n, interior=True)

    def test_user_box_cutting_the_polytope(self):
        # {x <= 5} inside the box [0, 5]^2 is the square [0, 5]^2: the box
        # faces bound the interior as much as the row does
        p = HRepPolytope([((1, 0), 5)], 2, box=([0, 0], [5, 5]))
        ehr = ehrhart_polynomial(p)
        for n in range(1, 4):
            assert p.count_points(n, interior=True) == ehr(-n) == (5 * n - 1) ** 2

    def test_closed_forms(self):
        # the cube [0, 2]^2 has (2n+1)^2 points and (2n-1)^2 interior points
        ehr = ehrhart_polynomial(dilated_cube(2, 2))
        assert [ehr(-n) for n in range(1, 4)] == [1, 9, 25]


class TestOpenNumerator:
    def test_segment(self):
        assert open_numerator(IntPolynomial([1]), 1).coeffs == (0, 0, 1)

    def test_triangle(self):
        assert open_numerator(IntPolynomial([1, 3]), 2).coeffs == (0, 0, 3, 1)

    def test_open_chain2(self):
        assert open_numerator(IntPolynomial([1]), 2).coeffs == (0, 0, 0, 1)

    def test_rejects_bad_constant(self):
        with pytest.raises(InvalidInput):
            open_numerator(IntPolynomial([2]), 2)

    def test_reciprocity_as_counts(self):
        for poset in enumerate_labeled_posets(3):
            op = OrderPolytope(poset)
            d = poset.d
            series = expand_series(open_numerator(h_star(op), d), d, d + 2)
            for n in range(1, d + 3):
                assert op.count_points(n, interior=True) == series[n]

    def test_reciprocity_for_simplex(self):
        series = expand_series(open_numerator(h_star(TRIANGLE), 2), 2, 4)
        for n in range(1, 5):
            assert TRIANGLE.count_points(n, interior=True) == series[n]


TEXT_FORMAT_ITEMS = [
    *random_instances("poset", 0, 1, seed=0),
    *random_instances("poset", 5, 3, seed=2),
    *random_instances("graph", 5, 3, seed=2),
    dilated_simplex(1, 3),
    dilated_simplex(3, 2),
    dilated_cube(1, 2),
    dilated_cube(3, 2),
    *random_simplices(5, 3, 2, 3),
    HRepPolytope([((1, 1), 3), ((-1, 2), 2)], 2, box=((0, -1), (3, 2))),
    *random_hreps(13, 3),
]


def parse_as(item, text):
    if isinstance(item, (Poset, Graph)):
        return type(item).from_text(text)
    return parse_polytope(text)


class TestFileFormat:
    @pytest.mark.parametrize(
        "item", TEXT_FORMAT_ITEMS,
        ids=[f"{type(x).__name__}-{k}" for k, x in enumerate(TEXT_FORMAT_ITEMS)],
    )
    def test_text_round_trip(self, item):
        text = item.to_text()
        assert parse_as(item, text).to_text() == text

    def test_simplex(self):
        p = parse_polytope("simplex 2\n0 0\n2 0\n0 2\n")
        assert isinstance(p, Simplex)
        assert h_star(p).coeffs == (1, 3)

    def test_hrep_with_box(self):
        text = "hrep 2 1\n1 0 5\nbox 0 0 5 5\n"
        p = parse_polytope(text)
        assert isinstance(p, HRepPolytope)
        assert p.count_points(1) == 36

    def test_order_reference(self, tmp_path):
        (tmp_path / "chain.poset").write_text("p 2 1\nr 1 2\n")
        (tmp_path / "poly.txt").write_text("order chain.poset\n")
        p = load_polytope(tmp_path / "poly.txt")
        assert isinstance(p, OrderPolytope)
        assert h_star(p).coeffs == (1,)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "cube 2\n",
            "simplex 2\n0 0\n1 0\n",
            "simplex 2\n0 0 0\n1 0 0\n0 1 0\n",
            "hrep 2 2\n1 0 5\n",
            "order missing.poset\n",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(InvalidInput):
            parse_polytope(text)
