"""Symmetric decompositions: closed formulas vs an independent linear solver,
the derived splits, and the inequality reports."""

import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hstarlib import decomp
from hstarlib import graph as graph_module
from hstarlib.budget import limit
from hstarlib.decomp import (
    ab_decompose,
    graph_decomposition,
    graph_numerator,
    inequality_report,
    open_decomposition,
    order_decomposition,
    stapledon_pair,
)
from hstarlib.ehrhart import OrderPolytope, h_star, open_numerator
from hstarlib.errors import BudgetExceeded, InternalConsistencyError, InvalidInput
from hstarlib.graph import (
    Graph,
    acyclic_orientations,
    chromatic_via_orientations,
    count_acyclic_orientations,
    orientation_poset,
)
from hstarlib.harness import enumerate_labeled_graphs, enumerate_labeled_posets, random_instances
from hstarlib.polynomial import IntPolynomial, reverse
from hstarlib.poset import Poset
from oracles import partial_sum_inequalities
from test_graph import brute_acyclic_orientations, brute_arcs

K2 = Graph(2, [(1, 2)])
K3 = Graph(3, [(1, 2), (1, 3), (2, 3)])
PATH3 = Graph(3, [(1, 2), (2, 3)])
PATH3_CHI = IntPolynomial([0, 1, -2, 1])
K4 = Graph(4, combinations(range(1, 5), 2))
# every function that sweeps the acyclic orientations
SWEEPS = [
    count_acyclic_orientations,
    chromatic_via_orientations,
    graph_numerator,
    graph_decomposition,
]


def solve_ab_linear_system(h: IntPolynomial, d: int):
    """Independent route to the unique split: solve the coefficient equations.

    Unknowns a_0..a_d and b_0..b_{s-1} subject to the symmetry constraints
    and (1 + ... + z^{l-1}) h = a + z^l b, solved by exact Gaussian
    elimination.  Free of the partial-sum formulas under test.
    """
    s = h.degree
    l = d + 1 - s
    target = [0] * (d + 1)  # (1 + ... + z^{l-1}) h, one product term at a time
    for i in range(l):
        for j, c in enumerate(h.coeffs):
            target[i + j] += c
    n_a, n_b = d + 1, s
    cols = n_a + n_b
    rows = []
    rhs = []
    for k in range(d + 1):  # coefficient k of a + z^l b
        row = [Fraction(0)] * cols
        row[k] = Fraction(1)
        if 0 <= k - l < n_b:
            row[n_a + k - l] = Fraction(1)
        rows.append(row)
        rhs.append(Fraction(target[k]))
    for i in range(d + 1):  # a_i = a_{d-i}
        row = [Fraction(0)] * cols
        row[i] += 1
        row[d - i] -= 1
        rows.append(row)
        rhs.append(Fraction(0))
    for i in range(n_b):  # b_i = b_{s-1-i}
        row = [Fraction(0)] * cols
        row[n_a + i] += 1
        row[n_a + s - 1 - i] -= 1
        rows.append(row)
        rhs.append(Fraction(0))
    # Gaussian elimination
    m = len(rows)
    pivot_row = 0
    where = [-1] * cols
    for col in range(cols):
        sel = next((r for r in range(pivot_row, m) if rows[r][col] != 0), None)
        if sel is None:
            continue
        rows[pivot_row], rows[sel] = rows[sel], rows[pivot_row]
        rhs[pivot_row], rhs[sel] = rhs[sel], rhs[pivot_row]
        inv = 1 / rows[pivot_row][col]
        rows[pivot_row] = [x * inv for x in rows[pivot_row]]
        rhs[pivot_row] *= inv
        for r in range(m):
            if r != pivot_row and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[pivot_row])]
                rhs[r] -= factor * rhs[pivot_row]
        where[col] = pivot_row
        pivot_row += 1
    assert all(w >= 0 for w in where), "system should determine every unknown"
    solution = [rhs[where[c]] for c in range(cols)]
    assert all(x.denominator == 1 for x in solution)
    a = IntPolynomial([x.numerator for x in solution[:n_a]])
    b = IntPolynomial([x.numerator for x in solution[n_a:]])
    return a, b


class TestAbDecompose:
    def test_triangle_numerator(self):
        dec = ab_decompose(IntPolynomial([1, 3]), 2)
        assert dec == (IntPolynomial([1, 4, 1]), IntPolynomial([2]))

    def test_open_chain_numerator(self):
        dec = ab_decompose(IntPolynomial([0, 0, 0, 1]), 3)
        assert dec.a.coeffs == (0, -1, -1)
        assert dec.b.coeffs == (1, 1, 1)
        # s = 3 = d, so l = 1 and a + z b is h itself
        assert dec.a + dec.b.shift(1) == IntPolynomial([0, 0, 0, 1])

    def test_palindromic_fixed_point(self):
        for d in (1, 2, 5):
            h = IntPolynomial([1] + [0] * (d - 1) + [1])
            dec = ab_decompose(h, d)
            assert dec.a == h
            assert dec.b == IntPolynomial()

    def test_rejects_zero(self):
        with pytest.raises(InvalidInput):
            ab_decompose(IntPolynomial(), 2)

    def test_rejects_degree_overflow(self):
        with pytest.raises(InvalidInput):
            ab_decompose(IntPolynomial([1, 1, 1]), 1)

    @given(
        st.lists(st.integers(-20, 20), min_size=1, max_size=7).filter(
            lambda c: any(x != 0 for x in c)
        ),
        st.integers(0, 3),
    )
    def test_uniqueness_against_linear_solver(self, coeffs, extra):
        h = IntPolynomial(coeffs)
        d = h.degree + extra
        dec = ab_decompose(h, d)
        a, b = solve_ab_linear_system(h, d)
        assert dec.a == a
        assert dec.b == b

    @given(
        st.lists(st.integers(-50, 50), min_size=1, max_size=9).filter(
            lambda c: any(x != 0 for x in c)
        ),
        st.integers(0, 4),
    )
    def test_matches_direct_partial_sums(self, coeffs, extra):
        h = IntPolynomial(coeffs)
        s = h.degree
        d = s + extra
        dec = ab_decompose(h, d)
        a = [
            sum(h[j] for j in range(i + 1)) - sum(h[j] for j in range(d - i + 1, d + 1))
            for i in range(d + 1)
        ]
        b = [
            -sum(h[j] for j in range(i + 1)) + sum(h[j] for j in range(s - i, s + 1))
            for i in range(s)
        ]
        assert dec == (IntPolynomial(a), IntPolynomial(b))

    @pytest.mark.parametrize(
        "part, corrupt, message",
        [
            # one a coefficient: a is no longer symmetric about d
            ("_a_coeffs", lambda a: a[:1] + [a[1] + 1] + a[2:], "a = .* is not symmetric about 3"),
            # one b coefficient: b is no longer symmetric about s - 1
            ("_b_coeffs", lambda b: [b[0] + 1] + b[1:], "b = .* is not symmetric about 1"),
            # both ends of a: still a palindrome, but a + z^l b is off
            ("_a_coeffs", lambda a: [a[0] + 1] + a[1:-1] + [a[-1] + 1], "reconstruction failed"),
            # b = (1, 1, 1): a palindrome whose extra top term lies beyond a
            ("_b_coeffs", lambda b: b + b[:1], "reconstruction failed"),
        ],
        ids=["a", "b", "reconstruction", "length"],
    )
    def test_corrupted_split_raises(self, monkeypatch, part, corrupt, message):
        formula = getattr(decomp, part)
        monkeypatch.setattr(decomp, part, lambda *args: corrupt(formula(*args)))
        with pytest.raises(InternalConsistencyError, match=message):
            ab_decompose(IntPolynomial([1, 3, 2]), 3)

    def test_segment_identity_on_corpus(self):
        # h* = a*(ambient d) - z a*_1(ambient d-1) for every corpus h*
        for poset in enumerate_labeled_posets(4):
            if poset.d == 0:
                continue
            hs = h_star(OrderPolytope(poset))
            a_d = ab_decompose(hs, poset.d).a
            a_d1 = ab_decompose(hs, poset.d - 1).a
            assert hs == a_d - a_d1.shift(1)


class TestStapledonPair:
    def test_triangle(self):
        dec = stapledon_pair(IntPolynomial([1, 3]), 2)
        assert dec.a.coeffs == (1, 4, 1)
        assert dec.b.coeffs == (2,)
        # (1+z)(1+3z) = 1 + 4z + 3z^2 = a + z^2 b
        assert dec.a + dec.b.shift(2) == IntPolynomial([1, 4, 3])

    def test_unimodular(self):
        dec = stapledon_pair(IntPolynomial([1]), 2)
        assert dec.a.coeffs == (1, 1, 1)
        assert dec.b == IntPolynomial()

    def test_cube(self):
        dec = stapledon_pair(IntPolynomial([1, 4, 1]), 3)
        assert dec.a.coeffs == (1, 5, 5, 1)
        assert dec.b == IntPolynomial()

    def test_nonnegative_on_polytopal_corpus(self):
        for poset in enumerate_labeled_posets(4):
            dec = stapledon_pair(h_star(OrderPolytope(poset)), poset.d)
            assert dec.a.is_nonnegative() and dec.b.is_nonnegative()

    def test_rejects_bad_preconditions(self):
        with pytest.raises(InvalidInput):
            stapledon_pair(IntPolynomial([2]), 1)
        with pytest.raises(InvalidInput):
            stapledon_pair(IntPolynomial([1, -1]), 1)


class TestOpenDecomposition:
    def test_leg2_triangle(self):
        a_p, b_p = open_decomposition(IntPolynomial([1, 3]), 2)
        assert a_p.coeffs == (1, 4, 4, 1)
        assert b_p.coeffs == (1, 4, 1)
        assert (a_p - b_p).coeffs == (0, 0, 3, 1)

    def test_unit_segment(self):
        a_p, b_p = open_decomposition(IntPolynomial([1]), 1)
        assert a_p.coeffs == (1, 1, 1)
        assert b_p.coeffs == (1, 1)

    def test_point(self):
        a_p, b_p = open_decomposition(IntPolynomial([1]), 0)
        assert a_p.coeffs == (1, 1)
        assert b_p.coeffs == (1,)

    def test_difference_is_open_numerator_on_corpus(self):
        for poset in enumerate_labeled_posets(4):
            hs = h_star(OrderPolytope(poset))
            a_p, b_p = open_decomposition(hs, poset.d)
            assert a_p - b_p == open_numerator(hs, poset.d)
            assert a_p.is_nonnegative() and b_p.is_nonnegative()
            assert reverse(a_p, poset.d + 1) == a_p
            assert reverse(b_p, poset.d) == b_p


class TestOrderDecomposition:
    def test_two_chain(self):
        a_pi, b_pi = order_decomposition(IntPolynomial([1]), 2)
        assert a_pi.coeffs == (0, -1, -1)
        assert b_pi.coeffs == (1, 1, 1)

    def test_antichain_two(self):
        a_pi, b_pi = order_decomposition(IntPolynomial([1, 1]), 2)
        assert a_pi.coeffs == (0, -1, -1)
        assert b_pi.coeffs == (1, 2, 1)

    def test_antichain_three(self):
        a_pi, b_pi = order_decomposition(IntPolynomial([1, 4, 1]), 3)
        assert a_pi.coeffs == (0, -1, -4, -1)
        assert b_pi.coeffs == (1, 5, 5, 1)

    def test_d_zero(self):
        a_pi, b_pi = order_decomposition(IntPolynomial([1]), 0)
        assert a_pi == IntPolynomial()
        assert b_pi.coeffs == (1,)

    def test_rejects_degree_too_high_for_order_polytope(self):
        with pytest.raises(InvalidInput):
            order_decomposition(IntPolynomial([1, 1]), 1)

    def test_reconstruction_and_signs_on_corpus(self):
        for poset in enumerate_labeled_posets(4):
            hs = h_star(OrderPolytope(poset))
            a_pi, b_pi = order_decomposition(hs, poset.d)
            assert a_pi + b_pi.shift(1) == open_numerator(hs, poset.d)
            assert (-a_pi).is_nonnegative() and b_pi.is_nonnegative()


class TestDerivedSplitsBuildOnlyAParts:
    """open_decomposition and order_decomposition take the a-parts of the
    split alone; they must equal the a-parts of the full checked split."""

    def test_match_full_split_on_corpus(self):
        # the order split is the open split at d - 1 relabelled; compared
        # here with the full splits themselves, not through the open split
        for poset in (p for d in range(6) for p in enumerate_labeled_posets(d)):
            hs, d = h_star(OrderPolytope(poset)), poset.d
            assert open_decomposition(hs, d) == (
                stapledon_pair(hs, d + 1).a,
                stapledon_pair(hs, d).a,
            )
            if d:
                assert order_decomposition(hs, d) == (
                    -(stapledon_pair(hs, d - 1).a.shift(1)),
                    stapledon_pair(hs, d).a,
                )

    @pytest.mark.parametrize(
        "coeffs, d, message",
        [
            ([2], 1, "constant term 1"),
            ([1, -1], 2, "nonnegative coefficients"),
        ],
    )
    @pytest.mark.parametrize("split", [open_decomposition, order_decomposition])
    def test_rejects_non_polytopal_h_star(self, split, coeffs, d, message):
        with pytest.raises(InvalidInput, match=message):
            split(IntPolynomial(coeffs), d)

    @pytest.mark.parametrize("degree, ambient", [(2, 1), (3, 2)])
    def test_open_split_names_the_ambient_degree_that_failed(self, degree, ambient):
        # at d = 1, degree 2 fits the pyramid's split (ambient 2) but not
        # P's own (ambient 1); degree 3 fits neither
        with pytest.raises(InvalidInput, match=f"degree {degree} exceeds ambient degree {ambient}$"):
            open_decomposition(IntPolynomial([1] * (degree + 1)), 1)

    @pytest.mark.parametrize(
        "split, message",
        [
            (open_decomposition, "a_P - b_P does not reverse h* = (1, 4, 1) at d = 3"),
            (order_decomposition, "a_P - b_P does not reverse h* = (1, 4, 1) at d = 2"),
        ],
    )
    def test_perturbed_a_part_fails_reconstruction(self, monkeypatch, split, message):
        # doubled a-parts stay palindromic, but their combination doubles
        real = decomp._a_part
        monkeypatch.setattr(decomp, "_a_part", lambda h, d: real(h, d) + real(h, d))
        with pytest.raises(InternalConsistencyError, match=f"^{re.escape(message)}$"):
            split(IntPolynomial([1, 4, 1]), 3)

    @pytest.mark.parametrize("split", [open_decomposition, order_decomposition])
    def test_asymmetric_a_part_raises(self, monkeypatch, split):
        real = decomp._a_coeffs
        monkeypatch.setattr(decomp, "_a_coeffs", lambda h, d: [2] + real(h, d)[1:])
        with pytest.raises(InternalConsistencyError, match="a = .* is not symmetric about"):
            split(IntPolynomial([1, 4, 1]), 3)


def per_orientation_routes(graph):
    """h_G and the split of z h_G, one brute-force orientation at a time,
    each poset closed from its arcs: the loop the grouped sums must equal."""
    d = graph.d
    zh = a = b = IntPolynomial()
    for flipped in brute_acyclic_orientations(graph):
        hs = h_star(OrderPolytope(Poset(d, brute_arcs(graph, flipped))))
        a_pi, b_pi = order_decomposition(hs, d)
        a, b = a + a_pi, b + b_pi
        zh = zh + open_numerator(hs, d)
    assert zh[0] == 0
    return IntPolynomial(zh.coeffs[1:]), a, b


class TestGroupedOrientationSums:
    @pytest.mark.parametrize(
        "graphs",
        [
            [g for d in range(5) for g in enumerate_labeled_graphs(d)],
            list(random_instances("graph", 6, 6, seed=13)),
        ],
        ids=["all-d-le-4", "seeded-d6"],
    )
    def test_matches_per_orientation_loop(self, graphs):
        for graph in graphs:
            h_g, a, b = per_orientation_routes(graph)
            assert graph_numerator(graph) == h_g
            assert graph_decomposition(graph) == (a, b)
        # grouping must matter: the last graph has fewer distinct h* than orientations
        hstars = [
            h_star(OrderPolytope(orientation_poset(graph, mask)))
            for mask in acyclic_orientations(graph)
        ]
        assert len(set(hstars)) < len(hstars)


class TestGraphNumerator:
    def test_k2(self):
        assert graph_numerator(K2).coeffs == (0, 0, 2)

    def test_k3(self):
        assert graph_numerator(K3).coeffs == (0, 0, 0, 6)

    def test_path3(self):
        assert graph_numerator(PATH3).coeffs == (0, 0, 2, 4)

    def test_single_vertex(self):
        # chi = n, so the series is z/(1-z)^2
        assert graph_numerator(Graph(1)).coeffs == (0, 1)

    def test_empty_graph(self):
        assert graph_numerator(Graph(0)).coeffs == (1,)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 5).flatmap(lambda d: st.permutations(range(1, d + 1))), st.integers(0, 99))
    def test_relabelling_invariance(self, perm, seed):
        d = len(perm)
        (graph,) = random_instances("graph", d, 1, seed)
        image = Graph(d, [(perm[i - 1], perm[j - 1]) for i, j in graph.edges])
        assert graph_numerator(image) == graph_numerator(graph)


class TestGraphDecomposition:
    def test_k2(self):
        a, b = graph_decomposition(K2)
        assert a.coeffs == (0, -2, -2)
        assert b.coeffs == (2, 2, 2)

    def test_k3(self):
        a, b = graph_decomposition(K3)
        assert a.coeffs == (0, -6, -6, -6)
        assert b.coeffs == (6, 6, 6, 6)

    def test_edgeless_two(self):
        a, b = graph_decomposition(Graph(2))
        assert a.coeffs == (0, -1, -1)
        assert b.coeffs == (1, 2, 1)

    def test_reconstruction_on_corpus(self):
        for graph in enumerate_labeled_graphs(4):
            a, b = graph_decomposition(graph)
            zh = graph_numerator(graph).shift(1)
            assert a + b.shift(1) == zh
            assert (-a).is_nonnegative() and b.is_nonnegative()
            assert reverse(a, graph.d + 1) == a
            assert reverse(b, graph.d) == b


class TestOrientationSum:
    """Both chromatic-series functions share one checked orientation sweep."""

    @pytest.mark.parametrize("fn", [graph_numerator, graph_decomposition])
    def test_one_sweep_per_call(self, monkeypatch, fn):
        sweeps = []

        def counted(graph):
            sweeps.append(graph)
            return acyclic_orientations(graph)

        monkeypatch.setattr(graph_module, "acyclic_orientations", counted)
        for graph in (K3, PATH3, Graph(0)):
            fn(graph)
        assert sweeps == [K3, PATH3, Graph(0)]

    @pytest.mark.parametrize("fn", SWEEPS)
    def test_budget_counts_the_orientations_walked(self, fn):
        # the sweep charges itself, so every function that walks K4's 24
        # orientations is refused at 23
        with limit(24):
            bounded = fn(K4)
        assert bounded == fn(K4)
        message = "^acyclic-orientation sweep needs 24 steps, budget is 23$"
        with limit(23), pytest.raises(BudgetExceeded, match=message):
            fn(K4)

    @pytest.mark.parametrize("fn", SWEEPS[1:])
    def test_ideal_count_is_charged_before_the_walk(self, fn):
        # K4's orientations are chains with 5 down-sets each; each one's
        # ideal count is charged before the sweep charges it walked
        with limit(4), pytest.raises(BudgetExceeded, match="^order-ideal lattice needs 5 steps"):
            fn(K4)

    @pytest.mark.parametrize("fn", [graph_numerator, graph_decomposition])
    def test_wrong_chromatic_route_raises(self, monkeypatch, fn):
        # chi(K3) is n(n-1)(n-2); n(n-1)^2 is the path's and must not match
        monkeypatch.setattr(decomp, "chromatic_polynomial", lambda g: PATH3_CHI)
        with pytest.raises(InternalConsistencyError, match="orientation route"):
            fn(K3)


def assert_lines_are_split_coefficients(h: IntPolynomial, d: int):
    """Both reports equal the partial-sum oracle, and each value is -a_i of
    the checked split of z h at ambient d + 1 (theorem4) or of h at d
    (conjecture64), made by ``ab_decompose`` with its reconstruction check."""
    for mode, g, ambient in (("theorem4", h.shift(1), d + 1), ("conjecture64", h, d)):
        lines = inequality_report(h, d, mode)
        assert [tuple(line) for line in lines] == partial_sum_inequalities(h, d, mode)
        if g:  # the zero polynomial has no split, and every value is 0
            a = ab_decompose(g, ambient).a
            assert all(value == -a[i] for i, value in lines)


class TestInequalityReport:
    def test_k3_theorem4(self):
        lines = inequality_report(IntPolynomial([0, 0, 0, 6]), 3, "theorem4")
        assert [tuple(l) for l in lines] == [(1, 6), (2, 6)]

    def test_path3_conjecture(self):
        lines = inequality_report(IntPolynomial([0, 0, 2, 4]), 3, "conjecture64")
        assert [tuple(l) for l in lines] == [(1, 4)]

    def test_violation_flagged(self):
        lines = inequality_report(IntPolynomial([1]), 2, "theorem4")
        # a negative value is a failing inequality
        assert [tuple(l) for l in lines] == [(1, -1)]

    def test_empty_for_small_d(self):
        assert inequality_report(IntPolynomial([1]), 0, "theorem4") == []
        assert inequality_report(IntPolynomial([1, 1]), 1, "conjecture64") == []

    def test_rejects_unknown_mode(self):
        with pytest.raises(InvalidInput):
            inequality_report(IntPolynomial([1]), 2, "theorem5")

    def test_split_coefficients_on_every_graph_through_d5(self):
        for d in range(6):
            for graph in enumerate_labeled_graphs(d):
                assert_lines_are_split_coefficients(graph_numerator(graph), d)

    @pytest.mark.parametrize("d, count", [(6, 40), (7, 60)])
    def test_split_coefficients_on_seeded_graphs(self, d, count):
        for graph in random_instances("graph", d, count, seed=d):
            assert_lines_are_split_coefficients(graph_numerator(graph), d)

    @settings(max_examples=300)
    @given(st.integers(0, 9), st.lists(st.integers(-9, 9), max_size=10))
    @example(0, [])
    @example(5, [])
    @example(9, [1, -2])
    def test_split_coefficients_on_integer_polynomials(self, d, coeffs):
        # degrees from the zero polynomial up to d, negative coefficients
        assert_lines_are_split_coefficients(IntPolynomial(coeffs[: d + 1]), d)
