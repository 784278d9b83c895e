"""Polynomial arithmetic and series transforms.

Derived expected values are frozen from independent oracles computed here:
brute-force lattice-point counts for the interpolation and series examples,
the binomial expansion with math.comb for counting-polynomial evaluation,
and direct index manipulation for the reversals.
"""

import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hstarlib.errors import InvalidInput
from hstarlib.polynomial import (
    NEG_INF,
    CountingPolynomial,
    IntPolynomial,
    expand_series,
    extrapolate,
    f_to_h,
    interpolate,
    reverse,
    series_numerator,
)


def triangle_points(n, leg=2, interior=False):
    """Brute-force count of lattice points of n * conv{(0,0),(leg,0),(0,leg)}."""
    lo, hi = (1, n * leg - 1) if interior else (0, n * leg)
    total = 0
    for x in range(lo, hi + 1):
        for y in range(lo, hi + 1):
            if interior:
                if x + y < n * leg:
                    total += 1
            elif x + y <= n * leg:
                total += 1
    return total


class TestIntPolynomial:
    def test_trims_trailing_zeros(self):
        assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)

    def test_zero_degree_sentinel(self):
        zero = IntPolynomial()
        assert zero.degree == NEG_INF
        assert not zero
        assert zero.degree <= 0  # usable in degree preconditions

    def test_coefficient_access_beyond_degree(self):
        p = IntPolynomial([1, 3])
        assert p[5] == 0

    def test_rejects_non_integer(self):
        with pytest.raises(InvalidInput):
            IntPolynomial([Fraction(1, 2)])

    @pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(2), 2.0, "2"])
    def test_names_the_first_non_integer(self, bad):
        with pytest.raises(InvalidInput, match=re.escape(f"got {bad!r}")):
            IntPolynomial([1, bad, 0.5])

    def test_names_the_first_non_integer_of_a_generator(self):
        with pytest.raises(InvalidInput, match=re.escape("got 2.0")):
            IntPolynomial(c for c in (1, 2.0, "3"))

    @pytest.mark.parametrize(
        "coeffs, expected",
        [([0, 0], ()), ((0, 1, 0), (0, 1)), (iter([3, 0, 2, 0]), (3, 0, 2)), ([False, 0], ())],
    )
    def test_trims_every_trailing_zero(self, coeffs, expected):
        p = IntPolynomial(coeffs)
        assert p.coeffs == expected and type(p.coeffs) is tuple
        assert p.degree == (len(expected) - 1 if expected else NEG_INF)

    def test_accepts_bool(self):
        p = IntPolynomial([True, False, True, False])
        assert p.coeffs == (1, 0, 1) and p.degree == 2
        assert all(type(c) is int for c in p.coeffs)
        assert repr(p) == "IntPolynomial([1, 0, 1])"
        L = interpolate([True, 2])
        assert L.values == (1, 2) and type(L.values[0]) is int

    def test_accepts_numpy_integers(self):
        np = pytest.importorskip("numpy")
        p = IntPolynomial([np.int64(1), np.uint8(2)])
        assert p == IntPolynomial([1, 2]) and all(type(c) is int for c in p.coeffs)
        L = interpolate(np.array([1, 3, 5]))
        assert L.values == (1, 3, 5) and all(type(v) is int for v in L.values)
        assert L == p

    def test_arithmetic(self):
        p = IntPolynomial([1, 1])
        assert (p + p.shift(1)).coeffs == (1, 2, 1)  # (1 + z) p
        assert (p - p).coeffs == ()
        assert (p + p).coeffs == (2, 2)
        assert p(3) == 4
        # no product, and no equality with a bare int
        with pytest.raises(TypeError):
            p * p
        assert IntPolynomial([1]) != 1 and IntPolynomial() != 0


class TestReverse:
    def test_constant(self):
        assert reverse(IntPolynomial([1]), 2).coeffs == (0, 0, 1)

    def test_index_map(self):
        # q_i = p_{3-i} applied to 1 + 3z gives 3z^2 + z^3
        assert reverse(IntPolynomial([1, 3]), 3).coeffs == (0, 0, 3, 1)

    def test_palindromic_fixed_point(self):
        p = IntPolynomial([1, 4, 1])
        assert reverse(p, 2) == p

    def test_zero(self):
        assert reverse(IntPolynomial(), 4) == IntPolynomial()

    def test_rejects_small_degree(self):
        with pytest.raises(InvalidInput):
            reverse(IntPolynomial([1, 1, 1]), 1)

    @given(
        st.lists(st.integers(-50, 50), max_size=8),
        st.integers(0, 4),
    )
    def test_involution(self, coeffs, slack):
        p = IntPolynomial(coeffs)
        D = (len(coeffs) - 1 if coeffs else 0) + slack
        assert reverse(reverse(p, D), D) == p


def binomial(n, k):
    """Generalized C(n, k) for any integer n, test-side oracle:
    math.comb for n >= 0 and C(-m, k) = (-1)^k C(m + k - 1, k) below."""
    return comb(n, k) if n >= 0 else (-1) ** k * comb(-n + k - 1, k)


class TestInterpolate:
    def test_collinear(self):
        p = interpolate([1, 3, 5])
        assert p == IntPolynomial([1, 2])
        assert p.degree == 1
        assert p.differences == (1, 2, 0)

    def test_square(self):
        # oracle: (n+1)^2 at the three nodes is 1, 4, 9
        assert [(n + 1) ** 2 for n in (0, 1, 2)] == [1, 4, 9]
        assert interpolate([1, 4, 9]) == IntPolynomial([1, 2, 1])

    def test_triangle_counts(self):
        counts = [triangle_points(n) for n in (0, 1, 2)]
        assert counts == [1, 6, 15]
        # (2n+1)(n+1) = 1 + 3n + 2n^2, also at negative n
        L = interpolate(counts)
        assert all(L(n) == (2 * n + 1) * (n + 1) for n in range(-5, 8))

    def test_rejects_empty(self):
        with pytest.raises(InvalidInput):
            interpolate([])

    def test_rejects_non_integer_values(self):
        with pytest.raises(InvalidInput):
            interpolate([1, Fraction(1, 2)])

    def test_zero(self):
        zero = interpolate([0, 0, 0])
        assert zero.degree == NEG_INF
        assert zero == IntPolynomial() and zero == interpolate([0])

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=6))
    def test_reproduces_polynomial(self, coeffs):
        p = IntPolynomial(coeffs)
        nodes = range(len(coeffs))
        assert interpolate([p(n) for n in nodes]) == p

    @given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=8))
    def test_evaluates_binomial_expansion(self, values):
        L = interpolate(values)
        assert L.values == tuple(values)
        for n in range(-10, 11):
            assert L(n) == sum(delta * binomial(n, k) for k, delta in enumerate(L.differences))


class TestExtrapolate:
    def test_squares(self):
        assert extrapolate([1, 4, 9], 4) == [1, 4, 9, 16, 25, 36, 49]
        assert extrapolate((5,), 2) == [5, 5, 5]
        assert extrapolate([1, 4, 9], 0) == [1, 4, 9]

    def test_read_backwards_it_reaches_negative_n(self):
        # C(n + 1, 2) at n = 3, 2, 1, 0, then at n = -1, ..., -4
        assert extrapolate([6, 3, 1, 0], 4) == [6, 3, 1, 0, 0, 1, 3, 6]

    @given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=8), st.integers(0, 9))
    def test_agrees_with_the_interpolant(self, values, count):
        L = interpolate(values)
        assert extrapolate(values, count) == [L(n) for n in range(len(values) + count)]


class TestCountingEquality:
    """CountingPolynomial and IntPolynomial compare as polynomials in n."""

    def test_both_directions(self):
        L = interpolate([0, 0, 2, 6])  # n(n-1), one spare node
        p = IntPolynomial([0, -1, 1])
        assert L == p and p == L
        assert not (L != p) and not (p != L)

    def test_differ_in_both_directions(self):
        L = interpolate([0, 0, 2])
        for other in (IntPolynomial([0, -1, 2]), IntPolynomial([0, -1, 1, 1]), IntPolynomial()):
            assert L != other and other != L

    def test_trailing_nodes_do_not_matter(self):
        assert interpolate([1, 2]) == interpolate([1, 2, 3, 4])
        assert interpolate([1, 2]) != interpolate([1, 2, 4])

    def test_not_equal_to_other_types(self):
        assert interpolate([3]) != 3
        assert interpolate([3]) != "3"

    @given(
        st.lists(st.integers(-20, 20), max_size=6),
        st.lists(st.integers(-20, 20), max_size=6),
        st.integers(0, 3),
    )
    def test_matches_coefficient_equality(self, a, b, spare):
        p, q = IntPolynomial(a), IntPolynomial(b)
        top = max(len(a), len(b)) + spare
        L = interpolate([p(n) for n in range(top + 1)])
        assert (L == q) == (p == q) == (q == L)
        assert isinstance(L, CountingPolynomial)


class TestSeriesNumerator:
    def test_unit_segment(self):
        assert series_numerator(interpolate([1, 2]), 1).coeffs == (1,)
        assert series_numerator(IntPolynomial([1, 1]), 1).coeffs == (1,)

    def test_leg2_triangle(self):
        counts = [triangle_points(n) for n in (0, 1, 2)]
        L = interpolate(counts)
        assert series_numerator(L, 2).coeffs == (1, 3)

    def test_k3_chromatic(self):
        # chi_{K3}(n) = n(n-1)(n-2); h_3 = chi(3) - 4 chi(2) + 6 chi(1) - 4 chi(0)
        chi = IntPolynomial([0, 2, -3, 1])
        values = [chi(n) for n in range(4)]
        assert values == [0, 0, 0, 6]
        assert values[3] - 4 * values[2] + 6 * values[1] - 4 * values[0] == 6
        assert series_numerator(chi, 3).coeffs == (0, 0, 0, 6)
        assert series_numerator(interpolate(values), 3).coeffs == (0, 0, 0, 6)

    def test_rejects_high_degree(self):
        with pytest.raises(InvalidInput):
            series_numerator(IntPolynomial([0, 0, 1]), 1)
        with pytest.raises(InvalidInput):
            series_numerator(interpolate([0, 1, 4]), 1)

    def test_rejects_non_integer_valued(self):
        # non-integer values are refused on entry to the integer domain
        with pytest.raises(InvalidInput):
            series_numerator(interpolate([Fraction(1, 3)]), 0)

    @given(
        st.lists(st.integers(-20, 20), min_size=1, max_size=5),
        st.integers(0, 3),
        st.integers(0, 6),
    )
    def test_matches_direct_convolution(self, coeffs, extra, spare):
        # h_j = sum_i (-1)^i C(d+1, i) L(j-i), with L evaluated by Horner
        p = IntPolynomial(coeffs)
        d = len(coeffs) - 1 + extra
        direct = IntPolynomial(
            [
                sum((-1) ** i * comb(d + 1, i) * p(j - i) for i in range(j + 1))
                for j in range(d + 1)
            ]
        )
        assert series_numerator(p, d) == direct
        # value tables from just enough for p's degree to more than d + 1
        held = interpolate([p(n) for n in range(len(coeffs) + spare)])
        assert series_numerator(held, d) == direct


class TestExpandSeries:
    def test_one_over_one_minus_z_squared(self):
        assert expand_series(IntPolynomial([1]), 1, 3) == [1, 2, 3, 4]

    def test_triangle_interior(self):
        expected = [triangle_points(n, interior=True) for n in range(4)]
        assert expected == [0, 0, 3, 10]
        assert expand_series(IntPolynomial([0, 0, 3, 1]), 2, 3) == expected

    def test_k2_chromatic_series(self):
        # chi_{K2}(n) = n(n-1) expands 2z^2/(1-z)^3
        expected = [n * (n - 1) for n in range(5)]
        assert expected == [0, 0, 2, 6, 12]
        assert expand_series(IntPolynomial([0, 0, 2]), 2, 4) == expected

    def test_zero(self):
        assert expand_series(IntPolynomial(), 3, 4) == [0] * 5

    @given(
        st.lists(st.integers(-6, 6), min_size=1, max_size=5),
        st.integers(0, 3),
    )
    def test_round_trip_with_numerator(self, basis_coeffs, extra):
        # integer-valued L of degree <= d from the binomial basis C(n+d-j, d)
        d = len(basis_coeffs) - 1 + extra
        values = [
            sum(c * comb(n + d - j, d) for j, c in enumerate(basis_coeffs))
            for n in range(d + 4)
        ]
        L = interpolate(values[: d + 1])
        h = series_numerator(L, d)
        assert expand_series(h, d, d + 3) == values


def h_to_f(h: IntPolynomial, d: int) -> IntPolynomial:
    """Inverse substitution f(z) = (1+z)^{d+1} h(z/(1+z)), test-side oracle."""
    out = [0] * (d + 2)
    for k, hk in enumerate(h.coeffs):
        for i in range(d + 2 - k):
            out[k + i] += hk * comb(d + 1 - k, i)
    return IntPolynomial(out)


class TestFToH:
    def test_unimodular_triangle(self):
        assert f_to_h(IntPolynomial([1, 3, 3, 1]), 2).coeffs == (1,)

    def test_split_square(self):
        assert f_to_h(IntPolynomial([1, 4, 5, 2]), 2).coeffs == (1, 1)

    def test_point(self):
        assert f_to_h(IntPolynomial([1, 1]), 0).coeffs == (1,)

    def test_rejects_bad_constant_term(self):
        with pytest.raises(InvalidInput):
            f_to_h(IntPolynomial([2, 1]), 2)

    def test_rejects_high_degree(self):
        with pytest.raises(InvalidInput):
            f_to_h(IntPolynomial([1, 0, 0, 0, 1]), 2)

    @given(
        st.lists(st.integers(-10, 10), max_size=5),
        st.integers(0, 3),
    )
    def test_round_trip(self, tail, extra):
        f = IntPolynomial([1] + tail)
        d = max(len(tail) - 1, 0) + extra
        assert h_to_f(f_to_h(f, d), d) == f
