"""Symmetric decompositions of h*-type numerator polynomials.

Every nonzero polynomial h of degree s <= d splits uniquely, with
l = d + 1 - s, as

    (1 + z + ... + z^{l-1}) h(z) = a(z) + z^l b(z)

where a is palindromic about d and b about s - 1.  The closed coefficient
formulas are partial-sum differences of the h_j, so everything here is
integer arithmetic.  On polytopal input both parts are nonnegative; the
derived decompositions below (open polytope, order polytope, chromatic
series) inherit their sign behavior from that fact; the order split is
the open split one dimension down, relabelled.  Nothing here asserts
signs: a split is its parts (a, b), since s and l follow from h and d, an
inequality line is (i, -a_i) of the Theorem 1.3 or Conjecture 6.1 split,
holding when the value is nonnegative, and callers read the verdicts off
them.  The chromatic series is built over acyclic orientations in one
place, ``_orientation_sum``, from ``graph._orientation_tally``, and checked
there against deletion-contraction, behind the sweep whose charged
orientations bound it; ``graph`` memoises its (d, edges) subproblems for
the whole run, so a pass pays once per distinct one.  The tally transforms
one orientation of each reversal pair and doubles its class counts, since
an orientation poset and its dual have one order polynomial.  The split of
z h_G is its direct split, the sum of its classes' order splits, which the
harness checks by thm1.2 on each class's h* (Theorem 1.2 gives 1.3).

Every value-only result the harness reads and the orientation route
repeats is memoised for the whole run in one bounded ``lru_cache``,
:func:`_memo`, keyed on the function and its arguments: the harness's
numerator-only verdicts by (h, d), thm1.2's for orientation classes too,
reciprocity's series expansion, each class's h* by its map counts, chi's
series numerator by (chi, d) and the splits of h_G and z h_G.  Every
cross-route check and every charge against the budget in force runs
outside it, on every call; the charges made on a miss only, allocations,
are held to the default budget, so no refusal depends on what the memo
holds.  The public functions stay uncached: a direct call computes its
value, and a miss reaches the split through this module.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate, zip_longest
from operator import add
from typing import Literal, NamedTuple

from .ehrhart import _checked_h_star
from .errors import InternalConsistencyError, InvalidInput
from .graph import Graph, _orientation_tally, chromatic_polynomial
from .polynomial import IntPolynomial, series_numerator


class SymmetricDecomposition(NamedTuple):
    """Result of splitting (1 + ... + z^{l-1}) h into a + z^l b, with
    l = d + 1 - deg h at ambient degree d."""

    a: IntPolynomial
    b: IntPolynomial


def ab_decompose(h: IntPolynomial, d: int) -> SymmetricDecomposition:
    """Unique symmetric split of (1 + ... + z^{l-1}) h, no sign constraint.

    Coefficients come from the closed partial-sum formulas
    a_i = h_0 + ... + h_i - h_d - ... - h_{d-i+1} and
    b_i = -h_0 - ... - h_i + h_s + ... + h_{s-i}, read off one prefix-sum
    array of h in O(d), and verified as lists: palindromes by reversal, and
    a + z^l b against (1 + ... + z^{l-1}) h summed from h's coefficients.
    """
    if not h:
        raise InvalidInput("cannot decompose the zero polynomial")
    a, b = _checked_a(h, d), _b_coeffs(h.coeffs)
    s = h.degree
    l = d + 1 - s
    dec = SymmetricDecomposition(IntPolynomial(a), IntPolynomial(b))
    if b != b[::-1]:
        raise InternalConsistencyError(f"b = {dec.b.coeffs} is not symmetric about {s - 1}")
    multiplied = [sum(h.coeffs[max(k - l + 1, 0) : k + 1]) for k in range(d + 1)]
    if len(a) != l + len(b) or list(map(add, a, [0] * l + b)) != multiplied:
        raise InternalConsistencyError(
            f"reconstruction failed: a + z^{l} b != (1+...+z^{l - 1}) h for h = {h.coeffs}"
        )
    return dec


def _a_coeffs(h: tuple[int, ...], d: int) -> list[int]:
    """The closed formula for a, as d + 1 coefficients, for deg h <= d."""
    # prefix[k] = h_0 + ... + h_{k-1}, which is h(1) for every k > deg h
    prefix = list(accumulate(h + (0,) * (d + 1 - len(h)), initial=0))
    return [prefix[i + 1] - prefix[-1] + prefix[d - i + 1] for i in range(d + 1)]


def _b_coeffs(h: tuple[int, ...]) -> list[int]:
    """The closed formula for b, as s = deg h coefficients."""
    s, prefix = len(h) - 1, list(accumulate(h, initial=0))
    return [prefix[-1] - prefix[s - i] - prefix[i + 1] for i in range(s)]


def _check_polytopal(hstar: IntPolynomial) -> None:
    if hstar[0] != 1:
        raise InvalidInput("h* must have constant term 1")
    if not hstar.is_nonnegative():
        raise InvalidInput("h* must have nonnegative coefficients")


def _checked_a(h: IntPolynomial, d: int) -> list[int]:
    """``_a_coeffs`` of h at ambient degree d, after the degree guard,
    checked palindromic about d; the b formula is not evaluated."""
    if h.degree > d:
        raise InvalidInput(f"degree {h.degree} exceeds ambient degree {d}")
    a = _a_coeffs(h.coeffs, d)
    if a != a[::-1]:
        raise InternalConsistencyError(f"a = {IntPolynomial(a).coeffs} is not symmetric about {d}")
    return a


def _a_part(h: IntPolynomial, d: int) -> IntPolynomial:
    """The a-part alone, for the derived splits, which drop the b-part."""
    return IntPolynomial(_checked_a(h, d))


def stapledon_pair(hstar: IntPolynomial, d: int) -> SymmetricDecomposition:
    """The a/b split of (1 + ... + z^{l-1}) h*, nonnegative for polytopal h*."""
    _check_polytopal(hstar)
    return ab_decompose(hstar, d)


def open_decomposition(hstar: IntPolynomial, d: int) -> tuple[IntPolynomial, IntPolynomial]:
    """Split the open-polytope numerator as a difference a_P - b_P.

    a_P is the a-part of the split at ambient degree d + 1 (the pyramid over
    the polytope has the same h*), b_P the a-part at ambient degree d; their
    difference, checked on coefficient lists, is exactly the reversed
    numerator, and both are nonnegative for polytopal input.
    """
    _check_polytopal(hstar)
    a_p = _a_part(hstar, d + 1)
    b_p = _a_part(hstar, d)
    difference = [x - y for x, y in zip_longest(a_p.coeffs, b_p.coeffs, fillvalue=0)]
    if difference[::-1] != [*hstar.coeffs, *[0] * (d + 1 - hstar.degree)]:
        raise InternalConsistencyError(
            f"a_P - b_P does not reverse h* = {hstar.coeffs} at d = {d}"
        )
    return a_p, b_p


def order_decomposition(hstar: IntPolynomial, d: int) -> tuple[IntPolynomial, IntPolynomial]:
    """Split the open order-polytope numerator as a_Pi + z b_Pi.

    An order-polytope h* has degree at most d - 1, as the projected
    polytope of the same h* is one dimension lower, so this is the open
    split at d - 1 relabelled: b_Pi = a_P, the a-part at ambient d, and
    a_Pi = -z b_P, -z times the a-part at ambient d - 1.  Its check, that
    a_P - b_P reverses h* at d - 1, is a_Pi + z b_Pi reversing it at d,
    shifted by z.  For d = 0 the numerator is z and a_Pi = 0.
    """
    if d == 0:
        if hstar != IntPolynomial([1]):
            raise InvalidInput("the only 0-dimensional order polytope has h* = 1")
        return IntPolynomial(), IntPolynomial([1])
    if hstar.degree > d - 1:
        raise InvalidInput(
            f"h* of degree {hstar.degree} cannot come from a d = {d} order polytope"
        )
    a_p, b_p = open_decomposition(hstar, d - 1)
    return -(b_p.shift(1)), a_p


@lru_cache(maxsize=5 << 12)
def _memo(fn, *args):
    """``fn(*args)``, computed once per distinct (fn, args) in a run.

    A miss runs the whole function, every reconstruction check of its
    split included, so a stored value is the one recomputing would give; an
    exception (``InvalidInput``, ``BudgetExceeded``, the harness deadline's
    ``_TimeUp``) is never stored and is raised again on every call.  Callers
    name ``fn`` through its module attribute, so a rebound function is the
    one that runs and the key its values are stored under.
    """
    return fn(*args)


# ---------------------------------------------------------------------------
# chromatic series


def _orientation_sum(graph: Graph) -> tuple[Counter[tuple[int, ...]], IntPolynomial]:
    """The orientation route to z h_G, checked against deletion-contraction.

    One sweep, ``graph._orientation_tally``, tallies the weak map count
    vectors at n = 0..d + 1; each distinct vector is one orientation class,
    whose checked h* reversed at degree d + 1 is its open numerator, and
    z h_G is their sum weighted by the tallies.  Returns the tally and
    z h_G.  Disagreement with the series numerator of the chromatic
    polynomial, shifted by z, would be a bug in this library, not a
    property of the graph; agreement bounds each class's h* to degree
    d - 1, as the z coefficient is the tallied sum of the h*_d >= 0 and
    chi(0) = 0 for d >= 1.  The
    sweep charges itself, so deletion-contraction runs only once the budget
    has passed it.

    The map counts, class h* and chi's series numerator come from run-wide
    caches; the sweep, its charges, chi and the comparison always run.
    """
    d = graph.d
    tally = _orientation_tally(graph)
    total = [0] * (d + 2)
    for counts, k in tally.items():
        for j, c in enumerate(_memo(_checked_h_star, counts[1:]).coeffs):
            total[d + 1 - j] += k * c
    zh = IntPolynomial(total)
    direct = _memo(series_numerator, chromatic_polynomial(graph), d)
    if zh != direct.shift(1):
        raise InternalConsistencyError(
            f"chromatic route z * {direct.coeffs} != orientation route "
            f"{zh.coeffs} for {graph!r}"
        )
    return tally, zh


def graph_numerator(graph: Graph) -> IntPolynomial:
    """Numerator h_G of sum_n chi_G(n) z^n over (1-z)^{d+1}.

    The sum over acyclic orientations of the reversed order-polytope
    numerators, divided by z; ``_orientation_sum`` has already checked it
    against the series numerator of the chromatic polynomial.
    """
    _, zh = _orientation_sum(graph)
    return IntPolynomial(zh.coeffs[1:])


def graph_decomposition(graph: Graph) -> tuple[IntPolynomial, IntPolynomial]:
    """Split z h_G as a + z b: the direct split ``ab_decompose(z h_G, d + 1)``.

    z h_G comes from ``_orientation_sum``, checked against
    deletion-contraction, and is split uncached: ``hstar decompose graph``
    and demo 03 split one graph each, and the harness's thm1.3 and thm1.4
    read the same split from :func:`_memo`.  The split's own verification
    covers the rest: z h_G has degree d + 1 (its top coefficient counts the
    acyclic orientations, at least one), so l = 1, s = d + 1, and
    a + z b = z h_G with a palindromic about d + 1 and b about d.  The
    split is unique and linear in z h_G, so it is the sum over orientations
    of their order decompositions (Theorem 1.2), and b and -a are
    nonnegative for every graph.
    """
    _, zh = _orientation_sum(graph)
    return ab_decompose(zh, graph.d + 1)


class InequalityLine(NamedTuple):
    i: int
    value: int


def inequality_report(
    h: IntPolynomial, d: int, mode: Literal["theorem4", "conjecture64"]
) -> list[InequalityLine]:
    """Partial-sum inequalities satisfied (or conjectured) by chromatic numerators.

    Each line is (i, -a_i) of a split: theorem4 reads i = 1..floor((d+1)/2)
    off Theorem 1.3's split of z h at ambient d + 1, conjecture64 reads
    i = 1..floor(d/2) off Conjecture 6.1's split of h at ambient d.  The
    inequality holds when ``line.value >= 0``.  Demo 03 and perfbench call
    it; the harness reads -a_i off its memoised splits.
    """
    if h.degree > d:
        raise InvalidInput(f"degree {h.degree} exceeds ambient degree {d}")
    if mode not in ("theorem4", "conjecture64"):
        raise InvalidInput(f"unknown inequality mode {mode!r}")
    if mode == "theorem4":
        h, d = h.shift(1), d + 1
    a = _checked_a(h, d)
    return [InequalityLine(i, -a[i]) for i in range(1, d // 2 + 1)]
