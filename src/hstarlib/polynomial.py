"""Exact integer polynomials and the series transforms built on them.

One domain, Python ints (arbitrary precision).  Numerator polynomials in z
(h*, h_G and their splits) are :class:`IntPolynomial` coefficient lists.
Counting polynomials in n (Ehrhart, order, chromatic via orientations) are
:class:`CountingPolynomial` value tables at n = 0..d, the form in which the
counts arrive.  Nothing here touches rationals or floating point.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import index, mul, sub
from typing import Iterable, Sequence

from .errors import InvalidInput

#: Degree of the zero polynomial.  Compares below every integer, so
#: preconditions of the form ``degree(p) <= D`` hold vacuously for zero.
NEG_INF = float("-inf")


class IntPolynomial:
    """Polynomial with integer coefficients, stored densely ascending.

    Trailing zeros are trimmed at construction; the zero polynomial has
    empty ``coeffs`` and degree ``NEG_INF``.  Instances are immutable and
    hashable.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cleaned = []
        for c in coeffs:
            try:
                cleaned.append(index(c))
            except TypeError:
                raise InvalidInput(f"integer coefficient expected, got {c!r}") from None
        while cleaned and not cleaned[-1]:
            cleaned.pop()
        self._coeffs = tuple(cleaned)

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def degree(self):
        """Degree, or ``NEG_INF`` for the zero polynomial."""
        return len(self._coeffs) - 1 if self._coeffs else NEG_INF

    def __getitem__(self, i: int) -> int:
        if i < 0:
            raise IndexError("negative coefficient index")
        return self._coeffs[i] if i < len(self._coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, IntPolynomial):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self._coeffs])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __call__(self, x):
        """Evaluate by Horner."""
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def shift(self, k: int) -> "IntPolynomial":
        """Multiply by z^k (k >= 0)."""
        return IntPolynomial([0] * k + list(self._coeffs))

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self._coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self._coeffs)!r})"


class CountingPolynomial:
    """Integer-valued polynomial L in n, held by its values L(0), ..., L(d)
    and their forward differences Delta^k L(0).

    The differences are L's coordinates in the binomial basis,
    L(n) = sum_k Delta^k L(0) C(n, k), and are integers because the values
    are (Stanley, EC1 1.9).  So L evaluates exactly at every integer n,
    negative n included, without leaving the integers.  Built by
    :func:`interpolate`.
    """

    __slots__ = ("values", "differences")

    def __init__(self, values: tuple[int, ...], differences: tuple[int, ...]) -> None:
        self.values = values
        self.differences = differences

    @property
    def degree(self):
        """Degree, or ``NEG_INF`` for the zero polynomial."""
        nonzero = [k for k, delta in enumerate(self.differences) if delta]
        return nonzero[-1] if nonzero else NEG_INF

    def __call__(self, n: int) -> int:
        """L(n) for any integer n.

        C(n, k+1) = C(n, k) (n - k) / (k + 1) is an integer for every integer
        n, so each floor division below is exact.
        """
        if 0 <= n < len(self.values):
            return self.values[n]
        total = 0
        binom = 1  # C(n, k)
        for k, delta in enumerate(self.differences):
            total += delta * binom
            binom = binom * (n - k) // (k + 1)
        return total

    def __eq__(self, other) -> bool:
        """Equality as polynomials in n, also against an IntPolynomial."""
        if not isinstance(other, (CountingPolynomial, IntPolynomial)):
            return NotImplemented
        top = self.degree
        if other.degree != top:
            return False
        # two polynomials of degree top agreeing at top + 1 points are equal
        return top == NEG_INF or all(self(n) == other(n) for n in range(top + 1))

    def __repr__(self) -> str:
        return f"CountingPolynomial(values={list(self.values)!r})"


# ---------------------------------------------------------------------------
# series transforms


def reverse(p: IntPolynomial, D: int) -> IntPolynomial:
    """Coefficient reversal q(z) = z^D * p(1/z), i.e. q_i = p_{D-i}.

    Requires degree(p) <= D; the zero polynomial reverses to itself.
    """
    if D < 0:
        raise InvalidInput("reversal degree must be nonnegative")
    if p.degree > D:
        raise InvalidInput(f"cannot reverse degree {p.degree} into degree {D}")
    return IntPolynomial([p[D - i] for i in range(D + 1)])


def interpolate(values: Sequence[int]) -> CountingPolynomial:
    """The polynomial of degree < len(values) taking ``values[n]`` at n = 0, 1, ....

    The values must be integers (read through ``operator.index``); their
    forward differences are read off the difference table.
    """
    try:
        values = tuple(map(index, values))
    except TypeError:
        raise InvalidInput(f"integer values expected, got {list(values)!r}") from None
    if not values:
        raise InvalidInput("interpolation needs at least one value")
    differences = []
    row = values
    while row:
        differences.append(row[0])
        row = list(map(sub, row[1:], row))
    return CountingPolynomial(values, tuple(differences))


def extrapolate(values: Sequence[int], count: int) -> list[int]:
    """``values`` (nonempty) and the next ``count`` values of the polynomial
    of degree < k = len(values) through them: each new value is fixed by the
    k before it, as the k-th difference is zero, sum_i (-1)^i C(k, i) v_i = 0."""
    out, k = list(values), len(values)
    signed = _signed_binomials(k - 1)  # (-1)^i C(k, i), i < k
    for _ in range(count):
        step = sum(map(mul, signed, out[-k:]))
        out.append(step if k % 2 else -step)
    return out


@lru_cache(maxsize=64)
def _signed_binomials(d: int) -> tuple[int, ...]:
    return tuple((-1) ** i * comb(d + 1, i) for i in range(d + 1))


def _numerator_coeffs(values: Sequence[int]) -> list[int]:
    """h_j = sum_{i=0..j} (-1)^i C(d+1, i) values[j-i], j = 0..d = len(values) - 1."""
    d = len(values) - 1
    signed = _signed_binomials(d)
    return [sum(map(mul, signed, values[j::-1])) for j in range(d + 1)]


def series_numerator(L: CountingPolynomial | IntPolynomial, d: int) -> IntPolynomial:
    """Numerator h with sum_{n>=0} L(n) z^n = h(z) / (1-z)^{d+1}.

    Read off L(0..d) as the box route of ``ehrhart.h_star`` reads its
    counts; requires degree(L) <= d.
    """
    if d < 0:
        raise InvalidInput("d must be nonnegative")
    if L.degree > d:
        raise InvalidInput(f"degree {L.degree} exceeds ambient d = {d}")
    return IntPolynomial(_numerator_coeffs([L(n) for n in range(d + 1)]))


def expand_series(h: IntPolynomial, d: int, N: int) -> list[int]:
    """First N+1 power-series coefficients of h(z) / (1-z)^{d+1}.

    Inverse of :func:`series_numerator`: coefficient n is
    sum_j h_j * C(n - j + d, d) over j <= min(n, deg h).
    """
    if d < 0 or N < 0:
        raise InvalidInput("d and N must be nonnegative")
    out = []
    top = len(h.coeffs)
    for n in range(N + 1):
        out.append(sum(h[j] * comb(n - j + d, d) for j in range(min(n, top - 1) + 1)))
    return out


def f_to_h(f: IntPolynomial, d: int) -> IntPolynomial:
    """h(z) = (1-z)^{d+1} f(z/(1-z)), expanded exactly.

    This turns the face-count polynomial of a unimodular triangulation of a
    d-polytope into its h-polynomial.  Requires f_0 = 1 (the empty face) and
    degree(f) <= d+1.
    """
    if f[0] != 1:
        raise InvalidInput("face polynomial must have constant term 1")
    if f.degree > d + 1:
        raise InvalidInput(f"degree {f.degree} exceeds d + 1 = {d + 1}")
    # (1-z)^{d+1} f(z/(1-z)) = sum_i f_i z^i (1-z)^{d+1-i}
    out = [0] * (d + 2)
    for i, fi in enumerate(f.coeffs):
        if fi == 0:
            continue
        m = d + 1 - i
        term = fi  # fi (-1)^k C(m, k)
        for k in range(m + 1):
            out[i + k] += term
            term = -term * (m - k) // (k + 1)
    return IntPolynomial(out)
