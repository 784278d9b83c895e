"""Lattice-point counting and h*-extraction for the supported polytope classes.

Three kinds of polytope are supported: order polytopes of posets (counted
combinatorially through order-preserving maps, never through geometry),
bounded H-representation polytopes, and lattice simplices, which are
H-polytopes cut out by their barycentric inequalities (the rows of an
integer adjugate) inside their vertices' bounding box.  H-polytopes are
counted by one lattice-box walker over integer rows, which counts each line
of the box along the last coordinate by floor division.
A simplex's h* comes from the |det| lattice points of its half-open
fundamental parallelepiped, read off as residue vectors modulo |det|, each
packed into one int, with no box walked.  The box route is every other
H-polytope's h*, and the simplices' second one: for a full-dimensional
d-polytope, Ehrhart-Macdonald reciprocity L(-n) = (-1)^d L_{P°}(n) turns
the closed counts at n = 0..ceil(d/2) and the interior counts at
n = 1..floor(d/2) into L(0..d).  A simplex is full-dimensional by
construction; an H-polytope is certified full-dimensional by a positive
interior count, and without one it walks every closed dilate n = 0..d.
Counts, boxes, Ehrhart polynomials and h* are integer arithmetic: an
H-polytope given without a box gets its vertices' box, each vertex read
off a d-row basis of its inequalities by the same integer adjugate.
Polytope files (``simplex``, ``hrep``, ``order``) are read and written by
the shared text-format reader and writer of :mod:`.poset`.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, gcd, prod
from operator import mul
from pathlib import Path
from typing import Sequence

from .budget import charge
from .errors import InternalConsistencyError, InvalidInput
from .polynomial import (
    CountingPolynomial, IntPolynomial, _numerator_coeffs, extrapolate, interpolate, reverse
)
from .poset import (
    Poset, TextFormat, integer, natural, order_map_counts, read_file, read_text, write_text
)


def _adjugate(matrix: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """(D, R) with matrix @ R = D * I, D = |det| and R = sign(det) adj, by
    fraction-free (Bareiss) Gauss-Jordan elimination; D = 0 when singular.

    Every division is exact, so everything stays integral.  The identity
    is re-checked on the result.
    """
    n = len(matrix)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return 0, []
        a[col], a[pivot] = a[pivot], a[col]
        p = a[col][col]
        for r in range(n):
            if r != col:
                f = a[r][col]
                a[r] = [(p * x - f * y) // prev for x, y in zip(a[r], a[col])]
        prev = p
    sign, prev = (1, prev) if prev > 0 else (-1, -prev)
    adj = [[sign * c for c in row[n:]] for row in a]
    for i, row in enumerate(matrix):
        for j, column in enumerate(zip(*adj)):
            if sum(map(mul, row, column)) != (prev if i == j else 0):
                raise InternalConsistencyError("fraction-free elimination broke A R = |det| I")
    return prev, adj


def _ratio(c: int, q: int) -> str:
    """c / q in lowest terms, for q > 0: ``3/2``, or ``2`` when q divides c."""
    g = gcd(c, q)
    return f"{c // g}" if g == q else f"{c // g}/{q // g}"


def _count_box(rows: Sequence[tuple[Sequence[int], int]], lo: list[int], hi: list[int]) -> int:
    """Number of integer x with lo <= x <= hi and normal . x <= limit for
    every (normal, limit) in rows.

    The whole box volume is charged to the budget, the work of testing
    every box point, although the walk is cheaper: each row's limit less
    its partial sum is carried down the first d - 1 coordinates, and at
    each of their points floor division by each row's last coefficient
    narrows the last coordinate to one interval.
    Each call charges only its own box, so a budget bounds one walk, not
    the sum over the dilates that ``_closed_counts`` walks.
    An interior count passes strict faces: limit - 1 on every row, and box
    faces moved one step inwards, which is right for any box containing the
    polytope, since an interior point of P is interior to such a box.
    """
    if any(a > b for a, b in zip(lo, hi)):
        return 0
    charge(prod(b - a + 1 for a, b in zip(lo, hi)), "bounding-box enumeration")
    columns, last = [[normal[i] for normal, _ in rows] for i in range(len(lo))], len(lo) - 1

    def walk(level: int, rests: list[int]) -> int:  # each limit less its row's sum so far
        if level < last:
            column, steps = columns[level], range(lo[level], hi[level] + 1)
            return sum(walk(level + 1, [r - a * x for r, a in zip(rests, column)]) for x in steps)
        low, high = lo[-1], hi[-1]
        for rest, c in zip(rests, columns[-1]):
            if c > 0:
                high = min(high, rest // c)
            elif c < 0:
                low = max(low, -(rest // -c))
            elif rest < 0:
                return 0
            if low > high:
                return 0
        return high - low + 1

    return walk(0, [limit for _, limit in rows])


class OrderPolytope:
    """The order polytope of a poset: 0 <= x_i <= 1, x_i <= x_j for p_i < p_j.

    Counting never enumerates boxes: closed dilate counts are weak
    order-preserving maps into {0..n}, interior counts are strict maps into
    {1..n-1}, both read off the order-ideal lattice.
    """

    __slots__ = ("poset",)

    def __init__(self, poset: Poset) -> None:
        self.poset = poset

    @property
    def d(self) -> int:
        return self.poset.d

    def count_series(self, n_max: int, interior: bool = False) -> list[int]:
        n_max = natural(n_max)
        if interior:
            # count at n is Omega°(n-1); the n = 0 entry is 0 by the
            # open-series convention
            strict = order_map_counts(self.poset, max(n_max - 1, 0), True)
            return [0] + strict[: n_max]
        weak = order_map_counts(self.poset, n_max + 1, False)
        return weak[1:]

    def count_points(self, n: int, interior: bool = False) -> int:
        return self.count_series(n, interior)[n]

    def __repr__(self) -> str:
        return f"OrderPolytope({self.poset!r})"


class HRepPolytope:
    """Bounded polytope {x : a.x <= b for all rows}, declared dimension d.

    Without a user-supplied box, the vertices are found and the box is
    their range rounded outwards (:meth:`_derive_box`); unbounded or empty
    input is rejected, and a vertex that is not a lattice point is kept as
    ``non_lattice``.  A user box is a constraint like the rows: the
    polytope counted is the part of {a.x <= b} inside it, closed and
    interior, and no vertex is looked for.  Every box is held as integers.
    The declared dimension is trusted but sanity-checked downstream: a
    full-dimensional polytope must produce an Ehrhart polynomial of degree
    exactly d, and a flat one is InvalidInput.
    """

    __slots__ = ("inequalities", "d", "box", "user_box", "non_lattice")

    def __init__(
        self,
        inequalities: Sequence[tuple[Sequence[int], int]],
        d: int,
        box: tuple[Sequence[int], Sequence[int]] | None = None,
    ) -> None:
        d = integer(d)
        if d < 1:
            raise InvalidInput("HRep dimension must be at least 1")
        self.d = d
        rows = []
        for normal, bound in inequalities:
            normal = tuple(map(integer, normal))
            if len(normal) != d:
                raise InvalidInput("normal vector of wrong dimension")
            rows.append((normal, integer(bound)))
        self.inequalities: tuple[tuple[tuple[int, ...], int], ...] = tuple(rows)
        self.non_lattice: str | None = None
        if box is not None:
            lo, hi = box
            if len(lo) != d or len(hi) != d:
                raise InvalidInput("box must give d lower and d upper bounds")
            self.user_box = self.box = (tuple(map(integer, lo)), tuple(map(integer, hi)))
            if any(l > h for l, h in zip(*self.box)):
                raise InvalidInput("empty bounding box; polytope has no points")
        else:
            self.user_box = None
            self.box = self._derive_box()

    def _derive_box(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The vertex box, from one pass over the d-row bases of the rows.

        A nonsingular basis S, with A_S R = D I and D > 0 (:func:`_adjugate`),
        gives D v = R b_S, a vertex if it satisfies every row.  The box is
        the vertices' range rounded outwards, and the first vertex with a
        coordinate D does not divide is ``non_lattice``.  By conic
        Caratheodory, +e_i (-e_i) is in the cone of the normals iff some
        basis has row i of R >= 0 (<= 0), and the system is bounded iff all
        2d of them are.  Unbounded or vertexless input is InvalidInput.  The
        work, C(m, d) d^3 for m rows, is charged first.
        """
        d = self.d
        rows = self.inequalities
        bases = comb(len(rows), d)
        charge(bases * d**3, f"vertex enumeration over {bases} bases")
        directions = set()
        vertices = []
        for basis in combinations(rows, d):
            det, adj = _adjugate([normal for normal, _ in basis])
            if not det:
                continue
            directions.update(i for i, row in enumerate(adj) if min(row) >= 0)
            directions.update(~i for i, row in enumerate(adj) if max(row) <= 0)
            point = [sum(c * bound for c, (_, bound) in zip(row, basis)) for row in adj]
            if all(sum(map(mul, normal, point)) <= det * bound for normal, bound in rows):
                vertices.append((point, det))
        if len(directions) < 2 * d:
            raise InvalidInput(
                "cannot derive a bounding box from the inequalities; "
                "supply an explicit box or check that the polytope is bounded"
            )
        if not vertices:
            raise InvalidInput("the inequalities have no common solution; the polytope is empty")
        for point, q in vertices:
            if any(c % q for c in point):
                self.non_lattice = f"({', '.join(_ratio(c, q) for c in point)})"
                break
        lo = tuple(min(point[i] // q for point, q in vertices) for i in range(d))
        hi = tuple(max(-(-point[i] // q) for point, q in vertices) for i in range(d))
        return lo, hi

    def count_points(self, n: int, interior: bool = False) -> int:
        n = natural(n)
        k = int(interior)
        rows = [(normal, n * bound - k) for normal, bound in self.inequalities]
        lo, hi = self.box
        return _count_box(rows, [n * a + k for a in lo], [n * b - k for b in hi])

    def to_text(self) -> str:
        rows = [(*normal, bound) for normal, bound in self.inequalities]
        if self.user_box is not None:
            rows.append(("box", *self.user_box[0], *self.user_box[1]))
        return write_text(("hrep", self.d, len(self.inequalities)), rows)

    def __repr__(self) -> str:
        return f"HRepPolytope(d={self.d}, rows={len(self.inequalities)})"


class Simplex(HRepPolytope):
    """Lattice simplex given by d+1 affinely independent vertices in Z^d.

    It is counted as the H-polytope of its barycentric inequalities: with A
    the (vertex | 1) matrix, x lies in n*P iff adj(A) @ (x, n) is
    coordinatewise >= 0 (> 0 for the interior), so each row of adj(A) is
    one integer inequality, inside the vertices' bounding box.  ``volume``
    is the normalized volume d! vol(P) = |det A|, and ``adjugate`` is
    :func:`_adjugate`'s sign(det A) adj(A), so A @ adjugate = volume * I.
    """

    __slots__ = ("vertices", "volume", "adjugate")

    def __init__(self, vertices: Sequence[Sequence[int]]) -> None:
        verts = tuple(tuple(map(integer, v)) for v in vertices)
        if not verts:
            raise InvalidInput("simplex needs vertices")
        d = len(verts[0])
        if d < 1:
            raise InvalidInput("simplex dimension must be at least 1")
        if any(len(v) != d for v in verts):
            raise InvalidInput("vertices of mixed dimension")
        if len(verts) != d + 1:
            raise InvalidInput(f"a {d}-simplex needs exactly {d + 1} vertices")
        self.vertices = verts
        a = [[verts[k][i] for k in range(d + 1)] for i in range(d)]
        a.append([1] * (d + 1))
        self.volume, adj = _adjugate(a)
        if self.volume == 0:
            raise InvalidInput("vertices are affinely dependent")
        # adjugate / volume is the inverse, so membership is integer sign
        # tests: adjugate @ (x, n) >= 0 is -adjugate[:d] . x <= adjugate[d] * n
        self.adjugate = tuple(map(tuple, adj))
        rows = [([-c for c in row[:d]], row[d]) for row in self.adjugate]
        columns = list(zip(*verts))
        super().__init__(rows, d, ([min(col) for col in columns], [max(col) for col in columns]))

    def to_text(self) -> str:
        return write_text(("simplex", self.d), self.vertices)

    def __repr__(self) -> str:
        return f"Simplex({list(self.vertices)!r})"


LatticePolytope = OrderPolytope | HRepPolytope


# ---------------------------------------------------------------------------
# counting operations


def _closed_counts(polytope: LatticePolytope) -> list[int]:
    """The closed counts L(0..d) of a d-polytope.

    A simplex (by its nonzero determinant), or any other H-polytope with an
    interior lattice point in a dilate n <= d // 2, is full-dimensional,
    so L(-n) = (-1)^d L_{P°}(n): it walks the closed dilates n <= d - d // 2
    and the open ones n <= d // 2 only, so the largest box walked, which the
    budget bounds, is the closed dilate at ceil(d/2), not at d.  Any other
    H-polytope walks every closed dilate.  Either walk's top forward
    difference, d! vol(P), read as one signed-binomial sum over its values,
    must be positive, or the declared dimension is wrong: InvalidInput.
    An H-polytope with a ``non_lattice`` vertex is InvalidInput.
    Unchecked, and so possibly given a wrong h*: H-polytopes with a user box.
    """
    d = polytope.d
    if isinstance(polytope, OrderPolytope):
        return polytope.count_series(d)
    if polytope.non_lattice is not None:
        raise InvalidInput(f"vertex {polytope.non_lattice} is not a lattice point")
    half = d // 2
    values = [polytope.count_points(n, True) for n in range(half, 0, -1)]
    if not isinstance(polytope, Simplex) and not any(values):
        half, values = 0, []
    if d % 2:
        values = [-v for v in values]
    values += [polytope.count_points(n) for n in range(d - half + 1)]
    # the d-th forward difference of values[n] = L(n - half)
    volume = sum((-1) ** (d - i) * comb(d, i) * v for i, v in enumerate(values))
    if volume <= 0:
        raise InvalidInput(
            f"normalized volume {volume} is not positive; "
            "declared dimension is wrong or the polytope is degenerate"
        )
    return extrapolate(values, half)[half:]


def _checked_h_star(counts: Sequence[int]) -> IntPolynomial:
    """h* from the closed counts of a d-polytope at n = 0..d.

    Checks h*_0 = 1 and h* >= 0, which hold for every lattice polytope and
    so imply a positive normalized volume h*(1).
    """
    h = _numerator_coeffs(counts)
    if h[0] != 1:
        raise InternalConsistencyError(f"h*_0 = {h[0]}, expected 1")
    if min(h) < 0:
        raise InternalConsistencyError(f"negative h* coefficient in {IntPolynomial(h).coeffs}")
    return IntPolynomial(h)


def ehrhart_polynomial(polytope: LatticePolytope) -> CountingPolynomial:
    """The Ehrhart polynomial, held by the closed dilate counts at n = 0..d.

    The counts pass the checks of :func:`_checked_h_star`, so the
    normalized volume h*(1), d! times the leading coefficient, is positive
    and the degree is exactly d.
    """
    counts = _closed_counts(polytope)
    _checked_h_star(counts)
    return interpolate(counts)


def _box_h_star(polytope: LatticePolytope) -> IntPolynomial:
    """h* as the series numerator of the closed counts at n = 0..d, with
    the h*_0 and sign checks of :func:`_checked_h_star`.

    A simplex's h*(1) is then checked against its determinant, a second
    route to the normalized volume.
    """
    hstar = _checked_h_star(_closed_counts(polytope))
    if isinstance(polytope, Simplex) and hstar(1) != polytope.volume:
        raise InternalConsistencyError(
            f"h*(1) = {hstar(1)} but the determinant gives normalized volume {polytope.volume}"
        )
    return hstar


def _coset_closure(generators: Sequence[int], modulus: int, width: int, n: int) -> set[int]:
    """The subgroup of (Z/modulus)^n generated by ``generators``, each
    vector one int of n fields of ``width`` bits, 2^(width - 1) > n modulus.

    Starting from {0}, each generator g not yet in the subgroup S extends it
    to the disjoint cosets S, S + g, ..., S + (t-1) g, where t g is the
    first multiple back in S; each element is built once.  A sum is reduced
    by adding 2^(width - 1) - modulus to every field, which sets the top bit
    of those that reached modulus, and subtracting modulus from each of them.
    """
    ones = ((1 << width * n) - 1) // ((1 << width) - 1)
    bias, high, top = ((1 << width - 1) - modulus) * ones, ones << width - 1, width - 1
    group = {0}
    for g in generators:
        shifts, step, g_bias = [], g, g + bias
        while step not in group:
            shifts.append(step)
            step += g - ((step + g_bias & high) >> top) * modulus
        group |= {x + m - ((x + m + bias & high) >> top) * modulus for m in shifts for x in group}
    return group


def _parallelepiped_h_star(simplex: Simplex) -> IntPolynomial:
    """h* of a lattice simplex from the half-open fundamental parallelepiped
    of its lifted vertices (Beck-Robins, Cor. 3.11).

    With A the (vertex | 1) matrix and D = |det A|, the lattice points
    A @ lam with 0 <= lam_i < 1 are one per class of Z^{d+1} / A Z^{d+1}, and
    h*_k counts those at height lam_0 + ... + lam_d = k.  x -> D A^{-1} x
    mod D maps that quotient onto the subgroup of (Z/D)^{d+1} generated by
    the columns of sign(det A) adj(A) mod D, so h*_k is the number of its
    elements whose residues sum to k D.  An element is one int of d + 1
    fields of b = bit_length((d + 1) D) + 1 bits, so its residue sum is the
    int mod 2^b - 1.  D is charged to the budget before the closure; the
    group order D, the divisibility of every residue sum by D and h*_0 = 1
    are checked.
    """
    big, n = simplex.volume, simplex.d + 1
    charge(big, "fundamental-parallelepiped enumeration")
    width = (n * big).bit_length() + 1
    generators = []
    for column in zip(*simplex.adjugate):
        g = 0
        for c in reversed(column):
            g = g << width | c % big
        generators.append(g)
    group = _coset_closure(generators, big, width, n)
    if len(group) != big:
        raise InternalConsistencyError(
            f"parallelepiped group has order {len(group)}, but |det| = {big}"
        )
    mask = (1 << width) - 1  # 2^width = 1 mod mask, so x mod mask sums the fields of x
    sums = [x % mask for x in group]
    h = [sums.count(k * big) for k in range(n)]
    if sum(h) != big:
        total = next(total for total in sums if total % big)
        raise InternalConsistencyError(f"residue sum {total} is not divisible by |det| = {big}")
    if h[0] != 1:
        raise InternalConsistencyError(f"h*_0 = {h[0]}, expected 1")
    return IntPolynomial(h)


def h_star(polytope: LatticePolytope) -> IntPolynomial:
    """h*-polynomial of a lattice polytope.

    A simplex's comes from its fundamental parallelepiped
    (:func:`_parallelepiped_h_star`), with no box walked.  Every other
    polytope's is the series numerator of its closed counts at n = 0..d
    (:func:`_box_h_star`), which stays the simplices' second route.
    """
    if isinstance(polytope, Simplex):
        return _parallelepiped_h_star(polytope)
    return _box_h_star(polytope)


def open_numerator(hstar: IntPolynomial, d: int) -> IntPolynomial:
    """Numerator of the interior-point series, by Ehrhart-Macdonald reciprocity.

    The reversal z^{d+1} h*(1/z); monic of degree d+1 since h*_0 = 1.
    """
    if hstar[0] != 1:
        raise InvalidInput("h* must have constant term 1")
    if hstar.degree > d:
        raise InvalidInput(f"degree {hstar.degree} exceeds ambient d = {d}")
    return reverse(hstar, d + 1)


# ---------------------------------------------------------------------------
# polytope file format


SIMPLEX_FORMAT = TextFormat("simplex <d>", lambda d: (d + 1, d))
HREP_FORMAT = TextFormat("hrep <d> <k>", lambda d, k: (k, d + 1), box=True)
ORDER_FORMAT = TextFormat("order <poset-file>", None)


def parse_polytope(text: str, base_dir: str | Path | None = None) -> LatticePolytope:
    """Parse the polytope file format.

    Either ``simplex <d>`` followed by d+1 vertex lines of d integers, or
    ``hrep <d> <k>`` followed by k inequality lines of d+1 integers (normal
    then bound) and an optional ``box`` line of 2d integers (d lows then d
    highs), or the single line ``order <poset-file>`` referencing a poset
    file, relative to ``base_dir`` unless absolute.
    """
    fmt, fields, rows, box = read_text(text, "polytope", SIMPLEX_FORMAT, HREP_FORMAT, ORDER_FORMAT)
    if fmt is SIMPLEX_FORMAT:
        return Simplex(rows)
    if fmt is HREP_FORMAT:
        d = fields[0]
        box = None if box is None else (box[:d], box[d:])
        return HRepPolytope([(r[:d], r[d]) for r in rows], d, box)
    return OrderPolytope(Poset.from_text(read_file(Path(base_dir or "", fields[0]), "poset")))


def load_polytope(path: str | Path) -> LatticePolytope:
    return parse_polytope(read_file(path, "polytope"), base_dir=Path(path).parent)
