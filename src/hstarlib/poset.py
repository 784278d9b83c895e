"""Finite posets: linear extensions, descents, order polynomials, ideal chains.

Elements are labeled 1..d.  Internally each element keeps bitmasks of the
elements strictly above and strictly below it (bit e-1 stands for element e),
so down-sets are ints.  Of the three h* routes, map counts and ideal chains
read :meth:`Poset.order_ideals`; the descent DP grows its own down-sets.

Every input file (posets, graphs and polytopes) is read by :func:`read_file`,
parsed by :func:`read_text` and written by :func:`write_text`; each format
is a :class:`TextFormat` kept next to the class it builds.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import accumulate, chain
from math import factorial
from operator import index
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .budget import charge
from .errors import InvalidInput
from .polynomial import CountingPolynomial, IntPolynomial, extrapolate, interpolate


def set_bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


class Poset:
    """Strict partial order on elements 1..d.

    Construction accepts any relation list (not necessarily covers),
    takes the transitive closure, and rejects cyclic input with a
    diagnostic naming one cycle.  The closure's d^2 steps are charged
    first.
    """

    __slots__ = ("d", "_above", "_below", "_ideals")

    def __init__(self, d: int, relations: Iterable[tuple[int, int]] = ()) -> None:
        d = natural(d, "poset size")
        charge(d * d, "transitive closure")
        self.d = d
        above: list[int] = [0] * d
        pairs = []
        for i, j in relations:
            i, j = integer(i), integer(j)
            if not (1 <= i <= d and 1 <= j <= d):
                raise InvalidInput(f"relation ({i}, {j}) out of range 1..{d}")
            if i == j:
                raise InvalidInput(f"reflexive relation ({i}, {i}) forms the cycle {i} < {i}")
            above[i - 1] |= 1 << (j - 1)
            pairs.append((i - 1, j - 1))
        # Warshall: after step k, above[i] holds every element reachable from
        # i through intermediate elements among 1..k+1
        for k in range(d):
            for i in range(d):
                if above[i] >> k & 1:
                    above[i] |= above[k]
        for i in range(d):
            if (above[i] >> i) & 1:
                raise InvalidInput(
                    "relations contain the cycle " + self._find_cycle(d, pairs, i)
                )
        below = [0] * d
        for i, m in enumerate(above):
            for j in set_bits(m):
                below[j] |= 1 << i
        self._above = tuple(above)
        self._below = tuple(below)
        self._ideals: tuple[int, ...] | None = None

    @staticmethod
    def _find_cycle(d: int, pairs: list[tuple[int, int]], start: int) -> str:
        succ: dict[int, list[int]] = {}
        for a, b in pairs:
            succ.setdefault(a, []).append(b)
        path = [start]
        seen = {start}
        while True:
            for nxt in succ.get(path[-1], []):
                if nxt == start:
                    return " < ".join(str(v + 1) for v in path + [start])
                if nxt not in seen:
                    seen.add(nxt)
                    path.append(nxt)
                    break
            else:
                path.pop()  # dead end; backtrack (cycle exists, so never empties)

    # -- relation queries ---------------------------------------------------

    @property
    def relations(self) -> frozenset[tuple[int, int]]:
        """All strict pairs (i, j) with i < j in the closure."""
        return frozenset((i + 1, j + 1) for i, m in enumerate(self._above) for j in set_bits(m))

    @property
    def cover_relations(self) -> tuple[tuple[int, int], ...]:
        """Covers (i, j): i < j with nothing strictly between, sorted."""
        below = self._below
        return tuple(
            (i + 1, j + 1)
            for i, m in enumerate(self._above)
            for j in set_bits(m)
            if not m & below[j]
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return self.d == other.d and self._above == other._above

    def __hash__(self) -> int:
        return hash((self.d, self._above))

    def __repr__(self) -> str:
        return f"Poset(d={self.d}, covers={list(self.cover_relations)})"

    # -- text format --------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "Poset":
        """Parse the poset format: `p <d> <k>` then k lines `r i j`."""
        _, (d, _), rows, _ = read_text(text, "poset", POSET_FORMAT)
        return cls(d, rows)

    def to_text(self) -> str:
        covers = self.cover_relations
        return write_text(("p", self.d, len(covers)), (("r", i, j) for i, j in covers))

    # -- order-ideal lattice ------------------------------------------------

    def order_ideals(self) -> tuple[int, ...]:
        """All order ideals (down-sets) as bitmasks, sorted by size then value.

        Built by inserting the elements along a linear extension: once the
        elements below e are in, the ideals gained by e are I | e for every
        ideal I so far that contains all of them.  Cached on the poset.  The
        ideals e gains are counted, and the lattice size with them charged,
        before they are built, so the budget refuses exactly when |J(P)|
        exceeds it, and with no more than the budget's worth built.
        """
        if self._ideals is not None:
            return self._ideals
        below = self._below
        ideals = [0]
        # sorting by the number of elements below gives a linear extension
        for e in sorted(range(self.d), key=lambda v: below[v].bit_count()):
            bit, need = 1 << e, below[e]
            fits = [ideal for ideal in ideals if ideal & need == need]
            charge(len(ideals) + len(fits), "order-ideal lattice")
            ideals += [ideal | bit for ideal in fits]
        ideals.sort()
        ideals.sort(key=int.bit_count)
        self._ideals = tuple(ideals)
        return self._ideals


# ---------------------------------------------------------------------------
# text formats


def integer(value) -> int:
    """``value`` through ``operator.index``, or InvalidInput naming it; counts use natural."""
    try:
        return index(value)
    except TypeError:
        raise InvalidInput(f"{value!r} is not an integer") from None


def natural(value, what: str = "n") -> int:
    """``integer(value)``; InvalidInput ``<what> must be nonnegative`` if negative."""
    value = integer(value)
    if value < 0:
        raise InvalidInput(f"{what} must be nonnegative")
    return value


def parse_ints(tokens: Iterable[str], line: str) -> list[int]:
    """Integers from a line's tokens, each ASCII ``[+-]?[0-9]+``; InvalidInput names a bad one."""
    out = []
    for tok in tokens:
        try:  # int() alone reads 1_0, and refuses a token past its digit limit
            if not re.fullmatch(r"[+-]?[0-9]+", tok):
                raise ValueError(tok)
            out.append(int(tok))
        except ValueError:
            raise InvalidInput(f"{tok!r} is not an integer in line {line!r}") from None
    return out


def read_file(path: str | Path, kind: str) -> str:
    """The text of the ``kind`` file at ``path`` as UTF-8, the only place where
    bytes become text; a file unreadable or undecodable is InvalidInput."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"cannot read {kind} file {path}: {exc}") from exc


class TextFormat(NamedTuple):
    """An input format: a header of a keyword and fields, then rows of
    integers, each after ``tag`` if there is one.  ``shape`` maps the
    header's integers to the row count and width; without it the header
    has one text field and no rows follow.  A ``box`` format may end with
    a row ``box`` of 2d integers, d being the header's first integer.
    """

    header: str
    shape: Callable[..., tuple[int, int]] | None
    tag: str = ""
    box: bool = False


POSET_FORMAT = TextFormat("p <d> <k>", lambda d, k: (k, 2), "r")


def read_text(
    text: str, kind: str, *formats: TextFormat
) -> tuple[TextFormat, list, list[list[int]], list[int] | None]:
    """Parse a ``kind`` file's text in whichever of ``formats`` its header names.

    Blank lines and lines starting with ``c`` are skipped.  Returns the
    format, the header's fields (integers, or the one text field), the rows'
    integers without their tags, and the box row's integers or None.  Every
    malformed header, row or token is InvalidInput.
    """
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("c")]
    head = lines[0].split() if lines else [""]
    fmt = next((f for f in formats if f.header.split()[0] == head[0]), None)
    if fmt is None:
        headers = " or ".join(repr(f.header) for f in formats)
        raise InvalidInput(f"{kind} file must start with a {headers} header")
    if len(head) != len(fmt.header.split()):
        raise InvalidInput(f"{kind} header {lines[0]!r} must be {fmt.header!r}")
    fields = parse_ints(head[1:], lines[0]) if fmt.shape else head[1:]
    count, width = fmt.shape(*fields) if fmt.shape else (0, 0)
    body, box = lines[1:], None
    if fmt.box and body and body[-1].split()[0] == "box":
        ln = body.pop()
        box = parse_ints(ln.split()[1:], ln)
        if len(box) != 2 * fields[0]:
            raise InvalidInput(f"box line {ln!r} must have 2d = {2 * fields[0]} integers")
    if len(body) != count:
        raise InvalidInput(f"expected {count} rows after {lines[0]!r}, found {len(body)}")
    rows = []
    for ln in body:
        tokens = ln.split()
        if fmt.tag and tokens[0] != fmt.tag:
            raise InvalidInput(f"{kind} line {ln!r} must start with {fmt.tag!r}")
        rows.append(parse_ints(tokens[1:] if fmt.tag else tokens, ln))
        if len(rows[-1]) != width:
            raise InvalidInput(f"{kind} line {ln!r} must have {width} integers")
    return fmt, fields, rows, box


def write_text(header: Sequence[object], rows: Iterable[Sequence[object]]) -> str:
    """The text of a file: the header's words on one line, then each row's."""
    return "".join(" ".join(map(str, line)) + "\n" for line in (header, *rows))


# ---------------------------------------------------------------------------
# linear extensions and descents


def linear_extensions(poset: Poset) -> Iterator[tuple[int, ...]]:
    """Yield every linear extension as a tuple of element labels.

    Backtracks over currently-minimal elements in increasing label order,
    so the output order is lexicographic and deterministic.
    """
    d = poset.d
    below = poset._below
    out: list[int] = []

    def extend(chosen: int) -> Iterator[tuple[int, ...]]:
        if len(out) == d:
            yield tuple(out)
            return
        for e in range(d):
            bit = 1 << e
            if chosen & bit or below[e] & ~chosen:
                continue
            out.append(e + 1)
            yield from extend(chosen | bit)
            out.pop()

    return extend(0)


def descent_h_star(poset: Poset) -> IntPolynomial:
    """h*-polynomial of the order polytope via the descent statistic.

    Sum of z^{des(w)} over linear extensions w, descents taken against a
    natural labeling: the ranks along the lexicographically first
    extension.  Any natural labeling gives the same polynomial; this one is
    fixed for determinism.  Agrees with the lattice-point and ideal-chain
    routes.

    A DP over (down-set I, last element e) in O(|J(P)| d^2) steps, a layer
    of down-sets at a time, grown from the lower sets (P-partitions, EC1
    3.15).  A state packs the descent polynomial of the orderings of I that
    end in e into one int, a field per coefficient; adding f moves it to
    (I + f, f), a field up if rank(e) > rank(f).  The running count of
    states is charged before each layer is built.
    """
    d, below = poset.d, poset._below
    moves, placed = [], 0  # (f with its lower set, f, 1 + rank(f)) by rank
    for r in range(1, d + 1):
        for e in range(d):
            if not placed >> e & 1 and not below[e] & ~placed:
                break
        placed |= 1 << e
        moves.append((below[e] | 1 << e, 1 << e, r))
    width = factorial(d).bit_length() + 1
    # a layer holds (I, row, the moves ready at I); row[r] packs the
    # orderings of I ending at rank r - 1, and row[0] the empty one
    ready = [(bit, r) for need, bit, r in moves if need == bit]
    layer, states = [(0, [1] + [0] * d, ready)], len(ready)
    for _ in range(d):
        charge(states, "descent DP")
        grown, rows = [], {}
        for down, row, ready in layer:
            prefix = list(accumulate(row))
            for bit, r in ready:
                up = down | bit
                new = rows.get(up)
                if new is None:
                    new = rows[up] = [0] * (d + 1)
                    free = ~up
                    nxt = [(b, s) for need, b, s in moves if need & free == b]
                    states += len(nxt)
                    grown.append((up, new, nxt))
                flat = prefix[r - 1]  # the orderings ending below rank r - 1
                new[r] = flat + (prefix[-1] - flat << width)
        layer = grown
    packed, mask = sum(layer[0][1]), (1 << width) - 1
    return IntPolynomial([packed >> i * width & mask for i in range(max(d, 1))])


# ---------------------------------------------------------------------------
# order-preserving map counts


def order_map_counts(poset: Poset, n_max: int, strict: bool = False) -> list[int]:
    """Exact map counts for n = 0..n_max via the order-ideal lattice.

    A weak map into {1..n} is a multichain of ideals empty = I_0 <= ... <= I_n
    = full (I_i collects the elements mapped to at most i); strict maps are
    the multichains whose steps add antichains, i.e. subsets of max(I_i).
    Each step is one zeta transform in O(|J(P)| d), an element e at a time
    (along a linear extension, reversed for strict maps): vec[I] += vec[I - e]
    for every ideal I with e maximal, over (I, I - e) position pairs looked
    up once in a dict of the ideals.  The tests check it by brute force.

    Both walks run to n = d + 1 once per poset value, cached for the h* route
    and the reciprocity check; the lattice is charged per poset object.  Counts
    past d + 1 extend that table by :func:`~hstarlib.polynomial.extrapolate`.
    """
    n_max = natural(n_max)
    poset.order_ideals()  # charged per object, while the cache is keyed by value
    counts = _lattice_counts(poset)[bool(strict)]
    extra = n_max + 1 - len(counts)
    return extrapolate(counts, extra) if extra > 0 else list(counts[: n_max + 1])


@lru_cache(maxsize=8)
def _lattice_counts(poset: Poset) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The weak and the strict map counts for n = 0..d + 1."""
    ideals = poset.order_ideals()
    index = dict(zip(ideals, range(len(ideals))))
    # sorting by the number of elements below gives a linear extension
    sizes = [m.bit_count() for m in poset._below]
    steps = []
    for e in sorted(range(poset.d), key=sizes.__getitem__):
        bit, mask = 1 << e, 1 << e | poset._above[e]
        steps.append([(index[i], index[i ^ bit]) for i in ideals if i & mask == bit])
    walks = []
    for pairs in (list(chain.from_iterable(steps)), list(chain.from_iterable(reversed(steps)))):
        vec = [1] + [0] * (len(ideals) - 1)
        counts = [vec[-1]]
        for _ in range(poset.d + 1):
            for k, sub in pairs:
                vec[k] += vec[sub]
            counts.append(vec[-1])
        walks.append(tuple(counts))
    return tuple(walks)


def order_polynomial(poset: Poset, strict: bool = False) -> CountingPolynomial:
    """The (weak or strict) order polynomial, exact.

    Held by its map counts at n = 0..d, which fix the unique polynomial of
    degree at most d.  Counts come from the ideal-lattice walk, which
    matches the brute-force oracle everywhere it can run.
    """
    return interpolate(order_map_counts(poset, poset.d, strict))


# ---------------------------------------------------------------------------
# ideal-chain face counts


def ideal_chain_f_vector(poset: Poset) -> IntPolynomial:
    """Face-count polynomial of the canonical triangulation of the order polytope.

    Coefficient of z^i is the number of i-element chains in the lattice of
    order ideals (empty and full ideal included as chain members; the
    constant term 1 stands for the empty chain).  Feeding the result to
    :func:`~hstarlib.polynomial.f_to_h` with ambient dimension d reproduces
    the h*-polynomial.

    One pass over the ideals, subsets first: the chains topped by b count
    z (1 + the chains topped by each a below b), packed into one int, a
    field per coefficient.  The k(k - 1)/2 subset tests are charged first.
    """
    ideals = poset.order_ideals()
    k = len(ideals)
    charge(k * (k - 1) // 2, "ideal-chain pass")
    width = (k ** (poset.d + 1)).bit_length() + 1
    tops: list[int] = []
    for b in ideals:
        tops.append((1 + sum(g for a, g in zip(ideals, tops) if a & b == a)) << width)
    packed, mask = 1 + sum(tops), (1 << width) - 1
    return IntPolynomial([packed >> i * width & mask for i in range(poset.d + 2)])
