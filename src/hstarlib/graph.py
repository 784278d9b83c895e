"""Simple graphs, acyclic orientations, and chromatic polynomials.

Vertices are labeled 1..d.  The orientation sweep and the map counts of
the orientation route work on sets of vertices: vertex v is bit v - 1 of
the set's index S, a 2^d-bit mask holds one bit per set, and a packed
vector holds one field of w bits per set, field S at bit S * w.  An
acyclic orientation is its down-set mask: bit S is set iff no edge runs
into S from outside it, and the sweep yields them in batches, each
charged once.  Per orientation the route computes only its weak map
counts, and every sum over orientations is read off their tally.  An
orientation and its reversal have the same counts, so the tally
transforms the orientations that run the first edge forward and doubles.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain, repeat, takewhile
from math import perm
from typing import Iterable, Iterator

from .budget import charge, charge_power_of_two
from .errors import BudgetExceeded, InternalConsistencyError, InvalidInput
from .polynomial import CountingPolynomial, IntPolynomial, extrapolate, interpolate
from .poset import Poset, TextFormat, integer, natural, read_text, write_text


class Graph:
    """Simple undirected graph on vertices 1..d; no loops, no multi-edges."""

    __slots__ = ("d", "edges")

    def __init__(self, d: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        self.d = d = natural(d, "vertex count")
        normalized = []
        for i, j in edges:
            i, j = integer(i), integer(j)
            if not (1 <= i <= d and 1 <= j <= d):
                raise InvalidInput(f"edge ({i}, {j}) out of range 1..{d}")
            if i == j:
                raise InvalidInput(f"loop at vertex {i}")
            normalized.append((min(i, j), max(i, j)))
        if len(normalized) != len(set(normalized)):
            raise InvalidInput("duplicate edges")
        self.edges: frozenset[tuple[int, int]] = frozenset(normalized)

    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.d == other.d and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.d, self.edges))

    def __repr__(self) -> str:
        return f"Graph(d={self.d}, edges={sorted(self.edges)})"

    @classmethod
    def from_text(cls, text: str) -> "Graph":
        """Parse the graph format: `p <d> <m>` then m lines `e i j`."""
        _, (d, _), rows, _ = read_text(text, "graph", GRAPH_FORMAT)
        return cls(d, rows)

    def to_text(self) -> str:
        edges = (("e", i, j) for i, j in self.sorted_edges())
        return write_text(("p", self.d, len(self.edges)), edges)


GRAPH_FORMAT = TextFormat("p <d> <m>", lambda d, m: (m, 2), "e")


@lru_cache(maxsize=8)  # a graph's checks use two (d, w) keys
def _packing(d: int, w: int) -> tuple[tuple, tuple, tuple]:
    """Masks over 2^d fields of w bits.  Per vertex e: the fields of the
    sets without e, all ones; and the zeta pass, those fields and the shift
    that carries field S to S | e.  Then the (bits, shift) steps, highest
    vertex first, that carry bit S of a 2^d-bit mask to field S."""

    def tiled(block: int, e: int) -> int:  # block copied to every 2^(e+1)th field
        for k in range(e + 1, d):
            block |= block << (w << k)
        return block

    without = tuple(tiled((1 << (w << e)) - 1, e) for e in range(d))
    deposit = [(tiled(((1 << (1 << k)) - 1) << (1 << k), k), (w - 1) << k) for k in range(d)]
    return without, tuple(zip(without, [w << e for e in range(d)])), tuple(reversed(deposit))


@lru_cache(maxsize=1)  # a graph's sweeps run back to back; 2^d bits a mask
def _sweep_steps(graph: Graph) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The full mask and, per edge {i, j}, sorted, the masks that narrow a
    down-set mask to i -> j and to j -> i: orienting u -> v clears the sets
    that hold v without u.  2^d is charged before any mask is built."""
    d = graph.d
    charge_power_of_two(d, f"down-set mask over 2^{d} vertex sets")
    out = _packing(d, 1)[0]  # out[v]: the sets without vertex v + 1
    full = (1 << (1 << d)) - 1
    edges = graph.sorted_edges()
    steps = [(out[j - 1] | full ^ out[i - 1], out[i - 1] | full ^ out[j - 1]) for i, j in edges]
    return full, tuple(steps)


def acyclic_orientations(graph: Graph) -> Iterator[int]:
    """Enumerate every acyclic orientation exactly once, as its down-set mask.

    Backtracks over the edges in lexicographic order, carrying one 2^d-bit
    int ``ideals``: bit S is set iff the vertex set S is a down-set of the
    partial orientation.  Orienting u -> v clears the sets that hold v
    without u.  That direction closes a cycle iff no down-set holds u
    without v (v already reaches u), which prunes the whole subtree.  An
    acyclic partial orientation admits each edge one way or the other, so a
    popped state walks down to the last 16 - d edges, taking i -> j where
    it can and stacking j -> i if that is open too, then expands those a
    level at a time, i -> j first, into a batch: depth first, i -> j before
    j -> i.  Its running count after a batch is charged once, before it; a
    batch so refused is charged a mask at a time as each next is asked for,
    so it refuses after the same mask.  :func:`_sweep_steps` charges 2^d first.
    """
    full, steps = _sweep_steps(graph)
    split = max(0, len(steps) - max(0, 16 - graph.d))  # a batch: at most 2^16 mask bits

    def walk() -> Iterator[int]:
        walked = 0
        stack = [(0, full)]
        while stack:
            k, ideals = stack.pop()
            for i_to_j, j_to_i in steps[k:split]:
                k += 1
                j_way = ideals & j_to_i
                if j_way == ideals:  # i -> j closes a cycle; j -> i clears nothing
                    continue
                i_way = ideals & i_to_j
                if i_way != ideals:  # j -> i is open too
                    stack.append((k, j_way))
                ideals = i_way
            batch = [ideals]
            for i_to_j, j_to_i in steps[split:]:
                level = []
                for ideals in batch:
                    j_way = ideals & j_to_i
                    if j_way == ideals:
                        level.append(ideals)
                        continue
                    i_way = ideals & i_to_j
                    level.append(i_way)
                    if i_way != ideals:
                        level.append(j_way)
                batch = level
            singly = ()
            try:
                charge(walked + len(batch), "acyclic-orientation sweep")
            except BudgetExceeded:  # the refusal falls inside this batch
                batch, singly = (), batch
            yield from batch
            walked += len(batch)
            for ideals in singly:
                yield ideals
                walked += 1
                charge(walked, "acyclic-orientation sweep")

    return walk()


def count_acyclic_orientations(graph: Graph) -> int:
    return sum(1 for _ in acyclic_orientations(graph))


def orientation_poset(graph: Graph, ideals: int) -> Poset:
    """Poset of the orientation whose down-set mask is ``ideals``.

    Edge {i, j} runs i -> j iff no down-set holds j without i, a set that
    the sweep's i -> j step (:func:`_sweep_steps`) clears.  A mask that
    orients an edge both ways or neither way, or that is not the down-set
    mask of the poset its arcs generate, is rejected.
    """
    full, steps = _sweep_steps(graph)
    arcs = []
    for (i, j), (i_to_j, j_to_i) in zip(graph.sorted_edges(), steps):
        i_only, j_only = ideals & (full ^ j_to_i), ideals & (full ^ i_to_j)
        if bool(i_only) == bool(j_only):
            way = "neither way" if i_only else "both ways"
            raise InvalidInput(f"mask orients edge ({i}, {j}) {way}")
        arcs.append((i, j) if i_only else (j, i))
    poset = Poset(graph.d, arcs)
    if sum(1 << ideal for ideal in poset.order_ideals()) != ideals:
        raise InvalidInput("mask is not the down-set mask of the poset its arcs generate")
    return poset


def _mask_map_counts(ideals: int, d: int) -> tuple[int, ...]:
    """Weak map counts for n = 0..d + 1 of the d-element poset whose
    down-sets are the set bits of ``ideals``: the ideal multichains of
    :func:`~hstarlib.poset.order_map_counts`, with the vector over vertex
    sets packed into one int of w-bit fields.  w has a bit to spare over
    (d + 1)^d, which bounds every count and partial sum.  A step is the
    subset zeta transform, one shift-and-add per element, and then zeroes
    the non-ideal fields.  The count is the top field, the full set.

    Charges |J(P)| as ``order_ideals`` does, on every call.  The transform
    is cached for the whole run by (mask, d), so a mask that an earlier
    sweep met, of this graph or of another, is not transformed again; it
    charges 2^d * w as an allocation, and no refusal is cached.  Every call
    gets the cached tuple, shared by all equal count vectors.
    """
    charge(ideals.bit_count(), "order-ideal lattice")
    return _packed_counts(ideals, d)


@lru_cache(maxsize=1 << 14)  # its mask keys dominate: 2^d bits each
def _packed_counts(ideals: int, d: int) -> tuple[int, ...]:
    """The transform of :func:`_mask_map_counts` in fields of w bits, as the
    one tuple kept per distinct count vector."""
    w = ((d + 1) ** d).bit_length() + 1
    charge(w << d, f"packed vector of 2^{d} fields of {w} bits", allocation=True)
    _, passes, deposit = _packing(d, w)
    vec = ideals
    for move, shift in deposit:
        high = vec & move
        vec ^= high ^ high << shift
    spread = vec * ((1 << w) - 1)  # vec, a 1 in each ideal's field, is the n = 1 row
    top = (w << d) - w
    counts = [1 >> top, vec >> top]
    for _ in range(d):
        for keep, shift in passes:
            vec += (vec & keep) << shift
        vec &= spread
        counts.append(vec >> top)
    return _count_vectors(tuple(counts))


# one tuple per distinct count vector, of which there are far fewer than
# masks: ``tuple`` returns a tuple unchanged, so the first one met is kept
_count_vectors = lru_cache(maxsize=1 << 12)(tuple)


def _orientation_tally(graph: Graph) -> Counter[tuple[int, ...]]:
    """One sweep of the acyclic orientations, tallied by their weak map
    counts at n = 0..d + 1 (the cached tuples).  Each distinct vector is one
    orientation class, and every sum over the orientations is read off the
    tally.  A fresh ``Counter`` on every call; the sweep charges itself.

    Reversing every edge takes an orientation's poset P to its dual P*,
    whose down-sets are the complements of P's, and Omega_{P*} = Omega_P
    (x -> n + 1 - x; Stanley, EC1 §3.12), so the two orientations of a
    reversal pair fall into one class.  Only the orientations that run the
    first sorted edge {i, j} i -> j are transformed: the sweep takes i -> j
    before j -> i, so they are the ones before the first orientation in
    which no down-set holds i without j, the sets that its j -> i step
    (:func:`_sweep_steps`) clears.  The rest are only counted: a count
    other than the tallied half means the order or the pairing is broken,
    an InternalConsistencyError.  Then every class count is doubled.  A
    skipped orientation's ideal count |J(P*)| = |J(P)| was charged for its
    partner, and the sweep still charges every orientation it walks, so no
    refusal moves.  An edgeless graph's one orientation is tallied as it is.
    """
    d = graph.d
    sweep = acyclic_orientations(graph)
    if not graph.edges:
        return Counter(map(_mask_map_counts, sweep, repeat(d)))
    i, j = min(graph.edges)
    full, steps = _sweep_steps(graph)
    i_only = full ^ steps[0][1]  # the sets i without j, which j -> i clears
    # no down-set mask is 0, so the 0 after the sweep stands in for the
    # first j -> i orientation, which ``takewhile`` takes and drops
    sweep = chain(sweep, (0,))
    tally = Counter(map(_mask_map_counts, takewhile(i_only.__and__, sweep), repeat(d)))
    half, rest = tally.total(), sum(1 for _ in sweep)
    if rest != half:
        raise InternalConsistencyError(
            f"{graph!r}: {half} orientations before the first with {j} -> {i}, "
            f"{rest} from it on"
        )
    for counts in tally:
        tally[counts] *= 2
    return tally


def count_proper_colorings(graph: Graph, n: int) -> int:
    """Count the proper colorings with colors {1..n}, one search leaf per
    coloring up to a permutation of the colors.

    Vertices are colored in label order.  Each takes any color already used
    that its earlier neighbors leave free, or, while fewer than n are used,
    the next new one, so every partition of the vertices into r independent
    sets is met once, and stands for the (n)_r = n(n-1)...(n-r+1) colorings
    that give its blocks distinct colors.  The last vertex adds (free used
    colors) * (n)_r + (n)_(r+1) without being tried.  One color is answered
    without a search.  The budget is charged the n^d candidate colorings up
    front, before any search: an upper bound on the leaves.
    """
    n = natural(n)
    d = graph.d
    if d == 0:
        return 1
    if n == 0:
        return 0
    charge(n**d, f"enumeration of {n}^{d} colorings")
    if n == 1:  # the search recurses d deep, and one color costs a charge of 1
        return 0 if graph.edges else 1
    earlier: list[list[int]] = [[] for _ in range(d)]  # neighbors with smaller labels
    for i, j in graph.edges:
        earlier[j - 1].append(i - 1)
    falling = [perm(n, r) for r in range(d + 2)]  # (n)_r, zero from r = n + 1 on
    color = [0] * d
    last = d - 1

    def extend(v: int, used: int) -> int:
        taken = 0  # bit c: color c is on an earlier neighbor
        for u in earlier[v]:
            taken |= 1 << color[u]
        if v == last:
            return (used - taken.bit_count()) * falling[used] + falling[used + 1]
        total = 0
        for c in range(used):
            if not taken >> c & 1:
                color[v] = c
                total += extend(v + 1, used)
        if used < n:
            color[v] = used
            total += extend(v + 1, used + 1)
        return total

    return extend(0, 0)


def chromatic_polynomial(graph: Graph) -> IntPolynomial:
    """Chromatic polynomial by deletion-contraction, exact.

    Recursion keys on the lexicographically first remaining edge;
    contraction merges into the smaller endpoint and drops parallel
    duplicates (simple-graph convention).  The d = 0 graph has chi = 1.
    Each (d, edges) subproblem, the graph itself included, of this graph or
    of another, is memoised for the whole run in a 4096-entry
    ``lru_cache`` (:func:`_deletion_contraction`).  Uncharged: a call either returns
    from the memo or makes the two calls of the unmemoised recurrence, so
    there are at most 2a(G) - 1 calls for the a(G) = |chi_G(-1)| acyclic
    orientations (the same recurrence), and the library runs it only
    behind a sweep that the budget has passed.
    """
    return IntPolynomial(_deletion_contraction(graph.d, graph.edges))


@lru_cache(maxsize=1 << 12)  # about 1 KB an entry on d = 7..12 graphs: 4-5 MB when full
def _deletion_contraction(d: int, edges: frozenset[tuple[int, int]]) -> tuple[int, ...]:
    """Coefficients of chi for the graph on 1..d with ``edges``, constant first."""
    if not edges:
        return (0,) * d + (1,)  # n^d
    i, j = min(edges)
    deleted = _deletion_contraction(d, edges - {(i, j)})
    merged = set()
    for a, b in edges:
        if (a, b) == (i, j):
            continue
        a2 = i if a == j else a
        b2 = i if b == j else b
        a2 = a2 if a2 < j else a2 - 1
        b2 = b2 if b2 < j else b2 - 1
        if a2 != b2:
            merged.add((min(a2, b2), max(a2, b2)))
    contracted = _deletion_contraction(d - 1, frozenset(merged))
    out = list(deleted)
    for k, c in enumerate(contracted):
        out[k] -= c
    return tuple(out)


def chromatic_via_orientations(graph: Graph) -> CountingPolynomial:
    """Chromatic polynomial as the sum of strict order polynomials over all
    acyclic orientations (Stanley, *Acyclic orientations of graphs*, 1973);
    must agree with deletion-contraction.

    Reciprocity, Omega°_P(n) = (-1)^d Omega_P(-n) (Stanley, EC1 §3.15),
    reads the strict counts off the weak ones, so the sweep's tally, of
    which only the first-edge-forward half is transformed, is all this
    route needs: its weak counts add into W(0..d + 1), where
    W = sum_O Omega_O, and chi(n) = (-1)^d W(-n) at n = 0..d fixes chi
    (degree d).  W's table of all d + 2 values, read from n = d + 1 down,
    is extended to n = -d (:func:`~hstarlib.polynomial.extrapolate`), so a
    wrong count at n = d + 1 shows in chi too.
    """
    d = graph.d
    values = [0] * (d + 2)  # W at n = 0..d + 1
    for counts, k in _orientation_tally(graph).items():
        values = [v + k * c for v, c in zip(values, counts)]
    below = extrapolate(values[::-1], d)[d + 1 :]
    return interpolate(below if d % 2 == 0 else [-w for w in below])
