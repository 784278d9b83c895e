"""Simple graphs, acyclic orientations, and chromatic polynomials.

Vertices are labeled 1..d.  An orientation is stored as the set of edges
pointing against the label order: edge {i, j} with i < j runs i -> j by
default and j -> i when the edge is in the ``flipped`` set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .budget import charge
from .errors import InvalidInput
from .polynomial import CountingPolynomial, IntPolynomial, interpolate
from .poset import Poset, order_map_counts, read_pair_file


class Graph:
    """Simple undirected graph on vertices 1..d; no loops, no multi-edges."""

    __slots__ = ("d", "edges")

    def __init__(self, d: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if d < 0:
            raise InvalidInput("vertex count must be nonnegative")
        self.d = d
        normalized = []
        for i, j in edges:
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
        """Parse the shared graph format: `p <d> <m>` then m lines `e i j`."""
        return cls(*read_pair_file(text, "graph", "e"))

    def to_text(self) -> str:
        out = [f"p {self.d} {len(self.edges)}"]
        out.extend(f"e {i} {j}" for i, j in self.sorted_edges())
        return "\n".join(out) + "\n"


@dataclass(frozen=True)
class Orientation:
    """Edge subset marking which edges point from the larger label down.

    An orientation yielded by :func:`acyclic_orientations` also carries the
    sweep's transitive reach masks and the graph they were built for, which
    lets :func:`orientation_poset` skip the closure.  Equality, hashing and
    repr look at ``flipped`` only.
    """

    flipped: frozenset[tuple[int, int]]
    reach: tuple[int, ...] | None = field(default=None, compare=False, repr=False)
    graph: Graph | None = field(default=None, compare=False, repr=False)

    def directed_edges(self, graph: Graph) -> Iterator[tuple[int, int]]:
        """Yield each edge of the host graph as an ordered (source, target)."""
        for i, j in graph.sorted_edges():
            yield (j, i) if (i, j) in self.flipped else (i, j)


def acyclic_orientations(graph: Graph) -> Iterator[Orientation]:
    """Enumerate every acyclic orientation exactly once.

    Backtracks over the edges in lexicographic order, maintaining the
    transitive closure of the partial orientation as per-vertex reachability
    bitmasks; a direction whose reverse is already implied closes a cycle
    and prunes that whole subtree.
    """
    edges = graph.sorted_edges()
    d = graph.d
    reach = [1 << v for v in range(d)]  # vertices reachable from v, incl. v
    flipped: list[tuple[int, int]] = []

    def orient(k: int) -> Iterator[Orientation]:
        if k == len(edges):
            yield Orientation(frozenset(flipped), tuple(reach), graph)
            return
        i, j = edges[k]
        for src, dst, flip in ((i - 1, j - 1, False), (j - 1, i - 1, True)):
            if (reach[dst] >> src) & 1:
                continue  # dst already reaches src: this direction closes a cycle
            saved = reach.copy()
            extra = reach[dst]
            for v in range(d):
                if (reach[v] >> src) & 1:
                    reach[v] |= extra
            if flip:
                flipped.append((i, j))
            yield from orient(k + 1)
            if flip:
                flipped.pop()
            reach[:] = saved
        return

    return orient(0)


def count_acyclic_orientations(graph: Graph) -> int:
    return sum(1 for _ in acyclic_orientations(graph))


def orientation_poset(graph: Graph, orientation: Orientation) -> Poset:
    """Poset induced by reachability along the oriented edges.

    v_i < v_j iff a directed path of length >= 1 runs from v_i to v_j.  An
    orientation from the sweep over this graph brings its reach masks, which
    are already closed and acyclic, so the poset is read off them with no
    closure pass.  A hand-built orientation goes through the Poset
    constructor, which closes the edges and reports a cycle; flipping an
    edge the graph lacks is rejected.
    """
    if orientation.reach is not None and orientation.graph == graph:
        return Poset._from_reach(orientation.reach)
    if not orientation.flipped <= graph.edges:
        raise InvalidInput("orientation flips edges the graph does not have")
    return Poset(graph.d, orientation.directed_edges(graph))


def count_proper_colorings(
    graph: Graph, n: int, *, budget: int | None = None
) -> int:
    """Count the proper colorings with colors {1..n} by backtracking.

    Vertices are colored in label order, each with every color its
    already-colored neighbors leave free; the last vertex contributes the
    number of free colors without being tried.  One color is answered
    without a search.  The budget is charged the n^d candidate colorings
    up front, before any search.
    """
    if n < 0:
        raise InvalidInput("n must be nonnegative")
    d = graph.d
    if d == 0:
        return 1
    if n == 0:
        return 0
    charge(n**d, budget, f"enumeration of {n}^{d} colorings")
    if n == 1:  # the search recurses d deep, and one color costs a charge of 1
        return 0 if graph.edges else 1
    earlier: list[list[int]] = [[] for _ in range(d)]  # neighbors with smaller labels
    for i, j in graph.edges:
        earlier[j - 1].append(i - 1)
    color = [0] * d
    last = d - 1

    def extend(v: int) -> int:
        taken = {color[u] for u in earlier[v]}
        if v == last:
            return n - len(taken)
        total = 0
        for c in range(n):
            if c not in taken:
                color[v] = c
                total += extend(v + 1)
        return total

    return extend(0)


def chromatic_polynomial(graph: Graph) -> IntPolynomial:
    """Chromatic polynomial by deletion-contraction, exact.

    Recursion keys on the lexicographically first remaining edge;
    contraction merges into the smaller endpoint and drops parallel
    duplicates (simple-graph convention).  The d = 0 graph has chi = 1.
    """

    def chi(d: int, edges: frozenset[tuple[int, int]]) -> list[int]:
        if not edges:
            coeffs = [0] * d + [1]  # n^d
            return coeffs
        i, j = min(edges)
        deleted = chi(d, edges - {(i, j)})
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
        contracted = chi(d - 1, frozenset(merged))
        out = list(deleted)
        for k, c in enumerate(contracted):
            out[k] -= c
        return out

    return IntPolynomial(chi(graph.d, graph.edges))


def chromatic_via_orientations(graph: Graph) -> CountingPolynomial:
    """Chromatic polynomial as the sum of strict order polynomials over all
    acyclic orientations; must agree with deletion-contraction.

    The strict map counts at n = 0..d are summed orientation-wise; the sums
    are the values of chi at those nodes, which fix it (degree d).
    """
    d = graph.d
    totals = [0] * (d + 1)
    for rho in acyclic_orientations(graph):
        counts = order_map_counts(orientation_poset(graph, rho), d, strict=True)
        totals = [t + c for t, c in zip(totals, counts)]
    return interpolate(totals)
