"""Brute-force oracles that the tests hold the library's fast routes against."""

from itertools import product
from math import gcd

from hstarlib.budget import charge
from hstarlib.errors import InvalidInput
from hstarlib.graph import _edge_splits
from hstarlib.polynomial import IntPolynomial
from hstarlib.poset import Poset, linear_extensions


def count_order_maps(poset: Poset, n: int, strict: bool = False) -> int:
    """Brute-force count of (weak or strict) order-preserving maps into {1..n}.

    This is the independent oracle: it enumerates all n^d candidate maps and
    filters by the cover relations.  Refuses above the budget in force.
    """
    if n < 0:
        raise InvalidInput("n must be nonnegative")
    d = poset.d
    if d == 0:
        return 1
    if n == 0:
        return 0
    charge(n**d, f"enumeration of {n}^{d} maps")
    covers = [(i - 1, j - 1) for i, j in poset.cover_relations]
    total = 0
    if strict:
        for phi in product(range(1, n + 1), repeat=d):
            if all(phi[i] < phi[j] for i, j in covers):
                total += 1
    else:
        for phi in product(range(1, n + 1), repeat=d):
            if all(phi[i] <= phi[j] for i, j in covers):
                total += 1
    return total


def walk_descent_h_star(poset: Poset) -> IntPolynomial:
    """The descent route as a walk over all linear extensions, up to d! of
    them: z^des(w) summed over every extension w, with descents taken
    against the ranks of the first one yielded, the lexicographically first.
    """
    counts = [0] * max(poset.d, 1)
    rank: dict[int, int] = {}
    for w in linear_extensions(poset):
        rank = rank or {e: pos for pos, e in enumerate(w)}
        counts[sum(1 for a, b in zip(w, w[1:]) if rank[a] > rank[b])] += 1
    return IntPolynomial(counts)


def layered_ideal_chain_f_vector(poset: Poset) -> IntPolynomial:
    """Chains of order ideals counted a length at a time: each ideal's
    strict subsets are listed once, in O(k^2) for k ideals, and every layer
    sums the chains one shorter over those lists."""
    ideals = poset.order_ideals()
    k = len(ideals)
    preds = [[a for a in range(k) if a != b and not ideals[a] & ~ideals[b]] for b in range(k)]
    f = [1]  # the empty chain
    layer = [1] * k  # the 1-element chains ending at each ideal
    while any(layer):
        f.append(sum(layer))
        layer = [sum(layer[a] for a in preds[b]) for b in range(k)]
    return IntPolynomial(f)


def recursive_acyclic_orientations(graph):
    """The orientation walk as a recursive generator, one ``yield from``
    per edge: i -> j is walked before j -> i at every edge, and a direction
    that no down-set allows closes a cycle and prunes its subtree.  The
    library's explicit-stack walk must yield the same masks in this order.
    """
    splits = _edge_splits(graph)

    def orient(k, ideals):
        if k == len(splits):
            yield ideals
            return
        _, _, i_only, j_only = splits[k]
        if ideals & i_only:  # i -> j
            yield from orient(k + 1, ideals & ~j_only)
        if ideals & j_only:  # j -> i
            yield from orient(k + 1, ideals & ~i_only)

    return orient(0, (1 << (1 << graph.d)) - 1)


def count_colorings_by_color(graph, n: int) -> int:
    """Proper colorings with colors {1..n}, one color at a time over vertex
    sets: ``ways[S]`` counts the colorings of S with the colors so far, and
    each next color takes any independent subset of the uncolored vertices.
    O(3^d) per color, so it reaches the n past d that an enumeration of all
    n^d colorings cannot on graphs of 6 or more vertices."""
    d = graph.d
    full = (1 << d) - 1
    edges = [(1 << i - 1) | (1 << j - 1) for i, j in graph.edges]
    independent = [not any(S & e == e for e in edges) for S in range(full + 1)]
    ways = [1] + [0] * full
    for _ in range(n):
        after = [0] * (full + 1)
        for S, w in enumerate(ways):
            if not w:
                continue
            rest = I = full ^ S
            while True:  # every subset I of rest, rest itself first
                if independent[I]:
                    after[S | I] += w
                if not I:
                    break
                I = (I - 1) & rest
        ways = after
    return ways[full]


def partial_sum_inequalities(h: IntPolynomial, d: int, mode: str) -> list[tuple[int, int]]:
    """The paper's inequalities summed from h's coefficients, free of the
    split: theorem4 is h_d + ... + h_{d-i+1} - h_0 - ... - h_{i-1} for
    i = 1..floor((d+1)/2), and conjecture64 subtracts one more term, h_i,
    for i = 1..floor(d/2)."""
    extra = 0 if mode == "theorem4" else 1
    top = (d + 1) // 2 if mode == "theorem4" else d // 2
    return [
        (i, sum(h[j] for j in range(d - i + 1, d + 1)) - sum(h[j] for j in range(i + extra)))
        for i in range(1, top + 1)
    ]


def fourier_motzkin_box(inequalities, d: int):
    """The integer box of {x : normal . x <= bound} and its first flagged
    coordinate, by the integer Fourier-Motzkin elimination that derived
    H-polytope boxes before the vertex pass: ((lo, hi), coordinate).

    For each coordinate i, every other coordinate j is eliminated in
    turn from the rows (normal | bound): rows with a zero j-th entry
    stay, and each pair p, q with p_j > 0 > q_j becomes p_j q - q_j p,
    divided by the gcd of its entries, so equal rows merge in the set.
    The rows left bound x_i alone; their bounds are rounded outwards,
    which is exact for a lattice polytope (the vertex box) and keeps
    n * box around n * P for any other.  An end that rounding moved is
    a vertex coordinate that is not an integer: the first such
    coordinate (1-based) is returned, or None.  Before each
    elimination the running total of coefficients built, that
    elimination's pairs included, is charged.  An unbounded coordinate,
    or a box with lo > hi, is InvalidInput.
    """
    non_lattice = None
    lo, hi = [], []
    built = 0
    for i in range(d):
        rows = {(*normal, bound) for normal, bound in inequalities}
        for j in range(d):
            if j == i:
                continue
            pos = [r for r in rows if r[j] > 0]
            neg = [r for r in rows if r[j] < 0]
            built += len(pos) * len(neg) * (d + 1)
            charge(built, "Fourier-Motzkin box derivation")
            rows = {r for r in rows if r[j] == 0}
            for p in pos:
                for q in neg:
                    row = [p[j] * b - q[j] * a for a, b in zip(p, q)]
                    g = gcd(*row) or 1
                    rows.add(tuple(c // g for c in row))
        uppers = [-(-r[d] // r[i]) for r in rows if r[i] > 0]
        lowers = [r[d] // r[i] for r in rows if r[i] < 0]
        if not uppers or not lowers:
            raise InvalidInput(
                "cannot derive a bounding box from the inequalities; "
                "supply an explicit box or check that the polytope is bounded"
            )
        lo.append(max(lowers))
        hi.append(min(uppers))
        # a rounded end is exact iff it still satisfies every row
        moved = any(r[i] * x > r[d] for r in rows for x in (lo[i], hi[i]))
        if moved and non_lattice is None:
            non_lattice = i + 1
    if any(l > h for l, h in zip(lo, hi)):
        raise InvalidInput("empty bounding box; polytope has no points")
    return (tuple(lo), tuple(hi)), non_lattice
