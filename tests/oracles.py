"""Brute-force oracles that the tests hold the library's fast routes against."""

from itertools import product

from hstarlib.budget import charge
from hstarlib.errors import InvalidInput
from hstarlib.poset import Poset


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
