"""
Symmetric decompositions of numerator polynomials
=================================================

Any polynomial h of degree s <= d splits uniquely as
(1 + ... + z^{l-1}) h = a + z^l b with a palindromic about d and b about
s - 1.  For h* of a lattice polytope both parts are nonnegative, and that
single fact cascades into sign results for open polytopes, order polytopes
and chromatic series, ending in concrete coefficient inequalities.
"""

from hstarlib import (
    Graph,
    IntPolynomial,
    OrderPolytope,
    Poset,
    graph_decomposition,
    graph_numerator,
    h_star,
    inequality_report,
    open_decomposition,
    open_numerator,
    order_decomposition,
    stapledon_pair,
)

# The base split, on the h* of the leg-2 right triangle.
hstar = IntPolynomial([1, 3])
dec = stapledon_pair(hstar, 2)
print("pair for 1 + 3z at d = 2:  a =", dec.a.coeffs, " b =", dec.b.coeffs)

# Open polytope: the interior-series numerator is a difference of two
# nonnegative palindromic polynomials.
a_p, b_p = open_decomposition(hstar, 2)
print("open split: a_P =", a_p.coeffs, " b_P =", b_p.coeffs)
assert a_p - b_p == open_numerator(hstar, 2)

# Order polytope: the same numerator instead splits as a_Pi + z b_Pi with
# a_Pi nonpositive.  Here, the 3-element V-shaped poset.
poset = Poset(3, [(1, 2), (1, 3)])
hs = h_star(OrderPolytope(poset))
a_pi, b_pi = order_decomposition(hs, poset.d)
print("order split: a_Pi =", a_pi.coeffs, " b_Pi =", b_pi.coeffs)

# Chromatic series: summing the order splits over all acyclic orientations
# decomposes z h_G, again with -a and b nonnegative.
graph = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
a, b = graph_decomposition(graph)
print("graph split: a =", a.coeffs, " b =", b.coeffs)

# The sign conditions are exactly partial-sum inequalities on h_G, each
# holding when its value is nonnegative.
h_g = graph_numerator(graph)
for line in inequality_report(h_g, graph.d, "theorem4"):
    print(f"  i = {line.i}: partial-sum value {line.value} >= 0 is {line.value >= 0}")
