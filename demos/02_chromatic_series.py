"""
Chromatic polynomials and their series numerators
=================================================

Summing chi_G(n) z^n over all n gives a rational function whose numerator
h_G packs the same information as the chromatic polynomial, but with
nonnegative coefficients.  The leading coefficient counts the acyclic
orientations of the graph.
"""

from hstarlib import (
    Graph,
    acyclic_orientations,
    chromatic_polynomial,
    chromatic_via_orientations,
    count_acyclic_orientations,
    expand_series,
    graph_numerator,
    orientation_poset,
)

# The 4-cycle.
graph = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])

# Deletion-contraction gives the chromatic polynomial directly.
chi = chromatic_polynomial(graph)
print("chi coefficients:", [int(c) for c in chi.coeffs])
print("proper 3-colorings:", chi(3))

# Every acyclic orientation induces a poset by reachability; summing their
# strict order polynomials rebuilds chi (a classical identity, checked
# exactly here).  The sweep yields each orientation as its down-set mask:
# bit S is set iff the vertex set S (vertex v is bit v - 1) is closed
# downwards.  The poset is read back off the mask.
assert chromatic_via_orientations(graph) == chi
for ideals in list(acyclic_orientations(graph))[:3]:
    print(f"orientation {ideals:#06x} ->", orientation_poset(graph, ideals))

# The numerator h_G of the chromatic series.  Internally this is computed
# both from chi and from the orientation sum, and the routes must agree.
h_g = graph_numerator(graph)
print("h_G:", h_g.coeffs)
print("acyclic orientations:", count_acyclic_orientations(graph))
assert h_g.coeffs[-1] == count_acyclic_orientations(graph)

# Expanding h_G/(1-z)^{d+1} recovers the chromatic values.
values = expand_series(h_g, graph.d, 6)
print("series expansion:", values)
assert values == [chi(n) for n in range(7)]
print("series expansion matches chi(n)")
