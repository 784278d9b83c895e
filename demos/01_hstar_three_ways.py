"""
Three routes to the h*-polynomial of an order polytope
======================================================

The order polytope of a poset on d elements lives in the unit cube: one
coordinate per element, with x_i <= x_j whenever i is below j.  Its h*
polynomial (the numerator of the Ehrhart series) can be computed in three
genuinely different ways, and they always agree.
"""

from hstarlib import (
    OrderPolytope,
    Poset,
    descent_h_star,
    ehrhart_polynomial,
    f_to_h,
    h_star,
    ideal_chain_f_vector,
    linear_extensions,
)

# A small poset: 1 below both 2 and 3, element 4 incomparable to everything.
poset = Poset(4, [(1, 2), (1, 3)])
polytope = OrderPolytope(poset)

# Route 1: count lattice points in the dilates 0..d and extract the series
# numerator.  Counting never touches geometry; closed dilate counts are
# order-preserving maps into a chain.
print("dilate counts:", [polytope.count_points(n) for n in range(5)])
# The Ehrhart polynomial is held by those counts at n = 0..d and their
# forward differences (its coordinates in the binomial basis C(n, k)); it
# evaluates exactly anywhere, and at -n it counts interior points.
ehr = ehrhart_polynomial(polytope)
print("Ehrhart values at n = 0..d:  ", list(ehr.values))
print("forward differences:         ", list(ehr.differences))
print("L(-n) for n = 1..4:           ", [ehr(-n) for n in range(1, 5)])
interior = [polytope.count_points(n, interior=True) for n in range(1, 5)]
print("interior counts, n = 1..4:   ", interior)
print("h* from counts:   ", h_star(polytope).coeffs)

# Route 2: sum z^descents over the linear extensions of the poset.
print("linear extensions:", list(linear_extensions(poset)))
print("h* from descents: ", descent_h_star(poset).coeffs)

# Route 3: count chains of order ideals (the faces of the canonical
# unimodular triangulation) and run the face-to-h transform.
f = ideal_chain_f_vector(poset)
print("ideal-chain f-polynomial:", f.coeffs)
print("h* from ideal chains:", f_to_h(f, poset.d).coeffs)

assert h_star(polytope) == descent_h_star(poset) == f_to_h(f, poset.d)
print("all three routes agree")
