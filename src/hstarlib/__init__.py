"""Exact h*-vectors, order polytopes, chromatic series and their symmetric
decompositions, with an exhaustive/random conjecture-hunting harness.

All arithmetic is exact and lives in one integer domain: counting
polynomials are held by their integer values at n = 0..d, numerators by
their integer coefficients.  A lattice simplex is counted as the
H-polytope of its barycentric inequalities, and an H-polytope given
without a box gets the integer box of its vertices.  There are no
rationals and no floating point.
"""

from .decomp import (
    SymmetricDecomposition,
    ab_decompose,
    graph_decomposition,
    graph_numerator,
    inequality_report,
    open_decomposition,
    order_decomposition,
    stapledon_pair,
)
from .ehrhart import (
    HRepPolytope,
    OrderPolytope,
    Simplex,
    ehrhart_polynomial,
    h_star,
    load_polytope,
    open_numerator,
    parse_polytope,
)
from .errors import (
    BudgetExceeded,
    HstarError,
    InternalConsistencyError,
    InvalidInput,
)
from .graph import (
    Graph,
    acyclic_orientations,
    chromatic_polynomial,
    chromatic_via_orientations,
    count_acyclic_orientations,
    count_proper_colorings,
    orientation_poset,
)
from .harness import (
    Summary,
    VerificationReport,
    enumerate_labeled_graphs,
    enumerate_labeled_posets,
    random_instances,
    verify_all,
)
from .polynomial import (
    CountingPolynomial,
    IntPolynomial,
    expand_series,
    f_to_h,
    interpolate,
    reverse,
    series_numerator,
)
from .poset import (
    Poset,
    descent_h_star,
    ideal_chain_f_vector,
    linear_extensions,
    order_map_counts,
    order_polynomial,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "CountingPolynomial",
    "Graph",
    "HRepPolytope",
    "HstarError",
    "IntPolynomial",
    "InternalConsistencyError",
    "InvalidInput",
    "OrderPolytope",
    "Poset",
    "Simplex",
    "Summary",
    "SymmetricDecomposition",
    "VerificationReport",
    "ab_decompose",
    "acyclic_orientations",
    "chromatic_polynomial",
    "chromatic_via_orientations",
    "count_acyclic_orientations",
    "count_proper_colorings",
    "descent_h_star",
    "ehrhart_polynomial",
    "enumerate_labeled_graphs",
    "enumerate_labeled_posets",
    "expand_series",
    "f_to_h",
    "graph_decomposition",
    "graph_numerator",
    "h_star",
    "ideal_chain_f_vector",
    "inequality_report",
    "interpolate",
    "linear_extensions",
    "load_polytope",
    "open_decomposition",
    "open_numerator",
    "order_decomposition",
    "order_map_counts",
    "order_polynomial",
    "orientation_poset",
    "parse_polytope",
    "random_instances",
    "reverse",
    "series_numerator",
    "stapledon_pair",
    "verify_all",
]
