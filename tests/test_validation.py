"""Each input fault the library validates is InvalidInput with its one-line message."""

import re

import pytest

from hstarlib.decomp import inequality_report, order_decomposition
from hstarlib.ehrhart import HRepPolytope, OrderPolytope, Simplex, open_numerator
from hstarlib.errors import InvalidInput
from hstarlib.graph import Graph, count_proper_colorings
from hstarlib.harness import (
    enumerate_labeled_graphs,
    enumerate_labeled_posets,
    random_instances,
    verify_all,
)
from hstarlib.polynomial import IntPolynomial, expand_series, interpolate, reverse, series_numerator
from hstarlib.poset import Poset, order_map_counts

SQUARE = [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)]
H = IntPolynomial([1, 1, 1])  # degree 2

CASES = {
    "hrep-dimension-0": (lambda: HRepPolytope([], 0), "HRep dimension must be at least 1"),
    "hrep-normal-length": (
        lambda: HRepPolytope([((1,), 1)], 2),
        "normal vector of wrong dimension",
    ),
    "hrep-box-length": (
        lambda: HRepPolytope(SQUARE, 2, box=([0], [1])),
        "box must give d lower and d upper bounds",
    ),
    "hrep-box-empty": (
        lambda: HRepPolytope(SQUARE, 2, box=([0, 1], [1, 0])),
        "empty bounding box; polytope has no points",
    ),
    "simplex-no-vertices": (lambda: Simplex([]), "simplex needs vertices"),
    "simplex-mixed-dimension": (
        lambda: Simplex([[0, 0], [1], [0, 1]]),
        "vertices of mixed dimension",
    ),
    "graph-negative": (lambda: Graph(-1), "vertex count must be nonnegative"),
    "poset-negative": (lambda: Poset(-1), "poset size must be nonnegative"),
    "hrep-count-negative": (
        lambda: HRepPolytope(SQUARE, 2).count_points(-1),
        "n must be nonnegative",
    ),
    "colorings-negative": (
        lambda: count_proper_colorings(Graph(2), -1),
        "n must be nonnegative",
    ),
    "colorings-non-integer": (
        lambda: count_proper_colorings(Graph(1), 2.5),
        "2.5 is not an integer",
    ),
    "colorings-non-integer-on-an-edge": (
        lambda: count_proper_colorings(Graph(2, [(1, 2)]), 2.5),
        "2.5 is not an integer",
    ),
    "order-map-counts-non-integer": (
        lambda: order_map_counts(Poset(2), 2.0),
        "2.0 is not an integer",
    ),
    "order-polytope-series-non-integer": (
        lambda: OrderPolytope(Poset(2)).count_series(2.0),
        "2.0 is not an integer",
    ),
    "order-polytope-count-non-integer": (
        lambda: OrderPolytope(Poset(2)).count_points(2.0),
        "2.0 is not an integer",
    ),
    "hrep-count-non-integer": (
        lambda: HRepPolytope(SQUARE, 2).count_points(2.5),
        "2.5 is not an integer",
    ),
    "enumerate-posets-negative": (
        lambda: list(enumerate_labeled_posets(-1)),
        "d must be nonnegative",
    ),
    "enumerate-graphs-negative": (
        lambda: list(enumerate_labeled_graphs(-1)),
        "d must be nonnegative",
    ),
    "enumerate-posets-negative-max-size": (
        lambda: list(enumerate_labeled_posets(0, max_size=-1)),
        "max_size must be nonnegative",
    ),
    "enumerate-graphs-negative-max-size": (
        lambda: list(enumerate_labeled_graphs(0, max_size=-1)),
        "max_size must be nonnegative",
    ),
    "random-d-negative": (
        lambda: list(random_instances("graph", -1, 1, seed=0)),
        "d and count must be nonnegative",
    ),
    "random-count-negative": (
        lambda: list(random_instances("graph", 2, -1, seed=0)),
        "d and count must be nonnegative",
    ),
    "reverse-negative": (
        lambda: reverse(IntPolynomial([1]), -1),
        "reversal degree must be nonnegative",
    ),
    "series-numerator-negative": (
        lambda: series_numerator(interpolate([1]), -1),
        "d must be nonnegative",
    ),
    "expand-series-negative": (
        lambda: expand_series(IntPolynomial([1]), -1, 3),
        "d and N must be nonnegative",
    ),
    "open-numerator-past-degree": (
        lambda: open_numerator(H, 1),
        "degree 2 exceeds ambient d = 1",
    ),
    "inequality-report-past-degree": (
        lambda: inequality_report(H, 1, "theorem4"),
        "degree 2 exceeds ambient degree 1",
    ),
    "order-decomposition-d0": (
        lambda: order_decomposition(IntPolynomial([2]), 0),
        "the only 0-dimensional order polytope has h* = 1",
    ),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_input_fault_is_one_line_invalid_input(call, message):
    with pytest.raises(InvalidInput) as info:
        call()
    assert str(info.value) == message


def test_unsupported_corpus_item():
    with pytest.raises(InvalidInput) as info:
        list(verify_all([object()]))
    assert re.fullmatch(r"unsupported corpus item <object object at 0x[0-9a-f]+>", str(info.value))
