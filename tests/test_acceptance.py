"""Acceptance suite: every criterion at its stated tolerance, one line each.

All equalities are exact (integer/rational); the only tolerances are the
wall-clock budgets, asserted per criterion.  Run with `pytest
tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import time
from itertools import permutations

import pytest

from hstarlib.cli import main as cli_main
from hstarlib.decomp import (
    graph_decomposition,
    graph_numerator,
    inequality_report,
    open_decomposition,
    order_decomposition,
)
from hstarlib.ehrhart import OrderPolytope, h_star, open_numerator
from hstarlib.graph import (
    Graph,
    chromatic_polynomial,
    chromatic_via_orientations,
    count_acyclic_orientations,
    count_proper_colorings,
)
from hstarlib.harness import (
    Summary,
    dilated_cube,
    dilated_simplex,
    enumerate_labeled_graphs,
    enumerate_labeled_posets,
    random_instances,
    verify_all,
)
from hstarlib.polynomial import IntPolynomial, expand_series, f_to_h
from hstarlib.poset import (
    Poset,
    descent_h_star,
    ideal_chain_f_vector,
    order_polynomial,
)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def posets4():
    return list(enumerate_labeled_posets(4))


@pytest.fixture(scope="module")
def posets5():
    return list(enumerate_labeled_posets(5))


@pytest.fixture(scope="module")
def graph_corpus():
    graphs = list(enumerate_labeled_graphs(5))
    graphs.extend(random_instances("graph", 6, 100, seed=601))
    graphs.extend(random_instances("graph", 7, 100, seed=701))
    return graphs


def test_criterion_1_three_way_hstar(posets4, posets5):
    start = time.perf_counter()
    checked = 0
    for poset in posets4 + posets5:
        via_counts = h_star(OrderPolytope(poset))
        via_descents = descent_h_star(poset)
        via_chains = f_to_h(ideal_chain_f_vector(poset), poset.d)
        assert via_counts == via_descents == via_chains, poset
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 219 + 4231 and elapsed < 5
    report(1, ok, f"three-way h* agreement on {checked} posets in {elapsed:.1f}s")


def test_criterion_2_reciprocity(posets4, posets5):
    start = time.perf_counter()
    for poset in posets4 + posets5:
        d = poset.d
        polytope = OrderPolytope(poset)
        interior = polytope.count_series(d + 2, interior=True)
        series = expand_series(open_numerator(h_star(polytope), d), d, d + 2)
        assert interior[1:] == series[1:], poset
        weak = order_polynomial(poset)
        strict = order_polynomial(poset, strict=True)
        for n in range(1, d + 3):
            assert strict(n) == (-1) ** d * weak(-n), poset
    elapsed = time.perf_counter() - start
    report(2, elapsed < 5, f"interior counts and order reciprocity exact in {elapsed:.1f}s")


def test_criterion_3_open_decomposition(posets5):
    start = time.perf_counter()
    corpus = []
    for d in range(5):
        corpus.extend(enumerate_labeled_posets(d))
    corpus.extend(posets5)
    checked = 0
    for poset in corpus:
        hs = h_star(OrderPolytope(poset))
        a_p, b_p = open_decomposition(hs, poset.d)
        assert a_p.is_nonnegative() and b_p.is_nonnegative(), poset
        assert a_p - b_p == open_numerator(hs, poset.d), poset
        checked += 1
    for d in range(1, 5):
        for k in range(1, 4):
            for polytope in (dilated_simplex(d, k), dilated_cube(d, k)):
                hs = h_star(polytope)
                a_p, b_p = open_decomposition(hs, d)
                assert a_p.is_nonnegative() and b_p.is_nonnegative(), polytope
                assert a_p - b_p == open_numerator(hs, d), polytope
                checked += 1
    # golden case: leg-2 right triangle
    a_p, b_p = open_decomposition(IntPolynomial([1, 3]), 2)
    assert a_p.coeffs == (1, 4, 4, 1) and b_p.coeffs == (1, 4, 1)
    elapsed = time.perf_counter() - start
    ok = elapsed < 2
    report(3, ok, f"open split nonnegative on {checked} polytopes in {elapsed:.1f}s")


def test_criterion_4_order_decomposition(posets5):
    start = time.perf_counter()
    for poset in posets5:
        a_pi, b_pi = order_decomposition(h_star(OrderPolytope(poset)), poset.d)
        assert (-a_pi).is_nonnegative() and b_pi.is_nonnegative(), poset
    # golden case: the 2-chain
    a_pi, b_pi = order_decomposition(IntPolynomial([1]), 2)
    assert a_pi.coeffs == (0, -1, -1) and b_pi.coeffs == (1, 1, 1)
    elapsed = time.perf_counter() - start
    report(4, True, f"order split signs on {len(posets5)} posets in {elapsed:.1f}s")


def test_criterion_5_chromatic_decomposition(graph_corpus):
    start = time.perf_counter()
    for graph in graph_corpus:
        d = graph.d
        h_g = graph_numerator(graph)  # verifies both routes agree internally
        a, b = graph_decomposition(graph)  # verifies z h_G reconstruction
        assert a + b.shift(1) == h_g.shift(1), graph
        assert (-a).is_nonnegative() and b.is_nonnegative(), graph
        assert h_g.degree == d and h_g.is_nonnegative(), graph
        orientations = count_acyclic_orientations(graph)
        assert h_g[d] == orientations == (-1) ** d * chromatic_polynomial(graph)(-1)
        assert all(line.value >= 0 for line in inequality_report(h_g, d, "theorem4")), graph
    elapsed = time.perf_counter() - start
    ok = len(graph_corpus) == 1224 and elapsed < 8
    report(5, ok, f"thm 1.3/1.4 on {len(graph_corpus)} graphs in {elapsed:.1f}s")


def test_criterion_6_chromatic_triple_agreement(graph_corpus):
    start = time.perf_counter()
    for graph in graph_corpus:
        chi = chromatic_polynomial(graph)
        assert chi == chromatic_via_orientations(graph), graph
        for n in range(5):
            assert chi(n) == count_proper_colorings(graph, n), graph
    elapsed = time.perf_counter() - start
    ok = elapsed < 6
    report(6, ok, f"chromatic triple agreement on {len(graph_corpus)} graphs in {elapsed:.1f}s")


def test_criterion_7_golden_values():
    k2 = Graph(2, [(1, 2)])
    k3 = Graph(3, [(1, 2), (1, 3), (2, 3)])
    path3 = Graph(3, [(1, 2), (2, 3)])
    assert graph_numerator(k2).coeffs == (0, 0, 2)
    a, b = graph_decomposition(k2)
    assert a.coeffs == (0, -2, -2) and b.coeffs == (2, 2, 2)
    assert graph_numerator(k3).coeffs == (0, 0, 0, 6)
    assert graph_numerator(path3).coeffs == (0, 0, 2, 4)

    # Eulerian rows by permutation-descent brute force
    def eulerian_row(d):
        counts = [0] * d
        for w in permutations(range(1, d + 1)):
            counts[sum(1 for x, y in zip(w, w[1:]) if x > y)] += 1
        return tuple(c for c in counts if c)

    assert eulerian_row(3) == (1, 4, 1)
    assert eulerian_row(4) == (1, 11, 11, 1)
    assert h_star(OrderPolytope(Poset(3))).coeffs == (1, 4, 1)
    assert h_star(OrderPolytope(Poset(4))).coeffs == (1, 11, 11, 1)
    report(7, True, "golden numerators, decompositions and Eulerian rows")


def test_criterion_8_conjecture_harness(posets5, graph_corpus):
    start = time.perf_counter()
    summary = Summary()
    for rep in verify_all(posets5, ["conj6.2"]):
        summary.add(rep)
    for rep in verify_all(graph_corpus, ["conj6.1", "conj6.4"]):
        summary.add(rep)
    clean = summary.failures == 0 and summary.skipped == 0

    # mutation self-test: the failure path must fire with a witness
    mutated_failures = 0
    witnessed = True
    for rep in verify_all(enumerate_labeled_graphs(3), ["conj6.1"], mutate=True):
        for check in rep.checks:
            if check.status == "fail":
                mutated_failures += 1
                witnessed = witnessed and bool(check.witnesses) and bool(rep.input_text)
    exit_code = cli_main(
        ["verify", "--graphs", "3", "--checks", "conj6.1", "--mutate-selftest"]
    )
    elapsed = time.perf_counter() - start
    ok = clean and mutated_failures > 0 and witnessed and exit_code == 1 and elapsed < 8
    report(
        8,
        ok,
        f"0 counterexamples over {summary.inputs} inputs, mutation self-test fired "
        f"{mutated_failures} failures, exit {exit_code}, in {elapsed:.1f}s",
    )
