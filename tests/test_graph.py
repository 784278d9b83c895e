"""Graphs: orientations, induced posets, chromatic polynomials."""

import inspect
import time
import tracemalloc
from collections import Counter
from itertools import combinations, islice, product, repeat
from math import comb, perm, prod

import pytest

from hstarlib import graph as graph_module
from hstarlib.budget import limit
from hstarlib.errors import BudgetExceeded, InternalConsistencyError, InvalidInput
from hstarlib.graph import (
    Graph,
    _mask_map_counts,
    _orientation_tally,
    _packed_counts,
    _packing,
    acyclic_orientations,
    chromatic_polynomial,
    chromatic_via_orientations,
    count_acyclic_orientations,
    count_proper_colorings,
    orientation_poset,
)
from hstarlib.harness import enumerate_labeled_graphs, random_instances, verify_all
from hstarlib.polynomial import IntPolynomial, interpolate
from hstarlib.poset import Poset, order_map_counts
from oracles import count_colorings_by_color, count_order_maps, recursive_acyclic_orientations

K2 = Graph(2, [(1, 2)])
K3 = Graph(3, [(1, 2), (1, 3), (2, 3)])
PATH3 = Graph(3, [(1, 2), (2, 3)])


def brute_acyclic_orientations(graph):
    """Independent enumeration: all 2^|E| subsets, cycle-checked by DFS."""
    edges = graph.sorted_edges()
    found = []
    for bits in range(1 << len(edges)):
        flipped = frozenset(e for k, e in enumerate(edges) if bits >> k & 1)
        adj = {v: [] for v in range(1, graph.d + 1)}
        for i, j in edges:
            if (i, j) in flipped:
                adj[j].append(i)
            else:
                adj[i].append(j)
        state = {v: 0 for v in adj}  # 0 new, 1 on stack, 2 done

        def has_cycle(v):
            state[v] = 1
            for w in adj[v]:
                if state[w] == 1 or (state[w] == 0 and has_cycle(w)):
                    return True
            state[v] = 2
            return False

        if not any(has_cycle(v) for v in adj if state[v] == 0):
            found.append(flipped)
    return found


def brute_arcs(graph, flipped):
    """The edges of ``graph`` as (source, target), each flipped edge j -> i."""
    return [(j, i) if (i, j) in flipped else (i, j) for i, j in graph.sorted_edges()]


def brute_masks(graph):
    """The brute-force orientations as down-set masks of the posets their
    flips generate."""
    return [
        brute_down_sets(Poset(graph.d, brute_arcs(graph, flipped)))
        for flipped in brute_acyclic_orientations(graph)
    ]


def brute_down_sets(poset):
    """The 2^d-bit mask of the vertex sets closed downwards, set by set."""
    d, relations = poset.d, poset.relations
    mask = 0
    for S in range(1 << d):
        if all(S >> (i - 1) & 1 for i, j in relations if S >> (j - 1) & 1):
            mask |= 1 << S
    return mask


SWEEP_CORPORA = [
    [g for d in range(5) for g in enumerate_labeled_graphs(d)],
    list(random_instances("graph", 6, 6, seed=5)),
    list(random_instances("graph", 7, 6, seed=9)),
]
SWEEP_IDS = ["all-d-le-4", "seeded-d6", "seeded-d7"]


def complete_graph(d):
    return Graph(d, [(i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1)])


def path_graph(d, edges):
    """The path 1 - 2 - ... - (edges + 1) among d vertices."""
    return Graph(d, [(v, v + 1) for v in range(1, edges + 1)])


# from d = 6 on, a graph with more than 16 - d edges is swept in several
# batches, each its last edges expanded a level at a time
BATCHED_CORPORA = {
    "K6-to-K8": [complete_graph(d) for d in (6, 7, 8)],
    "seeded-d6-to-d8": [g for d in (6, 7, 8) for g in random_instances("graph", d, 6, seed=d)],
    "path-d9": [path_graph(9, 8)],
}

# sweeps of several batches, each of at most 2^(16 - d) masks: one mask at d = 16
MULTI_BATCH = {
    "C4-and-P5-d10": Graph(10, [(1, 2), (2, 3), (3, 4), (1, 4), *zip(range(5, 9), range(6, 10))]),
    "P7-d12": path_graph(12, 6),
    "K4-and-K2-d14": Graph(14, [*combinations(range(1, 5), 2), (5, 6)]),
    "P4-d16": path_graph(16, 3),
}


def brute_proper_colorings(graph, n):
    """Independent count: all n^d colorings, filtered edge by edge."""
    edges = [(i - 1, j - 1) for i, j in graph.sorted_edges()]
    return sum(
        all(phi[i] != phi[j] for i, j in edges) for phi in product(range(n), repeat=graph.d)
    )


class TestConstruction:
    def test_rejects_loop(self):
        with pytest.raises(InvalidInput):
            Graph(2, [(1, 1)])

    def test_rejects_duplicate(self):
        with pytest.raises(InvalidInput):
            Graph(2, [(1, 2), (2, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInput):
            Graph(2, [(1, 3)])


class TestTextFormat:
    def test_round_trip(self):
        text = K3.to_text()
        assert text == "p 3 3\ne 1 2\ne 1 3\ne 2 3\n"
        assert Graph.from_text(text) == K3

    @pytest.mark.parametrize(
        "text",
        ["", "p 2\ne 1 2\n", "p 2 2\ne 1 2\n", "p 2 1\nr 1 2\n", "p 2 1\ne 1 1\n"],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(InvalidInput):
            Graph.from_text(text)


class TestAcyclicOrientations:
    def test_k2(self):
        assert count_acyclic_orientations(K2) == 2

    def test_k3(self):
        assert count_acyclic_orientations(K3) == 6

    def test_path(self):
        # trees have no cycles: all 2^2 orientations
        assert count_acyclic_orientations(PATH3) == 4

    def test_matches_brute_force(self):
        for d in range(5):
            for graph in enumerate_labeled_graphs(d):
                ours = list(acyclic_orientations(graph))
                assert len(ours) == len(set(ours))  # each exactly once
                assert set(ours) == set(brute_masks(graph))

    @pytest.mark.parametrize("corpus", [*range(6), *BATCHED_CORPORA])
    def test_order_matches_the_recursive_walk(self, corpus):
        # every labeled graph with d <= 5 is swept in one batch
        if corpus in BATCHED_CORPORA:
            graphs = BATCHED_CORPORA[corpus]
        else:
            graphs = enumerate_labeled_graphs(corpus)
        for graph in graphs:
            walked = list(acyclic_orientations(graph))
            assert walked == list(recursive_acyclic_orientations(graph)), graph

    @pytest.mark.parametrize("name", MULTI_BATCH)
    def test_refuses_at_the_orientation_after_the_budget(self, name):
        graph = MULTI_BATCH[name]
        # a batch is charged once, or one mask at a time where that charge
        # would refuse: a budget of b lets b + 1 masks out, then refuses
        walked = list(recursive_acyclic_orientations(graph))
        for budget in range(len(walked) + 2):
            received, refusal = [], None
            with limit(budget):
                try:
                    received.extend(acyclic_orientations(graph))
                except BudgetExceeded as error:
                    refusal = str(error)
            if budget < len(walked):
                message = f"acyclic-orientation sweep needs {budget + 1} steps, budget is {budget}"
                assert (received, refusal) == (walked[: budget + 1], message), budget
            else:
                assert (received, refusal) == (walked, None), budget

    @pytest.mark.parametrize("d", (12, 13, 14))
    def test_the_first_orientation_holds_one_batch(self, d):
        # every orientation of a path is acyclic, so the first batch is full:
        # 2^(16 - d) masks beside at most a stacked state an edge, each 2^d
        # bits, counted twice here
        graph = path_graph(d, d - 1)
        sweep = acyclic_orientations(graph)  # builds the edge steps
        tracemalloc.start()
        try:
            next(sweep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * (len(graph.edges) + 2 ** (16 - d)) * 2**d // 8

    def test_is_a_generator(self):
        # a traced sweep is timed and counted per next()
        assert inspect.isgenerator(acyclic_orientations(K3))

    def test_count_equals_chi_at_minus_one(self):
        for graph in enumerate_labeled_graphs(4):
            chi = chromatic_polynomial(graph)
            assert count_acyclic_orientations(graph) == (-1) ** graph.d * chi(-1)


class TestOrientationPoset:
    def test_k2_default(self):
        mask = brute_down_sets(Poset(2, [(1, 2)]))
        assert orientation_poset(K2, mask) == Poset(2, [(1, 2)])

    def test_k3_default_chain(self):
        chain = Poset(3, [(1, 2), (2, 3)])
        assert orientation_poset(K3, brute_down_sets(chain)) == chain

    def test_path_toward_middle(self):
        # 1 -> 2 <- 3
        poset = orientation_poset(PATH3, brute_down_sets(Poset(3, [(1, 2), (3, 2)])))
        assert poset.relations == frozenset({(1, 2), (3, 2)})

    def test_rejects_cyclic(self):
        # 1 -> 2 -> 3 -> 1 on K3: no down-set separates two vertices
        with pytest.raises(InvalidInput, match="both ways"):
            orientation_poset(K3, 1 << 0b000 | 1 << 0b111)

    def test_rejects_foreign_edges(self):
        # 1 < 3 is no edge of the path, whose edges the mask leaves unoriented
        with pytest.raises(InvalidInput, match="neither way"):
            orientation_poset(PATH3, brute_down_sets(Poset(3, [(1, 3)])))

    def test_masks_of_another_graph_are_not_trusted(self):
        # the flipped orientation 3 -> 1 of Graph(3, [(1, 3)]) leaves 2
        # unrelated, so K3's edge {1, 2} runs neither way
        one_edge = Graph(3, [(1, 3)])
        (flipped,) = [f for f in brute_acyclic_orientations(one_edge) if f]
        mask = brute_down_sets(Poset(3, brute_arcs(one_edge, flipped)))
        assert mask in set(acyclic_orientations(one_edge))
        with pytest.raises(InvalidInput, match=r"edge \(1, 2\) neither way"):
            orientation_poset(K3, mask)
        # a chain's mask orients every edge of K3, but Graph(3) has no arc
        # that generates it
        chain = brute_down_sets(Poset(3, [(1, 2), (2, 3)]))
        with pytest.raises(InvalidInput, match="not the down-set mask"):
            orientation_poset(Graph(3), chain)
        assert orientation_poset(K3, chain) == Poset(3, [(1, 2), (2, 3)])

    def test_bits_beyond_the_vertex_sets_are_refused(self):
        # K2 has 2^2 vertex sets, bits 0..3; bit 4 names no set
        with pytest.raises(InvalidInput, match="not the down-set mask"):
            orientation_poset(K2, 0b11011)
        with pytest.raises(InvalidInput, match=r"orients edge \(1, 2\) both ways"):
            orientation_poset(K2, 1 << 4)
        assert orientation_poset(K2, 0b1011) == Poset(2, [(1, 2)])  # {}, {1}, {1, 2}


class TestMaskMapCounts:
    """The orientation route's map counts, read off the sweep's down-set
    mask, against the poset route and the brute-force oracle."""

    @pytest.mark.parametrize("graphs", SWEEP_CORPORA, ids=SWEEP_IDS)
    def test_mask_is_the_down_sets(self, graphs):
        seen = 0
        for graph in graphs:
            ours = sorted(acyclic_orientations(graph))
            assert ours == sorted(brute_masks(graph))
            seen += len(ours)
        assert seen > len(graphs)

    @pytest.mark.parametrize("graphs", SWEEP_CORPORA, ids=SWEEP_IDS)
    def test_matches_order_map_counts(self, graphs):
        for graph in graphs:
            d = graph.d
            for mask in acyclic_orientations(graph):
                expected = tuple(order_map_counts(orientation_poset(graph, mask), d + 1))
                assert _mask_map_counts(mask, d) == expected, (graph, mask)

    @pytest.mark.parametrize("d", range(4))
    def test_matches_brute_force(self, d):
        for graph in enumerate_labeled_graphs(d):
            for flipped in brute_acyclic_orientations(graph):
                poset = Poset(d, brute_arcs(graph, flipped))
                expected = tuple(count_order_maps(poset, n) for n in range(d + 2))
                assert _mask_map_counts(brute_down_sets(poset), d) == expected, (graph, flipped)

    @pytest.mark.parametrize("d", range(9))
    def test_edgeless_and_complete_graphs(self, d):
        (mask,) = acyclic_orientations(Graph(d))
        counts = _mask_map_counts(mask, d)
        assert counts == tuple(n**d for n in range(d + 2))  # top field (d+1)^d
        # every orientation of K_d is a chain; the first few are checked
        # (K_0 is the edgeless graph above)
        for mask in islice(acyclic_orientations(complete_graph(d)), 5 if d else 0):
            assert _mask_map_counts(mask, d) == tuple(comb(n + d - 1, d) for n in range(d + 2))

    def test_budget_is_the_ideal_count(self):
        for graph in (PATH3, K3, Graph(3), Graph(4, [(1, 2), (3, 4)])):
            for mask in acyclic_orientations(graph):
                size = mask.bit_count()
                assert size == len(orientation_poset(graph, mask).order_ideals())
                message = f"^order-ideal lattice needs {size} steps, budget is {size - 1}$"
                with limit(size - 1), pytest.raises(BudgetExceeded, match=message):
                    _mask_map_counts(mask, graph.d)
                with limit(size):
                    _mask_map_counts(mask, graph.d)

    def test_sweep_charges_the_mask_before_building_it(self):
        # 2^23 bits exceed the default budget: refused at once, no mask built
        with pytest.raises(BudgetExceeded, match="2\\^23 vertex sets"):
            count_acyclic_orientations(Graph(23))
        (mask,) = acyclic_orientations(Graph(0))
        assert mask == 1  # the empty set is the only down-set
        assert _mask_map_counts(mask, 0) == (1, 1)

    def test_packed_size_is_charged_before_packing(self):
        # a 20-vertex path has 2^20 vertex sets but only 21 down-sets per
        # orientation; its 2^20 fields exceed the default budget whatever
        # budget is in force, and no packing of that size is built.  The
        # weak counts at n = 0..21 set w one bit over 21^20's 88 bits
        path = Graph(20, [(v, v + 1) for v in range(1, 20)])
        _packing.cache_clear()
        with pytest.raises(BudgetExceeded, match="2\\^20 fields of 89 bits"):
            chromatic_via_orientations(path)
        mask = next(acyclic_orientations(path))
        assert mask.bit_count() == 21
        with limit(10**12), pytest.raises(BudgetExceeded, match="packed vector"):
            _mask_map_counts(mask, 20)
        assert _packing.cache_info().currsize == 1  # the sweep's 1-bit packing


def every_orientation_tally(graph):
    """The tally with a transform for every orientation, none skipped."""
    return Counter(map(_mask_map_counts, acyclic_orientations(graph), repeat(graph.d)))


def reversed_mask(mask, d):
    """Bit S moved to bit 2^d - 1 - S: every set replaced by its complement."""
    return int(f"{mask:0{1 << d}b}"[::-1], 2)


def outcome(tally, graph):
    try:
        return tally(graph)
    except BudgetExceeded as refusal:
        return str(refusal)


class TestOrientationTally:
    """The tally transforms only the orientations that run the first edge
    forward and doubles their classes: each one's reversal, the dual poset,
    has the same map counts."""

    @pytest.mark.parametrize(
        "graphs",
        [
            [g for d in range(6) for g in enumerate_labeled_graphs(d)],
            [g for d in (6, 7, 8) for g in random_instances("graph", d, 3, seed=d)],
            [Graph(d) for d in range(9)],
        ],
        ids=["all-d-le-5", "seeded-d6-to-d8", "edgeless"],
    )
    def test_equals_the_tally_of_every_orientation(self, graphs):
        for graph in graphs:
            assert _orientation_tally(graph) == every_orientation_tally(graph), graph

    @pytest.mark.parametrize("d", range(6))
    def test_a_reversed_orientation_has_the_same_counts(self, d):
        # the complements of P's down-sets are the down-sets of P*, and
        # Omega_{P*} = Omega_P: the reversed mask is an orientation of the
        # same graph, in the same class
        for graph in enumerate_labeled_graphs(d):
            masks = set(acyclic_orientations(graph))
            for mask in masks:
                dual = reversed_mask(mask, d)
                assert dual in masks
                assert _packed_counts(dual, d) == _packed_counts(mask, d), (graph, mask)

    @pytest.mark.parametrize("broken", ["backward-early", "backward-missing", "one-short"])
    def test_a_broken_order_or_pairing_is_an_internal_error(self, monkeypatch, broken):
        # K2 has one orientation each way: a sweep that ends after the
        # forward one must not pass for a whole one
        real = graph_module.acyclic_orientations

        def swept(graph):
            masks = list(real(graph))
            half = len(masks) // 2
            if broken == "backward-early":
                masks.insert(half // 2, masks.pop(half))
            elif broken == "backward-missing":
                del masks[half:]
            else:
                masks.pop()
            return iter(masks)

        monkeypatch.setattr(graph_module, "acyclic_orientations", swept)
        for graph in (K2, K3, PATH3, complete_graph(4)):
            with pytest.raises(InternalConsistencyError, match="before the first with 2 -> 1"):
                _orientation_tally(graph)

    @pytest.mark.parametrize("steps", range(26))
    def test_refuses_as_the_tally_of_every_orientation(self, steps):
        # a skipped orientation's ideal count is its partner's, and the
        # sweep still charges every orientation it walks
        for graph in (K3, PATH3, complete_graph(4), Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])):
            with limit(steps):
                assert outcome(_orientation_tally, graph) == outcome(
                    every_orientation_tally, graph
                ), graph


class TestColorings:
    def test_k3(self):
        assert count_proper_colorings(K3, 3) == 6

    def test_path(self):
        assert count_proper_colorings(PATH3, 2) == 2

    def test_edgeless(self):
        assert count_proper_colorings(Graph(3), 2) == 8

    def test_budget(self):
        message = "^enumeration of 1000\\^3 colorings needs 1000000000 steps, budget is 100$"
        with limit(100), pytest.raises(BudgetExceeded, match=message):
            count_proper_colorings(K3, 1000)

    def test_budget_is_charged_n_to_the_d(self):
        with limit(27):
            assert count_proper_colorings(K3, 3) == 6
        message = "^enumeration of 3\\^3 colorings needs 27 steps, budget is 26$"
        with limit(26), pytest.raises(BudgetExceeded, match=message):
            count_proper_colorings(K3, 3)

    def test_budget_refuses_before_searching(self):
        # 2^64 colorings: a search started before the charge would not end
        edgeless = Graph(64)
        message = "^enumeration of 2\\^64 colorings needs 18446744073709551616 steps, default"
        with pytest.raises(BudgetExceeded, match=message):
            count_proper_colorings(edgeless, 2)

    def test_one_color_on_many_vertices(self):
        # deeper than the recursion limit; one color is charged only 1
        assert count_proper_colorings(Graph(2000), 1) == 1
        assert count_proper_colorings(Graph(2000, [(7, 1999)]), 1) == 0

    @pytest.mark.parametrize("d", range(5))
    def test_matches_brute_force_on_every_small_graph(self, d):
        # n <= d + 2 reaches past n = d, where the (n)_r weights stop at r = d;
        # n <= 4 is kept for the smallest d
        for graph in enumerate_labeled_graphs(d):
            for n in range(max(5, d + 3)):
                expected = brute_proper_colorings(graph, n)
                assert count_colorings_by_color(graph, n) == expected, (graph, n)
                assert count_proper_colorings(graph, n) == expected, (graph, n)

    @pytest.mark.parametrize("d", (6, 7))
    def test_matches_brute_force_on_seeded_graphs(self, d):
        for graph in random_instances("graph", d, 8, 29):
            for n in range(4):
                expected = brute_proper_colorings(graph, n)
                assert count_proper_colorings(graph, n) == expected, (graph, n)
            for n in range(d + 3):  # past n = 3 the n^d candidates are too many
                expected = count_colorings_by_color(graph, n)
                assert count_proper_colorings(graph, n) == expected, (graph, n)

    def test_a_wrong_weight_fails_chromatic3(self, monkeypatch):
        # (n)_r + 1 colorings per partition into r independent sets: K3 at
        # n = 2 has one partition, into three singletons, so one coloring
        monkeypatch.setattr(graph_module, "perm", lambda n, r: perm(n, r) + 1)
        (report,) = verify_all([K3], ["chromatic3"])
        (check,) = report.checks
        assert (check.status, check.detail) == ("fail", "chi(2) = 0 but 1 colorings are counted")


class TestChromaticPolynomial:
    def test_k2(self):
        assert chromatic_polynomial(K2).coeffs == (0, -1, 1)

    def test_k3(self):
        assert chromatic_polynomial(K3).coeffs == (0, 2, -3, 1)

    def test_path(self):
        # n(n-1)^2 = n^3 - 2n^2 + n
        assert chromatic_polynomial(PATH3).coeffs == (0, 1, -2, 1)

    def test_empty_graph_convention(self):
        assert chromatic_polynomial(Graph(0)).coeffs == (1,)

    def test_one_recursion_per_distinct_graph(self):
        # the run-wide memo answers a repeat and an equal graph: the 4-cycle
        # recurses once, through 12 distinct (d, edges) subproblems in 17
        # calls, and each later call is one hit
        memo = graph_module._deletion_contraction
        memo.cache_clear()
        g = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        chi = chromatic_polynomial(g)
        recursed = memo.cache_info()
        assert (recursed.misses, recursed.hits, recursed.currsize) == (12, 5, 12)
        twin = Graph(4, g.edges)
        assert chromatic_polynomial(g) == chromatic_polynomial(twin) == chi
        again = memo.cache_info()
        assert (again.misses, again.hits) == (recursed.misses, recursed.hits + 2)

    def test_matches_brute_force(self):
        for graph in enumerate_labeled_graphs(4):
            chi = chromatic_polynomial(graph)
            brute = interpolate([count_proper_colorings(graph, n) for n in range(graph.d + 1)])
            assert chi == brute

    @pytest.mark.parametrize("graphs", SWEEP_CORPORA, ids=SWEEP_IDS)
    def test_calls_are_bounded_by_the_orientations(self, graphs):
        # the bound a charged sweep of the a(G) acyclic orientations puts
        # on deletion-contraction: the unmemoised recurrence makes 2a(G) - 1
        # calls, and a memoised call returns at once or makes the same two
        memo = graph_module._deletion_contraction
        saved = 0
        for graph in graphs:
            memo.cache_clear()
            chromatic_polynomial(graph)
            info = memo.cache_info()
            unmemoised = 2 * count_acyclic_orientations(graph) - 1
            assert info.hits + info.misses <= unmemoised, graph
            saved += unmemoised - info.hits - info.misses
        assert saved > 0

    @pytest.mark.parametrize("d", range(11))
    def test_complete_graph_is_the_falling_factorial(self, d):
        chi = chromatic_polynomial(complete_graph(d))
        assert chi.degree == d
        assert all(chi(n) == prod(n - k for k in range(d)) for n in range(-1, d + 2))

    def test_cold_k10_takes_under_a_tenth_of_a_second(self):
        k10 = complete_graph(10)
        graph_module._deletion_contraction.cache_clear()
        start = time.perf_counter()
        chromatic_polynomial(k10)
        assert time.perf_counter() - start < 0.1

    def test_monic_alternating(self):
        for graph in enumerate_labeled_graphs(4):
            chi = chromatic_polynomial(graph)
            assert chi.degree == graph.d and chi[graph.d] == 1
            for k, c in enumerate(chi.coeffs):
                assert c == 0 or (c > 0) == ((graph.d - k) % 2 == 0)


class TestNetworkxOracle:
    """``networkx.chromatic_polynomial`` as an external oracle, compared
    coefficient by coefficient through sympy."""

    @staticmethod
    def networkx_coeffs(graph):
        nx = pytest.importorskip("networkx")
        sympy = pytest.importorskip("sympy")
        g = nx.Graph()
        g.add_nodes_from(range(1, graph.d + 1))
        g.add_edges_from(graph.edges)
        x = sympy.Symbol("x")
        poly = sympy.Poly(nx.chromatic_polynomial(g), x)
        return tuple(int(c) for c in reversed(poly.all_coeffs()))

    @pytest.mark.parametrize("d", range(5))
    def test_every_small_graph(self, d):
        for graph in enumerate_labeled_graphs(d):
            assert chromatic_polynomial(graph).coeffs == self.networkx_coeffs(graph), graph

    def test_seeded_six_vertex_graphs(self):
        for graph in random_instances("graph", 6, 4, 11):
            assert chromatic_polynomial(graph).coeffs == self.networkx_coeffs(graph), graph


class TestChromaticViaOrientations:
    def test_k2(self):
        assert chromatic_via_orientations(K2) == chromatic_polynomial(K2)

    def test_k3_explicit(self):
        # six 3-chain orientations, each strict order polynomial C(n, 3)
        p = chromatic_via_orientations(K3)
        assert p == IntPolynomial([0, 2, -3, 1])
        assert all(p(n) == n * (n - 1) * (n - 2) for n in range(-3, 7))

    def test_edgeless(self):
        p = chromatic_via_orientations(Graph(3))
        assert all(p(n) == n**3 for n in range(5))

    def test_agrees_on_corpus(self):
        for d in range(5):
            for graph in enumerate_labeled_graphs(d):
                assert chromatic_via_orientations(graph) == chromatic_polynomial(graph)

    @pytest.mark.parametrize(
        "graphs",
        [*SWEEP_CORPORA, list(enumerate_labeled_graphs(5))],
        ids=[*SWEEP_IDS, "all-d5"],
    )
    def test_equals_the_per_orientation_strict_sum(self, graphs):
        # the poset route's strict kernel on every orientation, with no
        # reciprocity: the sum the graph route reads off the weak counts
        for graph in graphs:
            d = graph.d
            totals = [0] * (d + 1)
            for mask in acyclic_orientations(graph):
                poset = orientation_poset(graph, mask)
                for n, count in enumerate(order_map_counts(poset, d, strict=True)):
                    totals[n] += count
            chi = chromatic_polynomial(graph)
            assert chromatic_via_orientations(graph) == interpolate(totals) == chi, graph

    def test_a_wrong_top_weak_count_decides(self, monkeypatch):
        # one class's weak counts, one too many at n = d + 1, the value that
        # only the interpolation of W reads: the orientation route must then
        # disagree with deletion-contraction in chromatic3
        real = graph_module._mask_map_counts
        chain = real(next(acyclic_orientations(K3)), 3)  # K3's classes are all chains

        def perturbed(ideals, d):
            counts = real(ideals, d)
            return (*counts[:-1], counts[-1] + 1) if counts == chain else counts

        monkeypatch.setattr(graph_module, "_mask_map_counts", perturbed)
        (report,) = verify_all([K3], ["chromatic3"])
        (check,) = report.checks
        assert (check.status, check.detail) == (
            "fail",
            "deletion-contraction and orientation sum disagree",
        )
        # six orientations in one class add 6 C(n, 4) to W, so chi(n) loses
        # 6 C(n + 3, 4): 0, 0, 0, 6 read as 0, -6, -30, -84
        assert check.witnesses["chi_ao_values"] == ("0", "-6", "-30", "-84")
