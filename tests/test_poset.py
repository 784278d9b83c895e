"""Posets: extensions, descents, order maps, ideal chains.

The brute-force oracles (permutation filtering here, exhaustive map
counting in ``oracles``) double-check the faster library routes on the
small corpus.
"""

import random
import re
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest

import hstarlib.poset as poset_module
from hstarlib.budget import limit
from hstarlib.ehrhart import HRepPolytope, Simplex
from hstarlib.errors import BudgetExceeded, InvalidInput
from hstarlib.graph import Graph
from hstarlib.harness import enumerate_labeled_posets, random_instances
from hstarlib.polynomial import IntPolynomial, f_to_h
from hstarlib.poset import (
    Poset,
    descent_h_star,
    ideal_chain_f_vector,
    linear_extensions,
    order_map_counts,
    order_polynomial,
)
from oracles import count_order_maps, layered_ideal_chain_f_vector, walk_descent_h_star


def longest_chain(poset):
    """Size of a largest totally ordered subset, trying every subset."""
    rels = poset.relations
    return max(
        len(s)
        for k in range(poset.d + 1)
        for s in combinations(range(1, poset.d + 1), k)
        if all((a, b) in rels or (b, a) in rels for a, b in combinations(s, 2))
    )


def dfs_reach(d, rels):
    """Elements reachable from each element along one or more relations."""
    succ = {i: [j for a, j in rels if a == i] for i in range(1, d + 1)}
    reach = {}
    for start in succ:
        seen, stack = set(), list(succ[start])
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(succ[v])
        reach[start] = seen
    return reach


CHAIN2 = Poset(2, [(1, 2)])
CHAIN3 = Poset(3, [(1, 2), (2, 3)])
ANTI2 = Poset(2)
ANTI3 = Poset(3)
VEE = Poset(3, [(1, 2), (1, 3)])


def brute_extensions(poset):
    """Filter all permutations: w is an extension iff related elements keep order."""
    rels = poset.relations
    out = []
    for w in permutations(range(1, poset.d + 1)):
        pos = {e: k for k, e in enumerate(w)}
        if all(pos[i] < pos[j] for i, j in rels):
            out.append(w)
    return out


def brute_descent_poly(poset):
    """Descents against the lexicographically first extension's ranks."""
    extensions = brute_extensions(poset)
    rank = {e: pos for pos, e in enumerate(min(extensions))}
    counts = [0] * max(poset.d, 1)
    for w in extensions:
        counts[sum(1 for a, b in zip(w, w[1:]) if rank[a] > rank[b])] += 1
    return IntPolynomial(counts)


class TestConstruction:
    def test_closure(self):
        assert CHAIN3.relations == frozenset({(1, 2), (2, 3), (1, 3)})

    def test_cover_relations_drop_implied(self):
        p = Poset(3, [(1, 2), (2, 3), (1, 3)])
        assert p.cover_relations == ((1, 2), (2, 3))

    def test_closure_is_charged_to_the_budget_in_force(self):
        # 2237^2 closure steps are one past the default budget
        steps = 2237**2
        message = f"^transitive closure needs {steps} steps, default budget is 5000000$"
        with pytest.raises(BudgetExceeded, match=message):
            Poset(2237)
        with limit(steps):
            assert Poset(2237).d == 2237

    def test_rejects_cycle_with_diagnostic(self):
        with pytest.raises(InvalidInput, match="cycle"):
            Poset(3, [(1, 2), (2, 3), (3, 1)])

    def test_closure_matches_dfs_reachability(self):
        # half the relation lists follow a random linear order (acyclic),
        # half are arbitrary and mostly cyclic; both outcomes must occur
        rng = random.Random(2016)
        outcomes = set()
        for trial in range(600):
            d = rng.randint(2, 7)
            order = rng.sample(range(1, d + 1), d)
            rels = []
            for _ in range(rng.randint(0, 2 * d)):
                i, j = rng.sample(range(1, d + 1), 2)
                if trial % 2 == 0 and order.index(i) > order.index(j):
                    i, j = j, i
                rels.append((i, j))
            reach = dfs_reach(d, rels)
            looped = [i for i in range(1, d + 1) if i in reach[i]]
            outcomes.add(bool(looped))
            if not looped:
                closed = {(i, j) for i in range(1, d + 1) for j in reach[i]}
                assert Poset(d, rels).relations == closed, rels
                continue
            with pytest.raises(InvalidInput) as info:
                Poset(d, rels)
            message = str(info.value)
            assert message.startswith("relations contain the cycle "), message
            cycle = [int(v) for v in message.rsplit("cycle ", 1)[1].split(" < ")]
            # the cycle starts at the least element that reaches itself
            assert cycle[0] == cycle[-1] == looped[0], (rels, message)
            assert all(pair in rels for pair in zip(cycle, cycle[1:])), (rels, message)
        assert outcomes == {False, True}

    def test_rejects_reflexive(self):
        with pytest.raises(InvalidInput, match="cycle"):
            Poset(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInput):
            Poset(2, [(1, 3)])


UNIT_INTERVAL = [((-1,), 0)]


@pytest.mark.parametrize(
    "build, value",
    [
        # 1.5x <= 3 was read as x <= 3, and given h* [1, 2] for [1, 1]
        pytest.param(lambda: HRepPolytope([((1.5,), 3), *UNIT_INTERVAL], 1), 1.5, id="normal"),
        pytest.param(lambda: HRepPolytope([((1,), 2.5), *UNIT_INTERVAL], 1), 2.5, id="bound"),
        pytest.param(
            lambda: HRepPolytope([((Fraction(1, 2),), 3), *UNIT_INTERVAL], 1),
            Fraction(1, 2),
            id="fraction-normal",
        ),
        pytest.param(
            lambda: HRepPolytope([((1,), 3), *UNIT_INTERVAL], 1, ([0], [2.0])), 2.0, id="box"
        ),
        pytest.param(lambda: HRepPolytope([((1,), 3), *UNIT_INTERVAL], 1.0), 1.0, id="hrep-d"),
        # read as the simplex (0, 0), (2, 0), (0, 1)
        pytest.param(lambda: Simplex([[0.9, 0], [2.7, 0], [0, 1.2]]), 0.9, id="vertex"),
        pytest.param(lambda: Poset(2, [(1.0, 2)]), 1.0, id="relation"),
        pytest.param(lambda: Poset(2.0), 2.0, id="poset-d"),
        pytest.param(lambda: Graph(3, [(1.0, 2)]), 1.0, id="edge"),
        pytest.param(lambda: Graph(3.0), 3.0, id="graph-d"),
    ],
)
def test_constructors_refuse_non_integers(build, value):
    # a value that is not an integer is refused by name, never truncated
    with pytest.raises(InvalidInput, match=f"^{re.escape(repr(value))} is not an integer$"):
        build()


class TestTextFormat:
    def test_round_trip(self):
        text = VEE.to_text()
        assert text == "p 3 2\nr 1 2\nr 1 3\n"
        assert Poset.from_text(text) == VEE

    def test_closure_on_parse(self):
        p = Poset.from_text("p 3 3\nr 1 2\nr 2 3\nr 1 3\n")
        assert p == CHAIN3

    def test_comments_and_blanks(self):
        p = Poset.from_text("c a chain\n\np 2 1\nr 1 2\n")
        assert p == CHAIN2

    @pytest.mark.parametrize(
        "text",
        ["", "p 2\nr 1 2\n", "p 2 2\nr 1 2\n", "p 2 1\ne 1 2\n", "q 2 1\nr 1 2\n"],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(InvalidInput):
            Poset.from_text(text)


class TestLinearExtensions:
    def test_chain_unique(self):
        assert list(linear_extensions(CHAIN3)) == [(1, 2, 3)]

    def test_antichain_all(self):
        assert sorted(linear_extensions(ANTI3)) == sorted(permutations((1, 2, 3)))

    def test_vee(self):
        assert list(linear_extensions(VEE)) == [(1, 2, 3), (1, 3, 2)]

    def test_lexicographic_order(self):
        assert list(linear_extensions(ANTI3))[0] == (1, 2, 3)

    def test_matches_brute_force(self):
        for d in range(5):
            for poset in enumerate_labeled_posets(d):
                assert list(linear_extensions(poset)) == brute_extensions(poset)


class TestDescents:
    def test_chain(self):
        assert descent_h_star(CHAIN3).coeffs == (1,)

    def test_antichain_two(self):
        assert descent_h_star(ANTI2).coeffs == (1, 1)

    def test_antichain_three_eulerian(self):
        assert descent_h_star(ANTI3).coeffs == (1, 4, 1)

    def test_extension_count_at_one(self):
        for poset in enumerate_labeled_posets(4):
            assert descent_h_star(poset)(1) == len(brute_extensions(poset))

    def test_matches_brute_force(self):
        for d in range(5):
            for poset in enumerate_labeled_posets(d):
                assert descent_h_star(poset) == brute_descent_poly(poset)

    def test_dp_is_charged_its_running_count_of_states(self):
        # the 3-antichain has 3, 6 and 3 (down-set, last element) states a
        # layer; three disjoint 4-chains have 300, and the layer that
        # takes the running count from 198 to 240 is refused under 200
        with limit(12):
            assert descent_h_star(ANTI3).coeffs == (1, 4, 1)
        message = "^descent DP needs 12 steps, budget is 11$"
        with limit(11), pytest.raises(BudgetExceeded, match=message):
            descent_h_star(ANTI3)
        chains = Poset(12, [(c + k, c + k + 1) for c in (1, 5, 9) for k in range(3)])
        with limit(300):
            assert descent_h_star(chains)(1) == 34650  # 12! / (4!)^3 extensions
        with limit(299), pytest.raises(BudgetExceeded, match="DP needs 300 steps, budget is 299$"):
            descent_h_star(chains)
        with limit(200), pytest.raises(BudgetExceeded, match="DP needs 240 steps, budget is 200$"):
            descent_h_star(chains)

    def test_matches_the_extension_walk(self):
        posets = [p for d in range(6) for p in enumerate_labeled_posets(d)]
        for d, seed in ((6, 61), (7, 71), (8, 81)):
            posets += random_instances("poset", d, 40, seed=seed)
        for poset in posets:
            assert descent_h_star(poset) == walk_descent_h_star(poset), poset

    def test_antichains_give_the_eulerian_numbers(self):
        for d in range(11):
            eulerian = [
                sum((-1) ** j * comb(d + 1, j) * (m + 1 - j) ** d for j in range(m + 1))
                for m in range(max(d, 1))
            ]
            assert descent_h_star(Poset(d)).coeffs == tuple(eulerian), d

    def test_reads_neither_the_ideal_lattice_nor_the_extensions(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the descent route must stand alone")

        monkeypatch.setattr(Poset, "order_ideals", refuse)
        monkeypatch.setattr(poset_module, "linear_extensions", refuse)
        assert descent_h_star(VEE).coeffs == (1, 1)

    def test_d9_antichain_under_a_tenth_of_a_second(self):
        start = time.perf_counter()
        assert descent_h_star(Poset(9))(1) == 362880
        assert time.perf_counter() - start < 0.1

    def test_labeling_independent_of_input_labels(self):
        # same unlabeled vee, relabeled: descent polynomial is unchanged
        relabeled = Poset(3, [(3, 1), (3, 2)])
        assert descent_h_star(relabeled) == descent_h_star(VEE)


class TestOrderMaps:
    def test_chain_weak(self):
        assert count_order_maps(CHAIN2, 2) == 3

    def test_chain_strict(self):
        assert count_order_maps(CHAIN2, 2, strict=True) == 1

    def test_antichain_unconstrained(self):
        assert count_order_maps(ANTI3, 2) == 8

    def test_n_zero(self):
        assert count_order_maps(CHAIN2, 0) == 0
        assert count_order_maps(Poset(0), 0) == 1

    def test_budget_refusal(self):
        message = "^enumeration of 100\\^3 maps needs 1000000 steps, budget is 1000$"
        with limit(1000), pytest.raises(BudgetExceeded, match=message):
            count_order_maps(ANTI3, 100)

    @pytest.mark.parametrize("strict", [False, True])
    def test_ideal_walk_rejects_negative_n(self, strict):
        # count_order_maps rejects negative n the same way
        for poset in (Poset(0), CHAIN2, ANTI3):
            with pytest.raises(InvalidInput, match="n must be nonnegative"):
                order_map_counts(poset, -1, strict)
            assert order_map_counts(poset, 0, strict) == [int(poset.d == 0)]

    def test_ideal_walk_matches_brute_force(self):
        # h_star asks for n = 0..d+1; one more step guards the step count
        for d in range(5):
            for poset in enumerate_labeled_posets(d):
                for strict in (False, True):
                    fast = order_map_counts(poset, d + 2, strict)
                    brute = [count_order_maps(poset, n, strict) for n in range(d + 3)]
                    assert fast == brute, (poset, strict)

    @pytest.mark.parametrize("d", [6, 7])
    def test_ideal_walk_matches_brute_force_random(self, d):
        for poset in random_instances("poset", d, 30, seed=d, relation_probability=0.3):
            for strict in (False, True):
                fast = order_map_counts(poset, 3, strict)
                brute = [count_order_maps(poset, n, strict) for n in range(4)]
                assert fast == brute, (poset, strict)


class TestOrderPolynomial:
    def test_chain_weak(self):
        # counts 0, 1, 3 interpolate to n(n+1)/2
        assert order_polynomial(CHAIN2)(5) == 15

    def test_chain_strict(self):
        assert order_polynomial(CHAIN2, strict=True)(5) == 10

    def test_antichain_power(self):
        for strict in (False, True):
            p = order_polynomial(ANTI3, strict=strict)
            assert all(p(n) == n**3 for n in range(6))

    def test_reciprocity(self):
        for poset in enumerate_labeled_posets(4):
            weak = order_polynomial(poset)
            strict = order_polynomial(poset, strict=True)
            d = poset.d
            for n in range(1, d + 3):
                assert strict(n) == (-1) ** d * weak(-n)

    def test_normalization_values(self):
        for poset in enumerate_labeled_posets(4):
            assert order_polynomial(poset)(1) == 1
            strict = order_polynomial(poset, strict=True)
            for n in range(1, longest_chain(poset)):
                assert strict(n) == 0


class TestOrderIdeals:
    @pytest.mark.parametrize("d", range(5))
    def test_matches_brute_force_down_sets(self, d):
        # every subset closed under going down, among all 2^d subsets
        for poset in enumerate_labeled_posets(d):
            down_sets = [
                s
                for s in range(1 << d)
                if all(
                    not (s >> (j - 1)) & 1 or (s >> (i - 1)) & 1
                    for i, j in poset.relations
                )
            ]
            expected = sorted(down_sets, key=lambda s: (bin(s).count("1"), s))
            assert list(poset.order_ideals()) == expected, poset


class TestOrderIdealBudget:
    """The lattice is charged its size, so it refuses exactly above |J(P)|."""

    def test_antichain_threshold(self):
        refused, built = Poset(10), Poset(10)
        message = "^order-ideal lattice needs 1024 steps, budget is 1023$"
        with limit(1023), pytest.raises(BudgetExceeded, match=message):
            refused.order_ideals()
        with limit(1024):
            assert len(built.order_ideals()) == 1024

    def test_chain_threshold(self):
        refused, built = (Poset(10, [(i, i + 1) for i in range(1, 10)]) for _ in range(2))
        message = "^order-ideal lattice needs 11 steps, budget is 10$"
        with limit(10), pytest.raises(BudgetExceeded, match=message):
            refused.order_ideals()
        with limit(11):
            assert len(built.order_ideals()) == 11

    def test_refusal_caches_nothing(self):
        poset = Poset(10)
        message = "^order-ideal lattice needs 1024 steps, budget is 1023$"
        with limit(1023), pytest.raises(BudgetExceeded, match=message):
            poset.order_ideals()
        with limit(1024):
            assert len(poset.order_ideals()) == 1024

    def test_refusal_comes_before_the_lattice_is_built(self):
        # the antichain on 20 elements has 2^20 ideals; refused at 10^6, it
        # holds at most the 2^19 ideals of its first 19 elements
        message = "^order-ideal lattice needs 1048576 steps, budget is 1000000$"
        tracemalloc.start()
        try:
            with limit(10**6), pytest.raises(BudgetExceeded, match=message):
                Poset(20).order_ideals()
            refused = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            with limit(2**20):
                assert len(Poset(20).order_ideals()) == 2**20
            built = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert refused < 0.6 * built, (refused, built)


class TestIdealChains:
    def test_chain_of_two(self):
        assert ideal_chain_f_vector(CHAIN2).coeffs == (1, 3, 3, 1)

    def test_antichain_of_two(self):
        assert ideal_chain_f_vector(ANTI2).coeffs == (1, 4, 5, 2)

    def test_single_element(self):
        assert ideal_chain_f_vector(Poset(1)).coeffs == (1, 2, 1)

    def test_budget_refusal(self):
        antichain = Poset(10)
        message = "^order-ideal lattice needs 128 steps, budget is 100$"
        with limit(100), pytest.raises(BudgetExceeded, match=message):
            ideal_chain_f_vector(antichain)

    def test_f_to_h_bridge(self):
        for poset in enumerate_labeled_posets(4):
            f = ideal_chain_f_vector(poset)
            assert f_to_h(f, poset.d) == descent_h_star(poset)

    def test_pair_tests_are_charged_first(self):
        # the 3-antichain has 8 ideals and 28 pairs of them; the
        # 12-antichain's 4096 ideals make 8386560 pairs
        with limit(28):
            assert ideal_chain_f_vector(ANTI3).coeffs == (1, 8, 19, 18, 6)
        message = "^ideal-chain pass needs 28 steps, budget is 27$"
        with limit(27), pytest.raises(BudgetExceeded, match=message):
            ideal_chain_f_vector(ANTI3)
        message = "^ideal-chain pass needs 8386560 steps, default budget is 5000000$"
        with pytest.raises(BudgetExceeded, match=message):
            ideal_chain_f_vector(Poset(12))

    def test_matches_the_layered_count(self):
        posets = [p for d in range(6) for p in enumerate_labeled_posets(d)]
        for d, seed in ((6, 62), (7, 72), (8, 82)):
            posets += random_instances("poset", d, 40, seed=seed)
        for poset in posets:
            assert ideal_chain_f_vector(poset) == layered_ideal_chain_f_vector(poset), poset

    def test_d9_antichain_under_a_tenth_of_a_second(self):
        start = time.perf_counter()
        f = ideal_chain_f_vector(Poset(9))
        assert time.perf_counter() - start < 0.1
        assert f_to_h(f, 9)(1) == 362880
