"""Corpus generation and the verification harness."""

import json
import math
import random
import signal
import threading
import time
from itertools import combinations

import pytest

from hstarlib.budget import limit
from hstarlib.ehrhart import HRepPolytope, OrderPolytope, Simplex
from hstarlib.errors import BudgetExceeded, InvalidInput
from hstarlib.graph import Graph
from hstarlib.harness import (
    Summary,
    dilated_cube,
    dilated_simplex,
    enumerate_labeled_graphs,
    enumerate_labeled_posets,
    random_instances,
    verify_all,
)
from hstarlib.polynomial import IntPolynomial
from hstarlib.poset import Poset
from test_graph import PATH3

# the weak map counts at n = 0..4 of the orientations 1 -> 2 <- 3 and
# 1 <- 2 -> 3, a poset and its dual, and their class's h*, a_Pi and -b_Pi
PATH3_WEDGE = (0, 1, 5, 14, 30)
PATH3_WEDGE_HSTAR = IntPolynomial([1, 1])
PATH3_WEDGE_WITNESSES = {
    "hstar": ("1", "1"),
    "a_Pi": ("0", "-1", "-2", "-1"),
    "b_Pi": ("-1", "-2", "-2", "-1"),
}


def negate_split_part(monkeypatch, name, part, h, d):
    """Rebind ``decomp.<name>``, ``ab_decompose``, ``open_decomposition`` or
    ``order_decomposition``, to a function that negates the ``part``, "a" or
    "b", of its split of ``h`` at ``d``; every other split is the real one."""
    from hstarlib import decomp

    real = getattr(decomp, name)

    def doubled(p, dim):
        a, b = real(p, dim)
        if (p, dim) == (h, d):
            a, b = (-a, b) if part == "a" else (a, -b)
        return decomp.SymmetricDecomposition(a, b)

    monkeypatch.setattr(decomp, name, doubled)


class TestEnumeration:
    @pytest.mark.parametrize("d,count", [(0, 1), (1, 1), (2, 3), (3, 19), (4, 219)])
    def test_poset_counts(self, d, count):
        posets = list(enumerate_labeled_posets(d))
        assert len(posets) == count
        assert len(set(posets)) == count  # exactly once each

    @pytest.mark.parametrize("d,count", [(2, 2), (3, 8), (4, 64)])
    def test_graph_counts(self, d, count):
        graphs = list(enumerate_labeled_graphs(d))
        assert len(graphs) == count
        assert len(set(graphs)) == count

    def test_size_cap(self):
        with pytest.raises(BudgetExceeded):
            next(enumerate_labeled_posets(6))
        with pytest.raises(BudgetExceeded):
            next(enumerate_labeled_graphs(9))
        assert sum(1 for _ in enumerate_labeled_graphs(6, max_size=6)) == 2**15


class TestBuildersCheckWhenCalled:
    """A corpus builder refuses bad arguments when called, before any item
    is asked for, so a later corpus cannot fail after an earlier one's
    reports."""

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: enumerate_labeled_posets(9), BudgetExceeded,
             "exhaustive poset enumeration capped at d = 5"),
            (lambda: enumerate_labeled_graphs(9), BudgetExceeded,
             "exhaustive graph enumeration capped at d = 5"),
            (lambda: enumerate_labeled_posets(-1), InvalidInput, "d must be nonnegative"),
            (lambda: enumerate_labeled_graphs(2, max_size=-1), InvalidInput,
             "max_size must be nonnegative"),
            (lambda: enumerate_labeled_graphs(2.5), InvalidInput, "2.5 is not an integer"),
            (lambda: random_instances("tree", 3, 1, 0), InvalidInput,
             "unknown instance kind 'tree'"),
            (lambda: random_instances("poset", 3, -1, 0), InvalidInput,
             "d and count must be nonnegative"),
            (lambda: random_instances("poset", 3, 1, 0, relation_probability=2), InvalidInput,
             "relation_probability must lie in [0, 1], got 2"),
            (lambda: random_instances("graph", 2.5, 1, 0), InvalidInput,
             "2.5 is not an integer"),
            (lambda: random_instances("graph", 3, 1.5, 0), InvalidInput,
             "1.5 is not an integer"),
        ],
        ids=["posets-cap", "graphs-cap", "posets-negative", "graphs-negative-max-size",
             "graphs-non-integer", "random-kind", "random-count", "random-probability",
             "random-non-integer-d", "random-non-integer-count"],
    )
    def test_bare_call_raises(self, call, error, message):
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message

    def test_random_label_pairs_are_charged_when_called(self, monkeypatch):
        import hstarlib.budget as budget

        monkeypatch.setattr(budget, "DEFAULT_WORK_BUDGET", 9)
        with pytest.raises(BudgetExceeded, match=r"needs 10 steps, default budget is 9$"):
            random_instances("graph", 5, 0, seed=0)

    @pytest.mark.parametrize("kind, p", [("graph", 0.5), ("poset", 0.25)])
    def test_each_instance_draws_once_per_label_pair(self, kind, p):
        rng, pairs = random.Random(3), list(combinations(range(1, 5), 2))
        build = Graph if kind == "graph" else Poset
        expected = [build(4, [e for e in pairs if rng.random() < p]) for _ in range(3)]
        assert list(random_instances(kind, 4, 3, seed=3, relation_probability=0.25)) == expected


class TestRandomInstances:
    def test_graph_determinism(self):
        first = [g.to_text() for g in random_instances("graph", 6, 4, seed=0)]
        second = [g.to_text() for g in random_instances("graph", 6, 4, seed=0)]
        assert first == second
        other = [g.to_text() for g in random_instances("graph", 6, 4, seed=1)]
        assert first != other

    def test_posets_valid_by_construction(self):
        posets = list(random_instances("poset", 7, 10, seed=1))
        assert len(posets) == 10
        assert all(isinstance(p, Poset) and p.d == 7 for p in posets)

    def test_edge_frequency_smoke(self):
        pair_hits = {}
        total = 1000
        for g in random_instances("graph", 3, total, seed=2):
            for e in g.edges:
                pair_hits[e] = pair_hits.get(e, 0) + 1
        for pair in [(1, 2), (1, 3), (2, 3)]:
            assert abs(pair_hits[pair] / total - 0.5) < 0.05

    def test_rejects_unknown_kind(self):
        with pytest.raises(InvalidInput):
            next(random_instances("matroid", 3, 1, seed=0))

    @pytest.mark.parametrize("p", [7, -0.5, float("nan")])
    def test_rejects_a_relation_probability_outside_the_unit_interval(self, p):
        # 7 would relate every pair, a chain; -0.5 and NaN none, an antichain
        with pytest.raises(InvalidInput, match=r"^relation_probability must lie in \[0, 1\]"):
            next(random_instances("poset", 3, 1, 0, relation_probability=p))
        for bound in (0, 1):
            assert len(list(random_instances("poset", 3, 1, 0, relation_probability=bound))) == 1

    def test_label_pairs_are_charged_before_they_are_built(self, monkeypatch):
        import hstarlib.budget as budget
        import hstarlib.harness as harness

        built = []
        real = harness.combinations
        monkeypatch.setattr(harness, "combinations", lambda *a: built.append(a) or real(*a))
        monkeypatch.setattr(budget, "DEFAULT_WORK_BUDGET", 9)
        with pytest.raises(BudgetExceeded, match=r"needs 10 steps, default budget is 9$"):
            next(random_instances("graph", 5, 1, seed=0))
        assert built == []
        # an allocation, so the budget in force does not move the threshold
        with limit(0):
            assert len(list(random_instances("graph", 4, 2, seed=0))) == 2


class TestVerifyAll:
    def test_posets_clean(self):
        corpus = list(enumerate_labeled_posets(3))
        summary = Summary()
        for report in verify_all(corpus):
            summary.add(report)
            assert not report.failed
        assert summary.inputs == 19
        assert summary.failures == 0
        assert summary.skipped == 0

    def test_graphs_clean(self):
        reports = list(verify_all(enumerate_labeled_graphs(3)))
        assert len(reports) == 8
        assert not any(r.failed for r in reports)

    def test_deletion_contraction_runs_once_per_graph(self):
        import hstarlib.graph as graph_module

        # the 8 graphs on 3 vertices reach, by contraction, the 2 on 2 and
        # the edgeless one on 1: 11 distinct (d, edges), each computed once
        # however many checks ask for chi, and a second sweep adds none
        memo = graph_module._deletion_contraction
        memo.cache_clear()
        corpus = list(enumerate_labeled_graphs(3))
        for _ in range(2):
            reports = list(verify_all(corpus))
            assert not any(r.failed or r.skipped for r in reports)
            info = memo.cache_info()
            assert (info.misses, info.currsize) == (11, 11)

    def test_hstar3way_skips_a_long_descent_dp(self):
        # three disjoint 4-chains: 125 ideals fit the budget, but the
        # descent DP's running count of states reaches 240 at its 8th layer
        chains = Poset(12, [(c + k, c + k + 1) for c in (1, 5, 9) for k in range(3)])
        with limit(200):
            (report,) = verify_all([chains], ["hstar3way"])
        (check,) = report.checks
        assert check.status == "skip"
        assert check.detail == "skipped: descent DP needs 240 steps, budget is 200"

    def test_hstar3way_skips_a_long_ideal_chain_pass(self):
        # the 12-antichain's descent DP has 24576 states, but its 4096
        # ideals make 8386560 pair tests, past the default budget
        (report,) = verify_all([Poset(12)], ["hstar3way"])
        (check,) = report.checks
        assert check.status == "skip"
        assert check.detail == (
            "skipped: ideal-chain pass needs 8386560 steps, default budget is 5000000"
        )

    def test_polytope_corpus(self):
        corpus = [dilated_simplex(2, 2), dilated_cube(2, 2)]
        reports = list(verify_all(corpus, ["thm1.1"]))
        assert all(r.kind == "polytope" and not r.failed for r in reports)
        assert all(len(r.checks) == 1 for r in reports)

    def test_an_order_polytope_is_an_unsupported_corpus_item(self):
        # an order polytope is not a corpus item: the harness takes its poset
        chain = Poset(2, [(1, 2)])
        with pytest.raises(InvalidInput) as info:
            list(verify_all([OrderPolytope(chain)]))
        assert str(info.value) == f"unsupported corpus item {OrderPolytope(chain)!r}"

    def test_numerator_routes_are_looked_up_when_called(self, monkeypatch):
        # a tracer rebinds module attributes after import, so each kind's
        # route must reach the rebound function, not one bound at import
        from hstarlib import decomp
        import hstarlib.harness as harness

        seen = []

        def tap(module, name):
            real = getattr(module, name)

            def wrapper(item):
                seen.append((name, item))
                return real(item)

            monkeypatch.setattr(module, name, wrapper)

        tap(harness, "h_star")
        tap(decomp, "graph_numerator")
        chain, k2 = Poset(2, [(1, 2)]), Graph(2, [(1, 2)])
        cube, triangle = dilated_cube(2, 1), dilated_simplex(2, 1)
        reports = list(verify_all([chain, k2, cube, triangle], ["thm1.1", "conj6.1"]))
        assert [r.kind for r in reports] == ["poset", "graph", "polytope", "polytope"]
        assert not any(r.failed for r in reports)
        assert [name for name, _ in seen] == ["h_star", "graph_numerator", "h_star", "h_star"]
        assert seen[0][1].poset is chain
        assert [item for _, item in seen[1:]] == [k2, cube, triangle]

    def test_hstar2way_passes_on_simplices_and_skips_other_hreps(self):
        simplices = [dilated_simplex(d, k) for d in (1, 2, 3) for k in (1, 2)]
        simplices.append(Simplex([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 4)]))
        cubes = [dilated_cube(2, 1), dilated_cube(3, 2)]
        reports = list(verify_all(simplices + cubes, ["hstar2way"]))
        statuses = [check.status for r in reports for check in r.checks]
        assert statuses == ["pass"] * len(simplices) + ["skip"] * len(cubes)
        for report in reports[len(simplices):]:
            (check,) = report.checks
            assert check.detail == (
                "skipped: no second h* route for H-polytopes yet (ROADMAP item 6, triangulation)"
            )

    def test_hstar2way_fails_every_mutated_simplex(self):
        simplices = [dilated_simplex(d, k) for d in (1, 2, 3) for k in (1, 2)]
        for report in verify_all(simplices, ["hstar2way"], mutate=True):
            (check,) = report.checks
            assert check.status == "fail" and check.detail == "h* routes disagree"
            assert set(check.witnesses) == {"hstar_parallelepiped", "hstar_box"}
            assert check.witnesses["hstar_parallelepiped"] != check.witnesses["hstar_box"]

    def test_named_check_selection(self):
        reports = list(verify_all(enumerate_labeled_posets(2), ["thm1.2"]))
        assert all([c.name for c in r.checks] == ["thm1.2"] for r in reports)

    def test_a_repeated_check_name_runs_once(self):
        summary = Summary()
        for report in verify_all(enumerate_labeled_posets(1), ["thm1.2", "thm1.1", "thm1.2"]):
            assert [c.name for c in report.checks] == ["thm1.2", "thm1.1"]
            summary.add(report)
        assert (summary.inputs, summary.checks_run) == (1, 2)

    def test_unknown_check_rejected(self):
        with pytest.raises(InvalidInput):
            list(verify_all([Poset(1)], ["thm9.9"]))

    def test_mutation_selftest_fires(self):
        corpus = list(enumerate_labeled_graphs(3))
        failures = 0
        for report in verify_all(corpus, ["conj6.1", "thm1.4"], mutate=True):
            for check in report.checks:
                if check.status == "fail":
                    failures += 1
                    assert check.witnesses or check.detail
        assert failures > 0

    def test_mutation_reported_with_witnesses(self):
        graph = Graph(2, [(1, 2)])
        (report,) = list(verify_all([graph], ["conj6.1"], mutate=True))
        (check,) = report.checks
        assert check.status == "fail"
        assert "h_G" in check.witnesses
        assert report.input_text == graph.to_text()

    def test_chromatic3_disagreement_lists_orientation_values(self, monkeypatch):
        import hstarlib.harness as harness
        from hstarlib.polynomial import interpolate

        # a broken orientation route: chi_K2 is n(n-1), values 0, 0, 2
        broken = interpolate([0, 1, 2])
        monkeypatch.setattr(harness, "chromatic_via_orientations", lambda graph: broken)
        (report,) = list(verify_all([Graph(2, [(1, 2)])], ["chromatic3"]))
        (check,) = report.checks
        assert check.status == "fail"
        assert check.witnesses == {"chi_dc": ("0", "-1", "1"), "chi_ao_values": ("0", "1", "2")}

    @staticmethod
    def perturb_map_counts(monkeypatch, strict, n):
        """Rebind ``order_map_counts`` in every hstarlib module that imported
        it, so that the strict counts, or the weak ones, read one more at n."""
        import sys

        from hstarlib import poset

        real = poset.order_map_counts

        def perturbed(p, n_max, is_strict=False):
            counts = list(real(p, n_max, is_strict))
            if is_strict == strict:
                counts[n] += 1
            return counts

        for name, module in list(sys.modules.items()):
            if name.startswith("hstarlib") and getattr(module, "order_map_counts", None) is real:
                monkeypatch.setattr(module, "order_map_counts", perturbed)

    @staticmethod
    def chain2_reciprocity():
        (report,) = list(verify_all([Poset(2, [(1, 2)])], ["reciprocity"]))
        return report.checks[0]

    # the 2-chain: h* = 1, strict counts C(n, 2), interior series z^3 / (1 - z)^3
    CHAIN2_RECIPROCITY = {"series_expansion": ("0", "0", "0", "1", "3"), "hstar": ("1",)}

    def test_reciprocity_names_a_wrong_strict_count(self, monkeypatch):
        assert self.chain2_reciprocity().status == "pass"
        self.perturb_map_counts(monkeypatch, strict=True, n=1)
        check = self.chain2_reciprocity()
        assert (check.status, check.detail) == ("fail", "interior counts mismatch")
        assert check.witnesses == {
            "interior_counts": ("0", "0", "1", "1", "3"),
            **self.CHAIN2_RECIPROCITY,
        }

    def test_reciprocity_names_a_wrong_weak_count(self, monkeypatch):
        # Omega(0) is read by the weak side of the identity only: the
        # numerator route reads the weak counts from n = 1 on
        assert self.chain2_reciprocity().status == "pass"
        self.perturb_map_counts(monkeypatch, strict=False, n=0)
        check = self.chain2_reciprocity()
        assert (check.status, check.detail) == ("fail", "order reciprocity fails")
        assert check.witnesses == {
            "interior_counts": ("0", "0", "0", "1", "3"),
            **self.CHAIN2_RECIPROCITY,
        }

    def test_thm14_names_a_numerator_one_degree_short(self, monkeypatch):
        from hstarlib import decomp

        # the path's h_G is (0, 0, 2, 4); a route that drops its top term
        real = decomp.graph_numerator
        short = lambda graph: IntPolynomial(real(graph).coeffs[:-1])
        monkeypatch.setattr(decomp, "graph_numerator", short)
        (report,) = list(verify_all([Graph(3, [(1, 2), (2, 3)])], ["thm1.4"]))
        (check,) = report.checks
        assert (check.status, check.detail) == (
            "fail",
            "degree 2 != 3; leading 0 vs 4 orientations vs (-1)^d chi(-1) = 4",
        )
        assert check.witnesses == {"h_G": ("0", "0", "2")}

    def test_thm13_names_an_orientation_class_with_a_negative_b_pi(self, monkeypatch):
        # the path's two classes, the chain and the wedge, have 2 orientations
        # each; the wedge's b_Pi negated outweighs the chain's in the sum of
        # the class splits, while the direct split of z h_G stays nonnegative
        negate_split_part(monkeypatch, "order_decomposition", "b", PATH3_WEDGE_HSTAR, 3)
        (report,) = list(verify_all([PATH3], ["thm1.3"]))
        (check,) = report.checks
        assert check.status == "fail"
        assert check.detail == (
            "sign failure in the order decomposition of orientation class (0, 1, 5, 14, 30)"
        )
        assert check.witnesses == PATH3_WEDGE_WITNESSES

    def test_conj62_fails_on_a_positive_a(self, monkeypatch):
        # the poset 1 < 2 beside 3: p_Pi = 2z^2 + z^3 splits with a = -z - z^2
        negate_split_part(monkeypatch, "ab_decompose", "a", IntPolynomial([0, 0, 2, 1]), 3)
        (report,) = verify_all([Poset(3, [(1, 2)])], ["conj6.2"])
        (check,) = report.checks
        assert (check.status, check.detail) == (
            "fail",
            "sign failure in the strict-series decomposition",
        )
        assert check.witnesses == {
            "p_Pi": ("0", "0", "2", "1"),
            "a": ("0", "1", "1"),
            "b": ("1", "3", "1"),
        }

    def test_thm11_fails_on_a_negative_b_p(self, monkeypatch):
        # the 2-element antichain: h* = 1 + z, b_P = 1 + 2z + z^2
        negate_split_part(monkeypatch, "open_decomposition", "b", IntPolynomial([1, 1]), 2)
        (report,) = verify_all([Poset(2)], ["thm1.1"])
        (check,) = report.checks
        assert (check.status, check.detail) == (
            "fail",
            "negative coefficient in the open decomposition",
        )
        assert check.witnesses == {
            "hstar": ("1", "1"),
            "a_P": ("1", "2", "2", "1"),
            "b_P": ("-1", "-2", "-1"),
        }

    def test_conj61_fails_on_a_negative_b(self, monkeypatch):
        # the path's h_G = 2z^2 + 4z^3 splits with b = 4 + 6z + 4z^2
        negate_split_part(monkeypatch, "ab_decompose", "b", IntPolynomial([0, 0, 2, 4]), 3)
        (report,) = verify_all([PATH3], ["conj6.1"])
        (check,) = report.checks
        assert (check.status, check.detail) == ("fail", "sign failure in the h_G decomposition")
        assert check.witnesses == {
            "h_G": ("0", "0", "2", "4"),
            "a": ("0", "-4", "-4"),
            "b": ("-4", "-6", "-4"),
        }

    def test_thm11_fails_on_a_negative_a_p(self, monkeypatch):
        # the 2-element antichain: h* = 1 + z, a_P = 1 + 2z + 2z^2 + z^3
        negate_split_part(monkeypatch, "open_decomposition", "a", IntPolynomial([1, 1]), 2)
        (report,) = verify_all([Poset(2)], ["thm1.1"])
        (check,) = report.checks
        assert (check.status, check.detail) == (
            "fail",
            "negative coefficient in the open decomposition",
        )
        assert check.witnesses == {
            "hstar": ("1", "1"),
            "a_P": ("-1", "-2", "-2", "-1"),
            "b_P": ("1", "2", "1"),
        }

    def test_thm12_fails_on_a_positive_a_pi(self, monkeypatch):
        # the wedge 1 -> 2 <- 3: h* = 1 + z splits with a_Pi = -z - 2z^2 - z^3
        negate_split_part(monkeypatch, "order_decomposition", "a", PATH3_WEDGE_HSTAR, 3)
        (report,) = verify_all([Poset(3, [(1, 2), (3, 2)])], ["thm1.2"])
        (check,) = report.checks
        assert (check.status, check.detail) == ("fail", "sign failure in the order decomposition")
        assert check.witnesses == {
            "hstar": ("1", "1"),
            "a_Pi": ("0", "1", "2", "1"),
            "b_Pi": ("1", "2", "2", "1"),
        }

    def test_conj62_fails_on_a_negative_b(self, monkeypatch):
        # the poset 1 < 2 beside 3: p_Pi = 2z^2 + z^3 splits with b = 1 + 3z + z^2
        negate_split_part(monkeypatch, "ab_decompose", "b", IntPolynomial([0, 0, 2, 1]), 3)
        (report,) = verify_all([Poset(3, [(1, 2)])], ["conj6.2"])
        (check,) = report.checks
        assert (check.status, check.detail) == (
            "fail",
            "sign failure in the strict-series decomposition",
        )
        assert check.witnesses == {
            "p_Pi": ("0", "0", "2", "1"),
            "a": ("0", "-1", "-1"),
            "b": ("-1", "-3", "-1"),
        }

    def test_conj61_fails_on_a_positive_a(self, monkeypatch):
        # the path's h_G = 2z^2 + 4z^3 splits with a = -4z - 4z^2
        negate_split_part(monkeypatch, "ab_decompose", "a", IntPolynomial([0, 0, 2, 4]), 3)
        (report,) = verify_all([PATH3], ["conj6.1"])
        (check,) = report.checks
        assert (check.status, check.detail) == ("fail", "sign failure in the h_G decomposition")
        assert check.witnesses == {
            "h_G": ("0", "0", "2", "4"),
            "a": ("0", "4", "4"),
            "b": ("4", "6", "4"),
        }

    def test_thm13_fails_on_a_positive_a_of_z_h_g(self, monkeypatch):
        # the path's z h_G = 2z^3 + 4z^4 splits at d + 1 = 4 with
        # a = -4z - 6z^2 - 4z^3; both orientation classes pass thm1.2
        negate_split_part(monkeypatch, "ab_decompose", "a", IntPolynomial([0, 0, 0, 2, 4]), 4)
        (report,) = verify_all([PATH3], ["thm1.3"])
        (check,) = report.checks
        assert (check.status, check.detail) == (
            "fail",
            "sign failure in the chromatic-series decomposition",
        )
        assert check.witnesses == {"a": ("0", "4", "6", "4"), "b": ("4", "6", "6", "4")}

    def test_chromatic3_fails_on_orientation_values_wrong_at_n_equal_d_only(self, monkeypatch):
        import hstarlib.harness as harness
        from hstarlib.polynomial import interpolate

        # chi of the path is n(n - 1)^2: 0, 0, 2, 12 at n = 0..3; the
        # colorings are counted to n = 4, the orientation route held to n = d
        broken = interpolate([0, 0, 2, 13])
        monkeypatch.setattr(harness, "chromatic_via_orientations", lambda graph: broken)
        (report,) = verify_all([PATH3], ["chromatic3"])
        (check,) = report.checks
        assert (check.status, check.detail) == (
            "fail",
            "deletion-contraction and orientation sum disagree",
        )
        assert check.witnesses == {
            "chi_dc": ("0", "1", "-2", "1"),
            "chi_ao_values": ("0", "0", "2", "13"),
        }

    def test_chromatic3_colorings_mismatch_names_the_first_n(self, monkeypatch):
        import hstarlib.harness as harness

        # chi_K2 is n(n-1): 0, 0, 2, 6, 12; one coloring too many at n = 2
        wrong = [0, 0, 3, 6, 12]
        monkeypatch.setattr(harness, "count_proper_colorings", lambda graph, n: wrong[n])
        (report,) = list(verify_all([Graph(2, [(1, 2)])], ["chromatic3"]))
        (check,) = report.checks
        assert (check.status, check.detail) == ("fail", "chi(2) = 2 but 3 colorings are counted")
        assert check.witnesses == {"chi_dc": ("0", "-1", "1")}

    def test_chromatic3_deletion_contraction_waits_for_the_sweep(self, monkeypatch):
        import hstarlib.harness as harness

        # K5's colorings pass uncharged; its 120 orientations do not fit 100,
        # so deletion-contraction, which follows the sweep, never runs
        k5 = Graph(5, combinations(range(1, 6), 2))
        # (fewer than 5 colors leave K5 uncolored)
        monkeypatch.setattr(harness, "count_proper_colorings", lambda graph, n: 0)
        spied = []
        monkeypatch.setattr(harness, "chromatic_polynomial", spied.append)
        with limit(100):
            (report,) = verify_all([k5], ["chromatic3"])
        (check,) = report.checks
        assert (check.status, check.detail) == (
            "skip",
            "skipped: acyclic-orientation sweep needs 101 steps, budget is 100",
        )
        assert spied == []

    def test_foreign_exception_is_an_error_record(self, monkeypatch):
        import hstarlib.harness as harness

        def broken(ctx):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setitem(harness._POSET_CHECKS, "thm1.2", broken)
        reports = list(verify_all([Poset(1), Poset(2)], ["thm1.2", "conj6.2"]))
        assert len(reports) == 2
        for report in reports:
            error, after = report.checks
            record = error.to_record()
            assert (record["name"], record["status"], record["detail"]) == (
                "thm1.2",
                "error",
                "ZeroDivisionError: division by zero",
            )
            assert record["witnesses"]["traceback"][-1].startswith("test_harness.py:")
            assert report.failed
            assert after.status == "pass"  # the next check still runs
        summary = Summary()
        for report in reports:
            summary.add(report)
        assert (summary.failures, summary.checks_run) == (2, 4)

    def test_budget_exhaustion_reported_as_skip(self):
        antichain = Poset(5)
        with limit(3):
            (report,) = verify_all([antichain], ["hstar3way"])
        (check,) = report.checks
        assert check.status == "skip"
        assert check.detail == "skipped: order-ideal lattice needs 4 steps, budget is 3"

    def test_time_limit_skips_remaining_checks(self):
        (report,) = list(verify_all([Poset(4)], ["thm1.2", "conj6.2"], time_limit=0.0))
        # the first check starts before the clock is consulted; the rest skip
        assert report.checks[0].name == "thm1.2"
        assert report.checks[1].status == "skip"
        assert "time limit" in report.checks[1].detail

    def test_time_limit_preempts_a_spinning_check(self, monkeypatch):
        import hstarlib.harness as harness

        calls = []

        def spin(ctx):
            calls.append(ctx.item)
            give_up = time.perf_counter() + 10  # a failing test must not hang
            while len(calls) == 1 and time.perf_counter() < give_up:
                try:
                    while time.perf_counter() < give_up:
                        pass
                except Exception:  # the alarm is not an Exception
                    pass
            return harness.CheckResult("thm1.2", "pass")

        monkeypatch.setitem(harness._POSET_CHECKS, "thm1.2", spin)
        previous = signal.getsignal(signal.SIGALRM)
        reports = []
        for report in verify_all([Poset(1), Poset(2)], ["thm1.2", "conj6.2"], time_limit=0.2):
            # between reports the timer is off and the caller's handler is back
            assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
            assert signal.getsignal(signal.SIGALRM) is previous
            reports.append(report)
        cut, after = reports
        assert 0.2 <= cut.seconds < 2.0
        assert [c.to_record() for c in cut.checks] == [
            {"name": name, "status": "skip", "detail": "skipped: per-input time limit 0.2s"}
            for name in ("thm1.2", "conj6.2")
        ]
        assert [c.status for c in after.checks] == ["pass", "pass"]

    def test_deadline_between_two_checks(self, monkeypatch):
        import hstarlib.harness as harness

        run_check = harness._run_check

        def alarm_after(*args):
            run_check(*args)
            raise harness._TimeUp  # the deadline lands once the check has returned

        monkeypatch.setattr(harness, "_run_check", alarm_after)
        previous = signal.getsignal(signal.SIGALRM)
        reports = list(verify_all([Poset(1), Poset(2)], ["thm1.2", "conj6.2"], time_limit=60.0))
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGALRM) is previous
        late = {"status": "skip", "detail": "skipped: per-input time limit 60.0s"}
        skipped = [{"name": "thm1.2", **late}, {"name": "conj6.2", **late}]
        assert [[c.to_record() for c in r.checks] for r in reports] == [skipped, skipped]

    @pytest.mark.parametrize(
        "limit,armed",
        [(60.0, True), (math.inf, False), (None, False), (1e10, False), (1e300, False)],
    )
    def test_only_a_finite_limit_arms_the_timer(self, monkeypatch, limit, armed):
        import hstarlib.harness as harness

        seen = []

        def probe(ctx):
            seen.append(signal.getitimer(signal.ITIMER_REAL)[0] > 0)
            return harness.CheckResult("thm1.2", "pass")

        monkeypatch.setitem(harness._POSET_CHECKS, "thm1.2", probe)
        (report,) = list(verify_all([Poset(2)], ["thm1.2"], time_limit=limit))
        assert seen == [armed] and report.checks[0].status == "pass"

    def test_a_check_raising_the_deadline_ends_the_input(self, monkeypatch):
        import hstarlib.harness as harness

        def cut_off(ctx):
            raise harness._TimeUp

        monkeypatch.setitem(harness._POSET_CHECKS, "conj6.2", cut_off)
        (report,) = list(verify_all([Poset(2)], ["conj6.2", "thm1.2"], time_limit=60.0))
        late = {"status": "skip", "detail": "skipped: per-input time limit 60.0s"}
        assert [c.to_record() for c in report.checks] == [
            {"name": "conj6.2", **late},
            {"name": "thm1.2", **late},
        ]

    def test_run_check_lets_the_deadline_through(self):
        import hstarlib.harness as harness

        def cut_off(ctx):
            raise harness._TimeUp

        with pytest.raises(harness._TimeUp):
            harness._run_check("thm1.2", cut_off, harness._Context(Poset(1), False))

    def test_time_limit_off_the_main_thread(self):
        # signals belong to the main thread; elsewhere the limit is checked between checks
        out = []
        worker = threading.Thread(
            target=lambda: out.extend(verify_all([Poset(3)], ["thm1.2", "conj6.2"], time_limit=5.0))
        )
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        (report,) = out
        assert [c.status for c in report.checks] == ["pass", "pass"]

    def test_non_lattice_polytope_fails_with_its_invalid_input(self):
        triangle = HRepPolytope([((-1, 0), 0), ((0, -1), 0), ((2, 2), 3)], 2)
        (report,) = list(verify_all([triangle], ["thm1.1"]))
        (check,) = report.checks
        assert check.status == "fail"
        assert check.detail == "InvalidInput: vertex (0, 3/2) is not a lattice point"

    def test_records_are_json_with_decimal_strings(self):
        (report,) = list(verify_all([Graph(2, [(1, 2)])], ["conj6.1"], mutate=True))
        record = json.loads(json.dumps(report.to_record()))
        assert record["type"] == "report"
        witnesses = record["checks"][0]["witnesses"]
        assert witnesses["h_G"] == ["0", "0", "-2"]

    def test_summary_line(self):
        summary = Summary()
        for report in verify_all(enumerate_labeled_posets(2), ["thm1.2"]):
            summary.add(report)
        assert summary.line() == "3 inputs, 0 failures"
        assert summary.to_record()["checks_run"] == 3

    def test_reports_deterministic_given_seed(self):
        def run():
            corpus = random_instances("graph", 5, 5, seed=11)
            records = []
            for report in verify_all(corpus, ["thm1.4", "conj6.4"]):
                record = report.to_record()
                del record["seconds"]  # wall clock is the one nondeterministic field
                records.append(record)
            return records

        assert run() == run()
