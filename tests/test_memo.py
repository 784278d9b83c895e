"""The run-wide caches of the orientation route (edge steps and map
counts), of deletion-contraction, of a poset's lattice walks and the one
by-value memo, ``decomp._memo``, of each orientation class's h*, chi's
series numerator, the splits of z h_G and h_G that thm1.3 and conj6.1
share with thm1.4 and conj6.4, reciprocity's expansion and the
numerator-only verdicts, thm1.2's read by thm1.3 for each class too: hits
give the values a cleared cache computes,
refusals and cross-route checks do not depend on what a cache holds,
callers get the stored tuple, a fresh tally or a fresh list, and every
cache is bounded."""

import importlib
import pkgutil
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest

import hstarlib
from hstarlib import decomp, graph, harness, poset
from hstarlib.budget import limit
from hstarlib.decomp import _orientation_sum, graph_decomposition, graph_numerator
from hstarlib.errors import BudgetExceeded, InternalConsistencyError
from hstarlib.graph import (
    _mask_map_counts,
    acyclic_orientations,
    chromatic_polynomial,
    chromatic_via_orientations,
    count_acyclic_orientations,
)
from hstarlib.harness import (
    dilated_cube,
    dilated_simplex,
    enumerate_labeled_posets,
    random_instances,
    verify_all,
)
from hstarlib.polynomial import IntPolynomial
from test_graph import K3, PATH3, SWEEP_CORPORA, SWEEP_IDS
from test_harness import PATH3_WEDGE, PATH3_WEDGE_HSTAR, PATH3_WEDGE_WITNESSES, negate_split_part
from test_reference_streams import CORPORA

PATH3_CHI = IntPolynomial([0, 1, -2, 1])
K4 = graph.Graph(4, combinations(range(1, 5), 2))

CACHES = (
    graph._sweep_steps,
    graph._packed_counts,
    graph._count_vectors,
    graph._deletion_contraction,
    poset._lattice_counts,
    decomp._memo,
)


def clear_all():
    for cache in CACHES:
        cache.cache_clear()


def test_every_cache_is_bounded():
    # every lru_cache anywhere in the package has a finite maxsize, and
    # each one is listed here
    found = {}
    for info in pkgutil.iter_modules(hstarlib.__path__):
        module = importlib.import_module(f"hstarlib.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info"):
                found[name] = value.cache_info().maxsize
                assert found[name] is not None, name
    expected = {
        "_sweep_steps": 1,
        "_packed_counts": 1 << 14,
        "_count_vectors": 1 << 12,
        "_packing": 8,
        "_deletion_contraction": 1 << 12,
        "_memo": 5 << 12,
        "_lattice_counts": 8,
        "_signed_binomials": 64,
    }
    assert found == expected


def counted(monkeypatch, module, name):
    """Rebind ``module.name`` to a wrapper that lists the arguments of each
    call; the memo calls a function on a miss only."""
    calls = []
    fn = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_hit_profile_of_a_graphs_random_5_pass(monkeypatch):
    # one pass over the benchmark's graph corpus, from cleared caches: the
    # three tallies sweep 6864 orientations but make weak map-count calls
    # for the 3432 that run each graph's first edge forward, and those need
    # 664 transforms, and 28 class h*; deletion-contraction meets 269
    # distinct subproblems in 852 calls, where it made 4495.  Each graph
    # builds its edge steps once, for its four sweeps and the first-edge
    # mask of each of its three tallies, and its 19 distinct chi and z h_G
    # are expanded and split once each, for 162 and 81 calls; conj6.1
    # splits its 19 distinct h_G at d = 5 besides, for conj6.4 too
    numerators = counted(monkeypatch, decomp, "series_numerator")
    splits = counted(monkeypatch, decomp, "ab_decompose")
    classes = counted(monkeypatch, decomp, "_checked_h_star")
    clear_all()
    for _ in verify_all(random_instances("graph", 5, 81, 701)):
        pass
    steps = graph._sweep_steps.cache_info()
    assert (steps.misses, steps.hits) == (81, 486)
    assert len(numerators) == 19
    assert Counter(d for _, d in splits) == {5: 19, 6: 19}
    transforms = graph._packed_counts.cache_info()
    assert (transforms.misses, transforms.hits) == (664, 2768)
    assert graph._count_vectors.cache_info().currsize == 28
    assert len(classes) == 28
    subproblems = graph._deletion_contraction.cache_info()
    assert (subproblems.misses, subproblems.hits) == (269, 583)


# (misses, hits) of the memo on one pass over each benchmark corpus: on the
# graphs, 38 conj6.1 and conj6.4 verdicts with 124 hits, 19 chi numerators
# with 143, 19 splits of h_G with 19, 19 splits of z h_G with 143, 28 class
# h* with 1103 and 28 class thm1.2 verdicts with 349; on the posets, 30
# verdicts with 627 hits and 10 expansions with 209; the 51 polytopes have
# 46 distinct (h*, d)
MEMO_PROFILES = {
    "posets-exhaustive-4": (40, 836),
    "graphs-random-5": (151, 1881),
    "polytopes-lattice": (46, 5),
}


@pytest.mark.parametrize("workload", MEMO_PROFILES)
def test_memo_profile_of_a_benchmark_pass(workload):
    build, checks = CORPORA[workload]
    clear_all()
    for _ in verify_all(build(), checks):
        pass
    info = decomp._memo.cache_info()
    assert (info.misses, info.hits) == MEMO_PROFILES[workload]
    assert info.currsize == info.misses  # nothing evicted


class TestMapCountMemo:
    def test_a_stored_mask_is_still_refused_below_its_ideal_count(self):
        for g in SWEEP_CORPORA[0]:
            for mask in acyclic_orientations(g):
                _mask_map_counts(mask, g.d)  # stored under the default budget
                size = mask.bit_count()
                message = f"^order-ideal lattice needs {size} steps, budget is {size - 1}$"
                with limit(size - 1), pytest.raises(BudgetExceeded, match=message):
                    _mask_map_counts(mask, g.d)

    @pytest.mark.parametrize("graphs", SWEEP_CORPORA, ids=SWEEP_IDS)
    def test_stored_counts_equal_cleared_ones(self, graphs):
        calls = [(mask, g.d) for g in graphs for mask in acyclic_orientations(g)]
        clear_all()
        stored = [_mask_map_counts(*call) for call in calls]
        assert [_mask_map_counts(*call) for call in calls] == stored
        cleared = []
        for call in calls:
            clear_all()
            cleared.append(_mask_map_counts(*call))
        assert stored == cleared

    def test_equal_counts_share_one_tuple(self):
        # the two orientations of an edge are different masks of one chain
        clear_all()
        first, second = acyclic_orientations(graph.Graph(2, [(1, 2)]))
        assert first != second
        counts = graph._packed_counts(first, 2)
        assert graph._packed_counts(second, 2) is counts
        assert graph._packed_counts.cache_info().currsize == 2
        assert _mask_map_counts(first, 2) is _mask_map_counts(second, 2) is counts
        assert counts == (0, 1, 3, 6)

    def test_a_refused_size_is_refused_on_every_call(self):
        # the allocation charge runs inside the cache, which stores no refusal
        path = graph.Graph(20, [(v, v + 1) for v in range(1, 20)])
        mask = next(acyclic_orientations(path))
        clear_all()
        for _ in range(2):
            with pytest.raises(BudgetExceeded, match="packed vector of 2\\^20 fields"):
                _mask_map_counts(mask, 20)
        assert graph._packed_counts.cache_info().currsize == 0

    def test_a_second_call_gets_the_same_tuple(self):
        # callers share the stored tuple, which they cannot change
        (mask,) = acyclic_orientations(graph.Graph(2))
        counts = _mask_map_counts(mask, 2)
        assert counts == (0, 1, 4, 9)
        assert _mask_map_counts(mask, 2) is counts


class TestOrientationRouteMemo:
    @pytest.mark.parametrize("graphs", SWEEP_CORPORA, ids=SWEEP_IDS)
    def test_stored_results_equal_cleared_ones(self, graphs):
        # all graphs through the same caches, so a term stored for one
        # graph is met again by another
        route = (graph_numerator, graph_decomposition, chromatic_via_orientations)
        clear_all()
        stored = [fn(g) for g in graphs for fn in route]
        cleared = []
        for g in graphs:
            for fn in route:
                clear_all()
                cleared.append(fn(g))
        assert stored == cleared

    def test_a_changed_result_does_not_change_the_memo(self):
        g = SWEEP_CORPORA[1][0]
        tally, zh = _orientation_sum(g)
        expected = dict(tally)
        tally.clear()
        assert _orientation_sum(g) == (expected, zh)

    def test_a_cached_class_fails_thm13_on_every_input(self, monkeypatch):
        # the two paths share the doubled wedge class, whose thm1.2 verdict
        # the second input reads from the memo; each input tests the class
        negate_split_part(monkeypatch, "order_decomposition", "b", PATH3_WEDGE_HSTAR, 3)
        other_path = graph.Graph(3, [(1, 3), (2, 3)])
        reports = list(verify_all([PATH3, other_path], ["thm1.3"]))
        assert [report.checks[0].status for report in reports] == ["fail", "fail"]
        for report in reports:
            assert report.checks[0].detail.endswith(f"orientation class {PATH3_WEDGE}")
            assert report.checks[0].witnesses == PATH3_WEDGE_WITNESSES
        # the two classes' h* and the paths' one chi numerator are computed
        # for the first input's sum, the chain's and the wedge's verdicts
        # for its class loop, and all are read from the memo after that; the
        # second input meets the wedge first, and no split of z h_G is reached
        info = decomp._memo.cache_info()
        assert (info.misses, info.hits) == (5, 7)

    def test_thm12_and_thm13_share_a_class_verdict(self, monkeypatch):
        # the wedge poset's h* is the path's wedge class's, so thm1.3 reads
        # the failure thm1.2 stored, renamed, and splits the class no more
        negate_split_part(monkeypatch, "order_decomposition", "b", PATH3_WEDGE_HSTAR, 3)
        splits = counted(monkeypatch, decomp, "order_decomposition")
        wedge = poset.Poset(3, [(1, 2), (3, 2)])
        reports = list(verify_all([wedge, PATH3], ["thm1.2", "thm1.3"]))
        (thm12,), (thm13,) = (report.checks for report in reports)
        assert (thm12.name, thm12.status) == ("thm1.2", "fail")
        assert (thm13.name, thm13.status) == ("thm1.3", "fail")
        assert thm12.witnesses == thm13.witnesses == PATH3_WEDGE_WITNESSES
        assert splits.count((PATH3_WEDGE_HSTAR, 3)) == 1

    def test_each_split_is_computed_once_per_value(self, monkeypatch):
        # conj6.4 reads conj6.1's split of h_G and thm1.4 thm1.3's of z h_G,
        # and each class's order split sits in its thm1.2 verdict: the 1024
        # graphs on 5 vertices have 23 distinct z h_G, split at D = 6, and
        # 23 distinct h_G, split at D = 5; their 30 class h* are split at
        # D = 5 for b_Pi and at D = 4 for a_Pi
        calls = counted(monkeypatch, decomp, "_checked_a")
        checks = ["conj6.1", "conj6.4", "thm1.3", "thm1.4"]
        for _ in verify_all(harness.enumerate_labeled_graphs(5), checks):
            pass
        assert len(set(calls)) == len(calls)
        assert Counter(d for _, d in calls) == {6: 23, 5: 53, 4: 30}

    def test_a_cached_chi_numerator_still_meets_the_orientation_sum(self, monkeypatch):
        # both numerators are memoised, so the wrong chi's is a hit
        numerators = counted(monkeypatch, decomp, "series_numerator")
        clear_all()
        graph_numerator(K3)
        graph_numerator(PATH3)
        monkeypatch.setattr(decomp, "chromatic_polynomial", lambda g: PATH3_CHI)
        with pytest.raises(InternalConsistencyError, match="^chromatic route"):
            graph_numerator(K3)
        assert len(numerators) == 2

    def test_cached_steps_are_refused_as_cold_ones(self):
        # the sweep charges its orientations on every walk: K4's 24 are
        # refused at 23 whether its steps were cached or not
        message = "acyclic-orientation sweep needs 24 steps, budget is 23"
        clear_all()
        with limit(23), pytest.raises(BudgetExceeded) as cold:
            count_acyclic_orientations(K4)
        clear_all()
        assert count_acyclic_orientations(K4) == 24
        with limit(23), pytest.raises(BudgetExceeded) as warm:
            count_acyclic_orientations(K4)
        assert str(warm.value) == str(cold.value) == message
        steps = graph._sweep_steps.cache_info()
        assert (steps.misses, steps.hits) == (1, 1)

    def test_a_graph_refused_at_its_mask_size_caches_no_steps(self):
        clear_all()
        with pytest.raises(BudgetExceeded, match="2\\^23 vertex sets"):
            acyclic_orientations(graph.Graph(23))
        assert graph._sweep_steps.cache_info().currsize == 0

    def test_steps_hold_two_masks_an_edge(self):
        # K12's 66 edges: two 2^12-bit masks an edge, 512 bytes each, stay
        # under three masks' worth; the packing they are built from is
        # cached first, so only the steps themselves are counted
        k12 = graph.Graph(12, combinations(range(1, 13), 2))
        clear_all()
        graph._packing(12, 1)
        tracemalloc.start()
        try:
            graph._sweep_steps(k12)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 3 * 66 * 512


class TestDeletionContractionMemo:
    @pytest.mark.parametrize("graphs", SWEEP_CORPORA, ids=SWEEP_IDS)
    def test_stored_results_equal_cleared_ones(self, graphs):
        clear_all()
        stored = [chromatic_polynomial(g) for g in graphs]
        cleared = []
        for g in graphs:
            clear_all()
            cleared.append(chromatic_polynomial(g))
        assert stored == cleared


def records(reports):
    out = []
    for report in reports:
        record = report.to_record()
        del record["seconds"]
        out.append(record)
    return out


class TestLatticeWalkMemo:
    def test_each_poset_walks_its_lattice_once_per_sweep(self):
        # the h* route, the strict counts and the weak side of reciprocity
        # read one walk per poset: its pair lists and both transforms are
        # built on the first read, the other two hit, and the cache stays
        # within its bound across the 219 inputs
        clear_all()
        for _ in verify_all(enumerate_labeled_posets(4)):
            pass
        walks = poset._lattice_counts.cache_info()
        assert (walks.misses, walks.hits) == (219, 2 * 219)
        assert walks.currsize == walks.maxsize == 8

    @pytest.mark.parametrize("strict", [False, True])
    def test_an_equal_poset_is_still_charged_its_lattice(self, strict):
        # the walk is stored by the poset's value, the lattice built and
        # charged on each poset object: the 3-chain's last element costs 4
        first, second = (poset.Poset(3, [(1, 2), (2, 3)]) for _ in range(2))
        clear_all()
        stored = poset.order_map_counts(first, 6, strict)
        with limit(3), pytest.raises(BudgetExceeded, match="^order-ideal lattice needs 4 steps"):
            poset.order_map_counts(second, 6, strict)
        assert poset.order_map_counts(second, 6, strict) == stored
        assert poset._lattice_counts.cache_info().misses == 1

    @pytest.mark.parametrize("strict", [False, True])
    def test_stored_counts_equal_cleared_ones(self, strict):
        posets = [*enumerate_labeled_posets(3), *random_instances("poset", 5, 20, 4)]
        calls = [(p, n) for p in posets for n in (0, p.d, p.d + 1, p.d + 3)]
        clear_all()
        stored = [poset.order_map_counts(p, n, strict) for p, n in calls]
        cleared = []
        for p, n in calls:
            clear_all()
            cleared.append(poset.order_map_counts(p, n, strict))
        assert stored == cleared

    def test_a_changed_result_does_not_change_the_memo(self):
        p = poset.Poset(2, [(1, 2)])
        counts = poset.order_map_counts(p, 3)
        counts[0] = 99
        assert poset.order_map_counts(p, 3) == [0, 1, 3, 6]


class TestNumeratorVerdictMemo:
    def test_hit_profile_of_a_posets_exhaustive_4_pass(self, monkeypatch):
        # the 219 posets have 10 distinct h*: thm1.1, thm1.2 and conj6.2
        # judge each once, and reciprocity expands each series once, for
        # the 30 + 10 misses of MEMO_PROFILES
        expansions = counted(monkeypatch, harness, "_series_expansion")
        clear_all()
        for _ in verify_all(enumerate_labeled_posets(4)):
            pass
        assert len(expansions) == 10

    @pytest.mark.parametrize("mutate", [False, True])
    def test_a_warm_pass_gives_the_records_of_a_cold_one(self, mutate):
        # the unit triangle shares thm1.1's verdict with the 2-chains (h* = 1),
        # and d = 0 inputs share their conj6.1 and conj6.2 skips
        corpus = [
            *enumerate_labeled_posets(3),
            *random_instances("poset", 5, 20, 4),
            *random_instances("graph", 4, 20, 4),
            *enumerate_labeled_posets(2),
            dilated_simplex(2, 1),
            dilated_cube(2, 1),
            *enumerate_labeled_posets(0),
            graph.Graph(0),
            graph.Graph(0),
        ]
        clear_all()
        cold = records(verify_all(corpus, mutate=mutate))
        assert decomp._memo.cache_info().hits > 0
        assert records(verify_all(corpus, mutate=mutate)) == cold

    def test_a_mutated_sweep_fails_every_input_and_caches_no_exception(self):
        # the 24 chains' h* = 1 flips to -1, which open_numerator refuses;
        # the other 195 get a negative leading coefficient, which the open and
        # order splits refuse: every refusal runs again on every input, and
        # only conj6.2's 9 distinct verdicts and reciprocity's 9 distinct
        # expansions are stored
        clear_all()
        mutated = records(verify_all(enumerate_labeled_posets(4), mutate=True))
        assert len(mutated) == 219
        # checks in name order: conj6.2, hstar3way, reciprocity, thm1.1, thm1.2
        assert all(c["status"] == "fail" for r in mutated for c in r["checks"][1:])
        refusals = [
            c for r in mutated for c in r["checks"] if "InvalidInput" in c.get("detail", "")
        ]
        assert len(refusals) == 4 * 24 + 2 * 195
        # 2 * 219 + 24 + 9 = 471 verdicts and 24 + 9 = 33 expansions are
        # computed, and 9 of each stored
        info = decomp._memo.cache_info()
        assert (info.misses, info.currsize) == (471 + 33, 9 + 9)
        assert records(verify_all(enumerate_labeled_posets(4), mutate=True)) == mutated

    def test_a_patched_table_entry_bypasses_the_memo(self, monkeypatch):
        seen = []

        def probe(ctx):
            seen.append(ctx.numerator())
            return harness.CheckResult("thm1.2", "pass")

        monkeypatch.setitem(harness._POSET_CHECKS, "thm1.2", probe)
        clear_all()
        posets = list(enumerate_labeled_posets(3))
        for _ in verify_all(posets, ["thm1.2"]):
            pass
        assert len(seen) == len(posets) == 19
        assert decomp._memo.cache_info().currsize == 0

    def test_a_cached_failure_is_shared_and_read_only(self):
        clear_all()
        g = graph.Graph(2, [(1, 2)])
        first, second = (
            report.checks[0] for report in verify_all([g, g], ["conj6.1"], mutate=True)
        )
        assert first.status == "fail" and first is second
        with pytest.raises(TypeError):
            first.witnesses["h_G"] = ()
        assert first.witnesses["h_G"] == ("0", "0", "-2")

    def test_checks_of_one_numerator_keep_their_own_verdicts(self):
        # conj6.1 and conj6.4 read one h_G, each under its own key, beside
        # the split they share and the route's class h* and chi numerator
        clear_all()
        g = graph.Graph(2, [(1, 2)])
        (report,) = verify_all([g], ["conj6.1", "conj6.4"], mutate=True)
        assert [(c.name, c.detail) for c in report.checks] == [
            ("conj6.1", "sign failure in the h_G decomposition"),
            ("conj6.4", "inequality fails at i = [1]"),
        ]
        assert decomp._memo.cache_info().currsize == 5

    def test_a_rebound_function_gets_its_own_entries(self, monkeypatch):
        # a warm pass never returns the result of the function rebound away
        clear_all()
        (warm,) = verify_all([K3], ["thm1.3"])
        assert warm.checks[0].status == "pass"
        stored = decomp._memo.cache_info().currsize
        real = decomp.ab_decompose
        monkeypatch.setattr(decomp, "ab_decompose", lambda h, d: real(h, d)._replace(b=-h))
        (patched,) = verify_all([K3], ["thm1.3"])
        assert patched.checks[0].detail == "sign failure in the chromatic-series decomposition"
        assert decomp._memo.cache_info().currsize == stored + 1
