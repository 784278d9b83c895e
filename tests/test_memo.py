"""The run-wide caches of the orientation route (edge steps, map counts,
terms, chi's series numerator and the direct split of z h_G), of
deletion-contraction, of a poset's lattice walks and of the harness's
numerator-only verdicts: hits give the values a cleared cache computes,
refusals and cross-route checks do not depend on what a cache holds,
callers get the stored tuple, a fresh tally or a fresh list, and every
cache is bounded."""

import importlib
import pkgutil
import tracemalloc
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
from test_harness import PATH3_WEDGE, PATH3_WEDGE_WITNESSES, negate_b_pi_of

PATH3_CHI = IntPolynomial([0, 1, -2, 1])
K4 = graph.Graph(4, combinations(range(1, 5), 2))

CACHES = (
    graph._sweep_steps,
    graph._packed_counts,
    graph._count_vectors,
    decomp._orientation_term,
    decomp._chi_numerator,
    decomp._direct_split,
    graph._deletion_contraction,
    harness._numerator_verdict,
    harness._series_expansion,
    poset._lattice_counts,
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
        "_orientation_term": 1 << 12,
        "_chi_numerator": 1 << 12,
        "_direct_split": 1 << 12,
        "_packing": 8,
        "_deletion_contraction": 1 << 12,
        "_numerator_verdict": 1 << 12,
        "_series_expansion": 1 << 12,
        "_lattice_counts": 8,
        "_signed_binomials": 64,
    }
    assert found == expected


def test_hit_profile_of_a_graphs_random_5_pass():
    # one pass over the benchmark's graph corpus, from cleared caches: the
    # three tallies sweep 6864 orientations but make weak map-count calls
    # for the 3432 that run each graph's first edge forward, and those need
    # 664 transforms, and 28 orientation terms; deletion-contraction meets
    # 269 distinct subproblems in 852 calls, where it made 4495.  Each
    # graph builds its edge steps once for its four sweeps, and its 19
    # distinct chi and z h_G are expanded and split once each, for 162 and
    # 81 calls
    clear_all()
    for _ in verify_all(random_instances("graph", 5, 81, 701)):
        pass
    steps = graph._sweep_steps.cache_info()
    assert (steps.misses, steps.hits) == (81, 243)
    numerators = decomp._chi_numerator.cache_info()
    assert (numerators.misses, numerators.hits) == (19, 143)
    splits = decomp._direct_split.cache_info()
    assert (splits.misses, splits.hits) == (19, 62)
    transforms = graph._packed_counts.cache_info()
    assert (transforms.misses, transforms.hits) == (664, 2768)
    assert graph._count_vectors.cache_info().currsize == 28
    assert decomp._orientation_term.cache_info().misses == 28
    subproblems = graph._deletion_contraction.cache_info()
    assert (subproblems.misses, subproblems.hits) == (269, 583)


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
        # the two paths share the doubled wedge class, whose term the second
        # input reads from the cache; each input tests the class's signs
        doubled = negate_b_pi_of(monkeypatch, PATH3_WEDGE)
        other_path = graph.Graph(3, [(1, 3), (2, 3)])
        reports = list(verify_all([PATH3, other_path], ["thm1.3"]))
        assert [report.checks[0].status for report in reports] == ["fail", "fail"]
        for report in reports:
            assert report.checks[0].witnesses == PATH3_WEDGE_WITNESSES
        # both classes are split once, for the first input's sum, and read
        # from the cache after that
        info = doubled.cache_info()
        assert (info.misses, info.hits) == (2, 5)
        splits = decomp._direct_split.cache_info()
        assert (splits.misses, splits.hits) == (0, 0)

    def test_a_cached_chi_numerator_still_meets_the_orientation_sum(self, monkeypatch):
        # both numerators are cached, so the wrong chi's is a hit
        clear_all()
        graph_numerator(K3)
        graph_numerator(PATH3)
        monkeypatch.setattr(decomp, "chromatic_polynomial", lambda g: PATH3_CHI)
        with pytest.raises(InternalConsistencyError, match="^chromatic route"):
            graph_numerator(K3)
        numerators = decomp._chi_numerator.cache_info()
        assert (numerators.misses, numerators.hits) == (2, 1)

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
    def test_hit_profile_of_a_posets_exhaustive_4_pass(self):
        # the 219 posets have 10 distinct h*: thm1.1, thm1.2 and conj6.2
        # judge each once, and reciprocity expands each series once
        clear_all()
        for _ in verify_all(enumerate_labeled_posets(4)):
            pass
        verdicts = harness._numerator_verdict.cache_info()
        assert (verdicts.misses, verdicts.hits) == (30, 627)
        expansions = harness._series_expansion.cache_info()
        assert (expansions.misses, expansions.hits) == (10, 209)

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
        assert harness._numerator_verdict.cache_info().hits > 0
        assert records(verify_all(corpus, mutate=mutate)) == cold

    def test_a_mutated_sweep_fails_every_input_and_caches_no_exception(self):
        # the 24 chains' h* = 1 flips to -1, which open_numerator refuses;
        # the other 195 get a negative leading coefficient, which the open and
        # order splits refuse: every refusal runs again on every input, and
        # only conj6.2's 9 distinct verdicts are stored
        clear_all()
        mutated = records(verify_all(enumerate_labeled_posets(4), mutate=True))
        assert len(mutated) == 219
        # checks in name order: conj6.2, hstar3way, reciprocity, thm1.1, thm1.2
        assert all(c["status"] == "fail" for r in mutated for c in r["checks"][1:])
        refusals = [
            c for r in mutated for c in r["checks"] if "InvalidInput" in c.get("detail", "")
        ]
        assert len(refusals) == 4 * 24 + 2 * 195
        verdicts = harness._numerator_verdict.cache_info()
        assert (verdicts.misses, verdicts.currsize) == (2 * 219 + 24 + 9, 9)
        expansions = harness._series_expansion.cache_info()
        assert (expansions.misses, expansions.currsize) == (24 + 9, 9)
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
        assert harness._numerator_verdict.cache_info().currsize == 0

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
