"""The run-wide memos of the orientation route: hits give the values a
cleared memo computes, refusals do not depend on what a memo holds, callers
cannot reach a stored value, and every memo is bounded."""

import importlib
import pkgutil

import pytest

import hstarlib
from hstarlib import decomp, graph
from hstarlib.budget import limit
from hstarlib.decomp import _orientation_sum, graph_decomposition, graph_numerator
from hstarlib.errors import BudgetExceeded
from hstarlib.graph import _mask_map_counts, acyclic_orientations, chromatic_via_orientations
from hstarlib.memo import Memo
from test_graph import SWEEP_CORPORA, SWEEP_IDS

MEMOS = (graph._map_counts, graph._count_vectors, decomp._h_stars, decomp._order_splits)


def clear_all():
    for memo in MEMOS:
        memo.cache_clear()


class TestMemo:
    def test_computes_each_key_once(self):
        memo, computed = Memo(8), []
        for key in (1, 2, 1, 1, 2):
            assert memo(key, lambda: computed.append(key) or -key) == -key
        assert computed == [1, 2]

    def test_empties_when_full(self):
        memo = Memo(2)
        for key in range(5):
            memo(key, lambda: key)
            assert len(memo) <= 2
        assert memo(3, lambda: "recomputed") == "recomputed"

    def test_a_failed_computation_stores_nothing(self):
        memo = Memo(8)

        def fail():
            raise BudgetExceeded("refused")

        with pytest.raises(BudgetExceeded):
            memo("key", fail)
        assert len(memo) == 0
        assert memo("key", lambda: "value") == "value"


def test_every_cache_is_bounded():
    # every memo and lru_cache anywhere in the package has a finite maxsize
    found = []
    for info in pkgutil.iter_modules(hstarlib.__path__):
        module = importlib.import_module(f"hstarlib.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, Memo):
                found.append(name)
                assert isinstance(value.maxsize, int) and value.maxsize > 0, name
            elif hasattr(value, "cache_info"):
                found.append(name)
                assert value.cache_info().maxsize is not None, name
    assert {"_map_counts", "_count_vectors", "_h_stars", "_order_splits"} <= set(found)


class TestMapCountMemo:
    def test_a_stored_mask_is_still_refused_below_its_ideal_count(self):
        for g in SWEEP_CORPORA[0]:
            for mask in acyclic_orientations(g):
                _mask_map_counts(mask, g.d, 3)  # stored under the default budget
                size = mask.bit_count()
                message = f"^order-ideal lattice needs {size} steps, budget is {size - 1}$"
                with limit(size - 1), pytest.raises(BudgetExceeded, match=message):
                    _mask_map_counts(mask, g.d, 3)

    @pytest.mark.parametrize("graphs", SWEEP_CORPORA, ids=SWEEP_IDS)
    def test_stored_counts_equal_cleared_ones(self, graphs):
        # weak and strict, at two n_max, one after another on the same mask,
        # so a key that missed any of them would hand one call another's counts
        calls = [
            (mask, g.d, n_max, strict)
            for g in graphs
            for mask in acyclic_orientations(g)
            for n_max in (g.d, g.d + 1)
            for strict in (False, True)
        ]
        clear_all()
        stored = [_mask_map_counts(*call) for call in calls]
        assert [_mask_map_counts(*call) for call in calls] == stored
        cleared = []
        for call in calls:
            clear_all()
            cleared.append(_mask_map_counts(*call))
        assert stored == cleared

    def test_a_changed_result_does_not_change_the_memo(self):
        (mask,) = acyclic_orientations(graph.Graph(2))
        counts = _mask_map_counts(mask, 2, 3)
        assert counts == [0, 1, 4, 9]
        counts[1] = 99
        counts.append(16)
        assert _mask_map_counts(mask, 2, 3) == [0, 1, 4, 9]


class TestOrientationRouteMemo:
    @pytest.mark.parametrize("graphs", SWEEP_CORPORA, ids=SWEEP_IDS)
    def test_stored_results_equal_cleared_ones(self, graphs):
        # all graphs in one memo, so an h* or a split met at one d is met
        # again at another
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
        hstars, zh = _orientation_sum(g)
        expected = dict(hstars)
        hstars.clear()
        assert _orientation_sum(g) == (expected, zh)
