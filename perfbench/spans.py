"""Per-layer tracing by wrapping hstarlib's public functions from outside.

No profiler is involved: each wrapped call (and each ``next()`` on a
generator a wrapped call returns) is one span on a stack.  A span's self
time is its duration minus the time covered by its child spans, so the self
times of all layers add up to the traced wall time spent inside spans.

Wrapping leaves ``src/`` untouched.  A wrapped module-level function is
rebound in every ``hstarlib`` module that imported it by name (for example
``order_map_counts`` in ``ehrhart`` and ``graph``), and methods are patched
on their classes, so every caller goes through the wrapper.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from importlib import import_module

#: module -> public functions traced under ``<module>.<function>``
FUNCTIONS = {
    "polynomial": ("interpolate", "series_numerator", "expand_series", "f_to_h"),
    "poset": (
        "order_map_counts",
        "ideal_chain_f_vector",
        "order_polynomial",
        "descent_h_star",
        "linear_extensions",
    ),
    "graph": (
        "acyclic_orientations",
        "orientation_poset",
        "chromatic_via_orientations",
        "chromatic_polynomial",
        "count_proper_colorings",
    ),
    "ehrhart": ("h_star", "open_numerator"),
    "decomp": (
        "ab_decompose",
        "order_decomposition",
        "open_decomposition",
        "graph_numerator",
        "graph_decomposition",
        "inequality_report",
    ),
    "harness": ("verify_all",),
    "cli": ("main",),
}

#: corpus builders in ``harness``, all traced under one span name
CORPUS_SPAN = "harness.corpus"
CORPUS_BUILDERS = (
    "enumerate_labeled_posets",
    "enumerate_labeled_graphs",
    "random_instances",
    "dilated_simplex",
    "dilated_cube",
)

#: (module, class, method) -> span name
METHODS = {
    ("polynomial", "IntPolynomial", "__init__"): "polynomial.IntPolynomial.init",
    ("poset", "Poset", "__init__"): "poset.Poset.init",
    ("poset", "Poset", "order_ideals"): "poset.Poset.order_ideals",
    ("ehrhart", "OrderPolytope", "count_series"): "ehrhart.OrderPolytope.count_series",
    ("ehrhart", "Simplex", "__init__"): "ehrhart.Simplex.init",
    ("ehrhart", "Simplex", "count_points"): "ehrhart.Simplex.count_points",
    ("ehrhart", "HRepPolytope", "count_points"): "ehrhart.HRepPolytope.count_points",
}

#: spans whose integer results are summed into their ``result_sum`` stat
SUM_RESULTS = ("ehrhart.Simplex.count_points", "ehrhart.HRepPolytope.count_points")


class Tracer:
    """Span stack and per-span-name totals.

    Each name accumulates ``calls``, ``self_s``, ``yielded`` (items its
    generators produced), ``charged`` (work amounts passed to
    ``budget.charge`` while it was the innermost span) and, for the names
    in :data:`SUM_RESULTS`, ``result_sum``.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(int))
        # open spans as [name, start, time covered by children, charged]
        self._stack: list[list] = []

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0, 0])

    def exit(self) -> None:
        name, start, covered, charged = self._stack.pop()
        elapsed = self.clock() - start
        stat = self.stats[name]
        stat["self_s"] += elapsed - covered
        stat["charged"] += charged
        if self._stack:
            self._stack[-1][2] += elapsed

    def wrap(self, name: str, fn):
        """Return ``fn`` traced as span ``name``; generators it returns are
        traced per ``next()`` under the same name."""
        stats = self.stats[name]
        sum_result = name in SUM_RESULTS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stats["calls"] += 1
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if inspect.isgenerator(result):
                return self._iterate(name, stats, result)
            if sum_result:
                stats["result_sum"] += result
            return result

        return traced

    def _iterate(self, name, stats, gen):
        while True:
            self.enter(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self.exit()
            stats["yielded"] += 1
            yield item

    def wrap_charge(self, fn):
        """``budget.charge`` is counted, not timed; its amount is credited to
        the innermost open span (box points, colorings, maps)."""
        stats = self.stats["budget.charge"]

        @functools.wraps(fn)
        def traced(amount, *args, **kwargs):
            stats["calls"] += 1
            if self._stack:
                self._stack[-1][3] += amount
            return fn(amount, *args, **kwargs)

        return traced

    def wrap_order_ideals(self, fn):
        """Counts the ideals of every lattice actually built, not cache hits."""
        stats = self.stats["poset.Poset.order_ideals"]
        traced_fn = self.wrap("poset.Poset.order_ideals", fn)

        @functools.wraps(fn)
        def traced(poset, *args, **kwargs):
            cached = getattr(poset, "_ideals", None) is not None
            ideals = traced_fn(poset, *args, **kwargs)
            if not cached:
                stats["ideals"] += len(ideals)
            return ideals

        return traced

    def install(self) -> None:
        """Wrap every traced function and method of the imported hstarlib."""
        for module_name, names in FUNCTIONS.items():
            module = import_module(f"hstarlib.{module_name}")
            for name in names:
                original = getattr(module, name)
                _rebind(original, self.wrap(f"{module_name}.{name}", original))
        harness = import_module("hstarlib.harness")
        for name in CORPUS_BUILDERS:
            original = getattr(harness, name)
            _rebind(original, self.wrap(CORPUS_SPAN, original))
        charge = import_module("hstarlib.budget").charge
        _rebind(charge, self.wrap_charge(charge))
        for (module_name, class_name, method), span in METHODS.items():
            cls = getattr(import_module(f"hstarlib.{module_name}"), class_name)
            original = getattr(cls, method)
            if span == "poset.Poset.order_ideals":
                setattr(cls, method, self.wrap_order_ideals(original))
            else:
                setattr(cls, method, self.wrap(span, original))

    def totals(self) -> dict[str, dict[str, float]]:
        return {name: dict(stat) for name, stat in self.stats.items()}


def _rebind(original, replacement) -> None:
    """Point every ``hstarlib`` module attribute bound to ``original`` at
    ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module_name != "hstarlib" and not module_name.startswith("hstarlib."):
            continue
        names = [attr for attr, value in vars(module).items() if value is original]
        for attr in names:
            setattr(module, attr, replacement)
