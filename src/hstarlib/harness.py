"""Corpus generation and batch verification of the decomposition theorems.

Corpora are labeled (no isomorphism reduction): all posets or graphs on a
fixed label set, or seeded pseudo-random instances.  ``verify_all`` runs a
set of named checks over a corpus and streams one report per input; a
failed check never aborts the sweep and always carries the witnesses
needed to reproduce it.

Check names:

=============  =======  ====================================================
name           applies  meaning
=============  =======  ====================================================
hstar3way      poset    counts, descent and ideal-chain routes to h* agree
reciprocity    poset    interior counts match the reversed series; strict
                        and weak count tables satisfy order reciprocity
thm1.1         poset,   open numerator splits as a difference of two
               polytope nonnegative symmetric polynomials
thm1.2         poset    open order-polytope split has -a, b nonnegative
thm1.3         graph    thm1.2 holds on every orientation class's h*, and
                        z h_G's split has -a, b nonnegative
thm1.4         graph    h_G degree/signs/leading coefficient, and -a_i >= 0
                        for i <= (d+1)/2 in thm1.3's split of z h_G
conj6.1        graph    h_G itself splits with -a, b nonnegative
conj6.2        poset    h_Pi / z splits with -a, b nonnegative
conj6.4        graph    -a_i >= 0 for i <= d/2 in conj6.1's split of h_G
chromatic3     graph    deletion-contraction = orientation sum = counted
                        colorings
hstar2way      polytope parallelepiped and box-count routes to a simplex's
                        h* agree; a skip on other H-polytopes
=============  =======  ====================================================

conj6.4 and thm1.4's inequality lines read -a_i of conj6.1's split of h_G and
thm1.3's of z h_G, so they pass whenever those do (bar the self-test's h_G,
which thm1.3 never reads): they are not independent confirmations.  thm1.3
reads thm1.2's verdict on each orientation class's h*, the one a poset with
that h* gets, and renames a failure after the class.

thm1.1, thm1.2, conj6.1, conj6.2 and conj6.4 read only the numerator and d,
so each verdict is memoised by value for the whole run in ``decomp._memo``,
as are reciprocity's series expansion, the splits of h_G and z h_G and each
orientation class's h*: inputs with equal numerators pay for the split
once, while the numerator itself, every route that reads the input and
every charge still run on every input.
A poset's lattice walk is built once per input and read by its h* route and
by reciprocity, which compares the strict count at n with (-1)^d times the
weak one at -n, n = 1..d + 2, on tables extended by ``polynomial.extrapolate``.

Inputs are independent, so sweeps could fan out over workers; this driver
stays sequential and emits reports in input order, which keeps them
reproducible byte for byte (timings aside).
"""

from __future__ import annotations

import random
import threading
import time
from itertools import combinations, product
from math import comb
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Literal, Mapping, NamedTuple, Sequence

from . import decomp
from .budget import charge
from .ehrhart import HRepPolytope, OrderPolytope, Simplex, _box_h_star, h_star, open_numerator
from .errors import BudgetExceeded, HstarError, InvalidInput
from .graph import (
    Graph,
    chromatic_polynomial,
    chromatic_via_orientations,
    count_acyclic_orientations,
    count_proper_colorings,
)
from .polynomial import IntPolynomial, expand_series, extrapolate, f_to_h
from .poset import Poset, descent_h_star, ideal_chain_f_vector, natural, order_map_counts, set_bits

MAX_EXHAUSTIVE_SIZE = 5


# ---------------------------------------------------------------------------
# corpora


def _label_pairs(d: int, max_size: int, kind: str) -> list[tuple[int, int]]:
    """Pairs i < j of the labels 0..d-1 of an exhaustive ``kind`` corpus, d checked and capped."""
    d, max_size = natural(d, "d"), natural(max_size, "max_size")
    if d > max_size:
        raise BudgetExceeded(f"exhaustive {kind} enumeration capped at d = {max_size}")
    return list(combinations(range(d), 2))


def enumerate_labeled_posets(d: int, *, max_size: int = MAX_EXHAUSTIVE_SIZE) -> Iterator[Poset]:
    """Every partial order on the labeled elements 1..d, exactly once.

    Iterates the 3^C(d,2) orientation states of the label pairs (skipping
    antisymmetry violations by construction) and keeps the transitive ones.
    Counts follow the labeled-poset sequence 1, 1, 3, 19, 219, 4231, ...
    The arguments are checked when called.
    """
    pairs = _label_pairs(d, max_size, "poset")

    def posets() -> Iterator[Poset]:
        for states in product((0, 1, 2), repeat=len(pairs)):
            above = [0] * d
            for (i, j), state in zip(pairs, states):
                if state == 1:
                    above[i] |= 1 << j
                elif state == 2:
                    above[j] |= 1 << i
            if not any(above[j] & ~m for m in above for j in set_bits(m)):
                yield Poset(d, [(i + 1, j + 1) for i, m in enumerate(above) for j in set_bits(m)])

    return posets()


def enumerate_labeled_graphs(d: int, *, max_size: int = MAX_EXHAUSTIVE_SIZE) -> Iterator[Graph]:
    """All 2^C(d,2) labeled simple graphs on vertices 1..d; arguments checked when called."""
    pairs = [(i + 1, j + 1) for i, j in _label_pairs(d, max_size, "graph")]
    return (
        Graph(d, [e for e, take in zip(pairs, picks) if take])
        for picks in product((False, True), repeat=len(pairs))
    )


def random_instances(
    kind: str,
    d: int,
    count: int,
    seed: int,
    *,
    relation_probability: float = 1 / 3,
) -> Iterator[Poset | Graph]:
    """Deterministic pseudo-random corpus: same seed, same sequence.

    Graphs take each edge with probability 1/2.  Posets come from a random
    DAG on the label order (each pair i < j related with
    ``relation_probability``, in [0, 1]), then transitively closed, so
    validity is guaranteed by construction.  The arguments are checked, and
    the label pairs charged as an allocation, when called.
    """
    if kind not in ("poset", "graph"):
        raise InvalidInput(f"unknown instance kind {kind!r}")
    d, count = natural(d, "d and count"), natural(count, "d and count")
    if not 0 <= relation_probability <= 1:
        raise InvalidInput(f"relation_probability must lie in [0, 1], got {relation_probability}")
    charge(comb(d, 2), f"pairs of {d} labels", allocation=True)
    build, p = (Graph, 1 / 2) if kind == "graph" else (Poset, relation_probability)
    rng = random.Random(seed)
    pairs = [(i + 1, j + 1) for i, j in combinations(range(d), 2)]
    return (build(d, [e for e in pairs if rng.random() < p]) for _ in range(count))


def dilated_simplex(d: int, k: int) -> Simplex:
    """k times the unit simplex conv{0, e_1, ..., e_d}."""
    vertices = [[0] * d]
    for i in range(d):
        v = [0] * d
        v[i] = k
        vertices.append(v)
    return Simplex(vertices)


def dilated_cube(d: int, k: int) -> HRepPolytope:
    """The cube [0, k]^d as an H-representation polytope."""
    rows = []
    for i in range(d):
        lo = [0] * d
        lo[i] = -1
        hi = [0] * d
        hi[i] = 1
        rows.append((lo, 0))
        rows.append((hi, k))
    return HRepPolytope(rows, d)


# ---------------------------------------------------------------------------
# reports


class CheckResult(NamedTuple):
    """Outcome of one named check on one input: pass, fail, skip or error.

    ``error`` marks a failure that is an unexpected exception (not an
    HstarError) escaping the check: a library bug, never a verdict.  Its
    ``traceback`` witness lists the frames as ``file:line function``.
    """

    name: str
    status: Literal["pass", "fail", "skip", "error"]
    detail: str = ""
    witnesses: Mapping[str, tuple[str, ...]] = MappingProxyType({})  # shared, so read-only

    def to_record(self) -> dict:
        record: dict = {"name": self.name, "status": self.status}
        if self.detail:
            record["detail"] = self.detail
        if self.witnesses:
            record["witnesses"] = {key: list(w) for key, w in self.witnesses.items()}
        return record


class VerificationReport(NamedTuple):
    """Per-input record: serialized input, check outcomes, wall-clock time."""

    index: int
    kind: str
    input_text: str
    checks: list[CheckResult]
    seconds: float

    @property
    def failed(self) -> bool:
        return any(c.status in ("fail", "error") for c in self.checks)

    @property
    def skipped(self) -> bool:
        return any(c.status == "skip" for c in self.checks)

    def to_record(self) -> dict:
        return {
            "type": "report",
            "index": self.index,
            "kind": self.kind,
            "input": self.input_text,
            "checks": [c.to_record() for c in self.checks],
            "seconds": round(self.seconds, 6),
        }


class Summary:
    def __init__(self) -> None:
        self.inputs = self.failures = self.skipped = self.checks_run = 0

    def add(self, report: VerificationReport) -> None:
        self.inputs += 1
        if report.failed:
            self.failures += 1
        for check in report.checks:
            if check.status == "skip":
                self.skipped += 1
            else:
                self.checks_run += 1

    def line(self) -> str:
        text = f"{self.inputs} inputs, {self.failures} failures"
        if self.skipped:
            text += f", {self.skipped} skipped checks"
        return text

    def to_record(self) -> dict:
        return {
            "type": "summary",
            "inputs": self.inputs,
            "failures": self.failures,
            "skipped_checks": self.skipped,
            "checks_run": self.checks_run,
            # thm1.1 is universal over lattice polytopes; this artifact can
            # exercise it only on the classes it can count
            "thm1.1_scope": "order polytopes, simplices, H-representation polytopes",
        }


def _verdict(
    name: str, ok: bool, detail: str, witnesses: dict[str, Sequence[int]]
) -> CheckResult:
    """A bare pass, or a failure carrying ``detail`` and the witnesses'
    integers as decimal strings, read-only, since a cached verdict is shared
    by every input with its numerator."""
    if ok:
        return CheckResult(name, "pass")
    frozen = {key: tuple(map(str, w)) for key, w in witnesses.items()}
    return CheckResult(name, "fail", detail, MappingProxyType(frozen))


# ---------------------------------------------------------------------------
# per-input context (caches the numerator, applies mutation)


def _flip_leading(p: IntPolynomial) -> IntPolynomial:
    coeffs = list(p.coeffs)
    if coeffs:
        coeffs[-1] = -coeffs[-1]
    return IntPolynomial(coeffs)


class _Context:
    """One corpus item, its kind, check table and numerator route from
    ``_KINDS``, and its numerator, computed once per input and read by every
    check; the numerator-only verdicts are cached across inputs by the
    numerator's value."""

    def __init__(self, item, mutate: bool):
        row = next((_KINDS[cls] for cls in type(item).__mro__ if cls in _KINDS), None)
        if row is None:
            raise InvalidInput(f"unsupported corpus item {item!r}")
        self.kind, self.checks, self._route = row
        self.item = item
        self.d = item.d
        self.mutate = mutate
        self._numerator: IntPolynomial | None = None

    def numerator(self) -> IntPolynomial:
        """The kind's numerator route on the item; the mutation target for
        the self-test."""
        if self._numerator is None:
            p = self._route(self.item)
            self._numerator = _flip_leading(p) if self.mutate else p
        return self._numerator


# ---------------------------------------------------------------------------
# the checks


def _check_hstar3way(ctx: _Context) -> CheckResult:
    counts_route = ctx.numerator()
    descent_route = descent_h_star(ctx.item)
    chain_route = f_to_h(ideal_chain_f_vector(ctx.item), ctx.d)
    return _verdict(
        "hstar3way",
        counts_route == descent_route == chain_route,
        "h* routes disagree",
        {
            "hstar_counts": counts_route.coeffs,
            "hstar_descents": descent_route.coeffs,
            "hstar_ideal_chains": chain_route.coeffs,
        },
    )


def _check_reciprocity(ctx: _Context) -> CheckResult:
    d = ctx.d
    polytope = OrderPolytope(ctx.item)
    # interior[n] is the strict map count at n - 1, n = 0..d + 2
    interior = polytope.count_series(d + 2, interior=True)
    expansion = decomp._memo(_series_expansion, ctx.numerator(), d)
    counts_ok = tuple(interior[1:]) == expansion[1:]
    # strict(n) against (-1)^d weak(-n) at n = 1..d + 2: the strict counts
    # at 0..d + 1 extended by one, the weak ones at d + 1..0 by d + 2
    strict = extrapolate(interior[1:], 1)[1:]
    weak = extrapolate(order_map_counts(ctx.item, d + 1)[::-1], d + 2)[d + 2 :]
    poly_ok = strict == (weak if d % 2 == 0 else [-w for w in weak])
    return _verdict(
        "reciprocity",
        counts_ok and poly_ok,
        "interior counts mismatch" if not counts_ok else "order reciprocity fails",
        {
            "interior_counts": interior,
            "series_expansion": expansion,
            "hstar": ctx.numerator().coeffs,
        },
    )


def _series_expansion(h: IntPolynomial, d: int) -> tuple[int, ...]:
    """The interior series of h* through n = d + 2."""
    return tuple(expand_series(open_numerator(h, d), d, d + 2))


# The checks below read only the numerator h and d, so each is a function of
# (h, d) and its table entry is ``_numerator_only(check)``.


def _check_thm11(h: IntPolynomial, d: int) -> CheckResult:
    a_p, b_p = decomp.open_decomposition(h, d)
    return _verdict(
        "thm1.1",
        a_p.is_nonnegative() and b_p.is_nonnegative(),
        "negative coefficient in the open decomposition",
        {"hstar": h.coeffs, "a_P": a_p.coeffs, "b_P": b_p.coeffs},
    )


def _check_thm12(h: IntPolynomial, d: int) -> CheckResult:
    a_pi, b_pi = decomp.order_decomposition(h, d)
    return _verdict(
        "thm1.2",
        (-a_pi).is_nonnegative() and b_pi.is_nonnegative(),
        "sign failure in the order decomposition",
        {"hstar": h.coeffs, "a_Pi": a_pi.coeffs, "b_Pi": b_pi.coeffs},
    )


def _check_conj62(h: IntPolynomial, d: int) -> CheckResult:
    if d == 0:
        return CheckResult("conj6.2", "skip", "skipped: degenerate at d = 0")
    # open_numerator refuses degree > d, so the constant term h*_{d+1} is 0
    p = IntPolynomial(open_numerator(h, d).coeffs[1:])
    dec = decomp.ab_decompose(p, d)
    return _verdict(
        "conj6.2",
        (-dec.a).is_nonnegative() and dec.b.is_nonnegative(),
        "sign failure in the strict-series decomposition",
        {"p_Pi": p.coeffs, "a": dec.a.coeffs, "b": dec.b.coeffs},
    )


def _check_conj61(h: IntPolynomial, d: int) -> CheckResult:
    if d == 0:
        return CheckResult("conj6.1", "skip", "skipped: degenerate at d = 0")
    dec = decomp._memo(decomp.ab_decompose, h, d)
    return _verdict(
        "conj6.1",
        (-dec.a).is_nonnegative() and dec.b.is_nonnegative(),
        "sign failure in the h_G decomposition",
        {"h_G": h.coeffs, "a": dec.a.coeffs, "b": dec.b.coeffs},
    )


def _check_conj64(h: IntPolynomial, d: int) -> CheckResult:
    a = decomp._memo(decomp.ab_decompose, h, d).a  # conj6.1's split
    bad = [i for i in range(1, d // 2 + 1) if a[i] > 0]
    return _verdict("conj6.4", not bad, f"inequality fails at i = {bad}", {"h_G": h.coeffs})


def _numerator_only(check):
    """The table entry of a check of (h, d): the input's numerator is built
    and charged on every input, the verdict looked up by value."""

    def entry(ctx: _Context) -> CheckResult:
        return decomp._memo(check, ctx.numerator(), ctx.d)

    return entry


def _check_thm13(ctx: _Context) -> CheckResult:
    tally, zh = decomp._orientation_sum(ctx.item)
    for counts in tally:  # thm1.2's verdict on each orientation class first
        hstar = decomp._memo(decomp._checked_h_star, counts[1:])
        verdict = decomp._memo(_check_thm12, hstar, ctx.d)
        if verdict.status != "pass":
            detail = f"sign failure in the order decomposition of orientation class {counts}"
            return verdict._replace(name="thm1.3", detail=detail)
    a, b = decomp._memo(decomp.ab_decompose, zh, ctx.d + 1)
    return _verdict(
        "thm1.3",
        (-a).is_nonnegative() and b.is_nonnegative(),
        "sign failure in the chromatic-series decomposition",
        {"a": a.coeffs, "b": b.coeffs},
    )


def _check_thm14(ctx: _Context) -> CheckResult:
    h = ctx.numerator()
    d = ctx.d
    problems = []
    if h.degree != d:
        problems.append(f"degree {h.degree} != {d}")
    if not h.is_nonnegative():
        problems.append("negative coefficient")
    orientations = count_acyclic_orientations(ctx.item)
    chi_at_minus_one = (-1) ** d * chromatic_polynomial(ctx.item)(-1)
    if h[d] != orientations or orientations != chi_at_minus_one:
        problems.append(
            f"leading {h[d]} vs {orientations} orientations vs (-1)^d chi(-1) = {chi_at_minus_one}"
        )
    a = decomp._memo(decomp.ab_decompose, h.shift(1), d + 1).a  # thm1.3's split
    bad = [i for i in range(1, (d + 1) // 2 + 1) if a[i] > 0]
    if bad:
        problems.append(f"inequality fails at i = {bad}")
    return _verdict("thm1.4", not problems, "; ".join(problems), {"h_G": h.coeffs})


def _check_chromatic3(ctx: _Context) -> CheckResult:
    # colorings first: for d >= 1 they charge up to 4^d, past the 2^d ideals
    # of any orientation; deletion-contraction last, behind the sweep
    counts = [count_proper_colorings(ctx.item, n) for n in range(5)]
    via = chromatic_via_orientations(ctx.item)
    dc = chromatic_polynomial(ctx.item)
    values = tuple(map(dc, range(max(4, ctx.d) + 1)))
    for n, counted in enumerate(counts):
        if values[n] != counted:
            return _verdict(
                "chromatic3",
                False,
                f"chi({n}) = {values[n]} but {counted} colorings are counted",
                {"chi_dc": dc.coeffs},
            )
    # the orientation route is held by its values at n = 0..d, as chi has degree d
    if values[: ctx.d + 1] != via.values:
        return _verdict(
            "chromatic3",
            False,
            "deletion-contraction and orientation sum disagree",
            {"chi_dc": dc.coeffs, "chi_ao_values": via.values},
        )
    return CheckResult("chromatic3", "pass")


def _check_hstar2way(ctx: _Context) -> CheckResult:
    if not isinstance(ctx.item, Simplex):
        return CheckResult(
            "hstar2way",
            "skip",
            "skipped: no second h* route for H-polytopes yet (ROADMAP item 6, triangulation)",
        )
    parallelepiped_route = ctx.numerator()
    box_route = _box_h_star(ctx.item)
    return _verdict(
        "hstar2way",
        parallelepiped_route == box_route,
        "h* routes disagree",
        {"hstar_parallelepiped": parallelepiped_route.coeffs, "hstar_box": box_route.coeffs},
    )


# Each table maps a check name to ``ctx -> CheckResult``.  A numerator-only
# entry builds ``ctx.numerator()`` first and then looks up its verdict, by
# the check function, the numerator and d, so an entry replaced in a table
# runs as it is.
_POSET_CHECKS = {
    "hstar3way": _check_hstar3way,
    "reciprocity": _check_reciprocity,
    "thm1.1": _numerator_only(_check_thm11),
    "thm1.2": _numerator_only(_check_thm12),
    "conj6.2": _numerator_only(_check_conj62),
}

_GRAPH_CHECKS = {
    "thm1.3": _check_thm13,
    "thm1.4": _check_thm14,
    "conj6.1": _numerator_only(_check_conj61),
    "conj6.4": _numerator_only(_check_conj64),
    "chromatic3": _check_chromatic3,
}

_POLYTOPE_CHECKS = {
    "thm1.1": _numerator_only(_check_thm11),
    "hstar2way": _check_hstar2way,
}

# One row per input type: its kind name in the reports, its check table and
# its numerator route, item -> IntPolynomial.  A subclass (a Simplex is an
# HRepPolytope) takes the row of its nearest listed base.  Each route looks
# its function up when it is called, so a rebound module attribute is the
# one that runs.
_KINDS = {
    Poset: ("poset", _POSET_CHECKS, lambda poset: h_star(OrderPolytope(poset))),
    Graph: ("graph", _GRAPH_CHECKS, lambda graph: decomp.graph_numerator(graph)),
    HRepPolytope: ("polytope", _POLYTOPE_CHECKS, lambda polytope: h_star(polytope)),
}

ALL_CHECKS = tuple(sorted({name for _, checks, _ in _KINDS.values() for name in checks}))


class _TimeUp(BaseException):
    """Raised by the SIGALRM handler when an input's time limit runs out.

    A BaseException, so no ``except Exception`` inside a check can swallow it.
    """


def _raise_time_up(signum, frame) -> None:
    raise _TimeUp


def _run_check(name: str, fn, ctx: _Context) -> CheckResult:
    """One check's outcome; the deadline's ``_TimeUp`` passes through."""
    try:
        return fn(ctx)
    except BudgetExceeded as exc:
        return CheckResult(name, "skip", f"skipped: {exc}")
    except HstarError as exc:
        return CheckResult(name, "fail", f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # a bug in a check must not end the sweep
        import traceback  # only on this path; keeps start-up lean

        frames = tuple(
            f"{Path(f.filename).name}:{f.lineno} {f.name}"
            for f in traceback.extract_tb(exc.__traceback__)
        )
        detail = f"{type(exc).__name__}: {exc}"
        return CheckResult(name, "error", detail, MappingProxyType({"traceback": frames}))


def verify_all(
    corpus: Iterable,
    checks: Sequence[str] | None = None,
    *,
    time_limit: float | None = None,
    mutate: bool = False,
) -> Iterator[VerificationReport]:
    """Run the named checks over every corpus item, yielding one report each.

    ``checks`` defaults to every known check; names not applicable to an
    item's kind are silently inapplicable for that item.  A failing check is
    recorded, never raised; any other exception a check raises is recorded
    as an ``error`` status and counts as a failure; a check over the budget
    records a skip.  The budget is the one in force while the generator
    runs, so callers iterate inside ``budget.limit``.  With ``time_limit``
    (seconds per input) the checks still pending when the limit elapses are
    skipped.  On the main thread of a POSIX process a positive limit below
    2^31 s (every POSIX timer holds it) is preemptive: one ``ITIMER_REAL``
    alarm per input, armed for the whole limit, cuts off the running check,
    which is skipped too.  The timer is cancelled and the previous SIGALRM
    handler restored before each report is yielded; a caller's own
    ``ITIMER_REAL`` is not kept.  Elsewhere, and for other limits, the
    clock is consulted between checks only, so the first check always
    runs.  With ``mutate`` the sign of one coefficient of
    each input's numerator polynomial is flipped before checking, which must
    make the failure path fire (the reporting self-test).  Verdicts of the
    numerator-only checks are shared by inputs with equal numerators and d,
    for the whole run; a shared failure's witnesses are read-only, and no
    exception is cached, so a refusal or a cut-off recurs on every input.
    """
    if checks is None:
        selected = list(ALL_CHECKS)
    else:
        selected = list(dict.fromkeys(checks))  # each name runs once
        unknown = [name for name in selected if name not in ALL_CHECKS]
        if unknown:
            raise InvalidInput(f"unknown checks {unknown}; known: {list(ALL_CHECKS)}")
    preempt = (
        time_limit is not None
        and 0 < time_limit < 1 << 31
        and threading.current_thread() is threading.main_thread()
    )
    if preempt:
        import signal  # only for a preemptive limit; keeps start-up lean

        preempt = hasattr(signal, "setitimer")
    late = f"skipped: per-input time limit {time_limit}s"
    for index, item in enumerate(corpus):
        ctx = _Context(item, mutate)
        table = ctx.checks
        names = [name for name in selected if name in table]
        start = time.perf_counter()
        results = []
        previous = signal.signal(signal.SIGALRM, _raise_time_up) if preempt else None
        try:
            if preempt:
                signal.setitimer(signal.ITIMER_REAL, time_limit)
            for name in names:
                # the first check always starts
                if time_limit is not None and results and time.perf_counter() - start > time_limit:
                    break
                results.append(_run_check(name, table[name], ctx))
            if preempt:  # disarmed here, so a late alarm is still caught below
                signal.setitimer(signal.ITIMER_REAL, 0)
        except _TimeUp:
            pass  # the deadline cut off a check, or landed between two
        finally:
            if preempt:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        results += [CheckResult(name, "skip", late) for name in names[len(results) :]]
        yield VerificationReport(
            index=index,
            kind=ctx.kind,
            input_text=item.to_text(),
            checks=results,
            seconds=time.perf_counter() - start,
        )
