"""One benchmark sweep in its own process, optionally traced.

    python3 -u perfbench/child.py [--trace] cli verify ARGS...
    python3 -u perfbench/child.py [--trace] polytopes SEED [--random-only] [--mutate-selftest]

``cli`` runs ``hstarlib.cli.main`` on the given arguments.  ``polytopes``
builds the lattice-polytope corpus, which the CLI has no option for, and
verifies it with ``thm1.1``, writing the same json-lines records as
``hstar verify``.  After the sweep the process's peak resident set is
written to stderr as one line starting with ``RSS_PREFIX`` and, with
``--trace``, the per-span totals as one line starting with
``TRACE_PREFIX``.  Needs ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import random
import sys
from itertools import product

import hstarlib.cli
from hstarlib import harness
from hstarlib.ehrhart import HRepPolytope, Simplex
from hstarlib.errors import InvalidInput

TRACE_PREFIX = "perfbench-trace "
RSS_PREFIX = "perfbench-peak-rss-kb "

# largest dilation of the dilated simplices and cubes in each dimension.
# In dimension 4 dilations 3 and 4 took 0.05 to 0.75 s each, two thirds of
# a pass in all; inputs that long read the host's changes of speed more
# than the program's (see DESIGN.md)
DILATIONS = {1: 4, 2: 4, 3: 4, 4: 2}
# random simplices per dimension, and the coordinate range of their vertices
RANDOM_SIMPLICES = {3: (10, 4), 4: (8, 3)}
# (dimension, dilation) of the cross-polytopes
CROSS_POLYTOPES = ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1))


def random_simplices(seed: int) -> list[Simplex]:
    """Seeded lattice simplices; affinely dependent draws are skipped."""
    rng = random.Random(seed)
    out = []
    for d, (count, high) in RANDOM_SIMPLICES.items():
        made = 0
        while made < count:
            vertices = [[rng.randint(0, high) for _ in range(d)] for _ in range(d + 1)]
            try:
                out.append(Simplex(vertices))
            except InvalidInput:
                continue
            made += 1
    return out


def cross_polytope(d: int, k: int) -> HRepPolytope:
    """k times conv{+-e_i}: every row uses every coordinate, so the box
    cannot be derived and is given explicitly."""
    rows = [(signs, k) for signs in product((-1, 1), repeat=d)]
    return HRepPolytope(rows, d, box=([-k] * d, [k] * d))


def polytope_corpus(seed: int, random_only: bool = False) -> list:
    corpus = random_simplices(seed)
    if random_only:
        return corpus
    dilated = [
        build(d, k)
        for build in (harness.dilated_simplex, harness.dilated_cube)
        for d, top in DILATIONS.items()
        for k in range(1, top + 1)
    ]
    crosses = [cross_polytope(d, k) for d, k in CROSS_POLYTOPES]
    return dilated + corpus + crosses


def polytope_inputs(random_only: bool) -> int:
    """Corpus size without building it."""
    size = sum(count for count, _ in RANDOM_SIMPLICES.values())
    return size if random_only else size + 2 * sum(DILATIONS.values()) + len(CROSS_POLYTOPES)


def verify_polytopes(build, seed: int, random_only: bool, mutate: bool) -> int:
    corpus = build(seed, random_only)
    summary = harness.Summary()
    for report in harness.verify_all(corpus, ["thm1.1"], mutate=mutate):
        summary.add(report)
        print(json.dumps(report.to_record(), separators=(",", ":")))
    print(json.dumps(summary.to_record(), separators=(",", ":")))
    return 0 if summary.failures == 0 else 1


def peak_rss_kb() -> int:
    """Peak resident set of this process's own memory, in KiB.

    ``VmHWM`` rather than ``ru_maxrss``: on Linux the latter starts from
    the resident set of the process that spawned this one.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    tracer = None
    build = polytope_corpus
    if argv and argv[0] == "--trace":
        import spans

        argv = argv[1:]
        tracer = spans.Tracer()
        tracer.install()
        build = tracer.wrap(spans.CORPUS_SPAN, polytope_corpus)
    if not argv or argv[0] not in ("cli", "polytopes"):
        print(__doc__, file=sys.stderr)
        return 2
    if argv[0] == "cli":
        code = hstarlib.cli.main(argv[1:])
    else:
        rest = argv[1:]
        flags = {"--random-only", "--mutate-selftest"}
        try:
            seed = int(rest[0])
        except (IndexError, ValueError):
            seed = None
        if seed is None or not set(rest[1:]) <= flags:
            print(__doc__, file=sys.stderr)
            return 2
        code = verify_polytopes(build, seed, "--random-only" in rest, "--mutate-selftest" in rest)
    print(RSS_PREFIX + str(peak_rss_kb()), file=sys.stderr)
    if tracer is not None:
        print(TRACE_PREFIX + json.dumps(tracer.totals()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
