"""The benchmark's reference streams, byte for byte.

Each reference child of ``perfbench/run.py`` runs once, and its json-lines
stream, ``seconds`` fields aside, must match the digest recorded in
``perfbench/expected.json``, with every check passing.  A refactor that
changes what any reference input reports fails here.  The same corpora,
run in process plain and mutated, give every check one status.  Only
reads ``perfbench/``.
"""

import json
import sys
import time
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import child  # noqa: E402  (perfbench/child.py)
import run  # noqa: E402  (perfbench/run.py)

from hstarlib.harness import enumerate_labeled_posets, random_instances, verify_all  # noqa: E402

EXPECTED = json.loads(run.EXPECTED.read_text())
REFERENCE = [(w.name, child) for w in run.workloads(0).values() for child in w.reference]


@pytest.mark.parametrize("workload, child", REFERENCE, ids=[name for name, _ in REFERENCE])
def test_stream_matches_the_recorded_digest(workload, child):
    done = run.run_child(child, deadline=time.perf_counter() + 120)
    failed, digest = run.check(done, EXPECTED[workload][child.key])
    assert failed == 0, (done.exit_code, digest, done.stderr[-2000:])


# the reference corpora in process, with the checks each child runs
CORPORA = {
    "posets-exhaustive-4": (lambda: enumerate_labeled_posets(4), None),
    "graphs-random-5": (lambda: random_instances("graph", 5, 81, 701), None),
    "polytopes-lattice": (lambda: child.polytope_corpus(0), ["thm1.1"]),
}


@pytest.mark.parametrize("mutate", [False, True], ids=["plain", "mutated"])
@pytest.mark.parametrize("workload", CORPORA)
def test_every_check_has_one_status_and_failure_reads_it(workload, mutate):
    build, checks = CORPORA[workload]
    reports = list(verify_all(build(), checks, mutate=mutate))
    for report in reports:
        statuses = {check.status for check in report.checks}
        assert statuses <= {"pass", "fail", "skip", "error"}
        assert report.failed == bool(statuses & {"fail", "error"})
    # plain, every input passes; mutated, every input fails
    assert [report.failed for report in reports] == [mutate] * len(reports)
