"""The benchmark's reference streams, byte for byte.

Each reference child of ``perfbench/run.py`` runs once, and its json-lines
stream, ``seconds`` fields aside, must match the digest recorded in
``perfbench/expected.json``, with every check passing.  A refactor that
changes what any reference input reports fails here.  Only reads
``perfbench/``.
"""

import json
import sys
import time
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402  (perfbench/run.py)

EXPECTED = json.loads(run.EXPECTED.read_text())
REFERENCE = [(w.name, child) for w in run.workloads(0).values() for child in w.reference]


@pytest.mark.parametrize("workload, child", REFERENCE, ids=[name for name, _ in REFERENCE])
def test_stream_matches_the_recorded_digest(workload, child):
    done = run.run_child(child, deadline=time.perf_counter() + 120)
    failed, digest = run.check(done, EXPECTED[workload][child.key])
    assert failed == 0, (done.exit_code, digest, done.stderr[-2000:])
