"""Named one-line mutants of hstarlib, each run against the tier-1 suite.

A mutant is an exact (file, old, new) replacement whose old text occurs once
in its file.  For each mutant the working tree is copied, without ``.git``
and bytecode caches, into a temporary directory; the mutant is applied there
and the tier-1 suite runs on the copy with ``-x -q``, all but
``tests/test_mutants.py``, which checks the list itself.  One json line per
mutant says whether a test failed (``killed``), none did (``survived``) or
the run broke for another reason (``error``), and names the first failing
test.  A mutant that no test kills marks a choice in the code that no test
holds.  Before the mutants, tier-1 runs once on an unmutated copy; if that
fails, its one ``error`` line is all that is printed.

Usage, from anywhere, standard library only::

    python tools/mutants.py

The exit status is 1 if any mutant was not killed or the unmutated copy
failed, else 0.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
HARNESS = "src/hstarlib/harness.py"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str


MUTANTS = (
    # the sign tests of the harness's checks, one evidence part each
    Mutant(
        "thm1.1 without its a_P test",
        HARNESS,
        "        a_p.is_nonnegative() and b_p.is_nonnegative(),\n",
        "        b_p.is_nonnegative(),\n",
    ),
    Mutant(
        "thm1.2 without its -a_Pi test",
        HARNESS,
        "        (-a_pi).is_nonnegative() and b_pi.is_nonnegative(),\n",
        "        b_pi.is_nonnegative(),\n",
    ),
    Mutant(
        "thm1.2 without its b_Pi test",
        HARNESS,
        "        (-a_pi).is_nonnegative() and b_pi.is_nonnegative(),\n",
        "        (-a_pi).is_nonnegative(),\n",
    ),
    Mutant(
        "conj6.1 without its -a test",
        HARNESS,
        '(-dec.a).is_nonnegative() and dec.b.is_nonnegative(),\n'
        '        "sign failure in the h_G decomposition",',
        'dec.b.is_nonnegative(),\n'
        '        "sign failure in the h_G decomposition",',
    ),
    Mutant(
        "conj6.2 without its b test",
        HARNESS,
        '(-dec.a).is_nonnegative() and dec.b.is_nonnegative(),\n'
        '        "sign failure in the strict-series decomposition",',
        '(-dec.a).is_nonnegative(),\n'
        '        "sign failure in the strict-series decomposition",',
    ),
    Mutant(
        "thm1.3 without the -a test on z h_G's split",
        HARNESS,
        "        (-a).is_nonnegative() and b.is_nonnegative(),\n",
        "        b.is_nonnegative(),\n",
    ),
    Mutant(
        "thm1.3 without the b test on z h_G's split",
        HARNESS,
        "        (-a).is_nonnegative() and b.is_nonnegative(),\n",
        "        (-a).is_nonnegative(),\n",
    ),
    Mutant(
        "thm1.3 without its class loop",
        HARNESS,
        "    for counts in tally:  # thm1.2's verdict",
        "    for counts in ():  # thm1.2's verdict",
    ),
    Mutant(
        "conj6.4 one i short",
        HARNESS,
        "range(1, d // 2 + 1)",
        "range(1, d // 2)",
    ),
    Mutant(
        "thm1.4 one i short",
        HARNESS,
        "range(1, (d + 1) // 2 + 1)",
        "range(1, (d + 1) // 2)",
    ),
    # one choice each, made in one place
    Mutant(
        "_adjugate without its sign normalisation",
        "src/hstarlib/ehrhart.py",
        "    sign, prev = (1, prev) if prev > 0 else (-1, -prev)\n",
        "    sign = 1\n",
    ),
    Mutant(
        "the CLI's list line without its spaces",
        "src/hstarlib/cli.py",
        """return f"{key} = [{', '.join(items)}]\"""",
        """return f"{key} = [{','.join(items)}]\"""",
    ),
    Mutant(
        "the first edge's j-without-i mask",
        "src/hstarlib/graph.py",
        "i_only = full ^ steps[0][1]",
        "i_only = full ^ steps[0][0]",
    ),
)

# a short summary line: "FAILED <node id> - <message>"; an id may hold spaces
_FIRST_FAILURE = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", re.MULTILINE)


def apply(mutant: Mutant, root: Path) -> None:
    """Replace the mutant's old text, which must occur once, under ``root``."""
    path = root / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: old text occurs {text.count(mutant.old)} times")
    path.write_text(text.replace(mutant.old, mutant.new))


def _tier1(mutant: Mutant | None) -> tuple[subprocess.CompletedProcess, float]:
    """Tier-1 on a copy of the tree, with ``mutant`` applied if one is given."""
    with tempfile.TemporaryDirectory(prefix="hstar-mutant-") as scratch:
        tree = Path(scratch) / "tree"
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
        shutil.copytree(ROOT, tree, ignore=ignore)
        if mutant is not None:
            apply(mutant, tree)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        done = subprocess.run(
            # tests/test_mutants.py holds the old texts, so it fails on every
            # mutant; the fixed seed lets Hypothesis draw the same examples
            # on every copy, whose example database starts empty
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", "--ignore=tests/test_mutants.py"],
            cwd=tree, env=env, capture_output=True, text=True,
        )
        return done, time.perf_counter() - start


def _record(name: str | None, status: str, done, seconds: float) -> dict:
    first = _FIRST_FAILURE.search(done.stdout)
    return {
        "mutant": name,
        "status": status,
        "first_failure": first.group(1) if first else None,
        "exit": done.returncode,
        "seconds": round(seconds, 1),
    }


def run(mutant: Mutant) -> dict:
    """The mutant's record.  Pytest exits 1 when a test failed; it exits 2
    when collection broke or the run was interrupted, which kills the mutant
    only if the traceback passes through the mutated file."""
    done, seconds = _tier1(mutant)
    if done.returncode == 0:
        status = "survived"
    elif done.returncode == 1 or (done.returncode == 2 and mutant.file in done.stdout):
        status = "killed"
    else:
        status = "error"
    return _record(mutant.name, status, done, seconds)


def main() -> int:
    # a copy that fails unmutated would read every mutant as killed
    done, seconds = _tier1(None)
    if done.returncode != 0:
        print(json.dumps(_record(None, "error", done, seconds)), flush=True)
        return 1
    status = 0
    for mutant in MUTANTS:
        record = run(mutant)
        print(json.dumps(record), flush=True)
        if record["status"] != "killed":
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
