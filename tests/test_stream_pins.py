"""Streams beyond the benchmark corpora, byte for byte.

``stream_pins.json`` holds, per ``verify`` argument list, the exit status,
the record count and the SHA-256 of the json-lines stream with every
``seconds`` field removed, each record as compact JSON and a newline.  The
d = 4 and d = 6 graph digests were recorded before the orientation route was cut down to
weak counts, and the random-poset and d = 0 digests before the harness
read an input's kind, checks and numerator route off one table.  The
d = 5 graph digests were recorded before ``inequality_report`` read its
lines off the split, and the mutated stream holds both i-lists, [1] and
[1, 2], of failing inequalities.  The d = 7 graph digest was recorded
before the orientation tally transformed one orientation of each
reversal pair only, and the d = 8 graph digest before thm1.3 read its
verdict off the direct split of z h_G and each orientation class's own
split.  The mutated d = 4 poset digest was recorded before one run-wide
memo took over the harness's and ``decomp``'s five value caches; a failed
verdict stored there is shared by every input with its numerator.  The
mutated d = 5 stream of conj6.4 and thm1.4 alone was recorded before they
read their lines off the memoised conj6.1 and thm1.3 splits; with those
two checks unselected, the derived ones build the splits themselves, and
the stream holds the failing i-lists [1], [1, 2] and [1, 2, 3].  The
budget-300 d = 7 digest was recorded while the sweep charged every
orientation as it was asked for; it holds 72 sweep refusals and 48
passes.  A refactor that changes any record fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from hstarlib.cli import main

PINS = json.loads((Path(__file__).with_name("stream_pins.json")).read_text())


def without_seconds(value):
    if isinstance(value, dict):
        return {k: without_seconds(v) for k, v in value.items() if k != "seconds"}
    if isinstance(value, list):
        return [without_seconds(v) for v in value]
    return value


@pytest.mark.parametrize("args", PINS)
def test_stream_matches_its_pin(capsys, args):
    code = main(["verify", *args.split(), "--format", "json-lines"])
    lines = capsys.readouterr().out.splitlines()
    digest = hashlib.sha256()
    for line in lines:
        record = without_seconds(json.loads(line))
        digest.update(json.dumps(record, separators=(",", ":")).encode() + b"\n")
    pin = PINS[args]
    assert (code, len(lines), digest.hexdigest()) == (pin["exit"], pin["records"], pin["sha256"])
