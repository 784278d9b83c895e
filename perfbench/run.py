"""Benchmark of hstarlib's verification sweeps.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every sweep runs in a fresh child process
(``python3 -u perfbench/child.py``, ``src`` on ``PYTHONPATH``) whose
json-lines report stream is read from outside as it is written.

``--trace 0`` measures the end-to-end metrics (see DESIGN.md):

1. ``SETUP_PROBES`` set-up probes, after one warm-up and split around
   step 2: the workload's first child is started and killed at its first
   report line;
2. a fixed number of passes over the workload's reference corpus, about
   ``--seconds`` of sweep time at the defining commit and at least one;
3. the workload's command on a corpus drawn from ``--seed``, checked for
   correctness only.

``--trace 1`` runs one untraced and one traced pass over the reference
corpus and reports the per-layer metrics of the traced pass.

Every child's output is checked: reference streams must match the digests
in ``expected.json`` with ``seconds`` fields removed, and every stream must
end with a summary, exit 0 and contain only passing checks.  The last line
of stdout is the result object; the line before it is the run record.
``--write-expected`` re-records the reference digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
CHILD = HERE / "child.py"

SETUP_PROBES = 9
# no child runs past this many seconds after the start, so a run ends in time
RUN_DEADLINE_S = 165.0
# the tail percentile is the highest of these that leaves at least ten
# per-input latency samples beyond it
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END_UNITS = {
    "inputs_per_s": "1/s",
    "input_p50_ms": "ms",
    "input_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# span -> reported stats; a metric is named <span>.<stat>
LAYERS = {
    "polynomial.interpolate": ("calls", "self_s"),
    "polynomial.IntPolynomial.init": ("calls", "self_s"),
    "polynomial.series_numerator": ("self_s",),
    "polynomial.expand_series": ("self_s",),
    "polynomial.f_to_h": ("self_s",),
    "poset.Poset.init": ("calls", "self_s"),
    "poset.Poset.order_ideals": ("calls", "self_s", "ideals"),
    "poset.order_map_counts": ("calls", "self_s"),
    "poset.ideal_chain_f_vector": ("self_s",),
    "poset.order_polynomial": ("self_s",),
    "poset.descent_h_star": ("self_s",),
    "poset.linear_extensions": ("yielded", "self_s"),
    "graph.acyclic_orientations": ("sweeps", "yielded", "self_s"),
    "graph.orientation_poset": ("calls", "self_s"),
    "graph.chromatic_via_orientations": ("self_s",),
    "graph.chromatic_polynomial": ("calls", "self_s"),
    "graph.count_proper_colorings": ("self_s", "colorings"),
    "ehrhart.h_star": ("calls", "self_s"),
    "ehrhart.OrderPolytope.count_series": ("self_s",),
    "ehrhart.open_numerator": ("self_s",),
    "ehrhart.Simplex.init": ("self_s",),
    "ehrhart.Simplex.count_points": ("self_s", "box_points"),
    "ehrhart.HRepPolytope.count_points": ("self_s", "box_points"),
    "decomp.ab_decompose": ("self_s",),
    "decomp.order_decomposition": ("self_s",),
    "decomp.open_decomposition": ("self_s",),
    "decomp.graph_numerator": ("self_s",),
    "decomp.graph_decomposition": ("self_s",),
    "decomp.inequality_report": ("self_s",),
    "harness.verify_all": ("self_s",),
    "harness.corpus": ("self_s",),
    "budget.charge": ("calls",),
    "cli.main": ("self_s",),
}
# metric stat -> (span total it reads, unit); charged work is box points
# for the polytope walkers and candidate colorings for the brute force
STATS = {
    "calls": ("calls", "count"),
    "sweeps": ("calls", "count"),
    "yielded": ("yielded", "count"),
    "ideals": ("ideals", "count"),
    "colorings": ("charged", "count"),
    "box_points": ("charged", "count"),
    "self_s": ("self_s", "s"),
}
BOX_WALKERS = ("ehrhart.Simplex.count_points", "ehrhart.HRepPolytope.count_points")
DERIVED_LAYER_UNITS = {
    "graph.acyclic_orientations.sweeps_per_input": "ratio",
    "ehrhart.box.hit_ratio": "ratio",
    "harness.skipped_checks": "count",
    "trace.overhead_ratio": "ratio",
}


@dataclass(frozen=True)
class Child:
    """One sweep process: ``cli`` arguments for ``hstar`` or ``polytopes``
    arguments for child.py, and the number of inputs it must report."""

    kind: str
    args: tuple[str, ...]
    inputs: int

    @property
    def key(self) -> str:
        return " ".join((self.kind, *self.args))


@dataclass(frozen=True)
class Workload:
    name: str
    reference: tuple[Child, ...]  # timed and digest-checked
    seeded: tuple[Child, ...]  # correctness check on the run's seed
    # one reference pass at the defining commit on a 2-vCPU host; a run of
    # S seconds makes round(S / pass_seconds) passes, at least one, so the
    # number of samples does not depend on the speed of the program
    pass_seconds: float

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.pass_seconds))


def _verify(*args: str, inputs: int) -> Child:
    return Child("cli", ("verify", *args, "--format", "json-lines"), inputs)


def workloads(seed: int) -> dict[str, Workload]:
    """The workloads.  Reference corpora are fixed, so that runs on every
    seed time the same work; ``seed`` draws the correctness corpus."""
    import child

    def polytopes(s: int, random_only: bool) -> Child:
        args = (str(s), "--random-only") if random_only else (str(s),)
        return Child("polytopes", args, child.polytope_inputs(random_only))

    return {
        w.name: w
        for w in (
            Workload("posets-exhaustive-4", (_verify("--posets", "4", inputs=219),), (), 0.9),
            Workload(
                "graphs-random-5",
                (_verify("--random", "graph,5,81", "--seed", "701", inputs=81),),
                (_verify("--random", "graph,5,3", "--seed", str(seed), inputs=3),),
                1.3,
            ),
            Workload("polytopes-lattice", (polytopes(0, False),), (polytopes(seed, True),), 0.8),
        )
    }


# ---------------------------------------------------------------------------
# child processes


@dataclass
class ChildRun:
    child: Child
    spawned: float
    lines: list[bytes] = field(default_factory=list)
    arrivals: list[float] = field(default_factory=list)
    records: list[dict | None] = field(default_factory=list)
    exit_code: int = 0
    maxrss_kb: int = 0
    stderr: str = ""
    ended: float = 0.0

    def reports(self) -> list[tuple[float, dict]]:
        """(arrival time, record) of each report line."""
        return [
            (t, r)
            for t, r in zip(self.arrivals, self.records)
            if r is not None and r.get("type") == "report"
        ]


def argv_for(child: Child, *, trace: bool = False, mutate: bool = False) -> list[str]:
    args = [*child.args, "--mutate-selftest"] if mutate else list(child.args)
    return [sys.executable, "-u", str(CHILD), *(["--trace"] if trace else []), child.kind, *args]


def _record(line: bytes) -> dict | None:
    try:
        record = json.loads(line)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


def run_child(
    child: Child,
    *,
    deadline: float,
    trace: bool = False,
    mutate: bool = False,
    first_report_only: bool = False,
) -> ChildRun:
    """Run one child, time-stamping each stdout line as it arrives.

    The child is killed at ``deadline`` (a ``perf_counter`` value), or at
    its first report line with ``first_report_only``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    run = ChildRun(child, time.perf_counter())
    proc = subprocess.Popen(
        argv_for(child, trace=trace, mutate=mutate),
        cwd=ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    errors: list[bytes] = []
    drain = threading.Thread(target=lambda: errors.append(proc.stderr.read()))
    drain.start()
    watchdog = threading.Timer(max(deadline - time.perf_counter(), 0.0), proc.kill)
    watchdog.start()
    try:
        for line in iter(proc.stdout.readline, b""):
            run.arrivals.append(time.perf_counter())
            run.lines.append(line)
            if first_report_only and b'"type":"report"' in line:
                break
        if first_report_only:
            proc.kill()
    except BaseException:
        proc.kill()
        raise
    finally:
        watchdog.cancel()
        proc.stdout.close()
        proc.wait()
        drain.join()
        proc.stderr.close()
    run.ended = time.perf_counter()
    run.exit_code = proc.returncode
    run.stderr = b"".join(errors).decode(errors="replace")
    from child import RSS_PREFIX as prefix

    run.maxrss_kb = max(
        (int(line[len(prefix):]) for line in run.stderr.splitlines() if line.startswith(prefix)),
        default=0,
    )
    run.records = [_record(line) for line in run.lines]
    return run


# ---------------------------------------------------------------------------
# output checks


def strip_seconds(value):
    """The record with every ``seconds`` field removed, at any depth."""
    if isinstance(value, dict):
        return {k: strip_seconds(v) for k, v in value.items() if k != "seconds"}
    if isinstance(value, list):
        return [strip_seconds(v) for v in value]
    return value


def stream_digest(records: list[dict]) -> str:
    digest = hashlib.sha256()
    for record in records:
        digest.update(json.dumps(strip_seconds(record), separators=(",", ":")).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def check(run: ChildRun, expected_digest: str | None) -> tuple[int, str | None]:
    """(inputs of ``run`` counted as failed, digest of its stream).

    All inputs fail when the child exits non-zero, writes a line that is not
    a JSON object, ends without a summary, reports another number of inputs
    or misses ``expected_digest``; otherwise those whose checks do not all
    pass.
    """
    records = run.records
    inputs = run.child.inputs
    digest = stream_digest(records) if records and None not in records else None
    reports = [r for _, r in run.reports()]
    if (
        run.exit_code != 0
        or digest is None
        or records[-1].get("type") != "summary"
        or records[-1].get("inputs") != inputs
        or len(reports) != inputs
        or (expected_digest is not None and digest != expected_digest)
    ):
        return inputs, digest
    return sum(any(c.get("status") != "pass" for c in r.get("checks", ())) for r in reports), digest


# ---------------------------------------------------------------------------
# timing


def setup_seconds(run: ChildRun) -> float | None:
    """Spawn to the first report line, less that input's own check time."""
    reports = run.reports()
    if not reports:
        return None
    arrived, record = reports[0]
    return arrived - run.spawned - float(record.get("seconds", 0.0))


def latency_gaps(run: ChildRun) -> list[float]:
    """Per-input latency: time between consecutive report lines, from the
    second report on.

    A gap is never taken as shorter than the check time the child reports
    for that input: when the reader is late for one line, the next gap
    would otherwise read too short, down to 0 for lines read in a burst.
    """
    reports = run.reports()
    return [
        max(b - a, float(record.get("seconds", 0.0)))
        for (a, _), (b, record) in zip(reports, reports[1:])
    ]


def first_report_seconds(run: ChildRun) -> float:
    """Spawn to the first report line (to process end when there is none)."""
    reports = run.reports()
    return reports[0][0] - run.spawned if reports else run.ended - run.spawned


def sweep_seconds(run: ChildRun) -> float:
    """Spawn to the summary line (to process end when there is none)."""
    for arrived, record in zip(reversed(run.arrivals), reversed(run.records)):
        if record is not None and record.get("type") == "summary":
            return arrived - run.spawned
    return run.ended - run.spawned


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least ten of ``samples`` beyond it
    (nearest rank); the median when there are too few."""
    for p in TAIL_LADDER:
        if samples - math.ceil(p / 100 * samples) >= 10:
            return p
    return 50.0


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100 * len(ordered)), 1) - 1]


@dataclass
class Sweep:
    """Checked child runs and what they add up to."""

    runs: list[ChildRun] = field(default_factory=list)
    digests: list[str | None] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def add(self, run: ChildRun, expected_digest: str | None) -> None:
        failed, digest = check(run, expected_digest)
        self.runs.append(run)
        self.digests.append(digest)
        self.attempted += run.child.inputs
        self.failed += failed

    def inputs(self) -> int:
        return sum(len(r.reports()) for r in self.runs)

    def inputs_per_s(self) -> float:
        return self.inputs() / sum(sweep_seconds(r) for r in self.runs)


def run_pass(workload: Workload, sweep: Sweep, deadline: float, **kw) -> None:
    """One pass over the reference corpus, checked against its digests."""
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    expected = expected.get(workload.name, {})
    for child in workload.reference:
        sweep.add(run_child(child, deadline=deadline, **kw), expected.get(child.key))


# ---------------------------------------------------------------------------
# the two kinds of run


def measure(workload: Workload, seconds: float, mutate: bool, deadline: float) -> dict:
    """End-to-end metrics of one untraced run."""
    def probe() -> ChildRun:
        first = workload.reference[0]
        return run_child(first, deadline=deadline, mutate=mutate, first_report_only=True)

    # the first probe fills the bytecode cache; the others are split around
    # the passes so that set-up is sampled across the run
    probe()
    probes = [probe() for _ in range(SETUP_PROBES // 2)]
    sweep = Sweep()
    passes = workload.passes(seconds)
    for _ in range(passes):
        run_pass(workload, sweep, deadline, mutate=mutate)
    timed = list(sweep.runs)
    probes += [probe() for _ in range(SETUP_PROBES - len(probes))]
    setups = [s for s in map(setup_seconds, probes) if s is not None]
    for child in workload.seeded:
        sweep.add(run_child(child, deadline=deadline, mutate=mutate), None)

    # the host runs this code up to twice as slowly for periods of seconds to
    # minutes, so every input is timed by its least gap over the passes, and
    # a reference child's sweep time is its least time to the first report
    # plus those least gaps
    per_child = [timed[c :: len(workload.reference)] for c in range(len(workload.reference))]
    sweep_time = 0.0
    gaps = []
    for runs in per_child:
        least = [min(g) for g in zip(*map(latency_gaps, runs))]
        sweep_time += min(first_report_seconds(r) for r in runs) + sum(least)
        gaps += least
    if not gaps or not setups:
        raise RuntimeError("the sweeps gave no latency or set-up samples")
    tail_p = tail_percentile(len(gaps))
    values = {
        "inputs_per_s": sum(child.inputs for child in workload.reference) / sweep_time,
        "input_p50_ms": statistics.median(gaps) * 1000,
        "input_tail_ms": percentile(gaps, tail_p) * 1000,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(run.maxrss_kb for run in timed) / 1024,
    }
    return {
        "metrics": {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()},
        "sweep": sweep,
        "record": {
            "passes": passes,
            "latency_samples": len(gaps),
            "tail_percentile": tail_p,
            "tail_samples_beyond": len(gaps) - math.ceil(tail_p / 100 * len(gaps)),
            "setup_samples": len(setups),
        },
    }


def trace_totals(runs: list[ChildRun]) -> dict[str, dict[str, float]]:
    """Span totals the traced children wrote to stderr, summed."""
    import child

    totals: dict[str, dict[str, float]] = {}
    for run in runs:
        for line in run.stderr.splitlines():
            if line.startswith(child.TRACE_PREFIX):
                for span, stats in json.loads(line[len(child.TRACE_PREFIX):]).items():
                    merged = totals.setdefault(span, {})
                    for key, value in stats.items():
                        merged[key] = merged.get(key, 0) + value
    return totals


def layer_metrics(totals: dict, inputs: int, skipped: int, overhead: float) -> dict:
    """Per-layer metrics from span totals; idle spans read 0."""

    def total(span: str, key: str) -> float:
        return totals.get(span, {}).get(key, 0)

    metrics = {}
    for span, stats in LAYERS.items():
        for stat in stats:
            key, unit = STATS[stat]
            metrics[f"{span}.{stat}"] = (total(span, key), unit)
    tested = sum(total(s, "charged") for s in BOX_WALKERS)
    counted = sum(total(s, "result_sum") for s in BOX_WALKERS)
    derived = {
        "graph.acyclic_orientations.sweeps_per_input": total("graph.acyclic_orientations", "calls")
        / inputs,
        "ehrhart.box.hit_ratio": counted / tested if tested else 0.0,
        "harness.skipped_checks": skipped,
        "trace.overhead_ratio": overhead,
    }
    metrics.update((name, (derived[name], unit)) for name, unit in DERIVED_LAYER_UNITS.items())
    return metrics


def measure_traced(workload: Workload, mutate: bool, deadline: float) -> dict:
    """Per-layer metrics of one traced pass, against one untraced pass."""
    plain, traced = Sweep(), Sweep()
    run_pass(workload, plain, deadline, mutate=mutate)
    run_pass(workload, traced, deadline, mutate=mutate, trace=True)
    same_stream = None not in plain.digests and plain.digests == traced.digests
    totals = trace_totals(traced.runs)
    inputs = traced.inputs()
    if not inputs or not totals:
        raise RuntimeError("the traced pass gave no reports or no trace")
    skipped = sum(
        check.get("status") == "skip"
        for run in traced.runs
        for _, record in run.reports()
        for check in record.get("checks", ())
    )
    untraced_rate, traced_rate = plain.inputs_per_s(), traced.inputs_per_s()
    sweep = Sweep(
        runs=plain.runs + traced.runs,
        attempted=plain.attempted + traced.attempted,
        failed=plain.failed + traced.failed,
    )
    if not same_stream:
        sweep.failed = sweep.attempted
    return {
        "metrics": layer_metrics(totals, inputs, skipped, untraced_rate / traced_rate),
        "sweep": sweep,
        "record": {
            "untraced_inputs_per_s": untraced_rate,
            "traced_inputs_per_s": traced_rate,
            "traced_stream_equals_untraced": same_stream,
        },
    }


# ---------------------------------------------------------------------------
# run record and entry point


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # not a checkout of its own; do not let git search above it
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
        return lines[1]
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hstarlib").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def host_loop_ms() -> float:
    """Median time of a fixed pure-Python loop.  Recorded before and after a
    run, it tells drift in the host's speed from changes in the program."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000


def write_expected() -> int:
    """Record the reference digests of every workload, checking each
    stream for clean passes but not against the digests it replaces."""
    deadline = time.perf_counter() + 3600
    table = {}
    for workload in workloads(0).values():
        sweep = Sweep()
        for child in workload.reference:
            sweep.add(run_child(child, deadline=deadline), None)
        if sweep.failed:
            print(f"error: {workload.name} did not pass cleanly", file=sys.stderr)
            return 1
        table[workload.name] = {c.key: d for c, d in zip(workload.reference, sweep.digests)}
    EXPECTED.write_text(json.dumps(table, indent=2) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--mutate-selftest",
        action="store_true",
        help="pass --mutate-selftest to every sweep; the output check must then fail",
    )
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "hstarlib" / "cli.py").is_file():
        print(f"error: no hstarlib sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_expected:
        return write_expected()
    table = workloads(args.seed)
    if args.workload not in table:
        parser.error(f"--workload must be one of {sorted(table)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    deadline = time.perf_counter() + RUN_DEADLINE_S
    workload = table[args.workload]
    loop_before = host_loop_ms()
    try:
        if args.trace:
            result = measure_traced(workload, args.mutate_selftest, deadline)
        else:
            result = measure(workload, args.seconds, args.mutate_selftest, deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    import child

    sweep: Sweep = result["sweep"]
    for run in sweep.runs:
        messages = [
            ln
            for ln in run.stderr.splitlines()
            if not ln.startswith((child.TRACE_PREFIX, child.RSS_PREFIX))
        ]
        if messages:
            print(f"{run.child.key}: " + "\n".join(messages[-20:]), file=sys.stderr)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    record = {
        "type": "run",
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": sys.argv if argv is None else argv,
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "corpus": {
            "reference": [c.key for c in workload.reference],
            "seeded": [c.key for c in workload.seeded],
        },
        "attempted": sweep.attempted,
        "failed": sweep.failed,
        "failed_share": {"value": sweep.failed / sweep.attempted, "unit": "ratio"},
        "host_loop_ms": {"before": loop_before, "after": host_loop_ms()},
        **result["record"],
        "metrics": metrics,
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": sweep.failed == 0,
        "attempted": sweep.attempted,
        "failed": sweep.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
