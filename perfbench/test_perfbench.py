"""Fast tests of the benchmark's own logic (a few seconds in all)."""

import json
import sys

import pytest

import run
import spans

sys.path.insert(0, str(run.SRC))

TINY = run.Child("cli", ("verify", "--graphs", "3", "--format", "json-lines"), 8)


def far_deadline() -> float:
    return run.time.perf_counter() + 60


class FakeClock:
    """Advances by a fixed step on every reading."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


class TestTailPercentile:
    @pytest.mark.parametrize(
        "samples, expected",
        [
            (4230, 99.5), (218, 95.0), (119, 90.0), (100, 90.0),
            (99, 75.0), (40, 75.0), (39, 50.0), (5, 50.0),
        ],
    )
    def test_highest_ladder_rung_with_ten_beyond(self, samples, expected):
        assert run.tail_percentile(samples) == expected

    def test_ten_samples_lie_beyond_the_chosen_percentile(self):
        values = [float(v) for v in range(1, 41)]
        p = run.tail_percentile(len(values))
        value = run.percentile(values, p)
        assert sum(v > value for v in values) >= 10
        assert value == 30.0

    def test_nearest_rank(self):
        assert run.percentile([3.0, 1.0, 2.0], 50) == 2.0
        assert run.percentile([1.0], 99.9) == 1.0


class TestLatency:
    @staticmethod
    def child_run(arrivals, seconds):
        done = run.ChildRun(TINY, spawned=0.0)
        done.arrivals = [*arrivals, arrivals[-1]]
        done.records = [{"type": "report", "seconds": s} for s in seconds]
        done.records.append({"type": "summary"})
        return done

    def test_gaps_start_at_the_second_report(self):
        done = self.child_run([1.0, 1.5, 3.0], [0.1, 0.2, 0.3])
        assert run.latency_gaps(done) == pytest.approx([0.5, 1.5])
        assert run.first_report_seconds(done) == 1.0

    def test_gap_is_never_shorter_than_the_reported_check_time(self):
        # the second line was read 0.3 s late, so the third came in a burst
        done = self.child_run([1.0, 1.8, 1.81], [0.1, 0.5, 0.4])
        assert run.latency_gaps(done) == pytest.approx([0.8, 0.4])


class TestSelfTime:
    def test_nested_spans_subtract_children(self):
        # every clock reading advances 1 s: a span with no children lasts 1 s,
        # and each child adds its own two readings to the parent's duration
        tracer = spans.Tracer(clock=FakeClock())
        inner = tracer.wrap("inner", lambda: None)
        outer = tracer.wrap("outer", lambda: (inner(), inner()))
        outer()
        stats = tracer.totals()
        assert stats["inner"]["calls"] == 2
        assert stats["inner"]["self_s"] == 2.0
        assert stats["outer"]["self_s"] == 5.0 - 2.0
        assert stats["outer"]["calls"] == 1

    def test_generators_are_timed_per_next(self):
        tracer = spans.Tracer(clock=FakeClock())
        leaf = tracer.wrap("leaf", lambda: None)

        def produce():
            for i in range(3):
                leaf()
                yield i

        gen = tracer.wrap("gen", produce)
        assert list(gen()) == [0, 1, 2]
        stats = tracer.totals()
        assert stats["gen"]["yielded"] == 3
        assert stats["gen"]["calls"] == 1
        assert stats["leaf"]["self_s"] == 3.0
        # creation and the final next() last 1 s each; the three next() spans
        # that call a leaf last 3 s each, 1 s of it covered by the leaf
        assert stats["gen"]["self_s"] == 1.0 + 3 * 2.0 + 1.0

    def test_charge_credits_the_innermost_span(self):
        tracer = spans.Tracer()
        charge = tracer.wrap_charge(lambda amount, budget, what: None)
        walker = tracer.wrap("walker", lambda: charge(7, None, "box"))
        walker()
        walker()
        stats = tracer.totals()
        assert stats["walker"]["charged"] == 14
        assert stats["budget.charge"]["calls"] == 2


class TestDigest:
    def test_seconds_removed_at_every_depth(self):
        record = {"type": "report", "seconds": 1.5, "checks": [{"name": "x", "seconds": 2}]}
        assert run.strip_seconds(record) == {"type": "report", "checks": [{"name": "x"}]}

    def test_digest_ignores_only_seconds(self):
        a = [{"type": "report", "index": 0, "seconds": 0.1}, {"type": "summary", "inputs": 1}]
        b = [{"type": "report", "index": 0, "seconds": 9.9}, {"type": "summary", "inputs": 1}]
        c = [{"type": "report", "index": 1, "seconds": 0.1}, {"type": "summary", "inputs": 1}]
        assert run.stream_digest(a) == run.stream_digest(b)
        assert run.stream_digest(a) != run.stream_digest(c)


class TestOutputCheck:
    def test_clean_sweep_passes(self):
        child = run.run_child(TINY, deadline=far_deadline())
        failed, digest = run.check(child, None)
        assert failed == 0
        assert run.check(child, digest) == (0, digest)
        assert run.check(child, "0" * 64)[0] == TINY.inputs

    def test_mutate_selftest_drives_failed_share_above_zero(self):
        child = run.run_child(TINY, deadline=far_deadline(), mutate=True)
        sweep = run.Sweep()
        sweep.add(child, None)
        assert child.exit_code == 1
        assert sweep.failed / sweep.attempted > 0

    def test_lost_inputs_count_as_failed(self):
        short = run.Child(TINY.kind, TINY.args, TINY.inputs + 1)
        child = run.run_child(short, deadline=far_deadline())
        assert run.check(child, None)[0] == short.inputs


def test_traced_child_rebinds_imports_and_keeps_the_stream():
    plain = run.run_child(TINY, deadline=far_deadline())
    traced = run.run_child(TINY, deadline=far_deadline(), trace=True)
    assert run.check(traced, run.check(plain, None)[1])[0] == 0
    totals = run.trace_totals([traced])
    metrics = run.layer_metrics(totals, TINY.inputs, 0, 1.0)
    # thm1.3, thm1.4 (twice) and chromatic3 each sweep the orientations
    assert metrics["graph.acyclic_orientations.sweeps_per_input"][0] == 4.0
    assert metrics["decomp.graph_numerator.self_s"][0] > 0
    assert metrics["budget.charge.calls"][0] > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layers = run.layer_metrics({}, 1, 0, 1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in layers.items()
    }
    assert {w["name"] for w in spec["workloads"]} == set(run.workloads(0))
