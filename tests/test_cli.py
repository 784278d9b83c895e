"""Command-line interface: subcommands, output formats, exit codes."""

import json
import os
import subprocess
import sys
import time
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest

from hstarlib.cli import main
from hstarlib.graph import Graph

K3_TEXT = "p 3 3\ne 1 2\ne 1 3\ne 2 3\n"
K2_TEXT = "p 2 1\ne 1 2\n"
CHAIN2_TEXT = "p 2 1\nr 1 2\n"


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.graph"
    path.write_text(K3_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestChromatic:
    def test_k3_text(self, capsys, k3_file):
        code, out = run(capsys, "chromatic", k3_file)
        assert code == 0
        assert "chi = [0, 2, -3, 1]" in out
        assert "h = [0, 0, 0, 6]" in out

    def test_k2_text(self, capsys, tmp_path):
        path = tmp_path / "k2.graph"
        path.write_text(K2_TEXT)
        code, out = run(capsys, "chromatic", str(path))
        assert code == 0
        assert "chi = [0, -1, 1]" in out
        assert "h = [0, 0, 2]" in out

    def test_single_vertex_padding(self, capsys, tmp_path):
        path = tmp_path / "one.graph"
        path.write_text("p 1 0\n")
        code, out = run(capsys, "chromatic", str(path))
        assert code == 0
        assert "chi = [0, 1]" in out
        assert "h = [0, 1]" in out

    def test_json_round_trip(self, capsys, k3_file):
        code, out = run(capsys, "chromatic", k3_file, "--format", "json-lines")
        assert code == 0
        record = json.loads(out)
        assert record["chi"] == ["0", "2", "-3", "1"]
        assert record["h"] == ["0", "0", "0", "6"]
        assert all(isinstance(c, str) for c in record["chi"])

    @pytest.mark.parametrize(
        "text, d, chi, h",
        [
            (K3_TEXT, 3, ["0", "2", "-3", "1"], ["0", "0", "0", "6"]),
            ("p 1 0\n", 1, ["0", "1"], ["0", "1"]),
        ],
        ids=["K3", "one-vertex"],
    )
    def test_whole_output(self, capsys, tmp_path, text, d, chi, h):
        path = tmp_path / "g.graph"
        path.write_text(text)
        code, out = run(capsys, "chromatic", str(path))
        assert code == 0
        assert out == f"chi = [{', '.join(chi)}]\nh = [{', '.join(h)}]\n"
        code, out = run(capsys, "chromatic", str(path), "--format", "json-lines")
        assert code == 0
        assert out == json.dumps(
            {"type": "chromatic", "d": str(d), "chi": chi, "h": h}, separators=(",", ":")
        ) + "\n"

    def test_malformed_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("not a graph\n")
        assert main([str("chromatic"), str(path)]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["chromatic", str(tmp_path / "absent.graph")]) == 2

    @pytest.mark.parametrize("command", [["chromatic"], ["decompose", "graph"]])
    @pytest.mark.parametrize(
        "text, message",
        [
            # 2^20000 has more digits than an int may print
            ("p 20000 0\n", "2^20000 vertex sets needs at least 2^20000 steps"),
            # so has 2^(10^9), which would take 125 MB to build
            ("p 1000000000 0\n", "2^1000000000 vertex sets needs at least 2^1000000000 steps"),
            (
                "p 23 253\n"
                + "".join(f"e {i} {j}\n" for i in range(1, 24) for j in range(i + 1, 24)),
                "2^23 vertex sets needs 8388608 steps",
            ),
        ],
        ids=["edgeless-20000", "edgeless-10^9", "K23"],
    )
    def test_oversized_graph_is_refused_at_once(self, capsys, tmp_path, command, text, message):
        path = tmp_path / "big.graph"
        path.write_text(text)
        start = time.perf_counter()
        tracemalloc.start()
        try:
            code = main([*command, str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert time.perf_counter() - start < 5  # before any deletion-contraction
        assert peak < 1 << 23  # nothing near 2^d bits is built
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: down-set mask over {message}, default budget is 5000000\n"

    def test_mask_is_held_to_the_default_budget_under_a_raised_one(self, capsys, tmp_path):
        # the 2^23-bit mask is an allocation: --budget does not raise its cap
        path = tmp_path / "k23.graph"
        path.write_text(Graph(23, combinations(range(1, 24), 2)).to_text())
        code = main(["chromatic", str(path), "--budget", "1000000000"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            "error: down-set mask over 2^23 vertex sets needs 8388608 steps, "
            "default budget is 5000000\n"
        )


class TestHstar:
    def test_simplex_file(self, capsys, tmp_path):
        path = tmp_path / "tri.poly"
        path.write_text("simplex 2\n0 0\n2 0\n0 2\n")
        code, out = run(capsys, "hstar", str(path))
        assert code == 0
        assert "hstar = [1, 3]" in out
        code, out = run(capsys, "hstar", str(path), "--format", "json-lines")
        assert code == 0
        assert json.loads(out) == {"type": "hstar", "d": "2", "hstar": ["1", "3"]}

    def test_order_file(self, capsys, tmp_path):
        (tmp_path / "anti3.poset").write_text("p 3 0\n")
        path = tmp_path / "op.poly"
        path.write_text("order anti3.poset\n")
        code, out = run(capsys, "hstar", str(path))
        assert code == 0
        assert "hstar = [1, 4, 1]" in out

    @pytest.mark.parametrize(
        "files, d, hstar",
        [
            ({"tri.poly": "simplex 2\n0 0\n2 0\n0 2\n"}, 2, ["1", "3"]),
            ({"anti3.poset": "p 3 0\n", "op.poly": "order anti3.poset\n"}, 3, ["1", "4", "1"]),
        ],
        ids=["simplex", "order"],
    )
    def test_whole_output(self, capsys, tmp_path, files, d, hstar):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        path = str(tmp_path / name)  # the polytope file comes last
        code, out = run(capsys, "hstar", path)
        assert code == 0
        assert out == f"d = {d}\nhstar = [{', '.join(hstar)}]\n"
        code, out = run(capsys, "hstar", path, "--format", "json-lines")
        assert code == 0
        assert out == json.dumps(
            {"type": "hstar", "d": str(d), "hstar": hstar}, separators=(",", ":")
        ) + "\n"

    def test_tilted_triangle_as_rows(self, capsys, tmp_path):
        # the triangle (0, 0), (2, 1), (1, 3) needs every row to bound a
        # coordinate, so its box comes from elimination, not one row at a time
        path = tmp_path / "tilted.hrep"
        path.write_text("hrep 2 3\n2 1 5\n-3 1 0\n1 -2 0\n")
        code, out = run(capsys, "hstar", str(path))
        assert code == 0
        assert "hstar = [1, 2, 2]" in out


class TestDecompose:
    def test_graph_k2(self, capsys, tmp_path):
        path = tmp_path / "k2.graph"
        path.write_text(K2_TEXT)
        code, out = run(capsys, "decompose", "graph", str(path))
        assert code == 0
        assert "a = [0, -2, -2]" in out
        assert "b = [2, 2, 2]" in out
        assert "signs = PASS" in out

    def test_order_chain2(self, capsys, tmp_path):
        path = tmp_path / "chain2.poset"
        path.write_text(CHAIN2_TEXT)
        code, out = run(capsys, "decompose", "order", str(path))
        assert code == 0
        assert "a = [0, -1, -1]" in out
        assert "b = [1, 1, 1]" in out
        assert "signs = PASS" in out

    def test_stapledon_coeffs(self, capsys):
        code, out = run(capsys, "decompose", "stapledon", "--coeffs", "1,3", "--d", "2")
        assert code == 0
        assert "a = [1, 4, 1]" in out
        assert "b = [2]" in out
        assert "d = 2, s = 1, l = 2" in out

    def test_open_kind(self, capsys):
        code, out = run(capsys, "decompose", "open", "--coeffs", "1,3", "--d", "2")
        assert code == 0
        assert "a = [1, 4, 4, 1]" in out
        assert "b = [1, 4, 1]" in out

    def test_sign_failure_exit_1(self, capsys):
        code, out = run(capsys, "decompose", "stapledon", "--coeffs", "1,1,5", "--d", "2")
        assert code == 1
        assert "signs = FAIL" in out

    def test_json_mode(self, capsys, tmp_path):
        path = tmp_path / "k2.graph"
        path.write_text(K2_TEXT)
        code, out = run(capsys, "decompose", "graph", str(path), "--format", "json-lines")
        assert code == 0
        record = json.loads(out)
        assert record["a"] == ["0", "-2", "-2"]
        assert record["signs"] == "PASS"

    @pytest.mark.parametrize(
        "kind, source, lines",
        [
            (
                "stapledon",
                ["--coeffs", "1,3", "--d", "4"],
                ["d = 4, s = 1, l = 4", "a = [1, 4, 4, 4, 1]", "b = [2]"],
            ),
            (
                "open",
                ["--coeffs", "1,3", "--d", "2"],
                ["d = 2", "a = [1, 4, 4, 1]", "b = [1, 4, 1]"],
            ),
            (
                "order",
                ("v.poset", "p 3 2\nr 1 2\nr 1 3\n"),
                ["d = 3", "a = [0, -1, -2, -1]", "b = [1, 2, 2, 1]"],
            ),
            (
                "graph",
                ("c4.graph", "p 4 4\ne 1 2\ne 2 3\ne 3 4\ne 1 4\n"),
                ["d = 4", "a = [0, -14, -22, -22, -14]", "b = [14, 22, 24, 22, 14]"],
            ),
        ],
    )
    def test_whole_output_of_each_kind(self, capsys, tmp_path, kind, source, lines):
        if isinstance(source, tuple):  # a poset or graph file
            name, text = source
            (tmp_path / name).write_text(text)
            source = [str(tmp_path / name)]
        code, out = run(capsys, "decompose", kind, *source)
        assert code == 0
        assert out.splitlines() == [
            f"kind = {kind}", *lines, "symmetry = confirmed", "signs = PASS"
        ]
        code, out = run(capsys, "decompose", kind, *source, "--format", "json-lines")
        assert code == 0
        params = dict(item.split(" = ") for item in lines[0].split(", "))
        a, b = (line.split(" = ")[1].strip("[]").split(", ") for line in lines[1:])
        assert json.loads(out) == {
            "type": "decomposition",
            "kind": kind,
            "params": params,
            "a": a,
            "b": b,
            "symmetry": "confirmed",
            "signs": "PASS",
        }

    def test_missing_arguments_exit_2(self, capsys):
        assert main(["decompose", "stapledon"]) == 2
        assert main(["decompose", "order"]) == 2


class TestVerify:
    def test_posets_summary(self, capsys):
        code, out = run(capsys, "verify", "--posets", "3", "--checks", "thm1.2")
        assert code == 0
        assert "19 inputs, 0 failures" in out

    def test_posets_219(self, capsys):
        code, out = run(capsys, "verify", "--posets", "4", "--checks", "thm1.2")
        assert code == 0
        assert "219 inputs, 0 failures" in out

    def test_graphs_two_checks(self, capsys):
        code, out = run(capsys, "verify", "--graphs", "4", "--checks", "thm1.4,conj6.4")
        assert code == 0
        assert "64 inputs, 0 failures" in out

    @pytest.mark.parametrize("kind,name", [("poset", "conj6.2"), ("graph", "conj6.1")])
    def test_empty_input_skips_the_degenerate_check(self, capsys, kind, name):
        code, out = run(capsys, "verify", f"--{kind}s", "0")
        assert code == 0
        assert out.splitlines() == [
            f"SKIP #0 {kind} {name}: skipped: degenerate at d = 0",
            "1 inputs, 0 failures, 1 skipped checks",
        ]

    def test_mutate_selftest_exit_1(self, capsys):
        code, out = run(
            capsys, "verify", "--graphs", "3", "--checks", "conj6.1", "--mutate-selftest"
        )
        assert code == 1
        assert "FAIL" in out
        assert "0 failures" not in out.splitlines()[-1]

    def test_foreign_exception_recorded_and_sweep_goes_on(self, capsys, monkeypatch):
        import hstarlib.harness as harness

        calls = []

        def flaky(ctx):
            calls.append(ctx.item)
            if len(calls) == 1:
                raise ZeroDivisionError("division by zero")
            return harness.CheckResult("thm1.2", "pass")

        monkeypatch.setitem(harness._POSET_CHECKS, "thm1.2", flaky)
        code, out = run(
            capsys, "verify", "--random", "poset,3,2", "--checks", "thm1.2",
            "--format", "json-lines",
        )
        records = [json.loads(line) for line in out.splitlines()]
        assert code == 1
        assert [r["type"] for r in records] == ["report", "report", "summary"]
        (error,) = records[0]["checks"]
        assert (error["name"], error["status"], error["detail"]) == (
            "thm1.2", "error", "ZeroDivisionError: division by zero"
        )
        assert error["witnesses"]["traceback"][-1].endswith(" flaky")
        assert records[1]["checks"] == [{"name": "thm1.2", "status": "pass"}]
        assert records[2]["inputs"] == 2 and records[2]["failures"] == 1

    def test_time_limit_cuts_off_a_spinning_check(self, capsys, monkeypatch):
        import hstarlib.harness as harness

        calls = []

        def spin(ctx):
            calls.append(ctx.item)
            give_up = time.perf_counter() + 10  # a failing test must not hang
            while len(calls) == 1 and time.perf_counter() < give_up:
                pass
            return harness.CheckResult("thm1.2", "pass")

        monkeypatch.setitem(harness._POSET_CHECKS, "thm1.2", spin)
        code, out = run(
            capsys, "verify", "--random", "poset,3,2", "--checks", "thm1.2",
            "--time-limit", "0.2", "--format", "json-lines",
        )
        records = [json.loads(line) for line in out.splitlines()]
        assert code == 0
        assert [r["type"] for r in records] == ["report", "report", "summary"]
        assert 0.2 <= records[0]["seconds"] < 2.0
        assert records[0]["checks"] == [
            {"name": "thm1.2", "status": "skip", "detail": "skipped: per-input time limit 0.2s"}
        ]
        assert records[1]["checks"] == [{"name": "thm1.2", "status": "pass"}]
        assert (records[2]["inputs"], records[2]["skipped_checks"]) == (2, 1)

    def test_time_limit_too_long_for_the_timer_runs_unarmed(self, capsys):
        def stream(*extra):
            code, out = run(capsys, "verify", "--posets", "2", *extra, "--format", "json-lines")
            records = [json.loads(line) for line in out.splitlines()]
            for record in records:
                record.pop("seconds", None)
            return code, records

        code, records = stream("--time-limit", "1e10")
        assert code == 0 and records[-1]["type"] == "summary"
        assert (code, records) == stream()

    def test_foreign_exception_text_mode(self, capsys, monkeypatch):
        import hstarlib.harness as harness

        def broken(ctx):
            raise KeyError("boom")

        monkeypatch.setitem(harness._POSET_CHECKS, "thm1.2", broken)
        code, out = run(capsys, "verify", "--posets", "1", "--checks", "thm1.2")
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "ERROR #0 poset thm1.2: KeyError: 'boom'"
        assert lines[-2].startswith("    traceback = [") and lines[-2].endswith(" broken]")
        assert lines[-1] == "1 inputs, 1 failures"

    def test_random_corpus(self, capsys):
        code, out = run(
            capsys, "verify", "--random", "graph,5,3", "--seed", "7", "--checks", "thm1.4"
        )
        assert code == 0
        assert "3 inputs, 0 failures" in out

    def test_json_lines_stream(self, capsys):
        code, out = run(
            capsys,
            "verify",
            "--posets",
            "2",
            "--checks",
            "thm1.2",
            "--format",
            "json-lines",
        )
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["type"] for r in records] == ["report"] * 3 + ["summary"]
        assert records[-1]["failures"] == 0

    def test_text_and_json_verdicts_agree(self, capsys):
        code_text, _ = run(
            capsys, "verify", "--graphs", "2", "--checks", "conj6.1", "--mutate-selftest"
        )
        code_json, out = run(
            capsys,
            "verify",
            "--graphs",
            "2",
            "--checks",
            "conj6.1",
            "--mutate-selftest",
            "--format",
            "json-lines",
        )
        assert code_text == code_json == 1
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["failures"] > 0

    def test_no_corpus_exit_2(self, capsys):
        assert main(["verify"]) == 2

    def test_oversized_corpus_exit_2(self, capsys):
        assert main(["verify", "--posets", "7"]) == 2


class TestRandom:
    def test_deterministic_output(self, capsys):
        _, first = run(capsys, "random", "graph", "--d", "6", "--count", "2", "--seed", "3")
        _, again = run(capsys, "random", "graph", "--d", "6", "--count", "2", "--seed", "3")
        assert first == again
        assert first.startswith("c instance 0\np 6 ")

    def test_poset_instances_parse_back(self, capsys):
        from hstarlib.poset import Poset

        code, out = run(
            capsys,
            "random",
            "poset",
            "--d",
            "5",
            "--count",
            "2",
            "--seed",
            "9",
            "--format",
            "json-lines",
        )
        assert code == 0
        for line in out.strip().splitlines():
            record = json.loads(line)
            poset = Poset.from_text(record["text"])
            assert poset.d == 5


class TestUsage:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["chromatic", "--bogus"])
        assert info.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2


def run_err(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInputFaults:
    """Bad file tokens and option values exit 2 with a one-line message."""

    @pytest.mark.parametrize(
        "command, name, text",
        [
            (["decompose", "order"], "bad.poset", "p 2 1\nr 1 x\n"),
            (["chromatic"], "bad.graph", "p 2 1\ne 1 y\n"),
            (["hstar"], "bad.poly", "simplex two\n"),
            (["hstar"], "bad.hrep", "hrep 1 2\n-1 0\n1 z\n"),
            (["hstar"], "badbox.hrep", "hrep 1 1\n1 5\nbox 0 five\n"),
            (["decompose", "order"], "badhead.poset", "p two 0\n"),
        ],
    )
    def test_non_integer_token(self, capsys, tmp_path, command, name, text):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run_err(capsys, *command, str(path))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "not an integer" in err

    @pytest.mark.parametrize(
        "command, name, text, message",
        [
            (["hstar"], "surplus.poly", "order chain.poset\n1 2 3\nnonsense\n",
             "expected 0 rows after 'order chain.poset', found 2"),
            (["hstar"], "shortbox.hrep", "hrep 2 1\n1 0 5\nbox 0 0 5\n",
             "box line 'box 0 0 5' must have 2d = 4 integers"),
            (["decompose", "order"], "k2.graph", "p 2 1\ne 1 2\n",
             "poset line 'e 1 2' must start with 'r'"),
        ],
        ids=["order-surplus", "box-width", "graph-as-poset"],
    )
    def test_malformed_layout(self, capsys, tmp_path, command, name, text, message):
        (tmp_path / "chain.poset").write_text(CHAIN2_TEXT)
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run_err(capsys, *command, str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_budget_bounds_the_orientation_sweep(self, capsys, tmp_path):
        # each of K7's 5040 orientations is a chain with 8 down-sets, so
        # only the orientation count can exceed the budget
        path = tmp_path / "k7.graph"
        path.write_text(Graph(7, combinations(range(1, 8), 2)).to_text())
        code, out, err = run_err(capsys, "chromatic", str(path), "--budget", "1000")
        assert code == 2
        assert out == ""
        assert err == "error: acyclic-orientation sweep needs 1001 steps, budget is 1000\n"

    def test_oversized_poset_is_refused_before_its_closure(self, capsys, tmp_path):
        path = tmp_path / "big.poset"
        path.write_text("p 15000 0\n")
        start = time.perf_counter()
        code, out, err = run_err(capsys, "decompose", "order", str(path), "--budget", "10")
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert err == "error: transitive closure needs 225000000 steps, budget is 10\n"

    def test_default_budget_is_named(self, capsys, tmp_path):
        # the closure is charged to --budget, and to the default without it
        path = tmp_path / "big.poset"
        path.write_text("p 40 0\n")
        code, out, err = run_err(capsys, "decompose", "order", str(path), "--budget", "1000")
        assert (code, out) == (2, "")
        assert err == "error: transitive closure needs 1600 steps, budget is 1000\n"
        path.write_text("p 15000 0\n")
        code, out, err = run_err(capsys, "decompose", "order", str(path))
        assert (code, out) == (2, "")
        assert err == "error: transitive closure needs 225000000 steps, default budget is 5000000\n"

    @pytest.mark.parametrize(
        "text, vertex",
        [
            ("hrep 1 2\n-1 0\n2 3\n", "(3/2)"),
            ("hrep 2 3\n-1 0 0\n0 -1 0\n2 2 3\n", "(0, 3/2)"),
            ("hrep 2 5\n-1 0 0\n1 0 2\n0 -1 0\n0 1 2\n2 1 5\n", "(3/2, 2)"),
        ],
        ids=["segment-to-3/2", "triangle-2x+2y<=3", "vertex-in-integer-box"],
    )
    def test_non_lattice_hrep_exits_2(self, capsys, tmp_path, text, vertex):
        path = tmp_path / "rational.hrep"
        path.write_text(text)
        code, out, err = run_err(capsys, "hstar", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: vertex {vertex} is not a lattice point\n"

    def test_non_integer_coefficient(self, capsys):
        code, out, err = run_err(capsys, "decompose", "stapledon", "--coeffs", "1,x", "--d", "2")
        assert code == 2
        assert out == ""
        assert err == "error: 'x' is not an integer in line '1,x'\n"

    @pytest.mark.parametrize("coeffs", ["1,,2", "1,2,"])
    def test_empty_coefficient_field(self, capsys, coeffs):
        code, out, err = run_err(capsys, "decompose", "stapledon", "--coeffs", coeffs, "--d", "2")
        assert (code, out) == (2, "")
        assert err == f"error: empty coefficient field in {coeffs!r}\n"
        # one field to a comma, blanks around it allowed
        for text in ("1,3", "1, 3"):
            code, out = run(capsys, "decompose", "stapledon", "--coeffs", text, "--d", "2")
            assert code == 0 and "a = [1, 4, 1]" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--posets", "3", "--budget", "-5"],
            ["hstar", "missing.poly", "--budget", "-1"],
            ["verify", "--posets", "2", "--time-limit", "-1"],
            ["verify", "--posets", "2", "--time-limit", "nan"],
            ["verify", "--random", "graph,5"],
        ],
    )
    def test_bad_option_value(self, capsys, argv):
        code, out, err = run_err(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: --")

    @pytest.mark.parametrize("value", ["7", "-0.5", "nan"])
    def test_relation_probability_is_checked_by_the_library(self, capsys, value):
        argv = ["random", "poset", "--d", "3", "--relation-probability", value]
        code, out, err = run_err(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: relation_probability must lie in [0, 1], got {float(value)}\n"

    def test_negative_max_size_is_refused_before_any_corpus(self, capsys):
        # not read as a cap below the empty poset's d = 0
        code, out, err = run_err(capsys, "verify", "--posets", "0", "--max-size", "-1")
        assert (code, out, err) == (2, "", "error: --max-size must be nonnegative, got -1\n")

    def test_boundary_option_values_accepted(self, capsys):
        assert main(["random", "poset", "--d", "3", "--relation-probability", "1"]) == 0
        assert main(["verify", "--posets", "2", "--time-limit", "0"]) == 0

    def test_flat_hrep_exits_2(self, capsys, tmp_path):
        path = tmp_path / "flat.hrep"
        path.write_text("hrep 2 4\n1 0 1\n-1 0 0\n0 1 0\n0 -1 0\n")
        code, out, err = run_err(capsys, "hstar", str(path))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: normalized volume 0")

    def test_run_that_checked_nothing_exits_2(self, capsys):
        # a zero budget skips all 40 checks on the 8 graphs on 3 vertices
        code, out, err = run_err(capsys, "verify", "--graphs", "3", "--budget", "0")
        assert code == 2
        assert out.splitlines()[-1] == "8 inputs, 0 failures, 40 skipped checks"
        assert err.startswith("error: no check ran")
        # and refuses the 3 x 3 closure of every poset on 3 elements
        code, out, err = run_err(capsys, "verify", "--posets", "3", "--budget", "0")
        assert (code, out) == (2, "")
        assert err == "error: transitive closure needs 9 steps, budget is 0\n"

    def test_graph_budget_skip_names_the_ideal_count(self, capsys):
        # the edgeless graph on 3 vertices has one orientation, with 8 down-sets
        code, out, err = run_err(capsys, "verify", "--graphs", "3", "--budget", "3")
        assert code == 2
        lines = out.splitlines()
        detail = "skipped: order-ideal lattice needs 8 steps, budget is 3"
        assert f"SKIP #0 graph thm1.3: {detail}" in lines
        assert lines[-1] == "8 inputs, 0 failures, 40 skipped checks"

    def test_coloring_skip_names_the_n_to_the_d_charge(self, capsys):
        # the n^d charge bounds the colorings counted up to a permutation of
        # the colors, and refuses with the message of the full enumeration
        code, out, err = run_err(
            capsys, "verify", "--graphs", "3", "--checks", "chromatic3", "--budget", "20"
        )
        assert code == 2
        detail = "skipped: enumeration of 3^3 colorings needs 27 steps, budget is 20"
        assert out.splitlines() == [
            *(f"SKIP #{k} graph chromatic3: {detail}" for k in range(8)),
            "8 inputs, 0 failures, 8 skipped checks",
        ]
        assert err.startswith("error: no check ran")

    def test_inapplicable_checks_exit_2_after_summary(self, capsys):
        code, out, err = run_err(
            capsys, "verify", "--posets", "2", "--checks", "thm1.3", "--format", "json-lines"
        )
        assert code == 2
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["type"] == "summary" and summary["checks_run"] == 0
        assert err.startswith("error: no check ran")


# (argv before the path, the file's name, the kind the message names, the
# file the message names when it differs from the one given)
READ_PATHS = {
    "chromatic": (["chromatic"], "bad.graph", "graph", None),
    "hstar": (["hstar"], "bad.poly", "polytope", None),
    "decompose-order": (["decompose", "order"], "bad.poset", "poset", None),
    "decompose-graph": (["decompose", "graph"], "bad.graph", "graph", None),
    "order-reference": (["hstar"], "order.poly", "poset", "bad.poset"),
}


class TestFileReading:
    """Every file the CLI reads goes through one reader: a file that cannot
    be read or decoded exits 2 with one line, never a traceback."""

    def _run(self, capsys, tmp_path, case, write):
        command, name, kind, target = case
        if target is not None:
            (tmp_path / name).write_text(f"order {target}\n")
        write(tmp_path / (target or name))
        code, out, err = run_err(capsys, *command, str(tmp_path / name))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: cannot read {kind} file {tmp_path / (target or name)}: ")
        return err

    @pytest.mark.parametrize("case", READ_PATHS.values(), ids=READ_PATHS.keys())
    def test_undecodable_file_exits_2_with_one_line(self, capsys, tmp_path, case):
        err = self._run(capsys, tmp_path, case, lambda path: path.write_bytes(b"p 1 0\n\xff\n"))
        assert "can't decode byte 0xff" in err

    @pytest.mark.parametrize("case", READ_PATHS.values(), ids=READ_PATHS.keys())
    def test_missing_file_exits_2_with_one_line(self, capsys, tmp_path, case):
        err = self._run(capsys, tmp_path, case, lambda path: None)
        assert "No such file or directory" in err

    def test_directory_exits_2_with_one_line(self, capsys, tmp_path):
        self._run(capsys, tmp_path, READ_PATHS["chromatic"], lambda path: path.mkdir())


class TestIntegerTokens:
    """A token is ASCII digits with an optional sign, in files and options."""

    @pytest.mark.parametrize("token", ["1_0", "\u0663", "1.0", "+-1", "0x1", "\uff11"])
    def test_box_token_outside_the_rule_exits_2(self, capsys, tmp_path, token):
        path = tmp_path / "box.hrep"
        path.write_text(f"hrep 1 2\n-1 0\n1 10\nbox 0 {token}\n", encoding="utf-8")
        code, out, err = run_err(capsys, "hstar", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {token!r} is not an integer in line 'box 0 {token}'\n"

    def test_signed_tokens_are_read(self, capsys, tmp_path):
        path = tmp_path / "box.hrep"
        path.write_text("hrep +1 2\n-1 +0\n1 010\nbox -0 +10\n")
        code, out = run(capsys, "hstar", str(path))
        assert code == 0 and "hstar = [1, 9]" in out

    @pytest.mark.parametrize("spec, token", [("graph,5_0,1", "5_0"), ("graph,3,\u0663", "\u0663")])
    def test_random_spec_names_the_bad_token(self, capsys, spec, token):
        code, out, err = run_err(capsys, "verify", "--random", spec)
        assert (code, out) == (2, "")
        assert err == f"error: {token!r} is not an integer in line {spec!r}\n"

    @pytest.mark.parametrize("where", ["box", "random", "coeffs"])
    def test_token_past_the_int_digit_limit_exits_2(self, capsys, tmp_path, where):
        # int() refuses a digit string longer than sys.get_int_max_str_digits()
        token = "1" * 5000
        argv = {
            "random": ["verify", "--random", f"graph,{token},1"],
            "coeffs": ["decompose", "stapledon", "--coeffs", f"1,{token}", "--d", "2"],
        }
        if where == "box":
            path = tmp_path / "box.hrep"
            path.write_text(f"hrep 1 2\n-1 0\n1 10\nbox 0 {token}\n", encoding="utf-8")
            argv["box"] = ["hstar", str(path)]
        code, out, err = run_err(capsys, *argv[where])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {token!r} is not an integer in line ")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_random_spec_allows_blanks_around_its_fields(self, capsys):
        assert run(capsys, "verify", "--random", " graph , 3 , 2 ") == run(
            capsys, "verify", "--random", "graph,3,2"
        )


class TestClosedStdout:
    @pytest.mark.parametrize("fmt", ["json-lines", "text"])
    def test_a_sweep_into_a_closed_pipe_exits_141_quietly(self, fmt):
        # the pipe's read end is closed before the child starts, so its
        # first write fails, whether a json-lines record past the buffer or
        # the text summary at the final flush; stdout is kept buffered
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "hstarlib.cli", "verify", "--graphs", "4", "--format", fmt],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (141, b"")
