"""Command-line front door.

Subcommands: ``chromatic`` (chromatic polynomial and series numerator of a
graph file), ``hstar`` (h* of a polytope file), ``decompose`` (the symmetric
decompositions with sign verdicts), ``verify`` (batch theorem/conjecture
verification over corpora), ``random`` (seeded instance generation).

Exit status: 0 success, 1 check or sign failures found, 2 usage or input
error, 141 (128 + SIGPIPE) when the reader closed stdout.  Structured
output is line-delimited JSON with every integer serialized as a decimal
string, so arbitrary-precision coefficients round-trip exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import decomp, harness
from .budget import DEFAULT_WORK_BUDGET, limit
from .ehrhart import OrderPolytope, h_star, load_polytope
from .errors import HstarError, InvalidInput
from .graph import Graph, chromatic_polynomial
from .polynomial import IntPolynomial
from .poset import Poset, parse_ints, read_file

JSON_LINES = "json-lines"
_ENCODER = json.JSONEncoder(separators=(",", ":"))  # json.dumps builds one per call


def _padded(poly, degree: int) -> list[str]:
    """Ascending coefficients with explicit zeros up to the declared degree."""
    top = max(degree, len(poly.coeffs) - 1)
    return [str(poly[i]) for i in range(top + 1)]


def _emit(record: dict) -> None:
    sys.stdout.write(_ENCODER.encode(record) + "\n")  # print writes the newline apart


def _list_line(key: str, items) -> str:
    return f"{key} = [{', '.join(items)}]"


def _write(args, record: dict, *shown: str) -> None:
    """The record as one json line, or its ``shown`` fields as text lines:
    ``key = value``, a list in brackets, and a dict as its items on one line."""
    if args.format == JSON_LINES:
        return _emit(record)
    for key in shown:
        value = record[key]
        if isinstance(value, dict):
            print(", ".join(f"{k} = {v}" for k, v in value.items()))
        elif isinstance(value, list):
            print(_list_line(key, value))
        else:
            print(f"{key} = {value}")


def cmd_chromatic(args) -> int:
    graph = Graph.from_text(read_file(args.file, "graph"))
    h_g = decomp.graph_numerator(graph)  # refuses before deletion-contraction
    chi = chromatic_polynomial(graph)  # memoised by graph_numerator's check
    chi_strs, h_strs = _padded(chi, graph.d), _padded(h_g, graph.d)
    _write(args, {"type": "chromatic", "d": str(graph.d), "chi": chi_strs, "h": h_strs}, "chi", "h")
    return 0


def cmd_hstar(args) -> int:
    polytope = load_polytope(args.file)
    strs = [str(c) for c in h_star(polytope).coeffs]
    _write(args, {"type": "hstar", "d": str(polytope.d), "hstar": strs}, "d", "hstar")
    return 0


def _parse_coeffs(text: str) -> IntPolynomial:
    if "," in text and not all(field.strip() for field in text.split(",")):
        raise InvalidInput(f"empty coefficient field in {text!r}")
    return IntPolynomial(parse_ints(text.replace(",", " ").split(), text))


def cmd_decompose(args) -> int:
    kind = args.kind
    if kind in ("stapledon", "open"):
        if args.coeffs is None or args.ambient is None:
            raise InvalidInput(f"decompose {kind} needs --coeffs and --d")
        hstar, d = _parse_coeffs(args.coeffs), args.ambient
        if kind == "stapledon":
            a, b = decomp.stapledon_pair(hstar, d)
        else:
            a, b = decomp.open_decomposition(hstar, d)
    elif args.file is None:
        raise InvalidInput(f"decompose {kind} needs a {'poset' if kind == 'order' else kind} file")
    elif kind == "order":
        poset = Poset.from_text(read_file(args.file, "poset"))
        d = poset.d
        a, b = decomp.order_decomposition(h_star(OrderPolytope(poset)), d)
    else:  # graph
        graph = Graph.from_text(read_file(args.file, "graph"))
        d = graph.d
        a, b = decomp.graph_decomposition(graph)
    params = {"d": d}
    if kind == "stapledon":  # the split's l follows from s = deg h* and d
        params.update(s=hstar.degree, l=d + 1 - hstar.degree)
    # Stapledon's split and Theorem 1.1 need a >= 0, Theorems 1.2 and 1.3 need -a >= 0
    passed = (a if kind in ("stapledon", "open") else -a).is_nonnegative() and b.is_nonnegative()
    record = {
        "type": "decomposition",
        "kind": kind,
        "params": {k: str(v) for k, v in params.items()},
        "a": [str(c) for c in a.coeffs],
        "b": [str(c) for c in b.coeffs],
        "symmetry": "confirmed",
        "signs": "PASS" if passed else "FAIL",
    }
    _write(args, record, "kind", "params", "a", "b", "symmetry", "signs")
    return 0 if passed else 1


def cmd_verify(args) -> int:
    corpus = []
    if args.posets is not None:
        corpus.extend(harness.enumerate_labeled_posets(args.posets, max_size=args.max_size))
    if args.graphs is not None:
        corpus.extend(harness.enumerate_labeled_graphs(args.graphs, max_size=args.max_size))
    if args.random is not None:
        fields = [field.strip() for field in args.random.split(",")]
        if len(fields) != 3:
            raise InvalidInput("--random wants KIND,D,COUNT")
        d, count = parse_ints(fields[1:], args.random)
        corpus.extend(harness.random_instances(fields[0], d, count, args.seed))
    if not corpus:
        raise InvalidInput("nothing to verify; give --posets, --graphs or --random")
    checks = None if args.checks in (None, "all") else [c.strip() for c in args.checks.split(",")]
    summary = harness.Summary()
    for report in harness.verify_all(
        corpus, checks, time_limit=args.time_limit, mutate=args.mutate_selftest
    ):
        summary.add(report)
        if args.format == JSON_LINES:
            _emit(report.to_record())
        elif report.failed or report.skipped:
            for check in report.checks:
                if check.status == "pass":
                    continue
                status = check.status.upper()
                print(f"{status} #{report.index} {report.kind} {check.name}: {check.detail}")
                if check.status != "skip":
                    for line in report.input_text.rstrip().splitlines():
                        print(f"    {line}")
                    for name, coeffs in check.witnesses.items():
                        print(f"    {_list_line(name, coeffs)}")
    if args.format == JSON_LINES:
        _emit(summary.to_record())
    else:
        print(summary.line())
    if summary.checks_run == 0:
        raise InvalidInput("no check ran: every selected check was skipped or inapplicable")
    return 0 if summary.failures == 0 else 1


def cmd_random(args) -> int:
    instances = harness.random_instances(
        args.kind, args.d, args.count, args.seed,
        relation_probability=args.relation_probability,
    )
    for index, item in enumerate(instances):
        text = item.to_text()
        if args.format == JSON_LINES:
            _emit({"type": args.kind, "index": index, "text": text})
        else:
            print(f"c instance {index}")
            print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hstar",
        description="Exact h*-vectors, chromatic series and their symmetric decompositions.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=["text", JSON_LINES], default="text", help="output format"
    )
    common.add_argument(
        "--budget", type=int, help=f"steps allowed per enumeration (default {DEFAULT_WORK_BUDGET})"
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chromatic", parents=[common], help="chromatic polynomial and h_G")
    p.add_argument("file", help="graph file (p/e format)")
    p.set_defaults(fn=cmd_chromatic)

    p = sub.add_parser("hstar", parents=[common], help="h*-polynomial of a polytope file")
    p.add_argument("file", help="polytope file (simplex/hrep/order)")
    p.set_defaults(fn=cmd_hstar)

    p = sub.add_parser("decompose", parents=[common], help="symmetric decompositions")
    p.add_argument("kind", choices=["stapledon", "open", "order", "graph"])
    p.add_argument("file", nargs="?", help="poset or graph file (order/graph kinds)")
    p.add_argument("--coeffs", help="h* coefficients, ascending, comma separated")
    p.add_argument("--d", dest="ambient", type=int, help="ambient degree parameter")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("verify", parents=[common], help="run the conjecture harness")
    p.add_argument("--posets", type=int, help="all labeled posets on this many elements")
    p.add_argument("--graphs", type=int, help="all labeled graphs on this many vertices")
    p.add_argument("--random", help="random corpus as KIND,D,COUNT")
    p.add_argument("--seed", type=int, default=0, help="seed for --random")
    p.add_argument("--checks", help="comma-separated check names (default: all)")
    p.add_argument("--max-size", type=int, default=harness.MAX_EXHAUSTIVE_SIZE)
    p.add_argument(
        "--time-limit", type=float, default=None, help="seconds allowed per input"
    )
    p.add_argument(
        "--mutate-selftest",
        action="store_true",
        help="flip one coefficient sign per input to prove failures are reported",
    )
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("random", parents=[common], help="emit seeded random instances")
    p.add_argument("kind", choices=["poset", "graph"])
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--relation-probability",
        type=float,
        default=1 / 3,
        help="pair relation probability for random posets",
    )
    p.set_defaults(fn=cmd_random)

    return parser


def _check_options(args) -> None:
    """Reject option values that parse but make no sense."""
    if args.budget is not None and args.budget < 0:
        raise InvalidInput(f"--budget must be nonnegative, got {args.budget}")
    max_size = getattr(args, "max_size", 0)
    if max_size < 0:
        raise InvalidInput(f"--max-size must be nonnegative, got {max_size}")
    time_limit = getattr(args, "time_limit", None)
    if time_limit is not None and not time_limit >= 0:
        raise InvalidInput(f"--time-limit must be nonnegative, got {time_limit}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_options(args)
        with limit(args.budget):
            status = args.fn(args)
        sys.stdout.flush()  # output smaller than a pipe's buffer meets a closed one here
        return status
    except BrokenPipeError:
        # the reader has gone: what is left goes to devnull, with no message
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (HstarError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
