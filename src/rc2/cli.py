"""Command line interface.

Subcommands: ``gen`` (family generators), ``color`` (produce a coloring),
``verify`` (check a coloring), ``minimalize``, ``decompose``, ``oracle``
(brute-force minimum), ``census`` (exact-vs-constructed table for tiny n).

Graphs come from ``--input`` (``--graph`` for ``verify``) or stdin.  A text
whose first non-blank character is ``{`` is read as JSON
(``{"n": ..., "edges": ...}``), any other as a whitespace edge list; an edge
list that starts with ``{`` needs a ``#`` comment line first.  Exit codes: 0
success, 1 a verification failed or a color bound was exceeded, 2 a usage
error or a refusal: ``InvalidInput`` (malformed input),
``PreconditionViolated`` (well-formed input the command does not apply to),
an unreadable path, or a graph over the verifier's size guard.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .coloring import color_rc2, coloring_from_json_obj, to_dot
from .corpus import standard_corpus
from .ears import build_ear_decomposition
from .errors import BudgetExceeded, InvalidInput, Rc2Error
from .generators import FamilySpec, generate_family
from .graphs import (
    Graph,
    canonical_json,
    edge_list_text,
    graph_from_json,
    graph_to_json,
    is_cycle_graph,
    parse_edge_list,
    parse_json,
)
from .minimalize import spanning_minimally_two_connected
from .oracle import CENSUS_SIZES, DEFAULT_BUDGET, brute_force_rc2, census_csv, census_small_graphs
from .reports import DEFAULT_GUARD, SizeGuard
from .verify import is_rainbow_two_connected

# Family parameters: each is a ``gen`` option, passed on when given.
_GEN_PARAMS = ("n", "a", "b", "c", "ears", "seed")

_FAMILIES = {
    "cycle": "cycle",
    "theta": "theta",
    "wheel": "wheel",
    "complete": "complete",
    "complete-bipartite": "complete_bipartite",
    "random": "random_two_connected",
}


def _read_text(path: str | None) -> str:
    try:
        if path is None:
            return sys.stdin.read()
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise InvalidInput(f"{path or 'stdin'} is not text: {exc}") from exc


def _load_graph(path: str | None) -> Graph:
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        return graph_from_json(text)
    return parse_edge_list(text)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_gen(args) -> int:
    params = {key: getattr(args, key) for key in _GEN_PARAMS if getattr(args, key) is not None}
    spec = FamilySpec(_FAMILIES[args.family], params)
    g = generate_family(spec)
    if args.format == "edgelist":
        _emit(edge_list_text(g), args.out)
    else:
        _emit(graph_to_json(g) + "\n", args.out)
    return 0


def _cmd_color(args) -> int:
    g = _load_graph(args.input)
    result = color_rc2(g, with_trace=args.trace)
    if args.dot is not None:
        Path(args.dot).write_text(to_dot(g, result.coloring))
    _emit(result.to_json_text(include_trace=args.trace) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    coloring = coloring_from_json_obj(parse_json(_read_text(args.coloring), "coloring JSON"))
    guard = SizeGuard(args.max_vertices, args.max_edges)
    report = is_rainbow_two_connected(g, coloring, guard)
    allowed = g.vertex_count if is_cycle_graph(g) else g.vertex_count - 1
    used = coloring.color_count
    bound_ok = used <= allowed
    passed = report.passed and bound_ok

    if args.json:
        payload = {
            "passed": passed,
            "report": report.to_json_obj(),
            "colors_used": used,
            "colors_allowed": allowed,
            "bound_ok": bound_ok,
        }
        print(canonical_json(payload))
    else:
        if report.skipped:
            print(f"{report.checked_property}: skipped ({report.violations[0].reason})")
        else:
            print(f"{report.checked_property}: {'pass' if report.passed else 'fail'}")
            for v in report.violations:
                print(f"  - {v.kind} {v.subject}: {v.reason}")
        print(f"bound: {used} colors used, {allowed} allowed: {'ok' if bound_ok else 'exceeded'}")
        print(f"overall: {'skipped' if report.skipped else 'pass' if passed else 'fail'}")
    if report.skipped:
        return 2
    return 0 if passed else 1


def _cmd_minimalize(args) -> int:
    g = _load_graph(args.input)
    h = spanning_minimally_two_connected(g)
    _emit(graph_to_json(h) + "\n", args.out)
    return 0


def _cmd_decompose(args) -> int:
    g = _load_graph(args.input)
    dec = build_ear_decomposition(g)
    _emit(canonical_json(dec.to_json_obj()) + "\n", args.out)
    return 0


def _cmd_oracle(args) -> int:
    g = _load_graph(args.input)
    try:
        payload = {"rc2": brute_force_rc2(g, budget=args.budget)}
    except BudgetExceeded as exc:
        payload = {"budget_exceeded": True, "rc2_lower_bound": exc.lower_bound}
    _emit(canonical_json(payload) + "\n", args.out)
    return 0


def _cmd_census(args) -> int:
    rows = census_small_graphs(args.n)
    _emit(census_csv(rows), args.out)
    return 0


def _cmd_corpus(args) -> int:
    for spec, g in standard_corpus():
        print(f"{spec.describe()}\t{g.vertex_count}\t{g.edge_count}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``rc2`` parser, built on the first ``main`` call and reused after.

    Reuse carries nothing from one call to the next: ``parse_args`` makes a
    fresh ``Namespace`` each time, every default below is immutable (None,
    strings, False, ints), and ``set_defaults(func=...)`` binds each handler
    once, so a handler replaced on the module after the first call is not
    seen.
    """
    parser = argparse.ArgumentParser(prog="rc2", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p) -> None:
        p.add_argument("--input", default=None, help="input path (default: stdin)")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("gen", help="generate a graph from a named family")
    p.add_argument("family", choices=sorted(_FAMILIES))
    for key in _GEN_PARAMS:
        p.add_argument(f"--{key}", type=int)
    p.add_argument("--format", choices=("json", "edgelist"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("color", help="produce a rainbow-2-connecting coloring")
    add_io(p)
    p.add_argument("--trace", action="store_true", help="embed the construction trace")
    p.add_argument("--dot", default=None, help="also write a Graphviz rendering here")
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("verify", help="check a coloring for rainbow 2-connection")
    p.add_argument("--graph", required=True, help="graph file")
    p.add_argument("--coloring", required=True, help="coloring JSON file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    guard_help = "size guard (default %(default)s)"
    p.add_argument("--max-vertices", type=int, default=DEFAULT_GUARD.max_vertices, help=guard_help)
    p.add_argument("--max-edges", type=int, default=DEFAULT_GUARD.max_edges, help=guard_help)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("minimalize", help="spanning minimally 2-connected subgraph")
    add_io(p)
    p.set_defaults(func=_cmd_minimalize)

    p = sub.add_parser("decompose", help="ear decomposition of a minimally 2-connected graph")
    add_io(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("oracle", help="brute-force minimum color count (tiny graphs)")
    add_io(p)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="max feasibility tests")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("census", help="exact vs constructed counts for all tiny graphs")
    p.add_argument(
        "--n",
        type=int,
        required=True,
        help=f"vertex count ({CENSUS_SIZES[0]}..{CENSUS_SIZES[-1]})",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("corpus", help="list the benchmark corpus")
    p.set_defaults(func=_cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Rc2Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # A missing, unreadable or unwritable path, or a directory.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
