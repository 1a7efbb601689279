"""Command line interface.

Subcommands: ``gen`` (family generators), ``color`` (produce a coloring),
``verify`` (check a coloring), ``minimalize``, ``decompose``, ``oracle``
(exact minimum by pruned search), ``census`` (exact-vs-constructed table
for tiny n, each row checked against the theorem) and ``corpus`` (color,
verify and replay the benchmark corpus).  ``census`` and ``corpus`` write
their table on stdout and their report on stderr.

Graphs come from ``--input`` (``--graph`` for ``verify``) or stdin.  A text
whose first non-blank character is ``{`` is read as JSON
(``{"n": ..., "edges": ...}``), any other as a whitespace edge list; an edge
list that starts with ``{`` needs a ``#`` comment line first.  Exit codes: 0
success, 1 a verification failed or a color bound was exceeded, a census
row broke the theorem or a corpus graph failed its check, 2 a usage error
or a refusal: ``InvalidInput`` (malformed input), ``PreconditionViolated``
(well-formed input the command does not apply to), an unreadable path, or a
graph over the verifier's size guard.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections import Counter
from pathlib import Path

from .coloring import color_rc2, coloring_from_json_obj, support_from_json_obj, to_dot
from .corpus import check_corpus
from .ears import build_ear_decomposition
from .errors import BudgetExceeded, InvalidInput, PreconditionViolated, Rc2Error
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
from .oracle import (
    CENSUS_SIZES,
    DEFAULT_BUDGET,
    census_csv,
    census_small_graphs,
    exact_rc2,
    sharp_kind,
    theorem_faults,
)
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
    """The text of ``path`` (stdin when None), without a leading UTF-8
    byte-order mark, which would hide a JSON text's ``{``."""
    try:
        text = sys.stdin.read() if path is None else Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise InvalidInput(f"{path or 'stdin'} is not text: {exc}") from exc
    return text.removeprefix("\ufeff")


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
    if g.vertex_count == 0:
        # The bound of n - 1 colors would read -1.
        raise PreconditionViolated("the graph has no vertices, so there is nothing to verify")
    obj = parse_json(_read_text(args.coloring), "coloring JSON")
    coloring = coloring_from_json_obj(obj)
    guard = SizeGuard(args.max_vertices, args.max_edges)
    report = is_rainbow_two_connected(g, coloring, guard, support_from_json_obj(obj))
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
        payload = {"rc2": exact_rc2(g, budget=args.budget)}
    except BudgetExceeded as exc:
        payload = {"budget_exceeded": True, "rc2_lower_bound": exc.lower_bound}
    _emit(canonical_json(payload) + "\n", args.out)
    return 0


def _note(line: str) -> None:
    """A report line on stderr; stdout keeps the command's table."""
    print(line, file=sys.stderr)


def _cmd_census(args) -> int:
    """The census CSV, then its report: each row that breaks the theorem,
    the classes needing n - 1 colors split into theta graphs, K4 with one
    edge replaced by a longer path and other (a conjecture says none is
    other, so an other class is named but passes), and the optimality gaps."""
    n = args.n
    rows = census_small_graphs(n)
    _emit(census_csv(rows), args.out)
    broken = 0
    for row in rows:
        found = theorem_faults(row)
        broken += bool(found)
        for fault in found:
            _note(f"n={n} graph {row.graph_id} ({row.edges}): {fault}")
    classes = len({row.class_id for row in rows})
    _note(f"n={n}: {len(rows)} graphs ({classes} classes)")
    # Each class once: by its row whose mask is the class_id, its smallest.
    sharp = [row for row in rows if row.graph_id == row.class_id and row.rc2_exact == n - 1]
    kinds = [sharp_kind(row) for row in sharp]
    split = Counter(kinds)
    _note(f"  classes needing n-1 = {n - 1} colors: {len(sharp)}/{classes}")
    _note(f"  of these: theta {split['theta']}, K4-path {split['K4-path']}, other {split['other']}")
    for row, kind in zip(sharp, kinds):
        if kind == "other":
            _note(f"  other: class {row.class_id} ({row.edges})")
    gaps = Counter(row.rc2_constructive - row.rc2_exact for row in rows)
    _note(f"  construction optimal on {gaps[0]}/{len(rows)}")
    for gap in sorted(gaps):
        if gap:
            _note(f"  gap {gap}: {gaps[gap]} graphs")
    worst = max(rows, key=lambda row: row.rc2_constructive - row.rc2_exact)
    if worst.rc2_constructive > worst.rc2_exact:
        _note(
            f"  worst: graph {worst.graph_id} ({worst.edges}) "
            f"exact {worst.rc2_exact}, constructed {worst.rc2_constructive}"
        )
    if broken:
        _note(f"graphs breaking the theorem: {broken}")
    return 1 if broken else 0


def _cmd_corpus(args) -> int:
    """One row per corpus member, then the report: each failure, a table of
    colors spent against the n - 1 budget per family, and the digests."""
    run = check_corpus()
    families: dict[str, list] = {}
    for row in run.rows:
        name = row.spec.describe()
        fields = (name, row.n, row.m, row.strategy, row.colors_used, row.colors_allowed, row.verified)
        print("\t".join(map(str, fields)))
        for fault in row.faults:
            _note(f"{name}: {fault}")
        families.setdefault(row.spec.name, []).append(row)
    width = max(map(len, families))
    _note(f"{'family':<{width}}  graphs  avg colors / avg budget  failures")
    for name in sorted(families):
        rows = families[name]
        used = sum(row.colors_used for row in rows) / len(rows)
        budget = sum(row.colors_allowed for row in rows) / len(rows)
        failed = sum(bool(row.faults) for row in rows)
        _note(f"{name:<{width}}  {len(rows):>6}  {used:>10.2f} / {budget:<10.2f}  {failed:>8}")
    failures = sum(bool(row.faults) for row in run.rows)
    _note(f"\n{len(run.rows)} graphs, {failures} failures")
    _note(f"{run.replays} traced colorings replayed")
    _note(f"support fallbacks {run.support_fallbacks}")
    _note(f"colorings sha256 {run.colorings_sha256}")
    _note(f"traces sha256 {run.traces_sha256}")
    return 1 if failures else 0


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

    p = sub.add_parser("oracle", help="exact minimum color count by pruned search (tiny graphs)")
    add_io(p)
    p.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help="max canonical colorings decided; a dropped prefix counts as all its completions",
    )
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser(
        "census", help="exact vs constructed counts for all tiny graphs, checked against the theorem"
    )
    p.add_argument(
        "--n",
        type=int,
        required=True,
        help=f"vertex count ({CENSUS_SIZES[0]}..{CENSUS_SIZES[-1]})",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("corpus", help="color, verify and replay the benchmark corpus")
    p.set_defaults(func=_cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (Rc2Error, OSError) as exc:
        # OSError: a missing, unreadable or unwritable path, or a directory.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
