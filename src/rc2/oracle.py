"""Brute-force ground truth for the minimum rainbow-2-connecting color count.

The search enumerates edge colorings in canonical form (first edge color 0,
each later color at most one past the running maximum) so each partition of
the edges into color classes is tested exactly once, split by the exact
number of classes.  Feasibility goes through the same path machinery the
verifier uses, via :class:`~rc2.verify.RainbowIndex`.  Only viable for tiny
graphs; a budget caps the number of feasibility tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .coloring import color_rc2
from .errors import BudgetExceeded, InvalidInput, PreconditionViolated
from .graphs import Graph, is_cycle_graph, is_two_connected
from .verify import RainbowIndex

DEFAULT_BUDGET = 10**8


def _exact_k_colorings(m: int, k: int) -> Iterator[tuple[int, ...]]:
    """Canonical colorings of m edges using exactly the colors 0..k-1."""
    if k > m:
        return
    buf = [0] * m

    def rec(i: int, mx: int) -> Iterator[tuple[int, ...]]:
        if k - 1 - mx > m - i:
            return  # not enough positions left to introduce the missing colors
        if i == m:
            if mx == k - 1:
                yield tuple(buf)
            return
        for c in range(min(mx + 1, k - 1) + 1):
            buf[i] = c
            yield from rec(i + 1, max(mx, c))

    yield from rec(1, 0)


def brute_force_rc2(g: Graph, budget: int = DEFAULT_BUDGET) -> int:
    """Smallest color count that rainbow-2-connects g.

    Raises BudgetExceeded (carrying the proven lower bound) once ``budget``
    feasibility tests have run.  A negative budget is refused as invalid
    input; a budget of 0 raises BudgetExceeded at once.
    """
    if budget < 0:
        raise InvalidInput(f"budget must be at least 0, got {budget}")
    if not is_two_connected(g):
        raise PreconditionViolated("the property is only defined for 2-connected graphs")
    index = RainbowIndex(g)
    m = g.edge_count
    remaining = budget
    for k in range(1, g.vertex_count + 1):
        for colors in _exact_k_colorings(m, k):
            if remaining <= 0:
                raise BudgetExceeded(
                    f"budget of {budget} feasibility tests exhausted at {k} colors",
                    lower_bound=k,
                )
            remaining -= 1
            if index.feasible(colors):
                return k
    raise AssertionError("rc2(G) <= n for every 2-connected G, and m >= n, so k = n is feasible")


@dataclass(frozen=True)
class CensusRow:
    graph_id: int
    n: int
    m: int
    edges: str
    rc2_exact: int
    rc2_constructive: int
    is_cycle: bool


def census_small_graphs(n: int) -> list[CensusRow]:
    """Exact vs constructed color counts over all labeled 2-connected graphs.

    Enumerates every labeled graph on n vertices (n between 3 and 5; beyond
    that the census explodes), keeps the 2-connected ones, and pairs the
    brute-force minimum with the constructive count.
    """
    if not 3 <= n <= 5:
        raise InvalidInput("census covers 3 to 5 vertices")
    slots = list(combinations(range(n), 2))
    rows: list[CensusRow] = []
    for mask in range(1 << len(slots)):
        edges = [e for b, e in enumerate(slots) if mask >> b & 1]
        g = Graph.from_edges(n, edges)
        if not is_two_connected(g):
            continue
        exact = brute_force_rc2(g)
        built = color_rc2(g)
        rows.append(
            CensusRow(
                graph_id=mask,
                n=n,
                m=len(edges),
                edges=";".join(f"{u}-{v}" for u, v in sorted(g.edges)),
                rc2_exact=exact,
                rc2_constructive=built.coloring.color_count,
                is_cycle=is_cycle_graph(g),
            )
        )
    return rows


def census_csv(rows: list[CensusRow]) -> str:
    header = "graph_id,n,m,edges,rc2_exact,rc2_constructive,is_cycle"
    lines = [header]
    for r in rows:
        lines.append(
            f"{r.graph_id},{r.n},{r.m},{r.edges},{r.rc2_exact},"
            f"{r.rc2_constructive},{'true' if r.is_cycle else 'false'}"
        )
    return "\n".join(lines) + "\n"
