"""Exact ground truth for the minimum rainbow-2-connecting color count.

Both solvers walk edge colorings in canonical form (first edge color 0,
each later color at most one past the running maximum) so each partition of
the edges into color classes is met exactly once, split by the exact
number of classes, and for each class count in lexicographic order.
:func:`brute_force_rc2`, the slow reference, tests every coloring in turn,
as one depth-first walk yields them in that order.
:func:`exact_rc2`, the fast path that ``rc2 oracle`` calls, grows colorings
edge by edge and drops a prefix once some vertex pair has no free pairing.
A budget counts canonical colorings decided, a dropped prefix counting as
all of its completions, so both solvers give the same value or run out at
the same point.  Feasibility is tested by :class:`~rc2.verify.RainbowIndex`,
which enumerates simple paths with its own walk, not the verifier's
rainbow-path search, so the oracle stays an independent reference for the
verifier.  Only viable for tiny graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations
from typing import Iterator

from .coloring import color_rc2
from .errors import BudgetExceeded, InvalidInput, PreconditionViolated
from .graphs import Graph, degree_two_set, edge, is_cycle_graph, is_two_connected
from .verify import RainbowIndex

DEFAULT_BUDGET = 10**8


def _exact_k_colorings(m: int, k: int) -> Iterator[tuple[int, ...]]:
    """Canonical colorings of m edges using exactly the colors 0..k-1, in
    lexicographic order."""
    if not 1 <= k <= m:
        return
    colors = [0] * m
    last = m - 1

    def fill(i: int, used: int) -> Iterator[int]:
        """Fill colors[i:last] in every way after colors[:i], which uses
        colors 0..used-1, and yield the count of colors used each time."""
        if i == last:
            yield used
            return
        # Color c must leave the later entries room to open every missing
        # color.
        for c in range(min(used + 1, k)):
            top = max(used, c + 1)
            if k - top <= last - i:
                colors[i] = c
                yield from fill(i + 1, top)

    # The last entry is the one missing color, or any color once none is
    # missing.
    for used in fill(0, 0):
        for c in (used,) if used < k else range(k):
            colors[last] = c
            yield tuple(colors)


def _checked_index(g: Graph, budget: int) -> RainbowIndex:
    """The feasibility index of g, once both solvers' input contract holds:
    a budget of at least 0 and a 2-connected g."""
    if budget < 0:
        raise InvalidInput(f"budget must be at least 0, got {budget}")
    if not is_two_connected(g):
        raise PreconditionViolated("the property is only defined for 2-connected graphs")
    return RainbowIndex(g)


def brute_force_rc2(g: Graph, budget: int = DEFAULT_BUDGET) -> int:
    """Smallest color count that rainbow-2-connects g.

    Raises BudgetExceeded (carrying the proven lower bound) once ``budget``
    feasibility tests have run.  A negative budget is refused as invalid
    input; a budget of 0 raises BudgetExceeded at once.
    """
    index = _checked_index(g, budget)
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


@cache
def _completions(r: int, b: int, k: int) -> int:
    """Ways to color r more edges so that a canonical prefix that has used
    b colors ends with exactly k: each edge takes one of the b colors or
    opens the next."""
    if not r:
        return int(b == k)
    return b * _completions(r - 1, b, k) + (_completions(r - 1, b + 1, k) if b < k else 0)


def exact_rc2(g: Graph, budget: int = DEFAULT_BUDGET) -> int:
    """Smallest color count that rainbow-2-connects g, by pruned search.

    For k = 1..n it walks the canonical colorings with exactly k colors
    depth-first, in the order of ``_exact_k_colorings``, and grows the
    coloring's conflict mask one edge at a time.  A prefix is dropped as
    soon as some vertex pair has no pairing free of its conflicts; conflicts
    only grow, so none of its completions is feasible.  The budget counts
    canonical colorings decided, a dropped prefix counting as all of its
    completions.  Those form one run of infeasible colorings in the brute
    force's order, so for every budget this returns what
    :func:`brute_force_rc2` returns, or raises the same ``BudgetExceeded``.
    """
    index = _checked_index(g, budget)
    m = g.edge_count
    remaining = budget

    def decide(count: int, k: int) -> None:
        nonlocal remaining
        if remaining < count:
            raise BudgetExceeded(
                f"budget of {budget} feasibility tests exhausted at {k} colors",
                lower_bound=k,
            )
        remaining -= count

    def extend(f: int, used: int, conflict: int, classes: list[int], k: int) -> bool:
        """Is some completion of this prefix of f edges, with ``classes[c]``
        the edge mask of color c, feasible?"""
        if f == m:
            # No prefix of this coloring was blocked, so it is feasible.
            decide(1, k)
            return True
        for c in range(min(used + 1, k)):
            top = max(used, c + 1)
            count = _completions(m - f - 1, top, k)
            if not count:
                continue
            same = classes[c]
            # Edge f's pairs with the edges of its class: bits f*m + e, as
            # RainbowIndex lays them out.  A fresh color adds none.
            grown = conflict | same << f * m
            if same and index.blocked(grown):
                decide(count, k)
                continue
            classes[c] = same | 1 << f
            found = extend(f + 1, top, grown, classes, k)
            classes[c] = same
            if found:
                return True
        return False

    for k in range(1, g.vertex_count + 1):
        if extend(0, 0, 0, [0] * k, k):
            return k
    raise AssertionError("rc2(G) <= n for every 2-connected G, and m >= n, so k = n is feasible")


CENSUS_SIZES = range(3, 7)


@dataclass(frozen=True)
class CensusRow:
    graph_id: int
    class_id: int
    n: int
    m: int
    edges: str
    rc2_exact: int
    rc2_constructive: int
    is_cycle: bool


def census_small_graphs(n: int) -> list[CensusRow]:
    """Exact vs constructed color counts over all labeled 2-connected graphs.

    Walks every labeled graph on n vertices (n in ``CENSUS_SIZES``) as an
    edge-slot mask, bit b for the b-th pair of ``combinations(range(n), 2)``,
    and keeps the 2-connected ones.  rc2 is a graph invariant, so it is
    brute-forced once per isomorphism class: the masks ascend, so the first
    member met of a class is its smallest mask, the ``class_id`` to which
    the class's whole orbit of relabelings is mapped with its exact value.
    The construction depends on the labels, so it runs on every labeled graph.
    """
    if n not in CENSUS_SIZES:
        raise InvalidInput(f"census covers {CENSUS_SIZES[0]} to {CENSUS_SIZES[-1]} vertices")
    slots = list(combinations(range(n), 2))
    position = {e: b for b, e in enumerate(slots)}
    tables = [[1 << position[edge(p[u], p[v])] for u, v in slots] for p in permutations(range(n))]
    # A 2-connected graph has minimum degree 2, so a mask that holds at most
    # one of some vertex's slots is skipped before a Graph is built.
    at_vertex = [sum(1 << b for b, e in enumerate(slots) if v in e) for v in range(n)]
    class_of: dict[int, tuple[int, int]] = {}
    rows: list[CensusRow] = []
    for mask in range(1 << len(slots)):
        if any((mask & s).bit_count() < 2 for s in at_vertex):
            continue
        bits = [b for b in range(len(slots)) if mask >> b & 1]
        g = Graph.from_edges(n, [slots[b] for b in bits])
        if not is_two_connected(g):
            continue
        if mask not in class_of:
            exact = brute_force_rc2(g)
            for table in tables:
                class_of[sum(map(table.__getitem__, bits))] = (mask, exact)
        class_id, exact = class_of[mask]
        built = color_rc2(g)
        rows.append(
            CensusRow(
                graph_id=mask,
                class_id=class_id,
                n=n,
                m=len(bits),
                edges=";".join(f"{u}-{v}" for u, v in sorted(g.edges)),
                rc2_exact=exact,
                rc2_constructive=built.coloring.color_count,
                is_cycle=is_cycle_graph(g),
            )
        )
    # Each class's orbit is exactly its labeled members.
    assert len(class_of) == len(rows)
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


def theorem_faults(row: CensusRow) -> list[str]:
    """How the row breaks the theorem, if it does: exact above constructed,
    exact = n on a non-cycle or other than n on a cycle, or more than n - 1
    constructed colors on a non-cycle.  Plain checks, not asserts, so
    ``python -O`` keeps them."""
    n, exact, built = row.n, row.rc2_exact, row.rc2_constructive
    found = []
    if exact > built:
        found.append(f"exact {exact} above constructed {built}")
    if row.is_cycle and exact != n:
        found.append(f"a cycle with exact {exact}, not n = {n}")
    if not row.is_cycle and exact == n:
        found.append(f"a non-cycle with exact n = {n}")
    if not row.is_cycle and built > n - 1:
        found.append(f"constructed {built}, more than n - 1 = {n - 1}")
    return found


def sharp_kind(row: CensusRow) -> str:
    """"theta" for a theta graph (m = n + 1: two vertices of degree 3, the
    rest of degree 2), "K4-path" for K4 with one edge replaced by a path of
    length at least 2 (m = n + 2: four vertices of degree 3, the rest of
    degree 2, and exactly one of the six chains between them has interior
    vertices), and "other" for every other graph."""
    g = Graph.from_edges(row.n, [map(int, e.split("-")) for e in row.edges.split(";")])
    adj = g.adjacency()
    branch = set(adj).difference(degree_two_set(g))
    # Degrees sum to 2m and none is below 2, so two branch vertices at
    # m = n + 1, or four at m = n + 2, all have degree 3.
    if row.m == row.n + 1 and len(branch) == 2:
        return "theta"
    # A chain with interior vertices leaves the branch vertices by two edges.
    leaving = sum(x not in branch for b in branch for x in adj[b])
    if row.m == row.n + 2 and len(branch) == 4 and leaving == 2:
        return "K4-path"
    return "other"
