"""Reducing a 2-connected graph to a minimally 2-connected spanning subgraph.

A graph is minimally 2-connected when deleting any single edge destroys
2-connectivity.  The reduction below only deletes edges, so the result spans
the same vertex set; rainbow path pairs found in the reduced graph remain
valid in the original.

Edges are tried in ascending order, and each test is local.  Let H be
2-connected and uv an edge of H.  If u or v has degree 2, H - uv has a
vertex of degree 1 and uv stays.  Otherwise H - uv is 2-connected exactly
when it still has two internally disjoint u-v paths (Menger), which holds
exactly when H - uv has a 2-fan from u into N(v) - {u}: the fan's two ends
are distinct neighbours of v, and v itself is never entered because all of
its remaining neighbours are anchors.  The fan search is the shared routine
of ``menger``.  Each of its two searches stops at the first anchor it
reaches, so only an essential edge pays for a search of everything u can
still reach.  The sweep keeps H 2-connected, so the lemma applies at every
step.

The sweep runs these tests on a chain-contracted copy H' of H.  A chain is
a maximal path of degree-2 vertices; H' keeps one representative vertex of
degree 2 for each chain, adjacent to the two vertices the chain hangs from.
Contraction lemma: let uv be an edge of H whose ends both have degree at
least 3, so that both lie outside every chain and uv is an edge of H'.  Then
H - uv has a 2-fan from u into N(v) - {u} exactly when H' - uv has a 2-fan
from u into v's other neighbours in H'.  A fan path that enters a chain at
one end leaves it at the other or stops inside it at an anchor, so two
disjoint paths never share a chain, and putting each chain's representative
in place of the chain maps the fans of H one-to-one onto those of H'.  An
anchor w inside a chain is the chain's end next to v, as w's other
neighbour is v.  A fan path reaches w only by running through the whole
chain, and in H' it then stops at the representative, which is v's
neighbour there: the representative becomes the anchor.  Deleting edges
only lowers degrees, so a degree-2 vertex stays at degree 2 and its chain
only grows.  When a deletion drops u or v to degree 2, that vertex is
spliced together with the representatives next to it and becomes the new
representative.  A splice that closes a chain on itself means H has become
a cycle, where every edge has a degree-2 end and none is left to test.

The sweep starts from the carving C of G that the 2-connectivity scan keeps
(``graphs.carving``), not from G itself.  Carving lemma (Khuller and
Vishkin, J. ACM 1994): let T be a DFS tree of G with root r, and let K hold,
for each vertex w whose parent p is not r, the back edge that attains low(w)
whenever the edges of K from w's subtree, chosen before it in post-order,
reach no vertex above p.  Then T + K is 2-connected.  Every edge of T + K
joins an ancestor to a descendant, so T is a DFS tree of T + K, where the
lowpoint test reads: r has one child, and for every such w some edge from
w's subtree reaches above p.  r has one child because G is 2-connected, and
the rule gives each w its edge, since low(w) lies above p in G.  K holds at
most one edge for each of the n - 2 vertices other than r and its child, so
C has at most 2n - 3 edges.  A minimally 2-connected spanning subgraph of C
is one of G, since C spans G.
"""

from __future__ import annotations

from bisect import insort

from .errors import PreconditionViolated
from .graphs import (
    Graph,
    carving,
    components,
    degree_two_set,
    is_cycle_graph,
    is_two_connected,
    is_two_connected_sub,
    record_carving,
)
from .menger import _two_unit_flows
from .reports import Violation, VerificationReport, failing, passing


def _removable(adj: dict[int, list[int]], u: int, v: int) -> bool:
    """Whether the 2-connected graph with adjacency ``adj`` stays 2-connected
    without the edge uv.  ``adj`` is left as it was found.

    Callers skip an edge with a degree-2 end, which is never removable; the
    flows would say so too, after a search.
    """
    if len(adj[u]) > len(adj[v]):
        # Either end works; from the smaller degree the search meets one of
        # the many anchors sooner.
        u, v = v, u
    adj[u].remove(v)
    adj[v].remove(u)
    try:
        return _two_unit_flows(adj, frozenset(adj[v]), u) is not None
    finally:
        insort(adj[u], v)
        insort(adj[v], u)


def _splice(adj: dict[int, list[int]], x: int) -> None:
    """Make x, a vertex of degree 2 in ``adj``, the representative of its
    chain.

    From x, each side is walked through the degree-2 vertices of ``adj``,
    which leave it; x is then joined to the vertex the walk stops at, which
    swaps one entry of that vertex's list and one of x's.  A walk that comes
    back to x has gone round a cycle, which is all of H, and nothing more is
    done.
    """
    nbrs = adj[x]
    for i, y in enumerate(nbrs):
        last = x
        while len(adj[y]) == 2:
            a, b = adj.pop(y)
            last, y = y, (b if a == last else a)
            if y == x:
                return
        if last != x:
            end = adj[y]
            end.remove(last)
            insort(end, x)
            nbrs[i] = y
    nbrs.sort()


def spanning_minimally_two_connected(g: Graph) -> Graph:
    """Delete removable edges (smallest first) until none remain.

    An input whose every edge has an end of degree 2 is returned as it is.
    Deleting any of its edges leaves a vertex of degree 1, so it is already
    minimally 2-connected: its carving is all of it, and the sweep would
    test no edge and keep every one.  Nothing is deleted on that path, so
    none of the module's lemmas is used, and the output is the input, which
    the entry scan has certified; the closing scan has nothing to check.
    """
    if not is_two_connected(g):
        raise PreconditionViolated("input must be 2-connected")
    d = degree_two_set(g)
    if all(u in d or v in d for u, v in g.edges):
        assert is_minimally_two_connected(g)
        return g
    n = g.vertex_count
    c = Graph(n, carving(g))
    adj = {x: list(nbrs) for x, nbrs in c.adjacency().items()}
    # ``adj`` is H contracted: a chain vertex other than the representative
    # has no entry, and every other vertex keeps its degree in H as the
    # length of its list.  No list holds a vertex twice, since in a
    # 2-connected H that is not a cycle a chain's two ends are distinct.
    for x in range(n):
        if len(adj.get(x, ())) == 2:
            _splice(adj, x)
    removed = []
    # A single ascending sweep reaches a fixpoint: deleting edges never makes
    # a previously essential edge removable.  The closing assert checks that.
    for e in sorted(c.edges):
        u, v = e
        if len(adj.get(u, ())) < 3 or len(adj.get(v, ())) < 3 or not _removable(adj, u, v):
            continue
        adj[u].remove(v)
        adj[v].remove(u)
        removed.append(e)
        if len(adj[u]) == 2:
            _splice(adj, u)
        if v in adj and len(adj[v]) == 2:
            _splice(adj, v)
    edges = c.edges.difference(removed)
    # Every deletion above rests on the carving, Menger and contraction
    # lemmas; a lowpoint scan of the result checks them all by a different
    # algorithm.  It raises itself, so that it runs under -O too: the
    # carving recorded below rests on it.
    if not is_two_connected_sub(n, edges):
        raise AssertionError("minimalizer output is not 2-connected")
    h = Graph(n, edges, g.labels)
    record_carving(h, h.edges)  # a minimally 2-connected graph is its own carving
    assert is_minimally_two_connected(h)
    return h


def is_minimally_two_connected(g: Graph) -> bool:
    if not is_two_connected(g):
        return False
    adj = {x: list(nbrs) for x, nbrs in g.adjacency().items()}
    d = degree_two_set(g)
    return not any(_removable(adj, u, v) for u, v in g.edges if u not in d and v not in d)


def branch_forest_components(g: Graph) -> list[frozenset[int]]:
    """Connected components of the subgraph induced by degree >= 3 vertices."""
    return components(g.adjacency(), set(range(g.vertex_count)) - degree_two_set(g))


def bollobas_structure_check(g: Graph) -> VerificationReport:
    """Structural sanity check for a minimally 2-connected non-cycle graph.

    The degree >= 3 vertices must induce a forest with at least two
    components, and each chain of degree-2 vertices must hook into two
    different trees of the forest.
    """
    if is_cycle_graph(g):
        raise PreconditionViolated("structure check does not apply to cycles")
    if not is_minimally_two_connected(g):
        raise PreconditionViolated("input is not minimally 2-connected")

    violations: list[Violation] = []
    d = degree_two_set(g)
    branch = sorted(set(range(g.vertex_count)) - d)
    comps = branch_forest_components(g)
    tree_of = {v: i for i, comp in enumerate(comps) for v in comp}

    branch_edges = [e for e in sorted(g.edges) if e[0] in tree_of and e[1] in tree_of]
    if len(branch_edges) != len(branch) - len(comps):
        violations.append(
            Violation("not-forest", tuple(branch), "degree >= 3 vertices induce a cycle")
        )
    if len(comps) < 2:
        violations.append(
            Violation(
                "single-tree",
                tuple(sorted(comps[0])) if comps else (),
                "expected at least two components of branch vertices",
            )
        )

    adj = g.adjacency()
    chains = components(adj, d)
    for chain in chains:
        # Every chain has exactly two anchors.  A lone degree-2 vertex has
        # both neighbours outside d, or they would share its component; a
        # longer chain is a path (a cycle of degree-2 vertices is a whole
        # cycle graph, refused above), and each of its two ends has one
        # neighbour in the chain and one outside d.
        a, b = [y for x in chain for y in adj[x] if y not in d]
        if tree_of[a] == tree_of[b]:
            violations.append(
                Violation(
                    "same-tree-attachment",
                    tuple(sorted(chain)),
                    f"both ends attach to component of vertex {min(a, b)}",
                )
            )

    if violations:
        return failing("structure", violations)
    return passing(
        "structure",
        [("branch_components", len(comps)), ("degree_two_paths", len(chains))],
    )
