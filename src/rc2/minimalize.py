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
"""

from __future__ import annotations

from bisect import insort

from .errors import PreconditionViolated
from .graphs import (
    Graph,
    components,
    degree_two_set,
    is_cycle_graph,
    is_two_connected,
    is_two_connected_sub,
    record_two_connected,
)
from .menger import _two_unit_flows
from .reports import Violation, VerificationReport, failing, passing


def _removable(adj: dict[int, list[int]], u: int, v: int) -> bool:
    """Whether the 2-connected graph with adjacency ``adj`` stays 2-connected
    without the edge uv.  ``adj`` is left as it was found."""
    if len(adj[u]) == 2 or len(adj[v]) == 2:
        return False
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


def spanning_minimally_two_connected(g: Graph) -> Graph:
    """Delete removable edges (smallest first) until none remain."""
    if not is_two_connected(g):
        raise PreconditionViolated("input must be 2-connected")
    adj = {x: list(nbrs) for x, nbrs in g.adjacency().items()}
    # A single ascending sweep reaches a fixpoint: deleting edges never makes
    # a previously essential edge removable.  The closing assert checks that.
    for u, v in sorted(g.edges):
        if _removable(adj, u, v):
            adj[u].remove(v)
            adj[v].remove(u)
    edges = frozenset((u, v) for u in adj for v in adj[u] if u < v)
    # Every deletion above rests on the Menger lemma; a lowpoint scan of the
    # result checks them all by a different algorithm.
    verdict = is_two_connected_sub(g.vertex_count, edges)
    assert verdict, "minimalizer output is not 2-connected"
    h = Graph(g.vertex_count, edges, g.labels)
    record_two_connected(h, verdict)
    assert is_minimally_two_connected(h)
    return h


def is_minimally_two_connected(g: Graph) -> bool:
    if not is_two_connected(g):
        return False
    adj = {x: list(nbrs) for x, nbrs in g.adjacency().items()}
    return not any(_removable(adj, u, v) for u, v in g.edges)


def branch_forest_components(g: Graph) -> list[frozenset[int]]:
    """Connected components of the subgraph induced by degree >= 3 vertices."""
    return components(g.adjacency(), set(range(g.vertex_count)) - degree_two_set(g))


def _degree_two_paths(g: Graph) -> list[tuple[int, ...]]:
    """Components of the subgraph induced by degree-2 vertices, each returned
    as a vertex sequence from its smaller end."""
    adj = g.adjacency()
    paths: list[tuple[int, ...]] = []
    for comp in components(adj, degree_two_set(g)):
        ends = sorted(x for x in comp if sum(1 for y in adj[x] if y in comp) <= 1)
        # Degree-2 vertices induce paths and cycles.  A cycle among them has
        # no edge leaving it, so it is the whole of a connected graph, and
        # bollobas_structure_check refuses cycles before it gets here.
        assert len(ends) == 2 or len(comp) == 1, f"degree-2 component {sorted(comp)} is not a path"
        seq = [ends[0]]
        prev = -1
        while seq[-1] != ends[-1]:
            cur = seq[-1]
            nxt = next(y for y in adj[cur] if y in comp and y != prev)
            prev = cur
            seq.append(nxt)
        paths.append(tuple(seq))
    return paths


def bollobas_structure_check(g: Graph) -> VerificationReport:
    """Structural sanity check for a minimally 2-connected non-cycle graph.

    The degree >= 3 vertices must induce a forest with at least two
    components, the degree-2 vertices must induce disjoint paths, and each
    such path must hook its two ends into different trees of the forest.
    """
    if is_cycle_graph(g):
        raise PreconditionViolated("structure check does not apply to cycles")
    if not is_minimally_two_connected(g):
        raise PreconditionViolated("input is not minimally 2-connected")

    violations: list[Violation] = []
    branch = sorted(set(range(g.vertex_count)) - degree_two_set(g))
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

    d = degree_two_set(g)
    adj = g.adjacency()
    paths = _degree_two_paths(g)
    for seq in paths:
        if len(seq) == 1:
            anchors = [y for y in adj[seq[0]] if y not in d]
        else:
            anchors = [y for end in (seq[0], seq[-1]) for y in adj[end] if y not in d]
        if len(anchors) != 2:
            violations.append(
                Violation("bad-attachment", seq, f"path attaches at {sorted(anchors)}")
            )
            continue
        a, b = anchors
        if tree_of.get(a) == tree_of.get(b):
            violations.append(
                Violation(
                    "same-tree-attachment",
                    seq,
                    f"both ends attach to component of vertex {min(a, b)}",
                )
            )

    if violations:
        return failing("structure", violations)
    return passing(
        "structure",
        [("branch_components", len(comps)), ("degree_two_paths", len(paths))],
    )
