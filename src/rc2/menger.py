"""Finding two internally disjoint paths from a vertex into a subgraph.

Given a 2-connected graph and a vertex v0 outside an anchor set, a "fan"
is a pair of paths from v0 to two distinct anchor vertices that share only
v0 and touch the anchor set only at their endpoints.  In a 2-connected
graph such a fan always exists when the anchor set has at least two
vertices.  One private routine, ``_two_unit_flows``, finds it for both
callers: the ear fans here and the removability test of ``minimalize``.

The routine runs two unit augmentations in the vertex-split network, where
vertex v becomes an in-node and an out-node joined by a unit arc, each edge
xy gives the arcs out(x) -> in(y) and out(y) -> in(x), and every anchor's
in-node feeds a shared sink.  The network is never built: its arcs are read
off the adjacency lists and the flow is kept as one map.  Anchors have no
out-arcs, so a search never gets past the anchor set; when the anchors are
the vertices already covered by an ear decomposition, the search stays on
v0's bridge (the component of the uncovered part that contains v0).  Each
breadth-first search stops as soon as it reaches the sink.

An ear fan from a source of degree 2 is often forced: when the chain
through v0 runs straight to two distinct anchors, those two walks are the
only fan, and ``two_fan_to_subgraph`` returns them without the flows.  Every
other fan, and every removability test, still goes through the flows.
"""

from __future__ import annotations

from collections import deque
from typing import Container, Mapping, Sequence

from .errors import PreconditionViolated
from .graphs import Graph, Path, VertexSet

_SINK = -1


def _augment(
    adj: Mapping[int, Sequence[int]], anchors: Container[int], v0: int, into: dict[int, int]
) -> bool:
    """One shortest augmenting path from out(v0) to the sink, applied to
    ``into``; False when there is none.

    ``into[y] = x`` records a unit on the arc out(x) -> in(y).  Every in-node
    takes at most one unit, so this map is the whole flow.  Node ids are
    ``2v`` for in(v) and ``2v + 1`` for out(v).  Neighbours are scanned in
    ascending node id, which fixes which shortest path is found.
    """
    source = 2 * v0 + 1
    prev = {source: source}
    queue = deque((source,))
    push = queue.append
    carried = into.get
    while queue:
        a = queue.popleft()
        x = a >> 1
        if a & 1:
            # out(x): arcs to in(y) that carry no unit, and back to in(x) when
            # x carries one; in(x) takes its place among the in(y) by id.
            nbrs = adj[x]
            if x in into:
                nbrs = sorted((*nbrs, x))
            for y in nbrs:
                b = 2 * y
                if b not in prev and (y == x or (y != v0 and carried(y) != x)):
                    prev[b] = a
                    push(b)
            continue
        # in(x) has exactly one residual arc: back along the unit it carries,
        # else on to out(x), or to the sink for an anchor.
        w = carried(x)
        if w is not None:
            b = 2 * w + 1
        elif x in anchors:
            prev[_SINK] = a
            break
        else:
            b = a + 1
        if b not in prev:
            prev[b] = a
            push(b)
    else:
        return False

    # Apply from the sink back: cancelling the unit on out(y) -> in(x) comes
    # before giving in(x) its new unit, which sits earlier on the path.
    b = prev[_SINK]
    while b != source:
        a = prev[b]
        x, y = a >> 1, b >> 1
        if x != y:
            if a & 1:
                into[y] = x
            else:
                del into[x]
        b = a
    return True


def _two_unit_flows(
    adj: Mapping[int, Sequence[int]], anchors: Container[int], v0: int
) -> dict[int, int] | None:
    """Two vertex-disjoint flow paths from v0 into ``anchors``, or None.

    ``adj`` gives ascending adjacency lists and v0 must lie outside
    ``anchors``.  The result maps each vertex on the two paths, other than
    v0, to its predecessor; the two anchors among its keys are the paths'
    ends.
    """
    into: dict[int, int] = {}
    if _augment(adj, anchors, v0, into) and _augment(adj, anchors, v0, into):
        return into
    return None


def _chain_walk(
    adj: Mapping[int, Sequence[int]], anchors: Container[int], v0: int, y: int
) -> tuple[int, ...] | None:
    """The walk from v0 through its neighbour y along degree-2 vertices
    outside ``anchors``, up to the first anchor; None when it stops at any
    other vertex or comes back to v0."""
    walk = [v0]
    while y not in anchors:
        nbrs = adj[y]
        if len(nbrs) != 2 or y == v0:
            return None
        walk.append(y)
        a, b = nbrs
        y = b if a == walk[-2] else a
    walk.append(y)
    return tuple(walk)


def two_fan_to_subgraph(g: Graph, anchors: VertexSet | set[int], v0: int) -> tuple[Path, Path]:
    """Two paths from v0 to distinct anchor vertices, disjoint except at v0.

    Internal path vertices avoid ``anchors`` entirely.  The returned pair is
    sorted by terminal anchor id.  Raises PreconditionViolated when no such
    pair exists or the arguments are malformed.

    A source of degree 2 is first tried by walking its chain both ways
    (``_chain_walk``).  The two paths of a fan leave v0 by its two edges,
    and a path that enters a degree-2 vertex outside the anchor set can
    only go on by its other edge, so each fan path starts with one walk.
    A walk that ends at an anchor ends its path there.  So when both walks
    end at distinct anchors, they are the one fan there is, and the flows
    would find just it.  A walk that stops at another vertex or comes back
    to v0, or two walks that end at the same anchor, leave the answer to
    the flows.
    """
    if v0 in anchors:
        raise PreconditionViolated(f"fan source {v0} lies in the anchor set")
    if len(anchors) < 2:
        raise PreconditionViolated("need at least two anchor vertices")
    if not (0 <= v0 < g.vertex_count):
        raise PreconditionViolated(f"vertex {v0} out of range")

    adj = g.adjacency()
    if len(adj[v0]) == 2:
        walks = [_chain_walk(adj, anchors, v0, y) for y in adj[v0]]
        if None not in walks and walks[0][-1] != walks[1][-1]:
            p, q = sorted(walks, key=lambda walk: walk[-1])
            return Path(p), Path(q)

    into = _two_unit_flows(adj, anchors, v0)
    if into is None:
        raise PreconditionViolated(f"no two disjoint paths from {v0} into the anchor set")
    paths = []
    for end in sorted(y for y in into if y in anchors):
        verts = [end]
        while verts[-1] != v0:
            verts.append(into[verts[-1]])
        paths.append(Path(tuple(reversed(verts))))
    return paths[0], paths[1]
