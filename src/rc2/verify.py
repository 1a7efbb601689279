"""Checking colorings against the rainbow-2-connection property.

A path is rainbow when its edges all have distinct colors.  The headline
check, :func:`is_rainbow_two_connected`, confirms that every vertex pair is
joined by two rainbow paths sharing only their endpoints.  The checks are
exhaustive path enumerations, so a :class:`~rc2.reports.SizeGuard` refuses
inputs that would blow up; a refused check comes back as a skipped report,
never as a silent pass.  The headline check searches only the pairs that no
accepted witness's cycle joins by two rainbow arcs.  Every witness is
checked apart from the search and that lookup: two arcs of an accepted
cycle by the color parity of each arc, in a fixed number of steps, before
they are handed out, and any other witness by :func:`pair_witness_error`.

:func:`check_induction_invariants` replays a traced construction level by
level and confirms the stronger inductive properties (tags A1-A5, B1, B2 in
:mod:`rc2.reports`) that justify recycling a color at each ear attachment.
"""

from __future__ import annotations

from itertools import accumulate, combinations
from operator import xor
from typing import Iterable, Iterator, Mapping, Sequence

from .coloring import ColoringResult, EdgeColoring
from .errors import InvalidInput, PreconditionViolated
from .graphs import Graph, VertexSet, edge
from .reports import (
    DEFAULT_GUARD,
    SizeGuard,
    VerificationReport,
    Violation,
    failing,
    passing,
    skipped,
)


def enumerate_rainbow_paths(
    g: Graph,
    coloring: EdgeColoring,
    u: int,
    v: int,
    forbidden_vertices: VertexSet = frozenset(),
) -> Iterator[tuple[int, ...]]:
    """All rainbow u-v paths, nearest to v first.

    Each vertex's neighbours are tried in :meth:`Graph.adjacency_toward`
    order (BFS hop distance to v, then id), so the paths come in
    lexicographic order of their per-vertex keys ``(dist(x, v), x)``.
    Edges missing from the coloring are unusable.  ``forbidden_vertices``
    bans vertices outright (do not ban the endpoints).
    """
    if u == v:
        raise InvalidInput("path endpoints must differ")
    if not (0 <= u < g.vertex_count and 0 <= v < g.vertex_count):
        raise InvalidInput(f"path endpoints {u} and {v} must be vertices 0..{g.vertex_count - 1}")
    return _rainbow_walk(g.adjacency_toward(v), coloring.assignment, u, {u, *forbidden_vertices}, v)


def _rainbow_walk(
    adj: Mapping[int, Sequence[int]],
    assign: Mapping[tuple[int, int], int],
    u: int,
    blocked: set[int],
    target: int,
    every: bool = False,
) -> Iterator[tuple[int, ...]]:
    """The one rainbow-path DFS: rainbow paths from u over ``adj``, in its
    neighbour order, avoiding the ``blocked`` vertices (u among them).

    A path that reaches ``target`` is yielded and never extended.  With
    ``every``, each path is also yielded as it is extended, so a walk with a
    target that is no vertex yields every rainbow path from u.  The search
    keeps an explicit stack of neighbour iterators, so path length is not
    bounded by the recursion limit.
    """
    # Banned vertices are never on the path, so popping a path vertex never
    # lifts a ban.
    spent: set[int] = set()
    path = [u]
    colors: list[int] = []
    stack = [iter(adj[u])]
    while stack:
        cur = path[-1]
        for nxt in stack[-1]:
            if nxt in blocked:
                continue
            color = assign.get(edge(cur, nxt))
            if color is None or color in spent:
                continue
            if nxt == target:
                yield (*path, target)
                continue
            blocked.add(nxt)
            spent.add(color)
            path.append(nxt)
            colors.append(color)
            stack.append(iter(adj[nxt]))
            if every:
                yield tuple(path)
            break
        else:
            stack.pop()
            if colors:
                blocked.discard(path.pop())
                spent.discard(colors.pop())


# The replay's A1-A3 read lists of paths, each with its vertex mask.
PathEntry = tuple[tuple[int, ...], int]


def _with_masks(paths: Iterable[tuple[int, ...]]) -> Iterator[PathEntry]:
    """Each path with its vertices as one int, bit x standing for vertex x."""
    return ((p, sum(map((1).__lshift__, p))) for p in paths)


def _first_pair(entries1: Iterable[PathEntry], entries2: Sequence[PathEntry], shared: int):
    """The first pair across two lists, in their order, whose paths meet in
    exactly the vertices of ``shared``, or None.

    A1 (both ends), A2 (the center) and A3 (nothing) differ only in
    ``shared``.  A path is never its own partner: the single edge uv would
    otherwise pair with itself for A1.
    """
    for p, pm in entries1:
        for q, qm in entries2:
            if pm & qm == shared and q != p:
                return p, q
    return None


def has_two_internally_disjoint_rainbow_paths(
    g: Graph, coloring: EdgeColoring, u: int, v: int, cycles: _AcceptedCycles | None = None
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Two rainbow u-v paths that share only their endpoints, or None.

    The witness is the first rainbow path, in the nearest-to-v order of
    :func:`enumerate_rainbow_paths`, that has such a partner, with its first
    partner in that order.  Each path's partner is sought by one search that
    bans the path's interior, so the paths are never stored and compared.

    With a record of accepted ``cycles``, a pair that two rainbow arcs of a
    recorded cycle join gets those arcs, checked by the record before it
    hands them out, and runs no search.  The call records nothing, and
    without a record every call searches.
    """
    if u == v:
        raise InvalidInput("path endpoints must differ")
    if cycles is not None:
        reused = cycles.witness(u, v)
        if reused is not None:
            return reused
    for p in enumerate_rainbow_paths(g, coloring, u, v):
        for q in enumerate_rainbow_paths(g, coloring, u, v, frozenset(p[1:-1])):
            # The single edge uv avoids its own empty interior.
            if q != p:
                return p, q
    return None


def pair_witness_error(coloring: EdgeColoring, u: int, v: int, witness) -> str | None:
    """Why ``witness`` does not certify A1 for u and v, or None if it does.

    Independent of the path search: the witness must be two distinct u-v
    paths of the colored graph, each simple and rainbow, that share only u
    and v.  An uncolored step is a non-edge: :func:`is_rainbow_two_connected`
    checks that the coloring covers exactly the graph's edges.
    """
    if not isinstance(witness, tuple) or len(witness) != 2:
        return "the witness is not a pair of paths"
    p, q = witness
    assign = coloring.assignment
    for path in (p, q):
        if not isinstance(path, tuple) or len(path) < 2 or path[0] != u or path[-1] != v:
            return f"{path} is not a path from {u} to {v}"
        colors = {assign.get((a, b) if a < b else (b, a)) for a, b in zip(path, path[1:])}
        if None in colors:
            return f"{path} uses a non-edge"
        if len(colors) != len(path) - 1:
            return f"{path} is not rainbow"
    # Both paths run from u to v, so they are simple and share only u and v
    # exactly when u and v are their only repeated vertices.
    if p == q or len(set(p + q)) != len(p) + len(q) - 2:
        for path in (p, q):
            if len(set(path)) != len(path):
                return f"{path} is not simple"
        return f"{p} and {q} share more than their endpoints"
    return None


class _AcceptedCycles:
    """The cycles of the witnesses one verification call has accepted.

    A witness (p, q) closes the cycle p + q[-2:0:-1]; two rainbow arcs of
    it are a witness for their ends.  :meth:`error` records each cycle it
    accepts, as it comes, in one form: ``pos`` (vertex -> position)
    proposes where u and v sit, and the doubled ring (an arc is one slice)
    and its parity prefix masks ``x`` confirm it before :meth:`witness`
    serves the arcs.  ``x[k]`` XORs one bit per color over the first k
    edges of the doubled ring, and the d edges from i are rainbow exactly
    when ``x[i + d] ^ x[i]`` has d bits set (it keeps the colors used an
    odd number of times: at most d, and d only when each occurs once).  So
    a fault in ``pos`` cannot produce a pass.  No cycle comes twice: a
    searched pair's witness lies on no recorded cycle, since that cycle
    would have served the pair two rainbow arcs.
    """

    def __init__(self, coloring: EdgeColoring):
        self._coloring = coloring
        # vertex -> the cycles through it, oldest first: (pos, ring, x), where
        # pos proposes positions and the doubled ring and x confirm them.
        self._by_vertex: dict[int, list[tuple]] = {}
        # The pair last served and the very arcs it got.
        self._served = (None, None)

    def witness(self, u: int, v: int) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """Two rainbow u-v arcs of the newest recorded cycle that has them,
        checked, or None."""
        at_u, at_v = self._by_vertex.get(u, ()), self._by_vertex.get(v, ())
        for pos, ring, x in reversed(at_u if len(at_u) <= len(at_v) else at_v):
            i, j = pos.get(u), pos.get(v)
            if i is None or j is None:
                continue
            # The arc from u on to v has d edges; the one from v on to u the rest.
            size = len(x) // 2
            i %= size
            d = (j - i) % size
            # The ring and the masks confirm the proposal from their own data.
            xp, xq = x[i + d] ^ x[i], x[i + size] ^ x[i + d]
            if (ring[i], ring[i + d], xp.bit_count(), xq.bit_count()) == (u, v, d, size - d):
                arcs = ring[i : i + d + 1], ring[i + d : i + size + 1][::-1]
                self._served = (u, v), arcs
                return arcs
        return None

    def error(self, u: int, v: int, witness) -> str | None:
        """None for the arcs just served for (u, v), else
        :func:`pair_witness_error`.  An accepted witness's cycle is recorded."""
        pair, arcs = self._served
        if witness is arcs and pair == (u, v):
            return None
        error = pair_witness_error(self._coloring, u, v, witness)
        if error is None:
            self._record(witness[0] + witness[1][-2:0:-1])
        return error

    def _record(self, ring: tuple[int, ...]) -> None:
        """Keep an accepted witness's ``ring``, a simple cycle of colored
        edges, by its positions, doubled ring and parity masks."""
        assign = self._coloring.assignment
        hops = zip(ring, ring[1:] + ring[:1])
        # Each color of the cycle gets a bit, in order of first sight.
        bits: dict[int, int] = {}
        ones = [bits.setdefault(assign[edge(a, b)], 1 << len(bits)) for a, b in hops]
        x = list(accumulate(ones + ones, xor, initial=0))
        entry = ({y: i for i, y in enumerate(ring)}, ring + ring, x)
        for y in ring:
            self._by_vertex.setdefault(y, []).append(entry)


def is_rainbow_two_connected(
    g: Graph, coloring: EdgeColoring, guard: SizeGuard = DEFAULT_GUARD
) -> VerificationReport:
    """Exhaustively verify the headline property over all vertex pairs.

    Pairs are checked in order, one
    :func:`has_two_internally_disjoint_rainbow_paths` call each, sharing one
    :class:`_AcceptedCycles` record.  A pair with no witness lies on no
    accepted cycle with two rainbow arcs, so the first failing pair is the
    one a search of every pair finds.  The record's
    :meth:`~_AcceptedCycles.error` passes the arcs it has just checked and
    served for the pair, and sends any other witness to
    :func:`pair_witness_error`; neither check reads the search or the
    lookup, so a fault in either cannot produce a pass.
    """
    if set(coloring.assignment) != g.edges:
        raise InvalidInput("coloring must cover exactly the graph's edges")
    refusal = guard.refusal(g.vertex_count, g.edge_count)
    if refusal is not None:
        return skipped("A1", refusal)
    cycles = _AcceptedCycles(coloring)
    for u, v in combinations(range(g.vertex_count), 2):
        # The record goes by position, so a stand-in taking ``*args`` still fits.
        witness = has_two_internally_disjoint_rainbow_paths(g, coloring, u, v, cycles)
        if witness is None:
            return failing(
                "A1",
                [Violation("A1", (u, v), "no two internally disjoint rainbow paths")],
            )
        error = cycles.error(u, v, witness)
        if error is not None:
            return failing("A1", [Violation("A1", (u, v), f"witness rejected: {error}")])
    return passing("A1", [("pairs_checked", g.vertex_count * (g.vertex_count - 1) // 2)])


def _color_map_violation(
    assign: Mapping[tuple[int, int], int], mapping: Mapping[int, int]
) -> tuple | None:
    """The first breach of the vertex color map, as ``(kind, subject,
    reason)``, or None: A4 (the map is injective), then A5 (each mapped
    color sits on one edge, at its vertex), each in vertex order."""
    first_owner: dict[int, int] = {}
    for v, c in sorted(mapping.items()):
        if c in first_owner:
            return "A4", (first_owner[c], v), f"vertices share color {c}"
        first_owner[c] = v
    by_color: dict[int, list] = {}
    for e, c in assign.items():
        by_color.setdefault(c, []).append(e)
    for v, c in sorted(mapping.items()):
        hits = by_color.get(c, [])
        if len(hits) != 1:
            return "A5", (v, c), f"color {c} sits on {len(hits)} edges, not one"
        if v not in hits[0]:
            return "A5", (v, c), f"color {c} sits on {hits[0]}, not incident to {v}"
    return None


# ---------------------------------------------------------------------------
# induction replay


def _all_pair_paths(
    sub: Graph, assign: Mapping[tuple[int, int], int], verts: list[int]
) -> dict[tuple[int, int], list[PathEntry]]:
    """All rainbow paths per vertex pair with their vertex masks, shortest first.

    One walk per source u records every rainbow path at its far end x > u.
    """
    adj = sub.adjacency()
    by_pair: dict[tuple[int, int], list] = {pair: [] for pair in combinations(verts, 2)}
    # The largest vertex is no pair's smaller end, so it needs no walk.
    for u in verts[:-1]:
        # -1 is no vertex, so the walk stops nowhere and yields every path.
        for p in _rainbow_walk(adj, assign, u, {u}, -1, every=True):
            if p[-1] > u:
                by_pair[u, p[-1]].append(p)
    return {
        pair: list(_with_masks(sorted(paths, key=lambda p: (len(p), p))))
        for pair, paths in by_pair.items()
    }


def check_induction_invariants(
    result: ColoringResult, g: Graph, guard: SizeGuard = DEFAULT_GUARD
) -> VerificationReport:
    """Replay a traced ear-by-ear coloring and verify every level.

    Checks per level: A1 (disjoint rainbow pairs), A2 (rainbow fans), A3
    (pairable quadruples), A4/A5 (the vertex color map contract).  For each
    attachment also B1 (a prior-level rainbow path between the ear's
    endpoints v1 < vq avoiding the recycled color, the one the step puts on
    the ear's edge at vq) and B2 (that color is the one the prior level's
    map reserves for v1).  The prior level has passed A4/A5, so its
    reserved color sits on exactly one prior-level edge, at v1: B2 reads the
    map and needs no scan of the prior coloring.  B1 then follows from the
    prior level's A1, since of two internally disjoint rainbow v1-vq paths
    at most one uses that single edge; it is checked anyway, as one of the
    paper's invariants.  A structure violation at its level is a step that
    colors a pair that is not an edge of g, or whose ear has no interior; a
    first ear off its level's edges; or a later ear whose edges are not
    exactly its level's, whose ends are not prior vertices or whose interior
    is not new.  So a later level that passes recolors no older edge.  Stops
    at the first violation.  Last, the trace must build the result:
    the last level spans g and colors each of its edges as
    ``result.coloring`` does (a structure violation otherwise).  Edges
    outside that level only add paths, so its A1 then holds for the result.
    """
    if result.strategy != "ear_induction":
        raise PreconditionViolated(f"a {result.strategy} coloring has no construction trace")
    if result.trace is None:
        raise PreconditionViolated("color the graph with tracing enabled first")
    if not result.trace:
        raise PreconditionViolated("the trace has no level")
    if set(result.coloring.assignment) != g.edges:
        raise InvalidInput("coloring must cover exactly the graph's edges")
    refusal = guard.refusal(g.vertex_count, g.edge_count)
    if refusal is not None:
        return skipped("induction", refusal)

    def fail(kind: str, subject: tuple, reason: str) -> VerificationReport:
        return failing("induction", [Violation(kind, subject, reason)])

    # The running level: each step folds in after its B1 and B2 checks,
    # which read the prior level.
    assign: dict[tuple[int, int], int] = {}
    mapping: dict[int, int] = {}
    for idx, step in enumerate(result.trace):
        stray = min(step.colored.keys() - g.edges, default=None)
        if stray is not None:
            return fail("structure", (idx, *stray), f"the trace colors {stray}, not an edge")
        ear, ear_edges = step.ear, set(step.ear.edges())
        if len(ear) < 3 or not (
            ear_edges <= step.colored.keys()
            if not idx
            else ear_edges == step.colored.keys()
            and set(verts).intersection(ear.vertices) == {ear.first, ear.last}
        ):
            reason = f"the ear {ear.vertices} is not a path over the level's edges"
            return fail("structure", (idx, *ear.vertices), reason)
        if idx:
            v1, vq = edge(ear.first, ear.last)
            recycled = step.colored[edge(vq, ear.vertices[-2 if ear.last == vq else 1])]
            # ``cache`` still holds the prior level's paths, none at a new vertex.
            if not any(
                all(assign[edge(a, b)] != recycled for a, b in zip(p, p[1:]))
                for p, _ in cache.get((v1, vq), ())
            ):
                return fail(
                    "B1",
                    (idx, v1, vq, recycled),
                    "no prior-level rainbow path between ear endpoints avoids the recycled color",
                )
            reserved = mapping.get(v1)
            if recycled != reserved:
                return fail(
                    "B2",
                    (idx, v1, recycled),
                    f"recycled color {recycled} is not the color {reserved} reserved for {v1}",
                )
        step.apply(assign, mapping)

        sub = Graph(g.vertex_count, frozenset(assign))
        verts = sorted({x for e in assign for x in e})
        cache = _all_pair_paths(sub, assign, verts)
        for (u, v), entries in cache.items():
            if _first_pair(entries, entries, 1 << u | 1 << v) is None:
                return fail("A1", (idx, u, v), "no two internally disjoint rainbow paths")

        for center in verts:
            only = 1 << center
            others = [x for x in verts if x != center]
            for t1, t2 in combinations(others, 2):
                if _first_pair(cache[edge(center, t1)], cache[edge(center, t2)], only) is None:
                    return fail("A2", (idx, center, t1, t2), "no rainbow fan")

        for a, b, c, d in combinations(verts, 4):
            for pair1, pair2 in (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))):
                if _first_pair(cache[pair1], cache[pair2], 0) is not None:
                    break
            else:
                return fail("A3", (idx, a, b, c, d), "no pairing with disjoint rainbow paths")

        breach = _color_map_violation(assign, mapping)
        if breach is not None:
            kind, subject, reason = breach
            return fail(kind, (idx, *subject), reason)

    final = result.coloring.assignment
    for e, c in sorted(assign.items()):
        if final.get(e) != c:
            reason = f"the trace colors {e} with {c}, the result with {final.get(e)}"
            return fail("structure", (idx, *e), reason)
    missing = sorted(set(range(g.vertex_count)).difference(verts))
    if missing:
        return fail("structure", (idx, missing[0]), f"vertex {missing[0]} is not on the last level")
    return passing("induction", [("levels_checked", len(result.trace))])


# ---------------------------------------------------------------------------
# exhaustive feasibility index for the oracle

class RainbowIndex:
    """Precomputed simple paths for testing many colorings of one graph.

    Simple paths and their internally disjoint pairings depend only on the
    graph, so they are enumerated once, by the index's own walk rather than
    the verifier's rainbow-path search.  Each pairing is then kept as a
    conflict mask over edge pairs: bit ``f*m + e`` stands for the edge pair
    e < f, and a pairing's mask holds the edge pairs of both its paths.  A
    coloring's conflict mask holds its pairs of same-colored edges, and a
    pairing is rainbow exactly when the two masks share no bit.  Intended
    for tiny graphs -- construction refuses anything past
    ``SizeGuard(10, 28)``.
    """

    def __init__(self, g: Graph):
        refusal = SizeGuard(10, 28).refusal(g.vertex_count, g.edge_count)
        if refusal is not None:
            raise PreconditionViolated(refusal)
        self.edge_list = sorted(g.edges)
        eid = {e: i for i, e in enumerate(self.edge_list)}
        adj = g.adjacency()

        self.path_edges: list[tuple[int, ...]] = []
        # Each path's interior as a vertex mask, and each pair's path ids.
        inner: list[int] = []
        gids = {pair: [] for pair in combinations(range(g.vertex_count), 2)}

        # One walk per source u records every simple path at its far end
        # x > u; ``seen`` masks the path's vertices, u included.
        def walk(u: int, cur: int, seen: int, eids: tuple[int, ...]) -> None:
            for nxt in adj[cur]:
                if not seen >> nxt & 1:
                    step = eids + (eid[edge(cur, nxt)],)
                    if nxt > u:
                        gids[u, nxt].append(len(self.path_edges))
                        self.path_edges.append(step)
                        inner.append(seen ^ 1 << u)
                    walk(u, nxt, seen | 1 << nxt, step)

        for u in range(g.vertex_count - 1):
            walk(u, u, 1 << u, ())
        self.disjoint_pairs: dict[tuple[int, int], list[tuple[int, int]]] = {
            pair: [
                (i, j) for a, i in enumerate(ids) for j in ids[a + 1 :] if not inner[i] & inner[j]
            ]
            for pair, ids in gids.items()
        }

        m = len(self.edge_list)
        path_mask = [
            sum(1 << (f * m + e) for e, f in combinations(sorted(eids), 2))
            for eids in self.path_edges
        ]
        # Fewest edge pairs first: those pairings are the likeliest rainbow.
        pair_masks = {
            pair: sorted({path_mask[i] | path_mask[j] for i, j in ij}, key=int.bit_count)
            for pair, ij in self.disjoint_pairs.items()
        }
        # Check stingiest pairs first: fewer options means faster failures.
        self._masks = sorted(pair_masks.values(), key=len)
        # Edge f's own bit, and the shift of its row of edge pairs.
        self._rows = [(1 << f, f * m) for f in range(m)]

    def feasible(self, colors: Sequence[int]) -> bool:
        """Does this edge coloring (indexed like ``edge_list``, any
        non-negative color ids) make the graph rainbow-2-connected?"""
        # ``earlier[c]`` holds the edges already seen with color c.
        conflict = 0
        earlier: dict[int, int] = {}
        for c, (bit, row) in zip(colors, self._rows, strict=True):
            same = earlier.get(c)
            if same is None:
                earlier[c] = bit
            else:
                conflict |= same << row
                earlier[c] = same | bit
        return not self.blocked(conflict)

    def blocked(self, conflict: int) -> bool:
        """Does some vertex pair have no pairing mask free of this conflict
        mask?  Adding same-colored edge pairs never frees a pairing, so a
        blocked mask stays blocked as it grows."""
        for masks in self._masks:
            for mask in masks:
                if not mask & conflict:
                    break
            else:
                return True
        return False
