"""Checking colorings against the rainbow-2-connection property.

A path is rainbow when its edges all have distinct colors.  The headline
check, :func:`is_rainbow_two_connected`, confirms that every vertex pair is
joined by two rainbow paths sharing only their endpoints.  The checks are
exhaustive path enumerations, so a :class:`~rc2.reports.SizeGuard` refuses
inputs that would blow up; a refused check comes back as a skipped report,
never as a silent pass.  The headline check searches only the pairs that no
earlier witness's cycle joins by two rainbow arcs.  Every witness is
checked apart from the search: two arcs of an accepted witness's cycle by
the color parity of each arc, in a fixed number of steps, and any other
witness by :func:`pair_witness_error`.

:func:`check_induction_invariants` replays a traced construction level by
level and confirms the stronger inductive properties (tags A1-A5, B1, B2 in
:mod:`rc2.reports`) that justify recycling a color at each ear attachment.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .coloring import ColoringResult, EdgeColoring, trace_levels
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


# A1 reads paths through a finder: ``find(u, v, banned)`` yields the rainbow
# u-v paths avoiding the ``banned`` vertices, in a fixed order.
Finder = Callable[[int, int, frozenset[int]], Iterable[tuple[int, ...]]]


def _a1_pair(find: Finder, u: int, v: int):
    """A1: the first u-v path that has a partner meeting it only at u and v,
    with its first partner."""
    for p in find(u, v, frozenset()):
        for q in find(u, v, frozenset(p[1:-1])):
            # The single edge uv avoids its own empty interior.
            if q != p:
                return p, q
    return None


def _mask(vertices: Iterable[int]) -> int:
    """The vertices as one int, bit x standing for vertex x."""
    return sum(map((1).__lshift__, vertices))


# A2 and A3 read lists of paths, each with its vertex mask, and return the
# first witness in the order the paths are given.
PathEntry = tuple[tuple[int, ...], int]


def _with_masks(paths: Iterable[tuple[int, ...]]) -> Iterator[PathEntry]:
    return ((p, _mask(p)) for p in paths)


def _a2_fan(entries1: Iterable[PathEntry], entries2: Sequence[PathEntry], center: int):
    """A2: the first pair across two lists meeting only at ``center``."""
    only = 1 << center
    for p, pm in entries1:
        for q, qm in entries2:
            if pm & qm == only:
                return p, q
    return None


def _a3_linkage(paths_of: Callable[[tuple[int, int]], Sequence[PathEntry]], quad: Sequence[int]):
    """A3: the first of the three pairings of a sorted quadruple, with the
    first vertex-disjoint pair of paths joining it."""
    a, b, c, d = quad
    for pair1, pair2 in (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))):
        entries2 = paths_of(pair2)
        for p, pm in paths_of(pair1):
            for q, qm in entries2:
                if not pm & qm:
                    return pair1, pair2, p, q
    return None


class _CycleStore:
    """The cycles closed by the witnesses of one verification call.

    A witness (p, q) closes the cycle p + reversed(q), and the two arcs
    between any x and y on it are a witness for (x, y) when both are
    rainbow.  A cycle is kept as its doubled vertex ring (an arc is one
    slice), ``pos`` (vertex -> position) and ``reach``: the arc from
    position i stays rainbow for ``reach[i]`` edges.
    """

    def __init__(self, assign: Mapping[tuple[int, int], int]):
        self._assign = assign
        # vertex -> the cycles through it, oldest first.
        self._by_vertex: dict[int, list[tuple[tuple[int, ...], dict[int, int], list[int]]]] = {}

    def add(self, p: tuple[int, ...], q: tuple[int, ...]) -> None:
        ring = p + q[-2:0:-1]
        size = len(ring)
        colors = [self._assign[edge(a, b)] for a, b in zip(ring, ring[1:] + ring[:1])]
        # One sliding window over the doubled color sequence: the window
        # [start, end) is rainbow, and ``end`` never moves back.
        reach: list[int] = []
        window: set[int] = set()
        end = 0
        for start in range(size):
            while end < start + size and colors[end % size] not in window:
                window.add(colors[end % size])
                end += 1
            reach.append(end - start)
            window.discard(colors[start])
        entry = (ring + ring, {x: i for i, x in enumerate(ring)}, reach)
        for x in ring:
            self._by_vertex.setdefault(x, []).append(entry)

    def witness(self, u: int, v: int) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """Two rainbow u-v arcs of the newest stored cycle that has them, or
        None."""
        at_u, at_v = self._by_vertex.get(u, ()), self._by_vertex.get(v, ())
        for ring, pos, reach in reversed(at_u if len(at_u) <= len(at_v) else at_v):
            i, j = pos.get(u), pos.get(v)
            if i is None or j is None:
                continue
            # The arc from u on to v has d edges; the one from v on to u the rest.
            size = len(reach)
            d = (j - i) % size
            if reach[i] >= d and reach[j] >= size - d:
                return ring[i : i + d + 1], ring[j : j + size - d + 1][::-1]
        return None


def has_two_internally_disjoint_rainbow_paths(
    g: Graph, coloring: EdgeColoring, u: int, v: int, cycles: _CycleStore | None = None
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Two rainbow u-v paths that share only their endpoints, or None.

    The witness is the first rainbow path, in the nearest-to-v order of
    :func:`enumerate_rainbow_paths`, that has such a partner, with its first
    partner in that order.  Each path's partner is sought by one search that
    bans the path's interior, so the paths are never stored and compared.

    With a store of ``cycles``, a pair that two rainbow arcs of a stored
    cycle join gets those arcs and runs no search, and a searched witness
    adds its cycle.  Without one, every call searches.
    """
    if cycles is not None:
        reused = cycles.witness(u, v)
        if reused is not None:
            return reused

    def find(a: int, b: int, banned: frozenset[int]) -> Iterator[tuple[int, ...]]:
        return enumerate_rainbow_paths(g, coloring, a, b, forbidden_vertices=banned)

    witness = _a1_pair(find, u, v)
    if cycles is not None and witness is not None:
        cycles.add(*witness)
    return witness


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


class _CheckedCycles:
    """The cycles of the witnesses one verification call has accepted.

    A witness (p, q) whose ring p + q[-2:0:-1] is a kept cycle, rotated, is
    two arcs of it.  A cycle is kept rotated to start at its smallest vertex,
    with the parity prefix masks ``x`` of its doubled ring: ``x[k]`` XORs one
    bit per color over the first k edges.  The d edges from position i are
    rainbow exactly when ``x[i + d] ^ x[i]`` has d bits set: it keeps the
    colors used an odd number of times, at most d of them, and d only when
    each color occurs once.  Reads only witnesses and the coloring, never a
    :class:`_CycleStore`.
    """

    def __init__(self, coloring: EdgeColoring):
        self._coloring = coloring
        # color -> its bit, numbered densely in order of first sight.
        self._bits: dict[int, int] = {}
        self._masks: dict[tuple[int, ...], list[int]] = {}

    def error(self, u: int, v: int, witness) -> str | None:
        """:func:`pair_witness_error` of ``witness``, which two arcs of a
        kept cycle pass in a fixed number of steps."""
        key = None
        if isinstance(witness, tuple) and len(witness) == 2:
            p, q = witness
            if (
                isinstance(p, tuple)
                and isinstance(q, tuple)
                and p[:1] == q[:1] == (u,)
                and p[-1:] == q[-1:] == (v,)
            ):
                ring = p + q[-2:0:-1]
                start = ring.index(min(ring))
                key = ring[start:] + ring[:start]
                x = self._masks.get(key)
                if x is not None:
                    # p is the arc of d edges from u's position i, q the rest.
                    size, d = len(key), len(p) - 1
                    i = -start % size
                    arc_p, arc_q = x[i + d] ^ x[i], x[i + size] ^ x[i + d]
                    if arc_p.bit_count() == d and arc_q.bit_count() == size - d:
                        return None
        error = pair_witness_error(self._coloring, u, v, witness)
        if error is None:
            # The witness passed, so ``key`` is a simple cycle of colored edges.
            assign, bits, x = self._coloring.assignment, self._bits, [0]
            colors = [assign[edge(a, b)] for a, b in zip(key, key[1:] + key[:1])]
            for c in colors + colors:
                x.append(x[-1] ^ bits.setdefault(c, 1 << len(bits)))
            self._masks[key] = x
        return error


def is_rainbow_two_connected(
    g: Graph, coloring: EdgeColoring, guard: SizeGuard = DEFAULT_GUARD
) -> VerificationReport:
    """Exhaustively verify the headline property over all vertex pairs.

    Pairs are checked in order, one
    :func:`has_two_internally_disjoint_rainbow_paths` call each, sharing one
    store of witness cycles.  A pair with no witness lies on no cycle with
    two rainbow arcs, so the first failing pair is the one a search of
    every pair finds.  A witness that is two arcs of a cycle already
    accepted is checked by :class:`_CheckedCycles` with two XORs and two
    popcounts; every other witness, and one that fails that test, goes
    through :func:`pair_witness_error`.  Neither reads the search or the
    store, so a fault in either cannot produce a pass.
    """
    if set(coloring.assignment) != g.edges:
        raise InvalidInput("coloring must cover exactly the graph's edges")
    refusal = guard.refusal(g.vertex_count, g.edge_count)
    if refusal is not None:
        return skipped("A1", refusal)
    cycles, checked = _CycleStore(coloring.assignment), _CheckedCycles(coloring)
    for u, v in combinations(range(g.vertex_count), 2):
        # The store goes by position, so a stand-in taking ``*args`` still fits.
        witness = has_two_internally_disjoint_rainbow_paths(g, coloring, u, v, cycles)
        if witness is None:
            return failing(
                "A1",
                [Violation("A1", (u, v), "no two internally disjoint rainbow paths")],
            )
        error = checked.error(u, v, witness)
        if error is not None:
            return failing("A1", [Violation("A1", (u, v), f"witness rejected: {error}")])
    return passing("A1", [("pairs_checked", g.vertex_count * (g.vertex_count - 1) // 2)])


def check_fan(
    g: Graph, coloring: EdgeColoring, center: int, t1: int, t2: int
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Two rainbow paths from ``center`` to t1 and t2 sharing only the
    center, or None."""
    if len({center, t1, t2}) != 3:
        raise InvalidInput("fan check needs three distinct vertices")
    return _a2_fan(
        _with_masks(enumerate_rainbow_paths(g, coloring, center, t1)),
        list(_with_masks(enumerate_rainbow_paths(g, coloring, center, t2))),
        center,
    )


def check_linkage(g: Graph, coloring: EdgeColoring, quad: Sequence[int]) -> tuple | None:
    """Some pairing of four vertices joined by fully disjoint rainbow paths,
    as ``(pair1, pair2, p, q)``, or None.

    The three ways to split the four vertices into two pairs are tried in
    order; the first split admitting vertex-disjoint rainbow paths wins.
    """
    if len(quad) != 4 or len(set(quad)) != 4:
        raise InvalidInput("linkage check needs four distinct vertices")
    a, b, c, d = sorted(quad)
    return _a3_linkage(
        lambda pair: list(_with_masks(enumerate_rainbow_paths(g, coloring, *pair))), (a, b, c, d)
    )


def _color_map_violations(
    coloring: EdgeColoring, mapping: Mapping[int, int], prefix: tuple = ()
) -> list[Violation]:
    out: list[Violation] = []
    first_owner: dict[int, int] = {}
    for v, c in sorted(mapping.items()):
        if c in first_owner:
            out.append(
                Violation("A4", prefix + (first_owner[c], v), f"vertices share color {c}")
            )
        else:
            first_owner[c] = v
    by_color: dict[int, list] = {}
    for e, c in coloring.assignment.items():
        by_color.setdefault(c, []).append(e)
    for v, c in sorted(mapping.items()):
        hits = sorted(by_color.get(c, []))
        if len(hits) != 1:
            out.append(
                Violation("A5", prefix + (v, c), f"color {c} sits on {len(hits)} edges, not one")
            )
        elif v not in hits[0]:
            out.append(
                Violation("A5", prefix + (v, c), f"color {c} sits on {hits[0]}, not incident to {v}")
            )
    return out


def check_unique_color_map(
    coloring: EdgeColoring, mapping: Mapping[int, int]
) -> VerificationReport:
    """Injectivity plus single-use incidence of a vertex color map."""
    violations = _color_map_violations(coloring, mapping)
    if violations:
        return failing("A4/A5", violations)
    return passing("A4/A5", [("entries", len(mapping))])


# ---------------------------------------------------------------------------
# induction replay


def _all_pair_paths(
    sub: Graph, coloring: EdgeColoring, verts: list[int]
) -> dict[tuple[int, int], list[PathEntry]]:
    """All rainbow paths per vertex pair with their vertex masks, shortest first.

    One walk per source u records every rainbow path at its far end x > u.
    """
    adj = sub.adjacency()
    by_pair: dict[tuple[int, int], list] = {pair: [] for pair in combinations(verts, 2)}
    # The largest vertex is no pair's smaller end, so it needs no walk.
    for u in verts[:-1]:
        # -1 is no vertex, so the walk stops nowhere and yields every path.
        for p in _rainbow_walk(adj, coloring.assignment, u, {u}, -1, every=True):
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
    endpoints avoiding the recycled color) and B2 (the recycled color sat on
    exactly one prior-level edge, at the ear's smaller endpoint, and now
    sits on the ear's edge at its larger endpoint).  Stops at the first
    violation.
    """
    if result.strategy != "ear_induction":
        raise PreconditionViolated(f"a {result.strategy} coloring has no construction trace")
    if result.trace is None:
        raise PreconditionViolated("color the graph with tracing enabled first")
    refusal = guard.refusal(g.vertex_count, g.edge_count)
    if refusal is not None:
        return skipped("induction", refusal)

    def fail(kind: str, subject: tuple, reason: str) -> VerificationReport:
        return failing("induction", [Violation(kind, subject, reason)])

    cache = prev_level = None
    for idx, (step, level) in enumerate(zip(result.trace, trace_levels(result.trace))):
        assign = level.coloring.assignment
        if prev_level is not None:
            ear = step.ear
            v1, vq = edge(ear.first, ear.last)
            recycled = step.recycled_color
            prev_assign = prev_level.coloring.assignment
            # ``cache`` still holds the prior level's paths, none at a new vertex.
            if not any(
                all(prev_assign[edge(a, b)] != recycled for a, b in zip(p, p[1:]))
                for p, _ in cache.get((v1, vq), ())
            ):
                return fail(
                    "B1",
                    (idx, v1, vq, recycled),
                    "no prior-level rainbow path between ear endpoints avoids the recycled color",
                )
            hits = sorted(e for e, c in prev_assign.items() if c == recycled)
            if len(hits) != 1 or v1 not in hits[0]:
                return fail(
                    "B2",
                    (idx, v1, recycled),
                    f"recycled color {recycled} sits on {hits}, expected one edge at {v1}",
                )
            # extend_with_ear puts the recycled color on the ear edge at vq.
            last = edge(vq, ear.vertices[-2] if ear.last == vq else ear.vertices[1])
            if assign.get(last) != recycled:
                return fail(
                    "B2",
                    (idx, vq, recycled),
                    f"recycled color {recycled} is not on the ear's last edge {last}",
                )

        sub = Graph(g.vertex_count, frozenset(assign))
        verts = sorted({x for e in assign for x in e})
        cache = _all_pair_paths(sub, level.coloring, verts)

        def find(a: int, b: int, banned: frozenset[int]) -> Iterator[tuple[int, ...]]:
            banned_mask = _mask(banned)
            return (p for p, pm in cache[a, b] if not pm & banned_mask)

        for u, v in cache:
            if _a1_pair(find, u, v) is None:
                return fail("A1", (idx, u, v), "no two internally disjoint rainbow paths")

        for center in verts:
            others = [x for x in verts if x != center]
            for t1, t2 in combinations(others, 2):
                if _a2_fan(cache[edge(center, t1)], cache[edge(center, t2)], center) is None:
                    return fail("A2", (idx, center, t1, t2), "no rainbow fan")

        for quad in combinations(verts, 4):
            if _a3_linkage(cache.__getitem__, quad) is None:
                return fail("A3", (idx,) + quad, "no pairing with disjoint rainbow paths")

        map_violations = _color_map_violations(level.coloring, level.color_map, (idx,))
        if map_violations:
            return failing("induction", map_violations[:1])

        prev_level = level

    return passing("induction", [("levels_checked", len(result.trace))])


# ---------------------------------------------------------------------------
# exhaustive feasibility index for the brute-force oracle

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
        path_internal: list[frozenset] = []
        pair_gids: dict[tuple[int, int], list[int]] = {}

        for u, v in combinations(range(g.vertex_count), 2):
            gids: list[int] = []
            path = [u]
            visited = {u}

            def walk(cur: int) -> None:
                for nxt in adj[cur]:
                    if nxt == v:
                        seq = path + [v]
                        self.path_edges.append(
                            tuple(eid[edge(a, b)] for a, b in zip(seq, seq[1:]))
                        )
                        path_internal.append(frozenset(seq[1:-1]))
                        gids.append(len(self.path_edges) - 1)
                        continue
                    if nxt in visited:
                        continue
                    visited.add(nxt)
                    path.append(nxt)
                    walk(nxt)
                    path.pop()
                    visited.discard(nxt)

            walk(u)
            pair_gids[(u, v)] = gids

        self.disjoint_pairs: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for pair, gids in pair_gids.items():
            self.disjoint_pairs[pair] = [
                (i, j)
                for a, i in enumerate(gids)
                for j in gids[a + 1 :]
                if not (path_internal[i] & path_internal[j])
            ]

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
        for masks in self._masks:
            for mask in masks:
                if not mask & conflict:
                    break
            else:
                return False
        return True
