"""Core graph types, parsing, serialization, and connectivity primitives.

Vertices are dense integer ids ``0..n-1``.  Edges are unordered pairs stored
as ``(min, max)`` tuples.  Parsed files may name vertices; names live in an
optional side table and everything downstream works on the integer ids.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import InvalidInput, PreconditionViolated

Edge = tuple[int, int]
VertexSet = frozenset[int]


def edge(u: int, v: int) -> Edge:
    """The normalized form of an undirected edge."""
    return (u, v) if u < v else (v, u)


def canonical_json(obj) -> str:
    """Deterministic JSON rendering used for every serialized artifact."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Graph:
    vertex_count: int
    edges: frozenset[Edge]
    labels: tuple[str, ...] | None = None

    @staticmethod
    def from_edges(vertex_count: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """A graph built in code; repeated edges merge and vertices may be
        isolated (the parsers refuse both)."""
        norm = set()
        for u, v in edges:
            if u == v:
                raise InvalidInput(f"self-loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise InvalidInput(f"edge ({u}, {v}) out of range for n={vertex_count}")
            norm.add(edge(u, v))
        return Graph(vertex_count, frozenset(norm))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def adjacency(self) -> dict[int, list[int]]:
        """Adjacency lists, sorted ascending for deterministic traversal.

        Built once and kept on the graph; callers must not mutate them.
        """
        return self._adjacency

    def adjacency_toward(self, target: int) -> dict[int, list[int]]:
        """Adjacency lists ordered nearest to ``target`` first: by BFS hop
        distance to ``target``, then by id.  Vertices that cannot reach
        ``target`` count as farthest, so their lists stay in id order.

        One BFS and one sort per target, kept on the graph; callers must not
        mutate the lists.
        """
        toward = self._toward.get(target)
        if toward is None:
            adj = self.adjacency()
            n = self.vertex_count
            dist = [n] * n
            dist[target] = 0
            frontier = [target]
            while frontier:
                nxt = []
                for x in frontier:
                    for y in adj[x]:
                        if dist[y] == n:
                            dist[y] = dist[x] + 1
                            nxt.append(y)
                frontier = nxt
            # The sort is stable, so equal distances keep ascending ids.
            toward = {x: [] for x in range(n)}
            for y in sorted(range(n), key=dist.__getitem__):
                for x in adj[y]:
                    toward[x].append(y)
            self._toward[target] = toward
        return toward

    # Facts kept on a graph are private cached_properties, stored in its
    # __dict__, which the frozen dataclass's equality and hash never read.
    @cached_property
    def _adjacency(self) -> dict[int, list[int]]:
        adj = {v: [] for v in range(self.vertex_count)}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for nbrs in adj.values():
            nbrs.sort()
        return adj

    @cached_property
    def _toward(self) -> dict[int, dict[int, list[int]]]:
        return {}

    @cached_property
    def _scan(self) -> frozenset[Edge] | None:
        return _lowpoint_scan(self)

    @cached_property
    def _degree_two(self) -> VertexSet:
        return frozenset(v for v, nbrs in self.adjacency().items() if len(nbrs) == 2)

    def to_json_obj(self) -> dict:
        return {"n": self.vertex_count, "edges": [list(e) for e in sorted(self.edges)]}


@dataclass(frozen=True)
class Path:
    """A sequence of distinct vertices.  Closed cycles are stored without
    repeating the first vertex; the wrap-around edge is implicit."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        if not self.vertices:
            raise InvalidInput("empty path")
        if len(set(self.vertices)) != len(self.vertices):
            raise InvalidInput(f"repeated vertex in path {self.vertices}")

    @property
    def first(self) -> int:
        return self.vertices[0]

    @property
    def last(self) -> int:
        return self.vertices[-1]

    def interior(self) -> tuple[int, ...]:
        return self.vertices[1:-1]

    def edges(self) -> list[Edge]:
        return [edge(a, b) for a, b in zip(self.vertices, self.vertices[1:])]

    def __len__(self) -> int:
        return len(self.vertices)


# ---------------------------------------------------------------------------
# parsing and serialization


def parse_edge_list(text: str) -> Graph:
    """Parse ``u v`` lines into a graph.

    Blank lines and lines starting with ``#`` are skipped.  When every token
    is a non-negative integer the tokens are used as vertex ids directly and
    the vertex count is one past the largest id.  Otherwise the whole file is
    treated as named vertices: ids are assigned by first appearance and the
    names are kept in ``Graph.labels``.  Faults are reported with their line
    number (see :func:`_checked_graph`).
    """
    rows: list[tuple[int, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise InvalidInput(f"line {lineno}: expected two vertex tokens, got {len(tokens)}")
        rows.append((lineno, tokens[0], tokens[1]))

    if all(t.isdecimal() for _, a, b in rows for t in (a, b)):
        pairs = [(lineno, int(a), int(b)) for lineno, a, b in rows]
        n = max((max(u, v) for _, u, v in pairs), default=-1) + 1
        return _checked_graph(n, pairs, None)
    ids: dict[str, int] = {}
    for _, a, b in rows:
        for t in (a, b):
            ids.setdefault(t, len(ids))
    return _checked_graph(len(ids), [(lineno, ids[a], ids[b]) for lineno, a, b in rows], tuple(ids))


def edge_list_text(g: Graph) -> str:
    """Render a graph back to ``u v`` lines, sorted, one edge per line."""
    return "".join(f"{u} {v}\n" for u, v in sorted(g.edges))


def graph_to_json(g: Graph) -> str:
    return canonical_json(g.to_json_obj())


def _checked_graph(
    n: int, rows: Iterable[tuple[int | None, int, int]], labels: tuple[str, ...] | None
) -> Graph:
    """Check a parsed graph's edges once, then build the graph.

    Rows are ``(line, u, v)``, ``line`` an edge-list line number or None.  The
    first self-loop, id outside ``0..n-1`` or repeated edge is refused, naming
    vertices by their labels when there are any; then any vertex without
    edges (no 2-connected graph has one), in O(m), so a huge ``n`` is refused
    before anything builds per-vertex structures.
    """
    name = str if labels is None else labels.__getitem__
    seen: set[Edge] = set()
    for line, u, v in rows:
        e = edge(u, v)
        if u == v:
            problem = f"self-loop at vertex {name(u)}"
        elif not (0 <= u < n and 0 <= v < n):
            problem = f"edge ({u}, {v}) out of range for n={n}"
        elif e in seen:
            problem = f"duplicate edge ({name(e[0])}, {name(e[1])})"
        else:
            seen.add(e)
            continue
        raise InvalidInput(problem if line is None else f"line {line}: {problem}")
    touched = len({x for e in seen for x in e})
    if n > touched:
        raise InvalidInput(f"isolated vertices: n={n} but the edges touch only {touched}")
    return Graph(n, frozenset(seen), labels)


def parse_json(text: str, what: str):
    """``json.loads``, with every malformed input reported as InvalidInput."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers past Python's digit
        # limit; RecursionError, arrays or objects nested too deep.
        raise InvalidInput(f"bad {what}: {exc}") from exc


def check_int_pairs(items: list, what: str) -> None:
    """Refuse the first of a JSON list's entries that is not a pair of ints,
    as ``bad {what} entry``."""
    for item in items:
        # type() and not isinstance(): JSON true/false are bools, and bool is an int.
        if not (isinstance(item, list) and len(item) == 2 and all(type(x) is int for x in item)):
            raise InvalidInput(f"bad {what} entry {item!r}")


def graph_from_json(text: str) -> Graph:
    obj = parse_json(text, "JSON")
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise InvalidInput('graph JSON needs keys "n" and "edges"')
    n = obj["n"]
    raw = obj["edges"]
    if type(n) is not int or n < 0 or not isinstance(raw, list):
        raise InvalidInput("graph JSON has malformed fields")
    check_int_pairs(raw, "edge")
    return _checked_graph(n, [(None, u, v) for u, v in raw], None)


# ---------------------------------------------------------------------------
# connectivity


def _lowpoint_scan(g: Graph) -> frozenset[Edge] | None:
    """The carving of g when g is 2-connected, and None otherwise.

    One iterative lowpoint search over ``g.adjacency()`` from vertex 0,
    which stops at the first cut vertex.  As each vertex w leaves the stack,
    the Khuller-Vishkin carving gains the tree edge to w's parent p and,
    when p is not the root and the kept back edges from w's subtree reach no
    vertex above p, the first back edge met that attains low(w).  The
    carving lemma is in ``rc2.minimalize``.
    """
    n = g.vertex_count
    if n < 3:
        return None
    adj = g.adjacency()
    disc = [-1] * n
    low = [0] * n
    # low_edge[v] is the back edge from v's subtree that attains low[v], and
    # reach[v] the smallest discovery time that v or an edge of K from v's
    # subtree reaches.
    low_edge: list[Edge] = [(0, 0)] * n
    reach = [0] * n
    carving: list[Edge] = []
    disc[0] = 0
    timer = 1
    stack: list[tuple[int, int, Iterator[int]]] = [(0, -1, iter(adj[0]))]
    while stack:
        v, parent, nbrs = stack[-1]
        advanced = False
        for w in nbrs:
            if disc[w] < 0:
                disc[w] = low[w] = reach[w] = timer
                timer += 1
                stack.append((w, v, iter(adj[w])))
                advanced = True
                break
            if w != parent and disc[w] < low[v]:
                low[v] = disc[w]
                low_edge[v] = edge(v, w)
        if advanced:
            continue
        stack.pop()
        if parent == 0:
            # The root's first child is done.  If its subtree missed a
            # vertex, the root is a cut vertex or g is not connected;
            # otherwise the root has one child and the DFS covered g.
            carving.append((0, v))
            return frozenset(carving) if timer == n else None
        if parent > 0:
            if low[v] >= disc[parent]:
                return None
            carving.append(edge(parent, v))
            if reach[v] >= disc[parent]:
                carving.append(low_edge[v])
                reach[v] = low[v]
            if reach[v] < reach[parent]:
                reach[parent] = reach[v]
            if low[v] < low[parent]:
                low[parent] = low[v]
                low_edge[parent] = low_edge[v]
    # Vertex 0 has no neighbours.
    return None


def is_two_connected_sub(vertex_count: int, edges: Iterable[Edge]) -> bool:
    """2-connectivity of the graph on ``0..vertex_count-1`` with these edges.
    It scans a throwaway Graph, so nothing is kept."""
    return _lowpoint_scan(Graph(vertex_count, frozenset(edges))) is not None


def is_two_connected(g: Graph) -> bool:
    """True when g has at least 3 vertices, is connected, and has no cut vertex.

    The scan's result is kept on the graph, so the pipeline's layers can
    each check their precondition without repeating it.
    """
    return g._scan is not None


def record_carving(g: Graph, c: frozenset[Edge]) -> None:
    """Keep c as the carving of a g known to be 2-connected, as its scan would."""
    g.__dict__["_scan"] = c


def carving(g: Graph) -> frozenset[Edge]:
    """The edges of the Khuller-Vishkin carving of a 2-connected g: a
    2-connected spanning subgraph with at most 2n - 3 edges.

    It is read from the same kept scan result as :func:`is_two_connected`.
    """
    c = g._scan
    if c is None:
        raise PreconditionViolated("a carving needs a 2-connected graph")
    return c


def degree_two_set(g: Graph) -> VertexSet:
    """The vertices of degree 2, kept on the graph like the scan's result,
    so each layer that is driven by them reads one set."""
    return g._degree_two


def is_cycle_graph(g: Graph) -> bool:
    """True when g is exactly one simple cycle covering all its vertices.

    A 2-regular graph is one cycle exactly when it is connected, which for
    n >= 3 is the same as 2-connected; the kept scan answers that.
    """
    return (
        g.edge_count == g.vertex_count
        and len(degree_two_set(g)) == g.vertex_count
        and is_two_connected(g)
    )


def components(adj: dict[int, list[int]], members: set[int]) -> list[frozenset[int]]:
    """Connected components of the subgraph induced by ``members``, by
    smallest vertex."""
    comps: list[frozenset[int]] = []
    seen: set[int] = set()
    for root in sorted(members):
        if root in seen:
            continue
        comp = {root}
        stack = [root]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in members and y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def rooted_cycle(seq: Sequence[int], start: int) -> tuple[int, ...]:
    """A closed vertex sequence rotated to begin at ``start`` and oriented
    toward the smaller of start's two neighbours."""
    seq = tuple(seq)
    i = seq.index(start)
    rot = seq[i:] + seq[:i]
    if len(rot) > 2 and rot[-1] < rot[1]:
        rot = (rot[0],) + tuple(reversed(rot[1:]))
    return rot


def normalize_cycle(seq: Sequence[int]) -> tuple[int, ...]:
    """Canonical rotation and orientation of a closed vertex sequence."""
    return rooted_cycle(seq, min(seq))


def cycle_edges(seq: Sequence[int]) -> list[Edge]:
    """Edges of a closed vertex sequence, including the wrap-around edge."""
    out = [edge(a, b) for a, b in zip(seq, seq[1:])]
    out.append(edge(seq[-1], seq[0]))
    return out


def find_cycle(g: Graph) -> tuple[int, ...]:
    """The first cycle closed by the walk from vertex 0 that steps to the
    smallest neighbour other than the one it came from, in canonical form.

    The domain is a graph in which every vertex the walk reaches has a
    second neighbour, such as any 2-connected graph.  At a vertex with none,
    vertex 0 of an edgeless graph included, PreconditionViolated is raised.
    """
    adj = g.adjacency()
    pos: dict[int, int] = {}  # the walk so far, in order, with each vertex's place
    last, v = -1, 0
    while v not in pos:
        pos[v] = len(pos)
        nbrs = adj.get(v, ())
        i = 1 if nbrs and nbrs[0] == last else 0  # the lists are sorted
        if i == len(nbrs):
            raise PreconditionViolated(f"the walk for a cycle is stuck at vertex {v}")
        last, v = v, nbrs[i]
    return normalize_cycle(list(pos)[pos[v]:])


def arcs_between(cycle: Sequence[int], a: int, b: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two arcs of a closed vertex sequence between distinct vertices a
    and b, each returned as a path from a to b (endpoints included)."""
    if a == b:
        raise InvalidInput("arc endpoints must differ")
    n = len(cycle)
    ia, ib = cycle.index(a), cycle.index(b)
    fwd = tuple(cycle[(ia + t) % n] for t in range(((ib - ia) % n) + 1))
    bwd = tuple(cycle[(ia - t) % n] for t in range(((ia - ib) % n) + 1))
    return fwd, bwd
