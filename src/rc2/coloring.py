"""Edge colorings that make every vertex pair rainbow-2-connected.

The entry point is :func:`color_rc2`.  Cycles get all-distinct colors (n of
them, which is optimal).  Everything else is first thinned to a minimally
2-connected spanning subgraph and colored with at most n-1 colors, either by
a direct scheme when the thinned graph is a Hamiltonian cycle (the original
then has a chord) or by induction over an ear decomposition.  Edges outside
the thinned subgraph reuse color 0: extra edges only add paths, so the
verified pairs survive.  A result that pads edges that way keeps the edges
its scheme colored as its support, which the verifier searches first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import InvalidInput, PreconditionViolated
from .ears import EarDecomposition, build_ear_decomposition
from .graphs import (
    Edge,
    Graph,
    Path,
    VertexSet,
    check_int_pairs,
    cycle_edges,
    degree_two_set,
    edge,
    find_cycle,
    is_cycle_graph,
    is_two_connected,
    rooted_cycle,
)
from .minimalize import spanning_minimally_two_connected


@dataclass
class EdgeColoring:
    """An edge -> color assignment with colors packed as 0..k-1."""

    assignment: dict[Edge, int]
    color_count: int

    @staticmethod
    def from_assignment(assignment: Mapping[Edge, int]) -> "EdgeColoring":
        colors = set(assignment.values())
        if colors and colors != set(range(max(colors) + 1)):
            raise InvalidInput("color ids must be contiguous from 0")
        return EdgeColoring(dict(assignment), len(colors))


@dataclass(frozen=True)
class TraceStep:
    """One level of the inductive construction, as its change to the level
    before.

    ``colored`` gives colors to the level's edges (after the first level,
    exactly the ear's, with the recycled color at its larger end); a level's
    subgraph is every edge colored so far, and its vertices are their
    endpoints.  ``mapped`` adds or overrides vertex color map entries.  The
    induction replay refuses a later ear that does not join two prior
    vertices through new ones, so every edge of a level that passes touches
    a new vertex, and none is recolored.  Folding the steps in order with
    :meth:`apply` gives each level; the construction and the induction
    replay each keep one running level that way.
    """

    ear: Path
    colored: dict[Edge, int]
    mapped: dict[int, int]

    def apply(self, assignment: dict[Edge, int], mapping: dict[int, int]) -> None:
        """Fold this level into a coloring and a vertex color map, in place."""
        assignment.update(self.colored)
        mapping.update(self.mapped)


def _step_text(step: TraceStep) -> str:
    """One trace level as canonical JSON text: keys in sorted order, and
    ``mapped`` keys sorted as the strings they become."""
    colored = ",".join(f"[{u},{v},{c}]" for (u, v), c in sorted(step.colored.items()))
    ear = ",".join(map(str, step.ear.vertices))
    mapped = ",".join(f'"{x}":{c}' for x, c in sorted((str(x), c) for x, c in step.mapped.items()))
    return f'{{"colored":[{colored}],"ear":[{ear}],"mapped":{{{mapped}}}}}'


@dataclass
class ColoringResult:
    """A coloring with the scheme that made it.

    ``support`` is the edge set the scheme colored, kept by
    :func:`color_rc2` when it gives the remaining edges color 0: the cycle
    plus its chord, or the minimally 2-connected subgraph.  It is None when
    the scheme colored every edge (a cycle, or an input that is already
    minimal).  The paper's theorem holds on the support by itself, so the
    verifier searches it first.
    """

    coloring: EdgeColoring
    strategy: str
    trace: tuple[TraceStep, ...] | None = None
    support: frozenset[Edge] | None = None

    def to_json_text(self, include_trace: bool = False) -> str:
        """The result as canonical JSON text (sorted keys, no spaces).

        The support, when set, is a sorted list of ``[u, v]`` pairs.  The
        trace, when asked for and present, holds one object per level:
        its :class:`TraceStep`, with ``colored`` as sorted ``[u, v, c]``
        triples and string keys in ``mapped``.  Folding the levels in order,
        as :meth:`TraceStep.apply` folds the steps, gives each level.
        """
        assign = self.coloring.assignment
        edges = ",".join(
            f'{{"color":{assign[e]},"u":{e[0]},"v":{e[1]}}}' for e in sorted(assign)
        )
        head = (
            f'{{"colors":{self.coloring.color_count},"edges":[{edges}],'
            f'"strategy":{json.dumps(self.strategy)}'
        )
        if self.support is not None:
            pairs = ",".join(f"[{u},{v}]" for u, v in sorted(self.support))
            head += f',"support":[{pairs}]'
        if include_trace and self.trace is not None:
            return head + ',"trace":[' + ",".join(map(_step_text, self.trace)) + "]}"
        return head + "}"

    def to_json_obj(self, include_trace: bool = False) -> dict:
        return json.loads(self.to_json_text(include_trace))


def coloring_from_json_obj(obj) -> EdgeColoring:
    """Read a coloring back from its JSON form.

    Color ids are renumbered densely by ascending original id; renaming
    colors never changes which paths are rainbow.
    """
    if not isinstance(obj, dict) or not isinstance(obj.get("edges"), list):
        raise InvalidInput('coloring JSON needs an "edges" list')
    raw: dict[Edge, int] = {}
    for item in obj["edges"]:
        # type() and not isinstance(): JSON true/false are bools, and bool is an int.
        if not (isinstance(item, dict) and all(type(item.get(k)) is int for k in ("u", "v", "color"))):
            raise InvalidInput(f"bad colored-edge entry {item!r}")
        e = edge(item["u"], item["v"])
        if e in raw:
            raise InvalidInput(f"edge {e} colored twice")
        raw[e] = item["color"]
    rank = {c: i for i, c in enumerate(sorted(set(raw.values())))}
    return EdgeColoring.from_assignment({e: rank[c] for e, c in raw.items()})


def support_from_json_obj(obj: dict) -> frozenset[Edge] | None:
    """The optional ``support`` edge list of a coloring's JSON form, or None.

    Only the entries' form is checked here: each is a pair of ints.
    :func:`~rc2.verify.is_rainbow_two_connected` refuses a pair that is not
    an edge of the graph, a self-loop among them.
    """
    if "support" not in obj:
        return None
    raw = obj["support"]
    if not isinstance(raw, list):
        raise InvalidInput('the coloring\'s "support" must be a list of edges')
    check_int_pairs(raw, "support")
    return frozenset(edge(u, v) for u, v in raw)


# ---------------------------------------------------------------------------
# the three coloring schemes


def color_cycle(g: Graph) -> ColoringResult:
    """Every edge its own color.  For a cycle nothing smaller works: the two
    paths between a vertex pair jointly use all n edges, so all n colors."""
    if not is_cycle_graph(g):
        raise PreconditionViolated("color_cycle needs a cycle graph")
    assignment = {e: i for i, e in enumerate(cycle_edges(find_cycle(g)))}
    return ColoringResult(EdgeColoring.from_assignment(assignment), "cycle")


def color_hamiltonian_with_chord(g: Graph, cycle: Sequence[int], chord: Edge) -> ColoringResult:
    """Color a graph with a spanning cycle plus at least one chord.

    Two color classes of size two sit on the cycle in a crossing pattern
    around the chord endpoints; every other cycle edge and the chord itself
    get fresh colors.  Total n-1 colors.  Other edges are left uncolored:
    :func:`color_rc2` gives them color 0.
    """
    n = g.vertex_count
    cyc = tuple(cycle)
    if len(cyc) != n or set(cyc) != set(range(n)):
        raise PreconditionViolated("cycle must visit every vertex exactly once")
    c_edges = cycle_edges(cyc)
    if any(e not in g.edges for e in c_edges):
        raise PreconditionViolated("cycle uses an edge not in the graph")
    chord = edge(*chord)
    if chord not in g.edges:
        raise PreconditionViolated(f"chord {chord} is not an edge")
    if chord in c_edges:
        raise PreconditionViolated(f"chord {chord} lies on the cycle")

    rot = rooted_cycle(cyc, chord[0])
    j = rot.index(chord[1]) + 1
    assert 3 <= j <= n - 1

    def cyc_edge(t: int) -> Edge:
        return edge(rot[t - 1], rot[t % n])

    assignment = {cyc_edge(1): 0, cyc_edge(j): 0, cyc_edge(n): 1, cyc_edge(j - 1): 1}
    fresh = 2
    for t in range(2, n):
        if t in (j - 1, j):
            continue
        assignment[cyc_edge(t)] = fresh
        fresh += 1
    assignment[chord] = fresh
    result = EdgeColoring.from_assignment(assignment)
    assert result.color_count == n - 1
    return ColoringResult(result, "hamiltonian_chord")


def _map_stretch(
    mapping: dict[int, int],
    order: Sequence[int],
    lo: int,
    hi: int,
    offset: int,
    degree_two: VertexSet,
    where: str,
) -> None:
    """Map the branch vertices on 1-based positions lo..hi of ``order``.

    This is the ear induction's one stretch rule.  Each stretch holds a
    degree-2 vertex, and the first one is its skip; a stretch without one
    fails the decomposition conditions and raises, naming ``where``.  The
    vertex at position j gets color offset + j - 1 before the skip and
    offset + j - 2 after it, so the colors stay injective and each names the
    edge on one side of its vertex.  Degree-2 vertices get no entry.
    """
    skip = next((j for j in range(lo, hi + 1) if order[j - 1] in degree_two), None)
    if skip is None:
        raise PreconditionViolated(
            f"no degree-2 vertex on the {where} (positions {lo}..{hi}) in {tuple(order)}"
        )
    for j in range(lo, hi + 1):
        if order[j - 1] not in degree_two:
            mapping[order[j - 1]] = offset + j - (1 if j < skip else 2)


def color_base_subgraph(dec: EarDecomposition, g: Graph) -> TraceStep:
    """The first level: the base cycle plus first ear, and its vertex color map.

    The working order w_1..w_L lists the base cycle from the first ear's
    smaller endpoint w_1, then the ear's interior; positions are 1-based, the
    cycle has length s and the ear's other endpoint sits at position p.  The
    consecutive edges take colors by position; the cycle-closing edge
    doubles the color of the ear's closing edge, and the edge leaving w_1
    into the ear doubles the color at position p.  The vertex map assigns
    each branch vertex the color of a neighboring edge, skipping the first
    degree-2 position of each stretch (first arc, second arc, ear interior)
    so the doubled colors stay out of the map.  The stretches are mapped
    before any edge is read, so a stretch without a degree-2 vertex is
    refused first.
    """
    d = degree_two_set(g)
    first = dec.ears[0]
    rot = rooted_cycle(dec.base_cycle.vertices, first.first)
    order = rot + first.interior()
    s = len(rot)
    total = len(order)
    p = rot.index(first.last) + 1
    mapping: dict[int, int] = {}
    _map_stretch(mapping, order, 1, p, 0, d, "first arc")
    _map_stretch(mapping, order, p + 1, s, 0, d, "second arc")
    _map_stretch(mapping, order, s + 1, total, 0, d, "ear interior")

    def w(pos: int) -> int:
        return order[pos - 1]

    def put(assign: dict, a: int, b: int, color: int) -> None:
        e = edge(a, b)
        if e not in g.edges:
            raise PreconditionViolated(f"labeling implies missing edge {e}")
        assign[e] = color

    assign: dict[Edge, int] = {}
    for j in range(1, s):
        put(assign, w(j), w(j + 1), j - 1)
    for j in range(s + 1, total):
        put(assign, w(j), w(j + 1), j - 1)
    put(assign, w(s), w(1), s - 1)
    put(assign, w(1), w(s + 1), p - 1)
    put(assign, w(total), w(p), s - 1)

    # The contract the construction maintains: the map is injective, and each
    # mapped color sits on exactly one edge of the current subgraph, an edge
    # at its vertex.  This is what lets an ear extension recycle the color of
    # its smaller endpoint safely.
    assert len(set(mapping.values())) == len(mapping), "vertex color map must be injective"
    assert set(assign.values()) == set(range(total - 1))
    return TraceStep(first, assign, mapping)


def extend_with_ear(
    coloring: EdgeColoring,
    color_map: Mapping[int, int],
    ear: Path,
    host_degree_two: VertexSet,
) -> TraceStep:
    """The level that extends a colored subgraph by one ear.

    Consecutive ear edges get fresh colors except the last, which recycles
    the mapped color of the ear's smaller endpoint; that endpoint moves to
    the first fresh color on the vertex map, and interior vertices pick up
    the others with one degree-2 position skipped, so the map stays
    injective and single-use.  The inputs are left as they are:
    :meth:`TraceStep.apply` folds the returned level into them.
    """
    verts = ear.vertices if ear.first < ear.last else tuple(reversed(ear.vertices))
    q = len(verts)
    for endpoint in (verts[0], verts[-1]):
        if endpoint not in color_map:
            raise PreconditionViolated(f"ear endpoint {endpoint} has no mapped color")

    base = coloring.color_count
    mapped: dict[int, int] = {}
    _map_stretch(mapped, verts, 1, q - 1, base, host_degree_two, "ear")
    colored = {edge(verts[j - 1], verts[j]): base + j - 1 for j in range(1, q - 1)}
    colored[edge(verts[-2], verts[-1])] = color_map[verts[0]]
    assert not any(e in coloring.assignment for e in colored)

    # An endpoint has degree 3 or more, so the stretch remaps it.
    assert verts[0] in mapped
    return TraceStep(ear, colored, mapped)


def color_minimally_two_connected(g: Graph, with_trace: bool = False) -> ColoringResult:
    """Color a minimally 2-connected non-cycle graph with n-1 colors by
    folding its ear decomposition.  :func:`build_ear_decomposition` refuses
    any other input.  Both ear conditions are one stretch rule, kept in
    :func:`_map_stretch`: every stretch of the vertex map holds a degree-2
    vertex, and a stretch without one is refused."""
    dec = build_ear_decomposition(g)
    d = degree_two_set(g)
    coloring = EdgeColoring({}, 0)
    fmap: dict[int, int] = {}
    steps: list[TraceStep] = []

    def fold(step: TraceStep) -> None:
        step.apply(coloring.assignment, fmap)
        # A level's fresh colors come after every older color.
        coloring.color_count = max(coloring.color_count, 1 + max(step.colored.values()))
        if with_trace:
            steps.append(step)

    fold(color_base_subgraph(dec, g))
    for ear in dec.ears[1:]:
        fold(extend_with_ear(coloring, fmap, ear, d))

    assert coloring.color_count == g.vertex_count - 1
    assert len(coloring.assignment) == g.edge_count
    return ColoringResult(coloring, "ear_induction", trace=tuple(steps) if with_trace else None)


def color_rc2(g: Graph, with_trace: bool = False) -> ColoringResult:
    """Rainbow-2-connected coloring of any 2-connected graph.

    Cycles use n colors (optimal); everything else at most n-1.  When edges
    outside the scheme's colored subgraph get color 0, that subgraph's
    edges are kept as the result's ``support``.
    """
    if not is_two_connected(g):
        raise PreconditionViolated("rainbow 2-connection needs a 2-connected graph")
    if is_cycle_graph(g):
        return color_cycle(g)
    h = spanning_minimally_two_connected(g)
    dropped = g.edges - h.edges
    if is_cycle_graph(h):
        chord = min(dropped)
        result = color_hamiltonian_with_chord(g, find_cycle(h), chord)
    else:
        result = color_minimally_two_connected(h, with_trace)
    assign = result.coloring.assignment
    if len(assign) < g.edge_count:
        result.support = frozenset(assign)
    # The chord already has its color.
    for e in dropped:
        assign.setdefault(e, 0)
    return result


# ---------------------------------------------------------------------------
# rendering

_PALETTE = (
    "#e6194b", "#3cb44b", "#ffe119", "#4363d8", "#f58231", "#911eb4",
    "#46f0f0", "#f032e6", "#bcf60c", "#fabebe", "#008080", "#e6beff",
    "#9a6324", "#fffac8", "#800000", "#aaffc3",
)


def to_dot(g: Graph, coloring: EdgeColoring) -> str:
    """Graphviz rendering with one display color per color id (cycled past 16)."""
    lines = ["graph rc2 {"]
    if g.labels:
        for v, label in enumerate(g.labels):
            quoted = label.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  {v} [label="{quoted}"];')
    for u, v in sorted(coloring.assignment):
        c = coloring.assignment[(u, v)]
        lines.append(f'  {u} -- {v} [color="{_PALETTE[c % len(_PALETTE)]}", label="{c}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
