"""Ear decompositions tailored to the inductive coloring.

A decomposition here is a base cycle plus a sequence of ears (paths whose
endpoints lie on the part already built and whose interiors are new).  The
coloring downstream needs two extra properties on top of the usual shape:

  1. every ear keeps at least one degree-2 vertex of the host graph in its
     interior, and
  2. both arcs of the base cycle between the first ear's endpoints contain a
     degree-2 vertex of the host in their interior.

For a minimally 2-connected graph that is not a cycle these are always
achievable: ears are grown through uncovered degree-2 vertices, and a base
cycle violating (2) is repaired by swapping the offending arc for the ear,
which strictly grows the number of degree-2 vertices on the cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionViolated
from .graphs import (
    Graph,
    Path,
    VertexSet,
    arcs_between,
    cycle_edges,
    degree_two_set,
    find_cycle,
    is_cycle_graph,
    is_two_connected,
    normalize_cycle,
)
from .menger import two_fan_to_subgraph
from .reports import Violation, VerificationReport, failing, passing


@dataclass(frozen=True)
class EarDecomposition:
    base_cycle: Path
    ears: tuple[Path, ...]
    repair_exchanges: int = 0

    def to_json_obj(self) -> dict:
        return {
            "base": list(self.base_cycle.vertices),
            "ears": [list(e.vertices) for e in self.ears],
        }

    def covered_edges(self) -> frozenset:
        out = set(cycle_edges(self.base_cycle.vertices))
        for ear in self.ears:
            out |= set(ear.edges())
        return frozenset(out)


def ear_through_vertex(g: Graph, anchors: VertexSet | set[int], v0: int) -> Path:
    """An ear through v0: a path whose endpoints are distinct anchor
    vertices, whose interior contains v0 and avoids the anchors.  Oriented
    from the smaller endpoint."""
    p, q = two_fan_to_subgraph(g, anchors, v0)
    verts = tuple(reversed(p.vertices)) + q.vertices[1:]
    return Path(verts)


def exchange_bad_arc(
    cycle: tuple[int, ...], ear: Path, degree_two: VertexSet
) -> tuple[int, ...] | None:
    """Repair a base cycle whose arc between the ear endpoints misses
    every degree-2 vertex.

    Returns the replacement cycle (the surviving arc plus the reversed ear
    interior), or None when both arcs already contain a degree-2 vertex in
    their interior and no exchange is needed.
    """
    a, b = ear.first, ear.last
    arc1, arc2 = arcs_between(cycle, a, b)
    bad = [arc for arc in (arc1, arc2) if not (set(arc[1:-1]) & degree_two)]
    if not bad:
        return None
    keep = arc2 if bad[0] == arc1 else arc1
    return normalize_cycle(keep + tuple(reversed(ear.interior())))


def _initial_cycle_and_first_ear(g: Graph, d: VertexSet) -> tuple[tuple[int, ...], Path, int]:
    """A base cycle and first ear satisfying the arc condition (2).

    When an arc between the ear endpoints has no interior degree-2 vertex,
    the cycle is re-formed from the other arc plus the ear.  Each swap adds
    the ear's degree-2 interior to the cycle, so at most |d| swaps happen.
    """
    cycle = find_cycle(g)
    exchanges = 0
    while True:
        uncovered = sorted(d - set(cycle))
        if not uncovered:
            raise PreconditionViolated("one cycle carries every degree-2 vertex")
        ear = ear_through_vertex(g, frozenset(cycle), uncovered[0])
        repaired = exchange_bad_arc(cycle, ear, d)
        if repaired is None:
            return cycle, ear, exchanges
        if exchanges > len(d):
            raise PreconditionViolated("arc repair failed to converge")
        cycle = repaired
        exchanges += 1


def build_ear_decomposition(g: Graph) -> EarDecomposition:
    """Decompose a minimally 2-connected non-cycle graph.

    Ears are always grown through the smallest uncovered degree-2 vertex,
    which keeps the result deterministic and gives every ear a degree-2
    interior vertex.  Inputs where that strategy cannot exhaust the graph
    are rejected as not minimally 2-connected.
    """
    if not is_two_connected(g):
        raise PreconditionViolated("need a 2-connected input")
    if is_cycle_graph(g):
        raise PreconditionViolated("a cycle decomposes into just itself")
    d = degree_two_set(g)
    if not d:
        raise PreconditionViolated("a minimally 2-connected non-cycle has degree-2 vertices")

    cycle, first_ear, exchanges = _initial_cycle_and_first_ear(g, d)
    covered = set(cycle) | set(first_ear.vertices)
    ears = [first_ear]
    # Covering only grows, so each ear starts at the smallest degree-2 vertex
    # still uncovered when it is grown.
    for v0 in sorted(d):
        if v0 not in covered:
            ears.append(ear_through_vertex(g, covered, v0))
            covered.update(ears[-1].vertices)
    # Every ear edge touches a new interior vertex, so no edge is counted
    # twice; and covering every edge covers every vertex.
    if len(cycle) + sum(len(e) - 1 for e in ears) != g.edge_count:
        raise PreconditionViolated("ears through degree-2 vertices did not exhaust the graph")
    return EarDecomposition(Path(cycle), tuple(ears), exchanges)


def check_ear_conditions(dec: EarDecomposition, g: Graph) -> VerificationReport:
    """Validate a decomposition against the two coloring preconditions.

    Shape problems (edges not in the graph, interiors touching covered
    vertices, wrong coverage) raise PreconditionViolated; condition
    failures come back as report violations.
    """
    base = dec.base_cycle.vertices
    if len(base) < 3:
        raise PreconditionViolated("base cycle needs at least 3 vertices")
    for e in cycle_edges(base):
        if e not in g.edges:
            raise PreconditionViolated(f"base cycle uses missing edge {e}")
    if not dec.ears:
        raise PreconditionViolated("decomposition has no ears")

    covered = set(base)
    for idx, ear in enumerate(dec.ears):
        v = ear.vertices
        if len(v) < 2:
            raise PreconditionViolated(f"ear {idx} is a single vertex")
        if v[0] not in covered or v[-1] not in covered:
            raise PreconditionViolated(f"ear {idx} endpoints must already be covered")
        for x in ear.interior():
            if x in covered:
                raise PreconditionViolated(f"ear {idx} interior revisits vertex {x}")
        for e in ear.edges():
            if e not in g.edges:
                raise PreconditionViolated(f"ear {idx} uses missing edge {e}")
        covered |= set(v)
    if covered != set(range(g.vertex_count)) or dec.covered_edges() != g.edges:
        raise PreconditionViolated("decomposition does not reconstruct the graph")

    d = degree_two_set(g)
    violations: list[Violation] = []
    for idx, ear in enumerate(dec.ears):
        if not (set(ear.interior()) & d):
            violations.append(
                Violation(
                    "ear-missing-degree-two",
                    ear.vertices,
                    f"ear {idx} has no degree-2 vertex in its interior",
                )
            )
    first = dec.ears[0]
    for arc in arcs_between(base, first.first, first.last):
        if not (set(arc[1:-1]) & d):
            violations.append(
                Violation(
                    "arc-missing-degree-two",
                    arc,
                    "base-cycle arc between the first ear's endpoints has no degree-2 vertex",
                )
            )
    if violations:
        return failing("ear-conditions", violations)
    return passing(
        "ear-conditions",
        [("ears", len(dec.ears)), ("repair_exchanges", dec.repair_exchanges)],
    )
