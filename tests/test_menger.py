from unittest import mock

import pytest
from hypothesis import given, settings

from rc2 import Graph, build_ear_decomposition, menger
from rc2.errors import PreconditionViolated
from rc2.generators import complete_bipartite_graph
from rc2.graphs import Path, degree_two_set
from rc2.menger import _two_unit_flows, two_fan_to_subgraph

from .common import c6_with_chord, four_hub, k23, k24
from .strategies import minimal_noncycle_graphs, two_connected_graphs


def assert_valid_fan(g, anchors, v0, p, q):
    """Both paths start at v0, end at distinct anchors, share only v0, and
    keep their interiors off the anchor set."""
    assert p.first == v0 and q.first == v0
    assert p.last in anchors and q.last in anchors
    assert p.last < q.last
    assert set(p.vertices) & set(q.vertices) == {v0}
    assert not (set(p.vertices[1:-1]) & anchors)
    assert not (set(q.vertices[1:-1]) & anchors)
    for e in list(p.edges()) + list(q.edges()):
        assert e in g.edges


class TestTwoFan:
    def test_k23_fan_lands_on_both_sides(self):
        g = k23()
        anchors = frozenset({0, 2, 1, 3})
        p, q = two_fan_to_subgraph(g, anchors, 4)
        assert p.vertices == (4, 0)
        assert q.vertices == (4, 1)

    def test_k24_fan(self):
        g = k24()
        anchors = frozenset({0, 2, 1, 3, 4})
        p, q = two_fan_to_subgraph(g, anchors, 5)
        assert_valid_fan(g, anchors, 5, p, q)

    def test_transit_through_uncovered_vertex(self):
        """The fan may route through vertices outside the anchor set."""
        g = c6_with_chord()
        anchors = frozenset({0, 3})
        p, q = two_fan_to_subgraph(g, anchors, 5)
        assert_valid_fan(g, anchors, 5, p, q)
        assert p.vertices == (5, 0)
        assert q.vertices == (5, 4, 3)

    def test_v0_in_anchors_rejected(self):
        with pytest.raises(PreconditionViolated, match="fan source 4 lies in the anchor set"):
            two_fan_to_subgraph(k23(), frozenset({0, 1, 4}), 4)

    def test_needs_two_anchors(self):
        with pytest.raises(PreconditionViolated, match="need at least two anchor vertices"):
            two_fan_to_subgraph(k23(), frozenset({0}), 4)

    def test_out_of_range_vertex(self):
        with pytest.raises(PreconditionViolated, match="vertex 9 out of range"):
            two_fan_to_subgraph(k23(), frozenset({0, 1}), 9)

    def test_no_fan_when_cut_vertex_blocks(self):
        # bowtie: vertex 2 separates v0=4 from the anchors
        g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        with pytest.raises(PreconditionViolated, match="no two disjoint paths"):
            two_fan_to_subgraph(g, frozenset({0, 1}), 4)

    @given(two_connected_graphs())
    @settings(max_examples=60)
    def test_fan_valid_on_random_graphs(self, g):
        """In a 2-connected graph a two-fan exists from any vertex to any
        anchor pair, and the returned paths are a valid fan."""
        anchors = frozenset({0, 1})
        for v0 in range(2, g.vertex_count):
            p, q = two_fan_to_subgraph(g, anchors, v0)
            assert_valid_fan(g, anchors, v0, p, q)

    @given(two_connected_graphs(max_n=8))
    @settings(max_examples=30)
    def test_fan_deterministic(self, g):
        anchors = frozenset({0, 1, 2})
        first = two_fan_to_subgraph(g, anchors, 3)
        again = two_fan_to_subgraph(g, anchors, 3)
        assert first == again


def flow_fan(g, anchors, v0):
    """The fan read off ``_two_unit_flows`` alone, or the refusal's message."""
    into = _two_unit_flows(g.adjacency(), anchors, v0)
    if into is None:
        return "no fan"
    paths = []
    for end in sorted(y for y in into if y in anchors):
        verts = [end]
        while verts[-1] != v0:
            verts.append(into[verts[-1]])
        paths.append(Path(tuple(reversed(verts))))
    return tuple(paths)


def fan_and_flow_calls(g, anchors, v0):
    """``two_fan_to_subgraph``'s fan (or "no fan") and how many times it
    called the flows."""
    with mock.patch.object(menger, "_two_unit_flows", wraps=_two_unit_flows) as flows:
        try:
            fan = two_fan_to_subgraph(g, anchors, v0)
        except PreconditionViolated as exc:
            assert "no two disjoint paths" in str(exc)
            fan = "no fan"
    return fan, flows.call_count


def decomposition_anchor_sets(g):
    """The covered set before each ear of g's decomposition, and the
    vertices of the ear grown from it."""
    dec = build_ear_decomposition(g)
    covered = set(dec.base_cycle.vertices)
    for ear in dec.ears:
        yield frozenset(covered), ear
        covered.update(ear.vertices)


class TestChainWalk:
    """A source of degree 2 whose chain runs straight to two distinct
    anchors gets its fan from the walk; the walk's fan is the flows'."""

    @given(two_connected_graphs(max_n=12))
    @settings(max_examples=60)
    def test_walk_equals_the_flows_with_branch_anchors(self, g):
        """With every vertex of degree 3 or more an anchor, each chain runs
        from one branch vertex to another, so the walk answers every
        degree-2 source."""
        d = degree_two_set(g)
        anchors = frozenset(range(g.vertex_count)) - d
        if len(anchors) < 2:
            return  # a cycle has no branch vertex
        for v0 in sorted(d):
            fan, flow_calls = fan_and_flow_calls(g, anchors, v0)
            assert fan == flow_fan(g, anchors, v0)
            assert flow_calls == 0

    @given(two_connected_graphs(max_n=12))
    @settings(max_examples=60)
    def test_walk_equals_the_flows_with_two_anchors(self, g):
        anchors = frozenset({0, 1})
        for v0 in sorted(degree_two_set(g) - anchors):
            fan, _ = fan_and_flow_calls(g, anchors, v0)
            assert fan == flow_fan(g, anchors, v0)

    @given(minimal_noncycle_graphs())
    @settings(max_examples=60)
    def test_walk_equals_the_flows_on_decomposition_anchor_sets(self, g):
        """Every degree-2 source outside each covered set met while the
        decomposition is built.  Before the last ear, every uncovered vertex
        lies in its interior and has degree 2, so those sources always take
        the walk."""
        d = degree_two_set(g)
        walked = 0
        for anchors, _ in decomposition_anchor_sets(g):
            for v0 in sorted(d - anchors):
                fan, flow_calls = fan_and_flow_calls(g, anchors, v0)
                assert fan == flow_fan(g, anchors, v0)
                walked += flow_calls == 0
        assert walked > 0

    def test_k2k_ears_all_take_the_walk(self):
        g = complete_bipartite_graph(2, 12)
        for anchors, ear in decomposition_anchor_sets(g):
            fan, flow_calls = fan_and_flow_calls(g, anchors, ear.interior()[0])
            assert flow_calls == 0
            assert fan == flow_fan(g, anchors, ear.interior()[0])

    def test_walk_that_stops_at_an_uncovered_branch_vertex_falls_back(self):
        """From 8 the chain reaches anchor 2 one way and branch vertex 3,
        uncovered, the other; the flows route on through 3."""
        g = four_hub()
        anchors = frozenset({0, 4, 2, 5})
        fan, flow_calls = fan_and_flow_calls(g, anchors, 8)
        assert flow_calls == 1
        assert fan == (Path((8, 3, 6, 1, 0)), Path((8, 2)))
        assert fan == flow_fan(g, anchors, 8)

    def test_walks_that_end_at_the_same_anchor_fall_back_and_fail(self):
        """Two triangles sharing vertex 2: from 4 both walks end at 2, and
        the flows find no fan."""
        g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        fan, flow_calls = fan_and_flow_calls(g, frozenset({0, 2}), 4)
        assert (fan, flow_calls) == ("no fan", 1)
        with pytest.raises(PreconditionViolated, match="no two disjoint paths from 4"):
            two_fan_to_subgraph(g, frozenset({0, 2}), 4)
