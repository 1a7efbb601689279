import pytest
from hypothesis import given, settings

from rc2 import Graph
from rc2.errors import PreconditionViolated
from rc2.menger import two_fan_to_subgraph

from .common import c6_with_chord, k23, k24
from .strategies import two_connected_graphs


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
