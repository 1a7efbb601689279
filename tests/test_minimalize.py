import pytest
from hypothesis import given, settings

from rc2 import Graph, spanning_minimally_two_connected
from rc2.errors import PreconditionViolated
from rc2.generators import complete_graph, wheel_graph
from rc2.graphs import find_cycle, is_cycle_graph, is_two_connected, is_two_connected_sub
from rc2.minimalize import (
    _removable,
    bollobas_structure_check,
    branch_forest_components,
    is_minimally_two_connected,
)

from .common import cycle, diamond, four_hub, k4, k23, prism, theta_grid, wheel
from .strategies import two_connected_graphs


class TestSpanningMinimal:
    def test_k4_drops_to_four_cycle(self):
        h = spanning_minimally_two_connected(k4())
        assert h.edges == frozenset({(0, 2), (0, 3), (1, 2), (1, 3)})
        assert is_cycle_graph(h)

    def test_diamond_drops_chord(self):
        h = spanning_minimally_two_connected(diamond())
        assert h.edges == frozenset({(0, 2), (0, 3), (1, 2), (1, 3)})

    def test_wheel6_drops_to_six_cycle(self):
        h = spanning_minimally_two_connected(wheel(6))
        assert is_cycle_graph(h)
        assert h.edges == frozenset(
            {(0, 4), (0, 5), (1, 2), (1, 5), (2, 3), (3, 4)}
        )

    def test_theta_grid_minimalizes_to_hamiltonian_cycle(self):
        h = spanning_minimally_two_connected(theta_grid())
        assert is_cycle_graph(h)
        assert find_cycle(h) == (0, 5, 7, 2, 1, 6, 4, 3, 8)
        assert theta_grid().edges - h.edges == {(0, 1), (2, 3), (4, 5)}

    def test_already_minimal_is_unchanged(self):
        g = k23()
        assert spanning_minimally_two_connected(g).edges == g.edges

    def test_rejects_non_two_connected(self):
        with pytest.raises(PreconditionViolated, match="input must be 2-connected"):
            spanning_minimally_two_connected(Graph.from_edges(3, [(0, 1), (1, 2)]))

    @given(two_connected_graphs())
    @settings(max_examples=60)
    def test_result_is_spanning_minimal_subgraph(self, g):
        h = spanning_minimally_two_connected(g)
        assert h.vertex_count == g.vertex_count
        assert h.edges <= g.edges
        assert is_two_connected(h)
        assert is_minimally_two_connected(h)


class TestRemovable:
    """The local Menger test against its definition: a lowpoint scan of the
    whole graph without the edge."""

    @staticmethod
    def assert_matches_definition(g):
        adj = {x: list(nbrs) for x, nbrs in g.adjacency().items()}
        for u, v in sorted(g.edges):
            expected = is_two_connected_sub(g.vertex_count, g.edges - {(u, v)})
            assert _removable(adj, u, v) == expected, (u, v)
            assert adj == g.adjacency()

    @given(two_connected_graphs(max_n=12))
    @settings(max_examples=80)
    def test_matches_definition_on_random_graphs(self, g):
        self.assert_matches_definition(g)

    def test_matches_definition_on_dense_graphs(self):
        for g in (k4(), diamond(), prism(), theta_grid(), complete_graph(7), wheel_graph(8)):
            self.assert_matches_definition(g)

    def test_matches_definition_midway_through_the_sweep(self):
        """The sweep tests edges of a graph it has already thinned."""
        g = complete_graph(8)
        edges = set(g.edges)
        for e in sorted(g.edges)[:12]:
            if is_two_connected_sub(8, edges - {e}):
                edges.remove(e)
        self.assert_matches_definition(Graph.from_edges(8, edges))


class TestIsMinimal:
    def test_cycles_are_minimal(self):
        assert is_minimally_two_connected(cycle(5))

    def test_known_minimal(self):
        assert is_minimally_two_connected(k23())
        assert is_minimally_two_connected(four_hub())

    def test_known_non_minimal(self):
        for g in (k4(), diamond(), prism(), wheel(5), theta_grid()):
            assert not is_minimally_two_connected(g)


class TestBollobasStructure:
    def test_k23(self):
        report = bollobas_structure_check(k23())
        assert report.passed
        assert ("branch_components", 2) in report.witnesses
        assert ("degree_two_paths", 3) in report.witnesses

    def test_four_hub(self):
        report = bollobas_structure_check(four_hub())
        assert report.passed
        # branch vertices 0,1 form one tree via their edge; 2 and 3 stand alone
        assert ("branch_components", 3) in report.witnesses
        assert ("degree_two_paths", 5) in report.witnesses

    def test_branch_forest_components(self):
        comps = branch_forest_components(four_hub())
        assert sorted(sorted(c) for c in comps) == [[0, 1], [2], [3]]

    def test_cycle_rejected(self):
        with pytest.raises(PreconditionViolated, match="does not apply to cycles"):
            bollobas_structure_check(cycle(5))

    def test_non_minimal_rejected(self):
        with pytest.raises(PreconditionViolated, match="not minimally 2-connected"):
            bollobas_structure_check(k4())

    @given(two_connected_graphs())
    @settings(max_examples=60)
    def test_holds_for_every_minimalization(self, g):
        h = spanning_minimally_two_connected(g)
        if is_cycle_graph(h):
            return
        assert bollobas_structure_check(h).passed
