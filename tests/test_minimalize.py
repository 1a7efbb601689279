import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rc2 import Graph, minimalize, spanning_minimally_two_connected
from rc2.errors import PreconditionViolated
from rc2.generators import complete_bipartite_graph, complete_graph, wheel_graph
from rc2.graphs import (
    find_cycle,
    is_cycle_graph,
    is_two_connected,
    is_two_connected_sub,
)
from rc2.minimalize import (
    _certificate,
    _removable,
    bollobas_structure_check,
    branch_forest_components,
    is_minimally_two_connected,
)

from .common import c6_with_chord, cycle, diamond, four_hub, k4, k23, prism, theta_grid, wheel
from .strategies import dense_two_connected_graphs, two_connected_graphs

# (kind, reason) of each structure violation; a test appends the subject.
NOT_FOREST = ("not-forest", "degree >= 3 vertices induce a cycle")
SINGLE_TREE = ("single-tree", "expected at least two components of branch vertices")
SAME_TREE = ("same-tree-attachment", "both ends attach to component of vertex 0")


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

    @given(st.one_of(two_connected_graphs(), dense_two_connected_graphs(max_n=10)))
    @settings(max_examples=60)
    def test_result_is_spanning_minimal_subgraph(self, g):
        h = spanning_minimally_two_connected(g)
        assert h.vertex_count == g.vertex_count
        assert h.edges <= g.edges
        assert is_two_connected(h)
        assert is_minimally_two_connected(h)
        # A minimally 2-connected graph on n >= 4 vertices has at most
        # 2n - 4 edges (Dirac 1967; Plummer 1968).
        if g.vertex_count >= 4:
            assert h.edge_count <= 2 * g.vertex_count - 4

    @pytest.mark.parametrize("n", range(8, 41))
    def test_complete_graph_output_meets_the_edge_bound(self, n):
        h = spanning_minimally_two_connected(complete_graph(n))
        assert is_minimally_two_connected(h)
        assert h.edge_count <= 2 * n - 4
        if n == 40:
            assert h.edge_count == 76


class TestCertificate:
    """The two-forest sparse certificate the sweep starts from on graphs with
    more than 2n - 2 edges."""

    @given(dense_two_connected_graphs())
    @settings(max_examples=80)
    def test_is_a_sparse_two_connected_subgraph(self, g):
        c = _certificate(g)
        assert c.vertex_count == g.vertex_count
        assert c.edges <= g.edges
        assert c.edge_count <= 2 * g.vertex_count - 2
        assert is_two_connected_sub(c.vertex_count, c.edges)

    @pytest.mark.parametrize("n", [5, 12, 30])
    def test_complete_graph_sweep_tests_at_most_2n_minus_2_edges(self, n):
        assert len(observed_sweep(complete_graph(n))) <= 2 * n - 2

    def test_graphs_with_at_most_2n_minus_2_edges_are_swept_whole(self):
        """W8 and K4 have exactly 2n - 2 edges, the prism fewer; each is
        swept as it is, with no certificate built."""
        for g in (wheel_graph(8), k4(), prism()):
            with mock.patch.object(minimalize, "_certificate") as certificate:
                spanning_minimally_two_connected(g)
            certificate.assert_not_called()


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


# Sweeps that grow long chains (a wheel loses its spokes, K_{3,k} the edges
# of its degree-3 side) or start from many one-vertex chains (K_{2,k}, here
# with the hub edge, which the sweep tests and removes).
CHAIN_GRAPHS = [
    *(wheel_graph(n) for n in (4, 5, 8, 13)),
    *(Graph.from_edges(k + 2, complete_bipartite_graph(2, k).edges | {(0, 1)}) for k in (3, 9)),
    *(complete_bipartite_graph(3, k) for k in (3, 4, 7)),
    theta_grid(),
    prism(),
]


def observed_sweep(g, on_test=None, on_flows=None):
    """Minimalize g and call ``on_test(adj, u, v, h_edges)`` before each edge
    test of the sweep, ``h_edges`` being H's edges at that point, and
    ``on_flows(adj, anchors, v0, (u, v))`` at each flow search the test
    makes.  H starts as the sparse certificate when the sweep builds one, and
    as g otherwise.  The closing minimality check runs unobserved."""
    real_removable, real_flows = minimalize._removable, minimalize._two_unit_flows
    real_check, real_certificate = minimalize.is_minimally_two_connected, minimalize._certificate
    h_edges = set(g.edges)
    tested = []
    sweeping = True

    def certificate(g):
        c = real_certificate(g)
        h_edges.intersection_update(c.edges)
        return c

    def removable(adj, u, v):
        if not sweeping:
            return real_removable(adj, u, v)
        if on_test:
            on_test(adj, u, v, h_edges)
        tested.append((u, v))
        if real_removable(adj, u, v):
            h_edges.remove((u, v))
            return True
        return False

    def flows(adj, anchors, v0):
        if sweeping and on_flows:
            on_flows(adj, anchors, v0, tested[-1])
        return real_flows(adj, anchors, v0)

    def closing_check(h):
        nonlocal sweeping
        sweeping = False
        return real_check(h)

    with (
        mock.patch.object(minimalize, "_removable", removable),
        mock.patch.object(minimalize, "_two_unit_flows", flows),
        mock.patch.object(minimalize, "is_minimally_two_connected", closing_check),
        mock.patch.object(minimalize, "_certificate", certificate),
    ):
        h = spanning_minimally_two_connected(g)
    assert h.edges == h_edges
    return tested


class TestContractedSweep:
    """The sweep tests edges on H with each chain of degree-2 vertices
    contracted to one vertex."""

    @staticmethod
    def assert_agrees_with_plain_adjacency(g, rnd):
        """At random points of the sweep, every edge that could be tested
        gets the same answer on the sweep's adjacency as on H's own."""
        points = []

        def compare(adj, u, v, h_edges):
            if rnd.random() < 0.7:
                return
            points.append((u, v))
            h = Graph(g.vertex_count, frozenset(h_edges))
            plain = {x: list(nbrs) for x, nbrs in h.adjacency().items()}
            for x, y in sorted(h_edges):
                if len(plain[x]) > 2 and len(plain[y]) > 2:
                    contracted = {z: list(nbrs) for z, nbrs in adj.items()}
                    assert _removable(contracted, x, y) == _removable(plain, x, y), (u, v, x, y)

        observed_sweep(g, on_test=compare)
        return points

    @given(two_connected_graphs(max_n=14), st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_contracted_removable_matches_plain_on_random_graphs(self, g, rnd):
        self.assert_agrees_with_plain_adjacency(g, rnd)

    def test_contracted_removable_matches_plain_on_chain_graphs(self):
        rnd = random.Random(1)
        points = [self.assert_agrees_with_plain_adjacency(g, rnd) for g in CHAIN_GRAPHS]
        assert sum(map(len, points)) >= 10

    @staticmethod
    def assert_flows_see_contracted_chains(g):
        """With the tested edge put back, no two degree-2 vertices of the
        flows' adjacency are adjacent, and each has two neighbours of degree
        at least 3."""
        calls = []

        def check(adj, anchors, v0, uv):
            calls.append(uv)
            nbrs = {x: set(ys) for x, ys in adj.items()}
            other = uv[1] if uv[0] == v0 else uv[0]
            nbrs[v0].add(other)
            nbrs[other].add(v0)
            for x, ys in nbrs.items():
                assert len(ys) >= 2, x
                if len(ys) == 2:
                    assert all(len(nbrs[y]) >= 3 for y in ys), (uv, x, sorted(ys))

        observed_sweep(g, on_flows=check)
        return calls

    @given(two_connected_graphs(max_n=14))
    @settings(max_examples=60)
    def test_flows_run_on_contracted_chains_on_random_graphs(self, g):
        self.assert_flows_see_contracted_chains(g)

    def test_flows_run_on_contracted_chains_on_chain_graphs(self):
        calls = [self.assert_flows_see_contracted_chains(g) for g in CHAIN_GRAPHS]
        assert all(calls)

    def test_only_edges_without_a_degree_two_end_are_tested(self):
        """W9, hub 0 and rim 1..8: after six spokes go the hub has degree 2,
        so its last two spokes and the rim edges with a degree-2 end are
        never tested.  Deleting (7, 8) leaves a 9-cycle, where the splice
        closes the chain on itself."""
        g = wheel_graph(9)
        assert observed_sweep(g) == [(0, j) for j in range(1, 7)] + [(7, 8)]
        assert is_cycle_graph(spanning_minimally_two_connected(g))


class TestIsMinimal:
    def test_cycles_are_minimal(self):
        assert is_minimally_two_connected(cycle(5))

    def test_known_minimal(self):
        assert is_minimally_two_connected(k23())
        assert is_minimally_two_connected(four_hub())

    def test_known_non_minimal(self):
        bowtie = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        for g in (k4(), diamond(), prism(), wheel(5), theta_grid(), bowtie):
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
        g = four_hub()
        comps = branch_forest_components(g)
        assert sorted(sorted(c) for c in comps) == [[0, 1], [2], [3]]

    @pytest.mark.parametrize(
        "g, expected",
        [
            (k4(), [NOT_FOREST + ((0, 1, 2, 3),), SINGLE_TREE + ((0, 1, 2, 3),)]),
            (diamond(), [SINGLE_TREE + ((0, 1),), SAME_TREE + ((2,),), SAME_TREE + ((3,),)]),
            (
                c6_with_chord(),
                [SINGLE_TREE + ((0, 3),), SAME_TREE + ((1, 2),), SAME_TREE + ((4, 5),)],
            ),
            # The chain 0-4-2-3-1 runs 4, 2, 3 along the path; its subject
            # lists its vertices in ascending order.
            (
                Graph.from_edges(6, [(0, 1), (0, 5), (1, 5), (0, 4), (2, 4), (2, 3), (1, 3)]),
                [SINGLE_TREE + ((0, 1),), SAME_TREE + ((2, 3, 4),), SAME_TREE + ((5,),)],
            ),
        ],
        ids=["k4", "diamond", "c6-chord", "unsorted-chain"],
    )
    def test_violations_with_minimality_stubbed(self, monkeypatch, g, expected):
        """These graphs are not minimally 2-connected and break Plummer's
        structure; with the precondition stubbed, each break is reported."""
        monkeypatch.setattr("rc2.minimalize.is_minimally_two_connected", lambda g: True)
        report = bollobas_structure_check(g)
        got = [(v.kind, v.reason, v.subject) for v in report.violations]
        assert got == expected

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
