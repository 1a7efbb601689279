import random
import subprocess
import sys
import textwrap
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rc2 import Graph, minimalize, spanning_minimally_two_connected
from rc2.errors import PreconditionViolated
from rc2.generators import complete_bipartite_graph, complete_graph, theta_graph, wheel_graph
from rc2.graphs import (
    carving,
    degree_two_set,
    find_cycle,
    is_cycle_graph,
    is_two_connected,
    is_two_connected_sub,
)
from rc2.minimalize import (
    _removable,
    bollobas_structure_check,
    branch_forest_components,
    is_minimally_two_connected,
)

from .common import c6_with_chord, cycle, diamond, four_hub, k4, k23, prism, theta_grid, wheel
from .strategies import dense_two_connected_graphs, minimal_noncycle_graphs, two_connected_graphs

# (kind, reason) of each structure violation; a test appends the subject.
NOT_FOREST = ("not-forest", "degree >= 3 vertices induce a cycle")
SINGLE_TREE = ("single-tree", "expected at least two components of branch vertices")
SAME_TREE = ("same-tree-attachment", "both ends attach to component of vertex 0")


class TestSpanningMinimal:
    def test_k4_drops_to_four_cycle(self):
        """The DFS from 0 runs 0-1-2-3; 3 keeps its back edge (0, 3), and
        the carving is already the 4-cycle."""
        h = spanning_minimally_two_connected(k4())
        assert h.edges == frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})
        assert is_cycle_graph(h)

    def test_diamond_drops_chord(self):
        h = spanning_minimally_two_connected(diamond())
        assert h.edges == frozenset({(0, 2), (0, 3), (1, 2), (1, 3)})

    def test_wheel6_drops_to_six_cycle(self):
        """The DFS from hub 0 runs 0-1-2-3-4-5 along the rim; 5 keeps its
        spoke (0, 5), and the carving is already a Hamiltonian cycle."""
        h = spanning_minimally_two_connected(wheel(6))
        assert is_cycle_graph(h)
        assert h.edges == frozenset(
            {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)}
        )

    def test_theta_grid_minimalizes_to_hamiltonian_cycle(self):
        """The DFS tree is the path 0-1-2-3-4-5-7 with 6 hung from 4 and 8
        from 3.  In post-order, 7 keeps (2, 7), 6 keeps (1, 6) and 8 keeps
        (0, 8), and (0, 5) is not carved.  The sweep then removes (1, 2),
        leaving a theta on 3 and 4, and (3, 4)."""
        h = spanning_minimally_two_connected(theta_grid())
        assert is_cycle_graph(h)
        assert find_cycle(h) == (0, 1, 6, 4, 5, 7, 2, 3, 8)
        assert theta_grid().edges - h.edges == {(0, 5), (1, 2), (3, 4)}

    def test_already_minimal_is_unchanged(self):
        g = k23()
        assert spanning_minimally_two_connected(g).edges == g.edges

    def test_rejects_non_two_connected(self):
        with pytest.raises(PreconditionViolated, match="input must be 2-connected"):
            spanning_minimally_two_connected(Graph.from_edges(3, [(0, 1), (1, 2)]))

    @given(
        st.one_of(
            two_connected_graphs(), dense_two_connected_graphs(max_n=10), minimal_noncycle_graphs()
        )
    )
    @settings(max_examples=80)
    def test_input_comes_back_exactly_when_every_edge_has_a_degree_two_end(self, g):
        """The early return hands back the input itself, and only when no
        edge joins two vertices of degree 3 or more; it then runs no sweep
        and no closing scan."""
        d = degree_two_set(g)
        forced = all(u in d or v in d for u, v in g.edges)
        with mock.patch.object(minimalize, "is_two_connected_sub", wraps=is_two_connected_sub) as scan:
            h = spanning_minimally_two_connected(g)
        assert (h is g) == forced
        assert scan.call_count == (0 if forced else 1)

    def test_one_branch_edge_still_runs_the_sweep(self):
        """four_hub is minimal, but its edge (0, 1) joins two branch
        vertices: the sweep tests it, keeps it, and the closing scan runs."""
        g = four_hub()
        removable = mock.patch.object(minimalize, "_removable", wraps=_removable)
        closing = mock.patch.object(minimalize, "is_two_connected_sub", wraps=is_two_connected_sub)
        with removable as tested, closing as scan:
            h = spanning_minimally_two_connected(g)
        assert h is not g and h.edges == g.edges
        # Without -O the closing minimality assert tests (0, 1) once more.
        assert {c.args[1:] for c in tested.call_args_list} == {(0, 1)}
        assert scan.call_count == 1

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
            # K40 carves to its Hamiltonian cycle 0..39 (TestCarving).
            assert h.edge_count == 40


class TestCarving:
    """The Khuller-Vishkin carving the sweep starts from: a DFS tree plus,
    in post-order, the back edge that attains low(w) for each vertex w whose
    subtree's kept edges reach no higher than its parent."""

    @given(st.one_of(two_connected_graphs(), dense_two_connected_graphs()))
    @settings(max_examples=80)
    def test_is_a_sparse_two_connected_spanning_subgraph(self, g):
        c = carving(g)
        n = g.vertex_count
        assert {x for e in c for x in e} == set(range(n))
        assert c <= g.edges
        assert len(c) <= 2 * n - 3
        assert is_two_connected_sub(n, c)

    @pytest.mark.parametrize("n", [4, 5, 12, 30])
    def test_complete_graph_carves_to_its_hamiltonian_cycle(self, n):
        """The DFS from 0 runs 0-1-...-(n-1), and only n - 1 keeps an edge,
        its back edge to 0, so the sweep has nothing to test."""
        g = complete_graph(n)
        assert carving(g) == frozenset((i, i + 1) for i in range(n - 1)) | {(0, n - 1)}
        assert observed_sweep(g) == []

    @given(minimal_noncycle_graphs())
    @settings(max_examples=40)
    @example(k23())
    @example(complete_bipartite_graph(2, 9))
    @example(theta_graph(2, 3, 4))
    @example(four_hub())
    @example(cycle(7))
    def test_minimally_two_connected_graphs_carve_to_themselves(self, g):
        """A 2-connected spanning subgraph of a minimally 2-connected graph
        is the whole graph: any edge it left out could be deleted."""
        assert carving(g) == g.edges

    def test_prism_carving(self):
        """The DFS runs 0-1-2-5-3-4.  4 keeps (1, 4); 2 keeps (0, 2), the
        back edge met first at low 0, since its subtree reaches only 1, its
        parent.  (0, 3) and (4, 5) are left out."""
        assert prism().edges - carving(prism()) == {(0, 3), (4, 5)}

    @staticmethod
    def counting_scans():
        """A list, and a patch of the lowpoint scan that appends to it each
        graph scanned while the patch is active."""
        from rc2 import graphs

        scanned = []
        real = graphs._lowpoint_scan

        def spy(h):
            scanned.append(h)
            return real(h)

        return scanned, mock.patch.object(graphs, "_lowpoint_scan", spy)

    def test_minimalizer_output_is_its_own_carving_without_a_scan(self):
        """The minimalizer records its output as its own carving, since a
        minimally 2-connected graph is one, so the output is never scanned:
        only the input and the closing check's throwaway copy are."""
        g = complete_graph(6)
        scanned, patch = self.counting_scans()
        with patch:
            h = spanning_minimally_two_connected(g)
            assert carving(h) == h.edges
            assert is_two_connected(h)
        assert len(scanned) == 2 and scanned[0] is g
        assert all(x is not h for x in scanned)

    def test_output_that_fails_the_closing_scan_raises_under_dash_o(self):
        """python -O strips plain asserts, but the closing scan raises
        itself: with it made to fail, the minimalizer returns no graph and
        records no carving, under -O as without it."""
        code = textwrap.dedent(
            """
            from unittest import mock
            from rc2 import minimalize
            from rc2.generators import complete_graph

            recorded = []
            fail = mock.patch.object(minimalize, "is_two_connected_sub", lambda n, edges: False)
            spy = mock.patch.object(minimalize, "record_carving", lambda h, c: recorded.append(h))
            with fail, spy:
                try:
                    minimalize.spanning_minimally_two_connected(complete_graph(6))
                except AssertionError as exc:
                    print(exc, len(recorded))
            """
        )
        run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
        assert (run.returncode, run.stdout, run.stderr) == (
            0,
            "minimalizer output is not 2-connected 0\n",
            "",
        )

    def test_rejects_a_graph_that_is_not_two_connected(self):
        with pytest.raises(PreconditionViolated, match="a carving needs a 2-connected graph"):
            carving(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))

    def test_a_graph_is_scanned_once_whatever_the_verdict(self):
        """is_two_connected and carving read one kept scan result, and a
        graph that is not 2-connected keeps its None as well."""
        path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        scanned, patch = self.counting_scans()
        with patch:
            assert not is_two_connected(path)
            for _ in range(2):
                with pytest.raises(PreconditionViolated, match="a carving needs a 2-connected graph"):
                    carving(path)
        assert scanned == [path]

    @pytest.mark.parametrize("g", [complete_graph(9), wheel_graph(12), theta_grid(), k23()])
    def test_input_is_scanned_once_per_coloring(self, g):
        """One lowpoint scan of the input gives color_rc2 both the verdict
        and the carving; the other scans are of new graphs."""
        from rc2.coloring import color_rc2

        scanned, patch = self.counting_scans()
        with patch:
            color_rc2(g)
        assert sum(h is g for h in scanned) == 1


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


def looped_legs(legs: int, length: int) -> Graph:
    """Hubs 0 and 1 joined by an edge, and ``legs`` paths of ``length``
    vertices with consecutive ids; each path's first vertex a is joined to
    both hubs, its last vertex b to hub 1.

    Its carving is the whole graph.  The DFS from 0 enters 1 and then runs
    down each path in turn.  In post-order, b keeps its back edge (1, b), and
    a, whose parent is 1, keeps (0, a), the one edge that reaches above 1.
    """
    edges = [(0, 1)]
    for i in range(legs):
        path = range(2 + i * length, 2 + (i + 1) * length)
        a, b = path[0], path[-1]
        edges += [(0, a), (1, a), (1, b), *zip(path, path[1:])]
    return Graph.from_edges(2 + legs * length, edges)


# Sweeps that grow long chains (each path of ``looped_legs`` joins a chain
# through 0 or 1 once the hubs lose their edges) or start from many
# one-vertex chains (K_{2,k}, here with the hub edge, which the sweep tests
# and removes).  Each graph is swept from a carving that is not yet minimal.
CHAIN_GRAPHS = [
    *(looped_legs(*shape) for shape in ((2, 2), (2, 5), (3, 3), (4, 2), (4, 5), (6, 3), (8, 2))),
    *(Graph.from_edges(k + 2, complete_bipartite_graph(2, k).edges | {(0, 1)}) for k in (3, 9)),
    theta_grid(),
    prism(),
]


def observed_sweep(g, on_test=None, on_flows=None):
    """Minimalize g and call ``on_test(adj, u, v, h_edges)`` before each edge
    test of the sweep, ``h_edges`` being H's edges at that point, and
    ``on_flows(adj, anchors, v0, (u, v))`` at each flow search the test
    makes.  H starts as g's carving.  The closing minimality check runs
    unobserved."""
    real_removable, real_flows = minimalize._removable, minimalize._two_unit_flows
    real_check = minimalize.is_minimally_two_connected
    h_edges = set(carving(g))
    tested = []
    sweeping = True

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

    @staticmethod
    def assert_list_lengths_are_degrees(g):
        """At each test, a vertex of H has degree 2 exactly when it has fewer
        than three neighbours in the sweep's adjacency (a chain vertex other
        than the representative has no entry there), and any other vertex
        has its degree in H as its number of neighbours there."""
        points = []

        def check(adj, u, v, h_edges):
            points.append((u, v))
            deg = Counter(x for e in h_edges for x in e)
            for x in range(g.vertex_count):
                length = len(adj.get(x, ()))
                if length < 3:
                    assert deg[x] == 2, (u, v, x)
                else:
                    assert length == deg[x], (u, v, x)

        observed_sweep(g, on_test=check)
        return points

    @given(two_connected_graphs(max_n=14))
    @settings(max_examples=60)
    def test_list_lengths_are_degrees_on_random_graphs(self, g):
        self.assert_list_lengths_are_degrees(g)

    def test_list_lengths_are_degrees_on_chain_graphs(self):
        assert all(self.assert_list_lengths_are_degrees(g) for g in CHAIN_GRAPHS)

    def test_only_edges_without_a_degree_two_end_are_tested(self):
        """Two looped legs 2-3-4 and 5-6-7, swept whole: deleting (0, 1)
        leaves 0 with degree 2, so (0, 2) and (0, 5) are never tested, and
        deleting (1, 2) leaves 2 with degree 2.  The edges at 3, 4, 6 and 7
        have a degree-2 end from the start.  Deleting (1, 5) leaves the
        8-cycle 0-2-3-4-1-7-6-5, where the splice closes the chain on
        itself."""
        g = looped_legs(2, 3)
        assert observed_sweep(g) == [(0, 1), (1, 2), (1, 5)]
        h = spanning_minimally_two_connected(g)
        assert is_cycle_graph(h)
        assert find_cycle(h) == (0, 2, 3, 4, 1, 7, 6, 5)


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
