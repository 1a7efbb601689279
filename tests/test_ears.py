import pytest
from hypothesis import example, given, settings

from rc2 import (
    EarDecomposition,
    Graph,
    Path,
    build_ear_decomposition,
    check_ear_conditions,
    ear_through_vertex,
    exchange_bad_arc,
)
from rc2.coloring import color_base_subgraph
from rc2.errors import PreconditionViolated
from rc2.generators import complete_bipartite_graph, random_two_connected, theta_graph
from rc2.graphs import degree_two_set, edge
from rc2.minimalize import spanning_minimally_two_connected

from .common import cycle, diamond, four_hub, k23, prism, theta_grid
from .strategies import minimal_noncycle_graphs


class TestEarThroughVertex:
    def test_k23(self):
        ear = ear_through_vertex(k23(), frozenset({0, 1, 2, 3}), 4)
        assert ear.vertices == (0, 4, 1)

    def test_oriented_from_smaller_endpoint(self):
        ear = ear_through_vertex(four_hub(), frozenset({1, 6, 3, 7}), 4)
        assert ear.vertices == (1, 0, 4, 2, 8, 3)
        assert ear.first < ear.last


class TestExchangeBadArc:
    def test_no_exchange_when_both_arcs_have_degree_two(self):
        got = exchange_bad_arc((0, 1, 2, 3, 4, 5), Path((0, 9, 3)), frozenset({1, 4, 9}))
        assert got is None

    def test_swaps_bad_arc_for_ear(self):
        """First repair step on the theta grid: the arc (1,2,3,4) carries no
        degree-2 vertex, so the surviving arc and the ear form the new cycle."""
        got = exchange_bad_arc((0, 1, 2, 3, 4, 5), Path((1, 6, 4)), frozenset({6, 7, 8}))
        assert got == (0, 1, 6, 4, 5)

    def test_result_is_normalized(self):
        got = exchange_bad_arc((0, 1, 2, 3, 4, 5), Path((1, 6, 4)), frozenset({6, 7, 8}))
        assert got[0] == min(got)


class TestBuildDecomposition:
    def test_k23_frozen(self):
        dec = build_ear_decomposition(k23())
        assert dec.base_cycle.vertices == (0, 2, 1, 3)
        assert [e.vertices for e in dec.ears] == [(0, 4, 1)]
        assert dec.repair_exchanges == 0

    def test_four_hub_frozen(self):
        dec = build_ear_decomposition(four_hub())
        assert dec.base_cycle.vertices == (1, 6, 3, 7)
        assert [e.vertices for e in dec.ears] == [(1, 0, 4, 2, 8, 3), (0, 5, 2)]
        assert dec.repair_exchanges == 0

    def test_cycle_not_applicable(self):
        with pytest.raises(PreconditionViolated, match="a cycle decomposes into just itself"):
            build_ear_decomposition(cycle(5))

    def test_not_two_connected(self):
        with pytest.raises(PreconditionViolated, match="need a 2-connected input"):
            build_ear_decomposition(Graph.from_edges(3, [(0, 1), (1, 2)]))

    def test_no_degree_two_vertices(self):
        with pytest.raises(PreconditionViolated, match="has degree-2 vertices"):
            build_ear_decomposition(prism())

    def test_diamond_gives_up(self):
        """The diamond's only degree-2 vertices sit on one cycle, which the
        repair swap discovers; a correct rejection since the diamond is not
        minimally 2-connected."""
        with pytest.raises(PreconditionViolated, match="one cycle carries"):
            build_ear_decomposition(diamond())

    def test_theta_grid_repair_cascade_then_gives_up(self):
        """Each repair absorbs an ear into the cycle until the cycle is
        Hamiltonian, at which point no uncovered degree-2 vertex remains."""
        with pytest.raises(PreconditionViolated, match="one cycle carries"):
            build_ear_decomposition(theta_grid())

    def test_leftover_edge_rejected(self):
        """K_{2,3} plus the edge between its hubs: the ears cover every
        vertex but not that edge."""
        g = Graph(5, k23().edges | {(0, 1)})
        with pytest.raises(PreconditionViolated, match="did not exhaust the graph"):
            build_ear_decomposition(g)

    @given(minimal_noncycle_graphs())
    @example(complete_bipartite_graph(2, 5))
    @example(spanning_minimally_two_connected(random_two_connected(40, 12, 1)))
    @settings(max_examples=50)
    def test_each_later_ear_holds_the_smallest_uncovered_degree_two_vertex(self, g):
        """About one generated graph in ten has two later ears to order, so
        the examples carry several."""
        d = degree_two_set(g)
        dec = build_ear_decomposition(g)
        covered = set(dec.base_cycle.vertices) | set(dec.ears[0].vertices)
        for ear in dec.ears[1:]:
            assert min(d - covered) in ear.interior()
            covered |= set(ear.vertices)
        assert d <= covered

    @given(minimal_noncycle_graphs())
    @settings(max_examples=50)
    def test_decomposition_reconstructs_and_satisfies_conditions(self, g):
        dec = build_ear_decomposition(g)
        covered = set(dec.base_cycle.vertices).union(*(ear.vertices for ear in dec.ears))
        assert covered == set(range(g.vertex_count))
        assert dec.covered_edges() == g.edges
        assert 0 <= dec.repair_exchanges <= len(degree_two_set(g))
        assert check_ear_conditions(dec, g).passed


class TestCheckEarConditions:
    def test_k23_passes_with_witnesses(self):
        dec = build_ear_decomposition(k23())
        report = check_ear_conditions(dec, k23())
        assert report.passed
        assert ("ears", 1) in report.witnesses
        assert ("repair_exchanges", 0) in report.witnesses

    def test_prism_chord_decomposition_fails_both_conditions(self):
        """A hand-built decomposition of the prism: Hamiltonian base plus
        the three leftover edges as chord ears.  Structurally fine, but the
        prism has no degree-2 vertices at all, so every ear and both first
        arcs violate the conditions."""
        dec = EarDecomposition(
            Path((0, 1, 4, 3, 5, 2)),
            (Path((0, 3)), Path((1, 2)), Path((4, 5))),
        )
        report = check_ear_conditions(dec, prism())
        assert not report.passed
        kinds = sorted(v.kind for v in report.violations)
        assert kinds == ["arc-missing-degree-two"] * 2 + ["ear-missing-degree-two"] * 3
        ear_subjects = {v.subject for v in report.violations if v.kind == "ear-missing-degree-two"}
        assert ear_subjects == {(0, 3), (1, 2), (4, 5)}
        arc_subjects = {v.subject for v in report.violations if v.kind == "arc-missing-degree-two"}
        assert arc_subjects == {(0, 1, 4, 3), (0, 2, 5, 3)}

    def test_short_base_rejected(self):
        dec = EarDecomposition(Path((0, 1)), (Path((0, 2, 1)),))
        with pytest.raises(PreconditionViolated, match="at least 3"):
            check_ear_conditions(dec, k23())

    def test_base_with_missing_edge_rejected(self):
        dec = EarDecomposition(Path((0, 1, 2)), (Path((0, 3, 1)),))
        with pytest.raises(PreconditionViolated, match="missing edge"):
            check_ear_conditions(dec, k23())

    def test_no_ears_rejected(self):
        dec = EarDecomposition(Path((0, 2, 1, 3)), ())
        with pytest.raises(PreconditionViolated, match="no ears"):
            check_ear_conditions(dec, k23())

    def test_single_vertex_ear_rejected(self):
        dec = EarDecomposition(Path((0, 2, 1, 3)), (Path((4,)),))
        with pytest.raises(PreconditionViolated, match="single vertex"):
            check_ear_conditions(dec, k23())

    def test_uncovered_endpoint_rejected(self):
        dec = EarDecomposition(Path((0, 2, 1, 3)), (Path((0, 4)),))
        with pytest.raises(PreconditionViolated, match="already be covered"):
            check_ear_conditions(dec, k23())

    def test_interior_revisit_rejected(self):
        dec = EarDecomposition(Path((0, 2, 1, 3)), (Path((0, 2, 1)), Path((0, 4, 1))))
        with pytest.raises(PreconditionViolated, match="revisits"):
            check_ear_conditions(dec, k23())

    def test_incomplete_coverage_rejected(self):
        g = theta_graph(2, 2, 2)
        # base covers hubs 0,1 and arm vertices 2,3 but never touches 4
        dec = EarDecomposition(Path((0, 2, 1, 3)), (Path((0, 3)),))
        with pytest.raises(PreconditionViolated, match="does not reconstruct the graph"):
            check_ear_conditions(dec, g)


class TestDecompositionJson:
    def test_round_trip(self):
        dec = build_ear_decomposition(four_hub())
        obj = dec.to_json_obj()
        assert obj == {"base": [1, 6, 3, 7], "ears": [[1, 0, 4, 2, 8, 3], [0, 5, 2]]}

    def test_exchange_count_not_serialized(self):
        dec = EarDecomposition(Path((0, 2, 1, 3)), (Path((0, 4, 1)),), repair_exchanges=2)
        assert "repair_exchanges" not in dec.to_json_obj()


def working_order(step):
    """The base labeling's working order w_1..w_L, read off a base step: the
    base cycle walked from the ear's first endpoint w_1 along the color-0
    edge w_1 w_2, then the ear's interior."""
    ear_edges = set(step.ear.edges())
    cycle_edges = [e for e in step.colored if e not in ear_edges]
    w1 = step.ear.first
    order = [w1, next(v for e in cycle_edges if w1 in e and step.colored[e] == 0
                      for v in e if v != w1)]
    while len(order) < len(cycle_edges):
        prev, cur = order[-2], order[-1]
        order.append(next(v for e in cycle_edges if cur in e for v in e if v not in (prev, cur)))
    return tuple(order) + step.ear.interior()


class TestSelectBaseLabeling:
    """The base labeling (working order, cycle length s, far-endpoint
    position p, skip positions) is laid out by color_base_subgraph; these
    tests read it back off the base step."""

    def test_k23_frozen(self):
        g = k23()
        d = degree_two_set(g)
        step = color_base_subgraph(build_ear_decomposition(g), g, d)
        order = working_order(step)
        assert order == (0, 2, 1, 3, 4)
        s = len(order) - len(step.ear.interior())
        assert s == 4
        assert order.index(step.ear.last) + 1 == 3
        # Skips 2, 4 and 5 are the first degree-2 positions of the first arc
        # (2..2), second arc (4..4) and ear interior (5..5).  Branch vertex 0
        # at position 1 precedes its stretch's skip and maps to 1 - 1; branch
        # vertex 1 at position p = 3 follows it and maps to 3 - 2.
        assert all(order[pos - 1] in d for pos in (2, 4, 5))
        assert step.mapped == {0: 0, 1: 1}

    def test_positions_are_one_based(self):
        g = k23()
        step = color_base_subgraph(build_ear_decomposition(g), g, degree_two_set(g))
        order = working_order(step)
        assert order[0] == 0
        assert order[len(order) - 1] == 4
        # Edge w_j w_{j+1} takes color j - 1, and w_s w_1 takes s - 1.
        assert [step.colored[edge(order[j - 1], order[j])] for j in (1, 2, 3)] == [0, 1, 2]
        assert step.colored[edge(order[3], order[0])] == 3
