import dataclasses
import re

import pytest
from hypothesis import example, given, settings

from rc2 import (
    EarDecomposition,
    EdgeColoring,
    Graph,
    Path,
    TraceStep,
    build_ear_decomposition,
    color_cycle,
    color_hamiltonian_with_chord,
    color_minimally_two_connected,
    color_rc2,
    to_dot,
)
from rc2 import verify
from rc2.coloring import (
    color_base_subgraph,
    coloring_from_json_obj,
    extend_with_ear,
    support_from_json_obj,
)
from rc2.errors import InvalidInput, PreconditionViolated
from rc2.generators import theta_graph
from rc2.graphs import degree_two_set, is_cycle_graph, parse_edge_list

from .common import (
    C6_CHORD_COLORING,
    K4_COLORING,
    K23_COLOR_MAP,
    K23_COLORING,
    K24_COLOR_MAP,
    K24_COLORING,
    K24_RECYCLED,
    THETA333_BASE_COLOR_MAP,
    THETA333_BASE_COLORING,
    c6_with_chord,
    cycle,
    diamond,
    fold_levels,
    four_hub,
    k4,
    k23,
    k24,
    prism,
    theta_grid,
    wheel,
)
from .strategies import minimal_noncycle_graphs, two_connected_graphs


class TestEdgeColoring:
    def test_from_assignment(self):
        c = EdgeColoring.from_assignment({(0, 1): 0, (1, 2): 1})
        assert c.color_count == 2
        assert c.assignment[(1, 2)] == 1

    def test_from_assignment_requires_contiguous_colors(self):
        with pytest.raises(InvalidInput, match="contiguous from 0"):
            EdgeColoring.from_assignment({(0, 1): 0, (1, 2): 2})

    def test_used_colors(self):
        c = EdgeColoring.from_assignment(K23_COLORING)
        assert set(c.assignment.values()) == {0, 1, 2, 3}


class TestColorCycle:
    def test_colors_follow_the_cycle(self):
        res = color_cycle(cycle(5))
        assert res.strategy == "cycle"
        assert res.coloring.color_count == 5
        assert res.coloring.assignment == {
            (0, 1): 0, (1, 2): 1, (2, 3): 2, (3, 4): 3, (0, 4): 4,
        }

    def test_rejects_non_cycle(self):
        with pytest.raises(PreconditionViolated, match="color_cycle needs a cycle graph"):
            color_cycle(diamond())


class TestHamiltonianChord:
    def test_c6_with_chord_frozen(self):
        g = c6_with_chord()
        res = color_hamiltonian_with_chord(g, (0, 1, 2, 3, 4, 5), (0, 3))
        assert res.coloring.assignment == C6_CHORD_COLORING
        assert res.coloring.color_count == 5

    def test_non_spanning_cycle_rejected(self):
        with pytest.raises(PreconditionViolated, match="must visit every vertex exactly once"):
            color_hamiltonian_with_chord(c6_with_chord(), (0, 1, 2, 3), (0, 3))

    def test_cycle_with_missing_edge_rejected(self):
        with pytest.raises(PreconditionViolated, match="cycle uses an edge not in the graph"):
            color_hamiltonian_with_chord(c6_with_chord(), (0, 1, 2, 4, 3, 5), (0, 3))

    def test_chord_must_be_an_off_cycle_edge(self):
        g = c6_with_chord()
        with pytest.raises(PreconditionViolated, match=r"chord \(0, 1\) lies on the cycle"):
            color_hamiltonian_with_chord(g, (0, 1, 2, 3, 4, 5), (0, 1))
        with pytest.raises(PreconditionViolated, match=r"chord \(1, 4\) is not an edge"):
            color_hamiltonian_with_chord(g, (0, 1, 2, 3, 4, 5), (1, 4))


class TestBaseColoring:
    def test_k23_base_is_the_whole_graph(self):
        """Working order (0, 2, 1, 3, 4): the ear starts at w_1 = 0 and its
        interior ends at w_L = 4, before the far endpoint w_3 = 1."""
        g = k23()
        base = color_base_subgraph(build_ear_decomposition(g), g)
        assert base.colored == K23_COLORING
        assert base.mapped == K23_COLOR_MAP
        assert base.ear.vertices == (0, 4, 1)

    def test_theta333_base_frozen(self):
        g = theta_graph(3, 3, 3)
        base = color_base_subgraph(build_ear_decomposition(g), g)
        assert base.colored == THETA333_BASE_COLORING
        assert base.mapped == THETA333_BASE_COLOR_MAP
        assert base.ear.vertices == (0, 6, 7, 1)

    def test_map_never_hits_the_doubled_colors(self):
        g = k24()
        base = color_base_subgraph(build_ear_decomposition(g), g)
        doubled = [c for c in base.colored.values()
                   if list(base.colored.values()).count(c) > 1]
        assert set(base.mapped.values()).isdisjoint(doubled)

    def test_labeling_implying_a_non_edge_rejected(self):
        """In K_{2,4}, the base cycle (0, 1, 2, 3, 4) with the ear (0, 5, 3)
        has a degree-2 vertex on each stretch, but its first cycle edge
        w_1 w_2 is the non-edge 0-1."""
        g = k24()
        dec = EarDecomposition(Path((0, 1, 2, 3, 4)), (Path((0, 5, 3)),))
        with pytest.raises(PreconditionViolated, match=r"labeling implies missing edge \(0, 1\)"):
            color_base_subgraph(dec, g)

    @pytest.mark.parametrize(
        "g, dec, message",
        [
            # The prism has no degree-2 vertices at all.
            (
                prism(),
                EarDecomposition(
                    Path((0, 1, 4, 3, 5, 2)),
                    (Path((0, 3)), Path((1, 2)), Path((4, 5))),
                ),
                r"no degree-2 vertex on the first arc \(positions 1\.\.4\) in \(0, 1, 4, 3, 5, 2\)",
            ),
            # A chord between the hubs of K_{2,3} has no interior.
            (
                Graph(5, k23().edges | {(0, 1)}),
                EarDecomposition(Path((0, 2, 1, 3)), (Path((0, 1)),)),
                r"no degree-2 vertex on the ear interior \(positions 5\.\.4\)",
            ),
            # The cycle (0, 2, 1, 3) with the ear (0, 4, 1) and the extra
            # edge 3-4: vertex 3, the whole second arc, has degree 3.
            (
                Graph.from_edges(5, [(0, 2), (2, 1), (1, 3), (3, 0), (0, 4), (4, 1), (3, 4)]),
                EarDecomposition(Path((0, 2, 1, 3)), (Path((0, 4, 1)),)),
                r"no degree-2 vertex on the second arc \(positions 4\.\.4\) in \(0, 2, 1, 3, 4\)",
            ),
        ],
        ids=["first arc", "ear interior", "second arc"],
    )
    def test_stretch_without_degree_two_vertex_rejected(self, g, dec, message):
        with pytest.raises(PreconditionViolated, match=message):
            color_base_subgraph(dec, g)

    @given(minimal_noncycle_graphs())
    @example(four_hub())
    @settings(max_examples=50)
    def test_base_color_map_is_unique_and_maps_every_branch_vertex(self, g):
        """Each skip position holds a degree-2 vertex, so every branch
        vertex of the base level is mapped, and the map satisfies A4/A5.
        In the four-hub graph the ear interior starts at branch vertex 0."""
        d = degree_two_set(g)
        dec = build_ear_decomposition(g)
        base = color_base_subgraph(dec, g)
        assert verify._color_map_violation(base.colored, base.mapped) is None
        assert set(base.mapped) == {x for e in base.colored for x in e} - d
        assert base.ear == dec.ears[0]


class TestExtendWithEar:
    def test_k24_extension_frozen(self):
        g = k24()
        d = degree_two_set(g)
        base = color_base_subgraph(build_ear_decomposition(g), g)
        base_coloring = EdgeColoring.from_assignment(base.colored)
        base_map = dict(base.mapped)
        step = extend_with_ear(base_coloring, base_map, Path((0, 5, 1)), d)
        assert step.colored == {(0, 5): 4, (1, 5): K24_RECYCLED}
        assert step.mapped == {0: 4}
        assert base_coloring.assignment == K23_COLORING
        assert base_map == K23_COLOR_MAP
        step.apply(base_coloring.assignment, base_map)
        assert base_coloring.assignment == K24_COLORING
        assert base_map == K24_COLOR_MAP

    def test_endpoint_must_be_mapped(self):
        coloring = EdgeColoring.from_assignment(K23_COLORING)
        with pytest.raises(PreconditionViolated, match="ear endpoint 0 has no mapped color"):
            extend_with_ear(coloring, {1: 1}, Path((0, 5, 1)),
                            frozenset({2, 3, 4, 5}))

    def test_interior_needs_degree_two(self):
        coloring = EdgeColoring.from_assignment(K23_COLORING)
        with pytest.raises(
            PreconditionViolated,
            match=r"no degree-2 vertex on the ear \(positions 1\.\.2\) in \(0, 5, 1\)",
        ):
            extend_with_ear(coloring, K23_COLOR_MAP, Path((0, 5, 1)),
                            frozenset({2, 3, 4}))

    def test_stretch_refused_before_the_recolor_assert(self):
        """The ear (0, 2, 1) reuses K_{2,3}'s colored edges through vertex
        2, which is not degree 2 here; the missing degree-2 vertex is
        refused before the assert that the ear's edges are uncolored."""
        coloring = EdgeColoring.from_assignment(K23_COLORING)
        with pytest.raises(
            PreconditionViolated,
            match=r"no degree-2 vertex on the ear \(positions 1\.\.2\) in \(0, 2, 1\)",
        ):
            extend_with_ear(coloring, {0: 0, 1: 1}, Path((0, 2, 1)), frozenset({3, 4}))


class TestInductiveColoring:
    def test_k23_frozen(self):
        res = color_minimally_two_connected(k23(), with_trace=True)
        assert res.strategy == "ear_induction"
        assert res.coloring.assignment == K23_COLORING
        assert res.coloring.color_count == 4
        assert len(res.trace) == 1
        step = res.trace[0]
        assert step.ear.vertices == (0, 4, 1)
        ((assignment, color_map),) = fold_levels(res.trace)
        assert assignment == K23_COLORING
        assert color_map == K23_COLOR_MAP

    def test_k24_frozen(self):
        res = color_minimally_two_connected(k24(), with_trace=True)
        assert res.coloring.assignment == K24_COLORING
        assert res.coloring.color_count == 5
        assert len(res.trace) == 2
        last = res.trace[-1]
        assert last.ear.vertices == (0, 5, 1)
        assert last.colored[1, 5] == K24_RECYCLED
        (first, _), (assignment, color_map) = fold_levels(res.trace)
        assert first == K23_COLORING
        assert assignment == K24_COLORING
        assert color_map == K24_COLOR_MAP

    def test_trace_steps_state_each_fact_once(self):
        """A step holds its ear, its edges' colors and its map entries; its
        recycled and fresh colors are read off the edges."""
        res = color_minimally_two_connected(k24(), with_trace=True)
        assert [f.name for f in dataclasses.fields(TraceStep)] == ["ear", "colored", "mapped"]
        first, last = res.trace
        assert set(first.colored.values()) == {0, 1, 2, 3}
        assert set(last.colored) == set(last.ear.edges())
        assert {c for c in last.colored.values() if c >= 4} == {4}

    def test_no_trace_by_default(self):
        assert color_minimally_two_connected(k23()).trace is None


class TestDispatch:
    def test_cycle_uses_n_colors(self):
        res = color_rc2(cycle(6))
        assert res.strategy == "cycle"
        assert res.coloring.color_count == 6

    def test_k4_goes_through_chord_scheme(self):
        res = color_rc2(k4())
        assert res.strategy == "hamiltonian_chord"
        assert res.coloring.assignment == K4_COLORING
        assert res.coloring.color_count == 3

    def test_theta_grid_minimalizes_to_hamiltonian(self):
        res = color_rc2(theta_grid())
        assert res.strategy == "hamiltonian_chord"
        assert res.coloring.color_count == 8

    def test_minimal_non_cycle_uses_induction(self):
        res = color_rc2(k23())
        assert res.strategy == "ear_induction"
        assert res.coloring.assignment == K23_COLORING

    def test_extra_edges_share_color_zero(self):
        res = color_rc2(wheel(6))
        g = wheel(6)
        assert res.coloring.color_count <= 5
        assert set(res.coloring.assignment) == g.edges

    def test_rejects_non_two_connected(self):
        with pytest.raises(PreconditionViolated, match="needs a 2-connected graph"):
            color_rc2(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))

    def test_inner_layers_reject_non_two_connected_input(self):
        bowtie = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        for layer in (color_minimally_two_connected, build_ear_decomposition):
            with pytest.raises(PreconditionViolated, match="need a 2-connected input"):
                layer(bowtie)

    def test_scans_for_cut_vertices_only_on_input_and_minimalized_graph(self, monkeypatch):
        """Every layer checks 2-connectivity, but the verdict is kept on the
        graph, so the lowpoint scan runs once on the input and, after a
        sweep, once as the minimalizer's own check of its output.  An input
        that is already minimal, as K_{2,4} is, skips the sweep and that
        check."""
        import rc2.graphs

        scans = []
        real = rc2.graphs._lowpoint_scan
        monkeypatch.setattr(rc2.graphs, "_lowpoint_scan", lambda *a: scans.append(1) or real(*a))
        assert color_rc2(theta_grid()).strategy == "hamiltonian_chord"
        assert color_rc2(wheel(9)).strategy == "hamiltonian_chord"
        assert len(scans) == 4
        scans.clear()
        assert color_rc2(k24()).strategy == "ear_induction"
        assert len(scans) == 1
        scans.clear()
        hub_edge = Graph.from_edges(6, k24().edges | {(0, 1)})
        assert color_rc2(hub_edge).strategy == "ear_induction"
        assert len(scans) == 2

    @given(two_connected_graphs(max_n=11))
    @settings(max_examples=60)
    def test_color_budget(self, g):
        """Cycles spend exactly n colors, everything else at most n-1, and
        every edge is assigned."""
        res = color_rc2(g)
        if is_cycle_graph(g):
            assert res.coloring.color_count == g.vertex_count
        else:
            assert res.coloring.color_count <= g.vertex_count - 1
        assert set(res.coloring.assignment) == g.edges
        used = set(res.coloring.assignment.values())
        assert used == set(range(res.coloring.color_count))


class TestColoringJson:
    def test_result_round_trip(self):
        res = color_rc2(k23())
        obj = res.to_json_obj()
        assert obj["colors"] == 4
        assert obj["strategy"] == "ear_induction"
        again = coloring_from_json_obj(obj)
        assert again.assignment == res.coloring.assignment

    def test_trace_included_on_request(self):
        res = color_rc2(k24(), with_trace=True)
        assert "trace" not in res.to_json_obj()
        obj = res.to_json_obj(include_trace=True)
        assert len(obj["trace"]) == 2
        assert obj["trace"][1] == {"ear": [0, 5, 1], "colored": [[0, 5, 4], [1, 5, 0]], "mapped": {"0": 4}}

    def test_colors_renumbered_densely(self):
        obj = {"edges": [
            {"u": 0, "v": 1, "color": 5},
            {"u": 1, "v": 2, "color": 9},
        ]}
        c = coloring_from_json_obj(obj)
        assert c.assignment == {(0, 1): 0, (1, 2): 1}

    def test_duplicate_edges_rejected(self):
        obj = {"edges": [
            {"u": 0, "v": 1, "color": 0},
            {"u": 1, "v": 0, "color": 1},
        ]}
        with pytest.raises(InvalidInput, match=r"edge \(0, 1\) colored twice"):
            coloring_from_json_obj(obj)


class TestSupport:
    """``color_rc2`` keeps the edges a scheme colored as the support when it
    gives the others color 0, and writes them as a sorted ``support`` list."""

    @pytest.mark.parametrize("g", [cycle(6), k23()], ids=["cycle", "k23"])
    def test_absent_when_every_edge_is_colored_by_a_scheme(self, g):
        res = color_rc2(g)
        assert res.support is None
        obj = res.to_json_obj(include_trace=True)
        assert "support" not in obj
        assert support_from_json_obj(obj) is None

    def test_w5_keeps_its_cycle_and_chord(self):
        """W5 (hub 0, rim 1-2-3-4) minimalizes to the 5-cycle 0-1-2-3-4-0;
        the smallest dropped edge, (0, 2), is the chord, and the other two,
        (0, 3) and the rim edge (1, 4), are padded with color 0."""
        g = wheel(5)
        res = color_rc2(g)
        assert res.strategy == "hamiltonian_chord"
        assert res.support == {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)}
        assert g.edges - res.support == {(0, 3), (1, 4)}
        assert res.coloring.assignment[0, 3] == res.coloring.assignment[1, 4] == 0
        obj = res.to_json_obj()
        assert obj["support"] == [[0, 1], [0, 2], [0, 4], [1, 2], [2, 3], [3, 4]]
        assert list(obj) == ["colors", "edges", "strategy", "support"]

    @given(two_connected_graphs(max_n=9))
    @settings(max_examples=40)
    def test_round_trips_through_json(self, g):
        res = color_rc2(g, with_trace=True)
        for include_trace in (False, True):
            assert support_from_json_obj(res.to_json_obj(include_trace)) == res.support

    @pytest.mark.parametrize(
        "raw, message",
        [
            (3, 'the coloring\'s "support" must be a list of edges'),
            ([[0, 1], [True, 2]], "bad support entry [True, 2]"),
            ([[0, 1.0]], "bad support entry [0, 1.0]"),
            ([["0", 1]], "bad support entry ['0', 1]"),
            ([[0, 1, 2]], "bad support entry [0, 1, 2]"),
            ([{"u": 0, "v": 1}], "bad support entry {'u': 0, 'v': 1}"),
        ],
        ids=["not-a-list", "bool", "float", "string", "triple", "object"],
    )
    def test_a_malformed_entry_is_invalid_input(self, raw, message):
        with pytest.raises(InvalidInput, match=re.escape(message)):
            support_from_json_obj({"edges": [], "support": raw})


class TestDot:
    def test_contains_colored_edges(self):
        res = color_rc2(k23())
        text = to_dot(k23(), res.coloring)
        assert text.startswith("graph rc2 {")
        assert "0 -- 2" in text
        assert 'label="0"' in text

    def test_uses_vertex_labels_when_present(self):
        g = parse_edge_list("a b\nb c\nc a\n")
        res = color_rc2(g)
        text = to_dot(g, res.coloring)
        assert '0 [label="a"];' in text
        assert '2 [label="c"];' in text

    def test_escapes_quotes_and_backslashes_in_labels(self):
        g = parse_edge_list('a"x b\nb c\\\nc\\ a"x\n')
        assert g.labels == ('a"x', "b", "c\\")
        text = to_dot(g, color_rc2(g).coloring)
        assert r'0 [label="a\"x"];' in text
        assert r'2 [label="c\\"];' in text
