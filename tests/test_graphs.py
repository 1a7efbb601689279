import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rc2 import Graph, Path, edge, graph_from_json, graph_to_json
from rc2.errors import InvalidInput, PreconditionViolated
from rc2.graphs import (
    arcs_between,
    canonical_json,
    cycle_edges,
    degree_two_set,
    edge_list_text,
    find_cycle,
    is_cycle_graph,
    is_two_connected,
    normalize_cycle,
    parse_edge_list,
    rooted_cycle,
)

from .common import c6_with_chord, cycle, diamond, k4, k23, prism
from .strategies import two_connected_graphs


class TestGraphBasics:
    def test_edge_normalizes_order(self):
        assert edge(3, 1) == (1, 3)
        assert edge(1, 3) == (1, 3)

    def test_from_edges_rejects_self_loop(self):
        with pytest.raises(InvalidInput, match="self-loop at vertex 0"):
            Graph.from_edges(3, [(0, 0)])

    def test_from_edges_rejects_out_of_range(self):
        with pytest.raises(InvalidInput, match=r"edge \(0, 3\) out of range for n=3"):
            Graph.from_edges(3, [(0, 3)])

    def test_adjacency_is_sorted(self):
        g = k23()
        assert g.adjacency()[0] == [2, 3, 4]
        assert g.adjacency()[2] == [0, 1]

    def test_adjacency_is_built_once(self):
        g = k23()
        assert g.adjacency() is g.adjacency()
        assert g == k23() and hash(g) == hash(k23())

    def test_degrees(self):
        g = k23()
        assert [len(nbrs) for nbrs in g.adjacency().values()] == [3, 3, 2, 2, 2]
        assert degree_two_set(g) == frozenset({2, 3, 4})


class TestPath:
    def test_rejects_repeats(self):
        with pytest.raises(InvalidInput, match="repeated vertex in path"):
            Path((0, 1, 0))

    def test_edges_and_interior(self):
        p = Path((2, 0, 1, 3))
        assert p.first == 2 and p.last == 3
        assert p.interior() == (0, 1)
        assert p.edges() == [(0, 2), (0, 1), (1, 3)]


class TestParseEdgeList:
    def test_digit_mode(self):
        g = parse_edge_list("0 1\n1 2\n2 0\n")
        assert g.vertex_count == 3
        assert g.edges == frozenset({(0, 1), (1, 2), (0, 2)})
        assert g.labels is None

    def test_name_mode_ids_by_first_appearance(self):
        g = parse_edge_list("alpha beta\nbeta gamma\ngamma alpha\n")
        assert g.vertex_count == 3
        assert g.labels == ("alpha", "beta", "gamma")
        assert g.edges == frozenset({(0, 1), (1, 2), (0, 2)})

    def test_blank_lines_and_comments_skipped(self):
        g = parse_edge_list("# triangle\n0 1\n\n1 2\n0 2\n")
        assert g.edge_count == 3

    def test_wrong_token_count_reports_line(self):
        with pytest.raises(InvalidInput, match="line 2"):
            parse_edge_list("0 1\n1 2 3\n")

    def test_self_loop_reports_line(self):
        with pytest.raises(InvalidInput, match="line 3"):
            parse_edge_list("0 1\n1 2\n2 2\n")

    def test_duplicate_edge_reports_line(self):
        with pytest.raises(InvalidInput, match="line 2"):
            parse_edge_list("0 1\n1 0\n")

    def test_rejects_isolated_vertices(self):
        with pytest.raises(InvalidInput, match="isolated"):
            parse_edge_list("1 2\n2 3\n1 3\n")

    def test_rejects_a_huge_id_without_per_vertex_work(self):
        with pytest.raises(InvalidInput, match="isolated"):
            parse_edge_list("0 1000000000\n")

    def test_non_ascii_digits_are_names(self):
        g = parse_edge_list("\u00b2 1\n1 2\n2 \u00b2\n")
        assert g.labels == ("\u00b2", "1", "2")

    def test_round_trip_through_text(self):
        g = c6_with_chord()
        assert parse_edge_list(edge_list_text(g)).edges == g.edges

    def test_text_rendering_uses_numeric_ids(self):
        g = parse_edge_list("a b\nb c\nc a\n")
        again = parse_edge_list(edge_list_text(g))
        assert again.edges == g.edges
        assert again.labels is None


class TestJson:
    def test_round_trip(self):
        g = prism()
        assert graph_from_json(graph_to_json(g)).edges == g.edges

    def test_missing_keys(self):
        with pytest.raises(InvalidInput, match="needs keys"):
            graph_from_json('{"edges": []}')

    def test_rejects_duplicate_edges(self):
        with pytest.raises(InvalidInput, match=r"duplicate edge \(0, 1\)"):
            graph_from_json('{"n": 3, "edges": [[0, 1], [1, 0]]}')

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 3, "edges": [[0, true], [1, 2], [0, 2]]}',
            '{"n": 3, "edges": [[false, 1], [1, 2], [0, 2]]}',
            '{"n": true, "edges": [[0, 1]]}',
        ],
    )
    def test_rejects_bool_ids_and_count(self, text):
        with pytest.raises(InvalidInput, match="malformed|bad edge"):
            graph_from_json(text)

    def test_rejects_isolated_vertices(self):
        with pytest.raises(InvalidInput, match="isolated"):
            graph_from_json('{"n": 4, "edges": [[0, 1], [1, 2], [0, 2]]}')

    def test_rejects_a_huge_n_without_per_vertex_work(self):
        with pytest.raises(InvalidInput, match="isolated"):
            graph_from_json('{"n": 1000000000, "edges": [[0, 1], [1, 2], [0, 2]]}')

    def test_empty_graph_is_accepted(self):
        assert graph_from_json('{"n": 0, "edges": []}').vertex_count == 0

    def test_canonical_json_is_compact_and_sorted(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


@pytest.mark.parametrize(
    "n, edges, line, message",
    [
        (3, [(0, 1), (1, 2), (2, 2)], 3, "self-loop at vertex 2"),
        (3, [(0, 1), (1, 2), (2, 0), (1, 0)], 4, "duplicate edge (0, 1)"),
        (4, [(1, 2), (2, 3), (1, 3)], None, "isolated vertices: n=4 but the edges touch only 3"),
    ],
    ids=["self-loop", "duplicate", "isolated"],
)
def test_both_parsers_report_a_fault_alike(n, edges, line, message):
    with pytest.raises(InvalidInput) as from_json:
        graph_from_json(json.dumps({"n": n, "edges": edges}))
    with pytest.raises(InvalidInput) as from_text:
        parse_edge_list("".join(f"{u} {v}\n" for u, v in edges))
    assert str(from_json.value) == message
    assert str(from_text.value) == (message if line is None else f"line {line}: {message}")


def _two_connected_by_definition(g: Graph) -> bool:
    """Reference check: connected, 3+ vertices, and still connected after
    deleting any single vertex."""
    if g.vertex_count < 3:
        return False

    def connected(vertices, edges):
        vertices = list(vertices)
        if not vertices:
            return False
        adj = {v: [] for v in vertices}
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        seen = {vertices[0]}
        stack = [vertices[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(vertices)

    all_vertices = set(range(g.vertex_count))
    if not connected(all_vertices, g.edges):
        return False
    for v in all_vertices:
        rest = all_vertices - {v}
        kept = [e for e in g.edges if v not in e]
        if not connected(rest, kept):
            return False
    return True


class TestConnectivity:
    def test_known_two_connected(self):
        for g in (k23(), k4(), diamond(), prism(), cycle(5)):
            assert is_two_connected(g)

    def test_path_graph_is_not(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert not is_two_connected(g)

    def test_two_triangles_sharing_a_vertex(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        assert not is_two_connected(g)
        # The shared vertex as the search's root: a cut vertex with two children.
        g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])
        assert not is_two_connected(g)

    def test_disjoint_cycles_are_neither_cycle_graphs_nor_two_connected(self):
        two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        c3_and_c4 = Graph.from_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)])
        for g in (two_triangles, c3_and_c4):
            # Every vertex has degree 2 and n == m, and there is no cut vertex:
            # only the search reaching every vertex tells these from one cycle.
            assert not is_cycle_graph(g)
            assert not is_two_connected(g)

    @given(st.integers(0, 500))
    @settings(max_examples=60)
    def test_matches_definition_on_random_subgraphs(self, seed):
        """Drop random edges from a random graph and compare the lowpoint
        test against the delete-one-vertex definition."""
        import random

        rng = random.Random(seed)
        n = rng.randint(3, 7)
        pairs = list(itertools.combinations(range(n), 2))
        edges = [e for e in pairs if rng.random() < 0.55]
        covered = {v for e in edges for v in e}
        if covered != set(range(n)):
            return
        g = Graph.from_edges(n, edges)
        assert is_two_connected(g) == _two_connected_by_definition(g)


class TestCycleUtilities:
    def test_is_cycle_graph(self):
        assert is_cycle_graph(cycle(4))
        assert not is_cycle_graph(c6_with_chord())
        assert not is_cycle_graph(Graph.from_edges(3, [(0, 1), (1, 2)]))

    def test_cycle_order_starts_at_zero_toward_smaller_neighbor(self):
        # find_cycle on a cycle graph returns its whole cyclic order.
        assert find_cycle(cycle(5)) == (0, 1, 2, 3, 4)

    @given(st.integers(3, 40).flatmap(lambda n: st.permutations(list(range(n)))))
    @settings(max_examples=60)
    def test_cycle_order_on_shuffled_ids_walks_to_smaller_neighbours(self, ring):
        g = Graph.from_edges(len(ring), cycle_edges(ring))
        adj = g.adjacency()
        walk = [0]
        while len(walk) < g.vertex_count:
            walk.append(min(w for w in adj[walk[-1]] if w not in walk))
        assert find_cycle(g) == tuple(walk)

    @given(st.permutations(list(range(7))), st.integers(0, 6))
    @settings(max_examples=60)
    def test_rooted_cycle_starts_at_start_toward_smaller_neighbour(self, verts, start):
        verts = tuple(verts)
        rooted = rooted_cycle(verts, start)
        assert rooted[0] == start
        turns = {verts[k:] + verts[:k] for k in range(len(verts))}
        assert rooted in turns | {tuple(reversed(t)) for t in turns}
        i = verts.index(start)
        assert rooted[1] == min(verts[i - 1], verts[(i + 1) % len(verts)])

    def test_cycle_edges_includes_wraparound(self):
        assert set(cycle_edges((0, 1, 2, 3))) == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_normalize_cycle_examples(self):
        assert normalize_cycle((2, 1, 0, 3)) == (0, 1, 2, 3)
        assert normalize_cycle((1, 0, 5, 4)) == (0, 1, 4, 5)

    @given(st.permutations(list(range(6))), st.integers(0, 5), st.booleans())
    @settings(max_examples=60)
    def test_normalize_cycle_invariant_under_rotation_reflection(self, verts, rot, flip):
        verts = tuple(verts)
        turned = verts[rot:] + verts[:rot]
        if flip:
            turned = tuple(reversed(turned))
        assert normalize_cycle(turned) == normalize_cycle(verts)
        norm = normalize_cycle(verts)
        assert norm[0] == 0
        assert normalize_cycle(norm) == norm

    def test_find_cycle_on_acyclic_raises(self):
        with pytest.raises(PreconditionViolated, match="graph has no cycle"):
            find_cycle(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))

    def test_find_cycle_returns_a_real_cycle(self):
        g = c6_with_chord()
        cyc = find_cycle(g)
        assert len(cyc) >= 3
        assert set(cycle_edges(cyc)) <= g.edges

    def test_arcs_between(self):
        fwd, bwd = arcs_between((0, 1, 2, 3, 4, 5), 1, 4)
        assert fwd == (1, 2, 3, 4)
        assert bwd == (1, 0, 5, 4)

    @given(st.permutations(list(range(7))), st.integers(0, 6), st.integers(0, 6))
    @settings(max_examples=60)
    def test_arcs_partition_the_cycle(self, verts, i, j):
        if i == j:
            return
        verts = tuple(verts)
        a, b = verts[i], verts[j]
        fwd, bwd = arcs_between(verts, a, b)
        assert fwd[0] == bwd[0] == a
        assert fwd[-1] == bwd[-1] == b
        assert set(fwd) | set(bwd) == set(verts)
        assert set(fwd) & set(bwd) == {a, b}

    @given(two_connected_graphs())
    @settings(max_examples=40)
    def test_random_graphs_are_two_connected(self, g):
        assert _two_connected_by_definition(g)
