"""Connectivity, cycle graphs, minimality and the oracle's path index checked
against networkx, an independent implementation.  Skipped where networkx is
not installed."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rc2 import Graph, RainbowIndex, spanning_minimally_two_connected
from rc2.generators import complete_bipartite_graph, complete_graph, wheel_graph
from rc2.graphs import carving, is_cycle_graph, is_two_connected

from .strategies import dense_two_connected_graphs, two_connected_graphs

nx = pytest.importorskip("networkx")


def to_nx(g: Graph):
    h = nx.Graph()
    h.add_nodes_from(range(g.vertex_count))
    h.add_edges_from(g.edges)
    return h


@given(st.integers(0, 10**6))
@settings(max_examples=150)
def test_is_two_connected_matches_networkx(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 9)
    p = rng.uniform(0.2, 0.9)
    g = Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
    assert is_two_connected(g) == nx.is_biconnected(to_nx(g))


@st.composite
def arbitrary_graphs(draw, max_n: int = 14):
    """Any simple graph: disconnected, trees and isolated vertices included."""
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    return Graph.from_edges(n, draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else [])


@given(st.one_of(arbitrary_graphs(), two_connected_graphs(max_n=12)))
@settings(max_examples=200)
@example(Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))
@example(Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)]))
@example(Graph.from_edges(2, [(0, 1)]))
def test_two_connected_and_cycle_verdicts_match_networkx(g):
    """On any graph; networkx calls K2 biconnected, rc2 asks for 3 vertices."""
    h = to_nx(g)
    n = g.vertex_count
    assert is_two_connected(g) == (n >= 3 and nx.is_biconnected(h))
    two_regular = all(d == 2 for _, d in h.degree)
    assert is_cycle_graph(g) == (n >= 3 and nx.is_connected(h) and two_regular)


def assert_minimally_two_connected(g: Graph):
    h = to_nx(g)
    assert nx.is_biconnected(h)
    for e in g.edges:
        assert not nx.is_biconnected(nx.restricted_view(h, [], [e])), e


@given(two_connected_graphs(max_n=12))
@settings(max_examples=80)
def test_minimalizer_output_is_minimal_by_networkx(g):
    assert_minimally_two_connected(spanning_minimally_two_connected(g))


@pytest.mark.parametrize("n", [5, 7, 9])
def test_minimalized_complete_graph_is_minimal_by_networkx(n):
    g = Graph.from_edges(n, itertools.combinations(range(n), 2))
    assert_minimally_two_connected(spanning_minimally_two_connected(g))


def assert_biconnected_certificate(g: Graph):
    """The carving is a sparse certificate of g's 2-connectivity: a spanning
    subgraph with at most 2n - 3 edges that networkx finds biconnected."""
    c = Graph(g.vertex_count, carving(g))
    assert c.edges <= g.edges
    assert c.edge_count <= 2 * g.vertex_count - 3
    assert nx.is_biconnected(to_nx(c))


@pytest.mark.parametrize("n", [5, 6, 9, 16])
def test_complete_graph_certificate_is_biconnected_by_networkx(n):
    assert_biconnected_certificate(complete_graph(n))


@pytest.mark.parametrize("a, b", [(3, 3), (3, 5), (4, 4), (4, 7), (6, 6)])
def test_complete_bipartite_certificate_is_biconnected_by_networkx(a, b):
    assert_biconnected_certificate(complete_bipartite_graph(a, b))


@given(dense_two_connected_graphs())
@settings(max_examples=80)
def test_dense_graph_certificate_is_biconnected_by_networkx(g):
    assert_biconnected_certificate(g)


@given(two_connected_graphs(max_n=14))
@settings(max_examples=80)
def test_sparse_graph_certificate_is_biconnected_by_networkx(g):
    assert_biconnected_certificate(g)


def assert_nearest_first(g: Graph, target: int):
    """Each list of ``adjacency_toward(target)`` holds the vertex's
    neighbours, by networkx hop distance to the target and then by id, with
    the vertices that cannot reach it counted as farthest."""
    dist = nx.shortest_path_length(to_nx(g), target=target)
    far = g.vertex_count
    before = {x: list(nbrs) for x, nbrs in g.adjacency().items()}
    toward = g.adjacency_toward(target)
    assert sorted(toward) == list(range(g.vertex_count))
    for x, nbrs in toward.items():
        assert sorted(nbrs) == before[x]
        assert nbrs == sorted(nbrs, key=lambda y: (dist.get(y, far), y))
    assert g.adjacency_toward(target) is toward
    assert g.adjacency() == before


@given(st.one_of(arbitrary_graphs(), two_connected_graphs(max_n=12)), st.data())
@settings(max_examples=150)
def test_adjacency_toward_orders_by_networkx_distance(g, data):
    assert_nearest_first(g, data.draw(st.integers(0, g.vertex_count - 1)))


def test_adjacency_toward_on_a_disconnected_graph():
    """A 4-cycle 0-1-2-3 with chord 0-2, and a triangle 4-5-6 that cannot
    reach the target 3, so its lists keep ascending ids."""
    g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (4, 5), (5, 6), (4, 6)])
    assert_nearest_first(g, 3)
    assert g.adjacency_toward(3) == {
        0: [3, 2, 1], 1: [0, 2], 2: [3, 0, 1], 3: [0, 2], 4: [5, 6], 5: [4, 6], 6: [4, 5]
    }


def assert_index_matches_networkx(g: Graph):
    """Per pair, the index's paths as edge-id sets are those of
    ``nx.all_simple_paths``, each once, and ``disjoint_pairs`` holds exactly
    the pairs of them whose interiors share no vertex."""
    index = RainbowIndex(g)
    eid = {e: i for i, e in enumerate(index.edge_list)}
    by_pair = {pair: [] for pair in itertools.combinations(range(g.vertex_count), 2)}
    inner = []
    for gid, eids in enumerate(index.path_edges):
        # A path's ends lie on one of its edges, its interior vertices on two.
        on = Counter(x for e in eids for x in index.edge_list[e])
        by_pair[tuple(sorted(x for x, k in on.items() if k == 1))].append(gid)
        inner.append({x for x, k in on.items() if k == 2})
    h = to_nx(g)
    assert list(index.disjoint_pairs) == list(by_pair)
    for (u, v), gids in by_pair.items():
        want = sorted(
            sorted(eid[tuple(sorted(step))] for step in itertools.pairwise(p))
            for p in nx.all_simple_paths(h, u, v)
        )
        assert sorted(sorted(index.path_edges[i]) for i in gids) == want, (u, v)
        disjoint = [(i, j) for i, j in itertools.combinations(gids, 2) if not inner[i] & inner[j]]
        assert sorted(index.disjoint_pairs[u, v]) == disjoint, (u, v)


@given(two_connected_graphs(max_n=8))
@settings(max_examples=60)
def test_path_index_matches_networkx(g):
    assert_index_matches_networkx(g)


@pytest.mark.parametrize("g", [complete_graph(7), wheel_graph(10)], ids=["K7", "W10"])
def test_path_index_of_a_dense_graph_matches_networkx(g):
    assert_index_matches_networkx(g)
