"""Hypothesis strategies for graph-valued properties."""

import itertools

from hypothesis import assume
from hypothesis import strategies as st

from rc2 import Graph, spanning_minimally_two_connected
from rc2.graphs import is_cycle_graph
from rc2.generators import random_two_connected


@st.composite
def two_connected_graphs(draw, min_n: int = 4, max_n: int = 9):
    """Random 2-connected graphs built from a cycle plus glued ears."""
    n = draw(st.integers(min_n, max_n))
    ears = draw(st.integers(1, n - 3))
    seed = draw(st.integers(0, 10**6))
    return random_two_connected(n, ears, seed)


@st.composite
def dense_two_connected_graphs(draw, min_n: int = 5, max_n: int = 14):
    """Random 2-connected graphs with more than 2n - 2 edges, so that the
    carving the minimalizer starts from drops at least one: a drawn
    2-connected graph with non-edges added, which keeps it 2-connected."""
    g = draw(two_connected_graphs(min_n, max_n))
    n = g.vertex_count
    missing = [e for e in itertools.combinations(range(n), 2) if e not in g.edges]
    extra = draw(st.lists(st.sampled_from(missing), min_size=2 * n - 1 - g.edge_count, unique=True))
    return Graph.from_edges(n, g.edges | set(extra))


@st.composite
def minimal_noncycle_graphs(draw, max_n: int = 20):
    """Minimally 2-connected graphs that are not plain cycles.

    The minimalizer turns many drawn graphs into a cycle, and those draws
    are rejected.  Most kept shapes are a cycle plus one ear; on up to 20
    vertices about one in ten has two or more ears after the first.
    """
    g = spanning_minimally_two_connected(draw(two_connected_graphs(max_n=max_n)))
    assume(not is_cycle_graph(g))
    return g


@st.composite
def colorings_of(draw, g: Graph, max_colors: int = 6):
    """An arbitrary edge color assignment for a fixed graph, renumbered so
    the used colors are exactly 0..k-1 (what EdgeColoring.from_assignment
    expects)."""
    edges = sorted(g.edges)
    raw = draw(
        st.lists(
            st.integers(0, max_colors - 1), min_size=len(edges), max_size=len(edges)
        )
    )
    dense: dict[int, int] = {}
    for value in raw:
        if value not in dense:
            dense[value] = len(dense)
    return {e: dense[v] for e, v in zip(edges, raw)}
