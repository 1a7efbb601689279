"""Hypothesis strategies for graph-valued properties."""

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
def minimal_noncycle_graphs(draw, max_n: int = 9):
    """Minimally 2-connected graphs that are not plain cycles."""
    g = spanning_minimally_two_connected(draw(two_connected_graphs(max_n=max_n)))
    if is_cycle_graph(g):
        # fall back to a known minimal non-cycle shape instead of rejecting
        g = Graph.from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
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
