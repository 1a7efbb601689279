"""Shared graphs, the cached census and frozen expected values for the test suite.

The colorings and decompositions recorded here were derived by hand from
the construction rules and double-checked against the brute-force oracle
before being frozen.  Tests compare implementation output against these
tables; none of them were generated by the code under test.
"""

from functools import cache
from unittest import mock

from rc2 import Graph, brute_force_rc2, census_small_graphs


def k23() -> Graph:
    """Complete bipartite K_{2,3}: parts {0,1} and {2,3,4}."""
    return Graph.from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])


def k24() -> Graph:
    return Graph.from_edges(
        6, [(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5)]
    )


def k4() -> Graph:
    return Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def diamond() -> Graph:
    """K4 minus one edge; the smallest 2-connected non-cycle."""
    return Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def c6_with_chord() -> Graph:
    return Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)])


def prism() -> Graph:
    """Two triangles joined by a perfect matching.  2-connected, all
    vertices degree 3, so not minimally 2-connected."""
    return Graph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    )


def theta_grid() -> Graph:
    """A 6-cycle with three crossing ears.  2-connected but not minimal;
    notable because the ear repair loop fires on it repeatedly before the
    decomposition gives up, and because its minimalization is Hamiltonian."""
    return Graph.from_edges(
        9,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
         (1, 6), (6, 4), (2, 7), (7, 5), (3, 8), (8, 0)],
    )


def four_hub() -> Graph:
    """Minimally 2-connected: four branch vertices joined by five
    suspended paths (0-4-2, 0-5-2, 1-6-3, 1-7-3, 2-8-3) plus edge (0,1)."""
    return Graph.from_edges(
        9,
        [(0, 1), (0, 4), (4, 2), (0, 5), (5, 2),
         (1, 6), (6, 3), (1, 7), (7, 3), (2, 8), (8, 3)],
    )


def wheel(n: int) -> Graph:
    """Wheel on n vertices: hub 0, rim 1..n-1."""
    rim = [(i, i + 1) for i in range(1, n - 1)] + [(1, n - 1)]
    return Graph.from_edges(n, rim + [(0, i) for i in range(1, n)])


@cache
def census_run(n: int):
    """The census on n vertices, run once per test session (n = 6 takes
    seconds): its rows, and how many times it called the brute force."""
    with mock.patch("rc2.oracle.brute_force_rc2", wraps=brute_force_rc2) as counted:
        rows = tuple(census_small_graphs(n))
    return rows, counted.call_count


def census_rows(n: int):
    return census_run(n)[0]


# ---------------------------------------------------------------------------
# frozen expected values


# Inductive coloring of K_{2,3}: base cycle (0,2,1,3), first ear (0,4,1).
K23_COLORING = {
    (0, 2): 0, (1, 2): 1, (1, 3): 2, (0, 3): 3, (0, 4): 2, (1, 4): 3,
}
K23_COLOR_MAP = {0: 0, 1: 1}

# Base steps (base cycle plus first ear), from the working order w_1..w_L:
# the base cycle from the first ear's smaller endpoint, then the ear's
# interior; s is the cycle length and w_p the ear's far endpoint.  Edge
# w_j w_{j+1} takes color j-1 (j < s, and s < j < L); w_s w_1 and w_L w_p
# share s-1; w_1 w_{s+1} takes p-1.  A branch vertex at position j maps to
# j-1 before its stretch's skip position and j-2 after it.
#
# K_{2,3}: order (0,2,1,3,4), s=4, p=3, skips 2, 4, 5 (vertices 2, 3, 4).
# The base level is the whole graph, so its step is K23_COLORING and
# K23_COLOR_MAP above, with ear (0,4,1).
#
# theta(3,3,3): order (0,2,3,1,5,4,6,7), s=6, p=4, skips 2, 5, 7 (vertices
# 2, 5, 6); ear (0,6,7,1).  Hubs 0 (position 1) and 1 (position 4) are the
# branch vertices.
THETA333_BASE_COLORING = {
    (0, 2): 0, (2, 3): 1, (1, 3): 2, (1, 5): 3, (4, 5): 4, (6, 7): 6,
    (0, 4): 5, (0, 6): 3, (1, 7): 5,
}
THETA333_BASE_COLOR_MAP = {0: 0, 1: 2}

# K_{2,4} extends K_{2,3} by the ear (0,5,1); color 0 is recycled on (1,5).
K24_COLORING = {**K23_COLORING, (0, 5): 4, (1, 5): 0}
K24_COLOR_MAP = {0: 4, 1: 1}
K24_RECYCLED = 0

# Hamiltonian-plus-chord coloring of C6 with chord (0,3).
C6_CHORD_COLORING = {
    (0, 1): 0, (3, 4): 0, (0, 5): 1, (2, 3): 1, (1, 2): 2, (4, 5): 3, (0, 3): 4,
}

# K4 minimalizes to the 4-cycle (0,2,1,3); chord (0,1) drives the scheme.
K4_COLORING = {
    (0, 2): 0, (1, 3): 0, (0, 3): 1, (1, 2): 1, (0, 1): 2, (2, 3): 0,
}

# Exact minima from the brute-force oracle, next to what the construction
# spends.  The construction is a bounded heuristic, not an optimizer.
EXACT_RC2 = {
    "k23": (3, 4),
    "k4": (2, 3),
    "diamond": (3, 3),
    "w5": (2, 4),
}

# Labeled 2-connected graph counts on 3 to 6 vertices.  Independently
# known (A013922); the census must reproduce them exactly.
TWO_CONNECTED_COUNTS = {3: 1, 4: 10, 5: 238, 6: 11368}

# The same graphs up to isomorphism (A002218): the triangle; C4, the diamond
# and K4; ten classes on five vertices and 56 on six.
TWO_CONNECTED_CLASS_COUNTS = {3: 1, 4: 3, 5: 10, 6: 56}
