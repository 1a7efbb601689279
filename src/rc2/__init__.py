"""Constructive rainbow 2-connection colorings for 2-connected graphs.

An edge coloring rainbow-2-connects a graph when every vertex pair is joined
by two rainbow paths (all edge colors distinct within a path) that share
only their endpoints.  This package builds such colorings constructively:
cycles need exactly n colors, every other 2-connected graph gets at most
n-1, via a minimally 2-connected spanning subgraph and an ear-by-ear
inductive coloring.  A verifier and an exact oracle keep the
construction honest on small graphs.
"""

from .coloring import (
    ColoringResult,
    EdgeColoring,
    TraceStep,
    color_cycle,
    color_hamiltonian_with_chord,
    color_minimally_two_connected,
    color_rc2,
    coloring_from_json_obj,
    to_dot,
)
from .corpus import standard_corpus
from .ears import (
    EarDecomposition,
    build_ear_decomposition,
    check_ear_conditions,
    ear_through_vertex,
    exchange_bad_arc,
)
from .errors import BudgetExceeded, InvalidInput, PreconditionViolated, Rc2Error
from .generators import FamilySpec, generate_family
from .graphs import (
    Graph,
    Path,
    canonical_json,
    degree_two_set,
    edge,
    edge_list_text,
    graph_from_json,
    graph_to_json,
    is_cycle_graph,
    is_two_connected,
    parse_edge_list,
)
from .menger import two_fan_to_subgraph
from .minimalize import (
    bollobas_structure_check,
    is_minimally_two_connected,
    spanning_minimally_two_connected,
)
from .oracle import brute_force_rc2, census_csv, census_small_graphs, exact_rc2
from .reports import DEFAULT_GUARD, SizeGuard, VerificationReport, Violation
from .verify import (
    RainbowIndex,
    check_induction_invariants,
    enumerate_rainbow_paths,
    has_two_internally_disjoint_rainbow_paths,
    is_rainbow_two_connected,
)

__version__ = "0.1.0"
