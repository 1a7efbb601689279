"""Pinned colorings: the construction's output, byte for byte.

The digest below is the sha256 of the canonical traced ``color_rc2`` JSON
over the corpus and a few larger graphs, recorded before the minimalizer
and the ear fans moved onto the shared Menger routine.  It is computed
from ``canonical_json`` of ``reference_obj`` in ``tests/test_trace.py``,
which writes one full snapshot per level: the form ``rc2 color --trace``
wrote until its trace became per-level deltas.  That test module checks
that the deltas fold back into these snapshots, so the digest pins the
construction independently of the trace format.  Any change to which
subgraph, ears or colors the construction picks changes the digest; a PR
that means to change them records the new digest and says why.  It was
recorded again when the minimalizer began to sweep a two-forest sparse
certificate of every graph with more than 2n - 2 edges: the corpus's K5, K6,
K7, K_{3,5}, K_{4,4}, K_{4,5} and K_{5,5}, and K30 here, now minimalize to
other subgraphs and get other colorings with the same color counts.  It was
recorded again when the minimalizer began to sweep the Khuller-Vishkin
carving of every graph: 39 corpus graphs (all six wheels, K4 to K7, K_{3,3}
to K_{5,5} and 23 random graphs) and K30, W100 and both random graphs here
minimalize to other subgraphs, with the same color counts.  K_n and the
wheels now carve to a Hamiltonian cycle.
"""

import hashlib

from rc2.coloring import color_rc2
from rc2.corpus import standard_corpus
from rc2.generators import complete_bipartite_graph, complete_graph, random_two_connected, wheel_graph
from rc2.graphs import canonical_json

from .test_trace import reference_obj

PINNED_DIGEST = "6c3c9aac8e3e642a3c3753371b2fbbbfc1d480daf459c23c680e2661c1758dd4"


def pinned_graphs():
    graphs = [g for _, g in standard_corpus()]
    graphs += [complete_bipartite_graph(2, 80), complete_graph(30), wheel_graph(100)]
    graphs += [random_two_connected(150, 50, seed) for seed in (11, 12)]
    return graphs


def colorings_digest(graphs) -> str:
    h = hashlib.sha256()
    for g in graphs:
        h.update(canonical_json(reference_obj(color_rc2(g, with_trace=True), include_trace=True)).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_colorings_match_the_pinned_digest():
    assert colorings_digest(pinned_graphs()) == PINNED_DIGEST
