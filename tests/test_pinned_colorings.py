"""Pinned colorings: the construction's output, byte for byte.

``PINNED_DIGEST`` is the sha256 of the canonical traced ``color_rc2`` JSON
over the corpus and a few larger graphs, one line per graph.  Each line is
``canonical_json`` of ``reference_obj`` in ``tests/test_trace.py``, which
writes one full snapshot per level, not the per-level deltas of
``rc2 color --trace``.  That test module checks that the deltas fold back
into these snapshots, so the digest pins the construction independently of
the trace format.  Any change to which subgraph, ears or colors the
construction picks changes the digest; a change that means to do so
records the new digest and says in CHANGES.md why the colorings changed.
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
