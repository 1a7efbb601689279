"""The construction trace: per-level deltas, their snapshots, their text.

``ColoringResult.to_json_text`` writes each level of the trace as its
delta: its ear, the edges it colors and the color-map entries it adds.
Here the parsed deltas are folded level by level and compared with
snapshot objects built from the steps folded with ``TraceStep.apply``
(``fold_levels``); the untraced head, with the result's support when it
has one, is compared with ``canonical_json`` of a reference object, and the
deltas are checked to color each edge of the minimalized subgraph once,
which is then the support unless it is the whole graph.  The snapshot
reference ``reference_obj`` is also what ``tests/test_pinned_colorings.py``
hashes.  A snapshot also names each level's recycled color and fresh
colors, which both read off the level's edges (``derived``).
"""

import dataclasses
import json
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from rc2.coloring import color_rc2
from rc2.corpus import standard_corpus
from rc2.generators import complete_bipartite_graph, random_two_connected
from rc2.graphs import canonical_json, edge
from rc2.minimalize import spanning_minimally_two_connected
from rc2.reports import DEFAULT_GUARD
from rc2.verify import check_induction_invariants

from .common import fold_levels


def snapshot_obj(assign, color_map, ear, recycled_color, color_names) -> dict:
    """One level's full snapshot: the colored subgraph so far, the color
    map so far, and the level's own ear, recycled color and color names."""
    return {
        "vertices": sorted({x for e in assign for x in e}),
        "edges": [list(e) for e in sorted(assign)],
        "coloring": [[u, v, assign[u, v]] for u, v in sorted(assign)],
        "color_map": {str(v): c for v, c in color_map.items()},
        "ear": list(ear),
        "recycled_color": recycled_color,
        "color_names": {str(i): name for i, name in color_names.items()},
    }


def derived(ear, colored, older_colors: int):
    """A level's recycled color and fresh color names, read off its edges:
    after the first level, the color on the ear's edge at its larger end,
    and the colors past the ``older_colors`` ones, named x1... on the first
    level and y1... on each later one."""
    if not older_colors:
        return None, {c: f"x{c + 1}" for c in sorted(set(colored.values()))}
    vq = max(ear[0], ear[-1])
    recycled = colored[edge(vq, ear[-2] if ear[-1] == vq else ear[1])]
    fresh = sorted({c for c in colored.values() if c >= older_colors})
    return recycled, {c: f"y{c - older_colors + 1}" for c in fresh}


def reference_obj(result, include_trace: bool) -> dict:
    """The result with one full snapshot per level of the trace."""
    obj = {
        "colors": result.coloring.color_count,
        "strategy": result.strategy,
        "edges": [{"u": u, "v": v, "color": c} for (u, v), c in sorted(result.coloring.assignment.items())],
    }
    if include_trace and result.trace is not None:
        obj["trace"] = []
        older_colors = 0
        for s, (assign, color_map) in zip(result.trace, fold_levels(result.trace)):
            ear = s.ear.vertices
            obj["trace"].append(
                snapshot_obj(assign, color_map, ear, *derived(ear, s.colored, older_colors))
            )
            older_colors = len(set(assign.values()))
    return obj


def fold_json_trace(trace: list) -> list[dict]:
    """The snapshots of a parsed JSON trace, folded level by level."""
    assign: dict[tuple[int, int], int] = {}
    color_map: dict[str, int] = {}
    snapshots = []
    for level in trace:
        assert set(level) == {"ear", "colored", "mapped"}
        colored = {(u, v): c for u, v, c in level["colored"]}
        names = derived(level["ear"], colored, len(set(assign.values())))
        assign.update(colored)
        color_map.update(level["mapped"])
        snapshots.append(snapshot_obj(assign, color_map, level["ear"], *names))
    return snapshots


def assert_renders_like_the_reference(result):
    head = reference_obj(result, include_trace=False)
    if result.support is not None:
        head["support"] = [list(e) for e in sorted(result.support)]
    assert result.to_json_text() == canonical_json(head)
    assert result.to_json_obj() == head
    text = result.to_json_text(include_trace=True)
    obj = json.loads(text)
    assert text == canonical_json(obj)
    assert result.to_json_obj(include_trace=True) == obj
    trace = obj.pop("trace", None)
    assert obj == head
    assert (trace is None) == (result.trace is None)
    if trace is not None:
        assert all(level["colored"] == sorted(level["colored"]) for level in trace)
        assert fold_json_trace(trace) == reference_obj(result, include_trace=True)["trace"]


def string_order_differs(result) -> bool:
    """Some level's color map sorts differently as strings than as numbers."""
    return any(
        sorted(color_map, key=str) != sorted(color_map)
        for _, color_map in fold_levels(result.trace or ())
    )


@given(st.integers(12, 40), st.integers(1, 6), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_trace_text_matches_snapshot_objects_on_random_graphs(n, ears, seed):
    assert_renders_like_the_reference(color_rc2(random_two_connected(n, ears, seed), with_trace=True))


def test_trace_text_matches_snapshot_objects_on_the_corpus():
    """The corpus, and K_{2,140}: the benchmark's longest trace."""
    graphs = [g for _, g in standard_corpus()] + [complete_bipartite_graph(2, 140)]
    results = [color_rc2(g, with_trace=True) for g in graphs]
    for result in results:
        assert_renders_like_the_reference(result)
    assert any(string_order_differs(r) for r in results)


def test_damaged_last_level_renders_like_its_snapshot():
    """The last level recolors an edge an older level colored and
    overrides the mapped color of a vertex it does not map."""
    for _, g in standard_corpus():
        result = color_rc2(g, with_trace=True)
        if result.trace is not None and len(result.trace) > 1 and string_order_differs(result):
            break
    first, *_, last = result.trace
    _, before_map = list(fold_levels(result.trace))[-2]
    older = min(first.colored)
    kept = min(x for x in before_map if x not in last.mapped)
    assert older not in last.colored
    damaged = dataclasses.replace(
        last,
        colored={**last.colored, older: 99},
        mapped={**last.mapped, kept: 98},
    )
    broken = dataclasses.replace(result, trace=result.trace[:-1] + (damaged,))
    *_, (assign, color_map) = fold_levels(broken.trace)
    assert assign[older] == 99
    assert color_map[kept] == 98
    assert_renders_like_the_reference(broken)
    trace = broken.to_json_obj(include_trace=True)["trace"]
    assert [*older, 99] in trace[-1]["colored"]
    assert trace[-1]["mapped"][str(kept)] == 98
    *_, before_last, last_level = fold_json_trace(trace)
    assert [*older, 99] in last_level["coloring"]
    assert [*older, first.colored[older]] in before_last["coloring"]


def test_each_minimal_edge_is_colored_at_exactly_one_level():
    replayed = 0
    graphs = [g for _, g in standard_corpus()] + [complete_bipartite_graph(2, 80)]
    for g in graphs:
        result = color_rc2(g, with_trace=True)
        if result.trace is None:
            continue
        h = spanning_minimally_two_connected(g)
        counts = Counter(e for step in result.trace for e in step.colored)
        assert counts == Counter(h.edges)
        assert sum(len(step.colored) for step in result.trace) == h.edge_count
        assert result.support == (None if h.edges == g.edges else h.edges)
        if DEFAULT_GUARD.refusal(g.vertex_count, g.edge_count) is None:
            report = check_induction_invariants(result, g)
            assert dict(report.witnesses)["levels_checked"] == len(result.trace)
            replayed += 1
    assert replayed == 98
