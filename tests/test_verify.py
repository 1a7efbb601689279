import dataclasses
import hashlib
import importlib.util
import pathlib
import random
import re
import sys
from collections import deque
from functools import cache
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rc2 import (
    DEFAULT_GUARD,
    ColoringResult,
    EdgeColoring,
    Graph,
    Path,
    RainbowIndex,
    SizeGuard,
    TraceStep,
    check_induction_invariants,
    color_minimally_two_connected,
    color_rc2,
    edge,
    enumerate_rainbow_paths,
    has_two_internally_disjoint_rainbow_paths,
    is_rainbow_two_connected,
)
from rc2 import verify
from rc2.corpus import standard_corpus
from rc2.errors import InvalidInput, PreconditionViolated
from rc2.generators import complete_graph, random_two_connected, theta_graph, wheel_graph
from rc2.reports import failing

from .common import K23_COLORING, census_rows, cycle, fold_levels, k23, k24
from .strategies import colorings_of, two_connected_graphs
from .test_pinned_reports import merge_last_two_classes


def mono_c4():
    """C4 with every edge the same color: rainbow-2-connection fails."""
    g = cycle(4)
    coloring = EdgeColoring.from_assignment({e: 0 for e in g.edges})
    return g, coloring


def rainbow_c4():
    g = cycle(4)
    coloring = EdgeColoring.from_assignment(
        {(0, 1): 0, (1, 2): 1, (2, 3): 2, (0, 3): 3}
    )
    return g, coloring


def simple_paths(g, u, v):
    """Every simple u-v path, sorted, by a plain recursive walk."""
    adj = g.adjacency()
    out, path = [], [u]

    def walk(cur):
        for nxt in adj[cur]:
            if nxt == v:
                out.append(tuple(path) + (v,))
            elif nxt not in path:
                path.append(nxt)
                walk(nxt)
                path.pop()

    walk(u)
    return sorted(out)


def is_rainbow(coloring, p):
    cs = [coloring.assignment[edge(a, b)] for a, b in zip(p, p[1:])]
    return len(set(cs)) == len(cs)


def rainbow_simple_paths(g, coloring, u, v):
    """Every rainbow u-v path, nearest to v first: sorted by the key sequence
    ``(dist(x, v), x)`` of their vertices, with distances from a plain queue
    BFS over the edge set."""
    dist, queue = {v: 0}, deque([v])
    while queue:
        x = queue.popleft()
        for y in (b if a == x else a for a, b in g.edges if x in (a, b)):
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    paths = [p for p in simple_paths(g, u, v) if is_rainbow(coloring, p)]
    return sorted(paths, key=lambda p: [(dist[x], x) for x in p])


def dense_coloring(edges, values):
    """Renumber ``values`` to 0..k-1 in order of first use."""
    dense = {}
    for value in values:
        dense.setdefault(value, len(dense))
    return EdgeColoring.from_assignment({e: dense[x] for e, x in zip(edges, values)})


class TestEnumerateRainbowPaths:
    def test_monochromatic_opposite_pair_has_none(self):
        g, coloring = mono_c4()
        assert list(enumerate_rainbow_paths(g, coloring, 0, 2)) == []

    def test_single_edge_paths_are_rainbow(self):
        g, coloring = mono_c4()
        assert list(enumerate_rainbow_paths(g, coloring, 0, 1)) == [(0, 1)]

    def test_k23_pair_frozen(self):
        g = k23()
        coloring = EdgeColoring.from_assignment(K23_COLORING)
        assert list(enumerate_rainbow_paths(g, coloring, 2, 3)) == [(2, 0, 3), (2, 1, 3)]

    def test_forbidden_vertices(self):
        g, coloring = rainbow_c4()
        got = list(enumerate_rainbow_paths(g, coloring, 0, 2, forbidden_vertices=frozenset({1})))
        assert got == [(0, 3, 2)]

    def test_same_endpoints_rejected(self):
        g, coloring = rainbow_c4()
        with pytest.raises(InvalidInput, match="path endpoints must differ"):
            list(enumerate_rainbow_paths(g, coloring, 1, 1))

    @given(two_connected_graphs(max_n=7))
    @settings(max_examples=30)
    def test_agrees_with_filtered_simple_paths(self, g):
        """Cross-check the enumerator against all simple paths filtered by
        the rainbow predicate, order included, in both directions."""
        coloring = color_rc2(g).coloring
        for a, b in [(0, 1), (0, g.vertex_count - 1)]:
            for u, v in [(a, b), (b, a)]:
                expect = rainbow_simple_paths(g, coloring, u, v)
                assert list(enumerate_rainbow_paths(g, coloring, u, v)) == expect

    def test_long_rainbow_cycle_has_two_paths(self):
        """Path length is not bounded by the interpreter's recursion limit."""
        n = 1500
        g = cycle(n)
        coloring = EdgeColoring.from_assignment({e: i for i, e in enumerate(sorted(g.edges))})
        long_way = (0,) + tuple(range(n - 1, 0, -1))
        assert list(enumerate_rainbow_paths(g, coloring, 0, 1)) == [(0, 1), long_way]


class TestDisjointPairs:
    def test_mono_c4_fails(self):
        """The single edge 0-1 is the only rainbow 0-1 path; it avoids its
        own empty interior but is not its own partner."""
        g, coloring = mono_c4()
        assert has_two_internally_disjoint_rainbow_paths(g, coloring, 0, 1) is None

    def test_rainbow_c4_passes_with_witness(self):
        g, coloring = rainbow_c4()
        p, q = has_two_internally_disjoint_rainbow_paths(g, coloring, 0, 2)
        assert {p, q} == {(0, 1, 2), (0, 3, 2)}

    def test_witness_is_the_first_path_with_a_partner(self):
        """K5 with color 0 everywhere but (0, 2) = 1 and (1, 3) = 2, and the
        same graph and colors without the edge (2, 3), searched from 2 to 3.
        Every vertex but 3 lies one hop from 3 (2 lies two hops from it once
        (2, 3) is gone), so each vertex tries 3 first, then the rest by id.

        In K5 the rainbow 2-3 paths start (2, 3), (2, 0, 3), (2, 0, 1, 3),
        (2, 1, 3): the single edge comes first and its first partner is the
        next path.  Without the edge, and with (0, 3) = 1 and (3, 4) = 3,
        (2, 0, 3) uses color 1 twice and the paths are (2, 0, 1, 3),
        (2, 0, 4, 3), (2, 1, 3), (2, 4, 3).  The first of them meets every
        later path but (2, 4, 3), so the witness is not the earliest pair met
        in a scan of the list, (2, 0, 4, 3) with (2, 1, 3)."""
        g = complete_graph(5)
        colors = {e: {(0, 2): 1, (1, 3): 2}.get(e, 0) for e in g.edges}
        coloring = EdgeColoring.from_assignment(colors)
        assert list(enumerate_rainbow_paths(g, coloring, 2, 3))[:4] == [
            (2, 3), (2, 0, 3), (2, 0, 1, 3), (2, 1, 3)
        ]
        assert has_two_internally_disjoint_rainbow_paths(g, coloring, 2, 3) == ((2, 3), (2, 0, 3))

        h = Graph.from_edges(5, g.edges - {(2, 3)})
        del colors[(2, 3)]
        coloring = EdgeColoring.from_assignment({**colors, (0, 3): 1, (3, 4): 3})
        assert list(enumerate_rainbow_paths(h, coloring, 2, 3)) == [
            (2, 0, 1, 3), (2, 0, 4, 3), (2, 1, 3), (2, 4, 3)
        ]
        got = has_two_internally_disjoint_rainbow_paths(h, coloring, 2, 3)
        assert got == ((2, 0, 1, 3), (2, 4, 3))

    @pytest.mark.parametrize(
        "call, message",
        [
            (
                lambda g, c: has_two_internally_disjoint_rainbow_paths(g, c, 0, 99),
                "endpoints 0 and 99 must be vertices 0..7",
            ),
            (
                lambda g, c: next(enumerate_rainbow_paths(g, c, -1, 2)),
                "endpoints -1 and 2 must be vertices 0..7",
            ),
        ],
    )
    def test_bad_vertex_arguments_are_invalid_input(self, call, message):
        g = theta_graph(2, 3, 4)
        with pytest.raises(InvalidInput, match=message):
            call(g, color_rc2(g).coloring)


class TestIsRainbowTwoConnected:
    def test_mono_c4_reports_first_failing_pair(self):
        g, coloring = mono_c4()
        report = is_rainbow_two_connected(g, coloring)
        assert not report.passed
        assert report.violations[0].kind == "A1"
        assert report.violations[0].subject == (0, 1)

    def test_rainbow_c4_passes(self):
        g, coloring = rainbow_c4()
        report = is_rainbow_two_connected(g, coloring)
        assert report.passed
        assert ("pairs_checked", 6) in report.witnesses

    def test_coloring_must_cover_graph(self):
        g = cycle(4)
        partial = EdgeColoring.from_assignment({(0, 1): 0})
        with pytest.raises(InvalidInput, match="must cover exactly the graph's edges"):
            is_rainbow_two_connected(g, partial)

    def test_size_guard_skips(self):
        g, coloring = rainbow_c4()
        report = is_rainbow_two_connected(g, coloring, guard=SizeGuard(3, 3))
        assert report.skipped
        assert not report.passed
        assert report.violations[0].kind == "skipped"

    @pytest.mark.parametrize("limits", [(-1, 28), (12, -1)])
    def test_negative_size_guard_is_invalid_input(self, limits):
        with pytest.raises(InvalidInput, match="size guard limits must be at least 0"):
            SizeGuard(*limits)

    def test_zero_size_guard_skips(self):
        g, coloring = rainbow_c4()
        assert is_rainbow_two_connected(g, coloring, guard=SizeGuard(0, 0)).skipped

    def test_failing_report_needs_a_violation(self):
        with pytest.raises(ValueError, match="at least one violation"):
            failing("A1", [])

    @given(two_connected_graphs(max_n=8), st.data())
    @settings(max_examples=60)
    def test_verdict_matches_store_and_compare(self, g, data):
        """The partner search reaches the verdict and the first failing pair
        of storing every rainbow u-v path and comparing all pairs of them,
        on random colorings and on constructed ones with two color classes
        merged."""
        if data.draw(st.booleans()):
            coloring = EdgeColoring.from_assignment(data.draw(colorings_of(g, max_colors=5)))
        else:
            built = color_rc2(g).coloring
            classes = st.sets(st.integers(0, built.color_count - 1), min_size=2, max_size=2)
            a, b = sorted(data.draw(classes))
            edges = sorted(g.edges)
            values = [built.assignment[e] for e in edges]
            coloring = dense_coloring(edges, [a if c == b else c for c in values])
        failing_pairs = (
            (u, v)
            for u, v in combinations(range(g.vertex_count), 2)
            if not any(
                set(p) & set(q) == {u, v}
                for p, q in combinations(rainbow_simple_paths(g, coloring, u, v), 2)
            )
        )
        first = next(failing_pairs, None)
        report = is_rainbow_two_connected(g, coloring)
        assert report.passed == (first is None)
        assert [v.subject for v in report.violations] == ([] if first is None else [first])

    @given(two_connected_graphs(max_n=7), st.data())
    @settings(max_examples=80, deadline=None)
    def test_cycle_reuse_matches_searching_every_pair(self, g, data):
        """The verdict and the first violation equal those of searching
        every pair in order, with no store, on random colorings (most fail)
        and on constructed ones (which pass)."""
        if data.draw(st.booleans()):
            coloring = EdgeColoring.from_assignment(data.draw(colorings_of(g, max_colors=4)))
        else:
            coloring = color_rc2(g).coloring
        expect = None
        for u, v in combinations(range(g.vertex_count), 2):
            witness = has_two_internally_disjoint_rainbow_paths(g, coloring, u, v)
            if witness is None:
                expect = ("A1", (u, v), "no two internally disjoint rainbow paths")
                break
            error = verify.pair_witness_error(coloring, u, v, witness)
            if error is not None:
                expect = ("A1", (u, v), f"witness rejected: {error}")
                break
        report = is_rainbow_two_connected(g, coloring)
        assert report.passed == (expect is None)
        assert [(v.kind, v.subject, v.reason) for v in report.violations] == (
            [] if expect is None else [expect]
        )

    @given(two_connected_graphs(max_n=8))
    @settings(max_examples=40)
    def test_constructed_colorings_always_verify(self, g):
        res = color_rc2(g)
        report = is_rainbow_two_connected(g, res.coloring)
        assert report.passed


class TestPairWitnessCheck:
    """Every pair's witness is re-checked independently of the search."""

    @staticmethod
    def k4():
        """K4 where (0, 3) and (1, 3) share color 2, so 0-3-1 is not rainbow."""
        g = complete_graph(4)
        colors = {(0, 1): 0, (0, 2): 1, (0, 3): 2, (1, 2): 3, (1, 3): 2, (2, 3): 4}
        return g, EdgeColoring.from_assignment(colors)

    @pytest.mark.parametrize(
        "witness, error",
        [
            (
                ((0, 2, 1), (0, 2, 3, 1)),
                "(0, 2, 1) and (0, 2, 3, 1) share more than their endpoints",
            ),
            (((0, 1), (0, 1)), "(0, 1) and (0, 1) share more than their endpoints"),
            (((0, 2, 1), (0, 3, 1)), "(0, 3, 1) is not rainbow"),
            (((0, 2, 3, 0, 1), (0, 1)), "(0, 2, 3, 0, 1) is not simple"),
            (((0, 2, 1), (0, 3)), "(0, 3) is not a path from 0 to 1"),
            ([(0, 2, 1), (0, 1)], "the witness is not a pair of paths"),
        ],
    )
    def test_a_bad_witness_fails_the_report(self, monkeypatch, witness, error):
        g, coloring = self.k4()
        assert has_two_internally_disjoint_rainbow_paths(g, coloring, 0, 1) is not None
        monkeypatch.setattr(
            verify, "has_two_internally_disjoint_rainbow_paths", lambda *args: witness
        )
        report = is_rainbow_two_connected(g, coloring)
        assert not report.passed and not report.skipped
        assert [(v.kind, v.subject, v.reason) for v in report.violations] == [
            ("A1", (0, 1), f"witness rejected: {error}")
        ]

    def test_a_non_edge_is_rejected(self):
        _, coloring = rainbow_c4()
        error = verify.pair_witness_error(coloring, 0, 2, ((0, 1, 2), (0, 2)))
        assert error == "(0, 2) uses a non-edge"


def hand_cycle():
    """A 6-cycle recorded from the accepted witness ((1, 4, 0, 5),
    (1, 3, 2, 5)), so its ring, as recorded, reads 1 4 0 5 2 3.
    Color 0 sits on (1, 4) and again on (5, 2), so two ring vertices have
    two rainbow arcs exactly when one is in {4, 0, 5} and the other in
    {2, 3, 1}.  Vertex 6 hangs off 0 and 4 with fresh colors, so the pair
    (0, 4) has a witness only off the ring."""
    ring = [(1, 4), (0, 4), (0, 5), (2, 5), (2, 3), (1, 3)]
    g = Graph.from_edges(7, ring + [(0, 6), (4, 6)])
    colors = dict(zip(ring, (0, 1, 2, 0, 3, 4))) | {(0, 6): 5, (4, 6): 6}
    coloring = EdgeColoring.from_assignment(colors)
    cycles = verify._AcceptedCycles(coloring)
    assert cycles.error(1, 5, ((1, 4, 0, 5), (1, 3, 2, 5))) is None
    return g, coloring, cycles


def spy_on(monkeypatch, name):
    """The argument tuples of every call of ``verify.<name>``, as a list that
    fills while the test runs."""
    calls = []
    original = getattr(verify, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(verify, name, spy)
    return calls


def load_workloads():
    """The benchmark's workload module, read from its file."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()


def broken_wheel(k, at):
    """A benchmark fail instance: W_k with an ear whose inner vertices are
    ``at`` and ``at + 1``, its rc2 coloring broken on that ear."""
    g = WORKLOADS._wheel_with_ear(k, at)
    obj = WORKLOADS._break_chain(g, color_rc2(g).to_json_obj(), [at, at + 1])
    return g, EdgeColoring.from_assignment({(e["u"], e["v"]): e["color"] for e in obj["edges"]})


class TestAcceptedCycles:
    """The record's lookup: pairs on an accepted witness's cycle take its two
    rainbow arcs, and only accepted witnesses add cycles."""

    @pytest.mark.parametrize(
        "u, v, expect",
        [
            # u at position 2, after v at position 0: the slice wraps.
            (0, 1, ((0, 5, 2, 3, 1), (0, 4, 1))),
            # u at position 0, before v at position 3.
            (1, 5, ((1, 4, 0, 5), (1, 3, 2, 5))),
            # u after v, with the long arc exactly rainbow.
            (2, 5, ((2, 3, 1, 4, 0, 5), (2, 5))),
            # u before v, each arc holding one of the two edges of color 0.
            (0, 3, ((0, 5, 2, 3), (0, 4, 1, 3))),
        ],
    )
    def test_two_rainbow_arcs_are_a_witness(self, u, v, expect):
        _, coloring, cycles = hand_cycle()
        assert cycles.witness(u, v) == expect
        assert verify.pair_witness_error(coloring, u, v, expect) is None

    def test_a_pair_is_covered_iff_the_repeat_splits_its_arcs(self):
        _, coloring, cycles = hand_cycle()
        side = {4: 0, 0: 0, 5: 0, 2: 1, 3: 1, 1: 1}
        for u, v in combinations(sorted(side), 2):
            witness = cycles.witness(u, v)
            assert (witness is not None) == (side[u] != side[v]), (u, v)
            if witness is not None:
                assert verify.pair_witness_error(coloring, u, v, witness) is None
        assert cycles.witness(0, 6) is None

    def test_an_uncovered_pair_falls_through_to_the_search(self, monkeypatch):
        g, coloring, cycles = hand_cycle()
        searched = spy_on(monkeypatch, "enumerate_rainbow_paths")
        assert has_two_internally_disjoint_rainbow_paths(g, coloring, 0, 1, cycles) == (
            (0, 5, 2, 3, 1),
            (0, 4, 1),
        )
        assert searched == []
        # Both arcs of (0, 4) repeat color 0; the path through 6 is off the ring.
        assert cycles.witness(0, 4) is None
        found = has_two_internally_disjoint_rainbow_paths(g, coloring, 0, 4, cycles)
        assert found == has_two_internally_disjoint_rainbow_paths(g, coloring, 0, 4)
        assert found is not None and searched != []
        # The search records nothing; accepting the witness records its cycle.
        assert cycles.witness(4, 6) is None
        assert cycles.error(0, 4, found) is None
        assert cycles.witness(4, 6) is not None
        assert verify.pair_witness_error(coloring, 4, 6, cycles.witness(4, 6)) is None

    @pytest.mark.parametrize(
        "u, v, witness, error",
        [
            # The ring 0 5 2 3 1 4 with color 0 twice on the first arc.
            (0, 4, ((0, 5, 2, 3, 1, 4), (0, 4)), "(0, 5, 2, 3, 1, 4) is not rainbow"),
            # The ring 0 5 2 with the non-edge (0, 2).
            (0, 2, ((0, 5, 2), (0, 2)), "(0, 2) uses a non-edge"),
            # A rainbow walk through 0 twice.
            (0, 5, ((0, 4, 6, 0, 5), (0, 5)), "(0, 4, 6, 0, 5) is not simple"),
        ],
    )
    def test_a_rejected_witness_never_enters_the_record(self, u, v, witness, error):
        _, coloring, _ = hand_cycle()
        cycles = verify._AcceptedCycles(coloring)
        assert cycles.error(u, v, witness) == error
        ring = set(witness[0] + witness[1])
        assert all(cycles.witness(x, y) is None for x, y in combinations(sorted(ring), 2))

    def test_a_vertex_paired_with_itself_is_refused_with_or_without_a_record(self):
        """A record holding a rainbow cycle through the vertex would hand out
        the vertex alone and the whole cycle; the call refuses first."""
        g = cycle(5)
        coloring = EdgeColoring.from_assignment({e: i for i, e in enumerate(sorted(g.edges))})
        cycles = verify._AcceptedCycles(coloring)
        assert cycles.error(0, 2, ((0, 1, 2), (0, 4, 3, 2))) is None
        assert cycles.witness(2, 3) is not None
        for record in (None, cycles):
            with pytest.raises(InvalidInput, match="path endpoints must differ"):
                has_two_internally_disjoint_rainbow_paths(g, coloring, 2, 2, record)


class TestPairCallContract:
    """The benchmark counts checked pairs by wrapping
    ``verify.has_two_internally_disjoint_rainbow_paths``, so every checked
    pair is one call of it, reused or searched."""

    def test_a_pass_calls_once_per_pair_and_searches_few(self, monkeypatch):
        g = wheel_graph(30)
        coloring = color_rc2(g).coloring
        calls = spy_on(monkeypatch, "has_two_internally_disjoint_rainbow_paths")
        searched = spy_on(monkeypatch, "enumerate_rainbow_paths")
        n = g.vertex_count
        assert is_rainbow_two_connected(g, coloring, SizeGuard(n, g.edge_count)).passed
        assert [args[2:4] for args in calls] == list(combinations(range(n), 2))
        assert len({args[2:4] for args in searched}) <= 2 * n

    @pytest.mark.parametrize("k, at", WORKLOADS.FAIL_WHEELS)
    def test_a_broken_ear_fails_at_its_pair(self, monkeypatch, k, at):
        g = WORKLOADS._wheel_with_ear(k, at)
        obj = WORKLOADS._break_chain(g, color_rc2(g).to_json_obj(), [at, at + 1])
        coloring = EdgeColoring.from_assignment(
            {(e["u"], e["v"]): e["color"] for e in obj["edges"]}
        )
        calls = spy_on(monkeypatch, "has_two_internally_disjoint_rainbow_paths")
        report = is_rainbow_two_connected(g, coloring, SizeGuard(g.vertex_count, g.edge_count))
        assert (at, at + 1) == (11, 12)
        assert [(v.kind, v.subject) for v in report.violations] == [("A1", (11, 12))]
        pairs = list(combinations(range(g.vertex_count), 2))
        assert [args[2:4] for args in calls] == pairs[: pairs.index((11, 12)) + 1]


def verdict(report):
    return report.passed, [(v.kind, v.subject, v.reason) for v in report.violations]


def dfs_tree(g):
    """The edges of a depth-first spanning tree of g from vertex 0: a
    spanning path whenever the search never backs up."""
    adj, seen, tree, stack = g.adjacency(), {0}, set(), [0]
    while stack:
        x = stack[-1]
        y = next((y for y in adj[x] if y not in seen), None)
        if y is None:
            stack.pop()
        else:
            seen.add(y)
            tree.add(edge(x, y))
            stack.append(y)
    return frozenset(tree)


class TestSupportFirst:
    """A support is searched before the whole graph, pair by pair.  Two
    rainbow paths in a subgraph are two in the graph, so the verdict and
    the first failing pair never change; only passing pairs' witnesses and
    the count of fallbacks to the graph's search depend on the support."""

    def test_every_corpus_coloring_is_served_by_its_support(self):
        supported = 0
        for _, g in standard_corpus():
            result = color_rc2(g)
            plain = is_rainbow_two_connected(g, result.coloring)
            report = is_rainbow_two_connected(g, result.coloring, DEFAULT_GUARD, result.support)
            assert verdict(report) == verdict(plain) == (True, [])
            if result.support is not None:
                supported += 1
                assert report.witnesses == plain.witnesses + [("support_fallbacks", 0)]
            broken = merge_last_two_classes(result.coloring)
            assert verdict(
                is_rainbow_two_connected(g, broken, DEFAULT_GUARD, result.support)
            ) == verdict(is_rainbow_two_connected(g, broken))
        # The 56 minimal members, and the 18 that are a Hamiltonian cycle with
        # one chord, have every edge colored by a scheme: no support.
        assert supported == 154 - 56 - 18

    def test_every_labeled_graph_on_five_vertices(self):
        rows = census_rows(5)
        assert len(rows) == 238
        for row in rows:
            g = Graph.from_edges(5, (map(int, e.split("-")) for e in row.edges.split(";")))
            result = color_rc2(g)
            if result.support is None:
                continue
            report = is_rainbow_two_connected(g, result.coloring, DEFAULT_GUARD, result.support)
            assert verdict(report) == (True, [])
            assert ("support_fallbacks", 0) in report.witnesses
            broken = merge_last_two_classes(result.coloring)
            assert verdict(
                is_rainbow_two_connected(g, broken, DEFAULT_GUARD, result.support)
            ) == verdict(is_rainbow_two_connected(g, broken))

    @pytest.mark.parametrize("k, at", WORKLOADS.FAIL_WHEELS)
    def test_a_broken_ear_fails_at_its_pair_with_the_support(self, k, at):
        g, coloring = broken_wheel(k, at)
        support = color_rc2(g).support
        assert support is not None
        guard = SizeGuard(g.vertex_count, g.edge_count)
        report = is_rainbow_two_connected(g, coloring, guard, support)
        assert verdict(report) == verdict(is_rainbow_two_connected(g, coloring, guard))
        assert [v.subject for v in report.violations] == [(at, at + 1)]

    @pytest.mark.parametrize("k, at", WORKLOADS.FAIL_WHEELS)
    @pytest.mark.parametrize("with_support", [False, True], ids=["plain", "support"])
    def test_a_failing_edge_pair_walks_each_graph_once(self, monkeypatch, k, at, with_support):
        """The broken ear's pair is an edge and the only rainbow path between
        its ends.  The edge's partner search bans nothing, so it meets every
        rainbow path of the graph, and the walk over that graph ends with
        it: one exhausted walk per graph searched, the support then g."""
        g, coloring = broken_wheel(k, at)
        support = color_rc2(g).support if with_support else None
        exhausted = []
        original = verify.enumerate_rainbow_paths

        def spy(h, coloring, u, v, *banned):
            yield from original(h, coloring, u, v, *banned)
            exhausted.append((h.edges, u, v))

        monkeypatch.setattr(verify, "enumerate_rainbow_paths", spy)
        guard = SizeGuard(g.vertex_count, g.edge_count)
        report = is_rainbow_two_connected(g, coloring, guard, support)
        assert [v.subject for v in report.violations] == [(at, at + 1)]
        searched = [g.edges] if support is None else [support, g.edges]
        assert [walk for walk in exhausted if walk[1:] == (at, at + 1)] == [
            (edges, at, at + 1) for edges in searched
        ]

    @given(two_connected_graphs(max_n=8), st.data())
    @settings(max_examples=80, deadline=None)
    def test_any_subgraph_as_support_keeps_the_verdict(self, g, data):
        """Damaged or random colorings, with the support empty, a DFS tree,
        the construction's support (or the graph) less one edge, or any
        edge subset: the report equals the plain one, and a pass counts as
        fallbacks exactly the pairs that the record did not serve and that
        have no witness in the support by its own search."""
        result = color_rc2(g)
        if data.draw(st.booleans()):
            coloring = EdgeColoring.from_assignment(data.draw(colorings_of(g, max_colors=5)))
        else:
            coloring = merge_last_two_classes(result.coloring)
        edges = sorted(g.edges)
        care = sorted(result.support or g.edges)
        support = data.draw(
            st.one_of(
                st.just(frozenset()),
                st.just(dfs_tree(g)),
                st.sampled_from(care).map(lambda e: frozenset(care) - {e}),
                st.sets(st.sampled_from(edges)).map(frozenset),
            )
        )
        s = Graph(g.vertex_count, support)
        unserved = []
        original = verify.has_two_internally_disjoint_rainbow_paths

        def spy(g, coloring, u, v, cycles, support):
            if cycles.witness(u, v) is None and original(s, coloring, u, v) is None:
                unserved.append((u, v))
            return original(g, coloring, u, v, cycles, support)

        plain = is_rainbow_two_connected(g, coloring)
        with mock.patch.object(verify, "has_two_internally_disjoint_rainbow_paths", spy):
            report = is_rainbow_two_connected(g, coloring, DEFAULT_GUARD, support)
        assert verdict(report) == verdict(plain)
        if report.passed:
            assert report.witnesses == plain.witnesses + [("support_fallbacks", len(unserved))]

    @given(two_connected_graphs(max_n=8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_the_witness_is_the_supports_when_it_has_one(self, g, data):
        coloring = EdgeColoring.from_assignment(data.draw(colorings_of(g, max_colors=5)))
        s = Graph(g.vertex_count, frozenset(data.draw(st.sets(st.sampled_from(sorted(g.edges))))))
        for u, v in combinations(range(g.vertex_count), 2):
            within = has_two_internally_disjoint_rainbow_paths(s, coloring, u, v)
            expect = within if within is not None else has_two_internally_disjoint_rainbow_paths(g, coloring, u, v)
            assert has_two_internally_disjoint_rainbow_paths(g, coloring, u, v, None, s) == expect

    @pytest.mark.parametrize("support, fallbacks", [((), 1), ([(0, 1), (1, 2), (2, 3)], 1), (None, 0)])
    def test_a_pair_the_support_cannot_serve_falls_back(self, support, fallbacks):
        """The rainbow C4: (0, 1) is searched and its witness is the whole
        cycle, whose arcs then serve every other pair.  Neither the empty
        support nor the path 0-1-2-3 holds that witness; the cycle does."""
        g, coloring = rainbow_c4()
        support = g.edges if support is None else support
        report = is_rainbow_two_connected(g, coloring, DEFAULT_GUARD, support)
        assert report.witnesses == [("pairs_checked", 6), ("support_fallbacks", fallbacks)]

    def test_a_pass_with_a_support_calls_once_per_pair(self, monkeypatch):
        g = wheel_graph(30)
        result = color_rc2(g)
        calls = spy_on(monkeypatch, "has_two_internally_disjoint_rainbow_paths")
        guard = SizeGuard(g.vertex_count, g.edge_count)
        report = is_rainbow_two_connected(g, result.coloring, guard, result.support)
        assert report.passed and ("support_fallbacks", 0) in report.witnesses
        assert [args[2:4] for args in calls] == list(combinations(range(g.vertex_count), 2))

    @pytest.mark.parametrize(
        "support, stray",
        [([(0, 2)], (0, 2)), ([(0, 1), (3, 3)], (3, 3)), ([(1, 0), (0, 9)], (0, 9)), ([(-1, 0)], (-1, 0))],
        ids=["non-edge", "self-loop", "out-of-range", "negative"],
    )
    def test_a_support_edge_off_the_graph_is_refused(self, support, stray):
        g, coloring = rainbow_c4()
        with pytest.raises(InvalidInput, match=re.escape(f"support edge {stray} is not an edge of the graph")):
            is_rainbow_two_connected(g, coloring, DEFAULT_GUARD, support)


# sha256 of each checked pair's witness, one line ``(u, v) witness`` per
# call of has_two_internally_disjoint_rainbow_paths in the verifier's loop,
# reused or searched, up to the failing pair of a failing coloring.
WITNESS_SHA256 = {
    "k18": "4b90fa1c87b254443beb8743b58b94ab29925ef2cdbe4d65b40c9a215676e6be",
    "w29-ear11": "ce0eb2da91aebe5fb91ed19e77d14291b8de56daeb2e6a51c2033a951cbe3ace",
    "w30": "3d7bce0e38f03600f6e498be820ac2ebae5e85355e127f5152ca702dfbd032e1",
    "w30-ear11": "49fd240377a27fb83bc2f23e0e117499ccb27a40254ae6285125b23fb83bceab",
    "w31-ear11": "48519041d47387b35e71cc45a712fafef779e235125731110157e6a4ab9a4561",
}


def witness_digest(monkeypatch, g, coloring):
    h = hashlib.sha256()
    original = verify.has_two_internally_disjoint_rainbow_paths

    def spy(*args):
        witness = original(*args)
        h.update(f"{args[2:4]} {witness}\n".encode())
        return witness

    monkeypatch.setattr(verify, "has_two_internally_disjoint_rainbow_paths", spy)
    is_rainbow_two_connected(g, coloring, SizeGuard(g.vertex_count, g.edge_count))
    return h.hexdigest()


def built(g):
    return g, color_rc2(g).coloring


WITNESS_GRAPHS = {
    "w30": lambda: built(wheel_graph(30)),
    "k18": lambda: built(complete_graph(18)),
    **{f"w{k}-ear{at}": (lambda k=k, at=at: broken_wheel(k, at)) for k, at in WORKLOADS.FAIL_WHEELS},
}


@pytest.mark.parametrize("name", sorted(WITNESS_GRAPHS))
def test_every_checked_pair_gets_its_pinned_witness(monkeypatch, name):
    g, coloring = WITNESS_GRAPHS[name]()
    assert witness_digest(monkeypatch, g, coloring) == WITNESS_SHA256[name]


RECORD_GRAPHS = {**WITNESS_GRAPHS, "rand64": lambda: built(random_two_connected(64, 64 // 3, 3))}


@pytest.mark.parametrize("name", sorted(RECORD_GRAPHS))
def test_each_accepted_cycle_is_recorded_once(monkeypatch, name):
    """A searched pair's witness lies on no recorded cycle, which would
    have served the pair two rainbow arcs, so the record keeps each cycle
    it accepts as it comes, with no dedupe."""
    g, coloring = RECORD_GRAPHS[name]()
    record = verify._AcceptedCycles._record
    cycles = []

    def spy(self, ring):
        cycles.append(frozenset(edge(a, b) for a, b in zip(ring, ring[1:] + ring[:1])))
        record(self, ring)

    monkeypatch.setattr(verify._AcceptedCycles, "_record", spy)
    is_rainbow_two_connected(g, coloring, SizeGuard(g.vertex_count, g.edge_count))
    assert cycles and len(set(cycles)) == len(cycles)


def faulty_record(part, fault):
    """An ``_AcceptedCycles._record`` that replaces one part of each new
    cycle's entry, ``pos``, the doubled ``ring`` or the rainbow ``reach``,
    by ``fault`` of it."""
    record = verify._AcceptedCycles._record
    index = ("pos", "ring", "reach").index(part)

    def faulty(self, ring):
        record(self, ring)
        entry = list(self._by_vertex[ring[0]][-1])
        entry[index] = fault(entry[index])
        for y in ring:
            self._by_vertex[y][-1] = tuple(entry)

    return faulty


def rainbow_stretch(colors, i):
    """The most consecutive entries of the cyclic list ``colors`` from i
    that repeat no color, by brute force."""
    run = colors[i:] + colors[:i]
    return next((k for k in range(1, len(run)) if run[k] in run[:k]), len(run))


def lap_back(pos):
    """Every position one lap of the ring back, below 0."""
    return {y: i - len(pos) for y, i in pos.items()}


class TestCheckedCycles:
    """The record's check: a witness that is two arcs of an accepted
    witness's cycle is checked by the rainbow reach of each arc's start;
    every verdict is the one ``pair_witness_error`` gives."""

    @given(st.lists(st.integers(0, 3), min_size=2, max_size=15), st.booleans())
    def test_reach_is_the_longest_rainbow_run_from_each_position(self, drawn, distinct):
        # A ring of distinct colors, or one where the first color comes again.
        colors = list(range(len(drawn) + 1)) if distinct else drawn + drawn[:1]
        size = len(colors)
        coloring = EdgeColoring({edge(a, (a + 1) % size): c for a, c in enumerate(colors)}, len(set(colors)))
        cycles = verify._AcceptedCycles(coloring)
        cycles._record(tuple(range(size)))
        _, _, reach = cycles._by_vertex[0][-1]
        assert reach == [rainbow_stretch(colors, i) for i in range(size)]
        assert (reach == [size] * size) == distinct

    @given(two_connected_graphs(max_n=8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_pair_witness_error(self, g, data):
        """On the record-backed loop's witnesses, their swaps and every pair
        of arcs of their cycles, also claimed for the wrong pair, under
        colorings with arbitrary color ids.  The record keeps every witness
        it accepts, swaps (the cycle run backwards) among them."""
        edges = sorted(g.edges)
        if data.draw(st.booleans()):
            values = data.draw(st.lists(st.integers(-3, 3), min_size=len(edges), max_size=len(edges)))
        else:
            built = color_rc2(g).coloring
            values = [built.assignment[e] for e in edges]
            if data.draw(st.booleans()):
                # Merge two color classes, so some arcs repeat a color.
                values = [min(c, 1) for c in values]
        ids = [10**12 - 7 * c for c in values]
        coloring = EdgeColoring(dict(zip(edges, ids)), len(set(ids)))
        cycles = verify._AcceptedCycles(coloring)

        def agree(u, v, witness):
            assert cycles.error(u, v, witness) == verify.pair_witness_error(coloring, u, v, witness)

        for u, v in combinations(range(g.vertex_count), 2):
            witness = has_two_internally_disjoint_rainbow_paths(g, coloring, u, v, cycles)
            if witness is None:
                continue
            agree(u, v, witness)
            agree(u, v, witness[::-1])
            ring = witness[0] + witness[1][-2:0:-1]
            size, doubled = len(ring), ring + ring
            for i, j in combinations(range(size), 2):
                x, y = ring[i], ring[j]
                p, q = ring[i : j + 1], doubled[j : i + size + 1][::-1]
                agree(x, y, (p, q))
                agree(y, x, (q[::-1], p[::-1]))
                # Arcs of the cycle claimed for a pair they do not join, and
                # with an end of q moved off the cycle, to the non-vertex -1,
                # alone or with the pair they are claimed for.
                agree(ring[i - 1], y, (p, q))
                agree(x, ring[j - 1], (p, q))
                agree(x, y, (p, (-1,) + q[1:]))
                agree(x, y, (p, q[:-1] + (-1,)))
                agree(-1, y, (p, (-1,) + q[1:]))
                agree(x, -1, (p, q[:-1] + (-1,)))

    @pytest.mark.parametrize(
        "u, v, witness, error",
        [
            # Rotated to start at 0: the first arc repeats color 0.
            (0, 4, ((0, 5, 2, 3, 1, 4), (0, 4)), "(0, 5, 2, 3, 1, 4) is not rainbow"),
            # Rotated to start at 4: the second arc repeats color 0.
            (4, 5, ((4, 0, 5), (4, 1, 3, 2, 5)), "(4, 1, 3, 2, 5) is not rainbow"),
        ],
    )
    def test_a_rotation_with_a_repeated_color_is_rejected(self, u, v, witness, error):
        _, coloring, cycles = hand_cycle()
        assert cycles.error(u, v, witness) == error
        assert verify.pair_witness_error(coloring, u, v, witness) == error

    @pytest.mark.parametrize("witness", [((0, 1), 5), ([0, 1], (0, 3, 2, 1)), ((0, 1),), None])
    def test_a_malformed_witness_gets_the_message_of_pair_witness_error(self, witness):
        _, coloring = rainbow_c4()
        cycles = verify._AcceptedCycles(coloring)
        assert cycles.error(0, 1, ((0, 1), (0, 3, 2, 1))) is None
        error = cycles.error(0, 1, witness)
        assert error is not None and error == verify.pair_witness_error(coloring, 0, 1, witness)

    @pytest.mark.parametrize("extra, at", [(1, (0, 5)), (6, (0, 4))])
    def test_an_arc_past_its_rainbow_stretch_is_searched_not_served(self, monkeypatch, extra, at):
        """The lookup proposes every pair on a recorded ring, whether or not
        its arcs are rainbow.  (0, 1) records the ring 0 4 1 3 2 5; an arc of
        ``at`` runs past its rainbow stretch by one edge up to ``extra``: one
        edge for (0, 5), the true first failure, and up to six edges for
        (0, 4) before it.  The reach refuses the arcs before they are handed
        out, so that pair is searched and the report is the one of a record
        whose zeroed reach refuses every proposal."""
        g, coloring, _ = hand_cycle()
        zeroed = faulty_record("reach", lambda reach: [0] * len(reach))
        with monkeypatch.context() as m:
            m.setattr(verify._AcceptedCycles, "_record", zeroed)
            searched = spy_on(m, "enumerate_rainbow_paths")
            expect = is_rainbow_two_connected(g, coloring, SizeGuard(7, 8))
        assert [v.subject for v in expect.violations] == [(0, 5)]
        pairs = list(combinations(range(7), 2))
        assert sorted({args[2:4] for args in searched}) == pairs[: pairs.index((0, 5)) + 1]
        record, rings = verify._AcceptedCycles._record, []

        def kept(self, ring):
            rings.append(ring)
            record(self, ring)

        monkeypatch.setattr(verify._AcceptedCycles, "_record", kept)
        searched = spy_on(monkeypatch, "enumerate_rainbow_paths")
        assert is_rainbow_two_connected(g, coloring, SizeGuard(7, 8)) == expect
        assert at in {args[2:4] for args in searched}
        ring = rings[0]
        assert ring == (0, 4, 1, 3, 2, 5)
        colors = [coloring.assignment[edge(a, b)] for a, b in zip(ring, ring[1:] + ring[:1])]

        i, j = ring.index(at[0]), ring.index(at[1])
        d = (j - i) % 6
        assert 0 < max(d - rainbow_stretch(colors, i), 6 - d - rainbow_stretch(colors, j)) <= extra

    @pytest.mark.parametrize(
        "part, fault",
        [
            # Every position one on: the lookup proposes the wrong vertices.
            ("pos", lambda pos: {y: (i + 1) % len(pos) for y, i in pos.items()}),
            # The check reduces each position to the ring.
            ("pos", lap_back),
            # Every position one lap on, past the ring's end.
            ("pos", lambda pos: {y: i + len(pos) for y, i in pos.items()}),
            # The ring's first two vertices swapped: one end of a pair is wrong.
            ("pos", lambda pos: {y: {0: 1, 1: 0}.get(i, i) for y, i in pos.items()}),
            # A reach that under-reports: no arc passes, so every pair is searched.
            ("reach", lambda reach: [0] * len(reach)),
        ],
        ids=["pos-on", "pos-lap-back", "pos-lap-on", "pos-swapped", "reach-zero"],
    )
    @pytest.mark.parametrize(
        "make", [lambda: hand_cycle()[:2], lambda: built(wheel_graph(12))], ids=["hand", "w12"]
    )
    def test_a_faulty_record_gives_the_faultless_report(self, monkeypatch, make, part, fault):
        """Every witness the faulty record serves still passes
        ``pair_witness_error``, and the report is the faultless record's."""
        g, coloring = make()
        guard = SizeGuard(g.vertex_count, g.edge_count)
        expect = is_rainbow_two_connected(g, coloring, guard)
        original = verify.has_two_internally_disjoint_rainbow_paths

        def checked(*args):
            witness = original(*args)
            assert witness is None or verify.pair_witness_error(coloring, *args[2:4], witness) is None
            return witness

        monkeypatch.setattr(verify, "has_two_internally_disjoint_rainbow_paths", checked)
        monkeypatch.setattr(verify._AcceptedCycles, "_record", faulty_record(part, fault))
        assert is_rainbow_two_connected(g, coloring, guard) == expect

    def test_positions_a_lap_back_serve_the_same_arcs(self, monkeypatch):
        monkeypatch.setattr(verify._AcceptedCycles, "_record", faulty_record("pos", lap_back))
        assert witness_digest(monkeypatch, *built(wheel_graph(30))) == WITNESS_SHA256["w30"]

    def test_arcs_served_for_one_pair_are_checked_for_another(self, monkeypatch):
        _, coloring, cycles = hand_cycle()
        arcs = cycles.witness(0, 1)
        assert arcs == ((0, 5, 2, 3, 1), (0, 4, 1))
        others = [(0, 3), (1, 0), (0, 5)]
        expect = [verify.pair_witness_error(coloring, u, v, arcs) for u, v in others]
        assert None not in expect
        slow = spy_on(monkeypatch, "pair_witness_error")
        assert [cycles.error(u, v, arcs) for u, v in others] == expect
        assert slow == [(coloring, u, v, arcs) for u, v in others]
        assert cycles.error(0, 1, arcs) is None and len(slow) == 3

    def test_an_equal_copy_of_the_served_arcs_is_checked_in_full(self, monkeypatch):
        _, coloring, cycles = hand_cycle()
        arcs = cycles.witness(0, 1)
        copy = (arcs[0], arcs[1])
        assert copy == arcs and copy is not arcs
        slow = spy_on(monkeypatch, "pair_witness_error")
        assert cycles.error(0, 1, copy) is None
        assert slow == [(coloring, 0, 1, copy)]

    def test_only_searched_pairs_reach_pair_witness_error(self, monkeypatch):
        g = wheel_graph(30)
        coloring = color_rc2(g).coloring
        searched = spy_on(monkeypatch, "enumerate_rainbow_paths")
        slow = spy_on(monkeypatch, "pair_witness_error")
        assert is_rainbow_two_connected(g, coloring, SizeGuard(31, 60)).passed
        assert [args[1:3] for args in slow] == sorted({args[2:4] for args in searched})
        assert 0 < len(slow) < 60


class TestRainbowIndexOracle:
    def test_size_limits(self):
        refusal = r"graph with 11 vertices / 11 edges exceeds the size guard \(10, 28\)"
        with pytest.raises(PreconditionViolated, match=refusal):
            RainbowIndex(cycle(11))

    def test_feasible_matches_verifier_on_examples(self):
        g, coloring = mono_c4()
        index = RainbowIndex(g)
        vec = [coloring.assignment[e] for e in index.edge_list]
        assert index.feasible(vec) is False
        g, coloring = rainbow_c4()
        vec = [coloring.assignment[e] for e in RainbowIndex(g).edge_list]
        assert RainbowIndex(g).feasible(vec) is True

    def test_feasible_needs_one_color_per_edge(self):
        g, coloring = rainbow_c4()
        index = RainbowIndex(g)
        vec = [coloring.assignment[e] for e in index.edge_list]
        for wrong in (vec[:-1], vec + [0]):
            with pytest.raises(ValueError):
                index.feasible(wrong)

    @given(two_connected_graphs(max_n=6))
    @settings(max_examples=40)
    def test_index_and_verifier_agree_on_arbitrary_colorings(self, g):
        """The two independent implementations of the same predicate must
        agree on every coloring, feasible or not: random 3-colorings, and
        near-passing ones made by merging two color classes of a
        constructed coloring."""
        index = RainbowIndex(g)
        rng = random.Random(g.edge_count * 1000 + g.vertex_count)
        candidates = [[rng.randrange(3) for _ in index.edge_list] for _ in range(5)]
        built = color_rc2(g).coloring
        base = [built.assignment[e] for e in index.edge_list]
        for a, b in combinations(range(built.color_count), 2):
            candidates.append([a if c == b else c for c in base])
        for values in candidates:
            coloring = dense_coloring(index.edge_list, values)
            vec = [coloring.assignment[e] for e in index.edge_list]
            report = is_rainbow_two_connected(g, coloring)
            assert report.passed == index.feasible(vec)

    @given(two_connected_graphs(max_n=6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_feasible_matches_a_naive_check_on_any_color_ids(self, g, data):
        """Every vertex pair needs some internally disjoint pair of paths,
        both with distinct colors on their edges.  Color ids may be past the
        edge count or far apart, so none of them may index a list."""
        index = RainbowIndex(g)
        ids = data.draw(st.sampled_from([[0, 1], [0, 10**6], [3, 7, 64], [5, 0, 2, 10**9]]))
        colors = data.draw(st.lists(st.sampled_from(ids), min_size=g.edge_count, max_size=g.edge_count))

        def rainbow(gid):
            eids = index.path_edges[gid]
            return len({colors[e] for e in eids}) == len(eids)

        naive = all(
            any(rainbow(i) and rainbow(j) for i, j in pairs) for pairs in index.disjoint_pairs.values()
        )
        assert index.feasible(colors) is naive


def pairings(a, b, c, d):
    """The three ways to split a sorted quadruple into two pairs, in the
    order the replay tries them for A3."""
    return ((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))


def path_table(g, coloring):
    """The replay's path table of g under ``coloring``, over all its vertices."""
    return verify._all_pair_paths(g, coloring.assignment, list(range(g.vertex_count)))


def check_table_scans(g, coloring, verts):
    """``_first_pair`` on the replay's path table finds a fan (paths sharing
    only the center) or a linkage (disjoint paths) exactly when a search over
    all simple paths finds one, and what it finds meets in exactly that."""
    table = verify._all_pair_paths(g, coloring.assignment, verts)
    paths = {pair: rainbow_simple_paths(g, coloring, *pair) for pair in combinations(verts, 2)}

    def agree(pair1, pair2, shared):
        found = verify._first_pair(table[pair1], table[pair2], sum(1 << x for x in shared))
        expect = any(set(p) & set(q) == shared for p in paths[pair1] for q in paths[pair2])
        assert (found is not None) == expect, (pair1, pair2, shared)
        if found is not None:
            assert set(found[0]) & set(found[1]) == shared

    for center in verts:
        for t1, t2 in combinations([x for x in verts if x != center], 2):
            agree(edge(center, t1), edge(center, t2), {center})
    for quad in combinations(verts, 4):
        for pair1, pair2 in pairings(*quad):
            agree(pair1, pair2, set())


class TestPathTableScans:
    """The replay's scans of its own path table, ``_first_pair`` for fans
    (A2) and linkages (A3), and the pair search, against brute force."""

    def test_fan_on_rainbow_c4(self):
        g, coloring = rainbow_c4()
        table = path_table(g, coloring)
        p, q = verify._first_pair(table[0, 1], table[0, 3], 1 << 0)
        assert set(p) & set(q) == {0}

    def test_fan_fails_on_mono(self):
        g, coloring = mono_c4()
        table = path_table(g, coloring)
        assert table[0, 2] == []
        assert verify._first_pair(table[0, 1], table[0, 2], 1 << 0) is None

    def test_linkage_mono_c4_satisfied_by_adjacent_split(self):
        """Even the monochromatic C4 links its four vertices: the pairing
        (0,1),(2,3) uses two disjoint single edges."""
        g, coloring = mono_c4()
        table = path_table(g, coloring)
        assert verify._first_pair(table[0, 1], table[2, 3], 0) == ((0, 1), (2, 3))

    @given(two_connected_graphs(max_n=6), st.data())
    @settings(max_examples=40)
    def test_pair_fan_and_linkage_agree_with_brute_force(self, g, data):
        """The pair search's witness matches a search over all simple paths,
        each list nearest to v first: the first path with a partner, and its
        first partner.  The replay's path table has a fan or a linkage
        exactly when that search has one."""
        coloring = EdgeColoring.from_assignment(data.draw(colorings_of(g, max_colors=4)))
        verts = range(g.vertex_count)
        for u, v in combinations(verts, 2):
            paths = rainbow_simple_paths(g, coloring, u, v)
            expect = next(
                ((p, q) for p in paths for q in paths if p != q and set(p) & set(q) == {u, v}),
                None,
            )
            assert has_two_internally_disjoint_rainbow_paths(g, coloring, u, v) == expect
        check_table_scans(g, coloring, list(verts))

    def test_every_corpus_level_table_agrees_with_brute_force(self):
        """Each level of the multi-level corpus traces, on its own vertices,
        as the replay scans it."""
        levels = [
            (Graph(g.vertex_count, frozenset(assign)), assign)
            for res, g in multi_level_corpus()
            for assign, _ in fold_levels(res.trace)
        ]
        assert len(levels) == 23
        for sub, assign in levels:
            coloring = EdgeColoring(assign, len(set(assign.values())))
            check_table_scans(sub, coloring, sorted({x for e in assign for x in e}))

    def test_a_path_is_not_its_own_partner(self):
        """The edge 01 meets itself exactly in {0, 1}, but only a second path
        is a partner."""
        edge01 = ((0, 1), 0b11)
        assert verify._first_pair([edge01], [edge01], 0b11) is None
        detour = ((0, 2, 1), 0b111)
        assert verify._first_pair([edge01], [edge01, detour], 0b11) == ((0, 1), (0, 2, 1))

    def test_linkage_impossible_on_path_shaped_colors(self):
        # star K_{1,3} is not 2-connected, but linkage is a pure path
        # predicate; all pairings collide at the hub
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        coloring = EdgeColoring.from_assignment({(0, 1): 0, (0, 2): 1, (0, 3): 2})
        table = path_table(g, coloring)
        for pair1, pair2 in pairings(0, 1, 2, 3):
            assert verify._first_pair(table[pair1], table[pair2], 0) is None


def sorted_paths_per_pair(sub, coloring, verts):
    return {
        (u, v): [
            (p, sum(1 << x for x in p))
            for p in sorted(enumerate_rainbow_paths(sub, coloring, u, v), key=lambda p: (len(p), p))
        ]
        for u, v in combinations(verts, 2)
    }


class TestAllPairPaths:
    """The replay's per-source walk lists, per pair, exactly the paths the
    pair search finds, sorted the same way."""

    @given(two_connected_graphs(max_n=7), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_pair_search(self, g, data):
        coloring = EdgeColoring.from_assignment(data.draw(colorings_of(g, max_colors=3)))
        verts = list(range(g.vertex_count))
        assert verify._all_pair_paths(g, coloring.assignment, verts) == sorted_paths_per_pair(g, coloring, verts)

    def test_level_subgraph_leaves_vertices_out(self):
        """K_{2,4}'s base level is a K_{2,3} on five of its six vertices."""
        g = k24()
        res = color_minimally_two_connected(g, with_trace=True)
        seen = []
        for assign, _ in fold_levels(res.trace):
            sub = Graph(g.vertex_count, frozenset(assign))
            verts = sorted({x for e in assign for x in e})
            seen.append(len(verts))
            got = verify._all_pair_paths(sub, assign, verts)
            assert got == sorted_paths_per_pair(sub, EdgeColoring.from_assignment(assign), verts)
            assert list(got) == list(combinations(verts, 2))
        assert seen == [5, 6]


def replayed(g, trace):
    """The replay's violations, as (kind, subject), of ``trace`` on g, with
    the coloring the trace builds and color 0 on any edge it leaves out."""
    *_, (last, _) = fold_levels(trace)
    assign = {e: last.get(e, 0) for e in g.edges}
    result = ColoringResult(EdgeColoring(assign, len(set(assign.values()))), "ear_induction", trace)
    return [(v.kind, v.subject) for v in check_induction_invariants(result, g).violations]


def k23_trace():
    """K_{2,3}'s one level: the base cycle plus the first ear (0, 4, 1)."""
    return color_minimally_two_connected(k23(), with_trace=True).trace


@cache
def multi_level_corpus():
    """The traced corpus colorings with at least two levels, each with its graph."""
    traced = ((color_rc2(g, with_trace=True), g) for _, g in standard_corpus())
    return [(res, g) for res, g in traced if res.trace is not None and len(res.trace) > 1]


class TestColorMapReplay:
    """The replay checks A4/A5 on each level's color map and reports the
    first breach.  K_{2,3}'s one level maps {0: 0, 1: 1}; each case
    changes only that step's map."""

    @pytest.mark.parametrize(
        "mapped, violation",
        [
            ({0: 0, 1: 0}, ("A4", (0, 0, 1), "vertices share color 0")),
            ({0: 2, 1: 1}, ("A5", (0, 0, 2), "color 2 sits on 2 edges, not one")),
            ({0: 1}, ("A5", (0, 0, 1), "color 1 sits on (1, 2), not incident to 0")),
        ],
        ids=["shared_color", "color_on_two_edges", "color_off_its_vertex"],
    )
    def test_a_broken_map_is_its_first_breach(self, mapped, violation):
        g = k23()
        res = color_minimally_two_connected(g, with_trace=True)
        (step,) = res.trace
        broken = dataclasses.replace(res, trace=(dataclasses.replace(step, mapped=mapped),))
        report = check_induction_invariants(broken, g)
        assert [(v.kind, v.subject, v.reason) for v in report.violations] == [violation]

    def test_the_unchanged_map_passes(self):
        (step,) = k23_trace()
        assert step.mapped == {0: 0, 1: 1}
        assert replayed(k23(), (step,)) == []


class TestInductionInvariants:
    def test_k24_trace_verifies(self):
        g = k24()
        res = color_minimally_two_connected(g, with_trace=True)
        report = check_induction_invariants(res, g)
        assert report.passed
        assert ("levels_checked", 2) in report.witnesses

    def test_missing_trace_raises(self):
        g = k23()
        res = color_minimally_two_connected(g)
        with pytest.raises(PreconditionViolated, match="tracing enabled"):
            check_induction_invariants(res, g)

    def test_direct_strategies_have_no_trace(self):
        for g, strategy in ((cycle(5), "cycle"), (complete_graph(4), "hamiltonian_chord")):
            res = color_rc2(g, with_trace=True)
            assert (res.strategy, res.trace) == (strategy, None)
            message = f"^a {strategy} coloring has no construction trace$"
            with pytest.raises(PreconditionViolated, match=message):
                check_induction_invariants(res, g)

    def test_guard_skips(self):
        g = k24()
        res = color_minimally_two_connected(g, with_trace=True)
        report = check_induction_invariants(res, g, guard=SizeGuard(3, 3))
        assert report.skipped

    def test_empty_trace_raises(self):
        g = k24()
        res = color_minimally_two_connected(g, with_trace=True)
        with pytest.raises(PreconditionViolated, match="the trace has no level"):
            check_induction_invariants(dataclasses.replace(res, trace=()), g)

    def test_coloring_must_cover_graph(self):
        g = k24()
        res = color_minimally_two_connected(g, with_trace=True)
        partial = EdgeColoring.from_assignment({(0, 2): 0})
        with pytest.raises(InvalidInput, match="must cover exactly the graph's edges"):
            check_induction_invariants(dataclasses.replace(res, coloring=partial), g)

    def test_truncated_trace_is_structure(self):
        """K_{2,4}'s first level passes every check, but spans only five of
        its six vertices, so it does not build the coloring."""
        g = k24()
        res = color_minimally_two_connected(g, with_trace=True)
        report = check_induction_invariants(dataclasses.replace(res, trace=res.trace[:1]), g)
        assert [(v.kind, v.subject) for v in report.violations] == [("structure", (0, 5))]

    def test_coloring_other_than_the_traced_one_is_structure(self):
        """A valid trace does not vouch for an all-0 coloring.  Edge (0, 2)
        has color 0 in both; (0, 3) is the first that differs."""
        g = k24()
        res = color_minimally_two_connected(g, with_trace=True)
        zero = EdgeColoring.from_assignment({e: 0 for e in g.edges})
        report = check_induction_invariants(dataclasses.replace(res, coloring=zero), g)
        assert [(v.kind, v.subject) for v in report.violations] == [("structure", (1, 0, 3))]

    @pytest.mark.parametrize(
        "bits, violation",
        [(1, ("A2", (0, 0, 1, 2))), (0, ("A3", (0, 0, 1, 2, 3)))],
    )
    def test_replay_checks_a2_and_a3(self, monkeypatch, bits, violation):
        """With every pair scan that shares ``bits`` vertices failing, the
        replay reports that invariant at level 0's first tuple (level 0
        spans vertices 0-4), so it runs the A2 and A3 checks."""
        first_pair = verify._first_pair

        def failing_scan(entries1, entries2, shared):
            if shared.bit_count() == bits:
                return None
            return first_pair(entries1, entries2, shared)

        monkeypatch.setattr(verify, "_first_pair", failing_scan)
        g = k24()
        res = color_minimally_two_connected(g, with_trace=True)
        report = check_induction_invariants(res, g)
        assert [(v.kind, v.subject) for v in report.violations] == [violation]

    def test_corrupted_trace_fails(self):
        """Damaging one edge color at the last level must surface as a
        violation, not pass silently."""
        g = k24()
        res = color_minimally_two_connected(g, with_trace=True)
        step = res.trace[-1]
        *_, (assign, _) = fold_levels(res.trace)
        color_02 = assign[0, 2]
        broken_step = dataclasses.replace(step, colored={**step.colored, (0, 5): color_02})
        broken = dataclasses.replace(res, trace=res.trace[:-1] + (broken_step,))
        report = check_induction_invariants(broken, g)
        assert not report.passed
        assert [(v.kind, v.subject) for v in report.violations] == [("A1", (1, 2, 5))]

    @pytest.mark.parametrize("recycled", [2, 3])
    def test_no_prior_path_avoiding_the_recycled_color_is_B1(self, recycled):
        """In the K_{2,3} level, both rainbow 3-4 paths, 3-0-4 and 3-1-4,
        use colors 2 and 3, so the ear (3, 5, 4) of K_{2,3} plus that ear
        cannot recycle either on its edge (4, 5)."""
        g = Graph.from_edges(6, [*k23().edges, (3, 5), (4, 5)])
        step = TraceStep(Path((3, 5, 4)), {(3, 5): 4, (4, 5): recycled}, {})
        assert replayed(g, k23_trace() + (step,)) == [("B1", (1, 3, 4, recycled))]

    def test_ear_endpoint_missing_from_the_prior_level_is_structure(self):
        """Vertex 6 first appears on the level whose ear (0, 5, 6) ends at
        it, so the ear does not join two prior vertices."""
        g = Graph.from_edges(7, [*k23().edges, (0, 5), (5, 6), (1, 6)])
        step = TraceStep(Path((0, 5, 6)), {(0, 5): 4, (5, 6): 5}, {5: 4})
        assert replayed(g, k23_trace() + (step,)) == [("structure", (1, 0, 5, 6))]

    def test_ear_without_interior_is_structure(self):
        """A later step that colors only the chord (0, 1) of K_{2,3} plus
        that chord, with the color the map reserves for vertex 0, passes
        B1 and B2; it is no ear."""
        g = Graph.from_edges(5, [*k23().edges, (0, 1)])
        chord = TraceStep(Path((0, 1)), {(0, 1): 0}, {})
        assert replayed(g, k23_trace() + (chord,)) == [("structure", (1, 0, 1))]

    @pytest.mark.parametrize(
        "index, level, ear",
        [
            # Corpus graph 131's last ear is (2, 8, 9).  Edges (2, 5) and
            # (5, 8) are not the level's, 1 and 0 are prior vertices and 99
            # is no vertex.
            (131, 1, (2, 5, 8, 9)),
            (131, 1, (2, 1, 0, 8, 9)),
            (131, 1, (2, 99, 8, 9)),
            # K_{2,4}'s last ear (0, 5, 1) cut to one edge: no interior.
            (0, 1, (0, 5)),
            # K_{2,4}'s first ear (0, 4, 1) moved off the first level's
            # edges, or cut to one of them.
            (0, 0, (0, 5, 1)),
            (0, 0, (0, 2)),
        ],
    )
    def test_ear_that_does_not_fit_its_level_is_structure(self, index, level, ear):
        """The step's edges are left as they are.  Index 0 stands for K_{2,4}."""
        g = k24() if index == 0 else standard_corpus()[index][1]
        trace = color_rc2(g, with_trace=True).trace
        moved = dataclasses.replace(trace[level], ear=Path(ear))
        broken = trace[:level] + (moved,) + trace[level + 1 :]
        assert replayed(g, broken) == [("structure", (level, *ear))]

    @pytest.mark.parametrize(
        "ear, colored",
        [
            # The ear (0, 5, 1) and, besides its edges, the level-0 edge
            # (0, 2), recolored with the color it has or with another.
            ((0, 5, 1), {(0, 5): 4, (1, 5): 0, (0, 2): 0}),
            ((0, 5, 1), {(0, 5): 4, (1, 5): 0, (0, 2): 4}),
            # An ear over the level-0 edges (0, 2) and (1, 2), through the
            # prior vertex 2; vertex 5 is then left off the last level.
            ((0, 2, 1), {(0, 2): 4, (1, 2): 0}),
        ],
    )
    def test_coloring_a_prior_level_edge_is_structure(self, ear, colored):
        """K_{2,4}'s last step recolors an edge its first level colored."""
        first, _ = color_rc2(k24(), with_trace=True).trace
        step = TraceStep(Path(ear), colored, {0: 4})
        assert replayed(k24(), (first, step)) == [("structure", (1, *ear))]

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_replay_passes_an_ear_only_as_a_path_of_its_levels_edges(self, data):
        """A later step of a traced corpus coloring gets another vertex
        sequence as its ear: free ids (out-of-range ones among them), an
        edge of the graph (a chord when both ends are prior), or the ear
        with one vertex replaced, inserted or dropped, or reversed.  The
        replay passes exactly when the sequence is a path whose edges are
        the step's colored edges, and otherwise names the ear as a
        structure violation at that level."""
        result, g = data.draw(st.sampled_from(multi_level_corpus()))
        level = data.draw(st.integers(1, len(result.trace) - 1))
        step = result.trace[level]
        ear, n = list(step.ear.vertices), g.vertex_count
        i = data.draw(st.integers(0, len(ear) - 1))
        x = data.draw(st.integers(-1, n))
        choices = [
            data.draw(st.lists(st.integers(-2, n + 1), min_size=1, max_size=6)),
            list(data.draw(st.sampled_from(sorted(g.edges)))),
            ear[:i] + [x] + ear[i + 1 :],
            ear[:i] + [x] + ear[i:],
            ear[:i] + ear[i + 1 :],
            ear[::-1],
        ]
        # Path refuses a repeated vertex, so each sequence keeps its first.
        seq = tuple(dict.fromkeys(data.draw(st.sampled_from(choices))))
        moved = dataclasses.replace(step, ear=Path(seq))
        broken = dataclasses.replace(result, trace=result.trace[:level] + (moved,) + result.trace[level + 1 :])
        report = check_induction_invariants(broken, g)
        if {edge(a, b) for a, b in zip(seq, seq[1:])} == step.colored.keys():
            assert report.passed
        else:
            assert [(v.kind, v.subject) for v in report.violations] == [("structure", (level, *seq))]

    @pytest.mark.parametrize(
        "index, reserved, claimed, v1, last_edge",
        [(131, 4, 5, 2, (8, 9)), (133, 1, 2, 3, (6, 11)), (148, 7, 8, 7, (6, 10))],
    )
    def test_recycling_another_once_used_color_at_v1_is_B2(
        self, index, reserved, claimed, v1, last_edge
    ):
        """The claimed color sits on one prior edge at v1, and the re-pointed
        trace puts it on the ear's last edge and builds the re-pointed
        result, so every check but B2 passes.  B2 refuses it, since the map
        reserves another color for v1."""
        _, g = list(standard_corpus())[index]
        res = color_rc2(g, with_trace=True)
        first, last = res.trace
        base, base_map = next(fold_levels(res.trace))
        assert (last.colored[last_edge], base_map[v1]) == (reserved, reserved)
        [e] = [e for e, c in base.items() if c == claimed]
        assert v1 in e
        wrong = dataclasses.replace(last, colored={**last.colored, last_edge: claimed})
        result = EdgeColoring.from_assignment({**res.coloring.assignment, last_edge: claimed})
        broken = dataclasses.replace(res, coloring=result, trace=(first, wrong))
        report = check_induction_invariants(broken, g)
        assert [(v.kind, v.subject) for v in report.violations] == [("B2", (1, v1, claimed))]

    @pytest.mark.parametrize("pair", [(0, 99), (-1, 2), (3, 3)])
    def test_coloring_a_pair_that_is_not_an_edge_is_structure(self, pair):
        """K_{2,4}'s last step also colors a pair that is no edge of the
        graph: an out-of-range vertex, a negative one or a self-loop.  The
        replay names it at that level, before building the level's graph,
        rather than after the last level, as a color the result lacks."""
        g = k24()
        res = color_minimally_two_connected(g, with_trace=True)
        step = res.trace[-1]
        stray = dataclasses.replace(step, colored={**step.colored, pair: 0})
        broken = dataclasses.replace(res, trace=res.trace[:-1] + (stray,))
        report = check_induction_invariants(broken, g)
        assert [(v.kind, v.subject, v.reason) for v in report.violations] == [
            ("structure", (1, *pair), f"the trace colors {pair}, not an edge")
        ]

    @pytest.mark.parametrize("wrong", [1, 2])
    def test_wrong_recycled_color_is_B2(self, wrong):
        """The last ear (0, 5, 1) recycles color 0, reserved for vertex 0,
        on its edge (1, 5).  With color 1 or 2 there in its place, the
        prior rainbow paths 0-3-1 and 0-2-1 avoid it, so B1 passes and B2
        refuses it."""
        first, last = color_rc2(k24(), with_trace=True).trace
        assert last.colored == {(0, 5): 4, (1, 5): 0}
        wrong_step = dataclasses.replace(last, colored={(0, 5): 4, (1, 5): wrong})
        assert replayed(k24(), (first, wrong_step)) == [("B2", (1, 0, wrong))]
