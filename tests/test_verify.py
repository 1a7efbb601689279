import dataclasses
import importlib.util
import pathlib
import random
import sys
from collections import deque
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rc2 import (
    EdgeColoring,
    Graph,
    Path,
    RainbowIndex,
    SizeGuard,
    check_fan,
    check_induction_invariants,
    check_linkage,
    check_unique_color_map,
    color_minimally_two_connected,
    color_rc2,
    edge,
    enumerate_rainbow_paths,
    has_two_internally_disjoint_rainbow_paths,
    is_rainbow_two_connected,
    trace_levels,
)
from rc2 import verify
from rc2.corpus import standard_corpus
from rc2.errors import InvalidInput, PreconditionViolated
from rc2.generators import complete_graph, theta_graph, wheel_graph

from .common import K23_COLORING, cycle, k23, k24
from .strategies import colorings_of, two_connected_graphs


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
    """A 6-cycle stored from the witness ((1, 4, 0, 5), (1, 3, 2, 5)), so its
    ring reads 1 4 0 5 2 3.  Color 0 sits on (1, 4) and again on (5, 2), so
    two ring vertices have two rainbow arcs exactly when one is in
    {4, 0, 5} and the other in {2, 3, 1}.  Vertex 6 hangs off 0 and 4 with
    fresh colors, so the pair (0, 4) has a witness only off the ring."""
    ring = [(1, 4), (0, 4), (0, 5), (2, 5), (2, 3), (1, 3)]
    g = Graph.from_edges(7, ring + [(0, 6), (4, 6)])
    colors = dict(zip(ring, (0, 1, 2, 0, 3, 4))) | {(0, 6): 5, (4, 6): 6}
    coloring = EdgeColoring.from_assignment(colors)
    store = verify._CycleStore(coloring.assignment)
    store.add((1, 4, 0, 5), (1, 3, 2, 5))
    return g, coloring, store


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


class TestCycleStore:
    """Pairs on an earlier witness's cycle take its two rainbow arcs."""

    @pytest.mark.parametrize(
        "u, v, expect",
        [
            # u at position 2, after v at position 0: the slice wraps.
            (0, 1, ((0, 5, 2, 3, 1), (0, 4, 1))),
            # u at position 0, before v.
            (1, 5, ((1, 4, 0, 5), (1, 3, 2, 5))),
            # u after v, with the long arc exactly rainbow.
            (2, 5, ((2, 3, 1, 4, 0, 5), (2, 5))),
            # u before v, both arcs short of their reach.
            (0, 3, ((0, 5, 2, 3), (0, 4, 1, 3))),
        ],
    )
    def test_two_rainbow_arcs_are_a_witness(self, u, v, expect):
        _, coloring, store = hand_cycle()
        assert store.witness(u, v) == expect
        assert verify.pair_witness_error(coloring, u, v, expect) is None

    def test_a_pair_is_covered_iff_the_repeat_splits_its_arcs(self):
        _, coloring, store = hand_cycle()
        side = {4: 0, 0: 0, 5: 0, 2: 1, 3: 1, 1: 1}
        for u, v in combinations(sorted(side), 2):
            witness = store.witness(u, v)
            assert (witness is not None) == (side[u] != side[v]), (u, v)
            if witness is not None:
                assert verify.pair_witness_error(coloring, u, v, witness) is None
        assert store.witness(0, 6) is None

    def test_an_uncovered_pair_falls_through_to_the_search(self, monkeypatch):
        g, coloring, store = hand_cycle()
        searched = spy_on(monkeypatch, "enumerate_rainbow_paths")
        assert has_two_internally_disjoint_rainbow_paths(g, coloring, 0, 1, store) == (
            (0, 5, 2, 3, 1),
            (0, 4, 1),
        )
        assert searched == []
        # Both arcs of (0, 4) repeat color 0; the path through 6 is off the ring.
        assert store.witness(0, 4) is None
        found = has_two_internally_disjoint_rainbow_paths(g, coloring, 0, 4, store)
        assert found == has_two_internally_disjoint_rainbow_paths(g, coloring, 0, 4)
        assert found is not None and searched != []
        # The searched witness's cycle now serves its other pairs.
        assert store.witness(4, 6) is not None
        assert verify.pair_witness_error(coloring, 4, 6, store.witness(4, 6)) is None


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


def over_reach(extra):
    """A ``_CycleStore.add`` that over-reports each new cycle's ``reach`` by
    ``extra`` edges, so the store hands out arcs that repeat a color."""
    add = verify._CycleStore.add

    def faulty(self, p, q):
        add(self, p, q)
        reach = self._by_vertex[p[0]][-1][2]
        reach[:] = [r + extra for r in reach]

    return faulty


class TestCheckedCycles:
    """A witness that is two arcs of an accepted witness's cycle is checked
    by the color parity of each arc; every verdict is the one
    ``pair_witness_error`` gives."""

    @given(st.lists(st.integers(0, 12), max_size=16))
    def test_parity_has_one_bit_per_entry_iff_entries_are_distinct(self, colors):
        parity = 0
        for c in colors:
            parity ^= 1 << c
        assert (parity.bit_count() == len(colors)) == (len(set(colors)) == len(colors))

    @given(two_connected_graphs(max_n=8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_pair_witness_error(self, g, data):
        """On the store-backed loop's witnesses, their swaps and every pair
        of arcs of their cycles, also claimed for the wrong pair, under
        colorings with arbitrary color ids."""
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
        store, checked = verify._CycleStore(coloring.assignment), verify._CheckedCycles(coloring)

        def agree(u, v, witness):
            assert checked.error(u, v, witness) == verify.pair_witness_error(coloring, u, v, witness)

        for u, v in combinations(range(g.vertex_count), 2):
            witness = has_two_internally_disjoint_rainbow_paths(g, coloring, u, v, store)
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
        _, coloring, _ = hand_cycle()
        checked = verify._CheckedCycles(coloring)
        assert checked.error(1, 5, ((1, 4, 0, 5), (1, 3, 2, 5))) is None
        assert checked.error(u, v, witness) == error
        assert verify.pair_witness_error(coloring, u, v, witness) == error

    @pytest.mark.parametrize("witness", [((0, 1), 5), ([0, 1], (0, 3, 2, 1)), ((0, 1),), None])
    def test_a_malformed_witness_gets_the_message_of_pair_witness_error(self, witness):
        _, coloring = rainbow_c4()
        checked = verify._CheckedCycles(coloring)
        assert checked.error(0, 1, ((0, 1), (0, 3, 2, 1))) is None
        error = checked.error(0, 1, witness)
        assert error is not None and error == verify.pair_witness_error(coloring, 0, 1, witness)

    @pytest.mark.parametrize("extra, at", [(1, (0, 5)), (6, (0, 4))])
    def test_a_store_that_over_reports_reach_cannot_pass(self, monkeypatch, extra, at):
        """With ``reach`` one edge too long, or long enough for every arc,
        the report fails at the first pair whose handed-out arcs repeat a
        color, with the message ``pair_witness_error`` gives there.  (0, 1)
        stores the ring 0 4 1 3 2 5; one edge too many covers (0, 5), the
        true first failure, and every arc covers (0, 4) before it."""
        g, coloring, _ = hand_cycle()
        report = is_rainbow_two_connected(g, coloring, SizeGuard(7, 8))
        assert [v.subject for v in report.violations] == [(0, 5)]
        monkeypatch.setattr(verify._CycleStore, "add", over_reach(extra))
        store, expect = verify._CycleStore(coloring.assignment), None
        for u, v in combinations(range(g.vertex_count), 2):
            witness = has_two_internally_disjoint_rainbow_paths(g, coloring, u, v, store)
            error = verify.pair_witness_error(coloring, u, v, witness)
            if error is not None:
                expect = ("A1", (u, v), f"witness rejected: {error}")
                break
        assert expect[1] == at and expect[2].endswith(" is not rainbow")
        report = is_rainbow_two_connected(g, coloring, SizeGuard(7, 8))
        assert [(v.kind, v.subject, v.reason) for v in report.violations] == [expect]

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


class TestFanAndLinkage:
    def test_fan_on_rainbow_c4(self):
        g, coloring = rainbow_c4()
        p, q = check_fan(g, coloring, 0, 1, 3)
        assert set(p) & set(q) == {0}

    def test_fan_needs_distinct_vertices(self):
        g, coloring = rainbow_c4()
        with pytest.raises(InvalidInput, match="three distinct vertices"):
            check_fan(g, coloring, 0, 0, 1)

    def test_linkage_needs_distinct_vertices(self):
        g, coloring = rainbow_c4()
        with pytest.raises(InvalidInput, match="four distinct vertices"):
            check_linkage(g, coloring, (0, 1, 2, 1))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda g, c: check_linkage(g, c, (0, 1, 2)), "four distinct vertices"),
            (
                lambda g, c: has_two_internally_disjoint_rainbow_paths(g, c, 0, 99),
                "endpoints 0 and 99 must be vertices 0..7",
            ),
            (lambda g, c: check_fan(g, c, 0, 1, 99), "endpoints 0 and 99 must be vertices 0..7"),
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

    def test_fan_fails_on_mono(self):
        g, coloring = mono_c4()
        assert check_fan(g, coloring, 0, 1, 2) is None

    def test_linkage_mono_c4_satisfied_by_adjacent_split(self):
        """Even the monochromatic C4 links its four vertices: the pairing
        (0,1),(2,3) uses two disjoint single edges."""
        g, coloring = mono_c4()
        pair1, pair2, p, q = check_linkage(g, coloring, (0, 1, 2, 3))
        assert (pair1, pair2) == ((0, 1), (2, 3))
        assert p == (0, 1) and q == (2, 3)

    @given(two_connected_graphs(max_n=6), st.data())
    @settings(max_examples=40)
    def test_pair_fan_and_linkage_agree_with_brute_force(self, g, data):
        """Witnesses match a search over all simple paths, each list nearest
        to its target first: for a pair, the first path with a partner, and
        its first partner; for a fan, the first path to t1 with its first
        partner to t2; for a linkage, the first pairing in order."""
        coloring = EdgeColoring.from_assignment(data.draw(colorings_of(g, max_colors=4)))
        verts = range(g.vertex_count)
        for u, v in combinations(verts, 2):
            paths = rainbow_simple_paths(g, coloring, u, v)
            expect = next(
                ((p, q) for p in paths for q in paths if p != q and set(p) & set(q) == {u, v}),
                None,
            )
            assert has_two_internally_disjoint_rainbow_paths(g, coloring, u, v) == expect
        for center in verts:
            for t1, t2 in combinations([x for x in verts if x != center], 2):
                expect = next(
                    (
                        (p, q)
                        for p in rainbow_simple_paths(g, coloring, center, t1)
                        for q in rainbow_simple_paths(g, coloring, center, t2)
                        if set(p) & set(q) == {center}
                    ),
                    None,
                )
                assert check_fan(g, coloring, center, t1, t2) == expect
        for a, b, c, d in combinations(verts, 4):
            expect = next(
                (
                    (pair1, pair2, p, q)
                    for pair1, pair2 in (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c)))
                    for p in rainbow_simple_paths(g, coloring, *pair1)
                    for q in rainbow_simple_paths(g, coloring, *pair2)
                    if not set(p) & set(q)
                ),
                None,
            )
            assert check_linkage(g, coloring, (d, b, c, a)) == expect

    def test_linkage_impossible_on_path_shaped_colors(self):
        # star K_{1,3} is not 2-connected, but linkage is a pure path
        # predicate; all pairings collide at the hub
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        coloring = EdgeColoring.from_assignment({(0, 1): 0, (0, 2): 1, (0, 3): 2})
        assert check_linkage(g, coloring, (0, 1, 2, 3)) is None


class TestUniqueColorMapCheck:
    def test_valid_map_passes(self):
        coloring = EdgeColoring.from_assignment(K23_COLORING)
        report = check_unique_color_map(coloring, {0: 0, 1: 1})
        assert report.passed

    def test_shared_color_is_A4(self):
        coloring = EdgeColoring.from_assignment(K23_COLORING)
        report = check_unique_color_map(coloring, {2: 0, 3: 0})
        assert not report.passed
        assert any(v.kind == "A4" for v in report.violations)

    def test_color_on_wrong_edge_is_A5(self):
        coloring = EdgeColoring.from_assignment(K23_COLORING)
        # color 0 sits on edge (0,2), which is not incident to vertex 3
        report = check_unique_color_map(coloring, {3: 0})
        assert not report.passed
        assert any(v.kind == "A5" for v in report.violations)

    def test_color_used_twice_is_A5(self):
        coloring = EdgeColoring.from_assignment(
            {(0, 1): 0, (1, 2): 1, (2, 3): 1, (0, 3): 2}
        )
        report = check_unique_color_map(coloring, {1: 1})
        assert not report.passed
        assert any(v.kind == "A5" for v in report.violations)


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
        assert verify._all_pair_paths(g, coloring, verts) == sorted_paths_per_pair(g, coloring, verts)

    def test_level_subgraph_leaves_vertices_out(self):
        """K_{2,4}'s base level is a K_{2,3} on five of its six vertices."""
        g = k24()
        res = color_minimally_two_connected(g, with_trace=True)
        seen = []
        for level in trace_levels(res.trace):
            assign = level.coloring.assignment
            sub = Graph(g.vertex_count, frozenset(assign))
            verts = sorted({x for e in assign for x in e})
            seen.append(len(verts))
            got = verify._all_pair_paths(sub, level.coloring, verts)
            assert got == sorted_paths_per_pair(sub, level.coloring, verts)
            assert list(got) == list(combinations(verts, 2))
        assert seen == [5, 6]


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

    def test_corrupted_trace_fails(self):
        """Damaging one edge color at the last level must surface as a
        violation, not pass silently."""
        g = k24()
        res = color_minimally_two_connected(g, with_trace=True)
        step = res.trace[-1]
        color_02 = list(trace_levels(res.trace))[-1].coloring.assignment[(0, 2)]
        broken_step = dataclasses.replace(step, colored={**step.colored, (0, 5): color_02})
        broken = dataclasses.replace(res, trace=res.trace[:-1] + (broken_step,))
        report = check_induction_invariants(broken, g)
        assert not report.passed
        assert [(v.kind, v.subject) for v in report.violations] == [("A1", (1, 2, 5))]

    @pytest.mark.parametrize("recycled", [2, 3])
    def test_no_prior_path_avoiding_the_recycled_color_is_B1(self, recycled):
        """In the K_{2,3} level, both rainbow 3-4 paths, 3-0-4 and 3-1-4,
        use colors 2 and 3, so an ear from 3 to 4 cannot recycle either."""
        g = k24()
        res = color_minimally_two_connected(g, with_trace=True)
        moved = dataclasses.replace(res.trace[-1], ear=Path((3, 5, 4)), recycled_color=recycled)
        broken = dataclasses.replace(res, trace=res.trace[:-1] + (moved,))
        report = check_induction_invariants(broken, g)
        assert [(v.kind, v.subject) for v in report.violations] == [("B1", (1, 3, 4, recycled))]

    def test_ear_endpoint_missing_from_the_prior_level_is_B1(self):
        """Vertex 5 first appears on the last level, so the prior level has
        no 0-5 path at all."""
        g = k24()
        res = color_minimally_two_connected(g, with_trace=True)
        moved = dataclasses.replace(res.trace[-1], ear=Path((0, 5)))
        broken = dataclasses.replace(res, trace=res.trace[:-1] + (moved,))
        report = check_induction_invariants(broken, g)
        assert [(v.kind, v.subject) for v in report.violations] == [("B1", (1, 0, 5, 0))]

    def test_recycled_color_off_the_ears_last_edge_is_B2(self):
        """Corpus graph 131: the last ear (2, 8, 9) puts recycled color 4 on
        its edge (8, 9).  Color 5 also sits on one prior edge at vertex 2,
        (0, 2), so only the ear's own edge tells a claimed 5 from the 4."""
        _, g = list(standard_corpus())[131]
        res = color_rc2(g, with_trace=True)
        first, last = res.trace
        assert (last.ear.vertices, last.recycled_color) == ((2, 8, 9), 4)
        base = next(trace_levels(res.trace))
        assert [e for e, c in base.coloring.assignment.items() if c == 5] == [(0, 2)]
        wrong = dataclasses.replace(last, recycled_color=5)
        broken = dataclasses.replace(res, trace=(first, wrong))
        report = check_induction_invariants(broken, g)
        assert [(v.kind, v.subject) for v in report.violations] == [("B2", (1, 9, 5))]

    @pytest.mark.parametrize("wrong", [1, 2])
    def test_wrong_recycled_color_is_B2(self, wrong):
        """The last ear recycles color 0, which sits on edge (0, 2) alone.
        Color 1 sits on (1, 2) only, color 2 on (0, 4) and (1, 3)."""
        g = k24()
        res = color_minimally_two_connected(g, with_trace=True)
        assert res.trace[-1].recycled_color == 0
        wrong_step = dataclasses.replace(res.trace[-1], recycled_color=wrong)
        broken = dataclasses.replace(res, trace=res.trace[:-1] + (wrong_step,))
        report = check_induction_invariants(broken, g)
        assert [(v.kind, v.subject) for v in report.violations] == [("B2", (1, 0, wrong))]
