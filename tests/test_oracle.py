import dataclasses
import hashlib
import random
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rc2 import (
    Graph,
    RainbowIndex,
    brute_force_rc2,
    census_csv,
    census_small_graphs,
    color_rc2,
    exact_rc2,
)
from rc2.errors import BudgetExceeded, InvalidInput, PreconditionViolated
from rc2.corpus import standard_corpus
from rc2.generators import complete_bipartite_graph, random_two_connected, theta_graph
from rc2.oracle import CensusRow, _completions, _exact_k_colorings, sharp_kind, theorem_faults

from .common import (
    EXACT_RC2,
    TWO_CONNECTED_CLASS_COUNTS,
    TWO_CONNECTED_COUNTS,
    census_rows,
    census_run,
    cycle,
    diamond,
    k4,
    k23,
    prism,
    wheel,
)

# sha256 of census_csv(census_small_graphs(n)).  n = 3..5 were recorded
# when the census still brute-forced every labeled graph, n = 6 when it
# keyed each graph by its smallest relabeling over all 720 permutations.
CENSUS_CSV_SHA256 = {
    3: "df490ce4a8364ee71bc2bf4396c79ced75ecb71d61c6eae568829a566ee3e8bd",
    4: "390cc5531d3e9a7c808eac3be8acf3f0b01a270664f4303886472e0c4ff97c60",
    5: "ebf07372ddf308b5b142ba1033eab5593b29f033a45ce6a4832ab280b88edfff",
    6: "446bd0a5f3646ec4530daecb464e50761d10ae06b8968677b070f30c1e66e1d9",
}


def row_graph(row):
    return Graph.from_edges(row.n, [tuple(map(int, e.split("-"))) for e in row.edges.split(";")])


def named_graph(name):
    named = {"k23": k23(), "k4": k4(), "diamond": diamond(), "w5": wheel(5), "c5": cycle(5)}
    return named[name] if name in named else theta_graph(*map(int, name.removeprefix("theta")))


def oracle_outcome(oracle, g, budget):
    try:
        return oracle(g, budget=budget)
    except BudgetExceeded as exc:
        return exc.lower_bound, str(exc)


# Stirling set numbers S(m, k): how many ways to split m labeled items
# into k unlabeled nonempty groups.  Canonical colorings must hit each
# partition exactly once.
STIRLING = {
    (1, 1): 1,
    (2, 1): 1, (2, 2): 1, (2, 3): 0,
    (3, 1): 1, (3, 2): 3, (3, 3): 1,
    (4, 1): 1, (4, 2): 7, (4, 3): 6, (4, 4): 1,
}


class TestExactKColorings:
    @pytest.mark.parametrize("m,k", sorted(STIRLING))
    def test_counts_match_stirling(self, m, k):
        got = list(_exact_k_colorings(m, k))
        assert len(got) == STIRLING[(m, k)]
        assert len(set(got)) == len(got)

    def test_shape(self):
        for colors in _exact_k_colorings(4, 3):
            assert colors[0] == 0
            assert max(colors) == 2
            assert set(colors) == {0, 1, 2}

    def test_total_is_bell_number(self):
        assert sum(len(list(_exact_k_colorings(4, k))) for k in range(1, 5)) == 15

    @pytest.mark.parametrize("m", range(8))
    def test_order_is_that_of_product(self, m):
        """Exactly the canonical strings among all strings, in the order
        ``itertools.product`` lists them: first entry 0, each entry at most
        one past the largest before it, all k colors used."""

        def canonical(colors, k):
            top = -1
            for c in colors:
                if c > top + 1:
                    return False
                top = max(top, c)
            return bool(colors) and colors[0] == 0 and top == k - 1

        for k in range(m + 2):
            expected = [t for t in product(range(k), repeat=m) if canonical(t, k)]
            assert list(_exact_k_colorings(m, k)) == expected, (m, k)

    # S(10, k) for k = 1..10; they sum to the Bell number B(10) = 115,975.
    STIRLING_10 = [1, 511, 9_330, 34_105, 42_525, 22_827, 5_880, 750, 45, 1]

    def test_ten_edges(self):
        for k, count in enumerate(self.STIRLING_10, start=1):
            got = list(_exact_k_colorings(10, k))
            assert len(got) == len(set(got)) == count, k
            # Canonical with exactly k colors: the colors first appear in
            # the order 0, 1, ..., k - 1.
            first_seen = list(range(k))
            assert all(list(dict.fromkeys(colors)) == first_seen for colors in got), k
        assert sum(self.STIRLING_10) == 115_975


class TestBruteForce:
    def test_cycles_need_all_colors(self):
        assert brute_force_rc2(cycle(4)) == 4
        assert brute_force_rc2(cycle(5)) == 5

    def test_k23(self):
        assert brute_force_rc2(k23()) == 3

    def test_k4(self):
        assert brute_force_rc2(k4()) == 2

    def test_diamond(self):
        assert brute_force_rc2(diamond()) == 3

    def test_wheel5(self):
        assert brute_force_rc2(wheel(5)) == 2

    def test_theta234_matches_construction(self):
        g = theta_graph(2, 3, 4)
        assert brute_force_rc2(g) == 7 == color_rc2(g).coloring.color_count

    @pytest.mark.parametrize("name", sorted(EXACT_RC2))
    def test_exact_values_are_the_oracles(self, name):
        """Each pinned (exact, constructed) pair, from the oracle and from
        the construction."""
        g = named_graph(name)
        assert (brute_force_rc2(g), color_rc2(g).coloring.color_count) == EXACT_RC2[name]

    def test_construction_spends_n_minus_one_on_every_corpus_theta(self):
        thetas = [g for spec, g in standard_corpus() if spec.name == "theta"]
        assert len(thetas) == 35
        assert all(color_rc2(g).coloring.color_count == g.vertex_count - 1 for g in thetas)

    def test_rejects_non_two_connected(self):
        with pytest.raises(PreconditionViolated, match="only defined for 2-connected graphs"):
            brute_force_rc2(Graph.from_edges(3, [(0, 1), (1, 2)]))

    def test_budget_carries_lower_bound(self):
        with pytest.raises(BudgetExceeded) as exc:
            brute_force_rc2(k23(), budget=3)
        assert exc.value.lower_bound == 2
        assert "budget" in str(exc.value)

    # Feasibility tests on theta(2,3,4) until the answer 7: the S(9,1..6) =
    # 1 + 255 + 3,025 + 7,770 + 6,951 + 2,646 = 20,648 colorings with 1..6
    # colors, then 108 of those with 7 up to the first feasible one.
    THETA_TESTS = 20_756

    def test_theta_budget_boundary(self):
        g = theta_graph(2, 3, 4)
        with pytest.raises(BudgetExceeded) as exc:
            brute_force_rc2(g, budget=self.THETA_TESTS - 1)
        assert exc.value.lower_bound == 7
        assert brute_force_rc2(g, budget=self.THETA_TESTS) == 7

    def test_negative_budget_is_invalid_input(self):
        with pytest.raises(InvalidInput, match="budget must be at least 0, got -5"):
            brute_force_rc2(k23(), budget=-5)

    def test_zero_budget_proves_only_one_color_missing(self):
        with pytest.raises(BudgetExceeded) as exc:
            brute_force_rc2(k23(), budget=0)
        assert exc.value.lower_bound == 1

    def test_construction_never_beats_the_oracle(self):
        for g in (k23(), k4(), diamond(), wheel(5), cycle(5)):
            assert brute_force_rc2(g) <= color_rc2(g).coloring.color_count

    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_fresh_color_preserves_feasibility(self, seed):
        """Recoloring one edge with a brand-new color can only help, so the
        oracle's minimum k stays feasible at k+1."""
        g = random_two_connected(5 + seed % 2, 1, seed)
        index = RainbowIndex(g)
        res = color_rc2(g)
        vec = [res.coloring.assignment[e] for e in index.edge_list]
        assert index.feasible(vec)
        bumped = list(vec)
        bumped[0] = max(vec) + 1
        assert index.feasible(bumped)


class TestExactRc2:
    """The pruned search against the brute force, its slow reference."""

    @pytest.mark.parametrize("m", range(9))
    def test_completions_count_the_canonical_colorings(self, m):
        for k in range(1, m + 2):
            assert _completions(m, 0, k) == len(list(_exact_k_colorings(m, k))), (m, k)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_the_census_on_every_class(self, n):
        representatives = [row for row in census_rows(n) if row.class_id == row.graph_id]
        assert len(representatives) == TWO_CONNECTED_CLASS_COUNTS[n]
        for row in representatives:
            assert exact_rc2(row_graph(row)) == row.rc2_exact, row.edges

    @pytest.mark.parametrize(
        "g",
        [cycle(4), cycle(5), *map(named_graph, sorted(EXACT_RC2))],
        ids=["c4", "c5", *sorted(EXACT_RC2)],
    )
    def test_matches_the_brute_force(self, g):
        assert exact_rc2(g) == brute_force_rc2(g)

    def test_matches_the_brute_force_on_seven_vertices(self):
        """Twelve seeded 7-vertex graphs, each a random ear graph with up to
        two seeded chords, whose exact values run from 3 to 6."""
        values = set()
        for s in range(12):
            g = random_two_connected(7, 1 + s % 4, s)
            absent = sorted(set(combinations(range(7), 2)) - g.edges)
            g = Graph(7, g.edges | set(random.Random(s).sample(absent, s % 3)))
            value = brute_force_rc2(g)
            assert exact_rc2(g) == value, (s, sorted(g.edges))
            values.add(value)
        assert values == {3, 4, 5, 6}

    @pytest.mark.parametrize("name", ["k23", "k4", "diamond", "w5", "c5", "theta234"])
    def test_budget_parity(self, name):
        """Every budget gives the brute force's value, or its BudgetExceeded
        with the same lower bound and message."""
        g = named_graph(name)
        theta = TestBruteForce.THETA_TESTS
        sample = random.Random(34).sample(range(theta + 200), 8)
        for budget in [*range(41), theta - 1, theta, *sample]:
            assert oracle_outcome(exact_rc2, g, budget) == oracle_outcome(
                brute_force_rc2, g, budget
            ), (name, budget)

    def test_refuses_as_the_brute_force_does(self):
        with pytest.raises(InvalidInput, match="budget must be at least 0, got -5"):
            exact_rc2(k23(), budget=-5)
        with pytest.raises(PreconditionViolated, match="only defined for 2-connected graphs"):
            exact_rc2(Graph.from_edges(3, [(0, 1), (1, 2)]))

    def test_every_corpus_theta_needs_n_minus_one_colors(self):
        """Measured, not proved: the paper's bound n - 1 is the exact value
        on all 35 corpus thetas but theta(2,2,2) = K_{2,3}, which needs 3."""
        thetas = [g for spec, g in standard_corpus() if spec.name == "theta"]
        assert len(thetas) == 35
        for g in thetas:
            expected = 3 if g.vertex_count == 5 else g.vertex_count - 1
            assert exact_rc2(g) == expected, sorted(g.edges)


def subdivide(g, e, length):
    """g with its edge e replaced by a path of ``length`` edges through
    new vertices."""
    assert e in g.edges
    n = g.vertex_count
    path = [e[0], *range(n, n + length - 1), e[1]]
    return Graph.from_edges(n + length - 1, (g.edges - {e}) | set(zip(path, path[1:])))


class TestSharpFamilies:
    """Exact values, from the oracle, on the two families that measured
    n - 1 so far (thetas other than K_{2,3}, and K4 with one edge replaced
    by a path of length at least 3) and on near misses outside them.  Every
    graph stays within RainbowIndex's 10 vertices."""

    @pytest.mark.parametrize("length", range(2, 8))
    def test_k4_with_a_path(self, length):
        """A path of length 2 gives 3 = n - 2; longer ones give n - 1."""
        g = subdivide(k4(), (0, 1), length)
        assert exact_rc2(g) == (3 if length == 2 else g.vertex_count - 1)

    @pytest.mark.parametrize("b,c", [(b, c) for b in range(2, 6) for c in range(b, 11 - b)])
    def test_chorded_theta(self, b, c):
        """theta(1, b, c): the diamond theta(1, 2, 2) with its two 2-paths
        stretched to b and c edges."""
        g = subdivide(subdivide(diamond(), (0, 2), b - 1), (0, 3), c - 1)
        assert g.vertex_count == b + c
        assert exact_rc2(g) == g.vertex_count - 1

    @pytest.mark.parametrize("a,b,c", [(2, 2, 7), (2, 3, 6), (2, 4, 5), (3, 3, 5), (3, 4, 4)])
    def test_ten_vertex_theta(self, a, b, c):
        assert exact_rc2(theta_graph(a, b, c)) == 9

    @pytest.mark.parametrize(
        "g",
        [subdivide(complete_bipartite_graph(3, 3), (0, 3), 4), subdivide(prism(), (0, 3), 4)],
        ids=["k33", "prism-rung"],
    )
    def test_near_misses_need_n_minus_two(self, g):
        """One more independent cycle than a theta: a 4-path for one edge of
        K_{3,3}, or for one rung of the prism, gives 7 on 9 vertices."""
        assert exact_rc2(g) == 7 == g.vertex_count - 2


class TestCensus:
    def test_n3_single_triangle(self):
        rows = census_small_graphs(3)
        assert len(rows) == 1
        row = rows[0]
        assert (row.graph_id, row.n, row.m) == (7, 3, 3)
        assert row.edges == "0-1;0-2;1-2"
        assert row.rc2_exact == row.rc2_constructive == 3
        assert row.is_cycle

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_counts_match_known_sequence(self, n):
        assert len(census_rows(n)) == TWO_CONNECTED_COUNTS[n]

    @pytest.mark.parametrize("n", [4, 5])
    def test_rows_are_internally_consistent(self, n):
        for row in census_rows(n):
            assert row.rc2_exact <= row.rc2_constructive
            if row.is_cycle:
                assert row.rc2_exact == row.n == row.rc2_constructive
            else:
                assert row.rc2_constructive <= row.n - 1

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_no_row_breaks_the_theorem(self, n):
        """Under python -O too: ``theorem_faults`` makes plain checks."""
        for row in census_rows(n):
            assert theorem_faults(row) == [], row.edges

    @pytest.mark.parametrize(
        "edges, changes, faults",
        [
            ("0-2;0-3;1-2;1-3", {"rc2_exact": 3}, ["a cycle with exact 3, not n = 4"]),
            ("0-2;0-3;1-2;1-3", {"rc2_constructive": 3}, ["exact 4 above constructed 3"]),
            ("0-1;0-2;0-3;1-2;1-3", {"rc2_constructive": 4}, ["constructed 4, more than n - 1 = 3"]),
            (
                "0-1;0-2;0-3;1-2;1-3",
                {"rc2_exact": 4, "rc2_constructive": 4},
                ["a non-cycle with exact n = 4", "constructed 4, more than n - 1 = 3"],
            ),
        ],
        ids=["c4-exact-3", "c4-constructed-3", "diamond-constructed-4", "diamond-exact-4"],
    )
    def test_theorem_faults_name_each_break(self, edges, changes, faults):
        """A 4-cycle's row and the diamond's, each damaged."""
        row = next(row for row in census_rows(4) if row.edges == edges)
        assert theorem_faults(row) == []
        assert theorem_faults(dataclasses.replace(row, **changes)) == faults

    @pytest.mark.parametrize(
        "n, edges, kind",
        [
            (5, "0-2;0-3;0-4;1-2;1-3;1-4", "theta"),
            (4, "0-1;0-2;0-3;1-2;1-3;2-3", "other"),
            (6, "0-4;4-5;1-5;0-2;0-3;1-2;1-3;2-3", "K4-path"),
            (6, "0-4;1-4;0-2;0-3;1-2;1-3;2-5;3-5", "other"),
            (5, "0-1;0-2;0-3;0-4;1-2;2-3;3-4;1-4", "other"),
        ],
        ids=["theta-2-2-2", "k4", "k4-one-edge-a-path", "k4-two-edges-paths", "wheel-5"],
    )
    def test_sharp_kind(self, n, edges, kind):
        m = edges.count(";") + 1
        row = CensusRow(0, 0, n, m, edges, n - 1, n - 1, False)
        assert sharp_kind(row) == kind

    def test_out_of_range(self):
        with pytest.raises(InvalidInput, match="census covers 3 to 6 vertices"):
            census_small_graphs(7)
        with pytest.raises(InvalidInput, match="census covers 3 to 6 vertices"):
            census_small_graphs(2)

    def test_csv_shape(self):
        text = census_csv(census_small_graphs(3))
        lines = text.strip().splitlines()
        assert lines[0] == "graph_id,n,m,edges,rc2_exact,rc2_constructive,is_cycle"
        assert lines[1] == "7,3,3,0-1;0-2;1-2,3,3,true"

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_csv_is_pinned(self, n):
        text = census_csv(list(census_rows(n)))
        assert hashlib.sha256(text.encode()).hexdigest() == CENSUS_CSV_SHA256[n]

    @pytest.mark.parametrize("n", [4, 5])
    def test_every_row_matches_its_own_brute_force(self, n):
        """The census reuses one brute force per isomorphism class; running
        the oracle on every labeled graph must give the same minima."""
        for row in census_rows(n):
            assert brute_force_rc2(row_graph(row)) == row.rc2_exact, row.edges

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_one_key_per_isomorphism_class(self, n):
        rows = census_rows(n)
        assert len({row.class_id for row in rows}) == TWO_CONNECTED_CLASS_COUNTS[n]
        # A class is named by its smallest member.
        assert all(row.class_id <= row.graph_id for row in rows)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_key_survives_relabeling(self, data):
        n = data.draw(st.sampled_from([4, 5, 6]))
        row = data.draw(st.sampled_from(census_rows(n)))
        perm = data.draw(st.permutations(range(n)))
        slots = list(combinations(range(n), 2))
        relabeled = sum(
            1 << slots.index(tuple(sorted((perm[u], perm[v])))) for u, v in row_graph(row).edges
        )
        twin = next(r for r in census_rows(n) if r.graph_id == relabeled)
        assert (twin.class_id, twin.rc2_exact) == (row.class_id, row.rc2_exact)

    def test_builds_graphs_only_of_minimum_degree_two(self):
        """The census skips every mask with a vertex of degree below 2
        before it builds a Graph, and builds one for every other mask; the
        2-connectivity scan still decides which of them are rows."""
        n = 5
        slots = list(combinations(range(n), 2))
        expected = [
            mask
            for mask in range(1 << len(slots))
            if all(sum(mask >> b & 1 for b, e in enumerate(slots) if v in e) >= 2 for v in range(n))
        ]
        with mock.patch.object(Graph, "from_edges", wraps=Graph.from_edges) as from_edges:
            rows = census_small_graphs(n)
        masks = [sum(1 << slots.index(e) for e in c.args[1]) for c in from_edges.call_args_list]
        assert masks == expected
        assert (len(masks), len(rows)) == (253, TWO_CONNECTED_COUNTS[n])

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_brute_force_runs_once_per_class(self, n):
        _, brute_force_calls = census_run(n)
        assert brute_force_calls == TWO_CONNECTED_CLASS_COUNTS[n]
