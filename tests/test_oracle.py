import hashlib
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rc2 import Graph, RainbowIndex, brute_force_rc2, census_csv, census_small_graphs, color_rc2
from rc2.errors import BudgetExceeded, InvalidInput, PreconditionViolated
from rc2.generators import theta_graph
from rc2.oracle import _exact_k_colorings

from .common import (
    TWO_CONNECTED_CLASS_COUNTS,
    TWO_CONNECTED_COUNTS,
    census_rows,
    census_run,
    cycle,
    diamond,
    k4,
    k23,
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

    def test_rejects_non_two_connected(self):
        with pytest.raises(PreconditionViolated, match="only defined for 2-connected graphs"):
            brute_force_rc2(Graph.from_edges(3, [(0, 1), (1, 2)]))

    def test_budget_carries_lower_bound(self):
        with pytest.raises(BudgetExceeded) as exc:
            brute_force_rc2(k23(), budget=3)
        assert exc.value.lower_bound == 2
        assert "budget" in str(exc.value)

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
        from rc2.generators import random_two_connected

        g = random_two_connected(5 + seed % 2, 1, seed)
        index = RainbowIndex(g)
        res = color_rc2(g)
        vec = [res.coloring.assignment[e] for e in index.edge_list]
        assert index.feasible(vec)
        bumped = list(vec)
        bumped[0] = max(vec) + 1
        assert index.feasible(bumped)


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

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_brute_force_runs_once_per_class(self, n):
        _, brute_force_calls = census_run(n)
        assert brute_force_calls == TWO_CONNECTED_CLASS_COUNTS[n]
