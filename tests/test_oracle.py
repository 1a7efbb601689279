import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rc2 import Graph, RainbowIndex, brute_force_rc2, census_csv, census_small_graphs, color_rc2
from rc2.errors import BudgetExceeded, InvalidInput, PreconditionViolated
from rc2.generators import theta_graph
from rc2.oracle import _exact_k_colorings

from .common import TWO_CONNECTED_COUNTS, cycle, diamond, k4, k23, wheel


# Stirling set numbers S(m, k): how many ways to split m labeled items
# into k unlabeled nonempty groups.  Canonical colorings must hit each
# partition exactly once.
STIRLING = {
    (1, 1): 1,
    (2, 1): 1, (2, 2): 1,
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

    @pytest.mark.parametrize("n", [4, 5])
    def test_counts_match_known_sequence(self, n):
        rows = census_small_graphs(n)
        assert len(rows) == TWO_CONNECTED_COUNTS[n]

    @pytest.mark.parametrize("n", [4, 5])
    def test_rows_are_internally_consistent(self, n):
        for row in census_small_graphs(n):
            assert row.rc2_exact <= row.rc2_constructive
            if row.is_cycle:
                assert row.rc2_exact == row.n == row.rc2_constructive
            else:
                assert row.rc2_constructive <= row.n - 1

    def test_out_of_range(self):
        with pytest.raises(InvalidInput, match="census covers 3 to 5 vertices"):
            census_small_graphs(6)
        with pytest.raises(InvalidInput, match="census covers 3 to 5 vertices"):
            census_small_graphs(2)

    def test_csv_shape(self):
        text = census_csv(census_small_graphs(3))
        lines = text.strip().splitlines()
        assert lines[0] == "graph_id,n,m,edges,rc2_exact,rc2_constructive,is_cycle"
        assert lines[1] == "7,3,3,0-1;0-2;1-2,3,3,true"
