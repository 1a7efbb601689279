import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rc2 import FamilySpec, generate_family
from rc2.errors import InvalidInput
from rc2.graphs import degree_two_set, is_cycle_graph, is_two_connected
from rc2.generators import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    random_two_connected,
    theta_graph,
    wheel_graph,
)


class TestShapes:
    def test_cycle(self):
        g = cycle_graph(5)
        assert is_cycle_graph(g)
        assert g.vertex_count == 5 and g.edge_count == 5

    def test_cycle_too_small(self):
        with pytest.raises(InvalidInput, match="cycle needs n >= 3"):
            cycle_graph(2)

    def test_theta_counts(self):
        # two hubs joined by three paths of a, b, c edges
        g = theta_graph(2, 3, 4)
        assert g.vertex_count == 2 + 1 + 2 + 3
        assert g.edge_count == 2 + 3 + 4
        assert degree_two_set(g) == frozenset(range(2, 8))
        assert [len(g.adjacency()[v]) for v in (0, 1)] == [3, 3]

    def test_theta_minimum_arm(self):
        with pytest.raises(InvalidInput, match="must each be >= 2"):
            theta_graph(1, 3, 3)

    def test_wheel(self):
        g = wheel_graph(6)
        assert g.vertex_count == 6
        assert [len(nbrs) for nbrs in g.adjacency().values()] == [5, 3, 3, 3, 3, 3]

    def test_complete(self):
        g = complete_graph(5)
        assert g.edge_count == 10

    def test_complete_bipartite(self):
        g = complete_bipartite_graph(2, 3)
        assert g.edges == frozenset(
            {(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)}
        )

    def test_bipartite_minimum_side(self):
        with pytest.raises(InvalidInput, match="both parts >= 2"):
            complete_bipartite_graph(1, 3)


class TestRandomTwoConnected:
    def test_exact_vertex_count(self):
        g = random_two_connected(9, 2, seed=5)
        assert g.vertex_count == 9

    def test_same_seed_same_graph(self):
        a = random_two_connected(8, 2, seed=11)
        b = random_two_connected(8, 2, seed=11)
        assert a.edges == b.edges

    def test_different_seeds_differ_somewhere(self):
        graphs = {random_two_connected(8, 2, seed=s).edges for s in range(8)}
        assert len(graphs) > 1

    def test_too_many_ears(self):
        with pytest.raises(InvalidInput, match="cannot fit 3 nonempty ears in 4 vertices"):
            random_two_connected(4, 3, seed=0)

    @given(st.integers(4, 12), st.integers(1, 3), st.integers(0, 10**6))
    @settings(max_examples=80)
    def test_always_two_connected(self, n, ears, seed):
        if 3 + ears > n:
            return
        g = random_two_connected(n, ears, seed)
        assert g.vertex_count == n
        assert is_two_connected(g)


class TestFamilyDispatch:
    def test_dispatch(self):
        g = generate_family(FamilySpec("theta", {"a": 2, "b": 2, "c": 2}))
        assert g.vertex_count == 5

    def test_unknown_family(self):
        with pytest.raises(InvalidInput, match="unknown family 'moebius'"):
            generate_family(FamilySpec("moebius", {"n": 8}))

    def test_missing_parameter(self):
        with pytest.raises(InvalidInput, match="missing parameter"):
            generate_family(FamilySpec("wheel", {}))

    def test_extra_parameter(self):
        with pytest.raises(InvalidInput, match="cycle takes no parameter 'bogus'"):
            generate_family(FamilySpec("cycle", {"n": 4, "bogus": 1}))
        with pytest.raises(InvalidInput, match="theta takes no parameter 'seed'"):
            generate_family(FamilySpec("theta", {"a": 2, "b": 2, "c": 2, "seed": 1}))

    def test_random_seed_is_optional(self):
        unseeded = FamilySpec("random_two_connected", {"n": 8, "ears": 2})
        seeded = FamilySpec("random_two_connected", {"n": 8, "ears": 2, "seed": 5})
        assert generate_family(unseeded) == random_two_connected(8, 2, 0)
        assert generate_family(seeded) == random_two_connected(8, 2, 5)

    def test_describe_mentions_name_and_params(self):
        text = FamilySpec("wheel", {"n": 7}).describe()
        assert "wheel" in text and "7" in text
