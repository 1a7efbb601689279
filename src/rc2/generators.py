"""Deterministic graph family generators used by tests and the benchmark corpus."""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice

from .errors import InvalidInput
from .graphs import Graph, edge


@dataclass(frozen=True)
class FamilySpec:
    """A named graph family plus its parameters, e.g. ``theta(2,3,4)``."""

    name: str
    params: dict

    def describe(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.name}({inner})"


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InvalidInput("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def theta_graph(a: int, b: int, c: int) -> Graph:
    """Two hub vertices 0 and 1 joined by three internally disjoint paths
    with a, b, c edges respectively (each at least 2).

    Measured, not proved: on the 35 corpus thetas (a + b + c at most 10, so
    n = 5..9) the oracle finds the exact rc2 value n - 1, the paper's upper
    bound, except for theta(2, 2, 2) = K_{2,3}, which needs 3 colors;
    ``test_every_corpus_theta_needs_n_minus_one_colors`` in
    ``tests/test_oracle.py`` checks this.  ``EXACT_RC2`` in
    ``tests/common.py`` pins four of these values from the oracle:
    theta(2,2,3) = 5, theta(2,3,3) = 6, theta(3,3,3) = 7 and
    theta(2,3,4) = 7.
    """
    if min(a, b, c) < 2:
        raise InvalidInput("theta path lengths must each be >= 2")
    n = a + b + c - 1
    edges = []
    nxt = 2
    for length in (a, b, c):
        prev = 0
        for _ in range(length - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
    return Graph.from_edges(n, edges)


def wheel_graph(n: int) -> Graph:
    """Hub vertex 0 joined to every vertex of the rim cycle 1..n-1."""
    if n < 4:
        raise InvalidInput("wheel needs n >= 4")
    rim = [(i, i + 1) for i in range(1, n - 1)] + [(n - 1, 1)]
    spokes = [(0, i) for i in range(1, n)]
    return Graph.from_edges(n, rim + spokes)


def complete_graph(n: int) -> Graph:
    if n < 3:
        raise InvalidInput("complete graph needs n >= 3 to be 2-connected")
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite_graph(a: int, b: int) -> Graph:
    """Parts {0..a-1} and {a..a+b-1}."""
    if min(a, b) < 2:
        raise InvalidInput("complete bipartite graph needs both parts >= 2")
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def random_two_connected(n: int, ears: int, seed: int) -> Graph:
    """A random 2-connected graph built by gluing ears onto a cycle.

    The vertex ids are shuffled so structure does not correlate with id
    order.  Reproducible for a fixed (n, ears, seed) triple.
    """
    if n < 3:
        raise InvalidInput("need n >= 3")
    if ears < 0 or 3 + ears > n:
        raise InvalidInput(f"cannot fit {ears} nonempty ears in {n} vertices")
    rng = random.Random(seed)
    ids = list(range(n))
    rng.shuffle(ids)

    # Hand every ear one interior vertex, then sprinkle the rest over the
    # base cycle and the ear interiors.  Fresh interiors mean the new chain
    # edges can never collide with existing ones.
    sizes = [3] + [1] * ears
    for _ in range(n - 3 - ears):
        sizes[rng.randrange(len(sizes))] += 1

    fresh = iter(ids)
    cycle = list(islice(fresh, sizes[0]))
    edges = {edge(a, b) for a, b in zip(cycle, cycle[1:])}
    edges.add(edge(cycle[-1], cycle[0]))
    placed = list(cycle)
    for size in sizes[1:]:
        interior = list(islice(fresh, size))
        u, v = rng.sample(placed, 2)
        chain = [u] + interior + [v]
        edges |= {edge(a, b) for a, b in zip(chain, chain[1:])}
        placed.extend(interior)
    return Graph.from_edges(n, edges)


# Each family's builder and the parameters it takes, in call order.
_BUILDERS = {
    "cycle": (cycle_graph, ("n",)),
    "theta": (theta_graph, ("a", "b", "c")),
    "wheel": (wheel_graph, ("n",)),
    "complete": (complete_graph, ("n",)),
    "complete_bipartite": (complete_bipartite_graph, ("a", "b")),
    "random_two_connected": (random_two_connected, ("n", "ears", "seed")),
}


def generate_family(spec: FamilySpec) -> Graph:
    """Build a graph from a family name and parameters (``seed`` defaults to 0)."""
    name, p = spec.name, spec.params
    if name not in _BUILDERS:
        raise InvalidInput(f"unknown family {name!r}")
    build, keys = _BUILDERS[name]
    for key in p:
        if key not in keys:
            raise InvalidInput(f"{name} takes no parameter {key!r}")
    try:
        return build(*(p.get(k, 0) if k == "seed" else p[k] for k in keys))
    except KeyError as exc:
        raise InvalidInput(f"{name} is missing parameter {exc}") from exc
