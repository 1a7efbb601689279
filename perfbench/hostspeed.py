"""Host-speed calibration for benchmark timings.

On a shared machine the host's speed drifts by up to +-20% over seconds to
minutes, alike for any Python code running on it.  A fixed slice of pure
Python work, timed between jobs, measures that drift.  Times taken while
the slices ran are multiplied by ``REF_SLICE_S / mean(slice times)`` and so
read as seconds at the reference speed.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

# The slice graph: SLICE_M random edges on SLICE_N vertices, from SLICE_SEED.
SLICE_N, SLICE_M, SLICE_SEED = 300, 900, 5
# The slice's typical time on a 2-vCPU Intel Xeon at 2.1 GHz, Python 3.11.7.
# It holds only for the slice graph above.
REF_SLICE_S = 3.3e-3


class HostSpeed:
    """A fixed slice of graph work (about 3.3 ms): build the adjacency lists
    of a fixed random graph and run DFS sweeps over it.

    The slice allocates as rc2's code does (dicts, lists, sets), so it feels
    the same memory contention.  The cyclic GC is off while it runs, so its
    time does not depend on how much the jobs left on the heap.
    """

    def __init__(self):
        rng = random.Random(SLICE_SEED)
        edges: set[tuple[int, int]] = set()
        while len(edges) < SLICE_M:
            u, v = rng.randrange(SLICE_N), rng.randrange(SLICE_N)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        self._edges = sorted(edges)

    def slice(self) -> float:
        """Seconds taken by one calibration slice."""
        gc_was_on = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        adj: dict[int, list[int]] = {v: [] for v in range(SLICE_N)}
        for u, v in self._edges:
            adj[u].append(v)
            adj[v].append(u)
        for nbrs in adj.values():
            nbrs.sort()
        for root in range(0, SLICE_N, 12):
            seen, stack = {root}, [root]
            while stack:
                for y in adj[stack.pop()]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
        elapsed = time.perf_counter() - start
        if gc_was_on:
            gc.enable()
        return elapsed


def factor(slices: list[float]) -> float:
    """Scale for times taken while ``slices`` were measured."""
    return REF_SLICE_S / statistics.fmean(slices)
