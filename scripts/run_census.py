#!/usr/bin/env python3
"""Exact versus constructed color counts over all tiny 2-connected graphs.

Enumerates every labeled 2-connected graph on n vertices (n in 3..6),
computes the true minimum by brute force (once per isomorphism class) and
the constructive count, and prints how many classes there are, how many
classes need n - 1 colors, how often the construction is optimal and how
large the gap gets.  n = 6 takes a few seconds.  Every row is checked
against the theorem: exact at most constructed, exact = n exactly when the
graph is a cycle, and constructed at most n - 1 for a non-cycle.  Each row
that breaks it is named on its own line, and any such row makes the exit
status 1.

The classes that need n - 1 are split three ways: theta graphs, K4 with
one edge replaced by a longer path, and other, each other class named on
its own line.  That no other class needs n - 1 is a conjecture, measured
here and not proven, so an other class does not change the exit status.

Usage:
    python3 scripts/run_census.py [--n 5 --n 6] [--out-dir census/]
"""

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

from rc2.oracle import CENSUS_SIZES, census_csv, census_small_graphs


def faults(row):
    """How the row breaks the theorem, if it does.  The package's own
    asserts check some of this, but ``python -O`` strips them."""
    n, exact, built = row.n, row.rc2_exact, row.rc2_constructive
    found = []
    if exact > built:
        found.append(f"exact {exact} above constructed {built}")
    if row.is_cycle and exact != n:
        found.append(f"a cycle with exact {exact}, not n = {n}")
    if not row.is_cycle and exact == n:
        found.append(f"a non-cycle with exact n = {n}")
    if not row.is_cycle and built > n - 1:
        found.append(f"constructed {built}, more than n - 1 = {n - 1}")
    return found


def sharp_kind(row):
    """"theta" for a theta graph (m = n + 1: two vertices of degree 3, the
    rest of degree 2), "K4-path" for K4 with one edge replaced by a path of
    length at least 2 (m = n + 2: four vertices of degree 3, the rest of
    degree 2, and exactly one of the six chains between them has interior
    vertices), and "other" for every other graph."""
    pairs = [tuple(map(int, e.split("-"))) for e in row.edges.split(";")]
    adj = {v: [] for v in range(row.n)}
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    branch = {v for v, nbrs in adj.items() if len(nbrs) != 2}
    if any(len(adj[v]) != 3 for v in branch):
        return "other"
    if row.m == row.n + 1 and len(branch) == 2:
        return "theta"
    # A chain with interior vertices leaves the branch vertices by two edges.
    leaving = sum(x not in branch for b in branch for x in adj[b])
    if row.m == row.n + 2 and len(branch) == 4 and leaving == 2:
        return "K4-path"
    return "other"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--n",
        type=int,
        action="append",
        choices=CENSUS_SIZES,
        help="vertex counts to run (default: all of them)",
    )
    parser.add_argument("--out-dir", default=None, help="write census_<n>.csv files here")
    args = parser.parse_args(argv)
    sizes = args.n or CENSUS_SIZES

    broken = 0
    for n in sizes:
        t0 = time.perf_counter()
        rows = census_small_graphs(n)
        elapsed = time.perf_counter() - t0
        for row in rows:
            found = faults(row)
            broken += bool(found)
            for fault in found:
                print(f"n={n} graph {row.graph_id} ({row.edges}): {fault}")
        classes = len({row.class_id for row in rows})
        gaps = Counter(row.rc2_constructive - row.rc2_exact for row in rows)
        optimal = gaps[0]
        print(f"n={n}: {len(rows)} graphs ({classes} classes) in {elapsed:.2f}s")
        sharp = {}
        for row in rows:
            if row.rc2_exact == n - 1:
                sharp.setdefault(row.class_id, row)
        print(f"  classes needing n-1 = {n - 1} colors: {len(sharp)}/{classes}")
        kinds = {row: sharp_kind(row) for row in sharp.values()}
        split = Counter(kinds.values())
        print(
            f"  of these: theta {split['theta']}, K4-path {split['K4-path']}, "
            f"other {split['other']}"
        )
        for row, kind in kinds.items():
            if kind == "other":
                print(f"  other: class {row.class_id} ({row.edges})")
        print(f"  construction optimal on {optimal}/{len(rows)}")
        for gap in sorted(gaps):
            if gap:
                print(f"  gap {gap}: {gaps[gap]} graphs")
        worst = max(rows, key=lambda row: row.rc2_constructive - row.rc2_exact)
        if worst.rc2_constructive > worst.rc2_exact:
            print(
                f"  worst: graph {worst.graph_id} ({worst.edges}) "
                f"exact {worst.rc2_exact}, constructed {worst.rc2_constructive}"
            )
        if args.out_dir is not None:
            out = Path(args.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            path = out / f"census_{n}.csv"
            path.write_text(census_csv(rows))
            print(f"  wrote {path}")
    if broken:
        print(f"graphs breaking the theorem: {broken}")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
