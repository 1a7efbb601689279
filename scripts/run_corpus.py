#!/usr/bin/env python3
"""Color and verify the whole benchmark corpus, then print a summary table.

For every corpus member this colors the graph, checks the rainbow
2-connection property exhaustively, and records colors used against the
n-1 budget.  The per-family summary shows how much of the budget the
construction actually spends.  Under the summary line it prints the sha256
of the canonical coloring JSON, one line per corpus member, and the sha256
of the traced coloring JSON (what ``rc2 color --trace`` writes), one line
per corpus member, so two checkouts whose colorings and traces are
byte-identical print the same digests.

Usage:
    python3 scripts/run_corpus.py [--csv out.csv]
"""

import argparse
import csv
import hashlib
import sys
import time
from collections import defaultdict

from rc2.coloring import color_rc2
from rc2.corpus import standard_corpus
from rc2.verify import is_rainbow_two_connected


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--csv", default=None, help="also write per-graph rows here")
    args = parser.parse_args(argv)

    rows = []
    by_family = defaultdict(lambda: {"graphs": 0, "colors": 0, "budget": 0, "failures": 0})
    digest = hashlib.sha256()
    traces = hashlib.sha256()
    t0 = time.perf_counter()
    for spec, g in standard_corpus():
        result = color_rc2(g, with_trace=True)
        digest.update(result.to_json_text().encode() + b"\n")
        traces.update(result.to_json_text(include_trace=True).encode() + b"\n")
        report = is_rainbow_two_connected(g, result.coloring)
        ok = report.passed
        used = result.coloring.color_count
        budget = g.vertex_count - 1
        rows.append(
            {
                "graph": spec.describe(),
                "n": g.vertex_count,
                "m": g.edge_count,
                "strategy": result.strategy,
                "colors_used": used,
                "colors_allowed": budget,
                "verified": "yes" if ok else ("skipped" if report.skipped else "NO"),
            }
        )
        agg = by_family[spec.name]
        agg["graphs"] += 1
        agg["colors"] += used
        agg["budget"] += budget
        if not ok:
            agg["failures"] += 1
    elapsed = time.perf_counter() - t0

    width = max(len(name) for name in by_family)
    print(f"{'family':<{width}}  graphs  avg colors / avg budget  failures")
    for name in sorted(by_family):
        agg = by_family[name]
        avg_used = agg["colors"] / agg["graphs"]
        avg_budget = agg["budget"] / agg["graphs"]
        print(
            f"{name:<{width}}  {agg['graphs']:>6}  {avg_used:>10.2f} / {avg_budget:<10.2f}"
            f"  {agg['failures']:>8}"
        )
    failures = sum(agg["failures"] for agg in by_family.values())
    print(f"\n{len(rows)} graphs, {failures} failures, {elapsed:.2f}s")
    print(f"colorings sha256 {digest.hexdigest()}")
    print(f"traces sha256 {traces.hexdigest()}")

    if args.csv is not None:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.csv}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
