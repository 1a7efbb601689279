#!/usr/bin/env python3
"""Color and verify the whole benchmark corpus, then print a summary table.

For every corpus member this colors the graph, checks the rainbow
2-connection property exhaustively, searching the coloring's support before
the whole graph, and records colors used against the n-1 budget.  Every
ear-induction coloring is colored with its trace, and the trace is replayed
with ``check_induction_invariants``.  A graph fails when its verification
or its replay fails or is skipped, or when its
coloring uses more than n-1 colors; each failure is named on its own line,
and any failure makes the exit status 1.  The per-family summary shows how
much of the budget the construction actually spends.  Under the summary
line it prints the replay count, the number of pairs whose witness the
support did not hold (summed over the corpus), and the sha256
of the canonical coloring JSON, one line per corpus member, and the sha256
of the traced coloring JSON (what ``rc2 color --trace`` writes: the
coloring plus one delta per construction level), one line per corpus
member, so two checkouts whose colorings and traces are byte-identical
print the same digests.

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
from rc2.reports import DEFAULT_GUARD
from rc2.verify import check_induction_invariants, is_rainbow_two_connected


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--csv", default=None, help="also write per-graph rows here")
    args = parser.parse_args(argv)

    rows = []
    by_family = defaultdict(lambda: {"graphs": 0, "colors": 0, "budget": 0, "failures": 0})
    digest = hashlib.sha256()
    traces = hashlib.sha256()
    replays = 0
    fallbacks = 0
    t0 = time.perf_counter()
    for spec, g in standard_corpus():
        result = color_rc2(g, with_trace=True)
        digest.update(result.to_json_text().encode() + b"\n")
        traces.update(result.to_json_text(include_trace=True).encode() + b"\n")
        report = is_rainbow_two_connected(g, result.coloring, DEFAULT_GUARD, result.support)
        fallbacks += dict(report.witnesses).get("support_fallbacks", 0)
        used = result.coloring.color_count
        budget = g.vertex_count - 1
        checks = [("verification", report)]
        if result.trace is not None:
            replays += 1
            checks.append(("replay", check_induction_invariants(result, g)))
        # A skipped check fails too; its one violation names the refusal.
        faults = [
            f"{name}: {v.kind} {v.subject} {v.reason}"
            for name, r in checks
            if not r.passed
            for v in r.violations[:1]
        ]
        if used > budget:
            faults.append(f"{used} colors, more than n - 1 = {budget}")
        for fault in faults:
            print(f"{spec.describe()}: {fault}")
        rows.append(
            {
                "graph": spec.describe(),
                "n": g.vertex_count,
                "m": g.edge_count,
                "strategy": result.strategy,
                "colors_used": used,
                "colors_allowed": budget,
                "verified": "yes" if report.passed else ("skipped" if report.skipped else "NO"),
            }
        )
        agg = by_family[spec.name]
        agg["graphs"] += 1
        agg["colors"] += used
        agg["budget"] += budget
        if faults:
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
    print(f"{replays} traced colorings replayed")
    print(f"support fallbacks {fallbacks}")
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
