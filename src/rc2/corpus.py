"""The benchmark corpus: a fixed, reproducible set of 2-connected non-cycles.

Families: every theta graph with path lengths (a, b, c), each at least 2 and
summing to at most 10, as ordered triples (35); wheels on 4..9 vertices (6);
complete graphs on 4..7 vertices (4); complete bipartite graphs with parts
between 2 and 5 except the 4-cycle K_{2,2} (9); and 100 seeded random
2-connected graphs on 5..12 vertices (ear count varying with the seed).
Total 154.

:func:`check_corpus` colors every member with its trace, verifies the
coloring exhaustively, searching the coloring's support before the whole
graph, replays each ear-induction trace with ``check_induction_invariants``
and holds the coloring to the n - 1 budget.  It also hashes the canonical
coloring JSON and the traced coloring JSON (what ``rc2 color --trace``
writes), one line per member each, so two checkouts whose colorings and
traces are byte-identical give the same digests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .coloring import color_rc2
from .generators import FamilySpec, generate_family
from .graphs import Graph
from .reports import DEFAULT_GUARD
from .verify import check_induction_invariants, is_rainbow_two_connected

CorpusEntry = tuple[FamilySpec, Graph]


def _specs() -> list[FamilySpec]:
    specs: list[FamilySpec] = []
    for total in range(6, 11):
        for a in range(2, total - 3):
            for b in range(2, total - a - 1):
                c = total - a - b
                if c >= 2:
                    specs.append(FamilySpec("theta", {"a": a, "b": b, "c": c}))
    for n in range(4, 10):
        specs.append(FamilySpec("wheel", {"n": n}))
    for n in range(4, 8):
        specs.append(FamilySpec("complete", {"n": n}))
    for a in range(2, 6):
        for b in range(a, 6):
            if (a, b) != (2, 2):
                specs.append(FamilySpec("complete_bipartite", {"a": a, "b": b}))
    for i in range(100):
        n = 5 + i % 8
        specs.append(
            FamilySpec(
                "random_two_connected",
                {"n": n, "ears": min(1 + i % 3, n - 3), "seed": i},
            )
        )
    return specs


def standard_corpus() -> list[CorpusEntry]:
    """The full corpus as (spec, graph) pairs, in a fixed order."""
    return [(spec, generate_family(spec)) for spec in _specs()]


@dataclass(frozen=True)
class CorpusRow:
    """One corpus member's check.  ``colors_allowed`` is n - 1, ``verified``
    is "yes", "NO" or "skipped", and ``faults`` names each way the member
    failed, empty when it passed."""

    spec: FamilySpec
    n: int
    m: int
    strategy: str
    colors_used: int
    colors_allowed: int
    verified: str
    faults: tuple[str, ...]


@dataclass(frozen=True)
class CorpusCheck:
    rows: tuple[CorpusRow, ...]
    replays: int
    support_fallbacks: int
    colorings_sha256: str
    traces_sha256: str


def check_corpus() -> CorpusCheck:
    """Color, verify and replay every corpus member, in corpus order.  A
    member fails when its verification or its replay fails or is skipped,
    or when its coloring uses more than n - 1 colors."""
    rows = []
    colorings = hashlib.sha256()
    traces = hashlib.sha256()
    replays = fallbacks = 0
    for spec, g in standard_corpus():
        result = color_rc2(g, with_trace=True)
        colorings.update(result.to_json_text().encode() + b"\n")
        traces.update(result.to_json_text(include_trace=True).encode() + b"\n")
        report = is_rainbow_two_connected(g, result.coloring, DEFAULT_GUARD, result.support)
        fallbacks += dict(report.witnesses).get("support_fallbacks", 0)
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
        used, budget = result.coloring.color_count, g.vertex_count - 1
        if used > budget:
            faults.append(f"{used} colors, more than n - 1 = {budget}")
        verified = "yes" if report.passed else "skipped" if report.skipped else "NO"
        rows.append(
            CorpusRow(
                spec, g.vertex_count, g.edge_count, result.strategy, used, budget, verified,
                tuple(faults),
            )
        )
    return CorpusCheck(tuple(rows), replays, fallbacks, colorings.hexdigest(), traces.hexdigest())
