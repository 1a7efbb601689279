"""Pinned verification reports: the verifier's verdicts, byte for byte.

Each digest is the sha256 of the canonical report JSON, one line per
report.  ``PINNED_DIGEST`` covers passing reports: ``is_rainbow_two_connected``
on every corpus coloring, then ``check_induction_invariants`` on every
traced corpus coloring.  ``BROKEN_DIGEST`` covers mostly failing ones: the
same two checks after the last two color classes are merged (in the replay,
in the last level's delta, which holds every edge of the top class), and
the replay with the last level's recycled color, on its ear's edge at the
larger end, shifted by one where that level attached an ear.  So the
violation each check reports first is pinned too.  A1
witnesses are not part of the reports, so the order in which the pair
search finds them affects neither digest.  A change to the colorings or to
what a check reports changes a digest; a change that means to do so
records the new digest and says in CHANGES.md which reports changed and
why.
"""

import dataclasses
import hashlib

from rc2.coloring import EdgeColoring, color_rc2
from rc2.corpus import standard_corpus
from rc2.graphs import canonical_json, edge
from rc2.verify import check_induction_invariants, is_rainbow_two_connected

PINNED_DIGEST = "7f585ecbca280eb15043bb6b1a94cc402fbd3f2d06f14201fb635ed1e5743a8c"
BROKEN_DIGEST = "1626851b81b8deef381a145b8f4bb7959c783d1a504f3c7c74d163d17acdee2c"


def merge_last_two_classes(coloring: EdgeColoring) -> EdgeColoring:
    return EdgeColoring.from_assignment(merged(coloring.assignment, coloring.color_count - 1))


def merged(assignment: dict, top: int) -> dict:
    return {e: top - 1 if c == top else c for e, c in assignment.items()}


def with_last_step(result, step):
    return dataclasses.replace(result, trace=result.trace[:-1] + (step,))


def reports(broken: bool):
    corpus = [g for _, g in standard_corpus()]
    out = []
    for g in corpus:
        coloring = color_rc2(g).coloring
        if broken:
            coloring = merge_last_two_classes(coloring)
        out.append(is_rainbow_two_connected(g, coloring))
    traced = [(color_rc2(g, with_trace=True), g) for g in corpus]
    traced = [(result, g) for result, g in traced if result.trace is not None]
    assert len(traced) == 98
    for result, g in traced:
        if not broken:
            out.append(check_induction_invariants(result, g))
            continue
        last = result.trace[-1]
        # The top color is one of the last level's fresh colors.
        top = result.coloring.color_count - 1
        merged_step = dataclasses.replace(last, colored=merged(last.colored, top))
        out.append(check_induction_invariants(with_last_step(result, merged_step), g))
        if len(result.trace) > 1:
            vq = max(last.ear.first, last.ear.last)
            at_vq = edge(vq, last.ear.vertices[-2 if last.ear.last == vq else 1])
            shifted = dataclasses.replace(last, colored={**last.colored, at_vq: last.colored[at_vq] + 1})
            out.append(check_induction_invariants(with_last_step(result, shifted), g))
    return out


def reports_digest(reps) -> str:
    h = hashlib.sha256()
    for report in reps:
        h.update(canonical_json(report.to_json_obj()).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_reports_match_the_pinned_digest():
    reps = reports(broken=False)
    assert all(r.passed for r in reps)
    assert reports_digest(reps) == PINNED_DIGEST


def test_broken_coloring_reports_match_the_pinned_digest():
    reps = reports(broken=True)
    assert not any(r.skipped for r in reps)
    assert reports_digest(reps) == BROKEN_DIGEST
