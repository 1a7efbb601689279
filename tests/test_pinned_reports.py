"""Pinned verification reports: the verifier's verdicts, byte for byte.

Each digest is the sha256 of the canonical report JSON, one line per
report, recorded before the rainbow-path search became iterative and the
A1/A2/A3 predicates were shared by the pair checks and the induction
replay.  ``PINNED_DIGEST`` covers passing reports: ``is_rainbow_two_connected``
on every corpus coloring, then ``check_induction_invariants`` on every
traced corpus coloring.  ``BROKEN_DIGEST`` covers mostly failing ones: the
same two checks after the last two color classes are merged (in the replay,
at the last level), and the replay with the last level's recycled color
shifted by one where that level attached an ear.  So the violation each
check reports first is pinned too.  ``BROKEN_DIGEST`` was recorded again
when the replay's B2 check began to require the recycled color on the
ear's last edge: four shifted traces (corpus graphs 107, 131, 133 and 148)
fail B2 there, where they used to pass.  Since the trace became per-level
deltas, the merged coloring is applied as the last level's delta, which
recolors every edge and gives the same snapshot.  ``BROKEN_DIGEST`` was recorded again when the
minimalizer began to sweep a sparse certificate of graphs with more than
2n - 2 edges: the seven such corpus graphs (K5, K6, K7, K_{3,5}, K_{4,4},
K_{4,5}, K_{5,5}) get new colorings, so their broken reports name other
subjects, and merging two classes now breaks K_{3,5}'s coloring and no
longer breaks K_{5,5}'s.  ``PINNED_DIGEST`` held.  Both digests were
recorded again when the minimalizer began to sweep the Khuller-Vishkin
carving of every graph, which gives 39 corpus graphs new colorings with the
same color counts.  98 corpus colorings are now traced, not 97: K5, K6, K7,
K_{4,4}, K_{5,5} and three random graphs now carve to a Hamiltonian cycle
and take the direct scheme, and nine random graphs go the other way.  The
passing A1 reports held, and 14 of the replays changed.  After merging the
last two classes, 28 A1 reports change: W6..W9 and two random colorings now
pass, K_{3,4}, K_{4,5} and four random ones now fail, and 16 fail at another
pair.  A1 witnesses are not
part of the reports, so the order in which the pair search finds them
affects neither digest.
"""

import dataclasses
import hashlib

from rc2.coloring import EdgeColoring, color_rc2, trace_levels
from rc2.corpus import standard_corpus
from rc2.graphs import canonical_json
from rc2.verify import check_induction_invariants, is_rainbow_two_connected

PINNED_DIGEST = "7f585ecbca280eb15043bb6b1a94cc402fbd3f2d06f14201fb635ed1e5743a8c"
BROKEN_DIGEST = "cf2dd52359d83123af8ec864b9bef448bc671222a2437aa6cb9d89da327bef1a"


def merge_last_two_classes(coloring: EdgeColoring) -> EdgeColoring:
    top = coloring.color_count - 1
    return EdgeColoring.from_assignment(
        {e: top - 1 if c == top else c for e, c in coloring.assignment.items()}
    )


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
        last_level = list(trace_levels(result.trace))[-1]
        # The merged coloring, given as the last level's delta, overrides every edge.
        merged = dataclasses.replace(last, colored=merge_last_two_classes(last_level.coloring).assignment)
        out.append(check_induction_invariants(with_last_step(result, merged), g))
        if last.recycled_color is not None:
            shifted = dataclasses.replace(last, recycled_color=last.recycled_color + 1)
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
