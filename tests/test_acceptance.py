"""Acceptance gate: one test per release criterion.

Each test prints a single ``[acceptance] <name>: PASS|FAIL`` line on the
real stdout (capture suspended) so the verdicts always appear in logged
runs, then fails normally through pytest on any violation.
"""

import json
import subprocess
import sys
from contextlib import contextmanager

import pytest

from rc2.coloring import color_minimally_two_connected, color_rc2
from rc2.corpus import standard_corpus
from rc2.ears import build_ear_decomposition, check_ear_conditions
from rc2.generators import cycle_graph
from rc2.graphs import degree_two_set, graph_to_json, is_cycle_graph, is_two_connected
from rc2.minimalize import (
    bollobas_structure_check,
    is_minimally_two_connected,
    spanning_minimally_two_connected,
)
from rc2.oracle import brute_force_rc2
from rc2.reports import SizeGuard
from rc2.verify import check_induction_invariants, is_rainbow_two_connected

from .common import TWO_CONNECTED_COUNTS, census_rows


@contextmanager
def criterion(capsys, name):
    verdict = "FAIL"
    try:
        yield
        verdict = "PASS"
    finally:
        with capsys.disabled():
            print(f"\n[acceptance] {name}: {verdict}", flush=True)


@pytest.fixture(scope="session")
def corpus():
    return standard_corpus()


@pytest.fixture(scope="session")
def minimalized(corpus):
    """Deduplicated minimalizations of every corpus member."""
    seen = {}
    for _, g in corpus:
        h = spanning_minimally_two_connected(g)
        seen.setdefault((h.vertex_count, tuple(sorted(h.edges))), h)
    return list(seen.values())


def test_noncycle_corpus_bound_and_verification(corpus, capsys):
    with criterion(capsys, "noncycle-bound-and-verify"):
        assert len(corpus) >= 150
        for spec, g in corpus:
            assert is_two_connected(g), spec.describe()
            assert not is_cycle_graph(g), spec.describe()
            result = color_rc2(g)
            assert result.coloring.color_count <= g.vertex_count - 1, spec.describe()
            report = is_rainbow_two_connected(g, result.coloring)
            assert not report.skipped, spec.describe()
            assert report.passed, (spec.describe(), report.violations)


def test_cycle_color_count_is_sharp(capsys):
    with criterion(capsys, "cycle-sharpness"):
        for n in (3, 4, 5, 6):
            g = cycle_graph(n)
            assert brute_force_rc2(g) == n
            result = color_rc2(g)
            assert result.coloring.color_count == n
            report = is_rainbow_two_connected(g, result.coloring)
            assert report.passed and not report.skipped


def test_census_exact_vs_constructive_consistency(capsys):
    with criterion(capsys, "census-consistency"):
        for n in (4, 5, 6):
            rows = census_rows(n)
            assert len(rows) == TWO_CONNECTED_COUNTS[n]
            for row in rows:
                assert row.rc2_exact <= row.rc2_constructive, row
                if not row.is_cycle:
                    assert row.rc2_constructive <= row.n - 1, row
                assert (row.rc2_exact == row.n) == row.is_cycle, row


def test_induction_invariants_hold_on_minimal_graphs(minimalized, capsys):
    with criterion(capsys, "induction-invariants"):
        guard = SizeGuard(max_vertices=10, max_edges=28)
        subjects = [
            h
            for h in minimalized
            if not is_cycle_graph(h) and h.vertex_count <= 10
        ]
        assert len(subjects) >= 50
        for h in subjects:
            result = color_minimally_two_connected(h, with_trace=True)
            report = check_induction_invariants(result, h, guard)
            assert not report.skipped, sorted(h.edges)
            assert report.passed, (sorted(h.edges), report.violations)


def test_minimalizer_contract(corpus, capsys):
    with criterion(capsys, "minimalizer-contract"):
        for spec, g in corpus:
            h = spanning_minimally_two_connected(g)
            assert h.vertex_count == g.vertex_count, spec.describe()
            assert set(h.edges) <= set(g.edges), spec.describe()
            assert is_two_connected(h), spec.describe()
            assert is_minimally_two_connected(h), spec.describe()
            if not is_cycle_graph(h):
                report = bollobas_structure_check(h)
                assert report.passed, (spec.describe(), report.violations)


def test_ear_decompositions_satisfy_conditions(minimalized, capsys):
    with criterion(capsys, "ear-conditions"):
        subjects = [h for h in minimalized if not is_cycle_graph(h)]
        assert len(subjects) >= 50
        for h in subjects:
            dec = build_ear_decomposition(h)
            report = check_ear_conditions(dec, h)
            assert report.passed, (sorted(h.edges), report.violations)
            assert dec.repair_exchanges <= len(degree_two_set(h)), sorted(h.edges)


def test_coloring_output_is_deterministic(corpus, tmp_path, capsys):
    with criterion(capsys, "determinism"):
        for spec, g in corpus:
            first = color_rc2(g, with_trace=True).to_json_text(include_trace=True)
            second = color_rc2(g, with_trace=True).to_json_text(include_trace=True)
            assert first == second, spec.describe()
        # Process-level spot check through the installed entry point.
        gpath = tmp_path / "g.json"
        gpath.write_text(graph_to_json(corpus[0][1]) + "\n")
        runs = [
            subprocess.run(
                [sys.executable, "-m", "rc2", "color", "--input", str(gpath)],
                capture_output=True,
                text=True,
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == runs[1].returncode == 0
        assert runs[0].stdout == runs[1].stdout
        assert json.loads(runs[0].stdout)["strategy"]
