"""The two scripts under ``scripts/``, each run as a subprocess with the
package taken from ``src/``, or loaded from its file to damage what it
checks.

``run_corpus.py`` prints a digest of the corpus colorings and one of the
traced colorings; both are pinned here and quoted in the README, so a
change to any corpus coloring or trace fails this test until its digests
are recorded again on purpose, with the reason in CHANGES.md.
"""

import csv
import dataclasses
import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rc2.coloring import EdgeColoring
from rc2.reports import skipped

from .common import census_rows
from .test_oracle import CENSUS_CSV_SHA256

ROOT = Path(__file__).resolve().parent.parent

COLORINGS_SHA256 = "c06ef980d358372d693f88f973553b1248dc5f537f710d18385e71619c8a2532"
TRACES_SHA256 = "11ef179ce5ed25b4c61ba8b3def157ecfa06a447743592ff0369155734dc9529"


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_run_corpus_prints_the_pinned_digests():
    done = run_script("run_corpus.py")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert f"colorings sha256 {COLORINGS_SHA256}" in lines
    assert f"traces sha256 {TRACES_SHA256}" in lines
    # Every ear-induction coloring of the corpus is replayed.
    assert "98 traced colorings replayed" in lines


def test_run_corpus_writes_one_verified_csv_row_per_graph(tmp_path):
    out = tmp_path / "corpus.csv"
    done = run_script("run_corpus.py", "--csv", str(out))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"wrote {out}"
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["graph", "n", "m", "strategy", "colors_used", "colors_allowed", "verified"]
    assert len(rows) == 1 + 154
    assert all(row[-1] == "yes" for row in rows[1:])


def load_script(name):
    """``scripts/<name>.py`` as a module, read from its file."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_run_corpus():
    return load_script("run_corpus")


def damage_first(script, monkeypatch, traced, damage):
    """Run ``script`` with ``damage`` applied to the first result that has
    (or, without ``traced``, lacks) a trace, and return its exit status."""
    color_rc2 = script.color_rc2
    damaged = []

    def colored(g, with_trace):
        result = color_rc2(g, with_trace=with_trace)
        if not damaged and (result.trace is not None) == traced:
            damaged.append(result)
            return damage(result)
        return result

    monkeypatch.setattr(script, "color_rc2", colored)
    return script.main([])


def test_run_corpus_fails_a_coloring_over_n_minus_one_colors(monkeypatch, capsys):
    """One edge of the wheel W4's (that is, K4's) Hamiltonian-chord coloring
    takes a fresh color: the coloring still verifies, but it spends n = 4
    colors."""

    def fresh_color(result):
        assign = result.coloring.assignment
        recolored = {**assign, min(assign): result.coloring.color_count}
        return dataclasses.replace(result, coloring=EdgeColoring.from_assignment(recolored))

    script = load_run_corpus()
    assert damage_first(script, monkeypatch, False, fresh_color) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "wheel(n=4): 4 colors, more than n - 1 = 3"
    assert "154 graphs, 1 failures" in lines[-4]


@pytest.mark.parametrize("how", ["damaged", "skipped"])
def test_run_corpus_fails_a_replay_that_fails_or_is_skipped(monkeypatch, capsys, how):
    """The first traced coloring keeps its coloring and its verification,
    but its trace puts another color on one edge, or its replay is skipped."""

    def recolor_in_trace(result):
        *head, last = result.trace
        step = dataclasses.replace(last, colored={**last.colored, min(last.colored): 99})
        return dataclasses.replace(result, trace=(*head, step))

    script = load_run_corpus()
    if how == "skipped":
        monkeypatch.setattr(
            script, "check_induction_invariants", lambda result, g: skipped("induction", "refused")
        )
        assert script.main([]) == 1
    else:
        assert damage_first(script, monkeypatch, True, recolor_in_trace) == 1
    out = capsys.readouterr().out
    faults = [line for line in out.splitlines() if ": replay: " in line]
    assert faults[0].startswith("theta(a=2,b=2,c=2): replay: ")
    assert len(faults) == (98 if how == "skipped" else 1)


def test_readme_quotes_the_pinned_digests():
    """The README quotes the first 8 hex digits of both digests above."""
    readme = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    assert f"colorings sha256 `{COLORINGS_SHA256[:8]}…`" in readme
    assert f"traces sha256 `{TRACES_SHA256[:8]}…`" in readme


def test_run_census_counts_graphs_and_classes():
    done = run_script("run_census.py", "--n", "4")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("n=4: 10 graphs (3 classes) in ")
    # The diamond needs 3 colors; the 4-cycle needs 4 and K4 needs 2.
    assert done.stdout.splitlines()[1] == "  classes needing n-1 = 3 colors: 1/3"


def test_run_census_writes_the_pinned_csv_of_every_size(tmp_path):
    """With no --n the census runs every size and exits 0, so no row breaks
    the theorem; each CSV it writes hashes to its pin. Under python -O this
    checks that the census and the oracle do not depend on asserts."""
    done = run_script("run_census.py", "--out-dir", str(tmp_path))
    assert done.returncode == 0, done.stdout + done.stderr
    for n, digest in CENSUS_CSV_SHA256.items():
        assert hashlib.sha256((tmp_path / f"census_{n}.csv").read_bytes()).hexdigest() == digest


def test_run_census_refuses_n_7():
    done = run_script("run_census.py", "--n", "7")
    assert done.returncode == 2
    assert "invalid choice: 7" in done.stderr and done.stdout == ""


def test_run_census_fails_a_row_that_breaks_the_theorem(monkeypatch, capsys):
    """The diamond's row, given n = 4 constructed colors, breaks the bound
    of n - 1 for a non-cycle; its true rows all pass."""
    script = load_script("run_census")
    census_small_graphs = script.census_small_graphs

    def damaged(n):
        rows = census_small_graphs(n)
        diamond = next(row for row in rows if row.edges == "0-1;0-2;0-3;1-2;1-3")
        return [dataclasses.replace(diamond, rc2_constructive=4)]

    monkeypatch.setattr(script, "census_small_graphs", damaged)
    assert script.main(["--n", "4"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n=4 graph 31 (0-1;0-2;0-3;1-2;1-3): constructed 4, more than n - 1 = 3"
    assert lines[-1] == "graphs breaking the theorem: 1"


def test_run_census_splits_the_classes_needing_n_minus_one(monkeypatch, capsys):
    """At n = 6 the four classes that need 5 colors are three thetas and K4
    with one edge replaced by a path of length 3."""
    script = load_script("run_census")
    monkeypatch.setattr(script, "census_small_graphs", lambda n: list(census_rows(n)))
    assert script.main(["--n", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:3] == [
        "  classes needing n-1 = 5 colors: 4/56",
        "  of these: theta 3, K4-path 1, other 0",
    ]


def test_run_census_names_an_other_class_needing_n_minus_one(monkeypatch, capsys):
    """K4 is neither a theta graph nor K4 with a subdivided edge, so its
    row, given 3 = n - 1 exact colors, is named as other."""
    script = load_script("run_census")
    census_small_graphs = script.census_small_graphs

    def damaged(n):
        k4 = next(row for row in census_small_graphs(n) if row.m == 6)
        return [dataclasses.replace(k4, rc2_exact=3)]

    monkeypatch.setattr(script, "census_small_graphs", damaged)
    assert script.main(["--n", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:4] == [
        "  classes needing n-1 = 3 colors: 1/1",
        "  of these: theta 0, K4-path 0, other 1",
        "  other: class 63 (0-1;0-2;0-3;1-2;1-3;2-3)",
    ]
