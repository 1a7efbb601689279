"""The two scripts under ``scripts/``, each run as a subprocess with the
package taken from ``src/``.

``run_corpus.py`` prints a digest of the corpus colorings and one of the
traced colorings; both are pinned here and quoted in the README, so a
change to any corpus coloring or trace fails this test until its digests
are recorded again on purpose, with the reason in CHANGES.md.
"""

import csv
import os
import subprocess
import sys
from pathlib import Path

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


def test_readme_quotes_the_pinned_digests():
    """The README quotes the first 8 hex digits of both digests above."""
    readme = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    assert f"colorings sha256 `{COLORINGS_SHA256[:8]}…`" in readme
    assert f"traces sha256 `{TRACES_SHA256[:8]}…`" in readme


def test_run_census_counts_graphs_and_classes():
    done = run_script("run_census.py", "--n", "4")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("n=4: 10 graphs (3 classes) in ")


def test_run_census_refuses_n_7():
    done = run_script("run_census.py", "--n", "7")
    assert done.returncode == 2
    assert "invalid choice: 7" in done.stderr and done.stdout == ""
