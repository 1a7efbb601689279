"""The two scripts under ``scripts/``, each run as a subprocess with the
package taken from ``src/``.

``run_corpus.py`` prints a digest of the corpus colorings and one of the
traced colorings; both are pinned here, so a change to any corpus coloring
or trace fails this test until its digest is re-recorded on purpose.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COLORINGS_SHA256 = "ff2e2bf817e56458dc68ff86cfb49332c6d3c613049b774068da0aa56a7e9504"
TRACES_SHA256 = "ade442f1cdf77f413fe3419cc6e93a0598fdd1dce6cd000d61dc8eb495a4e13f"


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


def test_run_census_counts_graphs_and_classes():
    done = run_script("run_census.py", "--n", "4")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("n=4: 10 graphs (3 classes) in ")


def test_run_census_refuses_n_7():
    done = run_script("run_census.py", "--n", "7")
    assert done.returncode == 2
    assert "invalid choice: 7" in done.stderr and done.stdout == ""
