"""``rc2 census`` and ``rc2 corpus`` run as ``python -m rc2`` processes:
the exit status and the streams a shell sees, where ``test_cli`` reads
them from ``main(argv)`` in process."""

from .test_cli import CORPUS_SIZE, run_subprocess


def test_run_census_refuses_n_7():
    done = run_subprocess(["census", "--n", "7"])
    assert done.returncode == 2
    assert done.stderr == "error: census covers 3 to 6 vertices\n" and done.stdout == ""


def test_run_corpus_writes_one_verified_csv_row_per_graph():
    """One tab-separated row per corpus graph on stdout, each verified; the
    report goes to stderr."""
    done = run_subprocess(["corpus"])
    assert done.returncode == 0, done.stderr
    rows = [line.split("\t") for line in done.stdout.splitlines()]
    assert len(rows) == CORPUS_SIZE
    assert all(len(row) == 7 and row[-1] == "yes" for row in rows)
    assert done.stderr.splitlines()[-5] == f"{CORPUS_SIZE} graphs, 0 failures"
