"""The suite's pytest configuration lets a failing hypothesis test fail.

``pyproject.toml`` turns every warning into an error.  Hypothesis's failure
reporter imports libcst, which warns about a deprecated mypy_extensions
name; as an error, that warning aborted the whole session with an
INTERNALERROR, and the tests after the failing one never ran.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_THEN_PASSING = """
from hypothesis import given, settings, strategies as st


@given(st.integers(0, 10))
@settings(database=None, deadline=None)
def test_fails(x):
    assert x < 5


def test_runs_after_the_failure():
    pass
"""


def test_failing_given_test_does_not_abort_the_session(tmp_path):
    (tmp_path / "test_sample.py").write_text(FAILING_THEN_PASSING)
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    argv += ["-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_sample.py"]
    # The child runs plain even when this session runs under PYTHONOPTIMIZE:
    # there pytest warns that asserts are ignored, and the "error" filter
    # would abort the child on that warning.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONOPTIMIZE"}
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env)
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
