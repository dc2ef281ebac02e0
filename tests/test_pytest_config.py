"""The suite's pytest configuration reports a failing property test as a
failure and goes on with the session.

``pyproject.toml`` turns every warning into an error.  Hypothesis's pytest
plugin raises a ``DeprecationWarning`` of its own while it reports a failed
``@given`` test; unless the configuration ignores that one warning, it
becomes an INTERNALERROR that ends the session, so every later test goes
unrun and unreported.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = '''
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(n):
    assert n != n


def test_runs_after_the_failure():
    pass
'''


def test_failing_property_test_is_reported_and_the_session_goes_on(tmp_path):
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY)
    # cwd tmp_path: the hypothesis example database is written there
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "test_failing_property.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
