"""The repository's pytest settings keep a failing run readable."""

import shutil
import subprocess
import sys
from pathlib import Path

PYTEST_INI = Path(__file__).resolve().parents[1] / "pytest.ini"

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(value):
    assert value != value


def test_passes():
    assert True
'''


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    """Reporting a falsified example must not turn into an INTERNALERROR
    that hides the tests after it: both tests report."""
    shutil.copy(PYTEST_INI, tmp_path / "pytest.ini")
    (tmp_path / "test_two.py").write_text(TWO_TESTS, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output, output
    assert "1 failed, 1 passed" in output, output
