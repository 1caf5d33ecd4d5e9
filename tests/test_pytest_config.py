"""The suite's own pytest options: ``filterwarnings = ["error"]`` must not turn
a failing hypothesis test into an INTERNALERROR that ends the session."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_property_that_fails(x):
    assert x < 0


def test_after_it():
    pass
'''


def test_a_failing_hypothesis_test_is_reported_and_the_session_goes_on(tmp_path):
    """Hypothesis reports a failure through libcst, which warns on import;
    under the repo's options it is a plain failure (exit 1) and the next
    test still runs."""
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
