"""The repository's pytest settings report a failing hypothesis test as a
failure.

``filterwarnings`` turns every warning into an error.  When a ``@given``
test fails, hypothesis's pytest plugin imports ``libcst`` to suggest a
patch, and that import warns that ``mypy_extensions.TypedDict`` is
deprecated; raised as an error inside the plugin's report hook, it ended
the run with INTERNALERROR and no name for the failing test.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = """\
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
"""


def test_failing_given_test_is_reported(tmp_path):
    (tmp_path / "test_given_fails.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "test_given_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "FAILED test_given_fails.py::test_fails - assert 5 < 5" in out
    assert run.returncode == 1
