"""The repository's pytest settings report every result.

``filterwarnings = ["error"]`` turns warnings into failures.  When a
hypothesis property fails, hypothesis imports its patch writer, whose import
warns; unless that one warning is ignored, pytest stops with
``INTERNALERROR`` and the tests after the failure never report.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x < 5


def test_b_passing():
    pass
'''


def test_a_failing_property_does_not_hide_later_results(tmp_path):
    (tmp_path / "test_sample.py").write_text(FAILING_THEN_PASSING, encoding="utf-8")
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_sample.py",
        ],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output, output
    assert "1 failed, 1 passed" in output, output
