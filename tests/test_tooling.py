"""The suite's own pytest configuration, run on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_AND_PASSING = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, database=None)
@given(st.integers(0, 3))
def test_fails(n):
    assert n < 0


def test_passes():
    assert True
'''


def test_a_hypothesis_counterexample_fails_only_its_test(tmp_path):
    # reporting the counterexample imports libcst, whose import-time warning
    # the "error" filter would turn into an INTERNALERROR ending the session
    test_file = tmp_path / "test_throwaway.py"
    test_file.write_text(FAILING_AND_PASSING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
