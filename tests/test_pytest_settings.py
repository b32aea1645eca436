"""The suite's own pytest settings: with warnings as errors, a failing
property test is still reported as one failure, and the tests after it run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

PROBE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_property_test_does_not_end_the_run(tmp_path):
    # Reporting a failure, hypothesis's pytest plugin imports libcst where it
    # is installed, and libcst 1.0 uses mypy_extensions.TypedDict, which warns
    # DeprecationWarning.  Under filterwarnings = ["error"] that warning was an
    # INTERNALERROR: pytest exited 3 and no later test ran.  CI installs no
    # libcst, so there this test passes with or without the ignore filter.
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert run.returncode == 1, out
    assert "1 failed, 1 passed" in out, out
