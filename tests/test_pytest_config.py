"""The suite's pytest configuration reports a failing property as a failure.

``filterwarnings`` turns every ``DeprecationWarning`` into an error.  When
a Hypothesis test fails, its pytest plugin imports ``libcst`` to explain
the example, and that import warns from third-party code; unfiltered, the
warning escapes as an ``INTERNALERROR`` that names no test at all.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = '''\
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
'''


def test_failing_property_is_reported_as_failed(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-c",
            str(REPO / "pyproject.toml"),
            "--rootdir",
            str(tmp_path),
            "-p",
            "no:cacheprovider",
            "test_property.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "INTERNALERROR" not in output, output
    assert "test_property.py::test_fails" in output, output
