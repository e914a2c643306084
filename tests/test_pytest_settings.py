"""The repository's own pytest settings, run on a probe file."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, database=None)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # Warnings are errors; the one the hypothesis plugin raises while it
    # reports a failure must not become an INTERNALERROR that ends the run.
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout
