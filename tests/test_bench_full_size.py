"""One full-size traced pass of each benchmark workload.

``bench/test_bench_smoke.py`` runs the harness at toy sizes, where
wide_search's D is too small to sketch, so every smoke build is dense.
Some of the harness's checks run only on traced passes at full size: the
traced names must exist, every common span must be hit in every pass, and
the traced passes' counts must agree.  This test runs each workload that
``BENCHMARK.json`` declares the way the benchmark does, as a child process
from the repository root, with one traced pass and no ``--smoke``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_full_size_traced_pass_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    detail_line, result_line = proc.stdout.strip().splitlines()[-2:]
    detail, result = json.loads(detail_line), json.loads(result_line)
    assert result["correct"], detail["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert result["metrics"]["density.build_density_matrix.calls"]["value"] >= 1
