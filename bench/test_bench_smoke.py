"""Smoke tests of the benchmark harness at toy sizes, so it cannot rot.

Each test runs ``bench/run.py --smoke`` the way the benchmark is run:
as a child process from the repository root.  A traced run also runs an
untraced pass, so it exercises every output check as well as the tracer.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    detail_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail_line), json.loads(result_line)


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_traced_run_reports_every_layer(workload):
    detail, result = _result(_run(workload, trace=1))
    assert set(result) == RESULT_KEYS
    assert result["correct"], detail["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in DECLARED["per_layer"]]
    for entry in DECLARED["per_layer"]:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
    assert result["metrics"]["density.build_density_matrix.calls"]["value"] > 0
    assert result["metrics"]["process.import_s"]["value"] > 0
    assert detail["workload"]["why"]


def test_untraced_run_reports_end_to_end_metrics():
    detail, result = _result(_run("bulk_score", trace=0))
    assert set(result) == RESULT_KEYS
    assert result["correct"], detail["problems"]
    assert list(result["metrics"]) == [m["name"] for m in DECLARED["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    env = detail["environment"]
    assert env["seed"] == 3 and env["nproc"] >= 1
    assert {"cpu_model", "l2_bytes", "l3_bytes", "python", "numpy", "scipy", "openblas",
            "blas_threads_in_force"} <= env.keys()


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("bulk_score", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
