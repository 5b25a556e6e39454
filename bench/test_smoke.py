"""Smoke check of the benchmark: one short run of every workload in both
trace modes on seed 1, checking the result line against BENCHMARK.json
and that no operation failed; and a refusal where no sources exist.

    python3 -m pytest bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, *SPEC["command"][1:]]
    argv += ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0, proc.stderr
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got == {"value": got["value"], "unit": m["unit"]}
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            ROOT / path,
            tmp_path / path,
            ignore=shutil.ignore_patterns(".work", "__pycache__", ".pytest_cache"),
        )
    proc = run_bench(tmp_path, "cli", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
