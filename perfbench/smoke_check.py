"""Smoke run of the benchmark: every metric prints by name with its unit.

Run from the repository root with

    python -m pytest perfbench/smoke_check.py

It takes about two minutes.  The repository's own test run does not
collect it (``testpaths = ["tests"]`` and the file name does not match
``test_*.py``).
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_benchmark(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = run_benchmark(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1] if len(line.split()) >= 3}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert printed.get(metric["name"]) == metric["unit"], metric["name"]
    assert any(line.startswith("digest   sha256:") for line in lines)
    assert any(line.startswith("machine  nproc=") for line in lines)


def test_refuses_without_the_program(tmp_path):
    """A directory holding only the benchmark is not a checkout."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(str(tmp_path), SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
