"""The benchmark still runs on the program.

Each workload of BENCHMARK.json runs once untraced and once traced at tiny
input sizes with no time budget (``--seconds 0`` still runs two repetitions).
The runner keeps its work files beside its own copy, so it runs from a copy
of ``purgebench/``, ``BENCHMARK.json`` and ``src/`` in a temporary directory.
A change that breaks what the benchmark calls of the program, such as its
full checkpoint load, fails here instead of in a benchmark run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def bench_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    shutil.copy(ROOT / "BENCHMARK.json", root)
    for name in ("purgebench", "src"):
        shutil.copytree(ROOT / name, root / name, ignore=shutil.ignore_patterns("__pycache__"))
    return root


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_each_benchmark_workload_runs_and_passes_its_checks(bench_root, workload, trace):
    argv = [sys.executable, "purgebench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(argv, cwd=bench_root, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), proc.stdout
    assert result["attempted"] > 0
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}, proc.stdout
