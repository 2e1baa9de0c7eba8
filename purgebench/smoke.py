"""Smoke self-test of the benchmark at tiny input sizes.

    python3 purgebench/smoke.py

Runs every workload once untraced and once traced with ``--size tiny`` and
checks that each run passes its own correctness checks, prints every metric of
BENCHMARK.json by name with its unit (text lines and the final JSON line), and
reports the per-layer counts the program has today. Then it checks that the
benchmark fails without printing a result when the program is missing. Exits
non-zero on the first failed assertion.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("purgebench", "run.py")
BATCH = {"geo-train": 4, "codegen-sweep": 16, "codegen-stats": 4}
# Text lines every run prints besides the metrics of BENCHMARK.json.
EXTRA_LINES = {
    0: ["error_rate", "evaluation.dist_ratio", "trainer.ckpt_bytes", "wall_s samples", "setup_s samples",
        "evaluation.eval_pairs_per_s", "trainer.ckpt_save_ms", "trainer.ckpt_load_ms"],
    1: ["error_rate", "data.featurize_calls per cli.eval"],
}


def run_bench(cwd, workload, trace):
    argv = [sys.executable, RUN, "--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def text_value(stdout, name, unit):
    match = re.search(rf"^{re.escape(name)} = (\S+) {re.escape(unit)}(?:\s|$)", stdout, re.MULTILINE)
    assert match, f"no line '{name} = <value> {unit}'"
    return float(match.group(1))


def check_run(spec, workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert lines[0].startswith("env: python "), lines[0]
    for field in ("numpy", "blas", "blas threads", "nproc", f"seed 1"):
        assert f" {field}" in lines[0], f"env line lacks {field}"
    listed = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}, set(result["metrics"])
    for m in listed:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"], (m["name"], reported)
        assert isinstance(reported["value"], (int, float)), (m["name"], reported)
        assert text_value(proc.stdout, m["name"], m["unit"]) == reported["value"]
    for name in EXTRA_LINES[trace]:
        assert re.search(rf"^{re.escape(name)} = ", proc.stdout, re.MULTILINE), f"no '{name}' line"
    assert text_value(proc.stdout, "error_rate", "fraction") == 0.0
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["losses.ce_calls_per_step"] == BATCH[workload], metrics["losses.ce_calls_per_step"]
        if workload == "codegen-stats":
            assert text_value(proc.stdout, "data.featurize_calls per cli.stats", "count") == 4
        if workload == "codegen-sweep":
            assert text_value(proc.stdout, "data.featurize_calls per sweep cell", "count") == 2
            for name in ("evaluation.pool_cpu_s_per_cell", "evaluation.cell_s_p50", "cli.sweep_s"):
                assert text_value(proc.stdout, name, "(not in BENCHMARK.json)") > 0, name
    print(f"ok {workload} trace={trace}: {result['attempted']} checks")


def check_without_program(spec):
    """In a directory holding only BENCHMARK.json and the benchmark, it must fail."""
    bare = os.path.join(ROOT, ".benchrun", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0, "benchmark succeeded without the program"
        assert '"correct"' not in proc.stdout, "benchmark printed a result without the program"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok fails without the program")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(BATCH)
    for workload in BATCH:
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_without_program(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
