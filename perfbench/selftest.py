"""Self-test of the benchmark, kept out of the test suite.

    python3 perfbench/selftest.py

1. A smoke-sized run of each workload, untraced and traced, reports exactly
   the metrics BENCHMARK.json names, each with its unit, and no failure.
2. A copy of one output corrupted between a repetition and its checks shows
   up in ``failed`` and in the ``failed_frac`` metric.
3. In a directory holding only BENCHMARK.json and the benchmark's files, the
   benchmark exits with a non-zero code and prints no result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS, Rep


def _expected(spec: dict, key: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[key]}


def check_metric_names(spec: dict) -> list[str]:
    problems = []
    for name in sorted(WORKLOADS):
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, details = run.run_benchmark(name, seed=7, seconds=0, trace=trace, smoke=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            label = f"{name} trace={int(trace)}"
            if got != _expected(spec, key):
                problems.append(f"{label}: metrics {got} differ from BENCHMARK.json {key}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: not correct: {details['failures']} {details['accounting_errors']}")
            print(f"{label}: {len(got)} metrics, {result['attempted']} operations, {result['failed']} failed")
    return problems


def check_corruption() -> list[str]:
    def corrupt(rep: Rep) -> None:
        if rep.index == 1:  # repetition 0 is the reference for byte identity
            path = rep.path / "out" / "final_state.txt"
            data = path.read_bytes()
            path.write_bytes(data[:-2] + (b"1" if data[-2:-1] == b"0" else b"0") + b"\n")

    result, _ = run.run_benchmark("conv1d", seed=7, seconds=0, trace=True, smoke=True, corrupt=corrupt)
    frac = result["metrics"]["failed_frac"]["value"]
    print(f"corrupted final_state.txt: failed {result['failed']} of {result['attempted']}, failed_frac {frac}")
    if result["failed"] != 1 or frac <= 0 or result["correct"]:
        return ["a corrupted output was not counted as a failed operation"]
    return []


def check_bare_directory(spec: dict) -> list[str]:
    work = run.ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [*spec["command"], "--workload", "conv1d", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
        try:
            work.rmdir()
        except OSError:  # a benchmark run still uses it
            pass
    print(f"bare directory: exit code {done.returncode}, stdout {done.stdout!r}")
    if done.returncode == 0 or '"correct"' in done.stdout:
        return ["the benchmark ran without the program"]
    return []


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problem = run.preflight(run.child_env())
    if problem is not None:
        print(f"selftest: {problem}")
        return 1
    problems = check_metric_names(spec) + check_corruption() + check_bare_directory(spec)
    for problem in problems:
        print("FAIL:", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
