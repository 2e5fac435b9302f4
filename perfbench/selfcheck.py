#!/usr/bin/env python3
"""Fast self-check of the benchmark harness (about a minute on two cores).

Usage, from the root of the repository:

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json at minimum size (``--size min``),
with tracing off and on.  Each run must end with the result line, report
no failed operation, and emit every metric BENCHMARK.json names, in its
declared unit.  A copy of the benchmark alone, without the tmsim sources,
must exit with an error and print no result.  Exits 1 on any problem.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
TIMEOUT_S = 170


def run(command, cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, *command[1:], "--workload", workload, "--seed", "0", "--seconds", "1",
           "--trace", str(trace), "--size", "min"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    where = f"{workload} --trace {trace}"
    done = run(spec["command"], ROOT, workload, trace)
    if done.returncode != 0:
        return [f"{where}: exit code {done.returncode}: {done.stderr.strip()[-300:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')} "
                        f"attempted={result.get('attempted')}")
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in declared}:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ {m['name'] for m in declared})}")
    for m in declared:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {got.get('unit')!r}, declared {m['unit']!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {m['name']} value {value!r}")
        elif not trace and value <= 0:
            problems.append(f"{where}: end-to-end metric {m['name']} is {value}, must be positive")
    return problems


def check_bare(spec: dict) -> list[str]:
    """The benchmark without tmsim beside it must fail without a result."""
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        done = run(spec["command"], bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"correct"' in done.stdout:
        return [f"bare directory: exit code {done.returncode}, stdout {done.stdout.strip()[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_bare(spec)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            problems += check_result(spec, workload["name"], trace)
            print(f"checked {workload['name']} --trace {trace}", file=sys.stderr)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
