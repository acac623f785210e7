"""Fast self-check of the benchmark (about a minute on two cores).

Runs every workload of ``BENCHMARK.json`` at tiny scale, untraced and
traced, through the real command line, and checks that:

* the last line is the result object with exactly its four keys;
* every declared metric is printed, with its declared unit and a finite
  value, and no undeclared one;
* ``error_rate`` is 0 and the command exits with code 0.

It also checks that the command refuses to run, without printing a result,
in a directory holding only ``BENCHMARK.json`` and the benchmark's files.

Usage, from the repository root::

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(command: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_workload(declared: dict, name: str, trace: int) -> list[str]:
    command = declared["command"] + [
        "--workload", name, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny",
    ]
    done = run(command, ROOT)
    where = f"{name} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit code {done.returncode}\n{done.stderr[-2000:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    if report["error_rate"] != 0:
        problems.append(f"{where}: error_rate {report['error_rate']}")
    expected = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    printed = result["metrics"]
    if set(printed) != set(expected):
        problems.append(f"{where}: metrics differ: {sorted(set(printed) ^ set(expected))}")
    for metric, unit in expected.items():
        entry = printed.get(metric)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            problems.append(f"{where}: {metric} unit {entry.get('unit')!r}, declared {unit!r}")
        if not isinstance(entry.get("value"), (int, float)) or not math.isfinite(entry["value"]):
            problems.append(f"{where}: {metric} value {entry.get('value')!r}")
    return problems


def check_bare_directory(declared: dict) -> list[str]:
    with tempfile.TemporaryDirectory() as scratch:
        bare = Path(scratch)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in declared["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        command = declared["command"] + [
            "--workload", declared["workloads"][0]["name"], "--seed", "1",
            "--seconds", "1", "--trace", "0",
        ]
        done = run(command, bare)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout[-200:]!r}"]
    return []


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_bare_directory(declared)
    for workload in declared["workloads"]:
        for trace in (0, 1):
            problems.extend(check_workload(declared, workload["name"], trace))
            print(f"checked {workload['name']} --trace {trace}", flush=True)
    for problem in problems:
        print("FAIL", problem)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
