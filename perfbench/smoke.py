#!/usr/bin/env python3
"""Smoke run of the whole benchmark harness at its smallest size.

Run from the root of a vdmuml checkout:

    python3 perfbench/smoke.py

Every workload runs once with tracing off and once with it on, at 2% of
full size for one second. Each run must be correct, fail nothing and
report exactly the metrics BENCHMARK.json names for its trace mode. The
benchmark must also refuse, with a non-zero exit and no result line, to
run in a directory that holds only BENCHMARK.json and perfbench/.
Takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
RUN = [sys.executable, "perfbench/run.py", "--seconds", "1", "--seed", "1"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = RUN + ["--workload", workload, "--trace", str(trace), "--scale", "0.02"]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
            label = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}: {done.stderr.strip()[-300:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} runs failed")
            reported = {name: m["unit"] for name, m in result["metrics"].items()}
            if reported != wanted[trace]:
                problems.append(f"{label}: metrics or units differ from BENCHMARK.json: "
                                f"{sorted(set(reported.items()) ^ set(wanted[trace].items()))}")
            print(f"smoke: {label}: {result['attempted']} runs, correct={result['correct']}")

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        argv = [sys.executable, "perfbench/run.py", "--workload", spec["workloads"][0]["name"],
                "--seed", "1", "--seconds", "1", "--trace", "0"]
        done = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=170)
        if done.returncode == 0 or done.stdout.strip():
            problems.append("the benchmark produced a result without the program present")
        else:
            print(f"smoke: without the program: exit {done.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"smoke: FAILED {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
