"""Smallest-size self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout. For every workload it runs the benchmark
on the small inputs, untraced and traced, and requires that the run
finishes, that every metric named in ``BENCHMARK.json`` is printed with its
unit, and that no operation failed. Then it runs each workload once more
with a deliberately corrupted golden answer and requires that the checker
counts a failure, which shows the checks are not vacuous.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run(workload: str, trace: int, *extra: str) -> dict:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--size", "small", *extra]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if p.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr[-2000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def main() -> int:
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    for w in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = run(w, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if got != want:
                problems.append(f"{w} trace={trace}: metrics {sorted(set(want) ^ set(got))} or units differ")
            if not out["correct"] or out["failed"] or out["attempted"] < 1:
                problems.append(f"{w} trace={trace}: {out['failed']}/{out['attempted']} operations failed")
        bad = run(w, 0, "--corrupt-golden")
        if bad["correct"] or bad["failed"] < 1:
            problems.append(f"{w}: a corrupted golden answer was not counted as a failure")
        print(f"{w}: ok" if not problems else f"{w}: {problems}", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
