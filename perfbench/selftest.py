#!/usr/bin/env python3
"""Self-test of the serving benchmark at tiny sizes.

    python3 perfbench/selftest.py

For every workload run.py accepts (BENCHMARK.json's and the hand-run
tenant_open), checks that
  * an untraced run prints every end-to-end metric of BENCHMARK.json with
    its unit, and a traced run every per-layer metric, all correct;
  * a decorator that swaps two results of every answer makes the run
    report correct = false;
and, for a fixed seed, that bytes per query, stored bytes per input byte
and the setup's crypto cost counters repeat exactly, and change with a
second seed. Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import WORKLOADS  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DETERMINISTIC = ("wire_bytes_per_query", "stored_bytes_per_input_byte")


def run(workload, seed, trace, *extra):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "2", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"FAIL {' '.join(command)}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def check(condition, message):
    if not condition:
        sys.exit(f"FAIL {message}")
    print(f"ok   {message}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            _, result = run(workload, 7, trace)
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} trace={trace}: correct with no failed operations")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[kind]}
            check(got == want, f"{workload} trace={trace}: every {kind} metric with its unit")
        _, swapped = run(workload, 7, 0, "--inject-swap")
        check(not swapped["correct"], f"{workload}: swapped results fail the correctness check")

        first, a = run(workload, 7, 0)
        again, b = run(workload, 7, 0)
        _, c = run(workload, 8, 0)
        costs = {k: v for k, v in first["detail"].items() if k.startswith("cost.")}
        check(all(a["metrics"][m]["value"] == b["metrics"][m]["value"] for m in DETERMINISTIC)
              and costs == {k: v for k, v in again["detail"].items() if k.startswith("cost.")},
              f"{workload}: byte metrics and cost counters repeat for a fixed seed")
        check(any(a["metrics"][m]["value"] != c["metrics"][m]["value"] for m in DETERMINISTIC),
              f"{workload}: a second seed gives other inputs")
    print("self-test passed")


if __name__ == "__main__":
    main()
