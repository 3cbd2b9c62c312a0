#!/usr/bin/env python3
"""Builds the serving benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload search_tcp|tenant_open|update_cluster \
        --seed N --seconds S --trace 0|1

The benchmark binary is compiled (incrementally) into $CARGO_TARGET_DIR or
.bench_build/ under the checkout root. Build output and the human-readable
report go to stderr. Standard output ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}, holding the metrics
BENCHMARK.json lists for the mode, with its units. The line before it is the
run record: every measured value, failures by kind, sample counts, the host's
steal share, nproc and load average. Span files and run records are kept
under <build dir>/out/.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("search_tcp", "tenant_open", "update_cluster")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found in this checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    source = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", source, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
                        *generator], check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def run(binary, args, build_dir, spec):
    out_dir = os.path.join(build_dir, "out")
    work_dir = os.path.join(build_dir, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir, "--work-dir", work_dir]
    if args.tiny:
        command.append("--tiny")
    if args.inject_swap:
        command.append("--inject-swap")
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"benchmark exited with {proc.returncode}", 1)
    lines = stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed no result", 1)
    record = json.loads(lines[-1])

    # The reported metrics and their units are BENCHMARK.json's. A layer a
    # workload does not pass through reads 0; an end-to-end metric must
    # have been measured.
    metrics = {}
    for metric in spec["per_layer" if args.trace else "end_to_end"]:
        value = record["values"].get(metric["name"])
        if value is None and not args.trace:
            fail(f"workload did not measure {metric['name']}", 1)
        metrics[metric["name"]] = {"value": value or 0.0, "unit": metric["unit"]}
    result = {key: record[key] for key in ("correct", "attempted", "failed")}
    result["metrics"] = metrics
    lines = [json.dumps({"record": record}), json.dumps(result)]
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        f.write("\n".join(lines) + "\n")
    sys.stdout.write("\n".join(lines) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    parser.add_argument("--inject-swap", action="store_true",
                        help="self-test: a decorator swaps two results of every answer")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    started = time.monotonic()
    try:
        binary = build(root, build_dir)
    except subprocess.CalledProcessError as error:
        fail(f"build failed: {error}", 1)
    print(f"perfbench: build step took {time.monotonic() - started:.1f} s", file=sys.stderr)
    run(binary, args, build_dir, spec)


if __name__ == "__main__":
    main()
