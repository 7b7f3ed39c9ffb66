#!/usr/bin/env python3
"""Build and run the simulator benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <chase-load|store-persist|cloud-mm6> \
        --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (which compiles the
simulator sources under src/) with CMake into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that
variable is unset; later runs only re-check the build. The run then
echoes the benchmark's output. Its last line is the result object; the
line before it is the detail record that compare.py reads.

Exits non-zero, without a result, when the build fails, the benchmark
fails or times out, or the result does not carry exactly the metrics
BENCHMARK.json lists for the chosen --trace mode.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout carries the result.
            subprocess.run(cmd, check=True, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as e:
            fail(f"build step {' '.join(cmd)} failed: {e}")
    return os.path.join(build_dir, "vans_perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no simulator sources under {ROOT}/src")
    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"vans_perfbench did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"vans_perfbench exited with code {proc.returncode}")

    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("vans_perfbench printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result has keys {sorted(result)}")
    want = expected_metrics(args.trace == "1")
    got = set(result["metrics"])
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(want - got)}, unexpected {sorted(got - want)}")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
