#!/usr/bin/env python3
"""Build the neurobench harness from source and run one workload.

    python3 neurobench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 neurobench/run.py --selftest     # unit tests of the harness logic

Run from the root of a checkout. The harness and the `neuro` library it
drives are built with CMake into .bench_build/ (or $CARGO_TARGET_DIR when
set) in the working directory; a rebuild is a no-op when nothing changed.
Build output goes to stderr, so the last line of stdout is the harness's
JSON result. That result is checked against BENCHMARK.json: a run that
does not report exactly the catalogued metrics fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"neurobench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(target):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"the neuro sources are not next to {HERE}; nothing to build", 2)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", target])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, target)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([build("neurobench_harness_test")]).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required", 2)

    binary = build("neurobench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        fail(f"{args.workload} printed no JSON result (exit {proc.returncode})")

    want = expected_metrics(args.trace)
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"metrics do not match BENCHMARK.json: missing "
             f"{sorted(set(want) - set(got))}, unexpected "
             f"{sorted(set(got) - set(want))}, units "
             f"{sorted(k for k in want if k in got and got[k] != want[k])}")
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
