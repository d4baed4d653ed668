#!/usr/bin/env python3
"""Build rck_bench from this checkout, run one workload, print its result.

    python3 benchmark/run.py --workload rs119-solo --seed 1 --seconds 10 --trace 0

Builds benchmark/ (a CMake project that pulls in the repository sources)
into $CARGO_TARGET_DIR/rck_bench, default build-bench/rck_bench, then runs
rck_bench. Build output goes to stderr. Standard output is rck_bench's report,
whose last line is one JSON object: {"correct", "attempted", "failed",
"metrics"}, with the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1). Exits non-zero without that line when the
build fails or the metrics do not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail(f"no repository sources next to benchmark/ in {ROOT}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "rck_bench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", "build-bench"))
    build_dir = os.path.join(target, "rck_bench")
    build(build_dir)

    stem = os.path.join(build_dir, f"{args.workload}-seed{args.seed}")
    cmd = [os.path.join(build_dir, "rck_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--golden", os.path.join(ROOT, "benchmark", "golden.json"),
           "--json", stem + (".traced.json" if args.trace else ".json")]
    if args.trace:
        cmd += ["--trace-out", stem + ".trace.json"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        print("\n".join(lines))
        fail(f"rck_bench exited {proc.returncode} without a result")
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != {m["name"]: m["unit"] for m in wanted}:
        print("\n".join(lines[:-1]))
        fail("rck_bench metrics do not match BENCHMARK.json")
    print("\n".join(lines))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
