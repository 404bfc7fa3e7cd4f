#!/usr/bin/env python3
"""Builds and runs the syncon benchmark program for one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload offline-pairs --seed 1 --seconds 10 --trace 0

The program is built from source on first use (CMake, Release) into the
directory named by CARGO_TARGET_DIR (default .bench_build). Its stdout is
passed through; the last line is one JSON object with the keys correct,
attempted, failed and metrics. On top of the program's own output checks this
script requires that

  * the reported metric names are exactly those BENCHMARK.json declares for
    the mode (end_to_end with --trace 0, per_layer with --trace 1);
  * the deterministic counts line repeats exactly across runs of one seed
    with one binary (remembered under the build directory).

Any failure makes the exit status non-zero.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("offline-pairs", "daemon-faulty", "daemon-restart")


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("the syncon sources (CMakeLists.txt, src/) are not next to perfbench/", 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True, timeout=120,
        )
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"],
        stdout=sys.stderr, check=True, timeout=780,
    )
    return os.path.join(build_dir, "perfbench")


def declared_metrics(traced):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}


def check_counts(counts_line, binary, args, build_dir):
    """Counts of one seed must repeat exactly; returns an error or None."""
    with open(binary, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()[:16]
    ledger = os.path.join(build_dir, "counts")
    os.makedirs(ledger, exist_ok=True)
    path = os.path.join(ledger, f"{args.workload}-{args.seed}-{digest}.txt")
    if os.path.isfile(path):
        with open(path) as f:
            earlier = f.read().strip()
        if earlier != counts_line:
            return f"deterministic counts differ from an earlier run of seed {args.seed}:\n  {earlier}\n  {counts_line}"
    else:
        with open(path, "w") as f:
            f.write(counts_line + "\n")
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    build_dir = os.path.join(build_dir, "perfbench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")

    out_dir = os.path.join(build_dir, "spans")
    os.makedirs(out_dir, exist_ok=True)
    command = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", out_dir,
    ]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=170)
    except subprocess.TimeoutExpired:
        fail("perfbench did not finish within 170 s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout)
        fail(f"perfbench exited with status {run.returncode}")

    result = json.loads(lines[-1])
    errors = []
    declared = declared_metrics(args.trace == 1)
    if declared is not None and set(result["metrics"]) != declared:
        errors.append(
            "metric names differ from BENCHMARK.json: "
            f"missing {sorted(declared - set(result['metrics']))}, "
            f"extra {sorted(set(result['metrics']) - declared)}"
        )
    counts = [line for line in lines if line.startswith("counts {")]
    if len(counts) != 1:
        errors.append("perfbench printed no deterministic counts line")
    else:
        error = check_counts(counts[0], binary, args, build_dir)
        if error:
            errors.append(error)

    for line in lines[:-1]:
        print(line)
    for error in errors:
        print(f"CHECK FAILED: {error}")
    if errors:
        result["correct"] = False
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
