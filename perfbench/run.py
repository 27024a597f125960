#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The harness is built from source with CMake
into .bench_build/ (incrementally; the first build compiles the library),
the run's files (result record, span file, stderr log) go to .bench_out/, and
the last line printed is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

MOCOGRAD_* environment knobs are removed from the harness's environment, so
every run measures the library's defaults.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
BINARY = BUILD_DIR / "mg_perfbench"
WORKLOADS = ("train_paper_k2", "train_wide_k11", "serve_open_mmoe")
RUN_TIMEOUT_S = 170
LOG_KEEP_LINES = 200  # head and tail kept of a long stderr log


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds mg_perfbench; fails with the log's tail."""
    OUT_DIR.mkdir(exist_ok=True)
    log_path = OUT_DIR / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", str(BUILD_DIR), "--target", "mg_perfbench",
              "-j", jobs]]
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "w") as log:
        ok = all(subprocess.run(step, stdout=log,
                                stderr=subprocess.STDOUT).returncode == 0
                 for step in steps)
    if ok and BINARY.exists():
        return
    tail = log_path.read_text(errors="replace").splitlines()[-20:]
    print("\n".join(tail), file=sys.stderr)
    fail(3, f"build failed (log: {log_path})")


def trim_log(path):
    """Keeps the head and tail of a long log (the watchdog can print one line
    per step) and notes how many lines were dropped between them."""
    lines = path.read_text(errors="replace").splitlines(keepends=True)
    if len(lines) <= 2 * LOG_KEEP_LINES:
        return
    dropped = len(lines) - 2 * LOG_KEEP_LINES
    path.write_text("".join(lines[:LOG_KEEP_LINES]) +
                    f"[... {dropped} lines dropped ...]\n" +
                    "".join(lines[-LOG_KEEP_LINES:]))


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        fail(2, "--seconds must be in 1..60")
    if args.seed < 0:
        fail(2, "--seed must be non-negative")

    build()

    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MOCOGRAD_")}
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    stderr_path = OUT_DIR / f"{tag}.stderr.log"
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    with open(stderr_path, "w") as err:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err,
                                  env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                                  text=True)
        except subprocess.TimeoutExpired:
            fail(5, f"run exceeded {RUN_TIMEOUT_S} s (stderr: {stderr_path})")
    trim_log(stderr_path)
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(4, f"harness exited with {proc.returncode} "
                f"(stderr: {stderr_path})")

    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if (not isinstance(result, dict) or
            set(result) != {"correct", "attempted", "failed", "metrics"} or
            set(result["metrics"]) != declared_metrics(args.trace)):
        sys.stderr.write(proc.stdout)
        fail(4, "harness result does not match BENCHMARK.json")

    print("\n".join(lines[:-1]))
    print(f"stderr log: {stderr_path.relative_to(ROOT)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
