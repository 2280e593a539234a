#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds `stamp_perfbench` (perfbench/CMakeLists.txt, Release) into
`$CARGO_TARGET_DIR/perfbench` (default `.bench_build/perfbench`) when it is
missing or stale, runs the workload in its own process from the repository
root, checks its metrics against BENCHMARK.json, and prints as the last line
of standard output one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. Per-layer metrics a workload does not exercise are
reported as 0. The line before it records the inputs behind the numbers.

Exit status: 0 when every correctness check passed, 1 when one failed or the
result broke the metric contract, 2 when the benchmark could not run.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure and build stamp_perfbench; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no STAMP sources at {ROOT / 'src'}; run from a full checkout")
    target_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_root.is_absolute():
        target_root = ROOT / target_root
    build_dir = target_root / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release", *generator],
                check=True, stdout=sys.stderr)
        subprocess.run(
            ["cmake", "--build", str(build_dir), "--target", "stamp_perfbench",
             "-j", jobs],
            check=True, stdout=sys.stderr)
    return build_dir / "stamp_perfbench"


def check_metrics(spec, result, trace):
    """Validate the binary's metrics against BENCHMARK.json and complete the
    per-layer set. Returns the metrics to report and a list of problems."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    problems = []
    metrics = {}
    for m in declared:
        name, unit = m["name"], m["unit"]
        if name not in got:
            if trace:
                metrics[name] = {"value": 0, "unit": unit}
                continue
            problems.append(f"metric {name} missing")
            continue
        value = got[name]["value"]
        if got[name]["unit"] != unit:
            problems.append(f"metric {name} in {got[name]['unit']}, declared {unit}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name} is not a finite number: {value}")
        elif not trace and value <= 0:
            problems.append(f"end-to-end metric {name} is {value}, must be > 0")
        metrics[name] = {"value": value, "unit": unit}
    undeclared = sorted(set(got) - {m["name"] for m in declared})
    if undeclared:
        problems.append(f"metrics not declared in BENCHMARK.json: {undeclared}")
    return metrics, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the self-test")
    parser.add_argument("--inject", default="",
                        help="corrupt one correctness reference (self-test)")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    binary = build()
    work = ROOT / ".perfbench"
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--root", str(ROOT),
               "--work", str(work)]
    if args.smoke:
        command.append("--smoke")
    if args.inject:
        command += ["--inject", args.inject]
    started = time.monotonic()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode not in (0, 1):
        fail(f"{args.workload} failed (exit {proc.returncode})")
    lines = [line for line in out.splitlines() if line.strip()]
    if len(lines) < 2:
        fail(f"{args.workload} printed no result")
    inputs = json.loads(lines[-2])
    result = json.loads(lines[-1])
    metrics, problems = check_metrics(spec, result, args.trace == 1)
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    inputs["inputs"]["run_seconds_wall"] = f"{time.monotonic() - started:.3f}"
    print(json.dumps(inputs))
    print(json.dumps({
        "correct": bool(result["correct"]) and not problems,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if result["correct"] and not problems else 1


if __name__ == "__main__":
    sys.exit(main())
