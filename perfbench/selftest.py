#!/usr/bin/env python3
"""Smoke-size self-test of the repository benchmark.

    python3 perfbench/selftest.py

Runs every workload at smoke size, untraced and traced, through run.py and
checks that each declared metric is emitted with its unit and every
correctness check passes. Then corrupts each correctness reference in turn
(the sweep artifact digest, the canonical baseline, the BnB winner, one serve
reference line, the fleet baseline) and checks that the run reports the
failure. Exits 0 when everything holds.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Each check, and the workload whose reference it corrupts.
INJECTIONS = [
    ("sweep_artifact", "digest"),
    ("sweep_artifact", "baseline"),
    ("search_grid", "bnb"),
    ("serve_open", "serve-ref"),
    ("fleet_merge", "fleet"),
]


def run(workload, trace, inject=""):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace),
               "--smoke"]
    if inject:
        command += ["--inject", inject]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def main():
    problems = []
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            code, result, err = run(w["name"], trace)
            label = f"{w['name']} trace={trace}"
            if result is None:
                problems.append(f"{label}: no result (exit {code}): {err[-500:]}")
                continue
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{label}: not correct (exit {code}): {err[-500:]}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            declared = SPEC["per_layer" if trace else "end_to_end"]
            for m in declared:
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(f"{label}: metric {m['name']} missing or "
                                    f"without unit {m['unit']}: {got}")
            print(f"ok   {label}" if not problems else f"..   {label}")
    for workload, inject in INJECTIONS:
        code, result, err = run(workload, 0, inject)
        label = f"{workload} inject={inject}"
        if code != 1 or result is None or result["correct"] or result["failed"] < 1:
            problems.append(f"{label}: the check did not fire (exit {code}, "
                            f"result {result})")
        else:
            print(f"ok   {label} fired: {result['failed']} of "
                  f"{result['attempted']} failed")
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
