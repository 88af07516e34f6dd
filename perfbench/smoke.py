#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at a tiny problem size.

    python3 perfbench/smoke.py

Runs every workload untraced and traced for one second at ``--size tiny``
and asserts that each run is correct, emits every metric BENCHMARK.json
names with its unit, and that the traced counts equal the closed forms of
``workloads.expected_counts``.  Then checks that the benchmark refuses to
run, without printing a result, in a copy holding only BENCHMARK.json and
``perfbench/``.  Exits 0 when all checks pass.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = ["--seed", "7", "--seconds", "1", "--size", "tiny"]


def run(root, workload, trace):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--trace", str(trace), *RUN]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def check_result(proc, names, workload, trace):
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{where}: not correct: {proc.stdout.strip()[-800:]}")
    if not result.get("attempted", 0) >= 1:
        errors.append(f"{where}: attempted {result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(names):
        errors.append(f"{where}: metrics {sorted(set(metrics) ^ set(names))} differ from spec")
    for name, unit in names.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit or not math.isfinite(entry.get("value", math.nan)):
            errors.append(f"{where}: bad metric {name}: {entry}")
    if trace:
        for name, want in workloads.expected_counts(workloads.config(workload, "tiny")).items():
            got = metrics.get(name, {}).get("value")
            if got != want:
                errors.append(f"{where}: {name} = {got}, closed form {want}")
    return errors


def check_bare_copy():
    """Without the sources the benchmark must fail and print no result."""
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, workloads.WORKLOADS[0], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare copy: exit {proc.returncode}, stdout {proc.stdout.strip()[-300:]!r}"]
    return []


def main():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        print(f"FAIL: BENCHMARK.json workloads differ from {workloads.WORKLOADS}")
        return 1
    errors = []
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            errors += check_result(run(ROOT, workload, trace), names[trace], workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not errors else 'FAIL'}", flush=True)
    errors += check_bare_copy()
    for error in errors:
        print(f"FAIL: {error}")
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
