"""Smoke check of the benchmark harness.

    python3 perfbench/smoke.py

Runs every workload at a tiny size, untraced and traced, and asserts that
each run exits 0, is correct with no failed operation, and emits exactly the
metrics BENCHMARK.json names, each with its unit.  Then checks that a
directory holding only BENCHMARK.json and the benchmark (no sources) makes
the benchmark exit non-zero without printing a result.  Run from the root of
a source checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{wl} --trace {trace}"
            done = run(ROOT, "--workload", wl, "--seed", "7", "--seconds", "1",
                       "--trace", str(trace), "--smoke")
            if done.returncode != 0:
                errors.append(f"{label}: exit {done.returncode}\n{done.stderr}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{label}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1):
                errors.append(f"{label}: fail_share {result['failed']}/"
                              f"{result['attempted']}\n{done.stderr}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != wanted[trace]:
                errors.append(f"{label}: metrics differ from BENCHMARK.json: "
                              f"{sorted(set(units.items()) ^ set(wanted[trace].items()))}")
            print(f"ok  {label}: {result['attempted']} ops, "
                  f"{len(units)} metrics")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, "--workload", "classify", "--seed", "7",
                   "--seconds", "1", "--trace", "0")
        if done.returncode == 0 or done.stdout.strip():
            errors.append("without sources the benchmark must fail silently "
                          f"on stdout; got exit {done.returncode}")
        else:
            print(f"ok  no sources: exit {done.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for e in errors:
        print(f"FAIL {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
