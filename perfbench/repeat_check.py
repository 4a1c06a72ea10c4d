"""Check that two traced runs of the same seed give identical counts.

    python3 perfbench/repeat_check.py --workload cover-search --seed 3

Runs `run.py --trace 1` twice and compares every per-layer metric whose unit
is `count`.  Within one run, the worker already requires every traced pass to
give the same counts; this compares two separate processes.  Exits 1 on any
difference or when either run fails its correctness gates.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def traced_counts(workload: str, seed: int, seconds: float) -> dict[str, float] | None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        return None
    metrics = json.loads(lines[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items() if m["unit"] == "count"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=5.0)
    args = parser.parse_args()
    first = traced_counts(args.workload, args.seed, args.seconds)
    second = traced_counts(args.workload, args.seed, args.seconds)
    if first is None or second is None:
        print("a traced run failed")
        return 1
    differ = sorted(name for name in first if first[name] != second.get(name))
    for name in sorted(first):
        mark = "DIFFERS" if name in differ else "same"
        print(f"{name:<46} {first[name]:>12g} {second.get(name, 0):>12g} {mark}")
    print(f"{len(differ)} of {len(first)} counts differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
