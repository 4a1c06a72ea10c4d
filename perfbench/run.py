"""gamedim benchmark: one command for every metric, with correctness gates.

    python3 perfbench/run.py --workload council-replay --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ./src, with
the standard library only.  The workload runs in a fresh worker process
(perfbench/worker.py), which also launches the set-up probe
(perfbench/probe.py) and, untraced, the cold replay `python -m gamedim.cli
verify`, whose stdout must match perfbench/expected_verify.txt byte for byte.

It prints each metric named in BENCHMARK.json (`end_to_end` with --trace 0,
`per_layer` with --trace 1) on its own line with its unit, then one JSON
object as the last line.  The exit code is 1 when any correctness gate
failed, and 2 when the checkout holds no gamedim sources.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Every run ends within this many seconds, whatever the workload does.
DEADLINE_S = 170.0


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts.

    Bytecode is cached under the checkout (not next to the sources) and a
    discarded first launch fills the cache, so set-up is measured the way an
    installed program starts, whatever the caller's PYTHONDONTWRITEBYTECODE.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".perfbench_cache")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "gamedim" / "__init__.py").is_file():
        sys.stderr.write(f"error: no gamedim sources under {ROOT / 'src'}; "
                         "run from the root of a gamedim checkout\n")
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    start = time.monotonic()
    # The worker leads a process group of its own, so that on the deadline
    # the processes it started (forked passes, probes) go with it.
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.stderr.write("error: the workload did not finish before the deadline\n")
        return 1
    if proc.returncode != 0:
        sys.stderr.write(stderr[-4000:])
        return 1
    worker = json.loads(stdout.splitlines()[-1])
    attempted, failed, errors = worker["attempted"], worker["failed"], worker["errors"]
    metrics = worker["metrics"]

    info = [f"worker wall time: {time.monotonic() - start:.1f} s"]
    if args.trace:
        info.append(f"traced passes: {worker['traced_passes']} of {worker['ops_per_pass']} "
                    f"op(s), {worker['spans_per_pass']} spans per pass; counts and "
                    "self times are per traced pass")
    else:
        latencies = worker["latencies_s"]
        p90 = statistics.quantiles(latencies, n=10)[8]
        raw = {
            "setup_s": metrics["setup_s"],
            "verify_cold_s": metrics["verify_cold_s"],
            "op_ms.p50": 1000 * statistics.median(latencies),
            "op_ms.p90": 1000 * p90,
            "ops_per_s": worker["completed"] / sum(latencies),
        }
        scale = worker["scale"]
        metrics.update({name: value / scale if name == "ops_per_s" else value * scale
                        for name, value in raw.items()})
        metrics["ok_fraction"] = (attempted - failed) / attempted
        metrics["peak_rss_mb"] = worker["peak_rss_mb"]
        info.append(f"op samples: {len(latencies)} in {worker['passes']} passes, "
                    f"{sum(x > p90 for x in latencies)} beyond p90, "
                    f"slowest {1000 * max(latencies):.1f} ms unscaled")
        if worker["closing_s"]:
            info.append("declared time-limited op(s), counted in failed_fraction but not "
                        "in the op samples: "
                        + ", ".join(f"{s:.3f} s" for s in worker["closing_s"]))
        info.append(f"times are scaled by {scale:.4f} from {worker['calibration_samples']} "
                    "calibration samples; unscaled: "
                    + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()))
        info.append(f"failed_fraction: {failed / attempted:.6g} ({failed} failed of "
                    f"{attempted} attempted, cold replays included)")

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        errors.append("metrics not measured: " + ", ".join(missing))
    report = {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
              for m in wanted}
    correct = not errors
    for name, entry in report.items():
        print(f"{name:<46} {entry['value']:>14.6g} {entry['unit']}")
    for line in info:
        print("# " + line)
    for error in errors:
        print("# FAILED: " + error)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": report}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
